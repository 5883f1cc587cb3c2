//! paper-d10k: the paper's §4.4 configuration (`ClassConfig::default()`:
//! d = 10 000, SuSS-learned width, k = 3, Pearson, macro-F1, α = 1e-50,
//! 1000-label resampling, jump = 5). One stream at a time goes into
//! `ClassSegmenter::step` on one thread, closed loop.
//!
//! A pass runs every stream of the workload once; passes repeat until the
//! run's time is up, and each pass must report the same change points.

use crate::calib::Calibrator;
use crate::inputs;
use crate::quality::{self, FRAME};
use crate::replay::{self, LayerTimes};
use crate::report::{block_median, median, ns, quantile, Report};
use crate::sys;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter};
use std::time::{Duration, Instant};

/// Times the set-up is repeated per pass.
const SETUPS: usize = 5;

/// Lowest mean Covering a correct run may score.
const COVERING_FLOOR: f64 = 0.8;

/// One stream's closed-loop run.
struct StreamRun {
    /// Change points in the order they were reported.
    cps: Vec<u64>,
    /// `(record index whose step reported it, change point)`.
    detections: Vec<(u64, u64)>,
    /// Nanoseconds per step once the width was known.
    running_steps: Vec<u64>,
    /// Nanoseconds spent on the warm-up: buffering the first d records and
    /// the step that ended it (width learning + replay); `None` if it never
    /// ended.
    warmup: Option<u64>,
    /// Nanoseconds in `step` and `finalize`, calibration slices excluded.
    busy: u64,
    /// `busy` as measured, before rescaling to the reference speed.
    raw_busy: u64,
    width: usize,
}

/// Runs one stream, timing the reference kernel between steps; every time
/// is returned at the reference speed.
fn run_stream(xs: &[f64], mut seg: ClassSegmenter, cal: &mut Calibrator) -> StreamRun {
    let mut cps = Vec::new();
    let mut detections = Vec::new();
    // Per step, then `finalize`: nanoseconds and the calibration mark.
    let mut dts = Vec::with_capacity(xs.len() + 1);
    let mut marks = Vec::with_capacity(xs.len() + 1);
    let mut warmup_end = None;
    let mut prev = Instant::now();
    for (i, &x) in xs.iter().enumerate() {
        let running = seg.width().is_some();
        let before = cps.len();
        seg.step(x, &mut cps);
        let now = Instant::now();
        dts.push(ns(now - prev));
        marks.push(cal.mark());
        prev = now;
        if !running && seg.width().is_some() {
            warmup_end = Some(i);
        }
        detections.extend(cps[before..].iter().map(|&cp| (i as u64, cp)));
        if cal.tick(now) {
            prev = Instant::now();
        }
    }
    let before = cps.len();
    seg.finalize(&mut cps);
    dts.push(ns(prev.elapsed()));
    marks.push(cal.mark());
    detections.extend(cps[before..].iter().map(|&cp| (xs.len() as u64, cp)));
    let raw_busy = dts.iter().sum();
    cal.rescale(&mut dts, &marks);
    StreamRun {
        cps,
        detections,
        running_steps: warmup_end.map_or_else(Vec::new, |e| dts[e + 1..xs.len()].to_vec()),
        warmup: warmup_end.map(|e| dts[..=e].iter().sum()),
        busy: dts.iter().sum(),
        raw_busy,
        width: seg.width().unwrap_or(0),
    }
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, budget: Duration, trace: bool, report: &mut Report) {
    let cfg = ClassConfig::default();
    report.info(format!(
        "paper-d10k: d={} width=learned k={} log10(alpha)={} jump={}; {} streams per pass, \
         closed loop on 1 thread",
        cfg.window_size,
        cfg.k,
        cfg.log10_alpha,
        cfg.jump,
        inputs::PAPER_STREAMS
    ));
    let started = Instant::now();
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let (mut wall, mut cpu, mut records) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut raw_wall = Duration::ZERO;
    let (mut steps, mut warmups, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Vec<datasets::AnnotatedSeries>, Vec<StreamRun>)> = None;
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers = LayerTimes::default();
    let mut codec = Vec::new();
    let mut passes = 0usize;
    let mut rss_mb = None;
    let mut cal = Calibrator::new();
    let mut setup_marks = Vec::new();
    while passes == 0 || started.elapsed() < budget {
        passes += 1;
        // Set-up is short next to a pass; repeating it steadies its median.
        let mut made = None;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let streams = inputs::paper_streams(seed);
            generate.push(t0.elapsed().as_secs_f64() * 1e3);
            let segmenters: Vec<ClassSegmenter> = streams
                .iter()
                .map(|_| ClassSegmenter::new(cfg.clone()))
                .collect();
            setup.push(ns(t0.elapsed()));
            setup_marks.push(cal.mark());
            made = Some((streams, segmenters));
            cal.sample();
        }
        let (streams, segmenters) = made.expect("SETUPS > 0");

        let (cpu0, spent0) = (sys::process_cpu(), cal.spent());
        let t0 = Instant::now();
        let runs: Vec<StreamRun> = streams
            .iter()
            .zip(segmenters)
            .map(|(s, seg)| run_stream(&s.values, seg, &mut cal))
            .collect();
        untraced_walls.push(t0.elapsed().as_secs_f64());
        // CPU of the pass without the kernel slices, at the reference speed.
        let ref_busy: u64 = runs.iter().map(|r| r.busy).sum();
        let raw_busy: u64 = runs.iter().map(|r| r.raw_busy).sum();
        let pass_cpu = (sys::process_cpu() - cpu0).saturating_sub(cal.spent() - spent0);
        cpu += pass_cpu.mul_f64(ref_busy as f64 / raw_busy.max(1) as f64);
        wall += Duration::from_nanos(ref_busy);
        raw_wall += Duration::from_nanos(raw_busy);
        for (s, r) in streams.iter().zip(&runs) {
            let n = s.len() as u64;
            records += n;
            report.attempted += n;
            steps.extend_from_slice(&r.running_steps);
            frames.extend(quality::closed_loop_frames(&r.running_steps));
            report.check(r.warmup.is_some(), n, || {
                format!("{}: warm-up never ended", s.name)
            });
            warmups.extend(r.warmup);
        }

        if trace {
            let t0 = Instant::now();
            for (s, r) in streams.iter().zip(&runs) {
                let cps = replay::replay(&s.values, &cfg, &mut layers);
                report.check(cps == r.cps, s.len() as u64, || {
                    format!(
                        "{}: traced replay reported {cps:?}, ClassSegmenter {:?}",
                        s.name, r.cps
                    )
                });
            }
            traced_walls.push(t0.elapsed().as_secs_f64());
            let slices: Vec<&[f64]> = streams.iter().map(|s| s.values.as_slice()).collect();
            match quality::codec_cost(&slices) {
                Ok(c) => codec.push(c),
                Err(e) => report.check(false, 0, || e),
            }
        }

        // The high-water mark after the first pass, before later passes
        // add timing samples of their own.
        rss_mb.get_or_insert_with(sys::rss_peak_mb);
        match &first {
            None => first = Some((streams, runs)),
            Some((_, reference)) => {
                for ((s, r), want) in streams.iter().zip(&runs).zip(reference) {
                    report.check(r.cps == want.cps, s.len() as u64, || {
                        format!(
                            "{}: pass {passes} reported {:?}, pass 1 {:?}",
                            s.name, r.cps, want.cps
                        )
                    });
                }
            }
        }
    }

    let (streams, runs) = first.expect("at least one pass ran");
    let mut coverings = Vec::new();
    let mut delays = Vec::new();
    let (mut truths, mut reported) = (0usize, 0usize);
    for (s, r) in streams.iter().zip(&runs) {
        coverings.push(quality::covering(s, &r.cps));
        let tol = 5 * r.width.max(1) as u64;
        let found = quality::delays(s, &r.detections, tol);
        truths += s.change_points.len();
        reported += r.cps.len();
        report.info(format!(
            "{}: {} points, learned width {}, true change points {:?}, reported {:?}, \
             detection delays {found:?}",
            s.name,
            s.len(),
            r.width,
            s.change_points,
            r.detections
        ));
        delays.extend(found);
    }
    let covering = coverings.iter().sum::<f64>() / coverings.len() as f64;
    report.check(covering >= COVERING_FLOOR, 0, || {
        format!("mean Covering {covering:.3} below the floor {COVERING_FLOOR}")
    });
    report.check(!delays.is_empty(), 0, || {
        "no true change point was detected".to_string()
    });
    let p50 = block_median(&steps);
    let a50 = block_median(&frames);
    steps.sort_unstable();
    frames.sort_unstable();
    let warmup_ms: Vec<f64> = warmups.iter().map(|&s| s as f64 / 1e6).collect();
    let (p99, p99_beyond) = quantile(&steps, 0.99);
    let (a95, a95_beyond) = quantile(&frames, 0.95);
    report.info(format!(
        "{passes} passes, {records} records, {} running steps ({p99_beyond} beyond p99), \
         {} frames of {FRAME} ({a95_beyond} beyond p95), {} warm-ups; \
         {reported} change points reported for {truths} true, {} detected",
        steps.len(),
        frames.len(),
        warmups.len(),
        delays.len()
    ));
    let secs = |v: &[u64]| -> Vec<f64> { v.iter().map(|&t| t as f64 / 1e9).collect() };
    report.info(format!(
        "host: nproc {}, threads 1, simd {}; slowdown {:.3} against the reference speed; \
         as measured: {:.1} records/s, set-up {:.4} s",
        sys::nproc(),
        sys::simd_backend(),
        cal.overall(),
        records as f64 / raw_wall.as_secs_f64(),
        median(&secs(&setup))
    ));

    cal.rescale(&mut setup, &setup_marks);
    report.metric("setup_s", median(&secs(&setup)), "s");
    report.metric(
        "throughput_rps",
        records as f64 / wall.as_secs_f64(),
        "records/s",
    );
    report.metric(
        "records_per_cpu_s",
        records as f64 / cpu.as_secs_f64().max(1e-9),
        "records/cpu_s",
    );
    report.metric("step_p50_us", p50 / 1e3, "us");
    report.metric("step_p99_us", p99 as f64 / 1e3, "us");
    report.metric("warmup_stall_ms", median(&warmup_ms), "ms");
    report.metric("ack_p50_us", a50 / 1e3, "us");
    report.metric("ack_p95_us", a95 as f64 / 1e3, "us");
    let delay_pts: Vec<f64> = delays.iter().map(|&d| d as f64).collect();
    report.metric(
        "detect_delay_pts",
        if delay_pts.is_empty() {
            0.0
        } else {
            median(&delay_pts)
        },
        "points",
    );
    report.metric("covering", covering, "ratio");
    report.metric("rss_peak_mb", rss_mb.expect("at least one pass ran"), "MiB");
    report.metric("datasets.generate_ms", median(&generate), "ms");

    if trace {
        let unattributed = layers.report(report, traced_walls.len());
        let (enc, dec): (Vec<f64>, Vec<f64>) = codec.into_iter().unzip();
        report.metric("net.encode_ns", median(&enc), "ns");
        report.metric("net.decode_ns", median(&dec), "ns");
        report.metric(
            "ledger.trace_overhead",
            median(&traced_walls) / median(&untraced_walls) - 1.0,
            "ratio",
        );
        report.metric("ledger.unattributed_share", unattributed, "ratio");
    }
}
