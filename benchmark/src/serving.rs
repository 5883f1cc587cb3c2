//! fleet-inproc and wire-paced: 128 concurrent two-regime streams
//! (d = 500, fixed w = 25, α = 1e-15, jump = 5) served by `serve` on one
//! shard with 256-slot block-policy rings.
//!
//! * fleet-inproc saturates the engine with `feed_all` from the calling
//!   thread (closed loop).
//! * wire-paced sends the same streams over one loopback `NetClient`
//!   connection, stop-and-wait, in 64-record `RECORDS` frames offered at
//!   a fixed 100 000 records/s (open loop). Each frame is timed from when
//!   it was due to its `ACK`.
//!
//! A pass serves every stream once; passes repeat until the run's time is
//! up. Every pass must reproduce, stream by stream, the change points of
//! a standalone `ClassSegmenter` run on the same data (the oracle), which
//! also serves as the single-thread baseline.

use crate::calib::{Calibrator, PASS_WINDOW};
use crate::inputs;
use crate::quality;
use crate::replay::{self, LayerTimes};
use crate::report::{block_median, median, ns, quantile, Report};
use crate::sys;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection};
use datasets::AnnotatedSeries;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream_engine::{
    feed_all, serve, Backpressure, EngineConfig, IngestServer, NetClient, RegisterRequest,
    RingConfig, SegmenterOperator, StatsHandle, StreamResult, StreamState,
};

const SHARDS: usize = 1;
const RING: usize = 256;
const WIDTH: usize = 25;
/// Offered load of wire-paced: 30–60 % of the engine's measured capacity
/// on a 2-core host, so the run measures waiting, not saturation.
const OFFERED_RPS: f64 = 100_000.0;
/// Lowest mean Covering a correct run may score.
const COVERING_FLOOR: f64 = 0.8;
/// Period of the traced run's queue-depth and thread-CPU sampler.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);
/// The open-loop generator sleeps until this long before a frame is due,
/// then spins, so timer slack does not make it late.
const SPIN: Duration = Duration::from_micros(100);

/// How records reach the engine.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `feed_all` on the calling thread.
    InProcess,
    /// One paced `NetClient` connection over loopback TCP.
    Wire,
}

fn segmenter_config() -> ClassConfig {
    let mut cfg = ClassConfig::with_window_size(500);
    cfg.width = WidthSelection::Fixed(WIDTH);
    cfg.log10_alpha = -15.0;
    cfg
}

fn ring() -> RingConfig {
    RingConfig::new(RING, Backpressure::Block)
}

/// Samples engine queue depth and the CPU time of chosen threads while a
/// traced pass runs.
struct Sampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Samples>,
}

#[derive(Default)]
struct Samples {
    /// Records queued across all rings, one value per sample.
    depths: Vec<u64>,
    /// Per watched thread: CPU time at its first and last sample.
    cpu: Vec<(Duration, Duration)>,
    /// The sampler's own CPU time.
    own_cpu: Duration,
}

impl Samples {
    /// CPU the watched threads used between their first and last sample.
    fn watched_cpu(&self) -> Duration {
        self.cpu.iter().map(|&(first, last)| last - first).sum()
    }
}

impl Sampler {
    fn start(stats: StatsHandle, watch: Vec<u32>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let cpu0 = sys::thread_cpu();
            let mut s = Samples::default();
            let mut seen: Vec<Option<(Duration, Duration)>> = vec![None; watch.len()];
            loop {
                let last = flag.load(Ordering::Acquire);
                s.depths.push(stats.stats().queue_depth() as u64);
                for (slot, &tid) in seen.iter_mut().zip(&watch) {
                    if let Some(c) = sys::task_cpu(tid) {
                        *slot = Some(slot.map_or((c, c), |(first, _)| (first, c)));
                    }
                }
                if last {
                    break;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            s.cpu = seen.into_iter().flatten().collect();
            s.own_cpu = sys::thread_cpu() - cpu0;
            s
        });
        Sampler { stop, thread }
    }

    fn finish(self) -> Samples {
        self.stop.store(true, Ordering::Release);
        self.thread
            .join()
            .expect("the sampler thread does not panic")
    }
}

/// What the open-loop wire client saw in one pass.
#[derive(Default)]
struct WireStats {
    /// Nanoseconds from each frame's due time to its `ACK`.
    acks: Vec<u64>,
    /// Nanoseconds each frame was sent after its due time.
    late: Vec<u64>,
    /// Traced passes: the client thread's wall split into schedule wait,
    /// sending, and waiting for the `ACK`.
    sleep: Duration,
    send: Duration,
    ack_wait: Duration,
    loop_wall: Duration,
    throttles: u64,
    protocol_errors: u64,
}

/// One pass: every stream served once.
struct Pass {
    results: Vec<StreamResult<u64>>,
    generate: Duration,
    /// Generation, engine start and registration.
    setup: Duration,
    register: Duration,
    /// First record offered → `serve` returned.
    wall: Duration,
    /// Process CPU over `wall`.
    cpu: Duration,
    /// CPU of the calling thread (the feeder or the wire client) over `wall`.
    caller_cpu: Duration,
    /// Last record accepted → `serve` returned.
    drain: Duration,
    threads: usize,
    /// `feed_all`: wall, calling-thread CPU, backoff rounds.
    feed: Option<(Duration, Duration, u64)>,
    wire: Option<WireStats>,
    samples: Option<Samples>,
    /// Records that failed on the way in, with the reason.
    failures: Vec<(u64, String)>,
}

/// Runs the workload and fills `report`.
pub fn run(transport: Transport, seed: u64, budget: Duration, trace: bool, report: &mut Report) {
    let cfg = segmenter_config();
    report.info(format!(
        "{}: {} streams x {} points, d={} w={WIDTH} log10(alpha)={} jump={}, {SHARDS} shard, \
         {RING}-slot block rings, {}",
        name(transport),
        inputs::FLEET_STREAMS,
        inputs::FLEET_POINTS,
        cfg.window_size,
        cfg.log10_alpha,
        cfg.jump,
        match transport {
            Transport::InProcess => "saturated by feed_all (closed loop)".to_string(),
            Transport::Wire => format!(
                "1 NetClient, {}-record frames stop-and-wait, open loop at {OFFERED_RPS} records/s",
                quality::FRAME
            ),
        }
    ));
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut streams: Option<Vec<AnnotatedSeries>> = None;
    let mut oracle = Oracle::default();
    let mut rss_mb = None;
    let mut cal = Calibrator::new();
    let mut pass_marks = Vec::new();
    // Each round: one engine pass, then the standalone oracle over the same
    // streams, so both sample the host across the whole run. The oracle
    // also times the reference kernel, which gives the host's speed during
    // the engine passes on either side of it.
    loop {
        let (s, pass) = run_pass(transport, seed, &cfg, false);
        pass_marks.push(cal.mark());
        for k in oracle.round(&s, &cfg, &mut cal) {
            report.check(false, s[k].len() as u64, || {
                format!(
                    "{}: standalone ClassSegmenter output differs between rounds",
                    s[k].name
                )
            });
        }
        streams.get_or_insert(s);
        untraced.push(pass);
        if trace {
            traced.push(run_pass(transport, seed, &cfg, true).1);
        }
        // The high-water mark of the first round: engine, inputs and one
        // round of samples, before later rounds add samples of their own.
        rss_mb.get_or_insert_with(sys::rss_peak_mb);
        if started.elapsed() >= budget {
            break;
        }
    }
    let streams = streams.expect("at least one round ran");
    for pass in untraced.iter().chain(&traced) {
        check_pass(report, &streams, &oracle, pass);
    }

    // Quality, from the oracle (every pass reproduced it exactly, or the
    // run is already marked incorrect).
    let tol = 5 * WIDTH as u64;
    let mut coverings = Vec::new();
    let mut delays = Vec::new();
    let (mut truths, mut reported) = (0usize, 0usize);
    for (s, out) in streams.iter().zip(&oracle.outputs) {
        let len = s.len() as u64;
        let detections: Vec<(u64, u64)> = out.iter().map(|&(at, cp)| (at.min(len), cp)).collect();
        let cps: Vec<u64> = out.iter().map(|&(_, cp)| cp).collect();
        coverings.push(quality::covering(s, &cps));
        delays.extend(
            quality::delays(s, &detections, tol)
                .into_iter()
                .map(|d| d as f64),
        );
        truths += s.change_points.len();
        reported += cps.len();
    }
    let covering = coverings.iter().sum::<f64>() / coverings.len() as f64;
    report.check(covering >= COVERING_FLOOR, 0, || {
        format!("mean Covering {covering:.3} below the floor {COVERING_FLOOR}")
    });
    report.check(!delays.is_empty(), 0, || {
        "no true change point was detected".to_string()
    });

    let records_in = |p: &Pass| p.results.iter().map(|r| r.records_in).sum::<u64>();
    let records: u64 = untraced.iter().map(records_in).sum();
    let wall: Duration = untraced.iter().map(|p| p.wall).sum();
    let server_cpu: Duration = untraced
        .iter()
        .map(|p| p.cpu.saturating_sub(p.caller_cpu))
        .sum();
    // The host's slowdown during each untraced pass, and the pass's times
    // at the reference speed.
    let slowdowns: Vec<f64> = pass_marks
        .iter()
        .map(|&m| cal.around(m, PASS_WINDOW))
        .collect();
    let at_ref = |f: fn(&Pass) -> Duration| -> Vec<Duration> {
        untraced
            .iter()
            .zip(&slowdowns)
            .map(|(p, &s)| f(p).div_f64(s))
            .collect()
    };
    let ref_wall: Duration = at_ref(|p| p.wall).into_iter().sum();
    let ref_cpu: Duration = at_ref(|p| p.cpu).into_iter().sum();
    let ref_setup: Vec<f64> = at_ref(|p| p.setup)
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    let slowdown = cal.overall();
    let secs = |v: &[&Pass], f: fn(&Pass) -> Duration| -> Vec<f64> {
        v.iter().map(|p| f(p).as_secs_f64()).collect()
    };
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let plain: Vec<&Pass> = untraced.iter().collect();

    let mut steps = oracle.steps.clone();
    let p50 = block_median(&steps);
    steps.sort_unstable();
    let (p99, p99_beyond) = quantile(&steps, 0.99);
    let mut acks: Vec<u64> = match transport {
        Transport::InProcess => oracle.frames.clone(),
        Transport::Wire => untraced
            .iter()
            .filter_map(|p| p.wire.as_ref())
            .flat_map(|w| w.acks.iter().copied())
            .collect(),
    };
    // Closed-loop frames follow the host's speed over time; open-loop ACK
    // latencies mix per-frame wake-up paths, which the pooled median keeps
    // apart instead of averaging.
    let closed_loop_a50 = block_median(&acks);
    acks.sort_unstable();
    let a50 = match transport {
        Transport::InProcess => closed_loop_a50,
        Transport::Wire => quantile(&acks, 0.5).0 as f64,
    };
    let (a95, a95_beyond) = quantile(&acks, 0.95);
    let (a99, a99_beyond) = quantile(&acks, 0.99);
    let (a999, a999_beyond) = quantile(&acks, 0.999);

    report.info(format!(
        "{} untraced + {} traced passes, {records} records in untraced passes; oracle: {} steps \
         ({p99_beyond} beyond p99), median round {:.3} s; {} {} (pooled median {:.1} us, \
         {a95_beyond} beyond p95, {a99_beyond} beyond p99, {a999_beyond} beyond p99.9); \
         {reported} change points reported for {truths} true, {} detected",
        untraced.len(),
        traced.len(),
        steps.len(),
        median(&oracle.walls),
        acks.len(),
        match transport {
            Transport::InProcess => "closed-loop frames of the oracle",
            Transport::Wire => "wire frames",
        },
        quantile(&acks, 0.5).0 as f64 / 1e3,
        delays.len()
    ));
    report.info(format!(
        "host: nproc {}, shards {SHARDS}, threads {} (caller + engine{}), simd {}; slowdown \
         {slowdown:.3} against the reference speed; as measured: {:.1} records/s, set-up {:.4} s",
        sys::nproc(),
        untraced[0].threads,
        match transport {
            Transport::InProcess => "",
            Transport::Wire => " + ingest server",
        },
        sys::simd_backend(),
        records as f64 / wall.as_secs_f64(),
        median(&secs(&plain, |p| p.setup)),
    ));

    report.metric("setup_s", median(&ref_setup), "s");
    // Closed loop, the engine's speed follows the host's and is rescaled.
    // wire-paced's throughput is the offered rate, and its CPU is mostly
    // system calls and wake-ups, which the calibration kernel does not
    // track (rescaled, its spread over five seeds rose from 0.05 to 0.2):
    // both stay as measured.
    let (rate_wall, rate_cpu) = match transport {
        Transport::InProcess => (ref_wall, ref_cpu),
        // The generator's own thread is not the system under test.
        Transport::Wire => (wall, server_cpu),
    };
    report.metric(
        "throughput_rps",
        records as f64 / rate_wall.as_secs_f64(),
        "records/s",
    );
    report.metric(
        "records_per_cpu_s",
        records as f64 / rate_cpu.as_secs_f64().max(1e-9),
        "records/cpu_s",
    );
    report.metric("step_p50_us", p50 / 1e3, "us");
    report.metric("step_p99_us", p99 as f64 / 1e3, "us");
    report.metric("warmup_stall_ms", median(&oracle.warmup_ms), "ms");
    report.metric("ack_p50_us", a50 / 1e3, "us");
    report.metric("ack_p95_us", a95 as f64 / 1e3, "us");
    report.metric(
        "detect_delay_pts",
        if delays.is_empty() {
            0.0
        } else {
            median(&delays)
        },
        "points",
    );
    report.metric("covering", covering, "ratio");
    report.metric(
        "rss_peak_mb",
        rss_mb.expect("at least one round ran"),
        "MiB",
    );
    report.metric(
        "datasets.generate_ms",
        median(&secs(&all, |p| p.generate)) * 1e3,
        "ms",
    );
    if !trace {
        return;
    }

    report.metric(
        "engine.register_ms",
        median(&secs(&all, |p| p.register)) * 1e3,
        "ms",
    );
    report.metric(
        "engine.drain_ms",
        median(&secs(&all, |p| p.drain)) * 1e3,
        "ms",
    );
    report.metric(
        "engine.sequential_ratio",
        median(&oracle.walls) / median(&secs(&plain, |p| p.wall)),
        "ratio",
    );
    report.metric(
        "server.cpu_per_record_us",
        server_cpu.as_secs_f64() * 1e6 / records.max(1) as f64,
        "us",
    );
    if transport == Transport::InProcess {
        let feeds: Vec<(Duration, Duration, u64)> = all.iter().filter_map(|p| p.feed).collect();
        let f = |g: fn(&(Duration, Duration, u64)) -> f64| feeds.iter().map(g).collect::<Vec<_>>();
        report.metric("feed.wall_s", median(&f(|x| x.0.as_secs_f64())), "s");
        report.metric("feed.cpu_s", median(&f(|x| x.1.as_secs_f64())), "s");
        report.metric("feed.backoff_rounds", median(&f(|x| x.2 as f64)), "count");
    }

    // Shard ledger of each traced pass: operator busy + other shard CPU +
    // time the shard thread was off CPU make up the pass wall time.
    let mut busy_share = Vec::new();
    let mut overhead_share = Vec::new();
    let mut sleep_share = Vec::new();
    let mut depths = Vec::new();
    for p in &traced {
        let samples = p.samples.as_ref().expect("traced passes carry samples");
        let wall = p.wall.as_secs_f64();
        let busy: f64 = p.results.iter().map(|r| r.busy.as_secs_f64()).sum();
        let shard_cpu: f64 = samples
            .cpu
            .iter()
            .take(SHARDS)
            .map(|&(a, b)| (b - a).as_secs_f64())
            .sum();
        busy_share.push(busy / wall);
        overhead_share.push((shard_cpu - busy) / wall);
        sleep_share.push((wall - shard_cpu) / wall);
        depths.extend_from_slice(&samples.depths);
        report.info(format!(
            "traced pass: wall {wall:.3} s, operator busy {busy:.3} s, shard cpu {shard_cpu:.3} s, \
             server threads cpu {:.3} s, sampler cpu {:.3} s, process - caller - sampler {:.3} s",
            samples.watched_cpu().as_secs_f64(),
            samples.own_cpu.as_secs_f64(),
            p.cpu.saturating_sub(p.caller_cpu + samples.own_cpu).as_secs_f64()
        ));
    }
    report.metric("shard.op_busy_share", median(&busy_share), "ratio");
    report.metric("shard.overhead_share", median(&overhead_share), "ratio");
    report.metric("shard.sleep_share", median(&sleep_share), "ratio");
    depths.sort_unstable();
    report.metric(
        "engine.queue_depth_p50",
        quantile(&depths, 0.5).0 as f64,
        "records",
    );
    report.metric(
        "engine.queue_depth_max",
        depths.last().copied().unwrap_or(0) as f64,
        "records",
    );
    report.metric(
        "ledger.trace_overhead",
        median(&secs(&traced.iter().collect::<Vec<_>>(), |p| p.wall))
            / median(&secs(&plain, |p| p.wall))
            - 1.0,
        "ratio",
    );

    let slices: Vec<&[f64]> = streams.iter().map(|s| s.values.as_slice()).collect();
    match quality::codec_cost(&slices) {
        Ok((enc, dec)) => {
            report.metric("net.encode_ns", enc, "ns");
            report.metric("net.decode_ns", dec, "ns");
        }
        Err(e) => report.check(false, 0, || e),
    }

    // The class-core layers, from a traced replay of the same streams.
    let mut layers = LayerTimes::default();
    for (k, s) in streams.iter().enumerate() {
        let cps = replay::replay(&s.values, &cfg, &mut layers);
        let want: Vec<u64> = oracle.outputs[k].iter().map(|&(_, cp)| cp).collect();
        report.check(cps == want, s.len() as u64, || {
            format!(
                "{}: traced replay reported {cps:?}, ClassSegmenter {want:?}",
                s.name
            )
        });
    }
    let mut unattributed = layers.report(report, 1);

    if transport == Transport::Wire {
        let wires: Vec<&WireStats> = all.iter().filter_map(|p| p.wire.as_ref()).collect();
        let frames: usize = wires.iter().map(|w| w.acks.len()).sum();
        let throttles: u64 = wires.iter().map(|w| w.throttles).sum();
        report.metric(
            "net.throttle_per_frame",
            throttles as f64 / frames.max(1) as f64,
            "ratio",
        );
        report.metric("net.ack_p99_us", a99 as f64 / 1e3, "us");
        report.metric("net.ack_p999_us", a999 as f64 / 1e3, "us");
        let mut late: Vec<u64> = untraced
            .iter()
            .filter_map(|p| p.wire.as_ref())
            .flat_map(|w| w.late.iter().copied())
            .collect();
        late.sort_unstable();
        let (l99, l99_beyond) = quantile(&late, 0.99);
        report.metric("gen.late_p99_us", l99 as f64 / 1e3, "us");
        report.metric(
            "gen.late_max_ms",
            late.last().copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        );
        report.info(format!(
            "generator lateness over {} frames: p99 {:.1} us ({l99_beyond} beyond)",
            late.len(),
            l99 as f64 / 1e3
        ));

        // Client ledger: schedule wait + send + ACK wait = client wall.
        let traced_wire: Vec<&WireStats> = traced.iter().filter_map(|p| p.wire.as_ref()).collect();
        let tframes = traced_wire
            .iter()
            .map(|w| w.acks.len())
            .sum::<usize>()
            .max(1);
        let sum =
            |f: fn(&WireStats) -> Duration| traced_wire.iter().map(|w| f(w)).sum::<Duration>();
        let (sleep, send, ack_wait, loop_wall) = (
            sum(|w| w.sleep),
            sum(|w| w.send),
            sum(|w| w.ack_wait),
            sum(|w| w.loop_wall),
        );
        report.metric("net.send_ns", ns(send) as f64 / tframes as f64, "ns");
        report.metric(
            "net.ack_wait_ns",
            ns(ack_wait) as f64 / tframes as f64,
            "ns",
        );
        let lw = loop_wall.as_secs_f64().max(1e-9);
        let client_unattributed = 1.0 - (sleep + send + ack_wait).as_secs_f64() / lw;
        report.info(format!(
            "client ledger over {lw:.3} s: schedule wait {:.4}, send {:.4}, ACK wait {:.4}, \
             unattributed {client_unattributed:.4}",
            sleep.as_secs_f64() / lw,
            send.as_secs_f64() / lw,
            ack_wait.as_secs_f64() / lw
        ));
        report.check(client_unattributed.abs() <= 0.05, 0, || {
            format!("wire client ledger leaves {client_unattributed:.4} of its wall unattributed")
        });
        if client_unattributed.abs() > unattributed.abs() {
            unattributed = client_unattributed;
        }
    }
    report.metric("ledger.unattributed_share", unattributed, "ratio");
}

fn name(transport: Transport) -> &'static str {
    match transport {
        Transport::InProcess => "fleet-inproc",
        Transport::Wire => "wire-paced",
    }
}

/// Every stream run standalone through `ClassSegmenter` on this thread,
/// once per round: the output the engine must reproduce, the per-step
/// timings, and the single-thread baseline's wall time.
#[derive(Default)]
struct Oracle {
    /// Per stream, `(record index, change point)` exactly as
    /// `SegmenterOperator` emits them (`u64::MAX` for end-of-stream), from
    /// the first round.
    outputs: Vec<Vec<(u64, u64)>>,
    /// Nanoseconds per step, all streams and rounds.
    steps: Vec<u64>,
    /// Closed-loop latencies of 64-step frames.
    frames: Vec<u64>,
    /// Time each stream spent on its first d records (the index filling
    /// its window), every round, in ms.
    warmup_ms: Vec<f64>,
    /// Wall time of each round, in seconds.
    walls: Vec<f64>,
}

impl Oracle {
    /// Runs one round, timing the reference kernel between steps; returns
    /// the streams whose output differs from the first round's. Step,
    /// frame and warm-up times are kept at the reference speed.
    fn round(
        &mut self,
        streams: &[AnnotatedSeries],
        cfg: &ClassConfig,
        cal: &mut Calibrator,
    ) -> Vec<usize> {
        let first = self.outputs.is_empty();
        let mut differing = Vec::new();
        let started = Instant::now();
        let mut cps = Vec::new();
        let total = streams.iter().map(|s| s.len()).sum();
        let (mut steps, mut marks) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for (k, s) in streams.iter().enumerate() {
            let mut seg = ClassSegmenter::new(cfg.clone());
            let mut out = Vec::new();
            let mut prev = Instant::now();
            for (i, &x) in s.values.iter().enumerate() {
                cps.clear();
                seg.step(x, &mut cps);
                let now = Instant::now();
                steps.push(ns(now - prev));
                marks.push(cal.mark());
                prev = now;
                out.extend(cps.iter().map(|&cp| (i as u64, cp)));
                if cal.tick(now) {
                    prev = Instant::now();
                }
            }
            cps.clear();
            seg.finalize(&mut cps);
            out.extend(cps.iter().map(|&cp| (u64::MAX, cp)));
            if first {
                self.outputs.push(out);
            } else if self.outputs[k] != out {
                differing.push(k);
            }
        }
        self.walls.push(started.elapsed().as_secs_f64());
        cal.rescale(&mut steps, &marks);
        let mut from = 0;
        for s in streams {
            let own = &steps[from..from + s.len()];
            from += s.len();
            self.frames.extend(quality::closed_loop_frames(own));
            let warmup: u64 = own.iter().take(cfg.window_size).sum();
            self.warmup_ms.push(warmup as f64 / 1e6);
        }
        self.steps.extend(steps);
        differing
    }
}

/// Checks one pass against the oracle and the engine's record ledger.
fn check_pass(report: &mut Report, streams: &[AnnotatedSeries], oracle: &Oracle, pass: &Pass) {
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    report.attempted += total;
    for (n, why) in &pass.failures {
        report.check(false, *n, || why.clone());
    }
    if let Some(w) = &pass.wire {
        report.check(w.protocol_errors == 0, w.protocol_errors, || {
            format!(
                "the ingest server sent {} protocol errors",
                w.protocol_errors
            )
        });
    }
    if pass.results.len() != streams.len() {
        report.check(false, total, || {
            format!(
                "{} stream results for {} streams",
                pass.results.len(),
                streams.len()
            )
        });
        return;
    }
    for ((s, r), want) in streams.iter().zip(&pass.results).zip(&oracle.outputs) {
        let n = s.len() as u64;
        let got: Vec<(u64, u64)> = r
            .output
            .iter()
            .map(|rec| (rec.timestamp, rec.value))
            .collect();
        let mut problems = Vec::new();
        if r.state != StreamState::Done {
            problems.push(format!("state {}", r.state));
        }
        if r.accounted() != r.pushed || r.pushed != n || r.drops != 0 {
            problems.push(format!(
                "ledger records_in {} + drops {} + quarantined_after {} vs pushed {} of {n}",
                r.records_in, r.drops, r.quarantined_after, r.pushed
            ));
        }
        if &got != want {
            problems.push(format!(
                "engine emitted {got:?}, standalone ClassSegmenter {want:?}"
            ));
        }
        report.check(problems.is_empty(), n, || {
            format!("{}: {}", s.name, problems.join("; "))
        });
    }
}

fn run_pass(
    transport: Transport,
    seed: u64,
    cfg: &ClassConfig,
    traced: bool,
) -> (Vec<AnnotatedSeries>, Pass) {
    let t0 = Instant::now();
    let streams = inputs::fleet_streams(seed);
    let generate = t0.elapsed();
    let slices: Vec<&[f64]> = streams.iter().map(|s| s.values.as_slice()).collect();
    let pass = match transport {
        Transport::InProcess => fleet_pass(&slices, cfg, traced, t0),
        Transport::Wire => wire_pass(&slices, cfg, traced, t0),
    };
    let pass = Pass { generate, ..pass };
    (streams, pass)
}

/// What a pass body measured before `serve` returned.
struct Body {
    setup: Duration,
    register: Duration,
    threads: usize,
    start: Instant,
    cpu0: Duration,
    caller0: Duration,
    last_accepted: Instant,
    sampler: Option<Sampler>,
    feed: Option<(Duration, Duration, u64)>,
    wire: Option<WireStats>,
    failures: Vec<(u64, String)>,
}

fn finish_pass(results: Vec<StreamResult<u64>>, body: Body) -> Pass {
    let done = Instant::now();
    let cpu = sys::process_cpu() - body.cpu0;
    let caller_cpu = sys::thread_cpu() - body.caller0;
    Pass {
        results,
        generate: Duration::ZERO,
        setup: body.setup,
        register: body.register,
        wall: done - body.start,
        cpu,
        caller_cpu,
        drain: done - body.last_accepted,
        threads: body.threads,
        feed: body.feed,
        wire: body.wire,
        samples: body.sampler.map(Sampler::finish),
        failures: body.failures,
    }
}

fn fleet_pass(slices: &[&[f64]], cfg: &ClassConfig, traced: bool, t0: Instant) -> Pass {
    let before = sys::task_ids();
    let config = EngineConfig {
        shards: SHARDS,
        ring: ring(),
    };
    let (results, body) = serve(config, |engine| {
        let shard_tids = sys::new_tasks(&before, &sys::task_ids());
        let t_reg = Instant::now();
        let handles: Vec<_> = slices
            .iter()
            .map(|_| {
                let cfg = cfg.clone();
                engine.register(move || SegmenterOperator::new(ClassSegmenter::new(cfg)))
            })
            .collect();
        let register = t_reg.elapsed();
        let setup = t0.elapsed();
        let threads = sys::task_ids().len();
        let sampler = traced.then(|| Sampler::start(engine.stats_handle(), shard_tids));
        let cpu0 = sys::process_cpu();
        let caller0 = sys::thread_cpu();
        let start = Instant::now();
        let fed = feed_all(handles, slices);
        let last_accepted = Instant::now();
        let feed_cpu = sys::thread_cpu() - caller0;
        let mut failures = Vec::new();
        let feed = match fed {
            Ok(r) => Some((last_accepted - start, feed_cpu, r.backoff_rounds)),
            Err(e) => {
                failures.push((0, format!("feed_all failed: {e}")));
                None
            }
        };
        Body {
            setup,
            register,
            threads,
            start,
            cpu0,
            caller0,
            last_accepted,
            sampler,
            feed,
            wire: None,
            failures,
        }
    });
    finish_pass(results, body)
}

fn wire_pass(slices: &[&[f64]], cfg: &ClassConfig, traced: bool, t0: Instant) -> Pass {
    let before = sys::task_ids();
    let config = EngineConfig {
        shards: SHARDS,
        ring: ring(),
    };
    let factory_cfg = cfg.clone();
    let (results, body) = serve(config, |engine| {
        let with_shards = sys::task_ids();
        let shard_tids = sys::new_tasks(&before, &with_shards);
        let mut body = Body {
            setup: Duration::ZERO,
            register: Duration::ZERO,
            threads: 0,
            start: Instant::now(),
            cpu0: sys::process_cpu(),
            caller0: sys::thread_cpu(),
            last_accepted: Instant::now(),
            sampler: None,
            feed: None,
            wire: None,
            failures: Vec::new(),
        };
        let server = IngestServer::bind(
            "127.0.0.1:0",
            engine.registrar(),
            move |_req: &RegisterRequest| {
                SegmenterOperator::new(ClassSegmenter::new(factory_cfg.clone()))
            },
        );
        match server {
            Ok(server) => {
                if let Err(e) = drive_wire(
                    &server,
                    slices,
                    traced,
                    t0,
                    engine.stats_handle(),
                    (&with_shards, shard_tids),
                    &mut body,
                ) {
                    let total = slices.iter().map(|s| s.len() as u64).sum();
                    body.failures.push((total, format!("wire client: {e}")));
                }
                if let Some(w) = body.wire.as_mut() {
                    let net = server.net_stats().stats();
                    w.throttles = net.throttle_events();
                    w.protocol_errors = net.protocol_errors();
                }
                // Dropping the server joins its threads and releases the
                // registrar, which `serve` needs before it can return.
                drop(server);
            }
            Err(e) => body
                .failures
                .push((0, format!("binding the loopback ingest listener: {e}"))),
        }
        body
    });
    finish_pass(results, body)
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Registers every stream over one connection and sends all frames on
/// the open-loop schedule, stop-and-wait.
fn drive_wire(
    server: &IngestServer,
    slices: &[&[f64]],
    traced: bool,
    t0: Instant,
    stats: StatsHandle,
    (with_shards, shard_tids): (&[u32], Vec<u32>),
    body: &mut Body,
) -> Result<(), stream_engine::NetError> {
    let mut client = NetClient::connect(server.addr(), "benchmark")?;
    let server_tids = sys::new_tasks(with_shards, &sys::task_ids());
    let t_reg = Instant::now();
    let ids = slices
        .iter()
        .enumerate()
        .map(|(k, _)| client.register(&format!("wire-{k}"), Some(ring())))
        .collect::<Result<Vec<u32>, _>>()?;
    body.register = t_reg.elapsed();
    body.setup = t0.elapsed();
    body.threads = sys::task_ids().len();
    if traced {
        let watch = shard_tids.into_iter().chain(server_tids).collect();
        body.sampler = Some(Sampler::start(stats, watch));
    }

    let frame = quality::FRAME;
    let interval = Duration::from_secs_f64(frame as f64 / OFFERED_RPS);
    let per_stream = slices.iter().map(|s| s.len() / frame).min().unwrap_or(0);
    let n_frames = slices.len() * per_stream;
    let mut w = WireStats {
        acks: Vec::with_capacity(n_frames),
        late: Vec::with_capacity(n_frames),
        ..WireStats::default()
    };
    body.cpu0 = sys::process_cpu();
    body.caller0 = sys::thread_cpu();
    let loop_start = Instant::now();
    let first_due = loop_start + SPIN;
    body.start = first_due;
    let mut unacked = 0u64;
    let mut last_ack = first_due;
    for j in 0..n_frames {
        let (k, c) = (j % slices.len(), j / slices.len());
        let chunk = &slices[k][c * frame..(c + 1) * frame];
        let due = first_due + interval * j as u32;
        let wait_from = Instant::now();
        wait_until(due);
        let sent = Instant::now();
        let ack = if traced {
            client.send_records_nowait(ids[k], chunk)?;
            let written = Instant::now();
            let ack = client.recv_ack()?;
            w.send += written - sent;
            w.ack_wait += written.elapsed();
            w.sleep += sent - wait_from;
            ack
        } else {
            client.send_records(ids[k], chunk)?
        };
        last_ack = Instant::now();
        w.late.push(ns(sent.saturating_duration_since(due)));
        w.acks.push(ns(last_ack - due));
        if ack.stream != ids[k] || ack.received != ((c + 1) * frame) as u64 || ack.drops != 0 {
            unacked += frame as u64;
        }
    }
    w.loop_wall = last_ack - loop_start;
    body.last_accepted = last_ack;
    let total: u64 = slices.iter().map(|s| s.len() as u64).sum();
    let sent_records = (n_frames * frame) as u64;
    if unacked > 0 || sent_records != total {
        body.failures.push((
            unacked + (total - sent_records),
            format!(
                "{unacked} records unacked, {} never sent",
                total - sent_records
            ),
        ));
    }
    body.wire = Some(w);
    // Closing the connection closes its streams; the shard drains them.
    drop(client);
    Ok(())
}
