//! Traced replay of `ClassSegmenter`: the same public kernels, called in
//! the order `ClassSegmenter::step` uses them, with a clock around each
//! call into a layer.
//!
//! Order per observation: `StreamingKnn::update`; on every `jump`-th
//! completed subsequence, `CrossVal::compute`, the margin-bounded profile
//! argmax, `CrossVal::groups_at` and `significance_ln_p`. With a learned
//! width, the first `d` observations are buffered, `select_width` runs
//! once on them and the buffer is replayed. The replay must report the
//! segmenter's change points exactly; the caller checks that, which shows
//! the trace times the same work.

use crate::report::{ns, Report};
use class_core::stats::significance_ln_p;
use class_core::{
    select_width, ClassConfig, CrossVal, KnnConfig, SplitMix64, StreamingKnn, WidthBounds,
    WidthSelection,
};
use std::time::{Duration, Instant};

/// Time and counts per layer, summed over replayed streams.
#[derive(Default)]
pub struct LayerTimes {
    /// `StreamingKnn::update`.
    pub knn: Duration,
    pub knn_calls: u64,
    /// `CrossVal::compute` and `CrossVal::groups_at`.
    pub crossval: Duration,
    pub crossval_calls: u64,
    /// Profile argmax scans (evaluations with room for a split).
    pub argmax: Duration,
    pub evaluations: u64,
    /// Evaluations whose profile maximum reached `min_score`.
    pub candidates: u64,
    /// `significance_ln_p`.
    pub significance: Duration,
    pub significance_calls: u64,
    pub significance_passed: u64,
    /// `select_width` on the warm-up prefix.
    pub select_width: Duration,
    pub select_width_calls: u64,
    /// Buffering the warm-up prefix.
    pub warmup_buffer: Duration,
    /// Replay of the buffered prefix after width learning (a span that
    /// contains k-NN, cross-validation and significance time).
    pub warmup_replay: Duration,
    /// Wall time of the whole replay.
    pub wall: Duration,
}

impl LayerTimes {
    /// Self time attributed to a layer: every clocked call outside the
    /// warm-up replay span, which only groups calls already counted.
    pub fn attributed(&self) -> Duration {
        self.knn
            + self.crossval
            + self.argmax
            + self.significance
            + self.select_width
            + self.warmup_buffer
    }

    /// Reports the class-core layer metrics of a replay covering `passes`
    /// identical passes (counts are per pass), prints the replay's layer
    /// ledger, and returns the share of its wall time no layer clock saw;
    /// more than 5 % fails the run.
    pub fn report(&self, report: &mut Report, passes: usize) -> f64 {
        let per = |d: Duration, n: u64| ns(d) as f64 / n.max(1) as f64;
        let per_pass = |n: u64| n as f64 / passes.max(1) as f64;
        report.metric("knn.update_ns", per(self.knn, self.knn_calls), "ns");
        report.metric("knn.update_calls", per_pass(self.knn_calls), "count");
        report.metric(
            "crossval.compute_ns",
            per(self.crossval, self.crossval_calls),
            "ns",
        );
        report.metric(
            "crossval.compute_calls",
            per_pass(self.crossval_calls),
            "count",
        );
        report.metric("class.argmax_ns", per(self.argmax, self.evaluations), "ns");
        report.metric(
            "class.candidate_ratio",
            self.candidates as f64 / self.evaluations.max(1) as f64,
            "ratio",
        );
        report.metric(
            "stats.significance_ns",
            per(self.significance, self.significance_calls),
            "ns",
        );
        report.metric(
            "stats.significance_calls",
            per_pass(self.significance_calls),
            "count",
        );
        report.metric(
            "stats.significance_pass_ratio",
            self.significance_passed as f64 / self.significance_calls.max(1) as f64,
            "ratio",
        );
        report.metric(
            "wss.select_width_ms",
            per(self.select_width, self.select_width_calls) / 1e6,
            "ms",
        );
        report.metric(
            "class.warmup_replay_ms",
            per(self.warmup_replay, self.select_width_calls) / 1e6,
            "ms",
        );
        let wall = self.wall.as_secs_f64().max(1e-9);
        let share = |d: Duration| d.as_secs_f64() / wall;
        report.info(format!(
            "replay ledger over {:.3} s: knn {:.4}, crossval {:.4}, argmax {:.4}, significance {:.4}, \
             select_width {:.4}, warm-up buffering {:.4} (warm-up replay span {:.4})",
            wall,
            share(self.knn),
            share(self.crossval),
            share(self.argmax),
            share(self.significance),
            share(self.select_width),
            share(self.warmup_buffer),
            share(self.warmup_replay)
        ));
        let unattributed = 1.0 - share(self.attributed());
        report.check(unattributed.abs() <= 0.05, 0, || {
            format!("replay layers leave {unattributed:.4} of the traced wall time unattributed")
        });
        unattributed
    }
}

/// The streaming state `ClassSegmenter` holds once the width is known.
struct Running {
    knn: StreamingKnn,
    cv: CrossVal,
    rng: SplitMix64,
    ln_alpha: f64,
    margin: usize,
    jump: usize,
    since_eval: usize,
    cpl_sid: i64,
    next_pos: u64,
}

impl Running {
    fn new(cfg: &ClassConfig, w: usize) -> Self {
        let w = w.clamp(2, cfg.window_size / 2);
        Running {
            knn: StreamingKnn::new(KnnConfig {
                window_size: cfg.window_size,
                width: w,
                k: cfg.k,
                similarity: cfg.similarity,
                exclusion: None,
                update_existing: true,
            }),
            cv: CrossVal::new(cfg.score),
            rng: SplitMix64::new(cfg.seed),
            ln_alpha: cfg.log10_alpha * std::f64::consts::LN_10,
            margin: ((cfg.cp_margin_factor * w as f64).round() as usize).max(2),
            jump: cfg.jump,
            since_eval: 0,
            cpl_sid: 0,
            next_pos: 0,
        }
    }

    fn step(&mut self, x: f64, cfg: &ClassConfig, t: &mut LayerTimes, cps: &mut Vec<u64>) {
        self.next_pos += 1;
        let t0 = Instant::now();
        let complete = self.knn.update(x);
        t.knn += t0.elapsed();
        t.knn_calls += 1;
        if !complete {
            return;
        }
        self.since_eval += 1;
        if self.since_eval < self.jump {
            return;
        }
        self.since_eval = 0;
        self.evaluate(cfg, t, cps);
    }

    fn evaluate(&mut self, cfg: &ClassConfig, t: &mut LayerTimes, cps: &mut Vec<u64>) {
        let Some(oldest) = self.knn.oldest_sid() else {
            return;
        };
        let start_sid = self.cpl_sid.max(oldest);
        let start_slot = self.knn.slot_of_sid(start_sid);
        let t0 = Instant::now();
        let nn = self.cv.compute(&self.knn, start_slot);
        t.crossval += t0.elapsed();
        t.crossval_calls += 1;
        if nn < 2 * self.margin + 2 {
            return;
        }
        let t0 = Instant::now();
        let profile = self.cv.profile();
        let (lo, hi) = (self.margin, nn - self.margin);
        let mut best_p = lo;
        let mut best_v = f64::MIN;
        for (p, &v) in profile.iter().enumerate().take(hi).skip(lo) {
            if v > best_v {
                best_v = v;
                best_p = p;
            }
        }
        t.argmax += t0.elapsed();
        t.evaluations += 1;
        if best_v < cfg.min_score {
            return;
        }
        t.candidates += 1;
        let t0 = Instant::now();
        let groups = self.cv.groups_at(best_p);
        t.crossval += t0.elapsed();
        let t0 = Instant::now();
        let ln_p = significance_ln_p(groups, cfg.sample_size, &mut self.rng);
        t.significance += t0.elapsed();
        t.significance_calls += 1;
        if ln_p <= self.ln_alpha {
            t.significance_passed += 1;
            let cp_sid = start_sid + best_p as i64;
            cps.push(cp_sid as u64);
            self.cpl_sid = cp_sid;
        }
    }
}

/// Replays one stream (steps, then finalize) and returns the change points
/// in the order `ClassSegmenter` reports them.
pub fn replay(xs: &[f64], cfg: &ClassConfig, t: &mut LayerTimes) -> Vec<u64> {
    assert!(
        !cfg.relearn_width,
        "the replay covers the configuration without width re-learning"
    );
    let started = Instant::now();
    let mut cps = Vec::new();
    let mut running = match cfg.width {
        WidthSelection::Fixed(w) => Some(Running::new(cfg, w)),
        WidthSelection::Learn(_) => None,
    };
    let target = cfg.warmup.unwrap_or(cfg.window_size).max(32);
    let mut buf: Vec<f64> = Vec::new();
    for &x in xs {
        match running.as_mut() {
            Some(r) => r.step(x, cfg, t, &mut cps),
            None => {
                let t0 = Instant::now();
                buf.push(x);
                t.warmup_buffer += t0.elapsed();
                if buf.len() >= target {
                    running = Some(learn_and_replay(&buf, cfg, t, &mut cps));
                }
            }
        }
    }
    if running.is_none() && buf.len() >= 64 {
        running = Some(learn_and_replay(&buf, cfg, t, &mut cps));
    }
    if let Some(r) = running.as_mut() {
        if r.jump > 1 && r.since_eval > 0 && r.next_pos > 0 {
            r.since_eval = 0;
            r.evaluate(cfg, t, &mut cps);
        }
    }
    t.wall += started.elapsed();
    cps
}

/// Learns the width from the warm-up prefix and replays the prefix.
fn learn_and_replay(
    buf: &[f64],
    cfg: &ClassConfig,
    t: &mut LayerTimes,
    cps: &mut Vec<u64>,
) -> Running {
    let WidthSelection::Learn(method) = cfg.width else {
        unreachable!("only a learned width buffers a warm-up prefix")
    };
    let t0 = Instant::now();
    let w = select_width(
        method,
        buf,
        WidthBounds::for_stream(buf.len(), cfg.window_size),
    );
    t.select_width += t0.elapsed();
    t.select_width_calls += 1;
    let t0 = Instant::now();
    let mut running = Running::new(cfg, w);
    for &x in buf {
        running.step(x, cfg, t, cps);
    }
    t.warmup_replay += t0.elapsed();
    running
}
