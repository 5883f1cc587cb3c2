//! ClaSS — Classification Score Stream (paper §3, Algorithm 1).
//!
//! The segmenter learns a subsequence width `w` from the first observations
//! of the stream, then maintains an exact streaming k-NN over the sliding
//! window, scores every hypothetical split of the not-yet-segmented window
//! suffix with the incremental self-supervised cross-validation, and
//! validates the best split with a resampled Wilcoxon rank-sum test.
//! Detected change points are reported immediately, and the "last change
//! point" pointer advances so that only the evolving segment is rescored
//! (which is what gives ClaSS its throughput peaks, §4.4).

use crate::crossval::{CrossVal, ScoreFn};
use crate::knn::{KnnConfig, StreamingKnn};
use crate::segmenter::StreamingSegmenter;
use crate::similarity::Similarity;
use crate::stats::{significance_ln_p, SampleSize, SplitMix64};
use crate::wss::{select_width, WidthBounds, WssMethod};

/// Smallest sliding window [`ClassSegmenter::new`] accepts.
pub const MIN_WINDOW_SIZE: usize = 16;

/// Minimum number of new-segment observations a width re-learn
/// ([`ClassConfig::relearn_width`]) waits for after a change point.
const RELEARN_MIN: usize = 512;

/// How the subsequence width `w` is determined (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthSelection {
    /// Learn the width from the warm-up prefix with a WSS method
    /// (ClaSS default: SuSS).
    Learn(WssMethod),
    /// Use a fixed, user-provided width.
    Fixed(usize),
}

impl Default for WidthSelection {
    fn default() -> Self {
        WidthSelection::Learn(WssMethod::Suss)
    }
}

/// Full configuration of ClaSS with the paper's defaults.
#[derive(Debug, Clone)]
pub struct ClassConfig {
    /// Sliding window size `d` (paper default: 10_000; ablation (a) shows
    /// robustness over 1k..20k).
    pub window_size: usize,
    /// Subsequence width selection (ablation (b)).
    pub width: WidthSelection,
    /// Number of nearest neighbours `k` (ablation (d): 3).
    pub k: usize,
    /// Similarity measure (ablation (c): Pearson).
    pub similarity: Similarity,
    /// Cross-validation score (ablation (e): macro F1).
    pub score: ScoreFn,
    /// Significance level as `log10(alpha)` (ablation (f): -50, i.e. 1e-50).
    pub log10_alpha: f64,
    /// Label sample size for the significance test (ablation (g): 1000).
    pub sample_size: SampleSize,
    /// Minimum segment length at the scored-range edges, as a multiple of
    /// `w` (the candidate-exclusion used when locating the profile maximum;
    /// 5.0 matches the reference implementation's `excl_radius`).
    pub cp_margin_factor: f64,
    /// Minimum cross-validation score a candidate split must reach before
    /// the significance test is applied. The profile maximum must
    /// "distinguish the TS parts to its left and right with high accuracy"
    /// (paper §3.3); 0.75 matches the reference implementation's score
    /// threshold and rejects anti-predictive cold-start artefacts.
    pub min_score: f64,
    /// Jump-ahead evaluation: run the profile sweep and significance test
    /// only every `jump`-th completed subsequence, like the reference
    /// implementation's `jump=5` ("the step size in time points between two
    /// consecutive change point detection attempts"). The k-NN index is
    /// still updated on every observation, so skipped points lose no
    /// information — a detection is merely delayed by at most `jump - 1`
    /// observations. `1` evaluates at every observation and is bit-exact
    /// with the pre-jump per-point behaviour. Must be at least 1.
    pub jump: usize,
    /// Number of observations buffered to learn `w`. `None` uses
    /// `window_size` (Algorithm 1 line 3: "the first d observations").
    /// Ignored with [`WidthSelection::Fixed`], where streaming starts
    /// immediately.
    pub warmup: Option<usize>,
    /// Re-learn the subsequence width from each newly evolving segment
    /// after a change point is reported (paper §3.4: "the subsequence
    /// width w can be periodically re-learned ... activated on demand").
    /// Only effective with [`WidthSelection::Learn`].
    pub relearn_width: bool,
    /// Seed of the deterministic resampling RNG.
    pub seed: u64,
}

impl Default for ClassConfig {
    fn default() -> Self {
        Self {
            window_size: 10_000,
            width: WidthSelection::default(),
            k: 3,
            similarity: Similarity::Pearson,
            score: ScoreFn::MacroF1,
            log10_alpha: -50.0,
            sample_size: SampleSize::Fixed1000,
            cp_margin_factor: 5.0,
            min_score: 0.75,
            jump: 5,
            warmup: None,
            relearn_width: false,
            seed: 0x5EED,
        }
    }
}

impl ClassConfig {
    /// Default configuration with a custom sliding window size.
    pub fn with_window_size(window_size: usize) -> Self {
        Self {
            window_size,
            ..Self::default()
        }
    }

    /// Natural-log significance threshold.
    fn ln_alpha(&self) -> f64 {
        self.log10_alpha * core::f64::consts::LN_10
    }
}

enum State {
    /// Buffering observations until `w` can be learned.
    Warmup { buf: Vec<f64>, target: usize },
    /// Streaming.
    Running(Box<Running>),
}

struct Running {
    w: usize,
    knn: StreamingKnn,
    cv: CrossVal,
    rng: SplitMix64,
    ln_alpha: f64,
    sample_size: SampleSize,
    margin: usize,
    min_score: f64,
    /// Evaluation cadence in completed subsequences (see
    /// [`ClassConfig::jump`]).
    jump: usize,
    /// Completed subsequences since the last evaluation.
    since_eval: usize,
    /// Subsequence id (relative to `base`) of the last reported change
    /// point — the start of the evolving segment. The first observed value
    /// is the first CP (Definition 4), hence the initial 0.
    cpl_sid: i64,
    /// Offset of the next observation to feed, relative to `base`.
    next_pos: u64,
    /// Absolute stream position of the first observation fed to this
    /// instance (0 at stream start; the change point position after a
    /// width re-learn rebuilt the state).
    base: u64,
}

/// The ClaSS streaming segmenter.
///
/// ```
/// use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection};
///
/// let mut cfg = ClassConfig::with_window_size(1_000);
/// cfg.width = WidthSelection::Fixed(20);
/// cfg.log10_alpha = -10.0;
/// let mut class = ClassSegmenter::new(cfg);
/// let mut cps = Vec::new();
/// for i in 0..4_000 {
///     // regime change at 2000: frequency doubles
///     let t = i as f64;
///     let x = if i < 2_000 { (t * 0.2).sin() } else { (t * 0.45).sin() };
///     class.step(x, &mut cps);
/// }
/// assert!(cps.iter().any(|&cp| (cp as i64 - 2_000).abs() < 300));
/// ```
pub struct ClassSegmenter {
    cfg: ClassConfig,
    state: State,
    total_seen: u64,
    /// Change point position awaiting a deferred width re-learn (armed when
    /// a CP is reported and `relearn_width` is on; executed once the new
    /// segment holds [`RELEARN_MIN`] observations).
    pending_relearn: Option<u64>,
}

impl ClassSegmenter {
    /// Creates a segmenter.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (e.g. fixed width not
    /// smaller than the window size, `k` of 0).
    pub fn new(cfg: ClassConfig) -> Self {
        assert!(cfg.window_size >= MIN_WINDOW_SIZE, "window size too small");
        assert!(cfg.k >= 1, "k must be positive");
        assert!(cfg.cp_margin_factor >= 1.0, "cp_margin_factor must be >= 1");
        assert!(cfg.jump >= 1, "jump must be >= 1");
        let state = match cfg.width {
            WidthSelection::Fixed(w) => State::Running(Box::new(Self::make_running(&cfg, w, 0))),
            WidthSelection::Learn(_) => {
                let target = cfg.warmup.unwrap_or(cfg.window_size).max(32);
                State::Warmup {
                    buf: Vec::with_capacity(target),
                    target,
                }
            }
        };
        Self {
            cfg,
            state,
            total_seen: 0,
            pending_relearn: None,
        }
    }

    fn make_running(cfg: &ClassConfig, w: usize, base: u64) -> Running {
        let w = w.clamp(2, cfg.window_size / 2);
        let knn_cfg = KnnConfig {
            window_size: cfg.window_size,
            width: w,
            k: cfg.k,
            similarity: cfg.similarity,
            exclusion: None,
            update_existing: true,
        };
        Running {
            w,
            knn: StreamingKnn::new(knn_cfg),
            cv: CrossVal::new(cfg.score),
            rng: SplitMix64::new(cfg.seed ^ base),
            ln_alpha: cfg.ln_alpha(),
            sample_size: cfg.sample_size,
            margin: ((cfg.cp_margin_factor * w as f64).round() as usize).max(2),
            min_score: cfg.min_score,
            jump: cfg.jump,
            since_eval: 0,
            cpl_sid: 0,
            next_pos: 0,
            base,
        }
    }

    /// Learned (or fixed) subsequence width, once known.
    pub fn width(&self) -> Option<usize> {
        match &self.state {
            State::Warmup { .. } => None,
            State::Running(r) => Some(r.w),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &ClassConfig {
        &self.cfg
    }

    /// Total number of observations ingested so far.
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// The latest ClaSP profile over the evolving segment, if one was
    /// computed: `(stream position of the first scored subsequence, scores)`.
    /// `scores[p]` rates the split placing the first `p` scored
    /// subsequences into the completed segment.
    ///
    /// An evaluation scores only the splits it needs, so the first call
    /// after one scores the rest, in O(d) (see [`CrossVal::profile`]).
    pub fn latest_profile(&mut self) -> Option<(u64, &[f64])> {
        match &mut self.state {
            State::Warmup { .. } => None,
            State::Running(r) => {
                if r.cv.is_empty() {
                    None
                } else {
                    // Under jump-ahead evaluation the latest profile may lag
                    // the live index range by up to `jump - 1` points, so its
                    // anchor is the engine's own scored-range start, not the
                    // index's current one.
                    Some((r.base + r.cv.range_start_sid() as u64, r.cv.profile()))
                }
            }
        }
    }

    fn transition_to_running(&mut self, cps: &mut Vec<u64>) {
        let State::Warmup { buf, .. } = &mut self.state else {
            return;
        };
        let buf = core::mem::take(buf);
        let WidthSelection::Learn(method) = self.cfg.width else {
            unreachable!()
        };
        let bounds = WidthBounds::for_stream(buf.len(), self.cfg.window_size);
        let w = select_width(method, &buf, bounds);
        let mut running = Self::make_running(&self.cfg, w, 0);
        // Re-process the buffered prefix from the first observation onward
        // (paper §3.4).
        for &x in &buf {
            running.step(x, cps);
        }
        self.state = State::Running(Box::new(running));
        // Width re-learning during the replay itself is suppressed (the
        // replay already uses the freshly learned width).
    }

    /// Re-learns the subsequence width from the newly evolving segment
    /// after a change point at absolute position `cp_abs` (paper §3.4).
    /// Rebuilds the streaming state with the new width and replays the new
    /// segment; change points found during the replay are appended.
    fn relearn_after_cp(&mut self, cp_abs: u64, cps: &mut Vec<u64>) {
        let WidthSelection::Learn(method) = self.cfg.width else {
            return;
        };
        let State::Running(r) = &self.state else {
            return;
        };
        // Extract the new segment from the current window.
        let win = r.knn.window();
        let next_abs = r.base + r.next_pos;
        let win_start_abs = next_abs - win.len() as u64;
        if cp_abs < win_start_abs {
            return; // segment start already evicted; keep the old width
        }
        let seg: Vec<f64> = win[(cp_abs - win_start_abs) as usize..].to_vec();
        if seg.len() < RELEARN_MIN {
            // Not enough new-segment data yet; keep the request pending.
            self.pending_relearn = Some(cp_abs);
            return;
        }
        let bounds = WidthBounds::for_stream(seg.len(), self.cfg.window_size);
        let new_w = select_width(method, &seg, bounds);
        if new_w == r.w {
            return;
        }
        let mut running = Self::make_running(&self.cfg, new_w, cp_abs);
        for &x in &seg {
            running.step(x, cps);
        }
        self.state = State::Running(Box::new(running));
    }
}

impl Running {
    /// Absolute sid of the first scored subsequence, or `None` if no
    /// subsequence exists yet.
    fn range_start_sid(&self) -> Option<i64> {
        let oldest = self.knn.oldest_sid()?;
        Some(self.cpl_sid.max(oldest))
    }

    /// Feeds one observation; pushes any detected change point (absolute
    /// stream position) into `cps` and also returns it, so the caller can
    /// trigger the optional width re-learning.
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) -> Option<u64> {
        let pos = self.next_pos;
        self.next_pos += 1;
        if !self.knn.update(x) {
            return None;
        }
        // Jump-ahead scheduling: the index absorbed the observation above;
        // the (much more expensive) profile evaluation runs only every
        // `jump`-th completed subsequence.
        self.since_eval += 1;
        if self.since_eval < self.jump {
            return None;
        }
        self.since_eval = 0;
        self.evaluate(pos, cps)
    }

    /// Runs one profile evaluation + significance test at stream offset
    /// `pos`; reports (and returns) a validated change point, if any.
    ///
    /// Kept out of line: it runs on one step in `jump`, and inlined into
    /// [`Running::step`] it would weigh on the code of every other step.
    #[inline(never)]
    fn evaluate(&mut self, pos: u64, cps: &mut Vec<u64>) -> Option<u64> {
        let start_sid = self.range_start_sid()?;
        let start_slot = self.knn.slot_of_sid(start_sid);
        self.cv.compute(&self.knn, start_slot);
        let (best_p, _) = self.cv.peak(self.margin, self.min_score)?;
        let groups = self.cv.groups_at(best_p);
        let ln_p = significance_ln_p(groups, self.sample_size, &mut self.rng);
        if ln_p <= self.ln_alpha {
            let cp_sid = start_sid + best_p as i64;
            debug_assert!(cp_sid >= 0 && (cp_sid as u64) <= pos);
            let cp_abs = self.base + cp_sid as u64;
            cps.push(cp_abs);
            self.cpl_sid = cp_sid;
            // The next range starts here: only its rows stay counted.
            self.knn.advance_floor(cp_sid);
            return Some(cp_abs);
        }
        None
    }
}

impl StreamingSegmenter for ClassSegmenter {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        self.total_seen += 1;
        match &mut self.state {
            State::Warmup { buf, target } => {
                buf.push(x);
                if buf.len() >= *target {
                    self.transition_to_running(cps);
                }
            }
            State::Running(r) => {
                let fired = r.step(x, cps);
                if self.cfg.relearn_width {
                    if let Some(cp_abs) = fired {
                        // The newest change point supersedes any pending one.
                        self.pending_relearn = Some(cp_abs);
                    }
                    if let Some(cp_abs) = self.pending_relearn.take() {
                        self.relearn_after_cp(cp_abs, cps);
                    }
                }
            }
        }
    }

    fn finalize(&mut self, cps: &mut Vec<u64>) {
        if let State::Warmup { buf, .. } = &self.state {
            if buf.len() >= 64 {
                self.transition_to_running(cps);
            }
        }
        // Jump-ahead leaves up to `jump - 1` trailing observations between
        // the last scheduled evaluation and the end of the stream; score
        // them once so a change point arriving in the tail is not lost.
        // With jump = 1 every completed subsequence was already evaluated,
        // keeping finalize (and the whole segmenter) bit-exact with the
        // pre-jump behaviour.
        if let State::Running(r) = &mut self.state {
            if r.jump > 1 && r.since_eval > 0 && r.next_pos > 0 {
                r.since_eval = 0;
                r.evaluate(r.next_pos - 1, cps);
            }
        }
    }

    fn name(&self) -> &'static str {
        "ClaSS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scales a stream length — and the windows, change-point positions,
    /// warm-ups, and tolerances derived from it — down 2x under
    /// unoptimized builds: debug builds don't vectorize the kernels, and
    /// the paper-scale streams cost ~55 s under `cargo test -q`. Release
    /// (and therefore CI's tier-1 release pass) keeps full sizes, so no
    /// claim loses its original coverage where it is enforced.
    const fn sz(release: usize) -> usize {
        if cfg!(debug_assertions) {
            release / 2
        } else {
            release
        }
    }

    /// Two-regime stream: sine that doubles its frequency at `cp`.
    fn freq_shift(n: usize, cp: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let f = if i < cp { 0.18 } else { 0.42 };
                (i as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5)
            })
            .collect()
    }

    fn amp_shift(n: usize, cp: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let a = if i < cp { 1.0 } else { 3.5 };
                a * (i as f64 * 0.25).sin() + 0.08 * (rng.next_f64() - 0.5)
            })
            .collect()
    }

    fn run_class(xs: &[f64], mut cfg: ClassConfig) -> Vec<u64> {
        cfg.seed = 7;
        let mut class = ClassSegmenter::new(cfg);
        class.segment_series(xs)
    }

    #[test]
    fn detects_frequency_change_with_fixed_width() {
        let xs = freq_shift(sz(5000), sz(2500), 1);
        let mut cfg = ClassConfig::with_window_size(sz(2000));
        cfg.width = WidthSelection::Fixed(35);
        cfg.log10_alpha = -15.0;
        let cps = run_class(&xs, cfg);
        assert!(!cps.is_empty(), "no change point found");
        assert!(
            cps.iter()
                .any(|&c| (c as i64 - sz(2500) as i64).unsigned_abs() < sz(400) as u64),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn detects_frequency_change_with_learned_width() {
        let xs = freq_shift(sz(6000), sz(3000), 2);
        let mut cfg = ClassConfig::with_window_size(sz(2000));
        cfg.warmup = Some(sz(1000));
        cfg.log10_alpha = -15.0;
        let cps = run_class(&xs, cfg);
        assert!(
            cps.iter()
                .any(|&c| (c as i64 - sz(3000) as i64).unsigned_abs() < sz(500) as u64),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn amplitude_change_needs_amplitude_aware_similarity() {
        // A pure amplitude rescale is (nearly) invisible to Pearson
        // correlation (z-normalisation removes scale) — the Euclidean
        // measure handles it (paper §3.1: "we implement multiple measures
        // that cover different stream properties").
        let xs = amp_shift(sz(6000), sz(3000), 2);
        let mut cfg = ClassConfig::with_window_size(sz(2000));
        cfg.width = WidthSelection::Fixed(25);
        cfg.similarity = Similarity::Euclidean;
        cfg.log10_alpha = -15.0;
        let cps = run_class(&xs, cfg);
        assert!(
            cps.iter()
                .any(|&c| (c as i64 - sz(3000) as i64).unsigned_abs() < sz(500) as u64),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn stationary_stream_yields_no_change_points() {
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..sz(6000))
            .map(|i| (i as f64 * 0.2).sin() + 0.05 * (rng.next_f64() - 0.5))
            .collect();
        let mut cfg = ClassConfig::with_window_size(sz(2000));
        cfg.width = WidthSelection::Fixed(31);
        let cps = run_class(&xs, cfg);
        assert!(cps.is_empty(), "false positives: {cps:?}");
    }

    #[test]
    fn pure_noise_yields_no_change_points() {
        let mut rng = SplitMix64::new(4);
        let xs: Vec<f64> = (0..sz(5000)).map(|_| rng.next_f64() - 0.5).collect();
        let mut cfg = ClassConfig::with_window_size(sz(1500));
        cfg.width = WidthSelection::Fixed(25);
        let cps = run_class(&xs, cfg);
        assert!(cps.is_empty(), "false positives on noise: {cps:?}");
    }

    #[test]
    fn detects_multiple_change_points() {
        // Three regimes: slow sine, fast sine, sawtooth-like.
        let mut rng = SplitMix64::new(5);
        let n = sz(9000);
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let v = if i < sz(3000) {
                    (i as f64 * 0.15).sin()
                } else if i < sz(6000) {
                    (i as f64 * 0.45).sin()
                } else {
                    ((i % 40) as f64 / 20.0) - 1.0
                };
                v + 0.05 * (rng.next_f64() - 0.5)
            })
            .collect();
        let mut cfg = ClassConfig::with_window_size(sz(2500));
        cfg.width = WidthSelection::Fixed(40);
        cfg.log10_alpha = -15.0;
        let cps = run_class(&xs, cfg);
        assert!(
            cps.iter()
                .any(|&c| (c as i64 - sz(3000) as i64).unsigned_abs() < sz(500) as u64),
            "first cp missed: {cps:?}"
        );
        assert!(
            cps.iter()
                .any(|&c| (c as i64 - sz(6000) as i64).unsigned_abs() < sz(500) as u64),
            "second cp missed: {cps:?}"
        );
    }

    #[test]
    fn short_stream_finalize_learns_and_replays() {
        // Stream shorter than the warm-up target: CPs only appear after
        // finalize() triggers the learn-and-replay.
        let xs = freq_shift(sz(3000), sz(1500), 6);
        let mut cfg = ClassConfig::with_window_size(10_000);
        cfg.log10_alpha = -12.0;
        let mut class = ClassSegmenter::new(cfg);
        let mut cps = Vec::new();
        for &x in &xs {
            class.step(x, &mut cps);
        }
        assert!(cps.is_empty(), "still warming up: {cps:?}");
        class.finalize(&mut cps);
        assert!(
            cps.iter()
                .any(|&c| (c as i64 - sz(1500) as i64).unsigned_abs() < sz(400) as u64),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn reported_positions_are_within_stream() {
        let xs = freq_shift(sz(4000), sz(2000), 8);
        let mut cfg = ClassConfig::with_window_size(sz(1200));
        cfg.width = WidthSelection::Fixed(30);
        cfg.log10_alpha = -10.0;
        let cps = run_class(&xs, cfg);
        for &c in &cps {
            assert!((c as usize) < xs.len());
        }
    }

    #[test]
    fn profile_accessor_exposes_scores() {
        let xs = freq_shift(sz(3000), sz(1500), 9);
        let mut cfg = ClassConfig::with_window_size(sz(1000));
        cfg.width = WidthSelection::Fixed(25);
        let mut class = ClassSegmenter::new(cfg);
        let mut cps = Vec::new();
        for &x in &xs {
            class.step(x, &mut cps);
        }
        let (start, profile) = class.latest_profile().expect("profile exists");
        assert!(!profile.is_empty());
        assert!(profile.iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(start < xs.len() as u64);
        assert_eq!(class.width(), Some(25));
        assert_eq!(class.total_seen(), sz(3000) as u64);
    }

    #[test]
    fn deterministic_across_runs() {
        let xs = freq_shift(sz(5000), sz(2500), 10);
        let mut cfg = ClassConfig::with_window_size(sz(1500));
        cfg.width = WidthSelection::Fixed(30);
        cfg.log10_alpha = -12.0;
        let a = run_class(&xs, cfg.clone());
        let b = run_class(&xs, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn relearn_adapts_width_after_concept_drift() {
        // Period 20 regime, then period 75: with re-learning on, the width
        // after the change should track the new period scale.
        let mut rng = SplitMix64::new(21);
        let xs: Vec<f64> = (0..sz(9000))
            .map(|i| {
                let p = if i < sz(4500) { 20.0 } else { 75.0 };
                (2.0 * core::f64::consts::PI * i as f64 / p).sin() + 0.05 * (rng.next_f64() - 0.5)
            })
            .collect();
        let mut cfg = ClassConfig::with_window_size(sz(2000));
        cfg.warmup = Some(sz(1000));
        cfg.log10_alpha = -15.0;
        cfg.relearn_width = true;
        let mut class = ClassSegmenter::new(cfg.clone());
        let cps = class.segment_series(&xs);
        assert!(
            cps.iter()
                .any(|&c| (c as i64 - sz(4500) as i64).unsigned_abs() < sz(600) as u64),
            "cps = {cps:?}"
        );
        let w_after = class.width().unwrap();

        cfg.relearn_width = false;
        let mut fixed = ClassSegmenter::new(cfg);
        let _ = fixed.segment_series(&xs);
        let w_static = fixed.width().unwrap();
        assert!(
            w_after > w_static,
            "width should grow with the period: relearned {w_after} vs static {w_static}"
        );
    }

    #[test]
    fn relearn_is_deterministic() {
        let xs = freq_shift(sz(6000), sz(3000), 22);
        let mut cfg = ClassConfig::with_window_size(sz(1500));
        cfg.warmup = Some(sz(800));
        cfg.log10_alpha = -12.0;
        cfg.relearn_width = true;
        let a = ClassSegmenter::new(cfg.clone()).segment_series(&xs);
        let b = ClassSegmenter::new(cfg).segment_series(&xs);
        assert_eq!(a, b);
    }

    #[test]
    fn relearn_with_fixed_width_is_a_no_op() {
        let xs = freq_shift(sz(5000), sz(2500), 23);
        let mut cfg = ClassConfig::with_window_size(sz(1500));
        cfg.width = WidthSelection::Fixed(30);
        cfg.log10_alpha = -12.0;
        let plain = ClassSegmenter::new(cfg.clone()).segment_series(&xs);
        cfg.relearn_width = true;
        let relearn = ClassSegmenter::new(cfg).segment_series(&xs);
        assert_eq!(plain, relearn);
    }

    #[test]
    fn jump_detections_match_per_point_within_bounded_delay() {
        // jump > 1 only changes *when* the profile is inspected: every
        // change point found by per-point evaluation must be matched by a
        // jump-ahead detection nearby, and vice versa. The reported
        // position is a profile argmax, so the tolerance is the detection
        // delay plus a small amount of argmax drift.
        let xs = freq_shift(sz(6000), sz(3000), 12);
        let mut cfg = ClassConfig::with_window_size(sz(2000));
        cfg.width = WidthSelection::Fixed(35);
        cfg.log10_alpha = -15.0;
        cfg.jump = 1;
        let exact = run_class(&xs, cfg.clone());
        cfg.jump = 5;
        let jumped = run_class(&xs, cfg.clone());
        assert!(!exact.is_empty(), "per-point run found nothing");
        assert!(!jumped.is_empty(), "jump run found nothing");
        let tol = (cfg.jump * 20) as i64;
        for &c in &exact {
            assert!(
                jumped.iter().any(|&j| (j as i64 - c as i64).abs() <= tol),
                "per-point cp {c} unmatched by jump run {jumped:?}"
            );
        }
        for &j in &jumped {
            assert!(
                exact.iter().any(|&c| (j as i64 - c as i64).abs() <= tol),
                "jump cp {j} unmatched by per-point run {exact:?}"
            );
        }
    }

    #[test]
    fn finalize_catches_tail_change_point_under_jump() {
        // Cut the stream right after a change point becomes detectable but
        // between two scheduled evaluations: finalize must score the tail.
        let xs = freq_shift(sz(5000), sz(2500), 13);
        let mut cfg = ClassConfig::with_window_size(sz(2000));
        cfg.width = WidthSelection::Fixed(35);
        cfg.log10_alpha = -15.0;
        cfg.seed = 7;
        cfg.jump = 1;
        let mut per_point = ClassSegmenter::new(cfg.clone());
        let mut exact = Vec::new();
        for &x in &xs {
            per_point.step(x, &mut exact);
        }
        let Some(&first) = exact.first() else {
            panic!("per-point run found nothing");
        };
        // Find the observation index at which the per-point run fired,
        // then replay with a large jump, stopping one point later.
        let fired_at = exact_first_fire(&xs, cfg.clone());
        cfg.jump = 97; // coprime-ish with the fire position: likely mid-gap
        let mut class = ClassSegmenter::new(cfg);
        let mut cps = Vec::new();
        for &x in &xs[..=fired_at] {
            class.step(x, &mut cps);
        }
        class.finalize(&mut cps);
        assert!(
            cps.iter().any(|&c| (c as i64 - first as i64).abs() < 200),
            "tail cp missed: {cps:?} vs per-point first {first}"
        );
    }

    /// Observation index at which a per-point (`jump = 1`) run first
    /// reports a change point.
    fn exact_first_fire(xs: &[f64], mut cfg: ClassConfig) -> usize {
        cfg.jump = 1;
        let mut class = ClassSegmenter::new(cfg);
        let mut cps = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            class.step(x, &mut cps);
            if !cps.is_empty() {
                return i;
            }
        }
        panic!("no change point fired");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_jump() {
        let mut cfg = ClassConfig::with_window_size(1000);
        cfg.jump = 0;
        let _ = ClassSegmenter::new(cfg);
    }

    #[test]
    fn nan_tolerance_does_not_panic() {
        // NaNs are pathological input; ClaSS must not panic (scores guard
        // against non-finite via clamps at the similarity level).
        let mut xs = freq_shift(2000, 1000, 11);
        xs[500] = f64::NAN;
        let mut cfg = ClassConfig::with_window_size(800);
        cfg.width = WidthSelection::Fixed(20);
        let mut class = ClassSegmenter::new(cfg);
        let mut cps = Vec::new();
        for &x in &xs {
            class.step(x, &mut cps);
        }
    }
}
