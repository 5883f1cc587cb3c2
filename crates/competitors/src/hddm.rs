//! HDDM — Hoeffding's-bound Drift Detection Methods
//! (Frías-Blanco et al., IEEE TKDE 2015; Table 2).
//!
//! HDDM_A compares the running mean of a bounded stream against the mean of
//! the best historical "cut" using Hoeffding's inequality: a drift is
//! signalled when the post-cut mean exceeds the pre-cut mean by more than
//! the confidence bound at level `1 - delta` (and symmetrically for
//! decreases). HDDM_W replaces plain averages with exponentially weighted
//! ones, using McDiarmid's bound, making it more responsive to gradual
//! drift; both variants are provided, the paper evaluates the method family
//! with `delta = 1e-60` (§4.1).
//!
//! Like DDM, the detectors consume the forecaster-surprise error stream
//! derived from the raw signal (see [`crate::util::ResidualBinarizer`]).

use crate::util::ResidualBinarizer;
use class_core::segmenter::StreamingSegmenter;

/// Which HDDM variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HddmVariant {
    /// Plain averages + Hoeffding bound (the "A-test").
    #[default]
    A,
    /// Exponentially weighted averages + McDiarmid bound (the "W-test").
    W,
}

/// HDDM configuration.
#[derive(Debug, Clone)]
pub struct HddmConfig {
    /// Confidence parameter (paper: 1e-60, tested 1e-10..1e-100).
    pub delta: f64,
    /// Variant (paper's ranking uses the A-test).
    pub variant: HddmVariant,
    /// EWMA factor for the W variant (smaller = tighter McDiarmid bound).
    pub lambda: f64,
    /// Minimum observations before a drift may fire.
    pub min_instances: u64,
}

impl Default for HddmConfig {
    fn default() -> Self {
        Self {
            delta: 1e-60,
            variant: HddmVariant::A,
            lambda: 0.01,
            min_instances: 20,
        }
    }
}

/// Running bounded-mean statistics for the A-test.
#[derive(Debug, Clone, Default)]
struct MeanTracker {
    n: f64,
    sum: f64,
}

impl MeanTracker {
    fn mean(&self) -> f64 {
        if self.n > 0.0 {
            self.sum / self.n
        } else {
            0.0
        }
    }

    fn bound(&self, delta: f64) -> f64 {
        if self.n <= 0.0 {
            return f64::MAX;
        }
        (1.0 / (2.0 * self.n) * (1.0 / delta).ln()).sqrt()
    }
}

/// HDDM drift detector.
pub struct Hddm {
    cfg: HddmConfig,
    bin: ResidualBinarizer,
    total: MeanTracker,
    /// Snapshot with the smallest upper confidence bound (for increases).
    cut_min: MeanTracker,
    /// Snapshot with the largest lower confidence bound (for decreases).
    cut_max: MeanTracker,
    /// W-variant state.
    ewma: f64,
    ewma_min: f64,
    ewma_max: f64,
    w_weight: f64,
    t: u64,
    n_since_reset: u64,
}

impl Hddm {
    /// Creates an HDDM detector.
    pub fn new(cfg: HddmConfig) -> Self {
        Self {
            cfg,
            bin: ResidualBinarizer::default_paper(),
            total: MeanTracker::default(),
            cut_min: MeanTracker::default(),
            cut_max: MeanTracker::default(),
            ewma: 0.0,
            ewma_min: f64::MAX,
            ewma_max: f64::MIN,
            w_weight: 0.0,
            t: 0,
            n_since_reset: 0,
        }
    }

    fn reset(&mut self) {
        self.total = MeanTracker::default();
        self.cut_min = MeanTracker::default();
        self.cut_max = MeanTracker::default();
        self.ewma = 0.0;
        self.ewma_min = f64::MAX;
        self.ewma_max = f64::MIN;
        self.w_weight = 0.0;
        self.n_since_reset = 0;
    }

    /// A-test step on a bounded observation. Returns `true` on drift.
    fn step_a(&mut self, v: f64) -> bool {
        self.total.n += 1.0;
        self.total.sum += v;
        let delta = self.cfg.delta;
        // Maintain the extremal snapshots.
        if self.cut_min.n == 0.0
            || self.total.mean() + self.total.bound(delta)
                < self.cut_min.mean() + self.cut_min.bound(delta)
        {
            self.cut_min = self.total.clone();
        }
        if self.cut_max.n == 0.0
            || self.total.mean() - self.total.bound(delta)
                > self.cut_max.mean() - self.cut_max.bound(delta)
        {
            self.cut_max = self.total.clone();
        }
        if self.n_since_reset < self.cfg.min_instances {
            return false;
        }
        // Mean increase since the best cut?
        let drift_up = self.region_drift(&self.cut_min, true);
        // Mean decrease since the best cut?
        let drift_down = self.region_drift(&self.cut_max, false);
        drift_up || drift_down
    }

    /// Tests the region after `cut` against the cut prefix.
    fn region_drift(&self, cut: &MeanTracker, increase: bool) -> bool {
        let n_cut = cut.n;
        let n_diff = self.total.n - n_cut;
        if n_cut < 1.0 || n_diff < 1.0 {
            return false;
        }
        let mean_cut = cut.mean();
        let mean_diff = (self.total.sum - cut.sum) / n_diff;
        // Hoeffding bound for the difference of two independent means.
        let inv = (n_cut + n_diff) / (n_cut * n_diff);
        let eps = (inv / 2.0 * (1.0 / self.cfg.delta).ln()).sqrt();
        if increase {
            mean_diff - mean_cut > eps
        } else {
            mean_cut - mean_diff > eps
        }
    }

    /// W-test step (EWMA + McDiarmid-style bound). Returns `true` on drift.
    fn step_w(&mut self, v: f64) -> bool {
        let l = self.cfg.lambda;
        self.ewma = (1.0 - l) * self.ewma + l * v;
        // Effective independent sample size of an EWMA: (2 - l) / l.
        self.w_weight = (1.0 - l) * (1.0 - l) * self.w_weight + l * l;
        let delta = self.cfg.delta;
        let bound = (self.w_weight / 2.0 * (1.0 / delta).ln()).sqrt();
        // The EWMA needs ~3 effective windows before its value and bound
        // are meaningful; neither snapshots nor decisions before that
        // (early snapshots with a tiny bound would poison the extrema).
        if self.n_since_reset < self.cfg.min_instances.max((3.0 / l) as u64) {
            return false;
        }
        self.ewma_min = self.ewma_min.min(self.ewma + bound);
        self.ewma_max = self.ewma_max.max(self.ewma - bound);
        self.ewma - bound > self.ewma_min || self.ewma + bound < self.ewma_max
    }
}

impl StreamingSegmenter for Hddm {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        let pos = self.t;
        self.t += 1;
        let v = self.bin.step(x) as f64;
        self.n_since_reset += 1;
        let drift = match self.cfg.variant {
            HddmVariant::A => self.step_a(v),
            HddmVariant::W => self.step_w(v),
        };
        if drift {
            cps.push(pos);
            self.reset();
        }
    }

    fn name(&self) -> &'static str {
        match self.cfg.variant {
            HddmVariant::A => "HDDM",
            HddmVariant::W => "HDDM-W",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use class_core::stats::SplitMix64;

    fn noisy_then_chaotic(n: usize, cp: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                if i < cp {
                    (i as f64 * 0.05).sin() * 0.3
                } else {
                    rng.gaussian() * 3.0
                }
            })
            .collect()
    }

    #[test]
    fn hddm_a_detects_error_rate_increase() {
        // delta = 1e-60 needs a LOT of evidence; use a moderate delta to
        // test the mechanism, the paper value is exercised in integration.
        let xs = noisy_then_chaotic(6000, 3000, 1);
        let cfg = HddmConfig {
            delta: 1e-6,
            ..Default::default()
        };
        let mut hddm = Hddm::new(cfg);
        let cps = hddm.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 3000).unsigned_abs() < 1000),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn hddm_w_mechanism_fires_on_bernoulli_rate_jump() {
        // Drive the W-test directly with a binary error stream: rate 0
        // then rate ~0.6 must fire; the bound at delta 1e-3 and lambda
        // 0.01 needs a jump of ~0.26.
        let cfg = HddmConfig {
            delta: 1e-3,
            variant: HddmVariant::W,
            ..Default::default()
        };
        let mut hddm = Hddm::new(cfg);
        let mut rng = SplitMix64::new(7);
        let mut fired_at = None;
        for i in 0..6000u64 {
            let v = if i < 3000 {
                0.0
            } else {
                f64::from(rng.next_f64() < 0.6)
            };
            hddm.n_since_reset += 1;
            if hddm.step_w(v) && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        let at = fired_at.expect("W-test never fired");
        assert!((3000..4500).contains(&at), "fired at {at}");
    }

    #[test]
    fn hddm_w_mechanism_quiet_on_stationary_bernoulli() {
        let cfg = HddmConfig {
            delta: 1e-3,
            variant: HddmVariant::W,
            ..Default::default()
        };
        let mut hddm = Hddm::new(cfg);
        let mut rng = SplitMix64::new(8);
        for _ in 0..10_000u64 {
            let v = f64::from(rng.next_f64() < 0.2);
            hddm.n_since_reset += 1;
            assert!(!hddm.step_w(v), "false positive");
        }
    }

    #[test]
    fn hddm_quiet_on_stationary_error_rate() {
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..8000).map(|_| rng.gaussian()).collect();
        let cfg = HddmConfig {
            delta: 1e-6,
            ..Default::default()
        };
        let mut hddm = Hddm::new(cfg);
        let cps = hddm.segment_series(&xs);
        assert!(cps.len() <= 2, "false positives: {cps:?}");
    }

    #[test]
    fn tiny_delta_is_extremely_conservative() {
        let xs = noisy_then_chaotic(4000, 2000, 4);
        let mut strict = Hddm::new(HddmConfig::default()); // 1e-60
        let cfg = HddmConfig {
            delta: 1e-3,
            ..Default::default()
        };
        let mut loose = Hddm::new(cfg);
        let cps_strict = strict.segment_series(&xs);
        let cps_loose = loose.segment_series(&xs);
        assert!(cps_strict.len() <= cps_loose.len());
    }

    #[test]
    fn names_differ_by_variant() {
        assert_eq!(Hddm::new(HddmConfig::default()).name(), "HDDM");
        let cfg = HddmConfig {
            variant: HddmVariant::W,
            ..Default::default()
        };
        assert_eq!(Hddm::new(cfg).name(), "HDDM-W");
    }
}
