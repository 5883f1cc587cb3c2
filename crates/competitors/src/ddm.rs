//! DDM — Drift Detection Method (Gama et al., SBIA 2004; Table 2).
//!
//! DDM monitors the error rate of an online model over a Bernoulli error
//! stream: with `p_t` the running error probability and
//! `s_t = sqrt(p_t (1 - p_t) / t)`, it tracks the minimum of `p + s` and
//! signals a drift when `p_t + s_t >= p_min + 3 s_min` (warning at 2).
//!
//! The raw sensor stream is turned into a {0,1} error stream with the
//! forecaster-surprise binarizer shared with HDDM (see
//! [`crate::util::ResidualBinarizer`]); the paper applies DDM to the same
//! kind of derived error signal. The paper's tuned parameter "20" is the
//! minimum number of instances before DDM may fire (§4.1: "tested 15 to
//! 30").

use crate::util::ResidualBinarizer;
use class_core::segmenter::StreamingSegmenter;

/// DDM configuration.
#[derive(Debug, Clone)]
pub struct DdmConfig {
    /// Minimum instances since the last reset before a drift may fire
    /// (paper: 20).
    pub min_instances: u64,
    /// Drift sensitivity multiplier (canonical: 3).
    pub drift_level: f64,
    /// Warning sensitivity multiplier (canonical: 2, informational).
    pub warning_level: f64,
}

impl Default for DdmConfig {
    fn default() -> Self {
        Self {
            min_instances: 20,
            drift_level: 3.0,
            warning_level: 2.0,
        }
    }
}

/// DDM drift detector over a derived model-error stream.
pub struct Ddm {
    cfg: DdmConfig,
    bin: ResidualBinarizer,
    n: u64,
    p: f64,
    p_min: f64,
    s_min: f64,
    in_warning: bool,
    t: u64,
}

impl Ddm {
    /// Creates a DDM detector.
    pub fn new(cfg: DdmConfig) -> Self {
        Self {
            cfg,
            bin: ResidualBinarizer::default_paper(),
            n: 0,
            p: 0.0,
            p_min: f64::MAX,
            s_min: f64::MAX,
            in_warning: false,
            t: 0,
        }
    }

    /// Whether the detector is currently in the warning zone.
    pub fn in_warning(&self) -> bool {
        self.in_warning
    }

    fn reset(&mut self) {
        self.n = 0;
        self.p = 0.0;
        self.p_min = f64::MAX;
        self.s_min = f64::MAX;
        self.in_warning = false;
    }
}

impl StreamingSegmenter for Ddm {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        let pos = self.t;
        self.t += 1;
        let err = self.bin.step(x) as f64;
        self.n += 1;
        // Incremental error-rate estimate.
        self.p += (err - self.p) / self.n as f64;
        if self.n < self.cfg.min_instances {
            return;
        }
        let s = (self.p * (1.0 - self.p) / self.n as f64).max(0.0).sqrt();
        if self.p + s < self.p_min + self.s_min {
            self.p_min = self.p;
            self.s_min = s;
        }
        let level = self.p + s;
        if level >= self.p_min + self.cfg.drift_level * self.s_min {
            cps.push(pos);
            self.reset();
        } else {
            self.in_warning = level >= self.p_min + self.cfg.warning_level * self.s_min;
        }
    }

    fn name(&self) -> &'static str {
        "DDM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use class_core::stats::SplitMix64;

    #[test]
    fn ddm_detects_regime_change() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<f64> = (0..4000)
            .map(|i| {
                if i < 2000 {
                    (i as f64 * 0.05).sin() * 0.5
                } else {
                    rng.gaussian() * 2.0
                }
            })
            .collect();
        let mut ddm = Ddm::new(DdmConfig::default());
        let cps = ddm.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 2000).unsigned_abs() < 600),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn ddm_mostly_quiet_on_smooth_signal() {
        let xs: Vec<f64> = (0..6000).map(|i| (i as f64 * 0.02).sin()).collect();
        let mut ddm = Ddm::new(DdmConfig::default());
        let cps = ddm.segment_series(&xs);
        assert!(cps.len() <= 2, "false positives: {cps:?}");
    }

    #[test]
    fn reset_clears_state_after_drift() {
        let mut rng = SplitMix64::new(2);
        let xs: Vec<f64> = (0..3000)
            .map(|i| if i < 1500 { 0.0 } else { 5.0 + rng.gaussian() })
            .collect();
        let mut ddm = Ddm::new(DdmConfig::default());
        let _ = ddm.segment_series(&xs);
        // After a drift + reset the statistics restart.
        assert!(ddm.n < 3000);
    }

    #[test]
    fn warning_precedes_drift() {
        // Construct a slowly degrading error stream by feeding a signal
        // whose unpredictability ramps up.
        let mut rng = SplitMix64::new(3);
        let mut ddm = Ddm::new(DdmConfig::default());
        let mut cps = Vec::new();
        let mut saw_warning = false;
        for i in 0..4000u64 {
            let noise = if i < 2000 {
                0.01
            } else {
                0.01 + (i - 2000) as f64 * 0.002
            };
            let x = (i as f64 * 0.05).sin() + noise * rng.gaussian();
            ddm.step(x, &mut cps);
            if ddm.in_warning() && cps.is_empty() {
                saw_warning = true;
            }
        }
        assert!(saw_warning || !cps.is_empty());
    }
}
