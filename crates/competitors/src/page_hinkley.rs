//! Page-Hinkley test (Page 1954).
//!
//! The paper evaluated Page-Hinkley alongside the drift detectors but
//! "could not find a configuration that outputs meaningful results" (§4.1)
//! and excluded it from the rankings. The implementation is included here
//! for completeness and to let users verify that finding: the cumulative
//! deviation test reacts to sustained mean shifts of a *stationary-mean*
//! signal, an assumption real sensor streams rarely satisfy.

use crate::util::OnlineZNorm;
use class_core::segmenter::StreamingSegmenter;

/// Page-Hinkley configuration.
#[derive(Debug, Clone)]
pub struct PageHinkleyConfig {
    /// Magnitude of changes to ignore (the test's delta).
    pub delta: f64,
    /// Detection threshold (lambda).
    pub lambda: f64,
    /// Forgetting factor for the running mean.
    pub alpha: f64,
    /// Minimum observations before a report.
    pub min_instances: u64,
}

impl Default for PageHinkleyConfig {
    fn default() -> Self {
        // Tuned for z-normalised input: the per-step drain `delta` must
        // dominate the sqrt(n) excursions of the cumulative deviation or
        // the test fires on any long noise stretch.
        Self {
            delta: 0.1,
            lambda: 50.0,
            alpha: 0.999,
            min_instances: 30,
        }
    }
}

/// Two-sided Page-Hinkley change detector.
pub struct PageHinkley {
    cfg: PageHinkleyConfig,
    norm: OnlineZNorm,
    mean: f64,
    n: u64,
    /// Cumulative statistics for increases / decreases.
    m_up: f64,
    m_up_min: f64,
    m_down: f64,
    m_down_max: f64,
    t: u64,
}

impl PageHinkley {
    /// Creates a Page-Hinkley detector.
    pub fn new(cfg: PageHinkleyConfig) -> Self {
        Self {
            cfg,
            norm: OnlineZNorm::new(),
            mean: 0.0,
            n: 0,
            m_up: 0.0,
            m_up_min: 0.0,
            m_down: 0.0,
            m_down_max: 0.0,
            t: 0,
        }
    }

    fn reset(&mut self) {
        self.mean = 0.0;
        self.n = 0;
        self.m_up = 0.0;
        self.m_up_min = 0.0;
        self.m_down = 0.0;
        self.m_down_max = 0.0;
    }
}

impl StreamingSegmenter for PageHinkley {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        let pos = self.t;
        self.t += 1;
        let x = self.norm.step(x); // bounded-scale input for the test
        self.n += 1;
        // Forgetting running mean.
        self.mean = self.cfg.alpha * self.mean + (1.0 - self.cfg.alpha) * x;
        if self.n == 1 {
            self.mean = x;
        }
        let dev = x - self.mean;
        self.m_up += dev - self.cfg.delta;
        self.m_up_min = self.m_up_min.min(self.m_up);
        self.m_down += dev + self.cfg.delta;
        self.m_down_max = self.m_down_max.max(self.m_down);
        if self.n < self.cfg.min_instances {
            return;
        }
        let up = self.m_up - self.m_up_min > self.cfg.lambda;
        let down = self.m_down_max - self.m_down > self.cfg.lambda;
        if up || down {
            cps.push(pos);
            self.reset();
        }
    }

    fn name(&self) -> &'static str {
        "PageHinkley"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use class_core::stats::SplitMix64;

    #[test]
    fn detects_sustained_mean_shift() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<f64> = (0..4000)
            .map(|i| {
                if i < 2000 {
                    rng.gaussian() * 0.3
                } else {
                    4.0 + rng.gaussian() * 0.3
                }
            })
            .collect();
        let mut ph = PageHinkley::new(PageHinkleyConfig::default());
        let cps = ph.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 2000).unsigned_abs() < 300),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn detects_downward_shift_too() {
        let mut rng = SplitMix64::new(2);
        let xs: Vec<f64> = (0..4000)
            .map(|i| if i < 2000 { 3.0 } else { -3.0 } + rng.gaussian() * 0.2)
            .collect();
        let mut ph = PageHinkley::new(PageHinkleyConfig::default());
        let cps = ph.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 2000).unsigned_abs() < 300),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn blind_to_shape_changes_as_the_paper_found() {
        // A frequency change with constant mean: Page-Hinkley sees nothing
        // (this is why the paper excluded it).
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..6000)
            .map(|i| {
                let f = if i < 3000 { 0.1 } else { 0.5 };
                (i as f64 * f).sin() + 0.05 * rng.gaussian()
            })
            .collect();
        let mut ph = PageHinkley::new(PageHinkleyConfig::default());
        let cps = ph.segment_series(&xs);
        assert!(
            !cps.iter().any(|&c| (c as i64 - 3000).unsigned_abs() < 500),
            "unexpectedly found the shape change: {cps:?}"
        );
    }

    #[test]
    fn quiet_on_stationary_noise() {
        let mut rng = SplitMix64::new(4);
        let xs: Vec<f64> = (0..8000).map(|_| rng.gaussian()).collect();
        let mut ph = PageHinkley::new(PageHinkleyConfig::default());
        let cps = ph.segment_series(&xs);
        assert!(cps.len() <= 2, "false positives: {cps:?}");
    }
}
