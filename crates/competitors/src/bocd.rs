//! BOCD — Bayesian Online Changepoint Detection
//! (Adams & MacKay 2007; competitor in paper Table 2).
//!
//! BOCD maintains the posterior distribution over the current *run length*
//! (time since the last change point) under a conjugate observation model.
//! We use the Normal-Inverse-Gamma model with Student-t predictive, the
//! standard choice for real-valued streams with unknown mean and variance.
//!
//! The run-length vector grows with the stream, giving the O(n) update the
//! paper lists in Table 2 (and the reason BOCD "did not finish within days"
//! on the large archives). An optional `max_run_length` truncation bounds
//! the cost for practical use; the paper-faithful configuration leaves it
//! unbounded.
//!
//! Change points are reported with the rule the paper tuned in §4.1: a CP
//! fires when the MAP run length *drops* by more than `drop_threshold`
//! (best value −150, i.e. a drop of 150) between consecutive steps; the CP
//! position is the start of the new run.

use crate::util::OnlineZNorm;
use class_core::segmenter::StreamingSegmenter;

/// BOCD configuration.
#[derive(Debug, Clone)]
pub struct BocdConfig {
    /// Expected run length (hazard is `1 / lambda`).
    pub lambda: f64,
    /// MAP run-length drop that triggers a report (paper: 150).
    pub drop_threshold: u32,
    /// Optional truncation of the run-length posterior for bounded cost.
    /// `None` is the paper-faithful unbounded variant.
    pub max_run_length: Option<usize>,
    /// Prior pseudo-observations (kappa0, alpha0, beta0); mu0 is 0 because
    /// the input is z-normalised online.
    pub kappa0: f64,
    /// Inverse-Gamma shape prior.
    pub alpha0: f64,
    /// Inverse-Gamma scale prior.
    pub beta0: f64,
}

impl Default for BocdConfig {
    fn default() -> Self {
        Self {
            lambda: 250.0,
            drop_threshold: 150,
            max_run_length: None,
            kappa0: 1.0,
            alpha0: 1.0,
            beta0: 1.0,
        }
    }
}

/// Bayesian online changepoint detector.
pub struct Bocd {
    cfg: BocdConfig,
    norm: OnlineZNorm,
    /// Run-length posterior (log space for numerical stability).
    log_r: Vec<f64>,
    /// Sufficient statistics per run-length hypothesis.
    kappa: Vec<f64>,
    mu: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    /// Scratch buffers for the shifted posterior.
    scratch: Vec<f64>,
    t: u64,
    prev_map: usize,
}

impl Bocd {
    /// Creates a BOCD detector.
    pub fn new(cfg: BocdConfig) -> Self {
        let (k0, a0, b0) = (cfg.kappa0, cfg.alpha0, cfg.beta0);
        Self {
            cfg,
            norm: OnlineZNorm::new(),
            log_r: vec![0.0],
            kappa: vec![k0],
            mu: vec![0.0],
            alpha: vec![a0],
            beta: vec![b0],
            scratch: Vec::new(),
            t: 0,
            prev_map: 0,
        }
    }

    /// Current MAP run length.
    pub fn map_run_length(&self) -> usize {
        self.prev_map
    }

    /// Log Student-t predictive density of `x` under hypothesis `i`.
    fn log_pred(&self, i: usize, x: f64) -> f64 {
        let kappa = self.kappa[i];
        let mu = self.mu[i];
        let alpha = self.alpha[i];
        let beta = self.beta[i];
        let nu = 2.0 * alpha;
        let scale2 = beta * (kappa + 1.0) / (alpha * kappa);
        let z2 = (x - mu) * (x - mu) / scale2;
        ln_gamma((nu + 1.0) / 2.0)
            - ln_gamma(nu / 2.0)
            - 0.5 * (nu * core::f64::consts::PI * scale2).ln()
            - (nu + 1.0) / 2.0 * (z2 / nu).ln_1p()
    }
}

/// Lanczos approximation of `ln Γ(x)` (|error| < 1e-10 for x > 0).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = core::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * core::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

impl StreamingSegmenter for Bocd {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        let z = self.norm.step(x);
        let pos = self.t;
        self.t += 1;
        let n = self.log_r.len();
        let h = 1.0 / self.cfg.lambda;
        let log_h = h.ln();
        let log_1mh = (1.0 - h).ln();

        // Predictive probabilities per hypothesis.
        self.scratch.clear();
        self.scratch.resize(n + 1, f64::NEG_INFINITY);
        let mut log_cp_mass = f64::NEG_INFINITY;
        for i in 0..n {
            let lp = self.log_pred(i, z) + self.log_r[i];
            self.scratch[i + 1] = lp + log_1mh; // growth
            log_cp_mass = log_sum_exp(log_cp_mass, lp + log_h);
        }
        self.scratch[0] = log_cp_mass;

        // Normalise.
        let mut mx = f64::NEG_INFINITY;
        for &v in &self.scratch {
            mx = mx.max(v);
        }
        let mut total = 0.0;
        for &v in &self.scratch {
            total += (v - mx).exp();
        }
        let log_z = mx + total.ln();
        for v in &mut self.scratch {
            *v -= log_z;
        }

        // Update sufficient statistics (shift by one; run length 0 restarts
        // from the prior).
        let (k0, a0, b0) = (self.cfg.kappa0, self.cfg.alpha0, self.cfg.beta0);
        self.kappa.insert(0, k0);
        self.mu.insert(0, 0.0);
        self.alpha.insert(0, a0);
        self.beta.insert(0, b0);
        for i in 1..self.kappa.len() {
            let kap = self.kappa[i];
            let mu = self.mu[i];
            self.beta[i] += kap * (z - mu) * (z - mu) / (2.0 * (kap + 1.0));
            self.mu[i] = (kap * mu + z) / (kap + 1.0);
            self.kappa[i] = kap + 1.0;
            self.alpha[i] += 0.5;
        }
        core::mem::swap(&mut self.log_r, &mut self.scratch);

        // Optional truncation for bounded memory/cost.
        if let Some(cap) = self.cfg.max_run_length {
            if self.log_r.len() > cap {
                self.log_r.truncate(cap);
                self.kappa.truncate(cap);
                self.mu.truncate(cap);
                self.alpha.truncate(cap);
                self.beta.truncate(cap);
            }
        }

        // MAP run length & drop rule.
        let mut map = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, &v) in self.log_r.iter().enumerate() {
            if v > best {
                best = v;
                map = i;
            }
        }
        if self.prev_map as i64 - map as i64 > self.cfg.drop_threshold as i64 {
            cps.push(pos.saturating_sub(map as u64));
        }
        self.prev_map = map;
    }

    fn name(&self) -> &'static str {
        "BOCD"
    }
}

#[inline]
fn log_sum_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use class_core::stats::SplitMix64;

    #[test]
    fn ln_gamma_matches_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-9);
        assert!((ln_gamma(2.0)).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - core::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn bocd_detects_mean_shift() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<f64> = (0..2000)
            .map(|i| {
                if i < 1000 {
                    rng.gaussian()
                } else {
                    6.0 + rng.gaussian()
                }
            })
            .collect();
        let cfg = BocdConfig {
            drop_threshold: 100,
            ..Default::default()
        };
        let mut bocd = Bocd::new(cfg);
        let cps = bocd.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 1000).unsigned_abs() < 150),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn bocd_detects_variance_shift() {
        let mut rng = SplitMix64::new(2);
        let xs: Vec<f64> = (0..2400)
            .map(|i| {
                let s = if i < 1200 { 0.5 } else { 4.0 };
                s * rng.gaussian()
            })
            .collect();
        let cfg = BocdConfig {
            drop_threshold: 100,
            ..Default::default()
        };
        let mut bocd = Bocd::new(cfg);
        let cps = bocd.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 1200).unsigned_abs() < 300),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn bocd_quiet_on_stationary_gaussian() {
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..3000).map(|_| rng.gaussian()).collect();
        let mut bocd = Bocd::new(BocdConfig::default());
        let cps = bocd.segment_series(&xs);
        assert!(cps.len() <= 1, "false positives: {cps:?}");
    }

    #[test]
    fn run_length_grows_on_stationary_data() {
        let mut rng = SplitMix64::new(4);
        let mut bocd = Bocd::new(BocdConfig::default());
        let mut sink = Vec::new();
        for _ in 0..500 {
            bocd.step(rng.gaussian(), &mut sink);
        }
        assert!(
            bocd.map_run_length() > 400,
            "map rl = {}",
            bocd.map_run_length()
        );
    }

    #[test]
    fn truncation_bounds_state() {
        let mut rng = SplitMix64::new(5);
        let cfg = BocdConfig {
            max_run_length: Some(128),
            ..Default::default()
        };
        let mut bocd = Bocd::new(cfg);
        let mut sink = Vec::new();
        for _ in 0..1000 {
            bocd.step(rng.gaussian(), &mut sink);
        }
        assert!(bocd.log_r.len() <= 128);
    }
}
