//! NEWMA — No-prior-knowledge Exponentially Weighted Moving Average
//! (Keriven, Garreau & Poli, IEEE TSP 2020; competitor in Table 2).
//!
//! NEWMA tracks two exponentially weighted moving averages of a random
//! feature embedding of the recent signal, with different forgetting
//! factors. Under a stable distribution both averages converge to the same
//! embedding mean; after a change the faster average moves first and the
//! distance between the two spikes.
//!
//! Following the paper's tuning (§4.1), the detection threshold is the
//! empirical quantile (best value: 1.0, i.e. the maximum) of the recent
//! detection statistic, and an exclusion cooldown prevents bursts.

use crate::util::Cooldown;
use class_core::segmenter::StreamingSegmenter;
use class_core::stats::SplitMix64;

/// NEWMA configuration.
#[derive(Debug, Clone)]
pub struct NewmaConfig {
    /// Number of recent observations embedded per step.
    pub embed_window: usize,
    /// Random Fourier feature dimension (cos/sin pairs).
    pub n_features: usize,
    /// Fast forgetting factor.
    pub lambda_fast: f64,
    /// Slow forgetting factor.
    pub lambda_slow: f64,
    /// Quantile of the trailing statistic used as adaptive threshold
    /// (paper's best: 1.0 = running maximum).
    pub quantile: f64,
    /// Length of the trailing statistic buffer.
    pub stat_window: usize,
    /// RFF bandwidth (inverse length scale).
    pub gamma: f64,
    /// Report cooldown in observations.
    pub cooldown: u64,
    /// Multiplicative tolerance over the adaptive threshold: the statistic
    /// must exceed `threshold * (1 + tolerance)` to fire. Suppresses the
    /// ~ln(n) spurious "new record" events of a stationary statistic.
    pub tolerance: f64,
    /// RNG seed for the random features.
    pub seed: u64,
}

impl Default for NewmaConfig {
    fn default() -> Self {
        Self {
            embed_window: 20,
            n_features: 64,
            lambda_fast: 0.02,
            lambda_slow: 0.004,
            quantile: 1.0,
            stat_window: 1000,
            gamma: 0.5,
            cooldown: 250,
            tolerance: 0.1,
            seed: 0xBEEF,
        }
    }
}

/// NEWMA detector.
pub struct Newma {
    cfg: NewmaConfig,
    /// Random projection matrix (n_features x embed_window) and phases.
    proj: Vec<f64>,
    phase: Vec<f64>,
    recent: Vec<f64>,
    ewma_fast: Vec<f64>,
    ewma_slow: Vec<f64>,
    feat: Vec<f64>,
    stats: Vec<f64>,
    stat_at: usize,
    stat_filled: bool,
    /// Running maximum of the statistic since the last detection (used for
    /// quantile 1.0, which the paper found best: a new all-time high is
    /// required to fire). The maximum absorbs values with a delay of two
    /// fast windows so that a genuine post-change rise (which creeps up
    /// over ~1/lambda_fast steps) is compared against the *pre-change*
    /// level rather than against itself.
    running_max: f64,
    delay_ring: Vec<f64>,
    delay_at: usize,
    cooldown: Cooldown,
    t: u64,
    last_stat: f64,
}

impl Newma {
    /// Creates a NEWMA detector.
    pub fn new(cfg: NewmaConfig) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let proj: Vec<f64> = (0..cfg.n_features * cfg.embed_window)
            .map(|_| rng.gaussian() * cfg.gamma)
            .collect();
        let mut rng2 = SplitMix64::new(cfg.seed ^ 0xABCD);
        let phase: Vec<f64> = (0..cfg.n_features)
            .map(|_| rng2.next_f64() * 2.0 * core::f64::consts::PI)
            .collect();
        Self {
            proj,
            phase,
            recent: vec![0.0; cfg.embed_window],
            ewma_fast: vec![0.0; cfg.n_features],
            ewma_slow: vec![0.0; cfg.n_features],
            feat: vec![0.0; cfg.n_features],
            stats: vec![0.0; cfg.stat_window],
            stat_at: 0,
            stat_filled: false,
            running_max: 0.0,
            delay_ring: vec![0.0; ((2.0 / cfg.lambda_fast) as usize).max(1)],
            delay_at: 0,
            cooldown: Cooldown::new(cfg.cooldown),
            t: 0,
            last_stat: 0.0,
            cfg,
        }
    }

    /// Most recent detection statistic.
    pub fn last_statistic(&self) -> f64 {
        self.last_stat
    }

    fn threshold(&self) -> f64 {
        if self.cfg.quantile >= 1.0 {
            // Quantile 1.0 = the all-time maximum since the last detection,
            // which never decays (a sliding maximum would forget old peaks
            // and fire on stationary noise).
            return self.running_max;
        }
        let n = if self.stat_filled {
            self.stats.len()
        } else {
            self.stat_at
        };
        if n < 50 {
            return f64::MAX;
        }
        // Quantile via a scratch copy (detection-time only, not per point:
        // the threshold is needed on every step, so keep it O(n) with
        // selection rather than a full sort).
        let mut buf: Vec<f64> = self.stats[..n].to_vec();
        let idx = ((n as f64 - 1.0) * self.cfg.quantile) as usize;
        let (_, v, _) = buf.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).unwrap());
        *v
    }
}

impl StreamingSegmenter for Newma {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        let pos = self.t;
        self.t += 1;
        // Shift the embedding window.
        self.recent.rotate_right(1);
        self.recent[0] = x;
        if pos < self.cfg.embed_window as u64 {
            return;
        }
        // Random Fourier features: cos(w.x + b).
        let d = self.cfg.embed_window;
        for f in 0..self.cfg.n_features {
            let row = &self.proj[f * d..(f + 1) * d];
            let mut acc = self.phase[f];
            for (w, v) in row.iter().zip(&self.recent) {
                acc += w * v;
            }
            self.feat[f] = acc.cos();
        }
        // Dual EWMA update and statistic.
        let (lf, ls) = (self.cfg.lambda_fast, self.cfg.lambda_slow);
        let mut dist2 = 0.0;
        for f in 0..self.cfg.n_features {
            self.ewma_fast[f] = (1.0 - lf) * self.ewma_fast[f] + lf * self.feat[f];
            self.ewma_slow[f] = (1.0 - ls) * self.ewma_slow[f] + ls * self.feat[f];
            let diff = self.ewma_fast[f] - self.ewma_slow[f];
            dist2 += diff * diff;
        }
        let stat = dist2.sqrt();
        self.last_stat = stat;
        let warm = 3 * (1.0 / ls) as u64;
        // Collect the reference maximum for one extra slow window before
        // any detection is allowed.
        let fire_from = warm + (1.0 / ls) as u64;
        let threshold = if pos > fire_from {
            self.threshold() * (1.0 + self.cfg.tolerance)
        } else {
            f64::MAX
        };
        // Record the statistic *after* thresholding so the current value
        // does not suppress itself.
        self.stats[self.stat_at] = stat;
        self.stat_at += 1;
        if self.stat_at == self.stats.len() {
            self.stat_at = 0;
            self.stat_filled = true;
        }
        let fired = stat > threshold && self.cooldown.fire(pos);
        // Absorb the statistic into the running maximum with a delay of
        // two fast windows, skipping the warm-up transient.
        let delay = self.delay_ring.len() as u64;
        let leaving = self.delay_ring[self.delay_at];
        self.delay_ring[self.delay_at] = stat;
        self.delay_at = (self.delay_at + 1) % self.delay_ring.len();
        if pos >= delay && pos - delay > warm {
            self.running_max = self.running_max.max(leaving);
        }
        if fired {
            // The fast EWMA lags by roughly its effective window.
            let lag = (1.0 / lf) as u64;
            cps.push(pos.saturating_sub(lag));
            // Restart the reference level from the post-change statistic.
            self.running_max = stat;
            self.delay_ring.iter_mut().for_each(|v| *v = stat);
        }
    }

    fn name(&self) -> &'static str {
        "NEWMA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newma_detects_distribution_shift() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<f64> = (0..4000)
            .map(|i| {
                if i < 2000 {
                    rng.gaussian() * 0.3
                } else {
                    3.0 + rng.gaussian() * 0.9
                }
            })
            .collect();
        let mut newma = Newma::new(NewmaConfig::default());
        let cps = newma.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 2000).unsigned_abs() < 400),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn newma_detects_frequency_shift() {
        let mut rng = SplitMix64::new(2);
        let xs: Vec<f64> = (0..5000)
            .map(|i| {
                let f = if i < 2500 { 0.1 } else { 0.6 };
                (i as f64 * f).sin() + 0.05 * rng.gaussian()
            })
            .collect();
        let mut newma = Newma::new(NewmaConfig::default());
        let cps = newma.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 2500).unsigned_abs() < 500),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn newma_with_max_quantile_is_conservative() {
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..6000).map(|_| rng.gaussian()).collect();
        let mut newma = Newma::new(NewmaConfig::default());
        let cps = newma.segment_series(&xs);
        assert!(cps.len() <= 1, "false positives: {cps:?}");
    }

    #[test]
    fn newma_deterministic_given_seed() {
        let mut rng = SplitMix64::new(4);
        let xs: Vec<f64> = (0..3000)
            .map(|i| {
                if i < 1500 {
                    rng.gaussian()
                } else {
                    4.0 + rng.gaussian()
                }
            })
            .collect();
        let a = Newma::new(NewmaConfig::default()).segment_series(&xs);
        let b = Newma::new(NewmaConfig::default()).segment_series(&xs);
        assert_eq!(a, b);
    }

    #[test]
    fn lower_quantile_fires_more() {
        let mut rng = SplitMix64::new(5);
        let xs: Vec<f64> = (0..4000)
            .map(|i| {
                let base = if (i / 800) % 2 == 0 { 0.0 } else { 2.0 };
                base + rng.gaussian() * 0.4
            })
            .collect();
        let hi = NewmaConfig {
            quantile: 1.0,
            ..Default::default()
        };
        let lo = NewmaConfig {
            quantile: 0.95,
            ..Default::default()
        };
        let cps_hi = Newma::new(hi).segment_series(&xs);
        let cps_lo = Newma::new(lo).segment_series(&xs);
        assert!(
            cps_lo.len() >= cps_hi.len(),
            "{} vs {}",
            cps_lo.len(),
            cps_hi.len()
        );
    }
}
