//! The sliding-window discrepancy baseline ("Window" in the paper,
//! following the CPD survey of Truong, Oudre & Vayatis 2020).
//!
//! Two adjacent half-windows are compared at every step: the discrepancy
//! `cost(joint) - cost(left) - cost(right)` is large when a change point
//! lies at the boundary. The paper tested autoregressive, Gaussian, kernel,
//! L1, L2 and Mahalanobis costs with thresholds 0.05..0.95 and selected the
//! autoregressive cost at threshold 0.2 (§4.1), with the half-window sized
//! relative to the annotated subsequence width (full window = 10·w).
//!
//! Scores are normalised as `1 - (cost_l + cost_r) / cost_joint`, which is
//! in [0, 1] for the additive costs used here, so the paper's absolute
//! thresholds transfer directly.

use crate::util::Cooldown;
use class_core::buffer::ShiftBuffer;
use class_core::segmenter::StreamingSegmenter;

/// Cost function for the Window baseline (Truong et al. cost families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowCost {
    /// Residual sum of squares of a least-squares AR(p) fit (paper's best).
    #[default]
    Autoregressive,
    /// Gaussian negative log-likelihood (mean + variance).
    Gaussian,
    /// Sum of absolute deviations from the median.
    L1,
    /// Sum of squared deviations from the mean.
    L2,
    /// RBF-kernel discrepancy (biased MMD on subsampled points).
    Kernel,
    /// Squared deviations scaled by the joint variance.
    Mahalanobis,
}

impl WindowCost {
    /// Identifier used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            WindowCost::Autoregressive => "ar",
            WindowCost::Gaussian => "gaussian",
            WindowCost::L1 => "l1",
            WindowCost::L2 => "l2",
            WindowCost::Kernel => "kernel",
            WindowCost::Mahalanobis => "mahalanobis",
        }
    }

    /// All cost functions (for the hyper-parameter search the paper ran).
    pub fn all() -> [WindowCost; 6] {
        [
            WindowCost::Autoregressive,
            WindowCost::Gaussian,
            WindowCost::L1,
            WindowCost::L2,
            WindowCost::Kernel,
            WindowCost::Mahalanobis,
        ]
    }
}

/// Window baseline configuration.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Half-window length `c` (paper: 5 × annotated width, so that the
    /// full comparison window is 10·w).
    pub half_window: usize,
    /// Cost function (paper default: autoregressive).
    pub cost: WindowCost,
    /// Report threshold on the normalised discrepancy (paper: 0.2).
    pub threshold: f64,
    /// AR order for the autoregressive cost.
    pub ar_order: usize,
    /// Report cooldown, in observations (exclusion zone).
    pub cooldown: u64,
}

impl WindowConfig {
    /// Paper defaults for a given half-window.
    pub fn new(half_window: usize) -> Self {
        Self {
            half_window: half_window.max(8),
            cost: WindowCost::Autoregressive,
            threshold: 0.2,
            ar_order: 3,
            cooldown: (2 * half_window) as u64,
        }
    }
}

/// Sliding two-window discrepancy segmenter.
pub struct WindowSegmenter {
    cfg: WindowConfig,
    buf: ShiftBuffer<f64>,
    cooldown: Cooldown,
    t: u64,
    last_score: f64,
}

impl WindowSegmenter {
    /// Creates a Window segmenter.
    pub fn new(cfg: WindowConfig) -> Self {
        let buf = ShiftBuffer::new(2 * cfg.half_window);
        let cooldown = Cooldown::new(cfg.cooldown);
        Self {
            cfg,
            buf,
            cooldown,
            t: 0,
            last_score: 0.0,
        }
    }

    /// Most recent normalised discrepancy score.
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    fn cost(&self, xs: &[f64]) -> f64 {
        match self.cfg.cost {
            WindowCost::L2 => {
                let mu = xs.iter().sum::<f64>() / xs.len() as f64;
                xs.iter().map(|v| (v - mu) * (v - mu)).sum()
            }
            WindowCost::L1 => {
                let mut s: Vec<f64> = xs.to_vec();
                s.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let med = s[s.len() / 2];
                xs.iter().map(|v| (v - med).abs()).sum()
            }
            WindowCost::Gaussian => {
                let n = xs.len() as f64;
                let mu = xs.iter().sum::<f64>() / n;
                let var = xs.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / n;
                n * (var.max(1e-12)).ln()
            }
            WindowCost::Mahalanobis => {
                let n = xs.len() as f64;
                let mu = xs.iter().sum::<f64>() / n;
                let var = xs.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / n;
                xs.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / var.max(1e-12)
            }
            WindowCost::Kernel => {
                // Biased RBF-MMD self-similarity cost: n * (1 - mean kernel),
                // subsampled for O(n * SUB) work.
                const SUB: usize = 32;
                let n = xs.len();
                let stride = (n / SUB).max(1);
                let gamma = {
                    let mu = xs.iter().sum::<f64>() / n as f64;
                    let var = xs.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / n as f64;
                    1.0 / (2.0 * var.max(1e-9))
                };
                let mut acc = 0.0;
                let mut cnt = 0.0;
                for i in (0..n).step_by(stride) {
                    for j in (0..n).step_by(stride) {
                        let d = xs[i] - xs[j];
                        acc += (-gamma * d * d).exp();
                        cnt += 1.0;
                    }
                }
                n as f64 * (1.0 - acc / cnt)
            }
            WindowCost::Autoregressive => ar_residual_cost(xs, self.cfg.ar_order),
        }
    }
}

/// Residual sum of squares of a least-squares AR(p) fit (with intercept),
/// solved via normal equations and Gaussian elimination (p is tiny).
fn ar_residual_cost(xs: &[f64], p: usize) -> f64 {
    let n = xs.len();
    if n <= p + 2 {
        return 0.0;
    }
    let dim = p + 1; // coefficients + intercept
    let mut ata = vec![0.0f64; dim * dim];
    let mut atb = vec![0.0f64; dim];
    for t in p..n {
        // Row: [x_{t-1}, ..., x_{t-p}, 1] -> x_t
        for i in 0..dim {
            let xi = if i < p { xs[t - 1 - i] } else { 1.0 };
            atb[i] += xi * xs[t];
            for j in 0..dim {
                let xj = if j < p { xs[t - 1 - j] } else { 1.0 };
                ata[i * dim + j] += xi * xj;
            }
        }
    }
    // Ridge for numerical safety.
    for i in 0..dim {
        ata[i * dim + i] += 1e-8;
    }
    let coef = solve(&mut ata, &mut atb, dim);
    let mut rss = 0.0;
    for t in p..n {
        let mut pred = coef[p];
        for i in 0..p {
            pred += coef[i] * xs[t - 1 - i];
        }
        let r = xs[t] - pred;
        rss += r * r;
    }
    rss
}

/// In-place Gaussian elimination with partial pivoting; returns the
/// solution vector (b is consumed).
fn solve(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for c in 0..n {
                a.swap(col * n + c, piv * n + c);
            }
            b.swap(col, piv);
        }
        let diag = a[col * n + col];
        if diag.abs() < 1e-15 {
            continue;
        }
        for r in col + 1..n {
            let f = a[r * n + col] / diag;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in r + 1..n {
            acc -= a[r * n + c] * x[c];
        }
        let diag = a[r * n + r];
        x[r] = if diag.abs() < 1e-15 { 0.0 } else { acc / diag };
    }
    x
}

impl StreamingSegmenter for WindowSegmenter {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        let pos = self.t;
        self.t += 1;
        self.buf.push(x);
        if !self.buf.is_full() {
            return;
        }
        let c = self.cfg.half_window;
        let xs = self.buf.as_slice();
        let joint = self.cost(xs);
        let left = self.cost(&xs[..c]);
        let right = self.cost(&xs[c..]);
        let score = if joint.abs() < 1e-12 {
            0.0
        } else {
            (1.0 - (left + right) / joint).clamp(-1.0, 1.0)
        };
        self.last_score = score;
        if score > self.cfg.threshold && self.cooldown.fire(pos) {
            // The boundary between the two half-windows.
            cps.push(pos.saturating_sub(c as u64 - 1));
        }
    }

    fn name(&self) -> &'static str {
        "Window"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use class_core::stats::SplitMix64;

    fn freq_shift(n: usize, cp: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let f = if i < cp { 0.1 } else { 0.45 };
                (i as f64 * f).sin() + 0.03 * rng.gaussian()
            })
            .collect()
    }

    #[test]
    fn ar_cost_detects_dynamics_change() {
        let xs = freq_shift(3000, 1500, 1);
        let mut seg = WindowSegmenter::new(WindowConfig::new(150));
        let cps = seg.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 1500).unsigned_abs() < 300),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn all_costs_run_without_panicking() {
        let xs = freq_shift(1200, 600, 2);
        for cost in WindowCost::all() {
            let mut cfg = WindowConfig::new(100);
            cfg.cost = cost;
            let mut seg = WindowSegmenter::new(cfg);
            let cps = seg.segment_series(&xs);
            assert!(cps.len() < 20, "{}: too many cps", cost.name());
        }
    }

    #[test]
    fn gaussian_cost_detects_variance_change() {
        let mut rng = SplitMix64::new(3);
        let xs: Vec<f64> = (0..3000)
            .map(|i| {
                let s = if i < 1500 { 0.2 } else { 2.0 };
                s * rng.gaussian()
            })
            .collect();
        let mut cfg = WindowConfig::new(150);
        cfg.cost = WindowCost::Gaussian;
        cfg.threshold = 0.1;
        let mut seg = WindowSegmenter::new(cfg);
        let cps = seg.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 1500).unsigned_abs() < 300),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn l2_cost_detects_mean_shift() {
        let mut rng = SplitMix64::new(4);
        let xs: Vec<f64> = (0..2000)
            .map(|i| if i < 1000 { 0.0 } else { 3.0 } + 0.2 * rng.gaussian())
            .collect();
        let mut cfg = WindowConfig::new(120);
        cfg.cost = WindowCost::L2;
        cfg.threshold = 0.3;
        let mut seg = WindowSegmenter::new(cfg);
        let cps = seg.segment_series(&xs);
        assert!(
            cps.iter().any(|&c| (c as i64 - 1000).unsigned_abs() < 250),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn quiet_on_stationary_signal() {
        let mut rng = SplitMix64::new(5);
        let xs: Vec<f64> = (0..4000)
            .map(|i| (i as f64 * 0.2).sin() + 0.05 * rng.gaussian())
            .collect();
        let mut seg = WindowSegmenter::new(WindowConfig::new(150));
        let cps = seg.segment_series(&xs);
        assert!(cps.len() <= 2, "false positives: {cps:?}");
    }

    #[test]
    fn solver_solves_small_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        let x = solve(&mut a, &mut b, 2);
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ar_cost_short_input_is_zero() {
        assert_eq!(ar_residual_cost(&[1.0, 2.0], 3), 0.0);
    }
}
