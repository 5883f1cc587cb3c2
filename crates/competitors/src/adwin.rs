//! ADWIN — ADaptive WINdowing (Bifet & Gavaldà, SDM 2007; Table 2).
//!
//! ADWIN keeps a variable-length window of the most recent observations in
//! an exponential histogram (buckets of exponentially growing size, at most
//! `M` per level) and drops the oldest buckets whenever two sub-windows
//! have means that differ by more than a Hoeffding-style bound
//! `eps_cut(delta)`. Memory and update cost are O(log n) (Table 2).
//!
//! Inputs are min-max normalised online into [0, 1], as the bound assumes a
//! bounded range. The paper's tuned `delta` is 0.01.

use crate::util::OnlineMinMax;
use class_core::segmenter::StreamingSegmenter;

/// ADWIN configuration.
#[derive(Debug, Clone)]
pub struct AdwinConfig {
    /// Confidence parameter (paper: 0.01).
    pub delta: f64,
    /// Maximum buckets per level (the canonical value is 5).
    pub max_buckets: usize,
    /// Check for cuts every `check_every` insertions (1 = every point).
    pub check_every: u32,
}

impl Default for AdwinConfig {
    fn default() -> Self {
        Self {
            delta: 0.01,
            max_buckets: 5,
            check_every: 1,
        }
    }
}

/// One bucket row: buckets whose size is `2^level`.
#[derive(Debug, Clone, Default)]
struct Row {
    /// (sum, count-of-buckets) — all buckets in a row share the same size.
    sums: Vec<f64>,
}

/// ADWIN change detector.
pub struct Adwin {
    cfg: AdwinConfig,
    norm: OnlineMinMax,
    rows: Vec<Row>,
    /// Total observations / sum in the window.
    width: u64,
    total: f64,
    t: u64,
    since_check: u32,
}

impl Adwin {
    /// Creates an ADWIN detector.
    pub fn new(cfg: AdwinConfig) -> Self {
        Self {
            cfg,
            norm: OnlineMinMax::new(),
            rows: vec![Row::default()],
            width: 0,
            total: 0.0,
            t: 0,
            since_check: 0,
        }
    }

    /// Current adaptive window length.
    pub fn window_len(&self) -> u64 {
        self.width
    }

    /// Mean of the adaptive window.
    pub fn mean(&self) -> f64 {
        if self.width == 0 {
            0.0
        } else {
            self.total / self.width as f64
        }
    }

    fn insert(&mut self, v: f64) {
        self.rows[0].sums.insert(0, v);
        self.width += 1;
        self.total += v;
        // Compress: if a row overflows, merge its two oldest buckets into
        // one bucket of the next level.
        let mut level = 0;
        while self.rows[level].sums.len() > self.cfg.max_buckets {
            if level + 1 == self.rows.len() {
                self.rows.push(Row::default());
            }
            let row = &mut self.rows[level];
            let b = row.sums.pop().expect("overflowing row");
            let a = row.sums.pop().expect("overflowing row");
            self.rows[level + 1].sums.insert(0, a + b);
            level += 1;
        }
    }

    /// Checks all admissible cuts; returns `true` (after dropping the tail)
    /// if a change was found.
    fn detect_and_shrink(&mut self) -> bool {
        if self.width < 10 {
            return false;
        }
        let delta = self.cfg.delta;
        let mut change = false;
        // Repeat until no cut fires (standard ADWIN behaviour).
        'outer: loop {
            let n = self.width as f64;
            // delta' = delta / ln(n) spread over the candidate cuts; the
            // canonical ADWIN2 bound uses ln(4 ln(2n) / delta).
            let ln_4n_delta = ((2.0 * n).ln() * 4.0 / delta).ln();
            // Walk cuts from the oldest bucket forward.
            let mut n0 = 0.0f64;
            let mut s0 = 0.0f64;
            for level in (0..self.rows.len()).rev() {
                let size = (1u64 << level) as f64;
                // Oldest buckets are at the END of each row's vec.
                for bi in (0..self.rows[level].sums.len()).rev() {
                    n0 += size;
                    s0 += self.rows[level].sums[bi];
                    let n1 = n - n0;
                    if n0 < 5.0 || n1 < 5.0 {
                        continue;
                    }
                    let mu0 = s0 / n0;
                    let mu1 = (self.total - s0) / n1;
                    let mharm = 1.0 / (1.0 / n0 + 1.0 / n1);
                    let eps = (1.0 / (2.0 * mharm) * ln_4n_delta).sqrt()
                        + 2.0 / (3.0 * mharm) * ln_4n_delta;
                    if (mu0 - mu1).abs() > eps {
                        // Drop the oldest bucket and retry.
                        self.drop_oldest();
                        change = true;
                        continue 'outer;
                    }
                }
            }
            break;
        }
        change
    }

    fn drop_oldest(&mut self) {
        for level in (0..self.rows.len()).rev() {
            if let Some(sum) = self.rows[level].sums.pop() {
                self.width -= 1u64 << level;
                self.total -= sum;
                return;
            }
        }
    }
}

impl StreamingSegmenter for Adwin {
    fn step(&mut self, x: f64, cps: &mut Vec<u64>) {
        let v = self.norm.step(x);
        let pos = self.t;
        self.t += 1;
        self.insert(v);
        self.since_check += 1;
        if self.since_check >= self.cfg.check_every {
            self.since_check = 0;
            if self.detect_and_shrink() {
                // The surviving window starts right after the change.
                cps.push(pos.saturating_sub(self.width.saturating_sub(1)));
            }
        }
    }

    fn name(&self) -> &'static str {
        "ADWIN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use class_core::stats::SplitMix64;

    #[test]
    fn bucket_invariant_holds() {
        let mut adwin = Adwin::new(AdwinConfig::default());
        let mut sink = Vec::new();
        for i in 0..5000 {
            adwin.step((i % 7) as f64, &mut sink);
            for row in &adwin.rows {
                assert!(row.sums.len() <= adwin.cfg.max_buckets + 1);
            }
        }
        // Width tracks insertions minus drops; on stationary data few drops.
        assert!(adwin.window_len() > 1000);
    }

    #[test]
    fn adwin_detects_mean_shift_and_shrinks() {
        let mut rng = SplitMix64::new(1);
        let mut adwin = Adwin::new(AdwinConfig::default());
        let mut cps = Vec::new();
        for i in 0..4000u64 {
            let x = if i < 2000 {
                rng.gaussian() * 0.2
            } else {
                3.0 + rng.gaussian() * 0.2
            };
            adwin.step(x, &mut cps);
        }
        assert!(!cps.is_empty(), "no drift found");
        assert!(
            cps.iter().any(|&c| (c as i64 - 2000).unsigned_abs() < 400),
            "cps = {cps:?}"
        );
        // After the change the window must have shrunk below the prefix.
        assert!(adwin.window_len() < 2600);
    }

    #[test]
    fn adwin_quiet_on_stationary_stream() {
        let mut rng = SplitMix64::new(2);
        let mut adwin = Adwin::new(AdwinConfig::default());
        let mut cps = Vec::new();
        for _ in 0..6000 {
            adwin.step(rng.gaussian(), &mut cps);
        }
        assert!(cps.len() <= 2, "false positives: {cps:?}");
    }

    #[test]
    fn smaller_delta_is_more_conservative() {
        let make_stream = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..3000u64)
                .map(|i| {
                    let base = ((i / 300) % 2) as f64 * 0.8;
                    base + rng.gaussian() * 0.4
                })
                .collect::<Vec<_>>()
        };
        let xs = make_stream(3);
        let mut strict = Adwin::new(AdwinConfig {
            delta: 1e-8,
            ..Default::default()
        });
        let mut loose = Adwin::new(AdwinConfig {
            delta: 0.5,
            ..Default::default()
        });
        let cps_strict = strict.segment_series(&xs);
        let cps_loose = loose.segment_series(&xs);
        assert!(
            cps_loose.len() >= cps_strict.len(),
            "{} vs {}",
            cps_loose.len(),
            cps_strict.len()
        );
    }

    #[test]
    fn mean_tracks_window() {
        let mut adwin = Adwin::new(AdwinConfig::default());
        let mut sink = Vec::new();
        for _ in 0..100 {
            adwin.step(1.0, &mut sink);
        }
        // After min-max normalisation a constant stream maps to 0.5.
        assert!((adwin.mean() - 0.5).abs() < 1e-9);
    }
}
