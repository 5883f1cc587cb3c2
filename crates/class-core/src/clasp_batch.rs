//! Batch ClaSP (paper §2.2) built on the streaming primitives.
//!
//! When the sliding window spans the entire series (`d = n`), nothing is
//! ever evicted and the insert-only neighbour maintenance of the streaming
//! k-NN considers every admissible subsequence pair exactly once — i.e. it
//! produces the *exact* batch k-NN. Batch ClaSP is therefore a thin wrapper:
//! one pass to build the k-NN, one incremental cross-validation sweep for
//! the profile, and (for segmentation) recursive splitting with the same
//! significance test ClaSS uses online. This also backs the paper's remark
//! that ClaSS "can also be used for very long TS in the batch scenario".

use crate::crossval::{CrossVal, ScoreFn};
use crate::knn::{KnnConfig, StreamingKnn};
use crate::similarity::Similarity;
use crate::stats::{significance_ln_p, SampleSize, SplitMix64};

/// Configuration for batch ClaSP.
#[derive(Debug, Clone)]
pub struct ClaspConfig {
    /// Subsequence width `w`.
    pub width: usize,
    /// Number of nearest neighbours (default 3).
    pub k: usize,
    /// Similarity measure (default Pearson).
    pub similarity: Similarity,
    /// Split score (default macro F1).
    pub score: ScoreFn,
    /// Significance level as `log10(alpha)` for recursive segmentation.
    pub log10_alpha: f64,
    /// Label sample size for the significance test.
    pub sample_size: SampleSize,
    /// Minimum segment length as a multiple of `w`.
    pub cp_margin_factor: f64,
    /// Minimum cross-validation score for a split to qualify as a CP.
    pub min_score: f64,
    /// RNG seed for the resampled significance test.
    pub seed: u64,
}

impl ClaspConfig {
    /// Paper-default configuration for a given width.
    pub fn new(width: usize) -> Self {
        Self {
            width,
            k: 3,
            similarity: Similarity::Pearson,
            score: ScoreFn::MacroF1,
            log10_alpha: -50.0,
            sample_size: SampleSize::Fixed1000,
            cp_margin_factor: 5.0,
            min_score: 0.75,
            seed: 0x5EED,
        }
    }
}

/// Computes the full classification score profile of `ts` (Definition 6).
///
/// `profile[p]` scores the split placing subsequences `0..p` left; the
/// profile has `n - w + 1` entries (entry 0 is 0 by convention).
///
/// The exact k-NN pass costs O(n) per arriving point, O(n^2) in all, as
/// any exact all-pairs method does; the cross-validation on top of it is
/// one O(k·n) sweep, where the original formulation pays O(n) per split
/// and O(n^2) per profile.
pub fn clasp_profile(ts: &[f64], cfg: &ClaspConfig) -> Vec<f64> {
    cross_validate(ts, cfg).profile().to_vec()
}

/// Builds the exact k-NN of `ts` and cross-validates every split on it;
/// the returned engine holds the profile and the label groups per split.
fn cross_validate(ts: &[f64], cfg: &ClaspConfig) -> CrossVal {
    let n = ts.len();
    assert!(
        cfg.width >= 2 && n >= 2 * cfg.width,
        "series too short for width {}",
        cfg.width
    );
    let knn_cfg = KnnConfig {
        window_size: n,
        width: cfg.width,
        k: cfg.k,
        similarity: cfg.similarity,
        exclusion: None,
        update_existing: true,
    };
    let mut knn = StreamingKnn::new(knn_cfg);
    for &x in ts {
        knn.update(x);
    }
    let mut cv = CrossVal::new(cfg.score);
    cv.compute(&knn, knn.qstart());
    cv
}

/// Recursive batch segmentation with ClaSP: finds the most significant
/// split, then recurses into both halves (the standard batch ClaSP
/// procedure). Returns change point positions in ascending order.
pub fn clasp_segment(ts: &[f64], cfg: &ClaspConfig) -> Vec<usize> {
    let mut cps = Vec::new();
    let margin = ((cfg.cp_margin_factor * cfg.width as f64) as usize).max(2);
    let mut rng = SplitMix64::new(cfg.seed);
    segment_rec(ts, cfg, 0, margin, &mut rng, &mut cps);
    cps.sort_unstable();
    cps
}

fn segment_rec(
    ts: &[f64],
    cfg: &ClaspConfig,
    offset: usize,
    margin: usize,
    rng: &mut SplitMix64,
    cps: &mut Vec<usize>,
) {
    let n = ts.len();
    if n < 2 * cfg.width || n < 2 * margin + 2 + cfg.width {
        return;
    }
    let mut cv = cross_validate(ts, cfg);
    let Some((best_p, _)) = cv.peak(margin, cfg.min_score) else {
        return;
    };
    let ln_p = significance_ln_p(cv.groups_at(best_p), cfg.sample_size, rng);
    if ln_p > cfg.log10_alpha * core::f64::consts::LN_10 {
        return;
    }
    let cp = best_p; // split position in local coordinates (subsequence start)
    cps.push(offset + cp);
    segment_rec(&ts[..cp], cfg, offset, margin, rng, cps);
    segment_rec(&ts[cp..], cfg, offset + cp, margin, rng, cps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SplitMix64;

    fn regimes(lens: &[usize], freqs: &[f64], seed: u64) -> (Vec<f64>, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let mut xs = Vec::new();
        let mut cps = Vec::new();
        for (i, (&len, &f)) in lens.iter().zip(freqs).enumerate() {
            if i > 0 {
                cps.push(xs.len());
            }
            for t in 0..len {
                xs.push((t as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5));
            }
        }
        (xs, cps)
    }

    #[test]
    fn profile_peaks_at_change_point() {
        let (xs, cps) = regimes(&[1500, 1500], &[0.15, 0.4], 1);
        let cfg = ClaspConfig::new(40);
        let profile = clasp_profile(&xs, &cfg);
        let margin = 200;
        let best = (margin..profile.len() - margin)
            .max_by(|&a, &b| profile[a].partial_cmp(&profile[b]).unwrap())
            .unwrap();
        assert!(
            (best as i64 - cps[0] as i64).unsigned_abs() < 200,
            "peak at {best}, cp at {}",
            cps[0]
        );
    }

    #[test]
    fn segment_recovers_two_change_points() {
        let (xs, cps) = regimes(&[2000, 2000, 2000], &[0.12, 0.35, 0.7], 2);
        let mut cfg = ClaspConfig::new(45);
        cfg.log10_alpha = -15.0;
        let found = clasp_segment(&xs, &cfg);
        for &want in &cps {
            assert!(
                found
                    .iter()
                    .any(|&f| (f as i64 - want as i64).unsigned_abs() < 300),
                "missing cp near {want}: {found:?}"
            );
        }
    }

    #[test]
    fn segment_returns_empty_on_homogeneous_series() {
        let (xs, _) = regimes(&[4000], &[0.2], 3);
        let mut cfg = ClaspConfig::new(40);
        cfg.log10_alpha = -15.0;
        let found = clasp_segment(&xs, &cfg);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    #[should_panic]
    fn profile_rejects_too_short_series() {
        let xs = vec![0.0; 30];
        let cfg = ClaspConfig::new(20);
        let _ = clasp_profile(&xs, &cfg);
    }
}
