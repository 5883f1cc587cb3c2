//! Subsequence (dis-)similarity measures for the streaming k-NN.
//!
//! The paper (§3.1) uses Pearson correlation by default and notes that the
//! streaming k-NN "can easily be adapted to (dis-)similarity functions that
//! can be expressed with dot products, such as (complexity-invariant)
//! Euclidean distance". All three measures below are computed in O(1) per
//! candidate pair from the same maintained state (dot product `q`, running
//! mean/std/sum-of-squares, and complexity estimate).

/// Similarity measure used to rank k-nearest neighbours.
///
/// Internally every measure is mapped to a *score* where **greater means
/// more similar**, so the k-NN search is always an arg-k-max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Similarity {
    /// Pearson correlation between the two z-normalised subsequences
    /// (paper default, Eq. 4).
    #[default]
    Pearson,
    /// Raw (non-normalised) Euclidean distance, expressed through dot
    /// products: `ed^2 = ||a||^2 + ||b||^2 - 2 a·b`.
    Euclidean,
    /// Complexity-invariant distance (Batista et al.):
    /// `CID(a, b) = ED(a, b) * max(CE(a), CE(b)) / min(CE(a), CE(b))`
    /// where `CE(x) = sqrt(sum_i (x_{i+1} - x_i)^2)`.
    Cid,
}

impl Similarity {
    /// Short lowercase identifier, used by benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Similarity::Pearson => "pearson",
            Similarity::Euclidean => "euclidean",
            Similarity::Cid => "cid",
        }
    }
}

/// Guard against division by ~zero for flat subsequences.
pub(crate) const SIGMA_FLOOR: f64 = 1e-8;

/// Floor on the complexity estimate of the CID correction factor, guarding
/// the division for flat subsequences.
pub(crate) const CE_FLOOR: f64 = 1e-12;

/// Pearson correlation from a dot product and per-subsequence moments
/// (paper Eq. 4). Degenerate (flat) subsequences yield a correlation of 0,
/// and the result is clamped into `[-1, 1]` for numerical robustness (NaN
/// stays NaN). Branch-free: the correlation is computed, then selected,
/// so a loop over slots vectorizes.
#[inline]
pub(crate) fn pearson_from_dot(
    dot: f64,
    w: f64,
    mu_a: f64,
    sig_a: f64,
    mu_b: f64,
    sig_b: f64,
) -> f64 {
    let c = ((dot - w * mu_a * mu_b) / (w * sig_a * sig_b)).clamp(-1.0, 1.0);
    if (sig_a < SIGMA_FLOOR) | (sig_b < SIGMA_FLOOR) {
        0.0
    } else {
        c
    }
}

/// Squared Euclidean distance from a dot product and per-subsequence sums of
/// squares. Clamped at zero to absorb floating-point cancellation; NaN is
/// preserved (a dirty window must propagate, not fabricate distance-0
/// neighbours — `f64::max` would swallow the NaN).
#[inline]
pub(crate) fn sq_euclidean_from_dot(dot: f64, ssq_a: f64, ssq_b: f64) -> f64 {
    let ed2 = ssq_a + ssq_b - 2.0 * dot;
    if ed2 < 0.0 {
        0.0
    } else {
        ed2
    }
}

/// Squared complexity-invariant distance. Works on squared quantities so no
/// square roots are needed in the hot loop (the ranking is unchanged because
/// `x -> x^2` is monotone on non-negative values).
#[inline]
pub(crate) fn sq_cid_from_dot(dot: f64, ssq_a: f64, ssq_b: f64, ce2_a: f64, ce2_b: f64) -> f64 {
    let ed2 = sq_euclidean_from_dot(dot, ssq_a, ssq_b);
    // Ordered compare: a NaN `ce2_a` becomes `lo`.
    let a_hi = ce2_a >= ce2_b;
    let hi = if a_hi { ce2_a } else { ce2_b };
    let lo = if a_hi { ce2_b } else { ce2_a };
    let cf2 = hi / lo.max(CE_FLOOR);
    ed2 * cf2
}

/// Naive reference implementations, used by tests and benchmarks to validate
/// the streaming O(1)-per-pair computations.
pub mod naive {
    /// Pearson correlation of two equal-length slices (0 if either is flat).
    pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        let n = a.len() as f64;
        let mu_a = a.iter().sum::<f64>() / n;
        let mu_b = b.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            cov += (x - mu_a) * (y - mu_b);
            va += (x - mu_a) * (x - mu_a);
            vb += (y - mu_b) * (y - mu_b);
        }
        let denom = (va * vb).sqrt();
        if denom < 1e-12 {
            0.0
        } else {
            (cov / denom).clamp(-1.0, 1.0)
        }
    }

    /// Squared Euclidean distance of two equal-length slices.
    pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
    }

    /// Squared complexity estimate `CE(x)^2` of a slice.
    pub fn ce2(a: &[f64]) -> f64 {
        a.windows(2).map(|p| (p[1] - p[0]) * (p[1] - p[0])).sum()
    }

    /// Squared complexity-invariant distance of two equal-length slices.
    pub fn sq_cid(a: &[f64], b: &[f64]) -> f64 {
        let ed2 = sq_euclidean(a, b);
        let (ca, cb) = (ce2(a), ce2(b));
        let (hi, lo) = if ca >= cb { (ca, cb) } else { (cb, ca) };
        ed2 * hi / lo.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn moments(a: &[f64]) -> (f64, f64, f64) {
        let n = a.len() as f64;
        let mu = a.iter().sum::<f64>() / n;
        let ssq = a.iter().map(|x| x * x).sum::<f64>();
        let var = (ssq / n - mu * mu).max(0.0);
        (mu, var.sqrt(), ssq)
    }

    #[test]
    fn pearson_matches_naive() {
        let a = [1.0, 2.0, 4.5, -3.0, 0.5, 2.5];
        let b = [0.3, -1.0, 2.0, 5.0, 1.5, -0.5];
        let (mu_a, sig_a, _) = moments(&a);
        let (mu_b, sig_b, _) = moments(&b);
        let got = pearson_from_dot(dot(&a, &b), a.len() as f64, mu_a, sig_a, mu_b, sig_b);
        let want = naive::pearson(&a, &b);
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn pearson_flat_subsequence_is_zero() {
        let a = [3.0; 5];
        let b = [0.0, 1.0, 2.0, 3.0, 4.0];
        let (mu_a, sig_a, _) = moments(&a);
        let (mu_b, sig_b, _) = moments(&b);
        let got = pearson_from_dot(dot(&a, &b), 5.0, mu_a, sig_a, mu_b, sig_b);
        assert_eq!(got, 0.0);
    }

    #[test]
    fn pearson_self_correlation_is_one() {
        let a = [1.0, -2.0, 3.0, 0.0, 5.0];
        let (mu, sig, _) = moments(&a);
        let got = pearson_from_dot(dot(&a, &a), 5.0, mu, sig, mu, sig);
        assert!((got - 1.0).abs() < 1e-10);
    }

    #[test]
    fn euclidean_matches_naive() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 0.0, 3.5, -1.0];
        let (_, _, ssq_a) = moments(&a);
        let (_, _, ssq_b) = moments(&b);
        let got = sq_euclidean_from_dot(dot(&a, &b), ssq_a, ssq_b);
        assert!((got - naive::sq_euclidean(&a, &b)).abs() < 1e-10);
    }

    #[test]
    fn cid_matches_naive() {
        let a = [1.0, 2.0, 1.0, 2.0, 1.0];
        let b = [0.0, 4.0, -4.0, 4.0, 0.0];
        let (_, _, ssq_a) = moments(&a);
        let (_, _, ssq_b) = moments(&b);
        let got = sq_cid_from_dot(dot(&a, &b), ssq_a, ssq_b, naive::ce2(&a), naive::ce2(&b));
        assert!((got - naive::sq_cid(&a, &b)).abs() < 1e-9);
    }

    #[test]
    fn cid_penalises_complexity_mismatch() {
        // Same Euclidean distance, but one pair differs strongly in
        // complexity -> larger CID.
        let smooth = [0.0, 0.1, 0.2, 0.3, 0.4];
        let jagged = [0.0, 1.0, -1.0, 1.0, -1.0];
        let flatish = [0.1, 0.2, 0.3, 0.4, 0.5];
        let d_similar = naive::sq_cid(&smooth, &flatish);
        let d_mismatch = naive::sq_cid(&smooth, &jagged);
        assert!(d_mismatch > d_similar);
    }
}
