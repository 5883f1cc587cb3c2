//! Statistical machinery for change point validation (paper §3.3).
//!
//! ClaSS validates the global maximum of the classification score profile
//! with a two-sided Wilcoxon rank-sum test on the predicted cross-validation
//! labels left and right of the candidate split. Because the labels are
//! binary, the rank-sum statistic has a closed form in the four group/label
//! counts, and the heavy tie correction is exact. Significance levels as
//! extreme as 1e-100 are supported by working with the *logarithm* of the
//! p-value (the asymptotic expansion of the normal tail), so no f64
//! underflow can occur.

/// Deterministic SplitMix64 RNG. Small, fast, and dependency-free; used for
/// the label resampling of the significance test so that runs are exactly
/// reproducible from a seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample (Box-Muller, cosine branch): draws two
    /// uniforms, the first clamped away from zero.
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for our n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Number of successes among `n` Bernoulli(p) draws.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mut successes = 0;
        for _ in 0..n {
            if self.next_f64() < p {
                successes += 1;
            }
        }
        successes
    }
}

/// Natural logarithm of the standard normal survival function `P(Z > z)`.
///
/// Exact via `erfc` for moderate `z`; for `z > 12` the asymptotic expansion
/// `ln P = -z^2/2 - ln(z sqrt(2 pi)) + ln(1 - 1/z^2 + 3/z^4 - ...)` is used,
/// which stays accurate far beyond the range where `erfc` underflows.
pub fn ln_normal_sf(z: f64) -> f64 {
    if z.is_nan() {
        return f64::NAN;
    }
    if z < -8.0 {
        // Survival probability is essentially 1; ln(1 - tiny) ~ -tiny.
        return (-ln_normal_sf(-z).exp()).ln_1p();
    }
    if z <= 12.0 {
        let p = 0.5 * erfc(z / core::f64::consts::SQRT_2);
        return p.max(f64::MIN_POSITIVE).ln();
    }
    let z2 = z * z;
    // Asymptotic series for Mills ratio; 4 terms are ample for z > 12.
    let series = 1.0 - 1.0 / z2 + 3.0 / (z2 * z2) - 15.0 / (z2 * z2 * z2);
    -0.5 * z2 - (z * (2.0 * core::f64::consts::PI).sqrt()).ln() + series.ln()
}

/// Complementary error function (Numerical Recipes' rational Chebyshev
/// approximation, |error| < 1.2e-7 which is far below our decision noise).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Counts describing two groups of binary labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryGroups {
    /// Size of the left group.
    pub n_left: u64,
    /// Number of 1-labels in the left group.
    pub ones_left: u64,
    /// Size of the right group.
    pub n_right: u64,
    /// Number of 1-labels in the right group.
    pub ones_right: u64,
}

impl BinaryGroups {
    /// Total number of labels.
    pub fn total(&self) -> u64 {
        self.n_left + self.n_right
    }
}

/// Natural log of the two-sided p-value of the Wilcoxon rank-sum test for
/// two groups of binary labels, using the normal approximation with exact
/// tie correction. Returns `0.0` (p = 1) for degenerate inputs (empty
/// group, or all labels identical).
pub fn ln_p_ranksum_binary(g: BinaryGroups) -> f64 {
    let n1 = g.n_left as f64;
    let n2 = g.n_right as f64;
    let n = n1 + n2;
    if g.n_left == 0 || g.n_right == 0 {
        return 0.0;
    }
    let ones = (g.ones_left + g.ones_right) as f64;
    let zeros = n - ones;
    if ones == 0.0 || zeros == 0.0 {
        return 0.0; // no variation in labels
    }
    // Average ranks: all zeros tie at (zeros + 1)/2, all ones tie at
    // zeros + (ones + 1)/2.
    let rank_zero = (zeros + 1.0) / 2.0;
    let rank_one = zeros + (ones + 1.0) / 2.0;
    let zeros_left = n1 - g.ones_left as f64;
    let w1 = zeros_left * rank_zero + g.ones_left as f64 * rank_one;
    let mean_w1 = n1 * (n + 1.0) / 2.0;
    // Tie correction: sum over tie groups of (t^3 - t).
    let tie = (zeros * zeros * zeros - zeros) + (ones * ones * ones - ones);
    let var = n1 * n2 / 12.0 * ((n + 1.0) - tie / (n * (n - 1.0)));
    if var <= 0.0 {
        return 0.0;
    }
    let z = (w1 - mean_w1).abs() / var.sqrt();
    // Two-sided: p = 2 * P(Z > z), capped at 1.
    (core::f64::consts::LN_2 + ln_normal_sf(z)).min(0.0)
}

/// How many labels the significance test resamples (paper §3.3 / §4.2 f-g).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleSize {
    /// Use the full, variable-size label configuration (no resampling).
    Variable,
    /// Resample this many labels with replacement, preserving the group
    /// proportions and each group's label distribution. The paper's default
    /// is 1000.
    #[default]
    Fixed1000,
    /// Resample an arbitrary number of labels (for the ablation study).
    Fixed(u64),
}

impl SampleSize {
    /// Numeric sample size, if fixed.
    pub fn fixed(self) -> Option<u64> {
        match self {
            SampleSize::Variable => None,
            SampleSize::Fixed1000 => Some(1000),
            SampleSize::Fixed(n) => Some(n),
        }
    }

    /// Identifier for benchmark output.
    pub fn name(self) -> String {
        match self {
            SampleSize::Variable => "variable".to_string(),
            SampleSize::Fixed1000 => "1000".to_string(),
            SampleSize::Fixed(n) => n.to_string(),
        }
    }
}

/// Resamples the two binary groups down (or up) to `target` total labels
/// with replacement, keeping the group size proportions and, in
/// expectation, each group's class distribution (paper §3.3: "1k labels are
/// randomly chosen with replacement from the cross-validation labels,
/// maintaining the class distribution").
pub fn resample_groups(g: BinaryGroups, target: u64, rng: &mut SplitMix64) -> BinaryGroups {
    let total = g.total();
    if total == 0 || target == 0 {
        return BinaryGroups {
            n_left: 0,
            ones_left: 0,
            n_right: 0,
            ones_right: 0,
        };
    }
    let n_left = ((g.n_left as u128 * target as u128 + total as u128 / 2) / total as u128) as u64;
    let n_left = n_left.min(target);
    let n_right = target - n_left;
    let p_left = if g.n_left > 0 {
        g.ones_left as f64 / g.n_left as f64
    } else {
        0.0
    };
    let p_right = if g.n_right > 0 {
        g.ones_right as f64 / g.n_right as f64
    } else {
        0.0
    };
    BinaryGroups {
        n_left,
        ones_left: rng.binomial(n_left, p_left),
        n_right,
        ones_right: rng.binomial(n_right, p_right),
    }
}

/// Significance decision for a candidate change point: resamples the label
/// groups (if configured) and compares the rank-sum log p-value against
/// `ln(alpha)`. Returns the log p-value actually used.
pub fn significance_ln_p(g: BinaryGroups, sample: SampleSize, rng: &mut SplitMix64) -> f64 {
    match sample.fixed() {
        None => ln_p_ranksum_binary(g),
        Some(target) => ln_p_ranksum_binary(resample_groups(g, target, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn splitmix_below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn binomial_edge_probabilities() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(rng.binomial(100, 0.0), 0);
        assert_eq!(rng.binomial(100, 1.0), 100);
        let k = rng.binomial(10_000, 0.5);
        assert!((4000..6000).contains(&k), "k = {k}");
    }

    #[test]
    fn ln_normal_sf_matches_known_values() {
        // P(Z > 0) = 0.5
        assert!((ln_normal_sf(0.0) - 0.5f64.ln()).abs() < 1e-7);
        // P(Z > 1.96) ~ 0.0249979
        assert!((ln_normal_sf(1.96) - 0.0249979f64.ln()).abs() < 1e-4);
        // P(Z > 6) ~ 9.8659e-10
        assert!((ln_normal_sf(6.0) - 9.8659e-10f64.ln()).abs() < 1e-3);
    }

    #[test]
    fn ln_normal_sf_extreme_tail_is_finite_and_monotone() {
        let mut prev = ln_normal_sf(10.0);
        for z in [12.0, 15.0, 20.0, 30.0, 50.0, 100.0] {
            let v = ln_normal_sf(z);
            assert!(v.is_finite(), "z = {z}");
            assert!(v < prev, "not monotone at z = {z}");
            prev = v;
        }
        // ln P(Z > 20) ~ -0.5*400 - ln(20 sqrt(2pi)) ~ -203.9
        let v = ln_normal_sf(20.0);
        assert!((-205.0..-202.0).contains(&v), "v = {v}");
    }

    #[test]
    fn ranksum_identical_groups_not_significant() {
        let g = BinaryGroups {
            n_left: 500,
            ones_left: 250,
            n_right: 500,
            ones_right: 250,
        };
        let lp = ln_p_ranksum_binary(g);
        assert!(lp > (0.9f64).ln(), "lp = {lp}");
    }

    #[test]
    fn ranksum_separated_groups_highly_significant() {
        let g = BinaryGroups {
            n_left: 500,
            ones_left: 25,
            n_right: 500,
            ones_right: 475,
        };
        let lp = ln_p_ranksum_binary(g);
        assert!(lp < (1e-50f64).ln(), "lp = {lp}");
    }

    #[test]
    fn ranksum_degenerate_inputs_give_p_one() {
        assert_eq!(
            ln_p_ranksum_binary(BinaryGroups {
                n_left: 0,
                ones_left: 0,
                n_right: 10,
                ones_right: 5
            }),
            0.0
        );
        assert_eq!(
            ln_p_ranksum_binary(BinaryGroups {
                n_left: 10,
                ones_left: 10,
                n_right: 10,
                ones_right: 10
            }),
            0.0
        );
        assert_eq!(
            ln_p_ranksum_binary(BinaryGroups {
                n_left: 10,
                ones_left: 0,
                n_right: 10,
                ones_right: 0
            }),
            0.0
        );
    }

    #[test]
    fn ranksum_is_symmetric_in_groups() {
        let a = BinaryGroups {
            n_left: 300,
            ones_left: 30,
            n_right: 200,
            ones_right: 150,
        };
        let b = BinaryGroups {
            n_left: 200,
            ones_left: 150,
            n_right: 300,
            ones_right: 30,
        };
        assert!((ln_p_ranksum_binary(a) - ln_p_ranksum_binary(b)).abs() < 1e-9);
    }

    #[test]
    fn ranksum_more_data_more_significant() {
        let small = BinaryGroups {
            n_left: 50,
            ones_left: 10,
            n_right: 50,
            ones_right: 40,
        };
        let large = BinaryGroups {
            n_left: 5000,
            ones_left: 1000,
            n_right: 5000,
            ones_right: 4000,
        };
        assert!(ln_p_ranksum_binary(large) < ln_p_ranksum_binary(small));
    }

    #[test]
    fn resampling_caps_sample_size_bias() {
        // Same proportions, wildly different sizes: after resampling to 1000
        // the log p-values should be of comparable magnitude.
        let mut rng = SplitMix64::new(9);
        let small = BinaryGroups {
            n_left: 600,
            ones_left: 120,
            n_right: 400,
            ones_right: 320,
        };
        let large = BinaryGroups {
            n_left: 60_000,
            ones_left: 12_000,
            n_right: 40_000,
            ones_right: 32_000,
        };
        let lp_small = significance_ln_p(small, SampleSize::Fixed1000, &mut rng);
        let lp_large = significance_ln_p(large, SampleSize::Fixed1000, &mut rng);
        let ratio = lp_small / lp_large;
        assert!((0.4..2.5).contains(&ratio), "ratio = {ratio}");
        // While without resampling the larger sample is vastly more extreme.
        let lp_small_v = ln_p_ranksum_binary(small);
        let lp_large_v = ln_p_ranksum_binary(large);
        assert!(lp_large_v < 10.0 * lp_small_v);
    }

    #[test]
    fn resample_preserves_proportions_roughly() {
        let mut rng = SplitMix64::new(11);
        let g = BinaryGroups {
            n_left: 800,
            ones_left: 80,
            n_right: 200,
            ones_right: 180,
        };
        let r = resample_groups(g, 1000, &mut rng);
        assert_eq!(r.total(), 1000);
        assert_eq!(r.n_left, 800);
        assert!((r.ones_left as f64 - 80.0).abs() < 40.0);
        assert!((r.ones_right as f64 - 180.0).abs() < 30.0);
    }

    #[test]
    fn sample_size_names() {
        assert_eq!(SampleSize::Variable.name(), "variable");
        assert_eq!(SampleSize::Fixed1000.name(), "1000");
        assert_eq!(SampleSize::Fixed(10).name(), "10");
        assert_eq!(SampleSize::Fixed(10).fixed(), Some(10));
        assert_eq!(SampleSize::Variable.fixed(), None);
    }
}
