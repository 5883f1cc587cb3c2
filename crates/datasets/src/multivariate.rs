//! Multivariate series generation for the sensor-fusion extension
//! (paper §6: "Many real-world use cases capture processes with a
//! multitude of sensors, where temporal patterns are distributed across
//! various channels").
//!
//! A multivariate series shares one latent state sequence across channels;
//! each channel renders the states with its own regime pool, and a
//! configurable subset of channels is "uninformative" (pure noise),
//! modelling broken or irrelevant sensors.

use crate::regimes::Regime;
use crate::series::{random_segment_lengths, AnnotatedSeries};
use class_core::stats::SplitMix64;

/// A multivariate annotated series: channel-major values plus the shared
/// ground-truth change points. Produced by the synthetic generator below
/// or loaded from real WFDB / wide-CSV archive files
/// (`crate::load_multivariate_file`).
#[derive(Debug, Clone)]
pub struct MultivariateSeries {
    /// Identifier.
    pub name: String,
    /// `channels[c][t]` is channel `c` at time `t`.
    pub channels: Vec<Vec<f64>>,
    /// Shared ground-truth change points.
    pub change_points: Vec<u64>,
    /// Representative temporal pattern width.
    pub width: usize,
    /// Indices of the informative channels (the rest are noise). Loaded
    /// real archives mark every channel informative — which sensors carry
    /// the pattern is unknown for real recordings.
    pub informative: Vec<usize>,
    /// Name of the source archive (`"synthetic"` for generated series).
    pub archive: &'static str,
}

impl MultivariateSeries {
    /// Series length.
    pub fn len(&self) -> usize {
        self.channels.first().map_or(0, Vec::len)
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// The observation vector at time `t` (allocates; for tight loops index
    /// `channels` directly).
    pub fn row(&self, t: usize) -> Vec<f64> {
        self.channels.iter().map(|c| c[t]).collect()
    }

    /// Extracts every channel as its own addressable univariate series —
    /// the paper's Table 3 protocol scores each channel of a multivariate
    /// record separately. Channel `c` becomes `<name>/ch<c>`, keeping the
    /// record's shared change points, width and archive provenance.
    pub fn extract_channels(&self) -> Vec<AnnotatedSeries> {
        self.channels
            .iter()
            .enumerate()
            .map(|(c, values)| AnnotatedSeries {
                name: format!("{}/ch{c}", self.name),
                values: values.clone(),
                change_points: self.change_points.clone(),
                width: self.width,
                archive: self.archive,
            })
            .collect()
    }
}

/// Configuration of the multivariate generator.
#[derive(Debug, Clone, Copy)]
pub struct MultivariateSpec {
    /// Total number of channels.
    pub n_channels: usize,
    /// How many of them carry the shared state changes.
    pub n_informative: usize,
    /// Series length.
    pub len: usize,
    /// Number of segments.
    pub n_segments: usize,
    /// Additive noise sigma on informative channels.
    pub noise: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for MultivariateSpec {
    fn default() -> Self {
        Self {
            n_channels: 4,
            n_informative: 3,
            len: 12_000,
            n_segments: 4,
            noise: 0.08,
            seed: 7,
        }
    }
}

/// Generates a multivariate series with shared change points.
///
/// # Panics
/// Panics if `n_informative > n_channels` or either is zero.
pub fn generate_multivariate(spec: &MultivariateSpec) -> MultivariateSeries {
    assert!(spec.n_channels >= 1 && spec.n_informative >= 1);
    assert!(spec.n_informative <= spec.n_channels);
    let mut rng = SplitMix64::new(spec.seed);
    // Shared latent state layout.
    let min_seg = (spec.len / (4 * spec.n_segments).max(1)).max(300);
    let lens = random_segment_lengths(spec.len, spec.n_segments, min_seg, &mut rng);
    let mut change_points = Vec::new();
    let mut acc = 0u64;
    for l in &lens[..lens.len() - 1] {
        acc += *l as u64;
        change_points.push(acc);
    }
    // Pick informative channel indices deterministically.
    let mut informative: Vec<usize> = (0..spec.n_channels).collect();
    for i in (1..informative.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        informative.swap(i, j);
    }
    informative.truncate(spec.n_informative);
    informative.sort_unstable();

    // Per-channel rendering: informative channels assign a distinct regime
    // per latent state; noise channels ignore the states.
    let base_period = 20.0 + rng.next_f64() * 30.0;
    let mut channels = Vec::with_capacity(spec.n_channels);
    for c in 0..spec.n_channels {
        let mut chan_rng = SplitMix64::new(spec.seed ^ (c as u64 + 1).wrapping_mul(0x9E37));
        let mut values = Vec::with_capacity(spec.len);
        if informative.contains(&c) {
            // A fixed regime per latent state, distinct within the channel.
            let phase = chan_rng.next_f64() * core::f64::consts::PI;
            for (state, &seg_len) in lens.iter().enumerate() {
                let f = 1.0 + 0.55 * state as f64;
                let regime = if state % 2 == 0 {
                    Regime::Sine {
                        period: base_period / f,
                        amp: 1.0,
                        phase,
                    }
                } else {
                    Regime::Harmonics {
                        period: base_period * 1.3 / f,
                        amps: [1.0, 0.4, 0.2],
                    }
                };
                regime.generate_into(seg_len, &mut chan_rng, &mut values);
            }
            for v in &mut values {
                *v += spec.noise * chan_rng.gaussian();
            }
        } else {
            for _ in 0..spec.len {
                values.push(chan_rng.gaussian() * 0.5);
            }
        }
        channels.push(values);
    }
    let width = base_period.round() as usize;
    MultivariateSeries {
        name: format!("mv/{:x}", spec.seed),
        channels,
        change_points,
        width,
        informative,
        archive: "synthetic",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let spec = MultivariateSpec::default();
        let mv = generate_multivariate(&spec);
        assert_eq!(mv.n_channels(), 4);
        assert_eq!(mv.len(), 12_000);
        assert_eq!(mv.change_points.len(), 3);
        assert_eq!(mv.informative.len(), 3);
        assert!(!mv.is_empty());
        assert_eq!(mv.row(0).len(), 4);
        for c in &mv.channels {
            assert!(c.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = MultivariateSpec::default();
        let a = generate_multivariate(&spec);
        let b = generate_multivariate(&spec);
        assert_eq!(a.channels, b.channels);
        assert_eq!(a.change_points, b.change_points);
    }

    #[test]
    fn noise_channels_carry_no_structure() {
        let spec = MultivariateSpec {
            n_channels: 3,
            n_informative: 1,
            ..Default::default()
        };
        let mv = generate_multivariate(&spec);
        for c in 0..mv.n_channels() {
            if mv.informative.contains(&c) {
                continue;
            }
            // No autocorrelation structure: lag-1 correlation near zero.
            let xs = &mv.channels[c];
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var: f64 = xs.iter().map(|v| (v - mean) * (v - mean)).sum();
            let cov: f64 = xs.windows(2).map(|p| (p[0] - mean) * (p[1] - mean)).sum();
            assert!((cov / var).abs() < 0.05, "channel {c} is structured");
        }
    }

    #[test]
    fn informative_channels_change_at_the_boundaries() {
        let spec = MultivariateSpec {
            seed: 11,
            ..Default::default()
        };
        let mv = generate_multivariate(&spec);
        for &c in &mv.informative {
            for &cp in &mv.change_points {
                let cp = cp as usize;
                let w = 500.min(cp).min(mv.len() - cp);
                let ce = |xs: &[f64]| -> f64 {
                    xs.windows(2)
                        .map(|p| (p[1] - p[0]) * (p[1] - p[0]))
                        .sum::<f64>()
                        / xs.len() as f64
                };
                let left = ce(&mv.channels[c][cp - w..cp]);
                let right = ce(&mv.channels[c][cp..cp + w]);
                let ratio = (left / right.max(1e-12)).max(right / left.max(1e-12));
                assert!(
                    ratio > 1.1,
                    "channel {c} flat across cp {cp}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn extract_channels_yields_addressable_univariate_series() {
        let mv = generate_multivariate(&MultivariateSpec::default());
        let channels = mv.extract_channels();
        assert_eq!(channels.len(), mv.n_channels());
        for (c, s) in channels.iter().enumerate() {
            assert_eq!(s.name, format!("{}/ch{c}", mv.name));
            assert_eq!(s.values, mv.channels[c]);
            assert_eq!(s.change_points, mv.change_points);
            assert_eq!(s.width, mv.width);
            assert_eq!(s.archive, mv.archive);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_more_informative_than_channels() {
        let spec = MultivariateSpec {
            n_channels: 2,
            n_informative: 3,
            ..Default::default()
        };
        let _ = generate_multivariate(&spec);
    }
}
