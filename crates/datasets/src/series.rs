//! Annotated series assembly: regimes + segment layout + noise/artefacts.

use crate::regimes::Regime;
use class_core::stats::SplitMix64;

/// A generated univariate time series with ground-truth annotations, the
/// unit of every experiment in the paper.
#[derive(Debug, Clone)]
pub struct AnnotatedSeries {
    /// Stable identifier, e.g. `tssb/017`.
    pub name: String,
    /// The signal.
    pub values: Vec<f64>,
    /// Ground-truth change points (segment starts, ascending; the paper's
    /// convention counts the first observation as a change point — it is
    /// *not* included here, matching how Covering treats boundaries).
    pub change_points: Vec<u64>,
    /// Annotated temporal pattern width (granted to FLOSS/Window, §4.1).
    pub width: usize,
    /// Name of the source archive (one of Table 1's rows).
    pub archive: &'static str,
}

impl AnnotatedSeries {
    /// Number of segments (change points + 1).
    pub fn n_segments(&self) -> usize {
        self.change_points.len() + 1
    }

    /// Series length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Noise and artefact model applied on top of the clean regime signal
/// (the data archives contain "raw sensor signals ... with ambiguities,
/// anomalies and signal noise", §4.3).
#[derive(Debug, Clone, Copy)]
pub struct NoiseSpec {
    /// Additive white noise standard deviation.
    pub sigma: f64,
    /// Probability of a spike artefact per sample.
    pub spike_prob: f64,
    /// Spike magnitude (multiplied by a random sign and scale).
    pub spike_amp: f64,
    /// Linear drift over the whole series (total level change).
    pub drift: f64,
}

impl NoiseSpec {
    /// Clean benchmark-style noise.
    pub fn benchmark() -> Self {
        Self {
            sigma: 0.05,
            spike_prob: 0.0,
            spike_amp: 0.0,
            drift: 0.0,
        }
    }

    /// Raw-sensor archive noise with artefacts.
    pub fn archive() -> Self {
        Self {
            sigma: 0.12,
            spike_prob: 0.0008,
            spike_amp: 4.0,
            drift: 0.4,
        }
    }
}

/// Builds an [`AnnotatedSeries`] from an ordered list of `(regime, length)`
/// segments plus a noise specification.
pub fn build_series(
    name: String,
    archive: &'static str,
    segments: &[(Regime, usize)],
    noise: NoiseSpec,
    seed: u64,
) -> AnnotatedSeries {
    let mut rng = SplitMix64::new(seed);
    let total: usize = segments.iter().map(|(_, l)| l).sum();
    let mut values = Vec::with_capacity(total);
    let mut change_points = Vec::with_capacity(segments.len().saturating_sub(1));
    for (i, (regime, len)) in segments.iter().enumerate() {
        if i > 0 {
            change_points.push(values.len() as u64);
        }
        regime.generate_into(*len, &mut rng, &mut values);
    }
    // Additive noise, drift and spikes.
    let n = values.len().max(1) as f64;
    for (t, v) in values.iter_mut().enumerate() {
        *v += noise.sigma * rng.gaussian();
        *v += noise.drift * (t as f64 / n - 0.5);
        if noise.spike_prob > 0.0 && rng.next_f64() < noise.spike_prob {
            *v += noise.spike_amp * (rng.next_f64() - 0.5) * 2.0;
        }
    }
    // Annotated width: median pattern width across segments.
    let mut widths: Vec<usize> = segments.iter().map(|(r, _)| r.pattern_width()).collect();
    widths.sort_unstable();
    let width = widths[widths.len() / 2];
    AnnotatedSeries {
        name,
        values,
        change_points,
        width,
        archive,
    }
}

/// Splits `total` into `parts` segment lengths, each at least `min_len`,
/// with randomised proportions. Falls back to fewer parts when `total`
/// cannot host `parts * min_len` samples.
pub fn random_segment_lengths(
    total: usize,
    parts: usize,
    min_len: usize,
    rng: &mut SplitMix64,
) -> Vec<usize> {
    let parts = parts.max(1).min(total / min_len.max(1)).max(1);
    if parts == 1 {
        return vec![total];
    }
    // Exponential proportions with a floor.
    let mut weights: Vec<f64> = (0..parts)
        .map(|_| -rng.next_f64().max(1e-12).ln())
        .collect();
    let sum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= sum;
    }
    let spare = total - parts * min_len;
    let mut lens: Vec<usize> = weights
        .iter()
        .map(|w| min_len + (w * spare as f64) as usize)
        .collect();
    // Fix rounding so the lengths sum exactly to `total`.
    let mut used: usize = lens.iter().sum();
    let mut i = 0;
    while used < total {
        lens[i % parts] += 1;
        used += 1;
        i += 1;
    }
    while used > total {
        let j = i % parts;
        if lens[j] > min_len {
            lens[j] -= 1;
            used -= 1;
        }
        i += 1;
    }
    lens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_series_lays_out_change_points() {
        let segs = vec![
            (
                Regime::Sine {
                    period: 20.0,
                    amp: 1.0,
                    phase: 0.0,
                },
                500,
            ),
            (
                Regime::Square {
                    period: 30.0,
                    amp: 1.0,
                },
                700,
            ),
            (
                Regime::Noise {
                    level: 0.0,
                    sigma: 0.5,
                },
                300,
            ),
        ];
        let s = build_series("t".into(), "test", &segs, NoiseSpec::benchmark(), 1);
        assert_eq!(s.len(), 1500);
        assert_eq!(s.change_points, vec![500, 1200]);
        assert_eq!(s.n_segments(), 3);
        assert!(s.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn series_generation_is_deterministic() {
        let segs = vec![
            (
                Regime::Ar1 {
                    phi: 0.8,
                    sigma: 0.2,
                },
                400,
            ),
            (
                Regime::Sine {
                    period: 15.0,
                    amp: 2.0,
                    phase: 0.1,
                },
                400,
            ),
        ];
        let a = build_series("a".into(), "test", &segs, NoiseSpec::archive(), 9);
        let b = build_series("a".into(), "test", &segs, NoiseSpec::archive(), 9);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn random_lengths_sum_and_respect_minimum() {
        let mut rng = SplitMix64::new(3);
        for &(total, parts, min_len) in &[
            (10_000usize, 7usize, 300usize),
            (1000, 3, 100),
            (500, 10, 120),
            (50, 1, 10),
        ] {
            let lens = random_segment_lengths(total, parts, min_len, &mut rng);
            assert_eq!(lens.iter().sum::<usize>(), total, "{total}/{parts}");
            for &l in &lens {
                assert!(l >= min_len.min(total), "{lens:?}");
            }
        }
    }

    #[test]
    fn width_is_median_of_pattern_widths() {
        let segs = vec![
            (
                Regime::Sine {
                    period: 10.0,
                    amp: 1.0,
                    phase: 0.0,
                },
                100,
            ),
            (
                Regime::Sine {
                    period: 50.0,
                    amp: 1.0,
                    phase: 0.0,
                },
                100,
            ),
            (
                Regime::Sine {
                    period: 90.0,
                    amp: 1.0,
                    phase: 0.0,
                },
                100,
            ),
        ];
        let s = build_series("w".into(), "test", &segs, NoiseSpec::benchmark(), 1);
        assert_eq!(s.width, 50);
    }

    #[test]
    fn spikes_do_appear_with_archive_noise() {
        let segs = vec![(
            Regime::Noise {
                level: 0.0,
                sigma: 0.01,
            },
            50_000,
        )];
        let mut noise = NoiseSpec::archive();
        noise.sigma = 0.01;
        let s = build_series("s".into(), "test", &segs, noise, 5);
        let spikes = s.values.iter().filter(|v| v.abs() > 1.0).count();
        assert!(spikes > 5, "spikes = {spikes}");
    }
}
