//! Synthetic stand-ins for the paper's eight data sources (Table 1).
//!
//! Real archives (UCR/TSSB benchmarks, PhysioNet recordings, PAMAP, WESAD)
//! are gated behind downloads and licences, so each builder below generates
//! series with the same *structural* properties Table 1 records — number of
//! series, length distribution, segment-count distribution, and per-domain
//! signal character — with ground-truth change points known by
//! construction. See EXPERIMENTS.md for the substitution argument.
//!
//! Because the paper's testbed (128-core Xeon, 2 TB RAM) ran for hundreds
//! of hours, the default profile scales the archive lengths down to
//! laptop-friendly sizes while preserving the relative proportions;
//! `GenConfig::paper_sizes` restores the original magnitudes.

use crate::regimes::Regime;
use crate::series::{build_series, random_segment_lengths, AnnotatedSeries, NoiseSpec};
use class_core::stats::SplitMix64;

/// Structural specification of one archive, mirroring a row of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveSpec {
    /// Archive name as printed in Table 1.
    pub name: &'static str,
    /// Number of series.
    pub n_series: usize,
    /// Length min / median / max (paper sizes).
    pub len: (usize, usize, usize),
    /// Segment count min / median / max.
    pub segments: (usize, usize, usize),
    /// Default down-scaling factor of the laptop profile.
    pub default_scale: f64,
    /// Whether the archive belongs to the benchmark group (TSSB, UTSA) or
    /// the data-archive group.
    pub is_benchmark: bool,
}

/// The eight data sources of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archive {
    /// Time Series Segmentation Benchmark.
    Tssb,
    /// UCR Time Series Semantic Segmentation Archive.
    Utsa,
    /// mHealth ankle-motion activity recordings.
    MHealth,
    /// MIT-BIH Arrhythmia database.
    ArrDb,
    /// MIT-BIH Ventricular Ectopy database.
    VeDb,
    /// PAMAP physical activity monitoring.
    Pamap,
    /// Polysomnographic sleep recordings.
    SleepDb,
    /// Wearable stress and affect detection.
    Wesad,
}

impl Archive {
    /// All archives in Table 1 order.
    pub fn all() -> [Archive; 8] {
        [
            Archive::Tssb,
            Archive::Utsa,
            Archive::MHealth,
            Archive::ArrDb,
            Archive::VeDb,
            Archive::Pamap,
            Archive::SleepDb,
            Archive::Wesad,
        ]
    }

    /// Structural parameters from Table 1.
    pub fn spec(self) -> ArchiveSpec {
        match self {
            Archive::Tssb => ArchiveSpec {
                name: "TSSB",
                n_series: 75,
                len: (240, 3_500, 20_700),
                segments: (1, 3, 9),
                default_scale: 1.0,
                is_benchmark: true,
            },
            Archive::Utsa => ArchiveSpec {
                name: "UTSA",
                n_series: 32,
                len: (2_000, 12_000, 40_000),
                segments: (2, 2, 3),
                default_scale: 1.0,
                is_benchmark: true,
            },
            Archive::MHealth => ArchiveSpec {
                name: "mHealth",
                n_series: 90,
                len: (32_200, 34_300, 35_500),
                segments: (12, 12, 12),
                default_scale: 0.35,
                is_benchmark: false,
            },
            Archive::ArrDb => ArchiveSpec {
                name: "Arr DB",
                n_series: 96,
                len: (650_000, 650_000, 650_000),
                segments: (1, 10, 207),
                default_scale: 0.02,
                is_benchmark: false,
            },
            Archive::VeDb => ArchiveSpec {
                name: "VE DB",
                n_series: 44,
                len: (525_000, 525_000, 525_000),
                segments: (2, 13, 134),
                default_scale: 0.03,
                is_benchmark: false,
            },
            Archive::Pamap => ArchiveSpec {
                name: "PAMAP",
                n_series: 135,
                len: (37_500, 132_100, 175_000),
                segments: (2, 9, 9),
                default_scale: 0.08,
                is_benchmark: false,
            },
            Archive::SleepDb => ArchiveSpec {
                name: "Sleep DB",
                n_series: 88,
                len: (2_700_000, 3_100_000, 3_900_000),
                segments: (83, 138, 231),
                default_scale: 0.005,
                is_benchmark: false,
            },
            Archive::Wesad => ArchiveSpec {
                name: "WESAD",
                n_series: 32,
                len: (2_000_000, 2_100_000, 2_100_000),
                segments: (5, 5, 5),
                default_scale: 0.005,
                is_benchmark: false,
            },
        }
    }

    /// Generates all series of this archive.
    pub fn generate(self, cfg: &GenConfig) -> Vec<AnnotatedSeries> {
        let spec = self.spec();
        let scale = if cfg.paper_sizes {
            1.0
        } else {
            spec.default_scale * cfg.scale
        };
        let mut out = Vec::with_capacity(spec.n_series);
        for i in 0..spec.n_series {
            let seed = splitmix_combine(cfg.seed, self as u64 * 1000 + i as u64);
            out.push(generate_one(self, &spec, scale, i, seed));
        }
        out
    }
}

/// Generation configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Multiplier on the laptop-profile lengths (1.0 = default profile).
    pub scale: f64,
    /// Use the paper's original lengths (overrides `scale`).
    pub paper_sizes: bool,
    /// Master seed; every series derives its own deterministic seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            paper_sizes: false,
            seed: 0xC1A55,
        }
    }
}

fn splitmix_combine(seed: u64, salt: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15));
    rng.next_u64()
}

/// Draws from a (min, median, max) triple: uniform in [min, median] or
/// [median, max] with equal probability.
fn draw_mmm(rng: &mut SplitMix64, (lo, med, hi): (usize, usize, usize)) -> usize {
    if lo == hi {
        return lo;
    }
    if rng.next_f64() < 0.5 {
        lo + (rng.next_f64() * (med - lo + 1) as f64) as usize
    } else {
        med + (rng.next_f64() * (hi - med + 1) as f64) as usize
    }
}

fn generate_one(
    archive: Archive,
    spec: &ArchiveSpec,
    scale: f64,
    index: usize,
    seed: u64,
) -> AnnotatedSeries {
    let mut rng = SplitMix64::new(seed);
    let len = ((draw_mmm(&mut rng, spec.len) as f64 * scale) as usize).max(600);
    let n_segs = draw_mmm(&mut rng, spec.segments);
    let pool = regime_pool(archive, &mut rng);
    // Minimum segment length: enough temporal patterns for the width and a
    // floor; segment count shrinks when the scaled length cannot host it —
    // this is exactly how the laptop profile trades archive difficulty for
    // runtime (EXPERIMENTS.md).
    let mut widths: Vec<usize> = pool.iter().map(|r| r.pattern_width()).collect();
    widths.sort_unstable();
    let median_width = widths[widths.len() / 2];
    let min_seg = (8 * median_width).max(300);
    let parts = n_segs.min((len / min_seg).max(1));
    let lens = random_segment_lengths(len, parts, min_seg, &mut rng);
    // Assign regimes so that consecutive segments always differ.
    let mut segments: Vec<(Regime, usize)> = Vec::with_capacity(lens.len());
    let mut prev: Option<Regime> = None;
    for (si, l) in lens.iter().enumerate() {
        // Re-occurring sub-segments (one of the paper's STSS sub-cases):
        // occasionally reuse the regime from two segments back.
        let reoccur = if si >= 2 && rng.next_f64() < 0.25 {
            let back = segments[si - 2].0.clone();
            (prev.as_ref() != Some(&back)).then_some(back)
        } else {
            None
        };
        let regime = reoccur.unwrap_or_else(|| {
            let mut idx = rng.next_below(pool.len() as u64) as usize;
            for _ in 0..pool.len() {
                if prev.as_ref() != Some(&pool[idx]) {
                    break;
                }
                idx = (idx + 1) % pool.len();
            }
            pool[idx].clone()
        });
        prev = Some(regime.clone());
        segments.push((regime, *l));
    }
    let noise = if spec.is_benchmark {
        NoiseSpec::benchmark()
    } else {
        NoiseSpec::archive()
    };
    build_series(
        format!(
            "{}/{:03}",
            spec.name.to_lowercase().replace(' ', "-"),
            index
        ),
        spec.name,
        &segments,
        noise,
        rng.next_u64(),
    )
}

/// Per-domain regime pool; parameters are drawn per series so that series
/// within an archive differ while sharing the domain character.
fn regime_pool(archive: Archive, rng: &mut SplitMix64) -> Vec<Regime> {
    let u = |rng: &mut SplitMix64, lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
    match archive {
        // Benchmarks: diverse shape families (the UCR archive spans sensor,
        // device, image-derived and simulated signals).
        Archive::Tssb | Archive::Utsa => {
            let p = u(rng, 20.0, 90.0);
            vec![
                Regime::Sine {
                    period: p,
                    amp: u(rng, 0.8, 1.5),
                    phase: 0.0,
                },
                Regime::Harmonics {
                    period: p * 1.4,
                    amps: [1.0, u(rng, 0.2, 0.6), 0.2],
                },
                Regime::Sawtooth {
                    period: p * 0.8,
                    amp: u(rng, 0.8, 1.4),
                },
                Regime::Square {
                    period: p * 1.2,
                    amp: u(rng, 0.6, 1.2),
                },
                Regime::Ar1 {
                    phi: u(rng, 0.6, 0.95),
                    sigma: 0.4,
                },
                Regime::EcgLike {
                    period: p,
                    amp: u(rng, 1.2, 2.0),
                    jitter: 0.04,
                },
                Regime::Noise {
                    level: u(rng, -0.5, 0.5),
                    sigma: u(rng, 0.3, 0.8),
                },
            ]
        }
        // Ankle-worn IMU activities: distinct gait harmonics + rest. The
        // periods are kept small relative to the scaled segment lengths so
        // that every segment still holds the "10-100 temporal patterns"
        // the paper's unscaled archives provide (§3.5).
        Archive::MHealth | Archive::Pamap => {
            let p = u(rng, 20.0, 40.0);
            vec![
                Regime::Noise {
                    level: 0.0,
                    sigma: 0.08,
                }, // standing/lying
                Regime::Harmonics {
                    period: p,
                    amps: [1.0, 0.5, 0.25],
                }, // walking
                Regime::Harmonics {
                    period: p * 0.55,
                    amps: [1.6, 0.4, 0.5],
                }, // running
                Regime::Harmonics {
                    period: p * 1.6,
                    amps: [0.7, 0.5, 0.1],
                }, // cycling
                Regime::Sine {
                    period: p * 1.8,
                    amp: 0.5,
                    phase: 0.3,
                }, // slow moves
                Regime::Ar1 {
                    phi: 0.9,
                    sigma: 0.3,
                }, // irregular chores
            ]
        }
        // ECG with rhythm changes (arrhythmias): normal sinus vs. fast /
        // irregular beat trains.
        Archive::ArrDb => {
            let beat = u(rng, 60.0, 90.0);
            vec![
                Regime::EcgLike {
                    period: beat,
                    amp: 1.6,
                    jitter: 0.03,
                },
                Regime::EcgLike {
                    period: beat * 0.6,
                    amp: 1.3,
                    jitter: 0.05,
                },
                Regime::EcgLike {
                    period: beat,
                    amp: 1.6,
                    jitter: 0.3,
                },
                Regime::EcgLike {
                    period: beat * 1.35,
                    amp: 2.0,
                    jitter: 0.08,
                },
            ]
        }
        // ECG transitioning into ventricular fibrillation (Figure 1).
        Archive::VeDb => {
            let beat = u(rng, 50.0, 70.0);
            vec![
                Regime::EcgLike {
                    period: beat,
                    amp: 1.6,
                    jitter: 0.04,
                },
                Regime::FibrillationLike {
                    period: beat * 0.45,
                    amp: 1.0,
                },
                Regime::EcgLike {
                    period: beat * 0.7,
                    amp: 1.2,
                    jitter: 0.12,
                },
            ]
        }
        // EEG-like sleep stages: coloured noise with changing bandwidth +
        // slow-wave oscillations.
        Archive::SleepDb => vec![
            Regime::Ar1 {
                phi: 0.75,
                sigma: 0.5,
            },
            Regime::Ar1 {
                phi: 0.95,
                sigma: 0.25,
            },
            Regime::Ar1 {
                phi: 0.99,
                sigma: 0.1,
            },
            Regime::Harmonics {
                period: u(rng, 80.0, 120.0),
                amps: [0.8, 0.2, 0.05],
            },
            Regime::Noise {
                level: 0.0,
                sigma: 0.6,
            },
        ],
        // Chest respiration / physiological affect states (Figure 3).
        Archive::Wesad => {
            let p = u(rng, 90.0, 140.0);
            vec![
                Regime::RespLike {
                    period: p,
                    amp: 1.0,
                    modulation: 0.2,
                },
                Regime::RespLike {
                    period: p * 0.6,
                    amp: 1.4,
                    modulation: 0.45,
                },
                Regime::RespLike {
                    period: p * 1.3,
                    amp: 0.7,
                    modulation: 0.1,
                },
                Regime::Ar1 {
                    phi: 0.97,
                    sigma: 0.15,
                },
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{resolve_all_series, resolve_archive_series, resolve_benchmark_series};

    fn all_series(cfg: &GenConfig) -> Vec<AnnotatedSeries> {
        resolve_all_series(cfg, None).expect("synthetic archives")
    }

    #[test]
    fn series_counts_match_table1() {
        let cfg = GenConfig::default();
        for a in Archive::all() {
            let series = a.generate(&cfg);
            assert_eq!(series.len(), a.spec().n_series, "{}", a.spec().name);
        }
        assert_eq!(resolve_benchmark_series(&cfg, None).unwrap().len(), 107);
        assert_eq!(resolve_archive_series(&cfg, None).unwrap().len(), 485);
        assert_eq!(all_series(&cfg).len(), 592);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = Archive::Wesad.generate(&cfg);
        let b = Archive::Wesad.generate(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.values, y.values);
            assert_eq!(x.change_points, y.change_points);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Archive::Tssb.generate(&GenConfig::default());
        let b = Archive::Tssb.generate(&GenConfig {
            seed: 99,
            ..GenConfig::default()
        });
        assert_ne!(a[0].values, b[0].values);
    }

    #[test]
    fn change_points_are_strictly_inside_and_sorted() {
        let cfg = GenConfig::default();
        for series in all_series(&cfg) {
            let mut prev = 0u64;
            for &cp in &series.change_points {
                assert!(cp > prev, "{}: unsorted cps", series.name);
                assert!(
                    (cp as usize) < series.len(),
                    "{}: cp out of range",
                    series.name
                );
                prev = cp;
            }
        }
    }

    #[test]
    fn values_are_finite_everywhere() {
        let cfg = GenConfig::default();
        for series in all_series(&cfg) {
            assert!(
                series.values.iter().all(|v| v.is_finite()),
                "{}: non-finite values",
                series.name
            );
        }
    }

    #[test]
    fn fixed_segment_archives_have_fixed_counts() {
        let cfg = GenConfig::default();
        for s in Archive::Wesad.generate(&cfg) {
            assert_eq!(s.n_segments(), 5, "{}", s.name);
        }
        for s in Archive::MHealth.generate(&cfg) {
            assert_eq!(s.n_segments(), 12, "{}", s.name);
        }
    }

    #[test]
    fn scaled_lengths_are_laptop_friendly() {
        let cfg = GenConfig::default();
        let total: usize = all_series(&cfg).iter().map(|s| s.len()).sum();
        assert!(total < 15_000_000, "total points = {total}");
        assert!(total > 1_000_000, "suspiciously small: {total}");
    }

    #[test]
    fn paper_sizes_restore_magnitudes() {
        let cfg = GenConfig {
            paper_sizes: true,
            ..GenConfig::default()
        };
        let spec = Archive::ArrDb.spec();
        // Generate just one series worth of layout (cheap enough: 650k).
        let s = &Archive::ArrDb.generate(&cfg)[0];
        assert_eq!(s.len(), spec.len.0);
    }

    #[test]
    fn consecutive_segments_use_different_regimes() {
        // Indirect check: the signal statistics before/after each CP differ.
        let cfg = GenConfig::default();
        for s in Archive::MHealth.generate(&cfg).iter().take(5) {
            for &cp in &s.change_points {
                let cp = cp as usize;
                let w = 400.min(cp).min(s.len() - cp);
                let left = &s.values[cp - w..cp];
                let right = &s.values[cp..cp + w];
                let stat = |xs: &[f64]| {
                    let mu = xs.iter().sum::<f64>() / xs.len() as f64;
                    let var = xs.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / xs.len() as f64;
                    let ce: f64 = xs
                        .windows(2)
                        .map(|p| (p[1] - p[0]) * (p[1] - p[0]))
                        .sum::<f64>();
                    (var, ce / xs.len() as f64)
                };
                let (lv, lc) = stat(left);
                let (rv, rc) = stat(right);
                let var_ratio = (lv / rv.max(1e-12)).max(rv / lv.max(1e-12));
                let ce_ratio = (lc / rc.max(1e-12)).max(rc / lc.max(1e-12));
                assert!(
                    var_ratio > 1.05 || ce_ratio > 1.05,
                    "{}: indistinguishable segments at {cp}",
                    s.name
                );
            }
        }
    }
}
