//! Workload inputs, made from the seed with `datasets::build_series`.
//!
//! The segment layout of each workload is fixed; the seed draws regime
//! order, periods, phases, boundary jitter and noise. Quality metrics
//! (Covering, detection delay) therefore compare like with like across
//! seeds, while no two seeds feed the same values.

use class_core::SplitMix64;
use datasets::{build_series, AnnotatedSeries, NoiseSpec, Regime};
use std::f64::consts::PI;

/// Streams in one paper-d10k pass.
pub const PAPER_STREAMS: usize = 2;

/// Nominal segment lengths of a paper-d10k stream. They straddle
/// d = 10 000, so segments both shorter and longer than the window occur,
/// and the first one covers the warm-up prefix.
const PAPER_SEGMENTS: [usize; 6] = [12_000, 6_000, 15_000, 7_000, 11_000, 8_000];

/// Streams served concurrently by fleet-inproc and wire-paced.
pub const FLEET_STREAMS: usize = 128;

/// Points per fleet stream: a multiple of the 64-record wire frame.
pub const FLEET_POINTS: usize = 4_096;

/// One regime family with seed-drawn parameters.
fn regime(family: usize, rng: &mut SplitMix64) -> Regime {
    let u = rng.next_f64();
    match family {
        0 => Regime::Sine {
            period: 18.0 + 12.0 * u,
            amp: 1.0,
            phase: 2.0 * PI * rng.next_f64(),
        },
        1 => Regime::Sawtooth {
            period: 30.0 + 15.0 * u,
            amp: 1.0,
        },
        2 => Regime::Square {
            period: 22.0 + 12.0 * u,
            amp: 0.8,
        },
        3 => Regime::Harmonics {
            period: 36.0 + 14.0 * u,
            amps: [1.0, 0.5, 0.25],
        },
        4 => Regime::EcgLike {
            period: 55.0 + 20.0 * u,
            amp: 1.5,
            jitter: 0.03,
        },
        _ => Regime::RespLike {
            period: 40.0 + 20.0 * u,
            amp: 1.0,
            modulation: 0.3,
        },
    }
}

/// The paper-d10k streams: six segments each, every regime family once.
/// The warm-up segment is always a sine of period 24, so the learned
/// width, and with it the detection margin and delay, is alike across
/// seeds; the other five families follow in a seed-shuffled order.
pub fn paper_streams(seed: u64) -> Vec<AnnotatedSeries> {
    (0..PAPER_STREAMS)
        .map(|s| {
            let mut rng =
                SplitMix64::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(s as u64 + 1)));
            let mut families: Vec<usize> = (0..PAPER_SEGMENTS.len()).collect();
            for i in (2..families.len()).rev() {
                let j = 1 + rng.next_below(i as u64) as usize;
                families.swap(i, j);
            }
            let segments: Vec<(Regime, usize)> = families
                .iter()
                .zip(PAPER_SEGMENTS)
                .map(|(&f, len)| {
                    let jitter = 0.9 + 0.2 * rng.next_f64();
                    let mut r = regime(f, &mut rng);
                    if let Regime::Sine { period, .. } = &mut r {
                        *period = 24.0;
                    }
                    (r, (len as f64 * jitter) as usize)
                })
                .collect();
            build_series(
                format!("paper/{s}"),
                "benchmark",
                &segments,
                NoiseSpec::benchmark(),
                rng.next_u64(),
            )
        })
        .collect()
}

/// The fleet streams (the `serve_throughput` shape): a sine regime, then
/// a sawtooth, with the boundary drawn from the middle fifth.
pub fn fleet_streams(seed: u64) -> Vec<AnnotatedSeries> {
    (0..FLEET_STREAMS)
        .map(|k| {
            let mut rng =
                SplitMix64::new(seed ^ (0xD1B5_4A32_D192_ED03u64.wrapping_mul(k as u64 + 1)));
            let cp = (FLEET_POINTS as f64 * (0.4 + 0.2 * rng.next_f64())) as usize;
            let first = regime(0, &mut rng);
            let second = regime(1, &mut rng);
            build_series(
                format!("fleet/{k}"),
                "benchmark",
                &[(first, cp), (second, FLEET_POINTS - cp)],
                NoiseSpec::benchmark(),
                rng.next_u64(),
            )
        })
        .collect()
}
