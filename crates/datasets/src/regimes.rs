//! Signal regime generators.
//!
//! A *regime* models the latent state of a monitored process (Definition 5
//! of the paper): while a regime is active, the signal exhibits a stable
//! temporal pattern. Change points are transitions between regimes. The
//! families below cover the sensor types of the paper's eight data sources
//! (IMU/accelerometer activity, ECG, EEG-like coloured noise, respiration,
//! seismic bursts, and synthetic benchmark shapes).

use class_core::stats::SplitMix64;
use core::f64::consts::PI;

/// A parameterised signal regime.
#[derive(Debug, Clone, PartialEq)]
pub enum Regime {
    /// Pure tone: `amp * sin(2 pi t / period + phase)`.
    Sine {
        /// Period in samples.
        period: f64,
        /// Amplitude.
        amp: f64,
        /// Phase offset in radians.
        phase: f64,
    },
    /// Sum of the fundamental and its first two harmonics with given
    /// relative amplitudes — the typical accelerometer gait/activity shape.
    Harmonics {
        /// Fundamental period in samples.
        period: f64,
        /// Amplitudes of the fundamental, 2nd and 3rd harmonic.
        amps: [f64; 3],
    },
    /// Idealised ECG beat train: a sharp QRS-like spike plus smaller P/T
    /// waves repeating with beat-to-beat jitter.
    EcgLike {
        /// Mean beat length in samples.
        period: f64,
        /// R-peak amplitude.
        amp: f64,
        /// Beat-to-beat period jitter (fraction of the period).
        jitter: f64,
    },
    /// Chaotic oscillation approximating ventricular fibrillation: a sine
    /// whose frequency and amplitude random-walk quickly.
    FibrillationLike {
        /// Central period in samples.
        period: f64,
        /// Amplitude scale.
        amp: f64,
    },
    /// Stationary AR(1) process (coloured noise; EEG-like when `phi` is
    /// close to 1).
    Ar1 {
        /// Autoregressive coefficient in (-1, 1).
        phi: f64,
        /// Innovation standard deviation.
        sigma: f64,
    },
    /// White Gaussian noise with a mean level.
    Noise {
        /// Mean level.
        level: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// Sawtooth wave (device/actuator-like benchmark shape).
    Sawtooth {
        /// Period in samples.
        period: f64,
        /// Amplitude.
        amp: f64,
    },
    /// Square wave (switching processes).
    Square {
        /// Period in samples.
        period: f64,
        /// Amplitude.
        amp: f64,
    },
    /// Slow breathing-like oscillation with amplitude modulation
    /// (respiration, EDA-like signals).
    RespLike {
        /// Breath period in samples.
        period: f64,
        /// Amplitude.
        amp: f64,
        /// Relative modulation depth of the amplitude.
        modulation: f64,
    },
    /// Burst train: mostly quiet with random oscillatory bursts (seismic /
    /// tremor-like).
    BurstTrain {
        /// Expected gap between bursts in samples.
        gap: f64,
        /// Burst length in samples.
        burst_len: f64,
        /// Oscillation period inside a burst.
        period: f64,
        /// Burst amplitude.
        amp: f64,
    },
}

impl Regime {
    /// The characteristic temporal-pattern width of the regime in samples
    /// (used as the "annotated subsequence width" of a generated series).
    pub fn pattern_width(&self) -> usize {
        let p = match self {
            Regime::Sine { period, .. }
            | Regime::Harmonics { period, .. }
            | Regime::EcgLike { period, .. }
            | Regime::FibrillationLike { period, .. }
            | Regime::Sawtooth { period, .. }
            | Regime::Square { period, .. }
            | Regime::RespLike { period, .. }
            | Regime::BurstTrain { period, .. } => *period,
            Regime::Ar1 { .. } | Regime::Noise { .. } => 25.0,
        };
        (p.round() as usize).max(4)
    }

    /// Appends `len` samples of this regime to `out`. Generation is
    /// deterministic in `rng`; regimes with internal state (AR, bursts,
    /// jittered beats) restart at each call, which is exactly the
    /// segment-boundary behaviour we want.
    pub fn generate_into(&self, len: usize, rng: &mut SplitMix64, out: &mut Vec<f64>) {
        out.reserve(len);
        match *self {
            Regime::Sine { period, amp, phase } => {
                for t in 0..len {
                    out.push(amp * (2.0 * PI * t as f64 / period + phase).sin());
                }
            }
            Regime::Harmonics { period, amps } => {
                for t in 0..len {
                    let base = 2.0 * PI * t as f64 / period;
                    let v = amps[0] * base.sin()
                        + amps[1] * (2.0 * base).sin()
                        + amps[2] * (3.0 * base).sin();
                    out.push(v);
                }
            }
            Regime::EcgLike {
                period,
                amp,
                jitter,
            } => {
                let mut next_beat = 0.0f64;
                let mut beat_start = 0.0f64;
                let mut cur_period = period;
                for t in 0..len {
                    let tf = t as f64;
                    if tf >= next_beat {
                        beat_start = next_beat;
                        cur_period = period * (1.0 + jitter * (2.0 * rng.next_f64() - 1.0));
                        next_beat = beat_start + cur_period.max(8.0);
                    }
                    let ph = (tf - beat_start) / cur_period; // in [0,1)
                                                             // P wave, QRS complex, T wave as Gaussian bumps.
                    let bump = |centre: f64, width: f64, a: f64| {
                        let d = (ph - centre) / width;
                        a * (-0.5 * d * d).exp()
                    };
                    let v = bump(0.18, 0.035, 0.15 * amp)
                        + bump(0.30, 0.018, -0.12 * amp)
                        + bump(0.33, 0.012, amp)
                        + bump(0.36, 0.018, -0.18 * amp)
                        + bump(0.55, 0.06, 0.28 * amp);
                    out.push(v);
                }
            }
            Regime::FibrillationLike { period, amp } => {
                let mut phase = 0.0f64;
                let mut freq = 2.0 * PI / period;
                let mut env = amp;
                for _ in 0..len {
                    phase += freq;
                    freq += (rng.next_f64() - 0.5) * 0.1 * (2.0 * PI / period);
                    freq = freq.clamp(0.5 * 2.0 * PI / period, 2.0 * 2.0 * PI / period);
                    env += (rng.next_f64() - 0.5) * 0.08 * amp;
                    env = env.clamp(0.4 * amp, 1.6 * amp);
                    out.push(env * phase.sin());
                }
            }
            Regime::Ar1 { phi, sigma } => {
                let mut x = 0.0f64;
                for _ in 0..len {
                    x = phi * x + sigma * rng.gaussian();
                    out.push(x);
                }
            }
            Regime::Noise { level, sigma } => {
                for _ in 0..len {
                    out.push(level + sigma * rng.gaussian());
                }
            }
            Regime::Sawtooth { period, amp } => {
                for t in 0..len {
                    let ph = (t as f64 / period).fract();
                    out.push(amp * (2.0 * ph - 1.0));
                }
            }
            Regime::Square { period, amp } => {
                for t in 0..len {
                    let ph = (t as f64 / period).fract();
                    out.push(if ph < 0.5 { amp } else { -amp });
                }
            }
            Regime::RespLike {
                period,
                amp,
                modulation,
            } => {
                let slow = period * 7.3;
                for t in 0..len {
                    let tf = t as f64;
                    let envelope = 1.0 + modulation * (2.0 * PI * tf / slow).sin();
                    out.push(amp * envelope * (2.0 * PI * tf / period).sin());
                }
            }
            Regime::BurstTrain {
                gap,
                burst_len,
                period,
                amp,
            } => {
                let mut t = 0usize;
                while t < len {
                    // Quiet gap (exponential-ish length).
                    let quiet = (gap * (0.5 + rng.next_f64())) as usize;
                    for _ in 0..quiet.min(len - t) {
                        out.push(0.0);
                        t += 1;
                    }
                    if t >= len {
                        break;
                    }
                    let blen = (burst_len * (0.7 + 0.6 * rng.next_f64())) as usize;
                    let blen = blen.min(len - t);
                    for b in 0..blen {
                        // Attack-decay envelope.
                        let frac = b as f64 / blen.max(1) as f64;
                        let env = (frac * 8.0).min(1.0) * (1.0 - frac).max(0.0).powf(0.5);
                        out.push(amp * env * (2.0 * PI * b as f64 / period).sin());
                        t += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(r: &Regime, len: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::new();
        r.generate_into(len, &mut rng, &mut out);
        out
    }

    #[test]
    fn all_regimes_generate_requested_length() {
        let regimes = [
            Regime::Sine {
                period: 30.0,
                amp: 1.0,
                phase: 0.0,
            },
            Regime::Harmonics {
                period: 40.0,
                amps: [1.0, 0.4, 0.2],
            },
            Regime::EcgLike {
                period: 80.0,
                amp: 1.5,
                jitter: 0.05,
            },
            Regime::FibrillationLike {
                period: 25.0,
                amp: 1.0,
            },
            Regime::Ar1 {
                phi: 0.9,
                sigma: 0.3,
            },
            Regime::Noise {
                level: 0.0,
                sigma: 1.0,
            },
            Regime::Sawtooth {
                period: 50.0,
                amp: 1.0,
            },
            Regime::Square {
                period: 60.0,
                amp: 1.0,
            },
            Regime::RespLike {
                period: 100.0,
                amp: 1.0,
                modulation: 0.3,
            },
            Regime::BurstTrain {
                gap: 200.0,
                burst_len: 100.0,
                period: 12.0,
                amp: 2.0,
            },
        ];
        for r in &regimes {
            let xs = gen(r, 1234, 42);
            assert_eq!(xs.len(), 1234, "{r:?}");
            assert!(xs.iter().all(|v| v.is_finite()), "{r:?}");
            assert!(r.pattern_width() >= 4);
        }
    }

    #[test]
    fn sine_has_expected_period() {
        let xs = gen(
            &Regime::Sine {
                period: 25.0,
                amp: 1.0,
                phase: 0.0,
            },
            1000,
            1,
        );
        // Count zero-crossings: ~ 2 per period.
        let crossings = xs
            .windows(2)
            .filter(|p| p[0].signum() != p[1].signum())
            .count();
        let est_period = 2.0 * 1000.0 / crossings as f64;
        assert!((est_period - 25.0).abs() < 2.0, "period ~ {est_period}");
    }

    #[test]
    fn ecg_has_beats_at_the_requested_rate() {
        let xs = gen(
            &Regime::EcgLike {
                period: 100.0,
                amp: 2.0,
                jitter: 0.02,
            },
            5000,
            2,
        );
        // Count R peaks: values above half the amplitude.
        let mut peaks = 0;
        let mut above = false;
        for &v in &xs {
            if v > 1.0 && !above {
                peaks += 1;
                above = true;
            } else if v < 0.5 {
                above = false;
            }
        }
        assert!((45..=55).contains(&peaks), "peaks = {peaks}");
    }

    #[test]
    fn ar1_is_stationary_and_correlated() {
        let xs = gen(
            &Regime::Ar1 {
                phi: 0.95,
                sigma: 0.1,
            },
            20_000,
            3,
        );
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.2, "mean = {mean}");
        // Lag-1 autocorrelation should be near phi.
        let var: f64 = xs.iter().map(|v| (v - mean) * (v - mean)).sum();
        let cov: f64 = xs.windows(2).map(|p| (p[0] - mean) * (p[1] - mean)).sum();
        let rho = cov / var;
        assert!((rho - 0.95).abs() < 0.03, "rho = {rho}");
    }

    #[test]
    fn generation_is_deterministic() {
        let r = Regime::FibrillationLike {
            period: 30.0,
            amp: 1.0,
        };
        assert_eq!(gen(&r, 500, 7), gen(&r, 500, 7));
        assert_ne!(gen(&r, 500, 7), gen(&r, 500, 8));
    }

    #[test]
    fn burst_train_has_quiet_and_loud_stretches() {
        let xs = gen(
            &Regime::BurstTrain {
                gap: 300.0,
                burst_len: 150.0,
                period: 10.0,
                amp: 3.0,
            },
            5000,
            4,
        );
        let quiet = xs.iter().filter(|v| v.abs() < 1e-9).count();
        let loud = xs.iter().filter(|v| v.abs() > 1.0).count();
        assert!(quiet > 1000, "quiet = {quiet}");
        assert!(loud > 300, "loud = {loud}");
    }
}
