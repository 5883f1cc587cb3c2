//! Degraded-input policy: a value guard between a sensor feed and a
//! segmenter.
//!
//! Real archive data makes degraded inputs routine rather than
//! exceptional: the wide-CSV fixtures model dead IMU sensors, and WFDB's
//! `-32768`/`-2048` invalid-sample sentinels decode to NaN. A long-running
//! deployment must decide per feed what to do when it goes bad — heal an
//! isolated glitch, or take the feed out of service — instead of letting
//! poisoned values run through segmenter state for hours. [`GuardConfig`]
//! is that policy and [`InputGuard`] applies it to one feed, a value at a
//! time. The same guard serves both granularities: the serving engine
//! installs one per guarded stream, and [`crate::MultivariateClass`] one
//! per channel (see [`crate::MultivariateConfig::channel_guard`]).

/// Degraded-input policy for one feed. A non-finite (NaN/±inf) value is
/// healed with the feed's last finite value, or skipped while no finite
/// value has arrived yet. The zero thresholds disable their detectors, so
/// `GuardConfig::default()` only heals and never trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardConfig {
    /// Trip after this many *consecutive* non-finite values — a burst
    /// means the sensor is gone, not glitching. `0` disables burst
    /// detection.
    pub nan_burst: usize,
    /// Trip after this many consecutive *identical* finite values — a
    /// flatlined (stuck-at) sensor. `0` disables flatline detection. A
    /// run of identical values is at least two long, so the smallest
    /// threshold is 2 (a 1 trips on the second identical value, as 2
    /// does).
    pub flatline: usize,
}

impl GuardConfig {
    /// A guard that heals isolated non-finite values and trips on
    /// `nan_burst` consecutive non-finite or `flatline` identical values.
    ///
    /// # Panics
    /// Panics if `flatline` is 1: a flatline threshold is 0 (off) or at
    /// least 2.
    pub const fn new(nan_burst: usize, flatline: usize) -> Self {
        assert!(
            flatline != 1,
            "a flatline threshold is 0 (off) or at least 2"
        );
        Self {
            nan_burst,
            flatline,
        }
    }
}

/// Why a guard took its feed out of service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardTrip {
    /// `len` consecutive non-finite values crossed the burst threshold.
    NanBurst {
        /// Length of the non-finite run, including the tripping value.
        len: usize,
    },
    /// `len` consecutive identical values crossed the flatline threshold.
    Flatline {
        /// Length of the identical run, including the tripping value.
        len: usize,
        /// The stuck-at value.
        value: f64,
    },
}

impl std::fmt::Display for GuardTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardTrip::NanBurst { len } => {
                write!(f, "non-finite burst of {len} consecutive values")
            }
            GuardTrip::Flatline { len, value } => {
                write!(f, "flatline: {len} consecutive values stuck at {value}")
            }
        }
    }
}

/// The guard's verdict on one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardVerdict {
    /// Deliver this (possibly healed) value.
    Pass(f64),
    /// A non-finite value with no finite value to hold yet.
    Skip,
    /// Take the feed out of service.
    Trip(GuardTrip),
}

/// Running guard state for one feed. Purely sequential over the feed's
/// values, so it needs no synchronisation.
#[derive(Debug, Clone)]
pub struct InputGuard {
    cfg: GuardConfig,
    last_finite: Option<f64>,
    nan_run: usize,
    flat_run: usize,
    flat_value: f64,
    healed: u64,
    skipped: u64,
}

impl InputGuard {
    /// A fresh guard for one feed.
    pub fn new(cfg: GuardConfig) -> Self {
        Self {
            cfg,
            last_finite: None,
            nan_run: 0,
            flat_run: 0,
            flat_value: f64::NAN,
            healed: 0,
            skipped: 0,
        }
    }

    /// Inspects one incoming value and decides what the segmenter sees.
    #[inline]
    pub fn inspect(&mut self, x: f64) -> GuardVerdict {
        if !x.is_finite() {
            self.flat_run = 0;
            self.nan_run += 1;
            if self.cfg.nan_burst > 0 && self.nan_run >= self.cfg.nan_burst {
                return GuardVerdict::Trip(GuardTrip::NanBurst { len: self.nan_run });
            }
            return match self.last_finite {
                Some(v) => {
                    self.healed += 1;
                    GuardVerdict::Pass(v)
                }
                None => {
                    self.skipped += 1;
                    GuardVerdict::Skip
                }
            };
        }
        self.nan_run = 0;
        self.last_finite = Some(x);
        if self.cfg.flatline > 0 {
            if self.flat_run > 0 && x == self.flat_value {
                self.flat_run += 1;
                if self.flat_run >= self.cfg.flatline {
                    return GuardVerdict::Trip(GuardTrip::Flatline {
                        len: self.flat_run,
                        value: x,
                    });
                }
            } else {
                self.flat_run = 1;
                self.flat_value = x;
            }
        }
        GuardVerdict::Pass(x)
    }

    /// Values healed (replaced by the last finite value) so far.
    pub fn healed(&self) -> u64 {
        self.healed
    }

    /// Values skipped (non-finite before any finite value) so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "0 (off) or at least 2")]
    fn a_flatline_threshold_of_one_is_rejected() {
        let _ = GuardConfig::new(0, 1);
    }

    #[test]
    fn default_guard_heals_isolated_nans_and_never_trips() {
        let mut g = InputGuard::new(GuardConfig::default());
        assert_eq!(g.inspect(1.0), GuardVerdict::Pass(1.0));
        assert_eq!(g.inspect(f64::NAN), GuardVerdict::Pass(1.0));
        assert_eq!(g.inspect(f64::INFINITY), GuardVerdict::Pass(1.0));
        assert_eq!(g.inspect(2.0), GuardVerdict::Pass(2.0));
        assert_eq!(g.healed(), 2);
        assert_eq!(g.skipped(), 0);
    }

    #[test]
    fn leading_nans_are_skipped_until_a_finite_value_arrives() {
        let mut g = InputGuard::new(GuardConfig::default());
        assert_eq!(g.inspect(f64::NAN), GuardVerdict::Skip);
        assert_eq!(g.inspect(f64::NAN), GuardVerdict::Skip);
        assert_eq!(g.inspect(3.0), GuardVerdict::Pass(3.0));
        assert_eq!(g.inspect(f64::NAN), GuardVerdict::Pass(3.0));
        assert_eq!(g.skipped(), 2);
        assert_eq!(g.healed(), 1);
    }

    #[test]
    fn nan_burst_threshold_trips_and_overrides_heal() {
        let mut g = InputGuard::new(GuardConfig::new(3, 0));
        g.inspect(1.0);
        assert_eq!(g.inspect(f64::NAN), GuardVerdict::Pass(1.0));
        assert_eq!(g.inspect(f64::NAN), GuardVerdict::Pass(1.0));
        assert_eq!(
            g.inspect(f64::NAN),
            GuardVerdict::Trip(GuardTrip::NanBurst { len: 3 })
        );
        // A finite value in between resets the run.
        let mut g = InputGuard::new(GuardConfig::new(3, 0));
        g.inspect(1.0);
        g.inspect(f64::NAN);
        g.inspect(f64::NAN);
        assert_eq!(g.inspect(2.0), GuardVerdict::Pass(2.0));
        assert_eq!(g.inspect(f64::NAN), GuardVerdict::Pass(2.0));
    }

    #[test]
    fn flatline_threshold_trips_on_stuck_values() {
        // The smallest threshold, 2, trips on the first repeat.
        for len in [2, 4] {
            let mut g = InputGuard::new(GuardConfig::new(0, len));
            for _ in 1..len {
                assert_eq!(g.inspect(7.5), GuardVerdict::Pass(7.5));
            }
            assert_eq!(
                g.inspect(7.5),
                GuardVerdict::Trip(GuardTrip::Flatline { len, value: 7.5 })
            );
        }
        // A changing feed never trips.
        let mut g = InputGuard::new(GuardConfig::new(0, 4));
        for i in 0..100 {
            assert!(matches!(g.inspect((i % 2) as f64), GuardVerdict::Pass(_)));
        }
    }
}
