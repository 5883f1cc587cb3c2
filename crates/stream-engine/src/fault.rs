//! Deterministic fault injection for the serving engine (behind the
//! `fault-inject` feature; never compiled into default builds).
//!
//! A fault-tolerance claim is only as good as the faults it was tested
//! against. This module generates **seeded, reproducible** fault plans —
//! operator panics at a chosen record, NaN bursts, flatlined sensors,
//! source stalls, ring-overflow storms — and the adapters to inject them
//! into operators ([`FaultingOperator`]), input data
//! ([`FaultPlan::corrupt`]), and the feeder ([`drive`]). The same seed
//! always produces the same plan, so a CI failure is replayable locally
//! with one number.
//!
//! The core invariant the harness exists to check is **blast-radius
//! containment**: under any injected fault, streams the plan does not
//! touch must produce bit-identical output to a fault-free run, and every
//! stream's ledger must balance exactly
//! (`records_in + drops + quarantined_after == pushed`).

use crate::engine::{IngestError, StreamHandle};
use crate::operator::Operator;
use crate::ring::PushError;
use crate::Record;
use class_core::SplitMix64;
use std::time::Duration;

/// Marker prefix for panics raised by [`FaultingOperator`] — lets the
/// panic-hook filter installed by [`silence_injected_panics`] tell
/// injected faults from real bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected-fault:";

/// One fault to inject into one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The operator panics while processing record number `record`
    /// (0-based count of records it has seen).
    PanicAt {
        /// Record index at which `process` panics.
        record: u64,
    },
    /// The operator panics in `flush` (end-of-stream teardown fault).
    PanicInFlush,
    /// `len` consecutive NaNs replace the data starting at `at`
    /// (a dead sensor; WFDB invalid-sample sentinels decode this way).
    NanBurst {
        /// First corrupted index.
        at: usize,
        /// Burst length.
        len: usize,
    },
    /// `len` consecutive samples stuck at the value at `at` (a flatlined
    /// sensor).
    Flatline {
        /// First corrupted index.
        at: usize,
        /// Run length.
        len: usize,
    },
    /// The source stops feeding for `millis` once its cursor reaches
    /// `at` (an upstream hiccup — no records are lost, only late).
    Stall {
        /// Cursor position that triggers the stall.
        at: usize,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The feeder bursts records one-at-a-time (no chunk fairness) for
    /// `len` records starting at `at`, with a plain
    /// [`StreamHandle::push`] each — under the `error` ring policy, an
    /// overflow rejection is real record loss at the edge.
    OverflowStorm {
        /// First storm index.
        at: usize,
        /// Storm length.
        len: usize,
    },
}

/// A fault bound to its target stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamFault {
    /// Target stream (handle index).
    pub stream: usize,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic, seed-reproducible set of faults over a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed that generated (and replays) this plan.
    pub seed: u64,
    /// At most one fault per stream.
    pub faults: Vec<StreamFault>,
}

impl FaultPlan {
    /// A plan with no faults (the baseline run).
    pub fn none() -> Self {
        Self {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// Generates a plan over `n_streams` streams of `points` records
    /// each: every stream is faulted with probability `density` (at
    /// least one stream is faulted when `density > 0` and there are
    /// streams to fault), with the fault kind and position drawn from
    /// the seed. Same arguments, same plan — always.
    pub fn seeded(seed: u64, n_streams: usize, points: usize, density: f64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();
        let points = points.max(2);
        for stream in 0..n_streams {
            if rng.next_f64() >= density {
                continue;
            }
            faults.push(StreamFault {
                stream,
                kind: Self::draw_kind(&mut rng, points),
            });
        }
        if faults.is_empty() && density > 0.0 && n_streams > 0 {
            let stream = (rng.next_u64() % n_streams as u64) as usize;
            faults.push(StreamFault {
                stream,
                kind: Self::draw_kind(&mut rng, points),
            });
        }
        Self { seed, faults }
    }

    fn draw_kind(rng: &mut SplitMix64, points: usize) -> FaultKind {
        let at = (rng.next_u64() % (points as u64 / 2).max(1)) as usize + points / 4;
        let len = (rng.next_u64() % 16 + 4) as usize;
        match rng.next_u64() % 6 {
            0 => FaultKind::PanicAt { record: at as u64 },
            1 => FaultKind::PanicInFlush,
            2 => FaultKind::NanBurst { at, len },
            3 => FaultKind::Flatline { at, len },
            4 => FaultKind::Stall {
                at,
                millis: rng.next_u64() % 20 + 1,
            },
            _ => FaultKind::OverflowStorm { at, len: len * 8 },
        }
    }

    /// The fault targeting `stream`, if any.
    pub fn fault_for(&self, stream: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.stream == stream)
            .map(|f| f.kind)
    }

    /// Whether `stream` is untouched by this plan (its output must be
    /// bit-identical to a fault-free run).
    pub fn is_clean(&self, stream: usize) -> bool {
        self.fault_for(stream).is_none()
    }

    /// Applies this plan's *data* faults (NaN burst, flatline) to
    /// `stream`'s input in place. Operator and feeder faults are applied
    /// by [`FaultingOperator`] and [`drive`] respectively.
    pub fn corrupt(&self, stream: usize, data: &mut [f64]) {
        match self.fault_for(stream) {
            Some(FaultKind::NanBurst { at, len }) => {
                let end = (at + len).min(data.len());
                for x in data.get_mut(at..end).unwrap_or(&mut []) {
                    *x = f64::NAN;
                }
            }
            Some(FaultKind::Flatline { at, len }) => {
                let end = (at + len).min(data.len());
                if at < data.len() {
                    let stuck = data[at];
                    for x in &mut data[at..end] {
                        *x = stuck;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Wraps an operator with a seeded process/flush panic, per the stream's
/// fault. Streams without an operator fault pass through untouched (the
/// wrapper stays, so every stream has the same operator type).
pub struct FaultingOperator<Op> {
    inner: Op,
    seen: u64,
    panic_at: Option<u64>,
    panic_in_flush: bool,
}

impl<Op> FaultingOperator<Op> {
    /// Wraps `inner`, arming the panic faults present in `kind`.
    pub fn new(inner: Op, kind: Option<FaultKind>) -> Self {
        Self {
            inner,
            seen: 0,
            panic_at: match kind {
                Some(FaultKind::PanicAt { record }) => Some(record),
                _ => None,
            },
            panic_in_flush: matches!(kind, Some(FaultKind::PanicInFlush)),
        }
    }
}

impl<Op> Operator for FaultingOperator<Op>
where
    Op: Operator<In = f64>,
{
    type In = f64;
    type Out = Op::Out;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<Self::Out>>) {
        if self.panic_at == Some(self.seen) {
            panic!(
                "{INJECTED_PANIC_PREFIX} operator panic at record {}",
                self.seen
            );
        }
        self.seen += 1;
        self.inner.process(rec, out);
    }

    fn flush(&mut self, out: &mut Vec<Record<Self::Out>>) {
        if self.panic_in_flush {
            panic!("{INJECTED_PANIC_PREFIX} operator panic in flush");
        }
        self.inner.flush(out);
    }

    fn name(&self) -> &'static str {
        "faulting"
    }
}

/// Installs a process-wide panic hook that swallows the default "thread
/// panicked" report for [`FaultingOperator`] panics (they are expected by
/// the thousands in a soak run) while forwarding everything else to the
/// previous hook. Idempotent.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Per-stream feeder accounting from one [`drive`] run. For every stream
/// `offered == accepted + rejected`, and `accepted` equals the engine's
/// `pushed` counter.
#[derive(Debug, Clone, Default)]
pub struct DriveOutcome {
    /// Records the feeder attempted per stream.
    pub offered: Vec<u64>,
    /// Records the rings accepted.
    pub accepted: Vec<u64>,
    /// Records rejected at the edge (overflow storms under the `error`
    /// policy).
    pub rejected: Vec<u64>,
}

/// Chunk size matching the engine's bulk feeder granularity.
const DRIVE_CHUNK: usize = 64;

/// Drives the fleet like [`crate::feed_all`], but applies the plan's
/// *feeder* faults: [`FaultKind::Stall`] sleeps the source at its trigger
/// cursor, [`FaultKind::OverflowStorm`] bursts records one-at-a-time
/// with [`StreamHandle::push`] (rejections under the `error` policy are
/// counted as `rejected`, not errors). Outside a storm every stream is
/// fed in chunks that never block; when a round moves no record, every
/// open ring is full and the feeder waits on the space bell its rings
/// share. Data and operator faults must already be installed via
/// [`FaultPlan::corrupt`] / [`FaultingOperator`].
pub fn drive(
    mut handles: Vec<StreamHandle>,
    data: &[Vec<f64>],
    plan: &FaultPlan,
) -> Result<DriveOutcome, IngestError> {
    assert_eq!(handles.len(), data.len(), "one data vec per stream handle");
    let n = handles.len();
    let space = crate::engine::share_space(&mut handles);
    let mut slots: Vec<Option<StreamHandle>> = handles.into_iter().map(Some).collect();
    let mut cursors = vec![0usize; n];
    let mut stalled = vec![false; n];
    let mut outcome = DriveOutcome {
        offered: vec![0; n],
        accepted: vec![0; n],
        rejected: vec![0; n],
    };
    let mut remaining = n;
    while remaining > 0 {
        let mut progressed = false;
        for i in 0..n {
            let Some(handle) = slots[i].as_mut() else {
                continue;
            };
            let xs = &data[i];
            if cursors[i] >= xs.len() {
                slots[i] = None;
                remaining -= 1;
                progressed = true;
                continue;
            }
            if let Some(FaultKind::Stall { at, millis }) = plan.fault_for(i) {
                if !stalled[i] && cursors[i] >= at {
                    stalled[i] = true;
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
            let in_storm = match plan.fault_for(i) {
                Some(FaultKind::OverflowStorm { at, len }) => {
                    cursors[i] >= at && cursors[i] < at + len
                }
                _ => false,
            };
            if in_storm {
                // One record per push: a producer that outruns its ring
                // and eats the rejections.
                outcome.offered[i] += 1;
                match handle.push(xs[cursors[i]]) {
                    Ok(()) => outcome.accepted[i] += 1,
                    Err(PushError::Overflow(_)) => outcome.rejected[i] += 1,
                    Err(PushError::Disconnected) => {
                        return Err(IngestError::Disconnected {
                            stream: handle.id(),
                        })
                    }
                }
                cursors[i] += 1;
                progressed = true;
            } else {
                let end = (cursors[i] + DRIVE_CHUNK).min(xs.len());
                // try_feed accepts what fits: its only error is a
                // disconnect, and 0 means the ring is full.
                let Ok(accepted) = handle.try_feed(&xs[cursors[i]..end]) else {
                    return Err(IngestError::Disconnected {
                        stream: handle.id(),
                    });
                };
                cursors[i] += accepted;
                outcome.offered[i] += accepted as u64;
                outcome.accepted[i] += accepted as u64;
                progressed |= accepted > 0;
            }
        }
        // Take the space bell's keys; when every open ring is full, first
        // wait for a drain to free space.
        space.wait(&mut Vec::new(), progressed.then_some(Duration::ZERO));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(42, 16, 1000, 0.3);
        let b = FaultPlan::seeded(42, 16, 1000, 0.3);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 16, 1000, 0.3);
        assert_ne!(a, c, "different seed, different plan (overwhelmingly)");
        assert!(!a.faults.is_empty());
        // At most one fault per stream.
        for f in &a.faults {
            assert_eq!(a.faults.iter().filter(|g| g.stream == f.stream).count(), 1);
        }
    }

    #[test]
    fn zero_density_means_no_faults_and_nonzero_guarantees_one() {
        assert!(FaultPlan::seeded(7, 8, 500, 0.0).faults.is_empty());
        for seed in 0..20 {
            assert!(
                !FaultPlan::seeded(seed, 8, 500, 0.01).faults.is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn corrupt_applies_only_data_faults() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                StreamFault {
                    stream: 0,
                    kind: FaultKind::NanBurst { at: 2, len: 3 },
                },
                StreamFault {
                    stream: 1,
                    kind: FaultKind::Flatline { at: 1, len: 4 },
                },
                StreamFault {
                    stream: 2,
                    kind: FaultKind::PanicAt { record: 5 },
                },
            ],
        };
        let mut a = vec![1.0; 6];
        plan.corrupt(0, &mut a);
        assert!(a[2].is_nan() && a[3].is_nan() && a[4].is_nan());
        assert_eq!((a[0], a[1], a[5]), (1.0, 1.0, 1.0));
        let mut b: Vec<f64> = (0..6).map(|i| i as f64).collect();
        plan.corrupt(1, &mut b);
        assert_eq!(b, vec![0.0, 1.0, 1.0, 1.0, 1.0, 5.0]);
        let mut c = vec![1.0; 6];
        plan.corrupt(2, &mut c);
        assert_eq!(c, vec![1.0; 6], "panic faults do not touch data");
    }

    #[test]
    fn faulting_operator_panics_exactly_at_its_record() {
        use crate::operator::TumblingWindowMean;
        silence_injected_panics();
        let mut op = FaultingOperator::new(
            TumblingWindowMean::new(1),
            Some(FaultKind::PanicAt { record: 3 }),
        );
        let mut out = Vec::new();
        for t in 0..3u64 {
            op.process(Record::new(t, t as f64), &mut out);
        }
        assert_eq!(out.len(), 3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            op.process(Record::new(3, 3.0), &mut out);
        }));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "{msg}");
    }
}
