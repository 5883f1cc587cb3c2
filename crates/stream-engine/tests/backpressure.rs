//! Backpressure-policy semantics of the serving engine, per policy:
//!
//! * `block` is lossless — every record is delivered in order, so a
//!   ClaSS stream served through the engine scores *exactly* like the
//!   single-threaded reference loop and the standalone segmenter;
//! * `drop-oldest` accounts for every record — processed + dropped
//!   equals pushed, and what survives is the freshest suffix-window of
//!   the feed in order;
//! * `error` surfaces a typed overflow to the producer and never
//!   delivers the rejected record;
//!
//! plus a property test interleaving many streams of arbitrary lengths
//! through tiny rings on varying shard counts, and a stress test that
//! would hang if the engine ever lost a wake-up.

use class_core::stats::SplitMix64;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection};
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use stream_engine::{
    feed_all, serve, Backpressure, EngineConfig, Operator, OverflowError, PushError, Record,
    Registrar, RingConfig, SegmenterOperator, StreamOptions, StreamState, TumblingWindowMean,
};

/// Two-regime stream: sine whose frequency doubles at `cp`.
fn freq_shift(n: usize, cp: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let f = if i < cp { 0.18 } else { 0.42 };
            (i as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5)
        })
        .collect()
}

/// The single-threaded reference the engine is compared against: `op`
/// stepped over `xs` in order, timestamped by position, then flushed.
fn direct_loop<Op: Operator<In = f64>>(mut op: Op, xs: &[f64]) -> Vec<Record<Op::Out>> {
    let mut out = Vec::new();
    for (t, &x) in xs.iter().enumerate() {
        op.process(Record::new(t as u64, x), &mut out);
    }
    op.flush(&mut out);
    out
}

fn class_cfg() -> ClassConfig {
    let mut cfg = ClassConfig::with_window_size(1_200);
    cfg.width = WidthSelection::Fixed(30);
    cfg.warmup = Some(800);
    cfg.log10_alpha = -12.0;
    cfg.seed = 7;
    cfg
}

#[test]
fn block_preserves_every_record_and_scores_equal_the_single_stream_path() {
    let xs = freq_shift(4_000, 2_000, 11);

    // Standalone segmenter — the ground truth for the streaming scores.
    let mut standalone = ClassSegmenter::new(class_cfg());
    let mut direct_cps = Vec::new();
    for &x in &xs {
        standalone.step(x, &mut direct_cps);
    }

    // Single-threaded reference loop.
    let loop_records = direct_loop(
        SegmenterOperator::new(ClassSegmenter::new(class_cfg())),
        &xs,
    );

    // The serving engine with a deliberately tiny blocking ring: the
    // producer stalls repeatedly, but no record may be lost or reordered.
    let config = EngineConfig {
        shards: 2,
        ring: RingConfig::new(8, Backpressure::Block),
    };
    let (results, ()) = serve(config, |engine| {
        let xs = &xs;
        let handle = engine.register(|| SegmenterOperator::new(ClassSegmenter::new(class_cfg())));
        feed_all(vec![handle], &[xs.as_slice()]).expect("feed completes");
    });
    let r = &results[0];

    assert_eq!(r.records_in as usize, xs.len(), "lossless: every record");
    assert_eq!(r.drops, 0);
    // Full record-level equality with the reference loop: values,
    // emission timestamps, and flush-emitted records all survive the
    // ring transit.
    assert_eq!(r.output, loop_records, "engine == direct loop, exactly");
    let engine_cps: Vec<u64> = r
        .output
        .iter()
        .filter(|rec| rec.timestamp != u64::MAX) // streamed, not flush-emitted
        .map(|rec| rec.value)
        .collect();
    assert_eq!(engine_cps, direct_cps, "engine == standalone, exactly");
    assert!(!engine_cps.is_empty(), "the change point was detected");
}

/// An operator that parks on a shared gate before its first record —
/// letting tests hold a shard deliberately busy while producers run on.
struct Gated {
    gate: Arc<Mutex<()>>,
}

impl Operator for Gated {
    type In = f64;
    type Out = f64;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<f64>>) {
        drop(self.gate.lock().expect("gate"));
        out.push(rec);
    }

    fn name(&self) -> &'static str {
        "gated"
    }
}

#[test]
fn drop_oldest_accounts_for_every_record_and_keeps_the_freshest_in_order() {
    let gate = Arc::new(Mutex::new(()));
    let total = 5_000u64;
    let config = EngineConfig {
        shards: 1,
        ring: RingConfig::new(16, Backpressure::DropOldest),
    };
    let (results, ()) = serve(config, |engine| {
        let gate_for_op = Arc::clone(&gate);
        let mut handle = engine.register(move || Gated { gate: gate_for_op });
        // Stall the shard so the tiny ring must overflow, then let the
        // producer outrun the consumer for the whole feed.
        let held = gate.lock().expect("gate");
        for v in 0..total {
            handle.push(v as f64).expect("drop-oldest always accepts");
        }
        drop(held);
    });
    let r = &results[0];
    assert_eq!(
        r.records_in + r.drops,
        total,
        "every pushed record is either processed or counted as dropped"
    );
    assert!(r.drops > 0, "the stalled consumer must have overflowed");
    // Survivors keep source order and source positions, and the tail of
    // the feed (the freshest records at close time) always survives.
    let stamps: Vec<u64> = r.output.iter().map(|rec| rec.timestamp).collect();
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "order preserved");
    assert_eq!(*stamps.last().unwrap(), total - 1, "freshest record kept");
}

#[test]
fn error_policy_surfaces_a_typed_overflow_and_loses_only_rejected_records() {
    let gate = Arc::new(Mutex::new(()));
    let capacity = 4usize;
    let config = EngineConfig {
        shards: 1,
        ring: RingConfig::new(capacity, Backpressure::Error),
    };
    let (results, (accepted, overflow)) = serve(config, |engine| {
        let gate_for_op = Arc::clone(&gate);
        let mut handle = engine.register(move || Gated { gate: gate_for_op });
        let held = gate.lock().expect("gate");
        let mut accepted = 0u64;
        let mut overflow: Option<OverflowError> = None;
        // With the shard stalled, a bounded number of pushes must hit
        // the typed overflow (the ring plus one in-flight batch).
        for v in 0..10_000 {
            match handle.push(v as f64) {
                Ok(()) => accepted += 1,
                Err(PushError::Overflow(e)) => {
                    overflow = Some(e);
                    break;
                }
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        drop(held);
        (accepted, overflow)
    });
    let overflow = overflow.expect("the full ring must reject a record");
    assert_eq!(overflow.capacity, capacity, "typed error names the ring");
    let r = &results[0];
    // Everything accepted before the overflow is delivered; the
    // rejected record never reaches the operator.
    assert_eq!(r.records_in, accepted);
    assert_eq!(r.drops, 0, "error policy drops nothing silently");
}

/// Producer threads of the churn test, and streams each registers.
const PRODUCERS: usize = 4;
const STREAMS_PER_PRODUCER: usize = 16;

/// The value of record `t` of stream `id`: unique, so order and loss show.
fn churn_value(id: usize, t: u64) -> f64 {
    (id as u64 * 100_000 + t) as f64
}

/// One producer thread of the churn test: registers its streams through
/// its own registrar clone, feeds them in random bursts of 1–9 records
/// with a yield after each, so every ring goes empty and non-empty over
/// and over, and closes or detaches each stream as soon as its data is
/// out (a fifth of them carry none). Returns `(stream id, records)`.
fn churn_producer(p: usize, registrar: Registrar<'_, TumblingWindowMean>) -> Vec<(usize, u64)> {
    let mut rng = SplitMix64::new(p as u64 + 1);
    let mut live: Vec<_> = (0..STREAMS_PER_PRODUCER)
        .map(|k| {
            let opts = StreamOptions {
                ring: registrar.default_ring(),
                ..StreamOptions::default()
            };
            let handle = registrar
                .register_stream(opts, || TumblingWindowMean::new(1))
                .expect("the engine accepts registrations while the body runs");
            let len = if k % 5 == 0 {
                0
            } else {
                rng.next_u64() % 6_000
            };
            (handle, len, 0u64)
        })
        .collect();
    let mut fed = Vec::new();
    while !live.is_empty() {
        let i = (rng.next_u64() % live.len() as u64) as usize;
        let (handle, len, sent) = &mut live[i];
        if sent == len {
            let (handle, len, _) = live.swap_remove(i);
            let id = handle.id();
            if id % 2 == 1 {
                // Detach while the other streams keep running.
                let report = registrar.detach_stream(handle);
                assert_eq!(report.state, StreamState::Done, "stream {id}");
                assert_eq!(
                    (
                        report.records_in,
                        report.pushed,
                        report.drops,
                        report.quarantined_after
                    ),
                    (len, len, 0, 0),
                    "stream {id}: detach ledger"
                );
            }
            fed.push((id, len));
            continue;
        }
        let burst = (1 + rng.next_u64() % 9).min(*len - *sent);
        for _ in 0..burst {
            let v = churn_value(handle.id(), *sent);
            handle.push(v).expect("block rings accept every record");
            *sent += 1;
        }
        std::thread::yield_now();
    }
    fed
}

/// 64 streams on 4-slot block rings over 2 shards, fed by 4 producer
/// threads in tiny bursts, registered through registrar clones and
/// detached or closed while the others run. A single lost wake-up (a
/// shard that never sees a ring's data or close, a producer that never
/// sees space, a detach that never sees the retire) hangs the run, so a
/// watchdog fails it after 60 s; every stream's ledger must be exact.
#[test]
fn no_wake_up_is_lost_under_churn() {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let config = EngineConfig {
            shards: 2,
            ring: RingConfig::new(4, Backpressure::Block),
        };
        let (results, fed) = serve(config, |engine| {
            let registrar = engine.registrar();
            std::thread::scope(|s| {
                let producers: Vec<_> = (0..PRODUCERS)
                    .map(|p| {
                        let registrar = registrar.clone();
                        s.spawn(move || churn_producer(p, registrar))
                    })
                    .collect();
                producers
                    .into_iter()
                    .flat_map(|p| p.join().expect("producer thread"))
                    .collect::<Vec<_>>()
            })
        });
        assert_eq!(results.len(), PRODUCERS * STREAMS_PER_PRODUCER);
        assert_eq!(fed.len(), results.len());
        for (id, len) in fed {
            let r = &results[id];
            assert_eq!(r.stream, id);
            assert_eq!(r.state, StreamState::Done, "stream {id}");
            assert_eq!(
                (r.records_in, r.pushed, r.drops),
                (len, len, 0),
                "stream {id}"
            );
            assert_eq!(r.accounted(), r.pushed, "stream {id}: ledger");
            let want: Vec<f64> = (0..len).map(|t| churn_value(id, t)).collect();
            let got: Vec<f64> = r.output.iter().map(|rec| rec.value).collect();
            assert!(got == want, "stream {id}: records lost or reordered");
        }
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => worker.join().expect("churn run"),
        Err(RecvTimeoutError::Timeout) => {
            panic!("the churn run hung for 60 s: the engine lost a wake-up")
        }
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 64 }))]

    /// Arbitrary interleavings: up to 64 streams of arbitrary lengths
    /// and values, fed through tiny blocking rings (capacity 1 included)
    /// onto 1..4 shards — one shard or many, and far more streams than
    /// shards — must each reproduce the direct loop's output exactly.
    #[test]
    fn interleaved_streams_match_the_direct_loop_per_stream(
        streams in prop::collection::vec(
            prop::collection::vec(-1000.0f64..1000.0, 0..120),
            2..65,
        ),
        shards in 1usize..4,
        ring in 1usize..9,
        width in 1usize..6,
    ) {
        let config = EngineConfig {
            shards,
            ring: RingConfig::new(ring, Backpressure::Block),
        };
        let (results, ()) = serve(config, |engine| {
            let handles: Vec<_> = (0..streams.len())
                .map(|_| engine.register(move || TumblingWindowMean::new(width)))
                .collect();
            let slices: Vec<&[f64]> = streams.iter().map(|s| s.as_slice()).collect();
            feed_all(handles, &slices).expect("feed completes");
        });
        prop_assert_eq!(results.len(), streams.len());
        for (k, r) in results.iter().enumerate() {
            let want = direct_loop(TumblingWindowMean::new(width), &streams[k]);
            prop_assert_eq!(r.records_in as usize, streams[k].len());
            prop_assert_eq!(r.drops, 0u64);
            prop_assert_eq!(&r.output, &want);
        }
    }
}
