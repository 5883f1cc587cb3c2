//! Fault-injection suite (requires `--features fault-inject`): proves the
//! engine's blast-radius containment contract under deterministic faults.
//!
//! The contract, for every injected fault:
//!
//! 1. **Containment** — streams the plan does not touch produce output
//!    bit-identical to a fault-free run (under a lossless ring policy);
//! 2. **Exact accounting** — every stream's ledger balances:
//!    `records_in + drops + quarantined_after == pushed`, and the
//!    feeder-side `offered == accepted + rejected` with
//!    `accepted == pushed`;
//! 3. **Attribution** — a stream ends quarantined only if the plan
//!    targeted it, with the cause and record index preserved.

use proptest::prelude::*;
use stream_engine::{
    drive, feed_all, serve, silence_injected_panics, Backpressure, DriveOutcome, EngineConfig,
    FaultKind, FaultPlan, FaultingOperator, GuardConfig, GuardTrip, QuarantineCause, RingConfig,
    StreamFault, StreamOptions, StreamResult, StreamState, TumblingWindowMean,
    INJECTED_PANIC_PREFIX,
};

/// Deterministic synthetic feeds: per-stream phase-shifted sines with a
/// small varying ramp, so no clean stream ever repeats a value twice in
/// a row (the flatline guard must stay quiet on clean data).
fn synth(n_streams: usize, points: usize) -> Vec<Vec<f64>> {
    (0..n_streams)
        .map(|k| {
            (0..points)
                .map(|t| (t as f64 * 0.17 + k as f64 * 1.3).sin() * 10.0 + (t % 13) as f64 * 0.01)
                .collect()
        })
        .collect()
}

fn plan_one(stream: usize, kind: FaultKind) -> FaultPlan {
    FaultPlan {
        seed: 0,
        faults: vec![StreamFault { stream, kind }],
    }
}

/// Serves `data` through `FaultingOperator<TumblingWindowMean>` under
/// `plan`, with the plan's data faults applied. Storm-targeted streams
/// get a tiny `error`-policy ring (the only policy under which storms
/// reject); everything else uses (`ring_cap`, `policy`).
fn run_fleet(
    data: &[Vec<f64>],
    plan: &FaultPlan,
    shards: usize,
    policy: Backpressure,
    ring_cap: usize,
    guard: Option<GuardConfig>,
    width: usize,
) -> (Vec<StreamResult<f64>>, DriveOutcome) {
    let mut corrupted: Vec<Vec<f64>> = data.to_vec();
    for (k, xs) in corrupted.iter_mut().enumerate() {
        plan.corrupt(k, xs);
    }
    let (results, outcome) = serve(EngineConfig::new(shards), |engine| {
        let handles: Vec<_> = (0..corrupted.len())
            .map(|k| {
                let kind = plan.fault_for(k);
                let ring = if matches!(kind, Some(FaultKind::OverflowStorm { .. })) {
                    RingConfig::new(8, Backpressure::Error)
                } else {
                    RingConfig::new(ring_cap, policy)
                };
                engine.register_with(
                    StreamOptions {
                        ring,
                        guard,
                        ..StreamOptions::default()
                    },
                    move || FaultingOperator::new(TumblingWindowMean::new(width), kind),
                )
            })
            .collect();
        drive(handles, &corrupted, plan)
    });
    (results, outcome.expect("feeder completes under faults"))
}

/// The containment + accounting invariant, checked stream by stream.
/// `lossless` additionally demands clean streams be bit-identical to
/// `baseline` (only valid under the `block` policy).
fn assert_contained(
    results: &[StreamResult<f64>],
    baseline: &[StreamResult<f64>],
    outcome: &DriveOutcome,
    plan: &FaultPlan,
    points: usize,
    lossless: bool,
) {
    assert_eq!(results.len(), baseline.len());
    for (k, r) in results.iter().enumerate() {
        assert_eq!(
            r.records_in + r.drops + r.quarantined_after,
            r.pushed,
            "stream {k}: ledger out of balance"
        );
        assert_eq!(
            outcome.offered[k],
            outcome.accepted[k] + outcome.rejected[k],
            "stream {k}: offered != accepted + rejected"
        );
        assert_eq!(
            outcome.accepted[k], r.pushed,
            "stream {k}: feeder accepted disagrees with ring pushed"
        );
        if r.is_quarantined() {
            assert!(
                plan.fault_for(k).is_some(),
                "stream {k} quarantined without being targeted: {:?}",
                r.state
            );
        } else if plan.is_clean(k) && lossless {
            assert!(matches!(r.state, StreamState::Done), "stream {k} not done");
            assert_eq!(r.records_in, points as u64, "stream {k} lost records");
            assert_eq!(r.drops, 0, "stream {k} dropped records");
            assert_eq!(
                r.output, baseline[k].output,
                "stream {k} output diverged from the fault-free run"
            );
        }
    }
}

const STREAMS: usize = 12;
const POINTS: usize = 2_000;
const SHARDS: usize = 3;

#[test]
fn operator_panic_is_contained_to_its_stream() {
    silence_injected_panics();
    let data = synth(STREAMS, POINTS);
    let clean = FaultPlan::none();
    let (baseline, _) = run_fleet(&data, &clean, SHARDS, Backpressure::Block, 32, None, 7);
    let plan = plan_one(4, FaultKind::PanicAt { record: 500 });
    let (results, outcome) = run_fleet(&data, &plan, SHARDS, Backpressure::Block, 32, None, 7);
    assert_contained(&results, &baseline, &outcome, &plan, POINTS, true);

    let r = &results[4];
    assert!(r.is_quarantined());
    let (cause, at_record) = r.quarantine().expect("stream 4 is quarantined");
    assert_eq!(at_record, 500, "quarantine records the faulting position");
    match cause {
        QuarantineCause::OperatorPanic { message } => {
            assert!(message.starts_with(INJECTED_PANIC_PREFIX), "{message}");
        }
        other => panic!("expected an operator panic cause, got {other}"),
    }
    assert_eq!(r.records_in, 500, "records before the fault were processed");
    assert_eq!(
        r.quarantined_after,
        r.pushed - 500,
        "everything from the faulting record on is drained and discarded"
    );
    assert_eq!(
        results.iter().filter(|r| r.is_quarantined()).count(),
        1,
        "exactly one stream quarantined"
    );
}

#[test]
fn flush_panic_quarantines_after_full_processing() {
    silence_injected_panics();
    let data = synth(STREAMS, POINTS);
    let clean = FaultPlan::none();
    let (baseline, _) = run_fleet(&data, &clean, SHARDS, Backpressure::Block, 32, None, 7);
    let plan = plan_one(2, FaultKind::PanicInFlush);
    let (results, outcome) = run_fleet(&data, &plan, SHARDS, Backpressure::Block, 32, None, 7);
    assert_contained(&results, &baseline, &outcome, &plan, POINTS, true);

    let r = &results[2];
    let (cause, at_record) = r.quarantine().expect("flush panic quarantines");
    assert!(matches!(cause, QuarantineCause::OperatorPanic { .. }));
    assert_eq!(at_record, POINTS as u64, "the fault hit at end-of-stream");
    assert_eq!(r.records_in, POINTS as u64, "every record was processed");
    assert_eq!(r.quarantined_after, 0, "nothing was left to discard");
}

#[test]
fn nan_burst_trips_the_guard_on_exactly_its_stream() {
    silence_injected_panics();
    let data = synth(STREAMS, POINTS);
    let guard = Some(GuardConfig::new(4, 0));
    let clean = FaultPlan::none();
    let (baseline, _) = run_fleet(&data, &clean, SHARDS, Backpressure::Block, 32, guard, 7);
    let plan = plan_one(1, FaultKind::NanBurst { at: 600, len: 9 });
    let (results, outcome) = run_fleet(&data, &plan, SHARDS, Backpressure::Block, 32, guard, 7);
    assert_contained(&results, &baseline, &outcome, &plan, POINTS, true);

    let r = &results[1];
    let (cause, at_record) = r.quarantine().expect("a 9-NaN burst trips a 4-NaN guard");
    assert!(
        matches!(
            cause,
            QuarantineCause::InputGuard(GuardTrip::NanBurst { len: 4 })
        ),
        "unexpected cause: {cause}"
    );
    // NaNs at 600..=602 heal (3 of them); the 4th consecutive NaN at
    // index 603 trips the guard before being consumed.
    assert_eq!(at_record, 603);
    assert_eq!(r.records_in, 603);
    assert_eq!(r.healed, 3, "the burst prefix healed before the trip");
}

#[test]
fn short_nan_burst_heals_without_quarantine() {
    silence_injected_panics();
    let data = synth(STREAMS, POINTS);
    let guard = Some(GuardConfig::new(8, 0));
    let clean = FaultPlan::none();
    let (baseline, _) = run_fleet(&data, &clean, SHARDS, Backpressure::Block, 32, guard, 7);
    let plan = plan_one(5, FaultKind::NanBurst { at: 600, len: 3 });
    let (results, outcome) = run_fleet(&data, &plan, SHARDS, Backpressure::Block, 32, guard, 7);
    assert_contained(&results, &baseline, &outcome, &plan, POINTS, true);

    let r = &results[5];
    assert!(!r.is_quarantined(), "a sub-threshold burst must heal");
    assert!(matches!(r.state, StreamState::Done));
    assert_eq!(r.records_in, POINTS as u64);
    assert_eq!(
        r.healed, 3,
        "each NaN was healed with the last finite value"
    );
    // Healing substitutes values, so means differ — but no record is
    // lost: the output shape matches the fault-free run exactly.
    assert_eq!(r.output.len(), baseline[5].output.len());
}

#[test]
fn source_stall_delays_but_loses_nothing() {
    silence_injected_panics();
    let data = synth(STREAMS, POINTS);
    let clean = FaultPlan::none();
    let (baseline, _) = run_fleet(&data, &clean, SHARDS, Backpressure::Block, 32, None, 7);
    let plan = plan_one(
        0,
        FaultKind::Stall {
            at: 700,
            millis: 30,
        },
    );
    let (results, outcome) = run_fleet(&data, &plan, SHARDS, Backpressure::Block, 32, None, 7);
    assert_contained(&results, &baseline, &outcome, &plan, POINTS, true);

    // A stall is pure latency: even the targeted stream finishes with
    // bit-identical output.
    let r = &results[0];
    assert!(matches!(r.state, StreamState::Done));
    assert_eq!(r.output, baseline[0].output);
    assert_eq!(r.records_in, POINTS as u64);
}

#[test]
fn overflow_storm_rejections_are_counted_at_the_edge() {
    silence_injected_panics();
    let data = synth(STREAMS, POINTS);
    let clean = FaultPlan::none();
    let (baseline, _) = run_fleet(&data, &clean, SHARDS, Backpressure::Block, 32, None, 7);
    let plan = plan_one(3, FaultKind::OverflowStorm { at: 500, len: 800 });
    let (results, outcome) = run_fleet(&data, &plan, SHARDS, Backpressure::Block, 32, None, 7);
    assert_contained(&results, &baseline, &outcome, &plan, POINTS, true);

    // Every record was offered exactly once; under the error policy a
    // rejection is real loss at the edge, never silent.
    let r = &results[3];
    assert_eq!(outcome.offered[3], POINTS as u64);
    assert!(
        matches!(r.state, StreamState::Done),
        "storms never quarantine"
    );
    assert_eq!(r.drops, 0, "error policy drops nothing silently");
    assert_eq!(r.records_in, POINTS as u64 - outcome.rejected[3]);
}

/// Both seeded derivations — the engine's stream-id shard hash and
/// `FaultPlan::seeded` — draw from `class_core::SplitMix64`. Their
/// outputs are pinned so a replayed CI seed keeps naming the same plan
/// and default shard placement stays stable across releases.
#[test]
fn shard_hash_and_seeded_fault_plan_are_pinned() {
    let (results, ()) = serve(EngineConfig::new(4), |engine| {
        let handles: Vec<_> = (0..32)
            .map(|_| engine.register(|| TumblingWindowMean::new(1)))
            .collect();
        feed_all(handles, &[&[] as &[f64]; 32]).expect("empty feeds complete");
    });
    let shards: Vec<usize> = results.iter().map(|r| r.shard).collect();
    assert_eq!(
        shards,
        [
            3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1, 3, 3, 2, 1, 3, 3, 2, 0, 0, 3, 2, 2, 0, 1, 2, 2, 0,
            0, 2, 2
        ]
    );

    let fault = |stream, kind| StreamFault { stream, kind };
    assert_eq!(
        FaultPlan::seeded(0xC1A55, 12, 1000, 0.5).faults,
        [
            fault(0, FaultKind::NanBurst { at: 747, len: 10 }),
            fault(3, FaultKind::NanBurst { at: 473, len: 16 }),
            fault(
                4,
                FaultKind::Stall {
                    at: 274,
                    millis: 13
                }
            ),
            fault(6, FaultKind::Flatline { at: 714, len: 18 }),
            fault(8, FaultKind::PanicInFlush),
            fault(9, FaultKind::OverflowStorm { at: 603, len: 112 }),
            fault(10, FaultKind::OverflowStorm { at: 645, len: 144 }),
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 6 } else { 16 }))]

    /// Arbitrary seeded fault plans interleaved with ring policies and
    /// shard counts: containment, attribution, and exact accounting must
    /// hold for every combination. `PROPTEST_SEED` rotates the plans in
    /// CI; any failure replays locally with the printed seed.
    #[test]
    fn seeded_fault_plans_never_breach_containment(
        seed in 0u64..u64::MAX,
        shards in 1usize..5,
        ring_cap in 4usize..33,
        policy_pick in 0usize..2,
    ) {
        let drop_oldest = policy_pick == 1;
        silence_injected_panics();
        let (n_streams, points) = (6usize, 400usize);
        let data = synth(n_streams, points);
        let guard = Some(GuardConfig::new(4, 6));
        let clean = FaultPlan::none();
        let (baseline, _) =
            run_fleet(&data, &clean, shards, Backpressure::Block, ring_cap, guard, 5);
        let policy = if drop_oldest { Backpressure::DropOldest } else { Backpressure::Block };
        let plan = FaultPlan::seeded(seed, n_streams, points, 0.4);
        let (results, outcome) = run_fleet(&data, &plan, shards, policy, ring_cap, guard, 5);
        // Bit-identity for clean streams is only promised by lossless
        // rings; the ledger and attribution invariants hold regardless.
        assert_contained(&results, &baseline, &outcome, &plan, points, !drop_oldest);
    }
}
