//! Snapshot-consistency suite (requires `--features fault-inject`):
//! proves that [`stream_engine::StatsHandle::stats`] is safe to call at
//! *arbitrary moments* while the engine is under faulted load.
//!
//! A live snapshot reads lock-free counters that the shard workers and
//! ring producers are mutating concurrently, so it can never promise the
//! exact ledger equality a finished run does. What it must promise, and
//! what this suite pins:
//!
//! 1. **Coherence** — in every snapshot, for every stream,
//!    `records_in + drops + quarantined_after <= pushed`: the engine
//!    never claims to have disposed of a record the ring has not
//!    accepted (the Release/Acquire ordering contract on
//!    `StreamMonitor`'s counters);
//! 2. **Monotonicity** — between two consecutive snapshots every
//!    counter is non-decreasing and no stream disappears;
//! 3. **Convergence** — once serving completes, the frozen registry
//!    reports the exact ledger `records_in + drops + quarantined_after
//!    == pushed` for every stream.
//!
//! The proptest sweeps seeded fault plans across shard counts and
//! backpressure policies, reusing the fault suite's `drive` harness.
//! A leak check rides along: repeating soak-style rounds through fresh
//! engines must not grow the process's peak RSS (`VmHWM`) beyond an
//! allocator-noise allowance.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stream_engine::{
    drive, serve, silence_injected_panics, vm_hwm_kb, Backpressure, EngineConfig, FaultKind,
    FaultPlan, FaultingOperator, GuardConfig, RingConfig, ServingStats, StatsHandle, StreamOptions,
    TumblingWindowMean,
};

/// Deterministic per-stream feeds (phase-shifted sines with a small
/// ramp, so the flatline guard stays quiet on clean data).
fn synth(n_streams: usize, points: usize) -> Vec<Vec<f64>> {
    (0..n_streams)
        .map(|k| {
            (0..points)
                .map(|t| (t as f64 * 0.17 + k as f64 * 1.3).sin() * 10.0 + (t % 13) as f64 * 0.01)
                .collect()
        })
        .collect()
}

/// Invariant 1: no snapshot may account for more records than its ring
/// has accepted.
fn assert_coherent(s: &ServingStats, ctx: &str) {
    for st in &s.streams {
        assert!(
            st.records_in + st.drops + st.quarantined_after <= st.pushed,
            "{ctx}: stream {} snapshot over-accounts: records_in({}) + drops({}) \
             + quarantined_after({}) > pushed({})",
            st.stream,
            st.records_in,
            st.drops,
            st.quarantined_after,
            st.pushed
        );
    }
}

/// Invariant 2: counters only grow between consecutive snapshots, and
/// registered streams never vanish.
fn assert_monotone(prev: &ServingStats, next: &ServingStats) {
    assert!(
        next.streams.len() >= prev.streams.len(),
        "streams disappeared between snapshots: {} -> {}",
        prev.streams.len(),
        next.streams.len()
    );
    assert!(next.uptime >= prev.uptime, "uptime went backwards");
    for p in &prev.streams {
        let n = next
            .streams
            .iter()
            .find(|n| n.stream == p.stream)
            .unwrap_or_else(|| panic!("stream {} vanished from the next snapshot", p.stream));
        for (what, a, b) in [
            ("records_in", p.records_in, n.records_in),
            ("drops", p.drops, n.drops),
            (
                "quarantined_after",
                p.quarantined_after,
                n.quarantined_after,
            ),
            ("pushed", p.pushed, n.pushed),
            ("healed", p.healed, n.healed),
            ("skipped", p.skipped, n.skipped),
        ] {
            assert!(
                b >= a,
                "stream {}: {what} regressed between snapshots: {a} -> {b}",
                p.stream
            );
        }
        assert!(
            !p.done || n.done,
            "stream {} went from done back to live",
            p.stream
        );
        assert!(
            !p.state.is_quarantined() || n.state.is_quarantined(),
            "stream {} left quarantine",
            p.stream
        );
    }
}

/// Serves a seeded faulted fleet while a sampler thread polls
/// [`StatsHandle::stats`] as fast as it can; returns the sampled
/// snapshots plus a handle into the (now frozen) registry.
fn sampled_run(
    seed: u64,
    shards: usize,
    policy: Backpressure,
    n_streams: usize,
    points: usize,
) -> (Vec<ServingStats>, StatsHandle) {
    silence_injected_panics();
    let plan = FaultPlan::seeded(seed, n_streams, points, 0.4);
    let mut data = synth(n_streams, points);
    for (k, xs) in data.iter_mut().enumerate() {
        plan.corrupt(k, xs);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let (_results, (outcome, snapshots, handle)) = serve(EngineConfig::new(shards), |engine| {
        let handle = engine.stats_handle();
        let sampler_handle = handle.clone();
        let sampler_stop = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut snaps = Vec::new();
            while !sampler_stop.load(Ordering::Relaxed) {
                snaps.push(sampler_handle.stats());
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            snaps.push(sampler_handle.stats());
            snaps
        });
        let handles: Vec<_> = (0..n_streams)
            .map(|k| {
                let kind = plan.fault_for(k);
                let ring = if matches!(kind, Some(FaultKind::OverflowStorm { .. })) {
                    RingConfig::new(8, Backpressure::Error)
                } else {
                    RingConfig::new(16, policy)
                };
                engine.register_with(
                    StreamOptions {
                        ring,
                        guard: Some(GuardConfig::new(4, 6)),
                        ..StreamOptions::default()
                    },
                    move || FaultingOperator::new(TumblingWindowMean::new(5), kind),
                )
            })
            .collect();
        let outcome = drive(handles, &data, &plan);
        stop.store(true, Ordering::Relaxed);
        let snapshots = sampler.join().expect("sampler thread never panics");
        (outcome, snapshots, handle)
    });
    outcome.expect("feeder completes under faults");
    (snapshots, handle)
}

/// Invariant 3 plus the sweep over every sampled snapshot.
fn check_run(seed: u64, shards: usize, policy: Backpressure) {
    let (snapshots, handle) = sampled_run(seed, shards, policy, 8, 600);
    assert!(
        !snapshots.is_empty(),
        "the sampler always takes at least the final snapshot"
    );
    for (i, s) in snapshots.iter().enumerate() {
        assert_coherent(s, &format!("seed {seed} snapshot {i}"));
    }
    for pair in snapshots.windows(2) {
        assert_monotone(&pair[0], &pair[1]);
    }
    // The registry outlives the engine; after serve() returns it is
    // frozen and the inequality tightens to the exact ledger.
    let terminal = handle.stats();
    assert_eq!(terminal.streams.len(), 8);
    for st in &terminal.streams {
        assert_eq!(
            st.records_in + st.drops + st.quarantined_after,
            st.pushed,
            "stream {}: terminal ledger out of balance",
            st.stream
        );
        assert!(st.done || st.state.is_quarantined());
        assert_eq!(st.queue_depth, 0, "stream {}: ring not drained", st.stream);
    }
}

#[test]
fn snapshots_stay_coherent_under_blocking_policy() {
    check_run(0xC0FFEE, 3, Backpressure::Block);
}

#[test]
fn snapshots_stay_coherent_under_drop_oldest_policy() {
    // DropOldest is the adversarial case: an accepted record can be
    // evicted by the very call that pushed it, so `drops` and `pushed`
    // race unless the ring orders its counter stores.
    check_run(0xDEAD_BEEF, 2, Backpressure::DropOldest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 4 } else { 10 }))]

    /// Arbitrary seeds x shard counts x policies: every mid-load
    /// snapshot satisfies coherence and monotonicity, every terminal
    /// one the exact ledger. `PROPTEST_SEED` rotates the sweep in CI.
    #[test]
    fn concurrent_snapshots_never_tear(
        seed in 0u64..u64::MAX,
        shards in 1usize..5,
        policy_pick in 0usize..2,
    ) {
        let policy = if policy_pick == 1 {
            Backpressure::DropOldest
        } else {
            Backpressure::Block
        };
        check_run(seed, shards, policy);
    }
}

/// Soak-style leak check: after a warm-up round, repeating fresh-engine
/// rounds (the `serve_soak --minutes` loop in miniature) must not grow
/// the process's peak RSS beyond an allocator-noise allowance.
#[test]
fn repeated_rounds_do_not_grow_peak_rss() {
    const ROUNDS: u64 = 12;
    const ALLOWANCE_KB: u64 = 65_536;
    let round = |seed: u64| {
        let (snapshots, _) = sampled_run(seed, 2, Backpressure::Block, 8, 600);
        drop(snapshots);
    };
    round(1); // warm allocator pools and thread stacks
    let Some(base) = vm_hwm_kb() else {
        eprintln!("VmHWM unavailable on this platform; skipping the leak bound");
        return;
    };
    for r in 2..2 + ROUNDS {
        round(r);
    }
    let last = vm_hwm_kb().expect("VmHWM stays readable");
    let delta = last.saturating_sub(base);
    assert!(
        delta <= ALLOWANCE_KB,
        "peak RSS grew {delta} kB over {ROUNDS} rounds (> {ALLOWANCE_KB} kB): \
         the serving engine is leaking per-round state"
    );
}
