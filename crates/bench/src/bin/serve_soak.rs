//! `serve_soak` — survivability proof for the fault-tolerant serving
//! engine (requires the `fault-inject` feature).
//!
//! The paper's §4.4 deployment argument is that ClaSS runs as an
//! always-on operator inside a stream processor; an always-on operator
//! meets faults. This binary serves a fleet of ClaSS streams under a
//! **seeded, deterministic fault plan** (operator panics, NaN bursts,
//! flatlined sensors, source stalls, ring-overflow storms) and asserts
//! the engine's fault-tolerance contract end to end:
//!
//! * **no deadlock** — the feeder completes even though streams panic
//!   and quarantine mid-run (quarantined rings keep draining);
//! * **exact accounting** — for every stream, faulted or not,
//!   `records_in + drops + quarantined_after == pushed`, and the
//!   feeder-side ledger `offered == accepted + rejected` matches;
//! * **survivability floor** — only streams the plan targets may end
//!   quarantined; every untargeted stream processes its full feed;
//! * **bounded memory** — peak RSS (`VmHWM`) stays under a fixed cap,
//!   and in timed mode the post-warmup *growth* is bounded too (the
//!   leak detector: dozens of rounds may not raise the high-water mark
//!   by more than an allocator-noise allowance).
//!
//! Two modes:
//!
//! * **single-shot** (default): one seeded fleet.
//! * **timed** (`--minutes F`): repeat seeded fleets (round `r` runs
//!   under `seed ^ mix(r)`) until the deadline — the hours-scale soak;
//!   CI runs a short preset of the same loop. `--mv-channels C` makes
//!   every stream a fused multivariate stream (C channels interleaved
//!   through one ring, per-channel guards retiring bad channels, the
//!   `VoteFuser` re-quorumming over survivors).
//!
//! The run's report is its provenance-stamped `class-run-bundle/v1`
//! bundle (config, seed, and metrics: records, quarantines, faults in
//! total and per kind as `faults.<kind>`, peak RSS, and in timed mode
//! its growth `vm_hwm_delta_kb`), printed on stdout and written to
//! `--bundle-out PATH` for `compare_bundles`. Last-round quarantines go
//! to stderr as `quarantined: stream N at record R: cause` lines.
//! Observability rides along: `--metrics-addr HOST:PORT` serves live
//! Prometheus text at `/metrics` (and `/stats.json`) across all rounds,
//! and `--stats-json PATH` writes periodic JSON snapshots for headless
//! runs.
//!
//! ```sh
//! cargo run --release -p bench --features fault-inject --bin serve_soak -- \
//!     --preset quick --seed 20260809 --minutes 1.5 --mv-channels 3 \
//!     --metrics-addr 127.0.0.1:9599 --bundle-out BUNDLE_soak.json
//! ```
//!
//! The seed rotates per CI run (printed in the log); any failure is
//! replayable locally by passing the same `--seed`. The bundle is an
//! uploaded artifact, not a committed baseline — a rotating seed makes
//! run-to-run numbers incomparable by design (two bundles of the same
//! seed are what `compare_bundles` diffs). The count of records
//! rejected at the edge depends on thread scheduling, so it is reported
//! only on the stderr `OK` line.

use class_core::{
    ChannelGuardConfig, ClassConfig, ClassSegmenter, MultivariateClass, MultivariateConfig,
    WidthSelection,
};
use datasets::{build_series, NoiseSpec, Regime};
use eval::bundle::RunBundle;
use eval::cli::Flags;
use std::collections::BTreeMap;
use stream_engine::{
    drive, interleave_channels, serve, silence_injected_panics, vm_hwm_kb, Backpressure,
    DriveOutcome, EngineConfig, FaultKind, FaultPlan, FaultingOperator, GuardConfig, MetricsServer,
    MultivariateSegmenterOperator, Operator, RingConfig, SegmenterOperator, SnapshotWriter,
    StreamOptions, StreamResult,
};

struct Preset {
    name: &'static str,
    streams: usize,
    points: usize,
    window: usize,
    width: usize,
}

const QUICK: Preset = Preset {
    name: "quick",
    streams: 48,
    points: 3_000,
    window: 500,
    width: 25,
};

const FULL: Preset = Preset {
    name: "full",
    streams: 256,
    points: 8_000,
    window: 1_000,
    width: 40,
};

/// Guard installed on every univariate stream: heal isolated NaNs,
/// quarantine on 8 consecutive NaNs or 16 identical values. The
/// synthetic feeds are noisy sines — no clean stream can trip either
/// detector, so any guard quarantine is attributable to the plan.
/// (Multivariate streams use per-channel guards instead: a data fault
/// retires the hit channel, it does not take down the fused stream.)
const GUARD: GuardConfig = GuardConfig {
    non_finite: stream_engine::GuardAction::Heal,
    nan_burst: 8,
    flatline: 16,
};

/// Peak-RSS cap. The quick fleet's data is ~1 MB and per-stream ClaSS
/// state is window-bounded; a leak under sustained faulting is the only
/// way past this.
const VM_HWM_CAP_KB: u64 = 1_536 * 1024;

/// Timed-mode leak bound: after the first round has warmed allocator
/// pools and per-stream state, dozens more identical rounds may not
/// raise the peak RSS by more than this allowance.
const SOAK_HWM_DELTA_KB: u64 = 128 * 1024;

fn stream_values(preset: &Preset, k: usize, channel: usize, seed: u64) -> Vec<f64> {
    let half = preset.points / 2;
    build_series(
        format!("soak/{k}.{channel}"),
        "soak",
        &[
            (
                Regime::Sine {
                    period: 25.0 + ((k + channel) % 7) as f64,
                    amp: 1.0,
                    phase: 0.3 * channel as f64,
                },
                half,
            ),
            (
                Regime::Sawtooth {
                    period: 40.0 + ((k + channel) % 5) as f64,
                    amp: 1.2,
                },
                preset.points - half,
            ),
        ],
        NoiseSpec::benchmark(),
        seed ^ (k as u64).wrapping_mul(1 + channel as u64),
    )
    .values
}

fn kind_name(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::PanicAt { .. } => "panic_at",
        FaultKind::PanicInFlush => "panic_in_flush",
        FaultKind::NanBurst { .. } => "nan_burst",
        FaultKind::Flatline { .. } => "flatline",
        FaultKind::Stall { .. } => "stall",
        FaultKind::OverflowStorm { .. } => "overflow_storm",
    }
}

/// One round's audited outcome.
#[derive(Default)]
struct RoundOutcome {
    records: u64,
    rejected: u64,
    faults_by_kind: BTreeMap<&'static str, usize>,
    quarantines: Vec<(usize, u64, String)>,
}

/// Checks the fault-tolerance contract over one finished round: exact
/// per-stream ledgers, feeder-side accounting, and the survivability
/// floor (clean streams complete their full feed of `expected` records).
fn audit<Out>(
    results: &[StreamResult<Out>],
    outcome: &DriveOutcome,
    plan: &FaultPlan,
    expected: u64,
) -> RoundOutcome {
    let mut records: u64 = 0;
    let mut quarantines = Vec::new();
    for (k, r) in results.iter().enumerate() {
        records += r.records_in;
        assert_eq!(
            r.accounted(),
            r.pushed,
            "stream {k}: records_in({}) + drops({}) + quarantined_after({}) != pushed({})",
            r.records_in,
            r.drops,
            r.quarantined_after,
            r.pushed
        );
        assert_eq!(
            outcome.accepted[k], r.pushed,
            "stream {k}: feeder-side accepted disagrees with the ring's pushed"
        );
        assert_eq!(
            outcome.offered[k],
            outcome.accepted[k] + outcome.rejected[k],
            "stream {k}: offered != accepted + rejected"
        );
        if r.is_quarantined() {
            let (cause, at_record) = r.quarantine().expect("checked is_quarantined");
            quarantines.push((r.stream, at_record, cause.to_string()));
            assert!(
                plan.fault_for(k).is_some(),
                "stream {k} quarantined but the plan never targeted it: {:?}",
                r.state
            );
        } else if plan.is_clean(k) {
            // Survivability floor: untargeted streams complete in full.
            assert_eq!(r.records_in, expected, "clean stream {k} lost records");
            assert_eq!(r.drops, 0, "clean stream {k} dropped records");
        }
    }
    let mut faults_by_kind = BTreeMap::new();
    for f in &plan.faults {
        *faults_by_kind.entry(kind_name(&f.kind)).or_default() += 1;
    }
    RoundOutcome {
        records,
        rejected: outcome.rejected.iter().sum(),
        faults_by_kind,
        quarantines,
    }
}

/// The ring for stream `k`: overflow storms only reject under the
/// `error` policy; everything else rides the lossless default.
fn ring_for(plan: &FaultPlan, k: usize) -> RingConfig {
    if matches!(plan.fault_for(k), Some(FaultKind::OverflowStorm { .. })) {
        RingConfig::new(256, Backpressure::Error)
    } else {
        RingConfig::new(256, Backpressure::Block)
    }
}

struct RoundSpec<'a> {
    preset: &'a Preset,
    n_streams: usize,
    shards: usize,
    mv_channels: usize,
    seed: u64,
    density: f64,
}

/// Serves one seeded fleet to completion and audits it. Univariate
/// streams run `FaultingOperator<SegmenterOperator>` with the stream
/// guard; `mv_channels > 1` fuses that many channels per stream through
/// one ring with per-channel guards. If `stats_json` is set, a
/// [`SnapshotWriter`] follows this round's engine; its final write on
/// drop leaves the terminal snapshot for
/// `class-cli serve-status --snapshot`.
fn run_round(
    spec: &RoundSpec<'_>,
    metrics: Option<&MetricsServer>,
    stats_json: Option<&str>,
) -> RoundOutcome {
    let points = spec.preset.points;
    let records_per_stream = points * spec.mv_channels;
    let plan = FaultPlan::seeded(spec.seed, spec.n_streams, records_per_stream, spec.density);
    let mut data: Vec<Vec<f64>> = (0..spec.n_streams)
        .map(|k| {
            if spec.mv_channels > 1 {
                let channels: Vec<Vec<f64>> = (0..spec.mv_channels)
                    .map(|c| stream_values(spec.preset, k, c, spec.seed))
                    .collect();
                interleave_channels(&channels)
            } else {
                stream_values(spec.preset, k, 0, spec.seed)
            }
        })
        .collect();
    for (k, xs) in data.iter_mut().enumerate() {
        plan.corrupt(k, xs);
    }

    let window = spec.preset.window;
    let width = spec.preset.width;
    let base_cfg = move || {
        let mut cfg = ClassConfig::with_window_size(window);
        cfg.width = WidthSelection::Fixed(width);
        cfg.warmup = Some(window);
        cfg.log10_alpha = -15.0;
        cfg
    };

    let (results, outcome) = if spec.mv_channels > 1 {
        let channels = spec.mv_channels;
        serve_fleet(
            spec,
            metrics,
            stats_json,
            &plan,
            &data,
            |k| StreamOptions {
                ring: ring_for(&plan, k),
                name: Some(format!("soak-mv/{k}")),
                ..StreamOptions::default()
            },
            move || {
                let mut mcfg = MultivariateConfig::new(base_cfg(), channels);
                mcfg.channel_guard = Some(ChannelGuardConfig::new(4, 16));
                MultivariateSegmenterOperator::new(MultivariateClass::new(mcfg, channels))
            },
        )
    } else {
        serve_fleet(
            spec,
            metrics,
            stats_json,
            &plan,
            &data,
            |k| StreamOptions {
                ring: ring_for(&plan, k),
                guard: Some(GUARD),
                name: Some(format!("soak/{k}")),
                ..StreamOptions::default()
            },
            move || SegmenterOperator::new(ClassSegmenter::new(base_cfg())),
        )
    };
    audit(&results, &outcome, &plan, records_per_stream as u64)
}

/// Serves one fleet to completion: stream `k` registers with `options(k)`
/// and runs `build()` wrapped in its planned fault, and the plan's
/// feeder drives `data` through. Metrics and snapshots follow the engine.
fn serve_fleet<Op: Operator<In = f64, Out = u64>>(
    spec: &RoundSpec<'_>,
    metrics: Option<&MetricsServer>,
    stats_json: Option<&str>,
    plan: &FaultPlan,
    data: &[Vec<f64>],
    options: impl Fn(usize) -> StreamOptions,
    build: impl Fn() -> Op + Copy + Send,
) -> (Vec<StreamResult<u64>>, DriveOutcome) {
    let (results, outcome) = serve(EngineConfig::new(spec.shards), |engine| {
        if let Some(m) = metrics {
            m.attach(engine.stats_handle());
        }
        let _writer = stats_json.map(|path| {
            SnapshotWriter::start(
                engine.stats_handle(),
                path,
                std::time::Duration::from_millis(500),
            )
        });
        let handles: Vec<_> = (0..spec.n_streams)
            .map(|k| {
                let kind = plan.fault_for(k);
                engine.register_with(options(k), move || FaultingOperator::new(build(), kind))
            })
            .collect();
        drive(handles, data, plan)
    });
    let outcome = outcome.expect("no deadlock: the feeder must complete under faults");
    (results, outcome)
}

/// Mixes a round index into the base seed (SplitMix64 finalizer), so
/// every timed-mode round runs a distinct but replayable fault plan.
fn round_seed(seed: u64, round: u64) -> u64 {
    let mut x = seed.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const HELP: &str = "options: --preset quick|full --seed N --density F --shards N \
                    --streams N --minutes F --mv-channels C --metrics-addr HOST:PORT \
                    --stats-json PATH --bundle-out PATH\n";

fn main() {
    let mut preset = &QUICK;
    let mut seed: u64 = 0x50A6_C0DE;
    let mut density = 0.25f64;
    let mut shards = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let mut streams_override: Option<usize> = None;
    let mut minutes: Option<f64> = None;
    let mut mv_channels: usize = 1;
    let mut metrics_addr: Option<String> = None;
    let mut stats_json: Option<String> = None;
    let mut bundle_out: Option<String> = None;
    Flags::new()
        .help(HELP)
        .choice(
            "--preset",
            [("quick", &QUICK), ("full", &FULL)],
            &mut preset,
        )
        .parsed("--seed", &mut seed)
        .parsed("--density", &mut density)
        .at_least("--shards", 1, &mut shards)
        .optional("--streams", &mut streams_override)
        .optional("--minutes", &mut minutes)
        .at_least("--mv-channels", 1, &mut mv_channels)
        .optional("--metrics-addr", &mut metrics_addr)
        .optional("--stats-json", &mut stats_json)
        .optional("--bundle-out", &mut bundle_out)
        .parse_or_exit(std::env::args().skip(1));
    silence_injected_panics();

    let n_streams = streams_override.unwrap_or(preset.streams);
    let points = preset.points;
    let metrics = metrics_addr.map(|addr| match MetricsServer::bind(&addr) {
        Ok(server) => {
            eprintln!("serve_soak: metrics at http://{}/metrics", server.addr());
            server
        }
        Err(e) => {
            eprintln!("error: binding metrics endpoint {addr}: {e}");
            std::process::exit(1);
        }
    });
    eprintln!(
        "serve_soak: preset={} streams={n_streams} points/stream={points} mv_channels={mv_channels} \
         shards={shards} seed={seed} density={density} mode={}",
        preset.name,
        match minutes {
            Some(m) => format!("timed({m} min)"),
            None => "single-shot".to_string(),
        }
    );

    let started = std::time::Instant::now();
    let mut rounds = 0u64;
    let mut total = RoundOutcome::default();
    let mut quarantined = 0usize;
    let mut hwm_after_first: Option<u64> = None;
    let deadline =
        minutes.map(|m| started + std::time::Duration::from_secs_f64((m * 60.0).max(1.0)));
    loop {
        let spec = RoundSpec {
            preset,
            n_streams,
            shards,
            mv_channels,
            seed: if minutes.is_some() {
                round_seed(seed, rounds)
            } else {
                seed
            },
            density,
        };
        let o = run_round(&spec, metrics.as_ref(), stats_json.as_deref());
        rounds += 1;
        total.records += o.records;
        quarantined += o.quarantines.len();
        total.rejected += o.rejected;
        for (name, count) in o.faults_by_kind {
            *total.faults_by_kind.entry(name).or_default() += count;
        }
        total.quarantines = o.quarantines; // keep the latest round's detail
        if hwm_after_first.is_none() {
            hwm_after_first = vm_hwm_kb();
        }
        match deadline {
            Some(d) if std::time::Instant::now() < d => {
                eprintln!(
                    "serve_soak: round {rounds} done — {} records, {} quarantined, \
                     {:.0}s to deadline",
                    o.records,
                    total.quarantines.len(),
                    (d - std::time::Instant::now()).as_secs_f64()
                );
            }
            _ => break,
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let hwm = vm_hwm_kb();
    if let Some(kb) = hwm {
        assert!(
            kb < VM_HWM_CAP_KB,
            "peak RSS {kb} kB exceeds the {VM_HWM_CAP_KB} kB soak cap"
        );
    }
    let hwm_delta = match (hwm_after_first, hwm) {
        (Some(first), Some(last)) if rounds > 1 => {
            let delta = last.saturating_sub(first);
            assert!(
                delta <= SOAK_HWM_DELTA_KB,
                "peak RSS grew {delta} kB over {rounds} rounds \
                 (> {SOAK_HWM_DELTA_KB} kB leak bound)"
            );
            Some(delta)
        }
        _ => None,
    };

    let records_per_sec = total.records as f64 / elapsed.max(1e-9);
    let mut bundle = RunBundle::new("serve-soak").with_seed(seed);
    bundle.config("preset", preset.name);
    bundle.config("density", density);
    bundle.config("shards", shards);
    bundle.config("streams", n_streams);
    bundle.config("points_per_stream", points);
    bundle.config("mv_channels", mv_channels);
    bundle.config(
        "mode",
        match minutes {
            Some(m) => format!("timed:{m}"),
            None => "single-shot".to_string(),
        },
    );
    bundle.metric("rounds", rounds as f64);
    bundle.metric("records", total.records as f64);
    bundle.metric("quarantined", quarantined as f64);
    bundle.metric(
        "survived_last_round",
        (n_streams - total.quarantines.len()) as f64,
    );
    let faults: usize = total.faults_by_kind.values().sum();
    bundle.metric("faults", faults as f64);
    for (name, count) in &total.faults_by_kind {
        bundle.metric(&format!("faults.{name}"), *count as f64);
    }
    bundle.metric("elapsed_s", elapsed);
    bundle.metric("records_per_sec", records_per_sec);
    if let Some(kb) = hwm {
        bundle.metric("vm_hwm_kb", kb as f64);
    }
    if let Some(kb) = hwm_delta {
        bundle.metric("vm_hwm_delta_kb", kb as f64);
    }
    if let Some(path) = &bundle_out {
        if let Err(e) = bundle.write(path) {
            eprintln!("error: writing bundle {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("serve_soak: bundle at {path}");
    }

    for (stream, at_record, cause) in &total.quarantines {
        eprintln!("quarantined: stream {stream} at record {at_record}: {cause}");
    }
    if let Some(m) = &metrics {
        eprintln!(
            "serve_soak: metrics endpoint answered {} scrapes",
            m.scrapes()
        );
    }
    eprintln!(
        "serve_soak: OK — {} rounds, {}/{} streams quarantined in the last round \
         (all plan targets), {} records in {elapsed:.2}s, {} rejected at the edge",
        rounds,
        total.quarantines.len(),
        n_streams,
        total.records,
        total.rejected
    );
    print!("{}", bundle.render_json());
}
