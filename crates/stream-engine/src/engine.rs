//! The multi-stream serving engine: a sharded worker pool over bounded
//! SPSC ring buffers.
//!
//! The paper's throughput experiment (§4.4) deploys ClaSS inside Apache
//! Flink and shows feed rates far above real sensor rates. Flink scales
//! by *keyed sharding*: operators for many streams are multiplexed onto a
//! fixed set of task slots, records travel through bounded network
//! buffers, and no stream owns a thread. This module reproduces that
//! execution model:
//!
//! * [`serve`] opens an engine with `shards` worker threads. Serving any
//!   number of streams costs exactly `shards + 1` threads — the workers
//!   plus the caller's ingest thread; there is no per-stream source
//!   thread.
//! * Each registered stream is a **state machine** (its operator plus a
//!   ring consumer) hash-assigned to a shard and stepped by that shard's
//!   event loop in drained batches.
//! * A shard sleeps only while none of its streams has work, and wakes on
//!   work, not on a timer: registration, a push into an empty ring and a
//!   closing producer ring the shard's bell with the stream's id, and
//!   the shard visits only the streams rung (see [`crate::ring`]).
//! * Records travel through fixed-capacity [`crate::ring`] buffers whose
//!   full-ring behaviour is the per-stream [`crate::Backpressure`] policy
//!   (block / drop-oldest / error).
//! * [`ServingEngine::stats`] takes a live [`ServingStats`] snapshot —
//!   per-stream and per-shard p50/p99 latency, queue depth, and drop
//!   counts — while the engine runs. [`ServingEngine::stats_handle`]
//!   hands out a cloneable, `'static` [`StatsHandle`] to the same
//!   snapshots, so an exporter thread (see [`crate::metrics`]) can keep
//!   observing the engine from outside the serving scope, and
//!   [`ServingEngine::serve_metrics`] binds a Prometheus/JSON HTTP
//!   endpoint over it in one call.
//!
//! ## Fault tolerance
//!
//! A long-running deployment must survive a faulting stream, not die
//! with it. Three mechanisms contain faults to the stream that raised
//! them:
//!
//! * **Panic isolation + quarantine.** Every operator step and flush runs
//!   under [`std::panic::catch_unwind`]. A panicking operator moves its
//!   stream to [`StreamState::Quarantined`] with the panic message and
//!   the record index where processing stopped; the shard worker and all
//!   sibling streams keep running. A quarantined stream's ring keeps
//!   draining (so its producer never deadlocks) but the drained records
//!   are discarded and counted, preserving the accounting ledger
//!   `records_in + drops + quarantined_after == pushed` for every stream.
//! * **Input guards.** [`StreamOptions::guard`] installs a per-stream
//!   [`InputGuard`] that heals or skips non-finite values and quarantines
//!   on NaN bursts or flatlined (stuck-at) feeds before degraded data
//!   reaches operator state.
//! * **Typed ingest errors.** No producer sleeps and retries: a full
//!   ring either waits on its space bell ([`crate::Backpressure::Block`]) or
//!   refuses at once ([`crate::PushError::Overflow`] under
//!   [`crate::Backpressure::Error`]), and [`feed_all`] waits for ring space
//!   for at most a stall budget before it returns a typed
//!   [`IngestError`] instead of hanging on a wedged engine.
//!
//! ```
//! use stream_engine::{serve, EngineConfig, TumblingWindowMean};
//!
//! let (results, ()) = serve(EngineConfig::new(2), |engine| {
//!     let mut handles: Vec<_> = (0..8)
//!         .map(|_| engine.register(|| TumblingWindowMean::new(10)))
//!         .collect();
//!     for h in &mut handles {
//!         for v in 0..100 {
//!             h.push(v as f64).unwrap();
//!         }
//!     }
//! });
//! assert_eq!(results.len(), 8);
//! assert!(results.iter().all(|r| r.records_in == 100));
//! ```

use crate::guard::{GuardConfig, GuardTrip, GuardVerdict, InputGuard};
use crate::latency::{LatencyHistogram, ServingStats, ShardStats, StreamStats};
use crate::operator::Operator;
use crate::ring::{self, Bell, PushError, RingConfig, RingCounters};
use crate::Record;
use class_core::SplitMix64;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Records a shard worker moves out of a ring per lock acquisition.
const DRAIN_BATCH: usize = 256;
/// Records the bulk feeder pushes per ring visit.
const FEED_CHUNK: usize = 64;
/// How long [`feed_all`] waits for space in any of its rings before it
/// reports the engine as wedged.
const FEED_STALL: Duration = Duration::from_secs(20);
/// The key a shard's bell is rung with when its inbox closes; no stream
/// has it.
const INBOX_CLOSED: usize = usize::MAX;

/// Locks a mutex, recovering from poisoning. Every mutex in this crate
/// guards monitor, registry or ring state (latency histograms, quarantine
/// cells, connection lists, exporter sources, ring queues) whose updates
/// are single assignments, pushes, pops or merges made outside user code,
/// so a poisoned lock means some unrelated holder panicked while the data
/// itself is consistent; stats must keep flowing for surviving streams.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Engine-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads; streams are hash-partitioned across them.
    pub shards: usize,
    /// Default ring configuration for [`ServingEngine::register`].
    pub ring: RingConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            ring: RingConfig::default(),
        }
    }
}

impl EngineConfig {
    /// A config with `shards` workers and default rings.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// How a shard attributes operator time to the latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Timing {
    /// Two clock reads per record: exact per-record latencies. Right for
    /// operators whose step dominates a clock read (ClaSS: microseconds).
    #[default]
    PerRecord,
    /// Two clock reads per drained batch; the batch average is recorded
    /// for each record ([`LatencyHistogram::record_n`]). Right for
    /// nanosecond-scale operators the per-record clock would distort.
    Batch,
}

/// Per-stream registration options.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Ring capacity and backpressure policy.
    pub ring: RingConfig,
    /// Latency attribution granularity.
    pub timing: Timing,
    /// Pin to a specific shard (modulo the shard count) instead of the
    /// default hash assignment — for callers that balance load
    /// themselves (e.g. the eval matrix runner's bin packing).
    pub shard: Option<usize>,
    /// Degraded-input policy, consulted per record before the operator.
    /// `None` (the default) delivers values verbatim with zero overhead.
    pub guard: Option<GuardConfig>,
    /// Human-readable stream name, carried into [`StreamStats`] and the
    /// metrics exposition's `name` label (e.g. an archive file name).
    /// Defaults to `stream-<id>` so label sets stay stable without it.
    pub name: Option<String>,
}

/// Why a stream was taken out of service.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineCause {
    /// The operator panicked during `process` or `flush`; the payload's
    /// message is preserved.
    OperatorPanic {
        /// The panic payload, stringified.
        message: String,
    },
    /// The stream's [`InputGuard`] tripped on degraded input.
    InputGuard(GuardTrip),
}

impl std::fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineCause::OperatorPanic { message } => {
                write!(f, "operator panic: {message}")
            }
            QuarantineCause::InputGuard(trip) => write!(f, "input guard: {trip}"),
        }
    }
}

/// Lifecycle state of a served stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StreamState {
    /// Registered and being served.
    #[default]
    Active,
    /// Closed, drained, and flushed normally.
    Done,
    /// Taken out of service at `at_record`; subsequent input is drained
    /// from the ring and discarded (counted as `quarantined_after`) so
    /// the producer never wedges.
    Quarantined {
        /// What took the stream down.
        cause: QuarantineCause,
        /// Records processed before the fault — the index of the first
        /// record the operator did *not* complete.
        at_record: u64,
    },
}

impl StreamState {
    /// Whether the stream was quarantined.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, StreamState::Quarantined { .. })
    }

    /// Quarantine cause and fault position, if quarantined.
    pub fn quarantine(&self) -> Option<(&QuarantineCause, u64)> {
        match self {
            StreamState::Quarantined { cause, at_record } => Some((cause, *at_record)),
            _ => None,
        }
    }
}

impl std::fmt::Display for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamState::Active => write!(f, "active"),
            StreamState::Done => write!(f, "done"),
            StreamState::Quarantined { cause, at_record } => {
                write!(f, "quarantined at record {at_record}: {cause}")
            }
        }
    }
}

/// A typed ingest failure, returned instead of panicking the feeder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The stream's shard is gone; no record can be delivered.
    Disconnected {
        /// Stream whose consumer disappeared.
        stream: usize,
    },
    /// No stream accepted a single record for the full stall window: the
    /// engine is wedged (or an operator is blocked indefinitely).
    Stalled {
        /// Time waited for ring space with zero progress.
        waited: Duration,
        /// Streams that still had data to deliver.
        pending: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Disconnected { stream } => {
                write!(f, "stream {stream}: shard worker disconnected")
            }
            IngestError::Stalled { waited, pending } => write!(
                f,
                "ingest stalled: no progress on {pending} pending streams after {waited:?}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// Shared live-accounting cell, written by the shard and read by
/// [`ServingEngine::stats`].
///
/// Ledger counters cross threads with release/acquire ordering: the
/// shard publishes `records_in` / `quarantined_after` (and the ring its
/// `drops`) with `Release` stores, and [`StatsRegistry::snapshot`] reads
/// them with `Acquire` loads *before* reading `pushed` — so a live
/// snapshot always satisfies
/// `records_in + drops + quarantined_after <= pushed` even mid-batch
/// (every consumed or evicted record's push happens-before the counter
/// value the snapshot observed).
#[derive(Debug, Default)]
struct StreamMonitor {
    id: usize,
    shard: usize,
    name: String,
    records_in: AtomicU64,
    quarantined_after: AtomicU64,
    healed: AtomicU64,
    skipped: AtomicU64,
    done: AtomicBool,
    /// Rung by the shard once it has set `done`; a detach waits on it.
    retired: Bell,
    quarantine: Mutex<Option<(QuarantineCause, u64)>>,
    latency: Mutex<LatencyHistogram>,
    counters: Arc<RingCounters>,
}

impl StreamMonitor {
    fn state(&self) -> StreamState {
        if let Some((cause, at_record)) = lock_recover(&self.quarantine).clone() {
            return StreamState::Quarantined { cause, at_record };
        }
        if self.done.load(Ordering::Relaxed) {
            StreamState::Done
        } else {
            StreamState::Active
        }
    }
}

/// The engine's shared monitor table plus serving clock. Lives behind an
/// `Arc` with no borrowed data, so [`StatsHandle`]s cloned from it are
/// `'static`: a metrics exporter keeps snapshotting (final, frozen
/// stats) even after [`serve`] has returned and the workers are gone.
#[derive(Debug)]
struct StatsRegistry {
    shards: usize,
    started: Instant,
    monitors: Mutex<Vec<Arc<StreamMonitor>>>,
}

impl StatsRegistry {
    fn new(shards: usize) -> Self {
        Self {
            shards,
            started: Instant::now(),
            monitors: Mutex::new(Vec::new()),
        }
    }

    /// Looks up one stream's monitor by id.
    fn monitor(&self, id: usize) -> Option<Arc<StreamMonitor>> {
        lock_recover(&self.monitors)
            .iter()
            .find(|m| m.id == id)
            .cloned()
    }

    /// Takes a consistent-enough live snapshot (see [`StreamMonitor`]
    /// for the ordering contract that keeps the ledger inequality true).
    fn snapshot(&self) -> ServingStats {
        let shards = self.shards;
        let monitors: Vec<Arc<StreamMonitor>> = lock_recover(&self.monitors).clone();
        let uptime = self.started.elapsed();
        let mut streams = Vec::with_capacity(monitors.len());
        let mut shard_hists = vec![LatencyHistogram::new(); shards];
        let mut shard_stats: Vec<ShardStats> = (0..shards)
            .map(|shard| ShardStats {
                shard,
                streams: 0,
                active: 0,
                quarantined: 0,
                records_in: 0,
                drops: 0,
                queue_depth: 0,
                p50: Duration::ZERO,
                p99: Duration::ZERO,
            })
            .collect();
        for m in monitors.iter() {
            let hist = lock_recover(&m.latency).clone();
            // Ledger left-hand side first (Acquire), `pushed` last: any
            // record counted below was pushed before these loads, so the
            // later `pushed` read can only be >= the sum.
            let records_in = m.records_in.load(Ordering::Acquire);
            let drops = m.counters.drops.load(Ordering::Acquire);
            let quarantined_after = m.quarantined_after.load(Ordering::Acquire);
            let pushed = m.counters.pushed.load(Ordering::Acquire);
            let queue_depth = m.counters.depth();
            let done = m.done.load(Ordering::Relaxed);
            let state = m.state();
            let agg = &mut shard_stats[m.shard];
            agg.streams += 1;
            agg.active += usize::from(!done);
            agg.quarantined += usize::from(state.is_quarantined());
            agg.records_in += records_in;
            agg.drops += drops;
            agg.queue_depth += queue_depth;
            shard_hists[m.shard].merge(&hist);
            streams.push(StreamStats {
                stream: m.id,
                name: m.name.clone(),
                shard: m.shard,
                records_in,
                drops,
                quarantined_after,
                pushed,
                healed: m.healed.load(Ordering::Relaxed),
                skipped: m.skipped.load(Ordering::Relaxed),
                queue_depth,
                done,
                state,
                p50: hist.quantile(0.5),
                p99: hist.quantile(0.99),
                mean: hist.mean(),
            });
        }
        // Concurrent registrars may interleave monitor insertion, so the
        // table order is not guaranteed to be id order; the snapshot is.
        streams.sort_by_key(|s| s.stream);
        for (agg, hist) in shard_stats.iter_mut().zip(&shard_hists) {
            agg.p50 = hist.quantile(0.5);
            agg.p99 = hist.quantile(0.99);
        }
        ServingStats {
            streams,
            shards: shard_stats,
            uptime,
        }
    }
}

/// A cloneable, `'static` window onto a serving engine's live stats.
///
/// Obtained from [`ServingEngine::stats_handle`]; every call to
/// [`StatsHandle::stats`] takes a fresh [`ServingStats`] snapshot. The
/// handle stays valid after [`serve`] returns — it then reports the
/// final, frozen accounting — which is what lets a metrics endpoint or
/// snapshot writer run on a plain `std::thread::spawn` thread.
#[derive(Debug, Clone)]
pub struct StatsHandle {
    registry: Arc<StatsRegistry>,
}

impl StatsHandle {
    /// Takes a live snapshot (identical to [`ServingEngine::stats`]).
    pub fn stats(&self) -> ServingStats {
        self.registry.snapshot()
    }
}

/// The producer end of one registered stream. Push records with
/// [`StreamHandle::push`] / [`StreamHandle::try_feed`]; drop the handle
/// to close the stream (the shard drains the ring, flushes the operator,
/// and reports the stream's [`StreamResult`]).
#[derive(Debug)]
pub struct StreamHandle {
    pub(crate) producer: ring::Producer<Record<f64>>,
    id: usize,
    t: u64,
    scratch: Vec<Record<f64>>,
}

impl StreamHandle {
    /// Stream id (registration order); results are sorted by it.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Pushes one observation, stamping it with the next source
    /// position. Applies the stream's backpressure policy: `Block`
    /// waits, `DropOldest` always succeeds (evicting), `Error` fails
    /// with a typed overflow. The source position advances on every
    /// call — under `Error` a rejected observation's position is
    /// consumed, like a sensor reading lost at the edge.
    pub fn push(&mut self, value: f64) -> Result<(), PushError> {
        let rec = Record::new(self.t, value);
        self.t += 1;
        self.producer.push(rec)
    }

    /// Non-blocking bulk push of up to one ring capacity of
    /// observations under one ring lock; returns how many were accepted
    /// (the source position advances by exactly that many). Never
    /// blocks and never reports overflow — it accepts what fits
    /// (everything offered, under `DropOldest`). Callers that want a
    /// smaller granularity (e.g. fairness across many streams, as in
    /// [`feed_all`]) pass a smaller slice.
    pub fn try_feed(&mut self, values: &[f64]) -> Result<usize, PushError> {
        let n = self.feed_unrung(values)?;
        self.producer.wake();
        Ok(n)
    }

    /// [`StreamHandle::try_feed`] that leaves the shard's wake-up owed
    /// (see [`ring::Producer::feed_unrung`]).
    pub(crate) fn feed_unrung(&mut self, values: &[f64]) -> Result<usize, PushError> {
        self.scratch.clear();
        self.scratch.extend(
            values
                .iter()
                .take(self.producer.capacity())
                .enumerate()
                .map(|(i, &v)| Record::new(self.t + i as u64, v)),
        );
        let n = self.producer.feed_unrung(&self.scratch)?;
        self.t += n as u64;
        Ok(n)
    }

    /// Records currently queued in this stream's ring.
    pub fn queue_depth(&self) -> usize {
        self.producer.depth()
    }

    /// Records evicted so far by the `drop-oldest` policy.
    pub fn drops(&self) -> u64 {
        self.producer.drops()
    }

    /// Records accepted into the ring so far (rejected pushes excluded).
    pub fn pushed(&self) -> u64 {
        self.producer.pushed()
    }

    /// Closes the stream (equivalent to dropping the handle).
    pub fn close(self) {}
}

/// Everything a shard needs to start serving one stream. The operator is
/// built *on* the shard via the factory, so it never crosses threads.
struct NewStream<'env, Op> {
    id: usize,
    consumer: ring::Consumer<Record<f64>>,
    factory: Box<dyn FnOnce() -> Op + Send + 'env>,
    monitor: Arc<StreamMonitor>,
    timing: Timing,
    guard: Option<GuardConfig>,
}

/// Final accounting for one served stream. The ledger is exact for every
/// stream, faulted or not:
/// `records_in + drops + quarantined_after == pushed`.
#[derive(Debug, Clone)]
pub struct StreamResult<Out> {
    /// Stream id (registration order).
    pub stream: usize,
    /// Shard that served the stream.
    pub shard: usize,
    /// Output records emitted by the operator (flush included; for a
    /// quarantined stream, whatever was emitted before the fault).
    pub output: Vec<Record<Out>>,
    /// Records consumed while healthy: operator-processed plus
    /// guard-healed/skipped.
    pub records_in: u64,
    /// Records evicted by the `drop-oldest` backpressure policy. For a
    /// lossless policy this is 0 and `records_in` equals the pushes.
    pub drops: u64,
    /// Records drained and discarded after (and including) the fault.
    /// Zero for a healthy stream.
    pub quarantined_after: u64,
    /// Records accepted into the ring over the stream's lifetime.
    pub pushed: u64,
    /// Non-finite values replaced by the input guard.
    pub healed: u64,
    /// Records the input guard dropped before the operator.
    pub skipped: u64,
    /// Terminal state: [`StreamState::Done`] or
    /// [`StreamState::Quarantined`].
    pub state: StreamState,
    /// Operator-busy wall time (processing + flush, excluding queueing).
    pub busy: Duration,
    /// Per-record operator latency distribution.
    pub latency: LatencyHistogram,
}

impl<Out> StreamResult<Out> {
    /// Operator throughput in records per second of busy time.
    pub fn throughput(&self) -> f64 {
        self.records_in as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    /// Whether the stream ended quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.state.is_quarantined()
    }

    /// Quarantine cause and fault position, if quarantined.
    pub fn quarantine(&self) -> Option<(&QuarantineCause, u64)> {
        self.state.quarantine()
    }

    /// Left-hand side of the accounting ledger; equals
    /// [`StreamResult::pushed`] for every completed stream.
    pub fn accounted(&self) -> u64 {
        self.records_in + self.drops + self.quarantined_after
    }
}

/// A running engine, usable only inside [`serve`]'s body closure.
///
/// Registration (and pushing, via the returned [`StreamHandle`]s)
/// happens on the caller's thread; the `shards` workers step the stream
/// state machines. All handles must be dropped before the body returns —
/// an open handle means an unfinished stream and [`serve`] would wait
/// for it forever.
pub struct ServingEngine<'scope, 'env, Op>
where
    Op: Operator<In = f64>,
    Op::Out: Send,
{
    registrar: Registrar<'env, Op>,
    workers: Vec<std::thread::ScopedJoinHandle<'scope, Vec<StreamResult<Op::Out>>>>,
}

impl<'scope, 'env, Op> ServingEngine<'scope, 'env, Op>
where
    Op: Operator<In = f64> + 'env,
    Op::Out: Send + 'env,
{
    fn start(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        config: EngineConfig,
    ) -> ServingEngine<'scope, 'env, Op> {
        let shards = config.shards.max(1);
        let bells: Vec<Arc<Bell>> = (0..shards).map(|_| Arc::default()).collect();
        let (inboxes, workers) = bells
            .iter()
            .map(|bell| {
                let (tx, rx) = mpsc::channel();
                let bell = Arc::clone(bell);
                (tx, scope.spawn(move || shard_worker(rx, &bell)))
            })
            .unzip();
        let shared = Arc::new(EngineShared {
            inboxes,
            bells,
            registry: Arc::new(StatsRegistry::new(shards)),
            next_id: AtomicUsize::new(0),
            default_ring: config.ring,
        });
        ServingEngine {
            registrar: Registrar { shared },
            workers,
        }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Registers a stream with the engine-default ring and timing; the
    /// operator is built on the owning shard via `factory`.
    pub fn register(&mut self, factory: impl FnOnce() -> Op + Send + 'env) -> StreamHandle {
        self.register_with(
            StreamOptions {
                ring: self.registrar.default_ring(),
                ..StreamOptions::default()
            },
            factory,
        )
    }

    /// Registers a stream with explicit per-stream options.
    pub fn register_with(
        &mut self,
        opts: StreamOptions,
        factory: impl FnOnce() -> Op + Send + 'env,
    ) -> StreamHandle {
        self.register_stream(opts, factory)
            .expect("registration inbox open: workers hold receivers until join()")
    }

    /// Registers a stream at runtime, returning a typed error instead of
    /// panicking if the engine is no longer accepting registrations.
    /// Equivalent to [`ServingEngine::register_with`] otherwise.
    pub fn register_stream(
        &mut self,
        opts: StreamOptions,
        factory: impl FnOnce() -> Op + Send + 'env,
    ) -> Result<StreamHandle, RegisterError> {
        self.registrar.register_stream(opts, factory)
    }

    /// Detaches a stream from the live engine: closes its handle, waits
    /// for the owning shard to drain, flush, and retire it, and returns
    /// the stream's final (exact) ledger. The engine keeps serving every
    /// other stream throughout — this is the shard-safe handoff the
    /// network tier uses when a producer sends DETACH.
    pub fn detach_stream(&self, handle: StreamHandle) -> DetachReport {
        self.registrar.detach_stream(handle)
    }

    /// A cloneable, `Send` registration surface over this engine.
    ///
    /// A [`Registrar`] can leave the body closure's thread — the network
    /// ingest tier hands one clone to each producer connection thread —
    /// and registers/detaches streams on the live engine exactly like
    /// [`ServingEngine::register_stream`] / [`ServingEngine::detach_stream`].
    ///
    /// **Shutdown contract:** every clone must be dropped before the
    /// [`serve`] body returns. Shard workers keep running while any
    /// registrar holds their inboxes open, so a leaked clone would make
    /// `serve` wait forever.
    pub fn registrar(&self) -> Registrar<'env, Op> {
        self.registrar.clone()
    }

    /// Takes a live snapshot of per-stream and per-shard accounting.
    pub fn stats(&self) -> ServingStats {
        self.registrar.shared.registry.snapshot()
    }

    /// A cloneable, `'static` [`StatsHandle`] over the same snapshots as
    /// [`ServingEngine::stats`] — hand it to exporter threads (it stays
    /// valid, frozen, after [`serve`] returns).
    pub fn stats_handle(&self) -> StatsHandle {
        self.registrar.stats_handle()
    }

    /// Binds a [`crate::metrics::MetricsServer`] on `addr` (e.g.
    /// `"127.0.0.1:9599"`, port `0` for ephemeral) and attaches this
    /// engine's stats to it: `GET /metrics` serves Prometheus text
    /// exposition, `GET /stats.json` the JSON snapshot. The returned
    /// server keeps serving (final stats) until dropped.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<crate::metrics::MetricsServer> {
        let server = crate::metrics::MetricsServer::bind(addr)?;
        server.attach(self.stats_handle());
        Ok(server)
    }

    fn join(self) -> Vec<StreamResult<Op::Out>> {
        let registered = self.registrar.shared.next_id.load(Ordering::Relaxed);
        // Dropping the last registrar closes the inboxes: workers exit once
        // every assigned stream is closed and drained.
        drop(self.registrar);
        let mut results: Vec<StreamResult<Op::Out>> = Vec::with_capacity(registered);
        for w in self.workers {
            results.extend(
                w.join().expect(
                    "shard workers never panic: operator faults are caught and quarantined",
                ),
            );
        }
        results.sort_by_key(|r| r.stream);
        results
    }
}

/// Registration refused: the engine is shutting down and its shard
/// workers no longer accept new streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterError;

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream registration refused: the engine is shutting down"
        )
    }
}

impl std::error::Error for RegisterError {}

/// Final per-stream accounting returned by a detach. The ledger is
/// exact: `records_in + drops + quarantined_after == pushed` — the
/// shard has drained, flushed, and retired the stream before the
/// detach call returns.
#[derive(Debug, Clone)]
pub struct DetachReport {
    /// Stream id (registration order).
    pub stream: usize,
    /// Records consumed while healthy.
    pub records_in: u64,
    /// Records evicted by the `drop-oldest` policy.
    pub drops: u64,
    /// Records drained and discarded after a fault.
    pub quarantined_after: u64,
    /// Records accepted into the ring over the stream's lifetime.
    pub pushed: u64,
    /// Terminal state: [`StreamState::Done`] or quarantined.
    pub state: StreamState,
}

/// What every [`Registrar`] clone (the engine's own included) shares:
/// the shards' inboxes and bells, the stats registry and the id counter.
struct EngineShared<'env, Op> {
    inboxes: Vec<mpsc::Sender<NewStream<'env, Op>>>,
    bells: Vec<Arc<Bell>>,
    registry: Arc<StatsRegistry>,
    next_id: AtomicUsize,
    default_ring: RingConfig,
}

impl<Op> Drop for EngineShared<'_, Op> {
    /// The last owner closes the inboxes, then rings every shard so a
    /// parked worker sees the close.
    fn drop(&mut self) {
        self.inboxes.clear();
        for bell in &self.bells {
            bell.ring(INBOX_CLOSED);
        }
    }
}

/// A cloneable, `Send` registration surface over a live engine — see
/// [`ServingEngine::registrar`] for semantics and the shutdown contract.
pub struct Registrar<'env, Op>
where
    Op: Operator<In = f64>,
    Op::Out: Send,
{
    shared: Arc<EngineShared<'env, Op>>,
}

impl<'env, Op> Clone for Registrar<'env, Op>
where
    Op: Operator<In = f64>,
    Op::Out: Send,
{
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<'env, Op> std::fmt::Debug for Registrar<'env, Op>
where
    Op: Operator<In = f64>,
    Op::Out: Send,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registrar")
            .field("shards", &self.shared.inboxes.len())
            .field("default_ring", &self.shared.default_ring)
            .finish()
    }
}

impl<'env, Op> Registrar<'env, Op>
where
    Op: Operator<In = f64> + 'env,
    Op::Out: Send + 'env,
{
    /// Registers a stream on the live engine (see
    /// [`ServingEngine::register_stream`]).
    pub fn register_stream(
        &self,
        opts: StreamOptions,
        factory: impl FnOnce() -> Op + Send + 'env,
    ) -> Result<StreamHandle, RegisterError> {
        let sh = &*self.shared;
        let id = sh.next_id.fetch_add(1, Ordering::Relaxed);
        let shards = sh.inboxes.len();
        let shard = match opts.shard {
            Some(s) => s % shards,
            // The first SplitMix64 output seeded with the id: a cheap,
            // well-mixed hash, so consecutive ids spread across shards.
            None => (SplitMix64::new(id as u64).next_u64() % shards as u64) as usize,
        };
        let (producer, consumer) = ring::ring_on(opts.ring, Arc::clone(&sh.bells[shard]), id);
        let monitor = Arc::new(StreamMonitor {
            id,
            shard,
            name: opts.name.unwrap_or_else(|| format!("stream-{id}")),
            counters: producer.counters(),
            ..StreamMonitor::default()
        });
        lock_recover(&sh.registry.monitors).push(Arc::clone(&monitor));
        let sent = sh.inboxes[shard].send(NewStream {
            id,
            consumer,
            factory: Box::new(factory),
            monitor,
            timing: opts.timing,
            guard: opts.guard,
        });
        if sent.is_err() {
            // The worker is gone (engine tearing down): undo the monitor so
            // the registry never advertises a stream nobody serves.
            lock_recover(&sh.registry.monitors).retain(|m| m.id != id);
            return Err(RegisterError);
        }
        sh.bells[shard].ring(id);
        Ok(StreamHandle {
            producer,
            id,
            t: 0,
            scratch: Vec::with_capacity(FEED_CHUNK),
        })
    }

    /// Detaches a stream and waits for its shard to retire it (see
    /// [`ServingEngine::detach_stream`]).
    pub fn detach_stream(&self, handle: StreamHandle) -> DetachReport {
        let id = handle.id();
        let monitor = self
            .shared
            .registry
            .monitor(id)
            .expect("a live StreamHandle always has a registered monitor");
        drop(handle); // closes the ring: the shard drains, flushes, retires
        while !monitor.done.load(Ordering::Acquire) {
            monitor.retired.wait(&mut Vec::new(), None);
        }
        // Acquire on `done` paired with the shard's Release store makes the
        // final counter values below visible: the ledger is exact.
        DetachReport {
            stream: id,
            records_in: monitor.records_in.load(Ordering::Acquire),
            drops: monitor.counters.drops.load(Ordering::Acquire),
            quarantined_after: monitor.quarantined_after.load(Ordering::Acquire),
            pushed: monitor.counters.pushed.load(Ordering::Acquire),
            state: monitor.state(),
        }
    }

    /// The engine's default ring configuration, for callers (the wire
    /// REGISTER path) that let the engine pick capacity/policy.
    pub fn default_ring(&self) -> RingConfig {
        self.shared.default_ring
    }

    /// A cloneable, `'static` stats handle over the same engine.
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            registry: Arc::clone(&self.shared.registry),
        }
    }
}

/// Opens a serving engine, runs `body` with it (register streams, push
/// records, snapshot stats), then drains every stream and returns all
/// [`StreamResult`]s (sorted by stream id) alongside the body's return
/// value. The engine's worker threads live exactly as long as this call.
pub fn serve<'env, Op, R>(
    config: EngineConfig,
    body: impl for<'scope> FnOnce(&mut ServingEngine<'scope, 'env, Op>) -> R,
) -> (Vec<StreamResult<Op::Out>>, R)
where
    Op: Operator<In = f64> + 'env,
    Op::Out: Send + 'env,
{
    std::thread::scope(|scope| {
        let mut engine = ServingEngine::start(scope, config);
        let ret = body(&mut engine);
        (engine.join(), ret)
    })
}

/// Per-stream ingest accounting from one [`feed_all`] run.
#[derive(Debug, Clone, Default)]
pub struct FeedReport {
    /// Records accepted per stream, indexed like the handles.
    pub pushed: Vec<u64>,
    /// No-progress rounds after which the feeder waited for ring space
    /// (0 = never starved).
    pub backoff_rounds: u64,
}

impl FeedReport {
    /// Total records accepted across all streams.
    pub fn total_pushed(&self) -> u64 {
        self.pushed.iter().sum()
    }
}

/// Gives all `handles` one space bell, rung with a handle's index
/// whenever a drain frees space in its full ring, so a feeder can wait
/// for all at once.
pub(crate) fn share_space(handles: &mut [StreamHandle]) -> Arc<Bell> {
    let bell = Arc::new(Bell::default());
    for (i, h) in handles.iter_mut().enumerate() {
        h.producer.share_space(&bell, i);
    }
    bell
}

/// Drives many in-memory streams to completion through their handles:
/// non-blocking round-robin bulk pushes, so one full ring never stalls
/// the others (no head-of-line blocking), with each handle closed the
/// moment its data is exhausted so its shard can flush early. `handles`
/// and `data` are matched by index.
///
/// A full ring leaves the rotation until a drain frees space in it; with
/// every unfinished ring full the feeder waits. If no ring gains space
/// for 20 s, the engine is wedged and `feed_all` returns
/// [`IngestError::Stalled`] (a quarantined stream keeps draining, so it
/// never stalls the feeder).
pub fn feed_all(
    mut handles: Vec<StreamHandle>,
    data: &[&[f64]],
) -> Result<FeedReport, IngestError> {
    assert_eq!(
        handles.len(),
        data.len(),
        "one data slice per stream handle"
    );
    let space = share_space(&mut handles);
    let mut slots: Vec<Option<StreamHandle>> = handles.into_iter().map(Some).collect();
    let mut cursors = vec![0usize; data.len()];
    let mut remaining = slots.len();
    let mut report = FeedReport {
        pushed: vec![0; data.len()],
        ..FeedReport::default()
    };
    // Streams whose ring may have room, in visiting order, and the ones
    // the space bell named since the last look.
    let mut ready: VecDeque<usize> = (0..slots.len()).collect();
    let mut queued = vec![true; slots.len()];
    let mut rung: Vec<usize> = Vec::new();
    while remaining > 0 {
        for i in rung.drain(..) {
            if !queued[i] {
                queued[i] = true;
                ready.push_back(i);
            }
        }
        for _ in 0..ready.len() {
            let i = ready
                .pop_front()
                .expect("visiting at most ready.len() streams");
            let handle = slots[i].as_mut().expect("queued streams are open");
            let (xs, at) = (data[i], cursors[i]);
            let offered = &xs[at..(at + FEED_CHUNK).min(xs.len())];
            // try_feed accepts what fits: its only error is a disconnect.
            let Ok(n) = handle.try_feed(offered) else {
                let stream = handle.id();
                return Err(IngestError::Disconnected { stream });
            };
            cursors[i] += n;
            report.pushed[i] += n as u64;
            if cursors[i] == xs.len() {
                slots[i] = None; // close: the shard finishes the stream
                remaining -= 1;
            } else if n == offered.len() {
                ready.push_back(i);
            } else {
                // Full now: the drain that frees space rings the bell.
                queued[i] = false;
            }
        }
        let idle = ready.is_empty() && remaining > 0;
        report.backoff_rounds += u64::from(idle);
        let timeout = if idle { FEED_STALL } else { Duration::ZERO };
        space.wait(&mut rung, Some(timeout));
        if idle && rung.is_empty() {
            return Err(IngestError::Stalled {
                waited: FEED_STALL,
                pending: remaining,
            });
        }
    }
    Ok(report)
}

/// One stream's live state on its shard. `op` is `None` once the stream
/// is quarantined (the faulted operator is dropped immediately, under
/// its own panic boundary).
struct ActiveStream<Op: Operator<In = f64>> {
    id: usize,
    consumer: ring::Consumer<Record<f64>>,
    op: Option<Op>,
    guard: Option<InputGuard>,
    timing: Timing,
    output: Vec<Record<Op::Out>>,
    records_in: u64,
    quarantined_after: u64,
    quarantine: Option<(QuarantineCause, u64)>,
    busy: Duration,
    monitor: Arc<StreamMonitor>,
    /// On the shard's run list (so a second ring does not add it twice).
    scheduled: bool,
}

impl<Op: Operator<In = f64>> ActiveStream<Op> {
    /// Moves the stream to quarantine: publishes the cause, drops the
    /// operator behind a panic boundary (a faulting operator may panic
    /// again in `Drop`), and from here on the shard drains-and-discards
    /// the ring so the producer never wedges.
    fn enter_quarantine(&mut self, cause: QuarantineCause) {
        let at_record = self.records_in;
        *lock_recover(&self.monitor.quarantine) = Some((cause.clone(), at_record));
        self.quarantine = Some((cause, at_record));
        let op = self.op.take();
        let _ = catch_unwind(AssertUnwindSafe(move || drop(op)));
    }
}

/// Stringifies a panic payload (the common `&str` / `String` cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

/// Steps one drained batch through the stream's guard and operator under
/// a panic boundary, updating all per-stream accounting. On a fault
/// (operator panic or guard trip) the stream enters quarantine: records
/// consumed before the fault stay in `records_in`, the faulting record
/// and the rest of the batch count into `quarantined_after`.
///
/// `AssertUnwindSafe` invariant: on unwind the operator (the only
/// not-unwind-safe capture) is dropped without being touched again —
/// `enter_quarantine` takes it straight into a guarded `drop` — so no
/// code ever observes its possibly-inconsistent state.
fn step_batch<Op>(st: &mut ActiveStream<Op>, batch: &mut Vec<Record<f64>>, n: usize)
where
    Op: Operator<In = f64>,
{
    let done = Cell::new(0u64);
    let stepped = Cell::new(0u64);
    let trip: Cell<Option<GuardTrip>> = Cell::new(None);
    // Record into a batch-local histogram so the monitor lock is held
    // for a merge, not across up to DRAIN_BATCH operator calls — a
    // stats() snapshot never waits on a processing batch.
    let mut local = LatencyHistogram::new();
    let mut busy = Duration::ZERO;
    let timing = st.timing;
    let op = st
        .op
        .as_mut()
        .expect("step_batch is only called on healthy streams (op present)");
    let output = &mut st.output;
    let mut guard = st.guard.as_mut();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for rec in batch.drain(..) {
            let verdict = match guard.as_deref_mut() {
                Some(g) => g.inspect(rec.value),
                None => GuardVerdict::Pass(rec.value),
            };
            match verdict {
                GuardVerdict::Pass(value) => {
                    match timing {
                        Timing::PerRecord => {
                            let s0 = Instant::now();
                            op.process(Record::new(rec.timestamp, value), output);
                            let dt = s0.elapsed();
                            busy += dt;
                            local.record(dt);
                        }
                        Timing::Batch => op.process(Record::new(rec.timestamp, value), output),
                    }
                    stepped.set(stepped.get() + 1);
                }
                GuardVerdict::Skip => {}
                GuardVerdict::Trip(t) => {
                    trip.set(Some(t));
                    return;
                }
            }
            done.set(done.get() + 1);
        }
    }));
    if timing == Timing::Batch {
        let dt = t0.elapsed();
        busy += dt;
        local.record_n(dt, stepped.get());
    }
    st.busy += busy;
    st.records_in += done.get();
    // Release pairs with the Acquire loads in `StatsRegistry::snapshot`:
    // the consumed records' pushes happen-before this store, so any
    // snapshot that sees it also sees at least that many pushes.
    st.monitor
        .records_in
        .store(st.records_in, Ordering::Release);
    lock_recover(&st.monitor.latency).merge(&local);
    if let Some(g) = st.guard.as_ref() {
        st.monitor.healed.store(g.healed(), Ordering::Relaxed);
        st.monitor.skipped.store(g.skipped(), Ordering::Relaxed);
    }
    let cause = match outcome {
        Ok(()) => trip.take().map(QuarantineCause::InputGuard),
        Err(payload) => Some(QuarantineCause::OperatorPanic {
            message: panic_message(payload),
        }),
    };
    if let Some(cause) = cause {
        // The faulting record and the rest of the batch were consumed
        // from the ring but never completed: they count as quarantined.
        st.quarantined_after += n as u64 - done.get();
        st.monitor
            .quarantined_after
            .store(st.quarantined_after, Ordering::Release);
        st.enter_quarantine(cause);
    }
}

/// Flushes a closed, drained stream (a panicking flush quarantines it),
/// marks it done, wakes a detach waiting on it, and returns its result.
fn retire<Op>(mut st: ActiveStream<Op>) -> StreamResult<Op::Out>
where
    Op: Operator<In = f64>,
{
    if st.quarantine.is_none() {
        let op = st
            .op
            .as_mut()
            .expect("healthy streams keep their operator until flush");
        let output = &mut st.output;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| op.flush(output)));
        st.busy += t0.elapsed();
        if let Err(payload) = outcome {
            st.enter_quarantine(QuarantineCause::OperatorPanic {
                message: panic_message(payload),
            });
        }
    }
    // Release pairs with a detach's Acquire load of `done`: once the close
    // is observed, every final counter store above is too, so the detach
    // report's ledger is exact.
    st.monitor.done.store(true, Ordering::Release);
    st.monitor.retired.ring(st.id);
    let latency = lock_recover(&st.monitor.latency).clone();
    let state = match &st.quarantine {
        Some((cause, at_record)) => StreamState::Quarantined {
            cause: cause.clone(),
            at_record: *at_record,
        },
        None => StreamState::Done,
    };
    StreamResult {
        stream: st.id,
        shard: st.monitor.shard,
        output: st.output,
        records_in: st.records_in,
        drops: st.monitor.counters.drops.load(Ordering::Relaxed),
        quarantined_after: st.quarantined_after,
        pushed: st.monitor.counters.pushed.load(Ordering::Relaxed),
        healed: st.guard.as_ref().map_or(0, |g| g.healed()),
        skipped: st.guard.as_ref().map_or(0, |g| g.skipped()),
        state,
        busy: st.busy,
        latency,
    }
}

/// The shard event loop: accept registrations, visit the streams whose
/// rings rang (registered, gained data, closed) in round-robin order,
/// draining and stepping each, flush and retire finished streams, and
/// wait on the shard's bell when no stream has work. Operator faults
/// quarantine their stream (never the shard), so this function itself
/// never panics. Returns the shard's stream results.
fn shard_worker<'env, Op>(
    inbox: mpsc::Receiver<NewStream<'env, Op>>,
    bell: &Bell,
) -> Vec<StreamResult<Op::Out>>
where
    Op: Operator<In = f64>,
    Op::Out: Send,
{
    let mut active: HashMap<usize, ActiveStream<Op>> = HashMap::new();
    // Streams with work, in visiting order, and the keys rung since the
    // last look at the bell.
    let mut run: VecDeque<usize> = VecDeque::new();
    let mut rung: Vec<usize> = Vec::new();
    let mut finished: Vec<StreamResult<Op::Out>> = Vec::new();
    let mut batch: Vec<Record<f64>> = Vec::with_capacity(DRAIN_BATCH);
    let mut inbox_open = true;
    loop {
        // A registration is sent before its id rings, so every rung id
        // is known once the inbox is drained.
        while inbox_open {
            match inbox.try_recv() {
                Ok(ns) => {
                    // The factory runs under the same panic boundary as
                    // the operator it builds: a panicking factory
                    // quarantines its stream at record 0.
                    let built = catch_unwind(AssertUnwindSafe(ns.factory));
                    let mut st = ActiveStream {
                        id: ns.id,
                        consumer: ns.consumer,
                        op: None,
                        guard: ns.guard.map(InputGuard::new),
                        timing: ns.timing,
                        output: Vec::new(),
                        records_in: 0,
                        quarantined_after: 0,
                        quarantine: None,
                        busy: Duration::ZERO,
                        monitor: ns.monitor,
                        scheduled: false,
                    };
                    match built {
                        Ok(op) => st.op = Some(op),
                        Err(payload) => st.enter_quarantine(QuarantineCause::OperatorPanic {
                            message: panic_message(payload),
                        }),
                    }
                    active.insert(ns.id, st);
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => inbox_open = false,
            }
        }
        for id in rung.drain(..) {
            // Unknown keys: `INBOX_CLOSED`, or a stream retired already.
            if let Some(st) = active.get_mut(&id) {
                if !st.scheduled {
                    st.scheduled = true;
                    run.push_back(id);
                }
            }
        }
        for _ in 0..run.len() {
            let id = run.pop_front().expect("visiting at most run.len() streams");
            let st = active.get_mut(&id).expect("scheduled streams are active");
            batch.clear();
            let n = st.consumer.drain_into(&mut batch, DRAIN_BATCH);
            if n > 0 {
                if st.quarantine.is_some() {
                    // Drain-and-discard: the producer must never wedge
                    // on a stream that is already out of service.
                    batch.clear();
                    st.quarantined_after += n as u64;
                    st.monitor
                        .quarantined_after
                        .store(st.quarantined_after, Ordering::Release);
                } else {
                    step_batch(st, &mut batch, n);
                }
            }
            if n == DRAIN_BATCH {
                // Possibly more queued: back of the line, for fairness.
                run.push_back(id);
            } else if st.consumer.is_finished() {
                let st = active.remove(&id).expect("visited stream is active");
                finished.push(retire(st));
            } else {
                // Drained empty and still open: its next push or its
                // close rings the bell again.
                st.scheduled = false;
            }
        }
        if run.is_empty() && !inbox_open && active.is_empty() {
            return finished;
        }
        // With no stream to run, wait for a ring: no timeout, no poll.
        bell.wait(&mut rung, (!run.is_empty()).then_some(Duration::ZERO));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardAction;
    use crate::operator::TumblingWindowMean;
    use crate::ring::Backpressure;

    #[test]
    fn streams_are_served_and_results_sorted_by_id() {
        let (results, pushed) = serve(EngineConfig::new(3), |engine| {
            let mut handles: Vec<_> = (0..10)
                .map(|_| engine.register(|| TumblingWindowMean::new(4)))
                .collect();
            let mut pushed = 0u64;
            for (k, h) in handles.iter_mut().enumerate() {
                for v in 0..(40 + k) {
                    h.push(v as f64).unwrap();
                    pushed += 1;
                }
            }
            pushed
        });
        assert_eq!(results.len(), 10);
        assert_eq!(results.iter().map(|r| r.records_in).sum::<u64>(), pushed);
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.stream, k);
            assert_eq!(r.records_in, 40 + k as u64);
            assert_eq!(r.drops, 0);
            assert_eq!(r.state, StreamState::Done);
            assert_eq!(r.accounted(), r.pushed);
            assert!(r.shard < 3);
            // 4-record tumbling mean of 0..n: first window mean is 1.5.
            assert_eq!(r.output[0].value, 1.5);
            assert_eq!(r.latency.count(), r.records_in);
        }
    }

    #[test]
    fn stats_snapshot_reports_completion() {
        let (results, observed) = serve(EngineConfig::new(2), |engine| {
            let mut h0 = engine.register(|| TumblingWindowMean::new(2));
            let h1 = engine.register(|| TumblingWindowMean::new(2));
            for v in 0..50 {
                h0.push(v as f64).unwrap();
            }
            drop(h0);
            let stats = engine.stats();
            assert_eq!(stats.streams.len(), 2);
            assert_eq!(stats.shards.len(), 2);
            assert_eq!(
                stats.shards.iter().map(|s| s.streams).sum::<usize>(),
                2,
                "every stream belongs to exactly one shard"
            );
            drop(h1);
            stats
        });
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].records_in, 50);
        assert_eq!(results[1].records_in, 0);
        // The empty stream produced no latency samples anywhere.
        assert_eq!(observed.streams[1].records_in, 0);
        assert_eq!(observed.quarantined(), 0);
    }

    #[test]
    fn hash_assignment_is_deterministic_and_pinning_wins() {
        let (results, ()) = serve(EngineConfig::new(4), |engine| {
            for _ in 0..8 {
                engine.register(|| TumblingWindowMean::new(2)).close();
            }
            let pinned = engine.register_with(
                StreamOptions {
                    shard: Some(2),
                    ..StreamOptions::default()
                },
                || TumblingWindowMean::new(2),
            );
            assert_eq!(pinned.id(), 8);
            pinned.close();
        });
        assert_eq!(results[8].shard, 2);
        let (again, ()) = serve(EngineConfig::new(4), |engine| {
            for _ in 0..8 {
                engine.register(|| TumblingWindowMean::new(2)).close();
            }
        });
        for k in 0..8 {
            assert_eq!(results[k].shard, again[k].shard, "stream {k}");
        }
    }

    #[test]
    fn feed_all_drives_unequal_streams_through_tiny_rings() {
        let data: Vec<Vec<f64>> = (0..12)
            .map(|k| (0..(k * 97 % 400)).map(|i| i as f64).collect())
            .collect();
        let config = EngineConfig {
            shards: 3,
            ring: RingConfig::new(4, Backpressure::Block),
        };
        let (results, report) = serve(config, |engine| {
            let handles: Vec<_> = (0..data.len())
                .map(|_| engine.register(|| TumblingWindowMean::new(1)))
                .collect();
            let slices: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
            feed_all(handles, &slices).expect("feed completes")
        });
        assert_eq!(
            report.total_pushed() as usize,
            data.iter().map(Vec::len).sum::<usize>()
        );
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.records_in as usize, data[k].len());
            assert_eq!(report.pushed[k], r.pushed);
            // Width-1 windows echo the stream: order fully preserved.
            let got: Vec<f64> = r.output.iter().map(|rec| rec.value).collect();
            assert_eq!(got, data[k]);
        }
    }

    /// An operator that panics when it sees a sentinel value.
    struct PanicOn {
        sentinel: f64,
        inner: TumblingWindowMean,
    }

    impl Operator for PanicOn {
        type In = f64;
        type Out = f64;

        fn process(&mut self, record: Record<f64>, out: &mut Vec<Record<f64>>) {
            assert!(record.value != self.sentinel, "injected sentinel fault");
            self.inner.process(record, out);
        }

        fn flush(&mut self, out: &mut Vec<Record<f64>>) {
            self.inner.flush(out);
        }

        fn name(&self) -> &'static str {
            "panic-on"
        }
    }

    #[test]
    fn operator_panic_quarantines_only_its_stream() {
        let n_streams = 6usize;
        let points = 200usize;
        let (results, ()) = serve(EngineConfig::new(2), |engine| {
            let handles: Vec<_> = (0..n_streams)
                .map(|k| {
                    engine.register(move || PanicOn {
                        sentinel: if k == 3 { 77.0 } else { f64::NEG_INFINITY },
                        inner: TumblingWindowMean::new(4),
                    })
                })
                .collect();
            let data: Vec<Vec<f64>> = (0..n_streams)
                .map(|_| {
                    (0..points)
                        .map(|i| if i == 50 { 77.0 } else { i as f64 })
                        .collect()
                })
                .collect();
            let slices: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
            feed_all(handles, &slices).expect("quarantined streams keep draining");
        });
        assert_eq!(results.len(), n_streams);
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.accounted(), r.pushed, "stream {k} ledger");
            assert_eq!(r.pushed, points as u64, "stream {k} pushed");
            if k == 3 {
                let (cause, at_record) = r.quarantine().expect("stream 3 faulted");
                assert_eq!(at_record, 50, "processing stopped at the sentinel");
                assert_eq!(r.records_in, 50);
                assert_eq!(r.quarantined_after, points as u64 - 50);
                match cause {
                    QuarantineCause::OperatorPanic { message } => {
                        assert!(message.contains("injected sentinel fault"), "{message}");
                    }
                    other => panic!("unexpected cause {other:?}"),
                }
            } else {
                assert_eq!(r.state, StreamState::Done, "stream {k} survived");
                assert_eq!(r.records_in, points as u64);
                assert_eq!(r.quarantined_after, 0);
            }
        }
    }

    #[test]
    fn factory_panic_quarantines_only_its_stream() {
        let points = 200usize;
        // One shard: the failing factory runs on the healthy stream's
        // worker thread.
        let (results, ()) = serve(EngineConfig::new(1), |engine| {
            let handles: Vec<_> = (0..2)
                .map(|k| {
                    engine.register(move || {
                        assert!(k != 1, "factory failed");
                        TumblingWindowMean::new(4)
                    })
                })
                .collect();
            let data: Vec<f64> = (0..points).map(|i| i as f64).collect();
            feed_all(handles, &[&data, &data]).expect("quarantined streams keep draining");
        });
        for r in &results {
            assert_eq!(r.pushed, points as u64, "stream {} pushed", r.stream);
            assert_eq!(r.accounted(), r.pushed, "stream {} ledger", r.stream);
        }
        let (healthy, faulted) = (&results[0], &results[1]);
        assert_eq!(healthy.state, StreamState::Done);
        assert_eq!(
            (healthy.records_in, healthy.output.len()),
            (points as u64, points / 4)
        );
        let (cause, at_record) = faulted.quarantine().expect("stream 1 faulted");
        assert_eq!((at_record, faulted.records_in), (0, 0));
        assert!(
            matches!(cause, QuarantineCause::OperatorPanic { message } if message.contains("factory failed")),
            "{cause:?}"
        );
    }

    #[test]
    fn guard_trip_quarantines_and_stats_expose_the_state() {
        let opts = StreamOptions {
            guard: Some(GuardConfig::new(3, 0)),
            ..StreamOptions::default()
        };
        let (results, stats) = serve(EngineConfig::new(1), |engine| {
            let mut h = engine.register_with(opts, || TumblingWindowMean::new(2));
            for v in 0..10 {
                h.push(v as f64).unwrap();
            }
            for _ in 0..5 {
                h.push(f64::NAN).unwrap();
            }
            drop(h);
            // Wait for the shard to observe the fault.
            loop {
                let s = engine.stats();
                if s.streams[0].done {
                    break s;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        let r = &results[0];
        let (cause, at_record) = r.quarantine().expect("guard tripped");
        assert!(matches!(
            cause,
            QuarantineCause::InputGuard(GuardTrip::NanBurst { len: 3 })
        ));
        // 10 finite + 2 healed NaNs consumed; the third NaN tripped.
        assert_eq!(at_record, 12);
        assert_eq!(r.healed, 2);
        assert_eq!(r.accounted(), r.pushed);
        assert_eq!(stats.streams[0].state, r.state);
        assert_eq!(stats.quarantined(), 1);
        assert_eq!(stats.shards[0].quarantined, 1);
    }

    #[test]
    fn guard_heals_nans_without_quarantine() {
        let opts = StreamOptions {
            guard: Some(GuardConfig {
                non_finite: GuardAction::Heal,
                ..GuardConfig::default()
            }),
            ..StreamOptions::default()
        };
        let (results, ()) = serve(EngineConfig::new(1), |engine| {
            let mut h = engine.register_with(opts, || TumblingWindowMean::new(1));
            for v in [1.0, f64::NAN, 3.0, f64::INFINITY] {
                h.push(v).unwrap();
            }
        });
        let r = &results[0];
        assert_eq!(r.state, StreamState::Done);
        assert_eq!(r.records_in, 4);
        assert_eq!(r.healed, 2);
        let got: Vec<f64> = r.output.iter().map(|rec| rec.value).collect();
        assert_eq!(got, vec![1.0, 1.0, 3.0, 3.0]);
    }

    /// A handle over a raw ring, bypassing `serve` so the consumer side
    /// is fully under test control.
    fn raw_handle(cfg: RingConfig, id: usize) -> (StreamHandle, ring::Consumer<Record<f64>>) {
        let (producer, consumer) = ring::ring(cfg);
        (
            StreamHandle {
                producer,
                id,
                t: 0,
                scratch: Vec::new(),
            },
            consumer,
        )
    }

    #[test]
    fn push_to_a_full_error_ring_is_rejected_and_consumes_its_position() {
        let (mut h, _consumer) = raw_handle(RingConfig::new(2, Backpressure::Error), 7);
        h.push(1.0).unwrap();
        h.push(2.0).unwrap();
        assert_eq!(
            h.push(3.0),
            Err(PushError::Overflow(ring::OverflowError { capacity: 2 }))
        );
        // Only the accepted records count as pushed.
        assert_eq!(h.pushed(), 2);
        // The position was consumed exactly once per rejected record.
        h.push(4.0).unwrap_err();
        assert_eq!(h.t, 4);
    }
}
