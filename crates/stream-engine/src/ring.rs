//! Fixed-capacity ring buffers with explicit backpressure policies.
//!
//! The engine's transport between a stream's producer (the ingest side)
//! and the shard worker that steps its operator. Each ring is SPSC by
//! construction — one [`Producer`] held by the [`crate::StreamHandle`],
//! one [`Consumer`] owned by the stream's shard — and never reallocates
//! after creation, so a full ring exerts *backpressure* instead of
//! growing without bound (Flink's bounded network buffers; FLOSS's
//! bounded online model makes the same constant-memory argument for the
//! operator itself).
//!
//! A ring is a `VecDeque` behind a mutex. Locking is amortised over
//! batches: [`Producer::try_feed`] (the path of `feed_all` and the
//! network tier) and [`Consumer::drain_into`] (the shard loop) take the
//! lock once per call, not once per record. The layer ledger is why this
//! is enough: a traced `fleet-inproc` benchmark run (128 ClaSS streams
//! saturating one shard, 2-core x86-64 VM) puts 96 % of the shard's wall
//! time in the operator and 1–3 % in everything else, rings included, so
//! an uncontended lock per batch is not a cost that can be measured
//! there. Stats snapshots never take the lock; they read monotone atomic
//! counters.
//!
//! ## Wake-ups
//!
//! Nothing on the record path sleeps and polls. A ring rings a bell,
//! decided under its lock, when the other side can make progress:
//!
//! * the **data bell** (the shard's, keyed by stream id) when a push
//!   makes the queue non-empty and when the producer goes away;
//! * the **space bell** (the ring's own, or one `feed_all` shares among
//!   its handles) when a drain frees space in a full ring and when the
//!   consumer goes away.
//!
//! A bell is *sticky*: a wait returns every key rung since the previous
//! wait, so a ring that lands between a waiter's last look and its wait
//! is never lost, and no timeout is needed to recover one. It notifies
//! only a parked waiter, so a busy shard pays one uncontended lock per
//! empty→non-empty transition and no wake-up system call.
//!
//! What happens when the ring is full is the per-stream
//! [`Backpressure`] policy:
//!
//! * [`Backpressure::Block`] — the producer waits for space; every
//!   record is delivered (lossless, the default).
//! * [`Backpressure::DropOldest`] — the oldest queued record is evicted
//!   and counted; a lagging consumer sees the freshest window of the
//!   feed (live dashboards, lossy sensors).
//! * [`Backpressure::Error`] — the push fails with a typed
//!   [`OverflowError`] and the record is not enqueued; the caller
//!   decides (fail-fast ingestion).
//!
//! Accounting contract (the fault ledger leans on this): `pushed` is
//! incremented *before* a record enters the queue, and `drops` is
//! incremented with Release ordering *after* its eviction, so a reader
//! that loads `drops`/`popped` with Acquire before `pushed` can never
//! observe a disposal without the push that preceded it —
//! `records_in + drops + quarantined_after <= pushed` holds in every
//! live snapshot and tightens to equality at rest.

use crate::engine::lock_recover;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What a full ring does to an incoming record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Wait for the consumer to free a slot; lossless (default).
    #[default]
    Block,
    /// Evict the oldest queued record and count it as a drop.
    DropOldest,
    /// Reject the push with a typed [`OverflowError`].
    Error,
}

/// Capacity + policy of one ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Maximum queued records (must be >= 1). The ring never holds more.
    pub capacity: usize,
    /// Full-ring behaviour.
    pub policy: Backpressure,
}

impl Default for RingConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            policy: Backpressure::Block,
        }
    }
}

impl RingConfig {
    /// A config with the given capacity and policy.
    pub fn new(capacity: usize, policy: Backpressure) -> Self {
        Self { capacity, policy }
    }
}

/// Typed overflow under [`Backpressure::Error`]: the ring was full and
/// the record was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowError {
    /// Capacity of the ring that rejected the record.
    pub capacity: usize,
}

impl std::fmt::Display for OverflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ring buffer overflow: all {} slots full under the `error` backpressure policy",
            self.capacity
        )
    }
}

impl std::error::Error for OverflowError {}

/// Why a push did not (fully) succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Full ring under [`Backpressure::Error`]; the record was rejected.
    Overflow(OverflowError),
    /// The consumer (shard worker) is gone; no record can be delivered.
    Disconnected,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Overflow(e) => e.fmt(f),
            PushError::Disconnected => write!(f, "ring buffer consumer disconnected"),
        }
    }
}

impl std::error::Error for PushError {}

/// Monotone counters readable without touching the ring — the engine's
/// stats snapshot polls these from a third thread. Queue depth is not
/// stored (a stored gauge races evictions and drains); it is derived as
/// `pushed - drops - popped`, which is exact once the ring is at rest.
#[derive(Debug, Default)]
pub(crate) struct RingCounters {
    /// Records the consumer has drained out of the ring.
    pub(crate) popped: AtomicU64,
    /// Records evicted under [`Backpressure::DropOldest`].
    pub(crate) drops: AtomicU64,
    /// Records ever accepted into the ring (rejected pushes excluded).
    /// The fault-accounting ledger balances against this:
    /// `processed + dropped + quarantined_after == pushed`.
    pub(crate) pushed: AtomicU64,
}

impl RingCounters {
    /// Records currently queued (racy snapshot; exact at rest). Reads
    /// the disposals before the pushes so a concurrent push can only
    /// make the result read *low*, never negative-wrapped.
    pub(crate) fn depth(&self) -> usize {
        let gone = self
            .drops
            .load(Ordering::Acquire)
            .saturating_add(self.popped.load(Ordering::Acquire));
        let pushed = self.pushed.load(Ordering::Acquire);
        pushed.saturating_sub(gone) as usize
    }
}

/// A sticky wake-up list for one waiting thread (see the module doc):
/// [`Bell::ring`] appends a key, [`Bell::wait`] returns every key rung
/// since the previous wait.
#[derive(Debug, Default)]
pub(crate) struct Bell {
    state: Mutex<Chimes>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct Chimes {
    keys: Vec<usize>,
    parked: bool,
}

impl Bell {
    /// Appends `key` (a key rung twice in a row is kept once, so a bell
    /// rung with one key only ever holds one) and wakes a parked waiter.
    pub(crate) fn ring(&self, key: usize) {
        let mut st = lock_recover(&self.state);
        if st.keys.last() != Some(&key) {
            st.keys.push(key);
        }
        if st.parked {
            st.parked = false;
            self.wake.notify_one();
        }
    }

    /// Moves every key rung since the last wait into `keys`, first
    /// waiting while none is pending: without limit for `None`, at most
    /// `timeout` otherwise (`Some(Duration::ZERO)` never waits). Adds no
    /// key only when the timeout ran out.
    pub(crate) fn wait(&self, keys: &mut Vec<usize>, timeout: Option<Duration>) {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = lock_recover(&self.state);
        while st.keys.is_empty() {
            st.parked = true;
            st = match deadline {
                None => self.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let waited = self.wake.wait_timeout(st, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        st.parked = false;
        keys.append(&mut st.keys);
    }
}

/// The queue and both ends' liveness, all under one lock.
struct State<T> {
    queue: VecDeque<T>,
    tx_closed: bool,
    rx_closed: bool,
    /// The space bell and this ring's key on it; replaceable, so that a
    /// feeder of many rings can wait on all of them at once.
    space: Arc<Bell>,
    space_key: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// The data bell and this ring's key on it.
    data: Arc<Bell>,
    key: usize,
    counters: Arc<RingCounters>,
    capacity: usize,
    policy: Backpressure,
}

impl<T> Shared<T> {
    /// Appends a record to a ring known to have room.
    fn enqueue(&self, st: &mut State<T>, item: T) {
        // `pushed` before the record is queued: a reader that can see
        // the record (or its later disposal) must also see its push.
        self.counters.pushed.fetch_add(1, Ordering::Relaxed);
        st.queue.push_back(item);
    }

    /// Evicts the oldest record of a full ring (drop-oldest policy),
    /// counting it.
    fn evict_oldest(&self, st: &mut State<T>) {
        st.queue.pop_front();
        // Release pairs with the stats snapshot's Acquire load: the
        // evicted record's push is sequenced before this increment,
        // keeping the live ledger inequality (`lhs <= pushed`) observable.
        self.counters.drops.fetch_add(1, Ordering::Release);
    }
}

/// Creates a bounded ring, returning its two ends.
pub fn ring<T>(cfg: RingConfig) -> (Producer<T>, Consumer<T>) {
    ring_on(cfg, Arc::default(), 0)
}

/// Creates a bounded ring whose data bell is `data`, rung with `key`.
pub(crate) fn ring_on<T>(
    cfg: RingConfig,
    data: Arc<Bell>,
    key: usize,
) -> (Producer<T>, Consumer<T>) {
    assert!(cfg.capacity >= 1, "ring capacity must be >= 1");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(cfg.capacity),
            tx_closed: false,
            rx_closed: false,
            space: Arc::default(),
            space_key: 0,
        }),
        data,
        key,
        counters: Arc::new(RingCounters::default()),
        capacity: cfg.capacity,
        policy: cfg.policy,
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            owed: false,
        },
        Consumer { shared },
    )
}

/// The write end of a ring. Dropping it closes the stream: the consumer
/// drains what is queued, then observes end-of-stream.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// A push made the queue non-empty and the data bell has not been
    /// rung for it yet (see [`Producer::feed_unrung`]).
    owed: bool,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("capacity", &self.shared.capacity)
            .field("policy", &self.shared.policy)
            .finish()
    }
}

impl<T> Producer<T> {
    /// Pushes one record, applying the ring's backpressure policy when
    /// full: `Block` waits until the consumer frees space (or goes away,
    /// returning [`PushError::Disconnected`]), `DropOldest` evicts and
    /// succeeds, `Error` returns [`PushError::Overflow`] without
    /// enqueueing.
    pub fn push(&mut self, item: T) -> Result<(), PushError> {
        let sh = &*self.shared;
        let mut st = lock_recover(&sh.state);
        loop {
            if st.rx_closed {
                return Err(PushError::Disconnected);
            }
            if st.queue.len() < sh.capacity {
                break;
            }
            match sh.policy {
                Backpressure::Block => {
                    let space = Arc::clone(&st.space);
                    drop(st);
                    space.wait(&mut Vec::new(), None);
                    st = lock_recover(&sh.state);
                }
                Backpressure::DropOldest => sh.evict_oldest(&mut st),
                Backpressure::Error => {
                    return Err(PushError::Overflow(OverflowError {
                        capacity: sh.capacity,
                    }));
                }
            }
        }
        let was_empty = st.queue.is_empty();
        sh.enqueue(&mut st, item);
        drop(st);
        if was_empty {
            sh.data.ring(sh.key);
        }
        Ok(())
    }

    /// Non-blocking bulk push: enqueues a prefix of `items` and returns
    /// how many were accepted. `Block` and `Error` accept what fits
    /// without waiting or failing (this is the "try" flavour — the
    /// typed overflow only surfaces through [`Producer::push`]);
    /// `DropOldest` accepts everything, evicting as needed.
    pub fn try_feed(&mut self, items: &[T]) -> Result<usize, PushError>
    where
        T: Copy,
    {
        let accepted = self.feed_unrung(items)?;
        self.wake();
        Ok(accepted)
    }

    /// [`Producer::try_feed`] without ringing the data bell: the ring is
    /// owed until [`Producer::wake`], a wait for space or the close pays
    /// it. Lets a caller answer its own client before the consumer is
    /// woken and competes for the CPU.
    pub(crate) fn feed_unrung(&mut self, items: &[T]) -> Result<usize, PushError>
    where
        T: Copy,
    {
        if items.is_empty() {
            return Ok(0);
        }
        let sh = &*self.shared;
        let mut st = lock_recover(&sh.state);
        if st.rx_closed {
            return Err(PushError::Disconnected);
        }
        let was_empty = st.queue.is_empty();
        let mut accepted = 0;
        for &it in items {
            if st.queue.len() == sh.capacity {
                if sh.policy != Backpressure::DropOldest {
                    break;
                }
                sh.evict_oldest(&mut st);
            }
            sh.enqueue(&mut st, it);
            accepted += 1;
        }
        self.owed |= was_empty && accepted > 0;
        Ok(accepted)
    }

    /// Rings the data bell if a push since the last ring made the queue
    /// non-empty.
    pub(crate) fn wake(&mut self) {
        if std::mem::take(&mut self.owed) {
            self.shared.data.ring(self.shared.key);
        }
    }

    /// Waits until a drain frees space in this ring (or the consumer goes
    /// away), at most `timeout`, after paying an owed ring (the drain may
    /// need it). May return early: the caller re-checks the ring.
    pub(crate) fn wait_space(&mut self, timeout: Duration) {
        self.wake();
        let space = Arc::clone(&lock_recover(&self.shared.state).space);
        space.wait(&mut Vec::new(), Some(timeout));
    }

    /// Makes `bell` this ring's space bell, rung with `key`, so one
    /// waiter can wait for space in many rings.
    pub(crate) fn share_space(&mut self, bell: &Arc<Bell>, key: usize) {
        let mut st = lock_recover(&self.shared.state);
        (st.space, st.space_key) = (Arc::clone(bell), key);
    }

    /// Records currently queued (racy snapshot; reads the counters,
    /// not the queue).
    pub fn depth(&self) -> usize {
        self.shared.counters.depth()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Records evicted so far under [`Backpressure::DropOldest`].
    pub fn drops(&self) -> u64 {
        self.shared.counters.drops.load(Ordering::Relaxed)
    }

    /// Records ever accepted into the ring (rejected pushes excluded).
    pub fn pushed(&self) -> u64 {
        self.shared.counters.pushed.load(Ordering::Relaxed)
    }

    /// Shared counters handle for external stats snapshots.
    pub(crate) fn counters(&self) -> Arc<RingCounters> {
        Arc::clone(&self.shared.counters)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        lock_recover(&self.shared.state).tx_closed = true;
        self.shared.data.ring(self.shared.key);
    }
}

/// The read end of a ring, owned by the stream's shard worker.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("capacity", &self.shared.capacity)
            .field("policy", &self.shared.policy)
            .finish()
    }
}

impl<T> Consumer<T> {
    /// Moves up to `max` queued records into `out` and returns the
    /// count, ringing the space bell if the ring was full.
    pub fn drain_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let sh = &*self.shared;
        let mut st = lock_recover(&sh.state);
        let was_full = st.queue.len() == sh.capacity;
        let n = st.queue.len().min(max);
        out.extend(st.queue.drain(..n));
        if n > 0 {
            sh.counters.popped.fetch_add(n as u64, Ordering::Release);
        }
        // Only a full ring can have a producer waiting for space.
        let space = (was_full && n > 0).then(|| (Arc::clone(&st.space), st.space_key));
        drop(st);
        if let Some((bell, key)) = space {
            bell.ring(key);
        }
        n
    }

    /// End-of-stream: the producer is gone and the ring is drained.
    pub fn is_finished(&self) -> bool {
        let st = lock_recover(&self.shared.state);
        st.tx_closed && st.queue.is_empty()
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.shared.state);
        st.rx_closed = true;
        let (bell, key) = (Arc::clone(&st.space), st.space_key);
        drop(st);
        bell.ring(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_depth_accounting() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::new(4, Backpressure::Block));
        for v in 0..4 {
            tx.push(v).unwrap();
        }
        assert_eq!(tx.depth(), 4);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(tx.depth(), 1);
        assert_eq!(rx.drain_into(&mut out, 8), 1);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(!rx.is_finished());
        drop(tx);
        assert!(rx.is_finished());
    }

    #[test]
    fn drop_oldest_evicts_exactly_the_overflow_and_counts_it() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::new(4, Backpressure::DropOldest));
        for v in 0..10 {
            tx.push(v).unwrap();
        }
        assert_eq!(tx.drops(), 6);
        assert_eq!(tx.depth(), 4);
        let mut out = Vec::new();
        rx.drain_into(&mut out, usize::MAX);
        // The freshest window survives.
        assert_eq!(out, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drop_oldest_bulk_feed_counts_chunk_evictions() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::new(3, Backpressure::DropOldest));
        let items: Vec<u32> = (0..8).collect();
        assert_eq!(tx.try_feed(&items).unwrap(), 8);
        assert_eq!(tx.drops(), 5);
        let mut out = Vec::new();
        rx.drain_into(&mut out, usize::MAX);
        assert_eq!(out, vec![5, 6, 7]);
    }

    #[test]
    fn error_policy_surfaces_typed_overflow_and_rejects_the_record() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::new(2, Backpressure::Error));
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        let err = tx.push(3).unwrap_err();
        assert_eq!(err, PushError::Overflow(OverflowError { capacity: 2 }));
        let mut out = Vec::new();
        rx.drain_into(&mut out, usize::MAX);
        // The rejected record never entered the ring.
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn try_feed_accepts_only_what_fits_under_block() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::new(3, Backpressure::Block));
        assert_eq!(tx.try_feed(&[1, 2, 3, 4, 5]).unwrap(), 3);
        let mut out = Vec::new();
        rx.drain_into(&mut out, 2);
        assert_eq!(tx.try_feed(&[4, 5, 6]).unwrap(), 2);
        rx.drain_into(&mut out, usize::MAX);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn blocked_producer_wakes_when_consumer_drains() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::new(1, Backpressure::Block));
        tx.push(0).unwrap();
        let pusher = std::thread::spawn(move || {
            tx.push(1).unwrap(); // blocks until the main thread drains
            tx.drops()
        });
        // Give the pusher a chance to park, then free a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut out = Vec::new();
        while out.len() < 2 {
            if rx.drain_into(&mut out, usize::MAX) == 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(out, vec![0, 1]);
        assert_eq!(pusher.join().unwrap(), 0);
    }

    /// A producer waiting in `push` on a full `Block` ring must be woken
    /// by the consumer's drop, not left waiting for space that will
    /// never come.
    #[test]
    fn blocked_producer_wakes_when_consumer_drops() {
        let (mut tx, rx) = ring::<u32>(RingConfig::new(1, Backpressure::Block));
        tx.push(0).unwrap();
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let pusher = std::thread::spawn(move || {
            result_tx.send(tx.push(1)).unwrap();
        });
        // Give the pusher a chance to start waiting, then disconnect.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        let result = result_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a blocked push must return once the consumer is gone");
        assert_eq!(result, Err(PushError::Disconnected));
        pusher.join().unwrap();
    }

    /// A ring that lands before the wait is kept and returned by it: the
    /// wake-up a waiter would otherwise lose between its last look at its
    /// work and its wait.
    #[test]
    fn bell_is_sticky_and_keeps_a_repeated_key_once() {
        let bell = Bell::default();
        bell.ring(3);
        bell.ring(3);
        bell.ring(5);
        let mut keys = Vec::new();
        bell.wait(&mut keys, None);
        assert_eq!(keys, vec![3, 5]);
        keys.clear();
        bell.wait(&mut keys, Some(std::time::Duration::ZERO));
        assert!(keys.is_empty(), "a wait consumes what it returns");
        let t0 = std::time::Instant::now();
        bell.wait(&mut keys, Some(std::time::Duration::from_millis(20)));
        assert!(keys.is_empty() && t0.elapsed() >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn parked_bell_waiter_wakes_on_ring() {
        let bell = Arc::new(Bell::default());
        let ringer = Arc::clone(&bell);
        let waiter = std::thread::spawn(move || {
            let mut keys = Vec::new();
            bell.wait(&mut keys, None);
            keys
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        ringer.ring(7);
        assert_eq!(waiter.join().unwrap(), vec![7]);
    }

    /// The data bell rings on each empty→non-empty transition and on the
    /// producer's close, never on a push into a non-empty ring.
    #[test]
    fn data_bell_rings_on_first_record_and_on_close() {
        let bell = Arc::new(Bell::default());
        let (mut tx, mut rx) = ring_on::<u32>(
            RingConfig::new(4, Backpressure::Block),
            Arc::clone(&bell),
            9,
        );
        let mut keys = Vec::new();
        let zero = Some(std::time::Duration::ZERO);
        tx.push(1).unwrap();
        tx.try_feed(&[2, 3]).unwrap();
        bell.wait(&mut keys, zero);
        assert_eq!(keys, vec![9]);
        keys.clear();
        rx.drain_into(&mut Vec::new(), usize::MAX);
        tx.push(4).unwrap();
        drop(tx);
        bell.wait(&mut keys, zero);
        assert_eq!(keys, vec![9], "push after a drain, then close, coalesce");
    }

    #[test]
    fn disconnected_consumer_fails_pushes() {
        let (mut tx, rx) = ring::<u32>(RingConfig::new(1, Backpressure::Block));
        drop(rx);
        assert_eq!(tx.push(1).unwrap_err(), PushError::Disconnected);
        assert_eq!(tx.try_feed(&[1, 2]).unwrap_err(), PushError::Disconnected);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = ring::<u32>(RingConfig::new(0, Backpressure::Block));
    }

    #[test]
    fn undrained_records_are_dropped_with_the_ring() {
        // A type with a destructor proves leaked-slot cleanup.
        let (mut tx, rx) = ring::<Arc<u8>>(RingConfig::new(8, Backpressure::Block));
        let probe = Arc::new(7u8);
        for _ in 0..5 {
            tx.push(Arc::clone(&probe)).unwrap();
        }
        assert_eq!(Arc::strong_count(&probe), 6);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    /// Satellite audit: the ledger `consumed + drops == pushed` must
    /// hold *exactly* when a producer pushes under drop-oldest while
    /// the consumer drains concurrently — an eviction may race a drain
    /// for the same slot, and double- or under-counting either side
    /// breaks the engine's terminal accounting.
    #[test]
    fn concurrent_drop_oldest_ledger_is_exact() {
        const N: u64 = 30_000;
        let (mut tx, mut rx) = ring::<u64>(RingConfig::new(8, Backpressure::DropOldest));
        let counters = tx.counters();
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            while !rx.is_finished() {
                if rx.drain_into(&mut out, 64) == 0 {
                    // Keep single-core runs honest: hand the CPU back
                    // to the producer instead of spinning a timeslice.
                    std::thread::yield_now();
                }
            }
            out
        });
        for v in 0..N {
            tx.push(v).unwrap();
        }
        drop(tx);
        let out = consumer.join().unwrap();
        // Order survives eviction: what the consumer sees is a
        // subsequence of the feed.
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "drained records out of order"
        );
        let drops = counters.drops.load(Ordering::Relaxed);
        let popped = counters.popped.load(Ordering::Relaxed);
        let pushed = counters.pushed.load(Ordering::Relaxed);
        assert_eq!(pushed, N);
        assert_eq!(popped, out.len() as u64);
        assert_eq!(popped + drops, pushed, "terminal ledger out of balance");
        assert_eq!(counters.depth(), 0);
    }

    /// Same shape under the blocking policy: lossless delivery, zero
    /// drops, exact depth at rest.
    #[test]
    fn concurrent_block_delivers_everything_in_order() {
        const N: u64 = 20_000;
        let (mut tx, mut rx) = ring::<u64>(RingConfig::new(4, Backpressure::Block));
        let counters = tx.counters();
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            while !rx.is_finished() {
                if rx.drain_into(&mut out, 32) == 0 {
                    std::thread::yield_now();
                }
            }
            out
        });
        for v in 0..N {
            tx.push(v).unwrap();
        }
        drop(tx);
        let out = consumer.join().unwrap();
        let expected: Vec<u64> = (0..N).collect();
        assert_eq!(out, expected);
        assert_eq!(counters.drops.load(Ordering::Relaxed), 0);
        assert_eq!(counters.pushed.load(Ordering::Relaxed), N);
        assert_eq!(counters.depth(), 0);
    }
}
