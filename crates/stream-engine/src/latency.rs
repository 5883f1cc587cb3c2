//! Per-record processing latency measurement and serving-time accounting.
//!
//! The stream-processing comparison the paper cites (Karimov et al., ICDE
//! 2018) evaluates engines on *latency* as well as throughput; this module
//! adds a log-bucketed latency histogram so the ClaSS window operator can
//! be characterised the same way, plus the per-stream / per-shard
//! accounting types ([`StreamStats`], [`ShardStats`], [`ServingStats`])
//! the multi-stream engine exposes as a live snapshot: tail latency
//! (p50/p99), queue depth, and backpressure drops per stream and
//! aggregated per shard.

use crate::engine::StreamState;
use std::time::Duration;

/// A histogram of durations with power-of-two nanosecond buckets
/// (1 ns .. ~4.3 s), constant memory, O(1) insert.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 33],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; 33],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(32);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records `n` operations measured together in `total` wall time,
    /// attributing the batch-average duration to each. Coarser than
    /// per-record [`LatencyHistogram::record`] (the histogram's factor-2
    /// buckets absorb the averaging), but the measurement itself costs
    /// two clock reads per *batch* instead of per record — the engine
    /// uses it for operators whose step is cheaper than a clock read.
    #[inline]
    pub fn record_n(&mut self, total: Duration, n: u64) {
        if n == 0 {
            return;
        }
        let total_ns = total.as_nanos().min(u128::from(u64::MAX)) as u64;
        let avg_ns = total_ns / n;
        let bucket = (64 - avg_ns.max(1).leading_zeros() as usize - 1).min(32);
        self.buckets[bucket] += n;
        self.count += n;
        self.sum_ns += u128::from(total_ns);
        self.max_ns = self.max_ns.max(avg_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Upper bound of the bucket containing the q-quantile (0 <= q <= 1).
    /// Bucket resolution is a factor of two, which is ample for tail
    /// characterisation.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= target {
                return Duration::from_nanos(1u64 << (b + 1).min(63));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Live accounting for one stream served by the engine.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Stream id (registration order).
    pub stream: usize,
    /// Human-readable stream name ([`crate::StreamOptions::name`], or
    /// `stream-<id>` when none was given). Exported as the `name` label
    /// on every Prometheus series for this stream.
    pub name: String,
    /// Shard the stream is pinned to.
    pub shard: usize,
    /// Records consumed while healthy (operator-processed plus
    /// guard-healed/skipped) so far.
    pub records_in: u64,
    /// Records evicted by the `drop-oldest` backpressure policy.
    pub drops: u64,
    /// Records drained and discarded after the stream was quarantined.
    pub quarantined_after: u64,
    /// Records accepted into the ring so far.
    pub pushed: u64,
    /// Non-finite values the input guard replaced so far.
    pub healed: u64,
    /// Records the input guard dropped before the operator so far.
    pub skipped: u64,
    /// Records currently queued in the stream's ring buffer.
    pub queue_depth: usize,
    /// Whether the stream has been closed, drained, and flushed.
    pub done: bool,
    /// Lifecycle state; quarantine survives completion (a retired
    /// faulted stream reports `Quarantined`, not `Done`).
    pub state: StreamState,
    /// Median per-record operator latency.
    pub p50: Duration,
    /// Tail (99th percentile) per-record operator latency.
    pub p99: Duration,
    /// Mean per-record operator latency.
    pub mean: Duration,
}

/// Aggregated accounting for one shard (its streams merged).
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Streams assigned to this shard (finished ones included).
    pub streams: usize,
    /// Streams still being served.
    pub active: usize,
    /// Streams quarantined on this shard.
    pub quarantined: usize,
    /// Records processed across the shard's streams.
    pub records_in: u64,
    /// Drops across the shard's streams.
    pub drops: u64,
    /// Sum of the shard's ring-buffer depths.
    pub queue_depth: usize,
    /// Median per-record latency over the merged histogram.
    pub p50: Duration,
    /// Tail (p99) per-record latency over the merged histogram.
    pub p99: Duration,
}

/// A point-in-time snapshot of the whole engine: one entry per stream
/// and one aggregate per shard.
#[derive(Debug, Clone)]
pub struct ServingStats {
    /// Per-stream accounting, indexed by stream id.
    pub streams: Vec<StreamStats>,
    /// Per-shard aggregates, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Time since the engine started serving, as of this snapshot.
    pub uptime: Duration,
}

impl ServingStats {
    /// Total records processed across all streams.
    pub fn records_in(&self) -> u64 {
        self.streams.iter().map(|s| s.records_in).sum()
    }

    /// Lifetime average processing rate: total records over uptime.
    pub fn records_per_sec(&self) -> f64 {
        self.records_in() as f64 / self.uptime.as_secs_f64().max(1e-9)
    }

    /// Total backpressure drops across all streams.
    pub fn drops(&self) -> u64 {
        self.streams.iter().map(|s| s.drops).sum()
    }

    /// Total queued records across all ring buffers.
    pub fn queue_depth(&self) -> usize {
        self.streams.iter().map(|s| s.queue_depth).sum()
    }

    /// Streams not yet finished.
    pub fn active_streams(&self) -> usize {
        self.streams.iter().filter(|s| !s.done).count()
    }

    /// Number of quarantined streams.
    pub fn quarantined(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| s.state.is_quarantined())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarises() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 4, 8, 100] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert!(h.mean() >= Duration::from_micros(20));
        assert!(h.max() >= Duration::from_micros(100));
        // p50 within a factor-2 bucket of the true median (4 us).
        let p50 = h.quantile(0.5);
        assert!(
            p50 >= Duration::from_micros(4) && p50 <= Duration::from_micros(16),
            "{p50:?}"
        );
        // The tail quantile reflects the slow record.
        assert!(h.quantile(0.99) >= Duration::from_micros(64));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_nanos(100));
        b.record(Duration::from_micros(10));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max() >= Duration::from_micros(10));
    }

    #[test]
    fn record_n_attributes_batch_average_to_each_record() {
        let mut batched = LatencyHistogram::new();
        batched.record_n(Duration::from_micros(800), 100); // 8 us average
        assert_eq!(batched.count(), 100);
        assert_eq!(batched.mean(), Duration::from_nanos(8000));
        let p50 = batched.quantile(0.5);
        assert!(
            p50 >= Duration::from_micros(8) && p50 <= Duration::from_micros(16),
            "{p50:?}"
        );
        // Zero-count batches are ignored.
        batched.record_n(Duration::from_secs(1), 0);
        assert_eq!(batched.count(), 100);
    }

    #[test]
    fn serving_stats_totals_aggregate_streams() {
        let mk = |stream: usize, records_in, drops, depth, done| StreamStats {
            stream,
            name: format!("stream-{stream}"),
            shard: stream % 2,
            records_in,
            drops,
            quarantined_after: 0,
            pushed: records_in + drops,
            healed: 0,
            skipped: 0,
            queue_depth: depth,
            done,
            state: if done {
                StreamState::Done
            } else {
                StreamState::Active
            },
            p50: Duration::ZERO,
            p99: Duration::ZERO,
            mean: Duration::ZERO,
        };
        let stats = ServingStats {
            streams: vec![mk(0, 100, 3, 7, false), mk(1, 50, 0, 0, true)],
            shards: Vec::new(),
            uptime: Duration::from_secs(10),
        };
        assert_eq!(stats.records_in(), 150);
        assert_eq!(stats.drops(), 3);
        assert_eq!(stats.queue_depth(), 7);
        assert_eq!(stats.active_streams(), 1);
        assert!((stats.records_per_sec() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..1000u64 {
            h.record(Duration::from_nanos(i * 37 % 100_000));
        }
        let mut prev = Duration::ZERO;
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "q={q}");
            prev = v;
        }
    }
}
