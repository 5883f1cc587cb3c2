//! Replay sources: feed a loaded (file-backed or in-memory) series into
//! an operator or an engine stream, optionally paced at a configurable
//! record rate.
//!
//! The paper's throughput experiment (§4.4) replays each benchmark series
//! from RAM as fast as the operator can drain it; a live deployment sees
//! records at the sensor's native rate instead. [`ReplaySource`] models
//! both: unpaced it is a plain in-memory iterator (the §4.4 setup), with
//! [`ReplaySource::with_rate`] it sleeps between emissions to match a
//! target records-per-second rate. `class-cli datasets run` drives its
//! iterator into a serving-engine [`crate::StreamHandle`] — the pacing
//! happens on the ingest thread, the backpressured ring carries the
//! records to the stream's shard.

use std::time::{Duration, Instant};

/// An in-memory stream source with optional rate pacing.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    values: Vec<f64>,
    rate: Option<f64>,
}

impl ReplaySource {
    /// A source replaying `values` as fast as the consumer drains it.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values, rate: None }
    }

    /// Paces the replay at `records_per_sec` (must be positive): the n-th
    /// record is withheld until `n / records_per_sec` seconds after the
    /// first `next()` call, mirroring a fixed-rate sensor.
    pub fn with_rate(mut self, records_per_sec: f64) -> Self {
        assert!(
            records_per_sec > 0.0,
            "replay rate must be positive, got {records_per_sec}"
        );
        self.rate = Some(records_per_sec);
        self
    }

    /// Number of records the source will emit.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The underlying values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl IntoIterator for ReplaySource {
    type Item = f64;
    type IntoIter = ReplayIter;

    fn into_iter(self) -> ReplayIter {
        ReplayIter {
            values: self.values.into_iter(),
            rate: self.rate,
            emitted: 0,
            started: None,
        }
    }
}

/// Iterator over a [`ReplaySource`], sleeping to hold the target rate.
#[derive(Debug)]
pub struct ReplayIter {
    values: std::vec::IntoIter<f64>,
    rate: Option<f64>,
    emitted: u64,
    started: Option<Instant>,
}

impl Iterator for ReplayIter {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let v = self.values.next()?;
        if let Some(rate) = self.rate {
            let start = *self.started.get_or_insert_with(Instant::now);
            let due = Duration::from_secs_f64(self.emitted as f64 / rate);
            let elapsed = start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        self.emitted += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.values.size_hint()
    }
}

// ---------------------------------------------------------------------------
// Multi-channel replay
// ---------------------------------------------------------------------------

/// An in-memory **multi-channel** stream source: one frame per time step,
/// one value per channel. The serving engine's rings carry scalar `f64`
/// records, so a multi-channel stream travels **interleaved frame-major**
/// (`t0c0, t0c1, ..., t1c0, ...`) through one ring and is reassembled
/// into rows by the stream's operator (see
/// `crate::MultivariateSegmenterOperator`) — one sensor, one stream, one
/// backpressure domain, exactly like the univariate case. Optional
/// pacing applies per *frame*, mirroring a multi-sensor device emitting
/// one synchronized sample vector per tick.
#[derive(Debug, Clone)]
pub struct MultiChannelReplaySource {
    channels: Vec<Vec<f64>>,
    rate: Option<f64>,
}

impl MultiChannelReplaySource {
    /// A source replaying channel-major `channels` (all the same length)
    /// as fast as the consumer drains it.
    ///
    /// # Panics
    /// Panics on zero channels or ragged channel lengths.
    pub fn new(channels: Vec<Vec<f64>>) -> Self {
        assert!(!channels.is_empty(), "need at least one channel");
        let n = channels[0].len();
        assert!(
            channels.iter().all(|c| c.len() == n),
            "ragged channel lengths"
        );
        Self {
            channels,
            rate: None,
        }
    }

    /// Paces the replay at `frames_per_sec` (must be positive): frame `n`
    /// is withheld until `n / frames_per_sec` seconds after the first
    /// one, mirroring a fixed-rate multi-sensor feed.
    pub fn with_rate(mut self, frames_per_sec: f64) -> Self {
        assert!(
            frames_per_sec > 0.0,
            "replay rate must be positive, got {frames_per_sec}"
        );
        self.rate = Some(frames_per_sec);
        self
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of frames (time steps) the source will emit.
    pub fn len(&self) -> usize {
        self.channels[0].len()
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying channel-major values.
    pub fn channels(&self) -> &[Vec<f64>] {
        &self.channels
    }

    /// Flattens the source into the interleaved frame-major scalar
    /// sequence that travels through a serving-engine ring.
    pub fn interleaved(&self) -> Vec<f64> {
        interleave_channels(&self.channels)
    }
}

/// Flattens channel-major data into the interleaved frame-major scalar
/// sequence (`t0c0, t0c1, ..., t1c0, ...`) the serving engine's rings
/// carry for multi-channel streams. This is the transport layout
/// `crate::MultivariateSegmenterOperator` reassembles frames from — the
/// single source of truth every feeder (replay sources, the eval matrix
/// runner, load generators) must share.
pub fn interleave_channels(channels: &[Vec<f64>]) -> Vec<f64> {
    let n = channels.first().map_or(0, Vec::len);
    let mut out = Vec::with_capacity(n * channels.len());
    for t in 0..n {
        for chan in channels {
            out.push(chan[t]);
        }
    }
    out
}

impl IntoIterator for MultiChannelReplaySource {
    type Item = Vec<f64>;
    type IntoIter = MultiChannelReplayIter;

    fn into_iter(self) -> MultiChannelReplayIter {
        MultiChannelReplayIter {
            channels: self.channels,
            rate: self.rate,
            t: 0,
            started: None,
        }
    }
}

/// Iterator over a [`MultiChannelReplaySource`], yielding one frame (one
/// value per channel) at a time, sleeping to hold the target frame rate.
#[derive(Debug)]
pub struct MultiChannelReplayIter {
    channels: Vec<Vec<f64>>,
    rate: Option<f64>,
    t: usize,
    started: Option<Instant>,
}

impl Iterator for MultiChannelReplayIter {
    type Item = Vec<f64>;

    fn next(&mut self) -> Option<Vec<f64>> {
        if self.t >= self.channels[0].len() {
            return None;
        }
        if let Some(rate) = self.rate {
            let start = *self.started.get_or_insert_with(Instant::now);
            let due = Duration::from_secs_f64(self.t as f64 / rate);
            let elapsed = start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let row = self.channels.iter().map(|c| c[self.t]).collect();
        self.t += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.channels[0].len() - self.t;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Operator, TumblingWindowMean};
    use crate::Record;

    #[test]
    fn unpaced_replay_preserves_order_and_count() {
        let src = ReplaySource::new((0..500).map(|i| i as f64).collect());
        assert_eq!(src.len(), 500);
        let out: Vec<f64> = src.into_iter().collect();
        assert_eq!(out.len(), 500);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[499], 499.0);
    }

    #[test]
    fn replay_feeds_a_pipeline() {
        let src = ReplaySource::new((0..8).map(|i| i as f64).collect());
        let mut op = TumblingWindowMean::new(4);
        let mut out = Vec::new();
        for (t, x) in src.into_iter().enumerate() {
            op.process(Record::new(t as u64, x), &mut out);
        }
        op.flush(&mut out);
        // Two full windows: all eight records arrived, in order.
        let means: Vec<f64> = out.iter().map(|r| r.value).collect();
        assert_eq!(means, [1.5, 5.5]);
    }

    #[test]
    fn paced_replay_holds_the_rate_floor() {
        // 120 records at 2000/s must take at least ~59 ms (the last record
        // is due at 119/2000 s). Upper bounds would flake on loaded CI
        // machines; only the floor is asserted.
        let src = ReplaySource::new(vec![0.0; 120]).with_rate(2000.0);
        let start = Instant::now();
        let n = src.into_iter().count();
        let elapsed = start.elapsed();
        assert_eq!(n, 120);
        assert!(
            elapsed >= Duration::from_millis(55),
            "paced replay finished too fast: {elapsed:?}"
        );
    }

    #[test]
    #[should_panic(expected = "replay rate must be positive")]
    fn zero_rate_is_rejected() {
        let _ = ReplaySource::new(vec![1.0]).with_rate(0.0);
    }

    #[test]
    fn multi_channel_replay_yields_frames_and_interleaves() {
        let src = MultiChannelReplaySource::new(vec![vec![0.0, 1.0, 2.0], vec![10.0, 11.0, 12.0]]);
        assert_eq!(src.n_channels(), 2);
        assert_eq!(src.len(), 3);
        assert_eq!(
            src.interleaved(),
            vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0],
            "frame-major interleaving"
        );
        let rows: Vec<Vec<f64>> = src.into_iter().collect();
        assert_eq!(
            rows,
            vec![vec![0.0, 10.0], vec![1.0, 11.0], vec![2.0, 12.0]]
        );
    }

    #[test]
    fn multi_channel_paced_replay_holds_the_rate_floor() {
        let src =
            MultiChannelReplaySource::new(vec![vec![0.0; 100], vec![0.0; 100]]).with_rate(2000.0);
        let start = Instant::now();
        let n = src.into_iter().count();
        assert_eq!(n, 100);
        // Frame 99 is due at 99/2000 s; only the floor is asserted.
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    #[should_panic(expected = "ragged channel lengths")]
    fn ragged_channels_are_rejected() {
        let _ = MultiChannelReplaySource::new(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
