//! Multivariate ClaSS — the paper's future-work extension (§6: "we plan to
//! extend ClaSS to the multivariate setting, exploring sensor fusion and
//! dimension selection to improve accuracy").
//!
//! The design follows the paper's sketch: one univariate ClaSS instance per
//! selected channel ("temporal patterns are distributed across various
//! channels"), with
//!
//! * **dimension selection** — channels can be ranked during a probe phase
//!   and only the most informative ones segmented, and
//! * **sensor fusion** — per-channel change point votes are fused; a change
//!   point is emitted once a quorum of channels localises a change within a
//!   tolerance, at the median of the votes.

use crate::class::{ClassConfig, ClassSegmenter};
use crate::guard::{GuardConfig, GuardTrip, GuardVerdict, InputGuard};
use crate::segmenter::StreamingSegmenter;

/// How per-channel change point votes are fused.
#[derive(Debug, Clone, Copy)]
pub enum FusionStrategy {
    /// Emit when at least `min_votes` distinct channels report a change
    /// point within `tolerance` positions of each other.
    Quorum {
        /// Minimum number of agreeing channels.
        min_votes: usize,
        /// Maximum distance between agreeing votes, in observations.
        tolerance: u64,
    },
    /// Emit every per-channel change point (union; min_votes = 1 with
    /// deduplication inside `tolerance`).
    Any {
        /// Deduplication distance, in observations.
        tolerance: u64,
    },
}

impl FusionStrategy {
    /// Maximum distance between agreeing votes, in observations. Public
    /// so callers overriding the strategy (e.g. the CLI's `--fusion`
    /// knob) can keep the configured tolerance instead of re-deriving
    /// the default formula.
    pub fn tolerance(&self) -> u64 {
        match *self {
            FusionStrategy::Quorum { tolerance, .. } | FusionStrategy::Any { tolerance } => {
                tolerance
            }
        }
    }

    /// Number of distinct channels that must agree before a change point
    /// is emitted (1 for [`FusionStrategy::Any`]).
    pub fn min_votes(&self) -> usize {
        match *self {
            FusionStrategy::Quorum { min_votes, .. } => min_votes.max(1),
            FusionStrategy::Any { .. } => 1,
        }
    }
}

/// Which channels are segmented.
#[derive(Debug, Clone, Copy)]
pub enum ChannelSelection {
    /// Segment every channel.
    All,
    /// After a probe of `probe` observations, keep only the `k` channels
    /// with the highest variance (dead or flat sensors carry no pattern).
    TopVariance {
        /// Number of channels to keep.
        k: usize,
        /// Probe length in observations.
        probe: usize,
    },
}

/// Why a channel of a fused multivariate stream was retired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelFault {
    /// The channel's [`InputGuard`] tripped (see
    /// [`MultivariateConfig::channel_guard`]).
    Guard(GuardTrip),
    /// Retired by the caller (e.g. the serving layer quarantined the
    /// channel's source) via [`MultivariateClass::quarantine_channel`].
    External,
}

impl std::fmt::Display for ChannelFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelFault::Guard(trip) => write!(f, "{trip}"),
            ChannelFault::External => write!(f, "retired by the caller"),
        }
    }
}

/// Configuration of the multivariate segmenter.
#[derive(Debug, Clone)]
pub struct MultivariateConfig {
    /// Per-channel univariate configuration.
    pub base: ClassConfig,
    /// Vote fusion strategy.
    pub fusion: FusionStrategy,
    /// Channel selection strategy.
    pub selection: ChannelSelection,
    /// Per-channel degraded-input policy: a fused stream should lose a
    /// dead sensor, not die of it. Each channel gets its own
    /// [`InputGuard`]; a healed value replaces the raw one, a channel
    /// with no finite value yet is fed 0.0, and a trip retires the
    /// channel and re-quorums the fuser over the survivors. `None` (the
    /// default) delivers channel values verbatim and never retires a
    /// channel.
    pub channel_guard: Option<GuardConfig>,
}

impl MultivariateConfig {
    /// Quorum-of-half default on top of a univariate configuration.
    pub fn new(base: ClassConfig, n_channels: usize) -> Self {
        let tolerance = (base.window_size / 8).max(64) as u64;
        Self {
            base,
            fusion: FusionStrategy::Quorum {
                min_votes: n_channels.div_ceil(2).max(1),
                tolerance,
            },
            selection: ChannelSelection::All,
            channel_guard: None,
        }
    }

    /// The univariate configuration channel `i` is segmented with: the
    /// shared base with a per-channel seed so channels decorrelate. Public
    /// so stand-alone per-channel segmenters (differential tests, offline
    /// fusion references) can reproduce exactly what the multivariate
    /// segmenter runs internally.
    pub fn channel_config(&self, i: usize) -> ClassConfig {
        let mut c = self.base.clone();
        c.seed ^= (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
        c
    }
}

/// One pending per-channel vote.
#[derive(Debug, Clone, Copy)]
struct Vote {
    channel: usize,
    cp: u64,
}

/// The online vote-fusion state machine shared change points are distilled
/// through: per-channel change point reports enter as votes, and a fused
/// change point is emitted once the configured [`FusionStrategy`] is
/// satisfied. Extracted from [`MultivariateClass`] so the fusion layer can
/// be driven stand-alone — e.g. replaying votes recorded from independent
/// per-channel segmenters must reproduce the fused output exactly (the
/// serving-engine differential tests rely on this).
#[derive(Debug, Clone)]
pub struct VoteFuser {
    fusion: FusionStrategy,
    votes: Vec<Vote>,
    emitted: Vec<u64>,
}

impl VoteFuser {
    /// Creates an empty fuser for a fusion strategy.
    pub fn new(fusion: FusionStrategy) -> Self {
        Self {
            fusion,
            votes: Vec::new(),
            emitted: Vec::new(),
        }
    }

    /// Records one per-channel change point vote. Votes accumulate until
    /// the next [`VoteFuser::step`] (online) or [`VoteFuser::finish`]
    /// (end-of-stream) evaluates them.
    pub fn vote(&mut self, channel: usize, cp: u64) {
        self.votes.push(Vote { channel, cp });
    }

    /// Retires `channel` from the electorate: its pending votes are
    /// discarded and, under [`FusionStrategy::Quorum`], `min_votes` is
    /// re-derived so the `remaining_active` survivors can still reach a
    /// quorum — the same majority-of-channels formula
    /// [`MultivariateConfig::new`] would use for a fleet of that size,
    /// never raised above the configured value.
    pub fn retire_channel(&mut self, channel: usize, remaining_active: usize) {
        self.votes.retain(|v| v.channel != channel);
        if let FusionStrategy::Quorum {
            min_votes,
            tolerance,
        } = self.fusion
        {
            self.fusion = FusionStrategy::Quorum {
                min_votes: min_votes.min(remaining_active.div_ceil(2)).max(1),
                tolerance,
            };
        }
    }

    /// Advances the fuser to stream position `pos`: expires votes that can
    /// no longer join a quorum, then searches for a satisfied vote cluster.
    /// At most one fused change point is emitted per step.
    pub fn step(&mut self, pos: u64) -> Option<u64> {
        let tolerance = self.fusion.tolerance();
        // Expire votes that can no longer join a quorum.
        let horizon = 4 * tolerance + 1;
        self.votes.retain(|v| v.cp + horizon >= pos);
        self.emitted.retain(|&e| e + 2 * horizon >= pos);
        // Fusion: the first anchor whose cluster is a new change.
        let fused = self.votes.iter().find_map(|anchor| {
            self.cluster(&self.votes, anchor.cp)
                .and_then(|(cp, fresh)| fresh.then_some(cp))
        });
        if let Some(cp) = fused {
            self.emitted.push(cp);
            self.votes.retain(|v| v.cp.abs_diff(cp) > tolerance);
        }
        fused
    }

    /// Fuses every remaining vote at end-of-stream (no expiry: a finite
    /// stream's tail votes all count), appending fused change points to
    /// `cps` in ascending order.
    pub fn finish(&mut self, cps: &mut Vec<u64>) {
        let tolerance = self.fusion.tolerance();
        let mut votes = std::mem::take(&mut self.votes);
        votes.sort_by_key(|v| v.cp);
        let mut i = 0;
        while i < votes.len() {
            let anchor = votes[i].cp;
            let Some((cp, fresh)) = self.cluster(&votes, anchor) else {
                i += 1;
                continue;
            };
            if fresh {
                cps.push(cp);
                self.emitted.push(cp);
            }
            let next = votes.iter().position(|v| v.cp > anchor + tolerance);
            i = next.unwrap_or(votes.len());
        }
    }

    /// The cluster of `votes` within `tolerance` of `anchor`, one per
    /// channel (the first in `votes` order): `None` when it misses the
    /// quorum, else its median position and whether that is a new change
    /// (no change point emitted within `2 * tolerance`).
    fn cluster(&self, votes: &[Vote], anchor: u64) -> Option<(u64, bool)> {
        let tolerance = self.fusion.tolerance();
        let mut members: Vec<&Vote> = votes
            .iter()
            .filter(|v| v.cp.abs_diff(anchor) <= tolerance)
            .collect();
        members.sort_by_key(|v| v.channel);
        members.dedup_by_key(|v| v.channel);
        if members.len() < self.fusion.min_votes() {
            return None;
        }
        let mut positions: Vec<u64> = members.iter().map(|v| v.cp).collect();
        positions.sort_unstable();
        let cp = positions[positions.len() / 2];
        let fresh = !self
            .emitted
            .iter()
            .any(|&e| e.abs_diff(cp) <= 2 * tolerance);
        Some((cp, fresh))
    }
}

/// Multivariate streaming segmenter: per-channel ClaSS + vote fusion.
pub struct MultivariateClass {
    cfg: MultivariateConfig,
    n_channels: usize,
    /// One segmenter per channel; `None` for channels dropped by selection
    /// or retired by the channel guard.
    channels: Vec<Option<ClassSegmenter>>,
    /// Probe statistics for TopVariance selection, per channel: the count,
    /// sum and sum of squares of its finite values (the guards heal
    /// non-finite values only after the probe has seen them).
    probe_sums: Vec<(usize, f64, f64)>,
    probe_seen: usize,
    selected: bool,
    fuser: VoteFuser,
    scratch: Vec<u64>,
    /// One guard per channel; empty when the stream is unguarded.
    guards: Vec<InputGuard>,
    /// Why each retired channel was retired (`None` while healthy or when
    /// merely dropped by dimension selection).
    faults: Vec<Option<ChannelFault>>,
    t: u64,
}

impl MultivariateClass {
    /// Creates a multivariate segmenter over `n_channels` channels.
    ///
    /// # Panics
    /// Panics if `n_channels` is 0 or the selection keeps 0 channels.
    pub fn new(cfg: MultivariateConfig, n_channels: usize) -> Self {
        assert!(n_channels >= 1, "need at least one channel");
        if let ChannelSelection::TopVariance { k, .. } = cfg.selection {
            assert!(k >= 1, "selection must keep at least one channel");
        }
        let channels = (0..n_channels)
            .map(|i| Some(ClassSegmenter::new(cfg.channel_config(i))))
            .collect();
        Self {
            n_channels,
            channels,
            probe_sums: vec![(0, 0.0, 0.0); n_channels],
            probe_seen: 0,
            selected: matches!(cfg.selection, ChannelSelection::All),
            fuser: VoteFuser::new(cfg.fusion),
            scratch: Vec::new(),
            guards: cfg
                .channel_guard
                .map_or_else(Vec::new, |g| vec![InputGuard::new(g); n_channels]),
            faults: vec![None; n_channels],
            cfg,
            t: 0,
        }
    }

    /// Number of channels expected by [`MultivariateClass::step`].
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Indices of the channels currently being segmented.
    pub fn active_channels(&self) -> Vec<usize> {
        self.channels
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_some().then_some(i))
            .collect()
    }

    /// Why each channel was retired, indexed by channel; `None` for
    /// channels still active (or merely dropped by dimension selection).
    pub fn channel_faults(&self) -> &[Option<ChannelFault>] {
        &self.faults
    }

    /// Retires `channel` from the fused stream: its segmenter is dropped,
    /// the fault recorded, and the fuser re-quorumed over the survivors
    /// ([`VoteFuser::retire_channel`]). Serving layers call this with
    /// [`ChannelFault::External`] when a channel's upstream is lost; the
    /// channel guard calls it on a tripped policy. No-op for a channel
    /// that is already inactive.
    pub fn quarantine_channel(&mut self, channel: usize, fault: ChannelFault) {
        assert!(channel < self.n_channels, "channel out of range");
        if self.channels[channel].take().is_some() {
            self.faults[channel] = Some(fault);
            let remaining = self.channels.iter().filter(|c| c.is_some()).count();
            self.fuser.retire_channel(channel, remaining);
        }
    }

    /// Feeds one observation vector (one value per channel); fused change
    /// points are appended to `cps`.
    ///
    /// # Panics
    /// Panics if `xs.len() != n_channels`.
    pub fn step(&mut self, xs: &[f64], cps: &mut Vec<u64>) {
        assert_eq!(xs.len(), self.n_channels, "channel count mismatch");
        let pos = self.t;
        self.t += 1;
        // Dimension selection probe.
        if !self.selected {
            if let ChannelSelection::TopVariance { k, probe } = self.cfg.selection {
                for (sums, &x) in self.probe_sums.iter_mut().zip(xs) {
                    if x.is_finite() {
                        sums.0 += 1;
                        sums.1 += x;
                        sums.2 += x * x;
                    }
                }
                self.probe_seen += 1;
                if self.probe_seen >= probe {
                    let mut vars: Vec<(usize, f64)> = self
                        .probe_sums
                        .iter()
                        .enumerate()
                        .map(|(i, &(n, s, s2))| {
                            let n = n as f64;
                            // `max` turns the 0/0 of a channel without a
                            // finite value into 0: it ranks as flat.
                            (i, (s2 / n - (s / n) * (s / n)).max(0.0))
                        })
                        .collect();
                    vars.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let keep: Vec<usize> = vars.iter().take(k.max(1)).map(|&(i, _)| i).collect();
                    for (i, ch) in self.channels.iter_mut().enumerate() {
                        if !keep.contains(&i) {
                            *ch = None;
                        }
                    }
                    self.selected = true;
                }
            }
        }
        // Per-channel segmentation and vote collection. A guard trip
        // retires its channel before it steps; trips within one row
        // retire channels in ascending order.
        for i in 0..self.n_channels {
            let Some(seg) = self.channels[i].as_mut() else {
                continue;
            };
            let x = match self.guards.get_mut(i).map(|g| g.inspect(xs[i])) {
                None => xs[i],
                Some(GuardVerdict::Pass(v)) => v,
                // Nothing finite to hold yet: every channel still steps
                // once per row.
                Some(GuardVerdict::Skip) => 0.0,
                Some(GuardVerdict::Trip(trip)) => {
                    self.quarantine_channel(i, ChannelFault::Guard(trip));
                    continue;
                }
            };
            self.scratch.clear();
            seg.step(x, &mut self.scratch);
            for &cp in &self.scratch {
                self.fuser.vote(i, cp);
            }
        }
        if let Some(cp) = self.fuser.step(pos) {
            cps.push(cp);
        }
    }

    /// Signals end-of-stream to every channel, fusing remaining votes.
    pub fn finalize(&mut self, cps: &mut Vec<u64>) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            let Some(seg) = ch else { continue };
            self.scratch.clear();
            seg.finalize(&mut self.scratch);
            for &cp in &self.scratch {
                self.fuser.vote(i, cp);
            }
        }
        self.fuser.finish(cps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::WidthSelection;
    use crate::stats::SplitMix64;

    /// Channels 0 and 1 change regime at `cp`; channel 2 is pure noise.
    fn three_channel_stream(n: usize, cp: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let f = if i < cp { 0.15 } else { 0.45 };
                [
                    (i as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5),
                    (i as f64 * f * 1.1).cos() + 0.05 * (rng.next_f64() - 0.5),
                    rng.next_f64() - 0.5,
                ]
            })
            .collect()
    }

    fn base_cfg() -> ClassConfig {
        let mut c = ClassConfig::with_window_size(1500);
        c.width = WidthSelection::Fixed(30);
        c.log10_alpha = -12.0;
        c
    }

    #[test]
    fn quorum_fusion_detects_shared_change() {
        let xs = three_channel_stream(5000, 2500, 1);
        let cfg = MultivariateConfig::new(base_cfg(), 3);
        let mut mv = MultivariateClass::new(cfg, 3);
        let mut cps = Vec::new();
        for row in &xs {
            mv.step(row, &mut cps);
        }
        mv.finalize(&mut cps);
        assert!(
            cps.iter().any(|&c| (c as i64 - 2500).unsigned_abs() < 500),
            "cps = {cps:?}"
        );
    }

    #[test]
    fn noise_channel_alone_cannot_fire_quorum() {
        // All-noise streams: quorum 2 of 3 must stay quiet.
        let mut rng = SplitMix64::new(2);
        let cfg = MultivariateConfig::new(base_cfg(), 3);
        let mut mv = MultivariateClass::new(cfg, 3);
        let mut cps = Vec::new();
        for _ in 0..5000 {
            let row = [
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
            ];
            mv.step(&row, &mut cps);
        }
        assert!(cps.is_empty(), "false positives: {cps:?}");
    }

    #[test]
    fn top_variance_selection_drops_flat_channel() {
        let mut cfg = MultivariateConfig::new(base_cfg(), 3);
        cfg.selection = ChannelSelection::TopVariance { k: 2, probe: 200 };
        let mut mv = MultivariateClass::new(cfg, 3);
        let mut cps = Vec::new();
        let mut rng = SplitMix64::new(3);
        for i in 0..400 {
            let row = [
                (i as f64 * 0.2).sin(),
                0.0, // dead sensor
                rng.next_f64() - 0.5,
            ];
            mv.step(&row, &mut cps);
        }
        let active = mv.active_channels();
        assert_eq!(active.len(), 2);
        assert!(!active.contains(&1), "dead channel kept: {active:?}");
    }

    #[test]
    fn top_variance_probe_skips_non_finite_values() {
        // Channel 0 is informative, channel 1 nearly flat; a NaN in the
        // informative channel's probe must not rank it as flat.
        let run = |nan_at: Option<usize>| {
            let mut cfg = MultivariateConfig::new(base_cfg(), 2);
            cfg.selection = ChannelSelection::TopVariance { k: 1, probe: 200 };
            let mut mv = MultivariateClass::new(cfg, 2);
            let mut cps = Vec::new();
            for i in 0..400 {
                let x = if Some(i) == nan_at {
                    f64::NAN
                } else {
                    (i as f64 * 0.2).sin()
                };
                mv.step(&[x, 0.01 * (i as f64 * 0.3).sin()], &mut cps);
            }
            mv.active_channels()
        };
        assert_eq!(run(None), vec![0]);
        assert_eq!(run(Some(10)), vec![0]);
    }

    #[test]
    fn any_fusion_is_more_eager_than_quorum() {
        // Only channel 0 carries the change.
        let mut rng = SplitMix64::new(4);
        let xs: Vec<[f64; 2]> = (0..5000)
            .map(|i| {
                let f = if i < 2500 { 0.15 } else { 0.45 };
                [
                    (i as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5),
                    (i as f64 * 0.2).sin() + 0.05 * (rng.next_f64() - 0.5),
                ]
            })
            .collect();
        let run = |fusion: FusionStrategy| -> Vec<u64> {
            let mut cfg = MultivariateConfig::new(base_cfg(), 2);
            cfg.fusion = fusion;
            let mut mv = MultivariateClass::new(cfg, 2);
            let mut cps = Vec::new();
            for row in &xs {
                mv.step(row, &mut cps);
            }
            mv.finalize(&mut cps);
            cps
        };
        let any = run(FusionStrategy::Any { tolerance: 200 });
        let quorum = run(FusionStrategy::Quorum {
            min_votes: 2,
            tolerance: 200,
        });
        assert!(
            any.iter().any(|&c| (c as i64 - 2500).unsigned_abs() < 500),
            "any missed: {any:?}"
        );
        assert!(any.len() >= quorum.len());
    }

    #[test]
    #[should_panic]
    fn wrong_channel_count_panics() {
        let cfg = MultivariateConfig::new(base_cfg(), 2);
        let mut mv = MultivariateClass::new(cfg, 2);
        let mut cps = Vec::new();
        mv.step(&[1.0], &mut cps);
    }

    #[test]
    fn fused_output_is_reproducible_from_per_channel_votes() {
        // Stand-alone per-channel segmenters (built from `channel_config`)
        // plus a fresh `VoteFuser` replaying their timed votes must
        // reproduce the multivariate segmenter's output exactly.
        let xs = three_channel_stream(5000, 2500, 9);
        let cfg = MultivariateConfig::new(base_cfg(), 3);

        let mut mv = MultivariateClass::new(cfg.clone(), 3);
        let mut fused = Vec::new();
        for row in &xs {
            mv.step(row, &mut fused);
        }
        mv.finalize(&mut fused);

        // Record (emit time, cp) votes from independent channel runs.
        let mut segs: Vec<ClassSegmenter> = (0..3)
            .map(|i| ClassSegmenter::new(cfg.channel_config(i)))
            .collect();
        let mut fuser = VoteFuser::new(cfg.fusion);
        let mut replayed = Vec::new();
        let mut scratch = Vec::new();
        for (t, row) in xs.iter().enumerate() {
            for (i, seg) in segs.iter_mut().enumerate() {
                scratch.clear();
                seg.step(row[i], &mut scratch);
                for &cp in &scratch {
                    fuser.vote(i, cp);
                }
            }
            if let Some(cp) = fuser.step(t as u64) {
                replayed.push(cp);
            }
        }
        for (i, seg) in segs.iter_mut().enumerate() {
            scratch.clear();
            seg.finalize(&mut scratch);
            for &cp in &scratch {
                fuser.vote(i, cp);
            }
        }
        fuser.finish(&mut replayed);
        assert_eq!(fused, replayed);
        assert!(!fused.is_empty(), "no change point fused at all");
    }

    #[test]
    fn nan_burst_retires_a_channel_and_the_fused_stream_survives() {
        // Channel 2's sensor dies at t=1000 (NaNs forever after); the
        // fused stream must retire it and still localise the shared
        // change at 2500 from the two survivors.
        let mut xs = three_channel_stream(5000, 2500, 11);
        for row in xs.iter_mut().skip(1000) {
            row[2] = f64::NAN;
        }
        let mut cfg = MultivariateConfig::new(base_cfg(), 3);
        cfg.channel_guard = Some(GuardConfig::new(5, 0));
        let mut mv = MultivariateClass::new(cfg, 3);
        let mut cps = Vec::new();
        for row in &xs {
            mv.step(row, &mut cps);
        }
        mv.finalize(&mut cps);
        assert_eq!(
            mv.channel_faults()[2],
            Some(ChannelFault::Guard(GuardTrip::NanBurst { len: 5 })),
            "the dead sensor is retired with its cause recorded"
        );
        assert_eq!(mv.active_channels(), vec![0, 1]);
        assert!(
            cps.iter().any(|&c| (c as i64 - 2500).unsigned_abs() < 500),
            "the degraded stream missed the change: {cps:?}"
        );
    }

    #[test]
    fn flatline_retires_a_channel() {
        let mut xs = three_channel_stream(3000, 1500, 12);
        for row in xs.iter_mut().skip(800) {
            row[2] = 0.25; // sensor sticks
        }
        let mut cfg = MultivariateConfig::new(base_cfg(), 3);
        cfg.channel_guard = Some(GuardConfig::new(0, 50));
        let mut mv = MultivariateClass::new(cfg, 3);
        let mut cps = Vec::new();
        for row in &xs {
            mv.step(row, &mut cps);
        }
        assert_eq!(
            mv.channel_faults()[2],
            Some(ChannelFault::Guard(GuardTrip::Flatline {
                len: 50,
                value: 0.25
            }))
        );
        assert_eq!(mv.active_channels(), vec![0, 1]);
    }

    #[test]
    fn short_nan_runs_heal_without_retiring_the_channel() {
        let mut xs = three_channel_stream(3000, 1500, 13);
        // Isolated dropouts well under the 5-burst threshold.
        for t in (100..2900).step_by(97) {
            xs[t][2] = f64::NAN;
        }
        let mut cfg = MultivariateConfig::new(base_cfg(), 3);
        cfg.channel_guard = Some(GuardConfig::new(5, 0));
        let mut mv = MultivariateClass::new(cfg, 3);
        let mut cps = Vec::new();
        for row in &xs {
            mv.step(row, &mut cps);
        }
        assert_eq!(mv.channel_faults(), &[None, None, None]);
        assert_eq!(mv.active_channels(), vec![0, 1, 2]);
    }

    #[test]
    fn leading_nans_on_a_guarded_channel_are_fed_as_zero() {
        // Channels 0 and 2 deliver no finite value for their first four
        // rows (under the 5-burst threshold): the guard has nothing to
        // hold, so they step on 0.0 and stay in step with channel 1.
        let mut zeros = three_channel_stream(5000, 2500, 15);
        for row in zeros.iter_mut().take(4) {
            row[0] = 0.0;
            row[2] = 0.0;
        }
        let mut nans = zeros.clone();
        for row in nans.iter_mut().take(4) {
            row[0] = f64::NAN;
            row[2] = f64::NEG_INFINITY;
        }
        let run = |xs: &[[f64; 3]], guard: Option<GuardConfig>| {
            let mut cfg = MultivariateConfig::new(base_cfg(), 3);
            cfg.channel_guard = guard;
            let mut mv = MultivariateClass::new(cfg, 3);
            let mut cps = Vec::new();
            for row in xs {
                mv.step(row, &mut cps);
            }
            mv.finalize(&mut cps);
            (cps, mv.active_channels())
        };
        let (guarded, active) = run(&nans, Some(GuardConfig::new(5, 0)));
        assert_eq!(active, vec![0, 1, 2]);
        let (reference, _) = run(&zeros, None);
        assert!(!reference.is_empty(), "no change point fused at all");
        assert_eq!(guarded, reference);
    }

    #[test]
    fn external_retirement_requorums_so_survivors_can_still_emit() {
        // Only channel 0 carries the change; 1 and 2 are noise. Under the
        // default 2-of-3 quorum the change is invisible — but when the
        // serving layer retires the two noise channels, the re-quorum
        // (majority of the survivors = 1) lets the last sensor speak.
        let mut rng = SplitMix64::new(14);
        let xs: Vec<[f64; 3]> = (0..5000)
            .map(|i| {
                let f = if i < 2500 { 0.15 } else { 0.45 };
                [
                    (i as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5),
                    rng.next_f64() - 0.5,
                    rng.next_f64() - 0.5,
                ]
            })
            .collect();
        let run = |retire: bool| -> Vec<u64> {
            let cfg = MultivariateConfig::new(base_cfg(), 3);
            let mut mv = MultivariateClass::new(cfg, 3);
            if retire {
                mv.quarantine_channel(1, ChannelFault::External);
                mv.quarantine_channel(2, ChannelFault::External);
            }
            let mut cps = Vec::new();
            for row in &xs {
                mv.step(row, &mut cps);
            }
            mv.finalize(&mut cps);
            cps
        };
        let degraded = run(true);
        assert!(
            degraded
                .iter()
                .any(|&c| (c as i64 - 2500).unsigned_abs() < 500),
            "re-quorumed survivor missed the change: {degraded:?}"
        );
        let full_quorum = run(false);
        assert!(
            !full_quorum
                .iter()
                .any(|&c| (c as i64 - 2500).unsigned_abs() < 500),
            "2-of-3 quorum should not fire on a single channel: {full_quorum:?}"
        );
    }

    #[test]
    fn quarantine_is_idempotent_and_keeps_the_ledger_of_faults() {
        let cfg = MultivariateConfig::new(base_cfg(), 3);
        let mut mv = MultivariateClass::new(cfg, 3);
        mv.quarantine_channel(1, ChannelFault::External);
        mv.quarantine_channel(1, ChannelFault::Guard(GuardTrip::NanBurst { len: 9 }));
        assert_eq!(
            mv.channel_faults()[1],
            Some(ChannelFault::External),
            "the first cause wins; retiring a retired channel is a no-op"
        );
        assert_eq!(mv.active_channels(), vec![0, 2]);
    }

    #[test]
    fn deterministic_across_runs() {
        let xs = three_channel_stream(4000, 2000, 5);
        let run = || {
            let cfg = MultivariateConfig::new(base_cfg(), 3);
            let mut mv = MultivariateClass::new(cfg, 3);
            let mut cps = Vec::new();
            for row in &xs {
                mv.step(row, &mut cps);
            }
            mv.finalize(&mut cps);
            cps
        };
        assert_eq!(run(), run());
    }
}
