//! Incremental self-supervised cross-validation (paper §3.2, Algorithm 3).
//!
//! For every hypothetical split of the scored sliding-window range into a
//! left (label 0) and right (label 1) part, a leave-one-out k-NN classifier
//! is evaluated: each subsequence's prediction is the majority label of its
//! k nearest neighbours. The resulting classification score per split forms
//! the ClaSP profile.
//!
//! A naive evaluation costs O(d) per split and O(d^2) per stream update.
//! Two observations bring this down to O(d) per evaluation:
//!
//! 1. **Predictions flip at most once** (a sharpening of the paper's
//!    Algorithm 3). A neighbour with subsequence id `q` votes class 1 at
//!    split sid `s` exactly when `q >= s` — this covers in-range and
//!    pre-range neighbours uniformly ("negative offsets belong to class
//!    zero by design" is just `q < s`). The number of class-1 votes a row
//!    receives is therefore non-increasing in `s`, so its majority
//!    prediction flips from 1 to 0 at most once: at its **flip sid** — one
//!    past its majority-rank neighbour sid, a closed-form per-row threshold
//!    that replaces Algorithm 3's reverse-k-NN adjacency walk outright.
//!    With `S` the first scored sid and `f(j)` row `j`'s flip sid, split
//!    `p` then has `tot_ones[p] = #{j : f(j) > S + p}` rows predicted 1,
//!    and `left_ones[p] = #{j < p : f(j) > S + p}` of them on its left.
//!    From one split to the next, `left_ones` gains row `p - 1` if
//!    `f(p - 1) > S + p` and loses the rows `j < p - 1` whose flip sid is
//!    exactly `S + p`. Both terms concern *late* rows, those whose flip
//!    sid is above their own sid + 1: row `p - 1` has sid `S + p - 1`, so
//!    it is gained exactly when it is late, and a row `j < p - 1` with
//!    flip sid `S + p` is late. Neither term depends on `S`. Keyed by
//!    absolute sid, a late row with sid `r` and flip sid `f` adds 1 at key
//!    `r + 1` and subtracts 1 at key `f`, and `left_ones[p]` is the sum of
//!    this *step* column over the keys `(S, S + p]`. So one full profile
//!    is two prefix sums over two counts per sid: how many rows have each
//!    flip sid (giving `tot_ones`), and the step (giving `left_ones`).
//!
//! 2. **The index keeps the flip sids and their counts.** A flip sid is an
//!    *absolute* stream position: advancing the scored range does not
//!    change it, and it changes only when the row's neighbour list does.
//!    [`StreamingKnn`] edits a list at exactly two places (row creation and
//!    admission of a newer subsequence) and recomputes the row's flip sid
//!    there, in O(k²) per changed row, into a row-aligned column
//!    ([`StreamingKnn::flip_sids`]). At the same places, and where a row
//!    leaves, it keeps both counts up to date in O(1), for the rows at or
//!    after its floor ([`StreamingKnn::floor_sid`]); ClaSS raises the
//!    floor to each change point, so the floor is the first scored sid.
//!    An evaluation reads the counts in place as contiguous spans and
//!    runs both prefix sums in one dispatched kernel
//!    ([`crate::simd::split_counts`], 8 splits per instruction on AVX2);
//!    it never reads the flip column or the `n·k` neighbour lists, and
//!    never rebuilds the counts. A range that starts after the floor
//!    first corrects a copy for the rows in between.
//!
//! [`CrossVal::compute`] runs that pass and scores no split. The score pass
//! ([`crate::simd::profile_scores`], dispatched like the k-NN kernels)
//! costs two `f64` divisions per split, and ClaSS acts on a profile only
//! when its maximum reaches `min_score` — rarely: most evaluations of a
//! stationary stream end below it. So the count pass also leaves one
//! upper bound per 64-split block: the split score at the block's corner
//! counts (its last split, its smallest left count, its largest total).
//! Both scores are monotone in each count, so the bound is at least every
//! score of the block, bit for bit (see [`crate::simd::scalar::split_score`]).
//! [`CrossVal::peak`] scores only the blocks whose bound reaches
//! `min_score` and scans only those whose maximum beats the best so far;
//! [`CrossVal::profile`] scores every block. The tie rule is the first
//! maximum, as a left-to-right `>` scan gives.

use crate::knn::StreamingKnn;
use crate::simd::{self, BLOCK};
use crate::stats::BinaryGroups;
use std::ops::Range;

/// Classification score derived from the running confusion matrix
/// (paper ablation (e): macro F1 is the default, macro/balanced accuracy the
/// alternative; both are computable in O(1) from the confusion matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreFn {
    /// Macro-averaged F1 over both classes (paper default).
    #[default]
    MacroF1,
    /// Balanced (macro-averaged) accuracy.
    BalancedAccuracy,
}

impl ScoreFn {
    /// Identifier used by the ablation harness.
    pub fn name(self) -> &'static str {
        match self {
            ScoreFn::MacroF1 => "macro-f1",
            ScoreFn::BalancedAccuracy => "balanced-accuracy",
        }
    }

    /// Score from a 2x2 confusion matrix `m[true][pred]`.
    ///
    /// [`CrossVal`] evaluates the same arithmetic in
    /// [`crate::simd::profile_scores`] on `i32` counts (the scored range is
    /// far below `i32::MAX`); the conversions are exact for both widths, so
    /// the two paths are bit-identical.
    #[inline]
    pub fn score(self, m: &[[i64; 2]; 2]) -> f64 {
        match self {
            ScoreFn::MacroF1 => {
                let f1 = |c: usize| {
                    let tp = m[c][c];
                    let fp = m[1 - c][c];
                    let fn_ = m[c][1 - c];
                    let denom = 2 * tp + fp + fn_;
                    if denom == 0 {
                        0.0
                    } else {
                        2.0 * tp as f64 / denom as f64
                    }
                };
                0.5 * (f1(0) + f1(1))
            }
            ScoreFn::BalancedAccuracy => {
                let rec = |c: usize| {
                    let denom = m[c][0] + m[c][1];
                    if denom == 0 {
                        0.0
                    } else {
                        m[c][c] as f64 / denom as f64
                    }
                };
                0.5 * (rec(0) + rec(1))
            }
        }
    }
}

/// Reusable cross-validation engine.
///
/// [`CrossVal::compute`] depends only on the index it is given: it carries
/// no state from one call to the next except its buffers, which are kept so
/// that the per-evaluation hot path performs no allocation once warmed up.
#[derive(Debug, Clone)]
pub struct CrossVal {
    score_fn: ScoreFn,
    /// Split scores, written block by block on demand; grown, never
    /// cleared, so a block not yet scored holds stale values.
    profile: Vec<f64>,
    /// Largest score per [`BLOCK`]-split block of `profile`, fused into the
    /// score pass (see [`simd::profile_scores`]); valid for scored blocks.
    block_max: Vec<f64>,
    /// Upper bound on every score of each block, from the sweep.
    bound: Vec<f64>,
    /// Whether every block of the last computation is scored.
    scored: bool,
    /// `left_ones[p] = #{rows j < p predicted 1 at split p}`.
    left_ones: Vec<u32>,
    /// `tot_ones[p] = #{rows predicted 1 at split p}`.
    tot_ones: Vec<u32>,
    /// Smallest `left_ones` per block of splits.
    l_min: Vec<u32>,
    /// The index's flip counts less the rows before the range start, for
    /// a range that starts after the index's floor.
    local: Vec<u32>,
    nn: usize,
    start_sid: i64,
}

impl CrossVal {
    /// Creates an engine with the given split score.
    pub fn new(score_fn: ScoreFn) -> Self {
        Self {
            score_fn,
            profile: Vec::new(),
            block_max: Vec::new(),
            bound: Vec::new(),
            scored: false,
            left_ones: Vec::new(),
            tot_ones: Vec::new(),
            l_min: Vec::new(),
            local: Vec::new(),
            nn: 0,
            start_sid: 0,
        }
    }

    /// Score function in use.
    pub fn score_fn(&self) -> ScoreFn {
        self.score_fn
    }

    /// Number of subsequences scored by the last [`CrossVal::compute`].
    pub fn len(&self) -> usize {
        self.nn
    }

    /// Whether the last computation scored nothing.
    pub fn is_empty(&self) -> bool {
        self.nn == 0
    }

    /// The ClaSP profile of the last computation: `profile()[p]` is the
    /// cross-validation score of the split placing the first `p` scored
    /// subsequences into class 0. Valid for `p` in `1..len()`; index 0 is 0.
    ///
    /// [`CrossVal::compute`] scores no split; the first call after it
    /// scores them all, in O(`len()`), and later calls return the same
    /// scores at no cost.
    pub fn profile(&mut self) -> &[f64] {
        if !self.scored {
            self.score_blocks(0..self.nn.div_ceil(BLOCK));
            self.scored = true;
        }
        &self.profile[..self.nn]
    }

    /// Absolute sid of the first subsequence scored by the last
    /// [`CrossVal::compute`] — i.e. `profile()[p]` splits at absolute sid
    /// `range_start_sid() + p`. Under jump-ahead evaluation this may lag
    /// the index's live range start by up to `jump - 1` positions.
    pub fn range_start_sid(&self) -> i64 {
        self.start_sid
    }

    /// Predicted-label group counts at split `p`, as needed by the
    /// significance test (paper §3.3).
    ///
    /// # Panics
    /// Panics unless `1 <= p < len()`.
    pub fn groups_at(&self, p: usize) -> BinaryGroups {
        assert!(
            p >= 1 && p < self.nn,
            "split {p} outside the scored splits 1..{}",
            self.nn
        );
        let left = self.left_ones[p] as u64;
        let tot = self.tot_ones[p] as u64;
        BinaryGroups {
            n_left: p as u64,
            ones_left: left,
            n_right: (self.nn - p) as u64,
            ones_right: tot - left,
        }
    }

    /// The best split of the last computation that keeps `margin` scored
    /// subsequences on either side: the first `p` in `[margin, len() -
    /// margin)` whose score is that range's maximum, with the maximum.
    /// `None` when the range holds fewer than two splits (`2·margin + 2 >
    /// len()`) or its maximum is below `min_score`.
    ///
    /// Only the blocks whose bound reaches `min_score` are scored, and
    /// only those whose maximum beats the best so far are scanned. A
    /// pruned block's scores are all below `min_score`, so they can
    /// neither be the maximum nor precede it as an equal score. Scores are
    /// finite and never `-0.0`, so the first split equal to the maximum is
    /// the first maximum.
    pub fn peak(&mut self, margin: usize, min_score: f64) -> Option<(usize, f64)> {
        let nn = self.nn;
        if nn < 2 * margin + 2 {
            return None;
        }
        let (lo, hi) = (margin, nn - margin);
        let (mut best_p, mut best) = (lo, f64::NEG_INFINITY);
        for b in lo / BLOCK..hi.div_ceil(BLOCK) {
            if self.bound[b] < min_score {
                continue;
            }
            if !self.scored {
                self.score_blocks(b..b + 1);
            }
            if self.block_max[b] <= best {
                continue;
            }
            let (s, e) = ((b * BLOCK).max(lo), (b * BLOCK + BLOCK).min(hi));
            let scores = &self.profile[s..e];
            let max = scores.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
            if max > best {
                best = max;
                best_p = s + scores
                    .iter()
                    .position(|&v| v == max)
                    .expect("a score of the block");
            }
        }
        if best < min_score {
            return None;
        }
        Some((best_p, best))
    }

    /// Computes the split counts over the k-NN slots `[start_slot, m_max)`
    /// and a score bound per block of splits; the scores themselves follow
    /// on demand ([`CrossVal::peak`], [`CrossVal::profile`]). Returns the
    /// number of scored subsequences `nn` (0 if fewer than two
    /// subsequences are in range).
    ///
    /// The pass reads the index's flip counts in place when the range
    /// starts at [`StreamingKnn::floor_sid`]; a later start first
    /// corrects a copy for the rows in between, in O(`nn` + rows).
    ///
    /// # Panics
    /// Panics if `start_slot` is below [`StreamingKnn::qstart`] (such a
    /// slot holds no live subsequence) or its sid is below the floor.
    pub fn compute(&mut self, knn: &StreamingKnn, start_slot: usize) -> usize {
        let qstart = knn.qstart();
        assert!(
            start_slot >= qstart,
            "start slot {start_slot} is before the first live slot {qstart}"
        );
        self.nn = 0;
        let nn = knn.max_subsequences().saturating_sub(start_slot);
        if nn == 0 {
            return 0;
        }
        let start_sid = knn.sid_of_slot(start_slot);
        let floor = knn.floor_sid();
        assert!(
            start_sid >= floor,
            "start sid {start_sid} is below the k-NN floor {floor}"
        );
        debug_assert_eq!(Some(start_sid + nn as i64 - 1), knn.newest_sid());
        self.start_sid = start_sid;
        if nn < 2 {
            return 0;
        }
        let (cnt, step) = knn.flip_counts();
        let skip = (start_sid - floor) as usize;
        if skip == 0 {
            self.sweep(nn, cnt, step);
            return nn;
        }
        // The `cnt` keys up to the start fold into the start key; then the
        // rows in `[floor, start)` come out of the copy. Their `step` keys
        // at or below the start are never summed, so only the -1 of a late
        // row at a flip sid past the start is added back.
        let row = start_slot - qstart;
        let mut local = std::mem::take(&mut self.local);
        local.clear();
        local.push(cnt[..=skip].iter().sum());
        local.extend_from_slice(&cnt[skip + 1..]);
        local.extend_from_slice(&step[skip..]);
        let (c, s) = local.split_at_mut(nn + 1);
        for (sid, &f) in (floor..).zip(&knn.flip_sids()[row - skip..row]) {
            c[(f.max(start_sid) - start_sid) as usize] -= 1;
            if f > sid + 1 && f > start_sid {
                let i = (f - start_sid) as usize;
                s[i] = s[i].wrapping_add(1);
            }
        }
        self.sweep(nn, c, s);
        self.local = local;
        nn
    }

    /// The split sweep over an `nn`-row range: `cnt` and `step` hold the
    /// counts of the keys `[S, S + nn)` over the range's rows, `S` its
    /// first sid (see [`StreamingKnn::flip_counts`]). A prefix sum of
    /// `cnt` counts the rows with flip sid at most `S + p`, the rows
    /// predicted 0 at split `p`, and one of `step` from key `S + 1` gives
    /// `left_ones` ([`simd::split_counts`]). The kernel also leaves each
    /// block's smallest `left_ones`, and the block's score bound is the
    /// split score at its last split, that minimum and its largest
    /// `tot_ones` (the first, as `tot_ones` is non-increasing), which is
    /// at least every score of the block (see
    /// [`simd::scalar::split_score`]).
    fn sweep(&mut self, nn: usize, cnt: &[u32], step: &[u32]) {
        let blocks = nn.div_ceil(BLOCK);
        self.nn = nn;
        self.scored = false;
        // Grow only: every count is written below, the scores on demand.
        if self.profile.len() < nn {
            self.profile.resize(nn, 0.0);
            self.block_max.resize(blocks, 0.0);
            self.left_ones.resize(nn, 0);
            self.tot_ones.resize(nn, 0);
            self.l_min.resize(blocks, 0);
        }
        let (tot_ones, l_min) = (&mut self.tot_ones[..nn], &mut self.l_min[..blocks]);
        simd::split_counts(
            &cnt[..nn],
            &step[..nn],
            &mut self.left_ones[..nn],
            tot_ones,
            l_min,
        );
        self.bound.clear();
        for (b, &l) in l_min.iter().enumerate() {
            let (lo, hi) = ((b * BLOCK).max(1), (b * BLOCK + BLOCK).min(nn));
            self.bound.push(simd::scalar::split_score(
                self.score_fn,
                (hi - 1) as i32,
                l as i32,
                tot_ones[lo] as i32,
                nn as i32,
            ));
        }
    }

    /// Scores the splits of `blocks` of the last computation.
    fn score_blocks(&mut self, blocks: Range<usize>) {
        let nn = self.nn;
        simd::profile_scores(
            self.score_fn,
            &self.left_ones[..nn],
            &self.tot_ones[..nn],
            &mut self.profile[..nn],
            &mut self.block_max[..nn.div_ceil(BLOCK)],
            blocks,
        );
    }
}

/// Naive reference: evaluates one split from scratch in O(k·n). Used by
/// tests and the benchmark harness to validate and time the incremental
/// algorithm against the paper's O(d^2) baseline.
pub fn naive_split_score(
    knn: &StreamingKnn,
    start_slot: usize,
    p: usize,
    score_fn: ScoreFn,
) -> f64 {
    let m_max = knn.max_subsequences();
    let nn = m_max - start_slot;
    let start_sid = knn.sid_of_slot(start_slot);
    let split_sid = start_sid + p as i64;
    let mut m = [[0i64; 2]; 2];
    for j in 0..nn {
        let (sids, _) = knn.neighbors(start_slot + j);
        let mut zeros = 0;
        let mut ones = 0;
        for &nsid in sids {
            if nsid < split_sid {
                zeros += 1;
            } else {
                ones += 1;
            }
        }
        let pred = usize::from(zeros < ones);
        let truth = usize::from(j >= p);
        m[truth][pred] += 1;
    }
    score_fn.score(&m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{KnnConfig, StreamingKnn};
    use crate::stats::SplitMix64;
    use proptest::prelude::*;

    fn feed(n: usize, d: usize, w: usize, k: usize, seed: u64) -> StreamingKnn {
        let mut rng = SplitMix64::new(seed);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, k));
        for _ in 0..n {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        knn
    }

    fn feed_two_regimes(n: usize, d: usize, w: usize, k: usize, seed: u64) -> StreamingKnn {
        let mut rng = SplitMix64::new(seed);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, k));
        for i in 0..n {
            let base = if i < n / 2 {
                (i as f64 * 0.7).sin()
            } else {
                ((i as f64 * 0.1).sin() * 3.0).tanh() * 2.0
            };
            knn.update(base + 0.05 * (rng.next_f64() - 0.5));
        }
        knn
    }

    #[test]
    fn incremental_matches_naive_random() {
        let knn = feed(180, 120, 6, 3, 21);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        assert!(nn > 2);
        for p in 1..nn {
            let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
            let got = cv.profile()[p];
            assert!((got - want).abs() < 1e-12, "p = {p}: {got} vs {want}");
        }
    }

    #[test]
    fn incremental_matches_naive_with_eviction_and_offsets() {
        // Long stream so neighbours expire; also score a sub-range.
        let knn = feed(500, 150, 8, 3, 22);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart() + 37;
        let nn = cv.compute(&knn, start);
        assert!(nn > 2);
        for p in 1..nn {
            let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
            let got = cv.profile()[p];
            assert!((got - want).abs() < 1e-12, "p = {p}: {got} vs {want}");
        }
    }

    #[test]
    fn incremental_matches_naive_balanced_accuracy() {
        let knn = feed(260, 130, 7, 5, 23);
        let mut cv = CrossVal::new(ScoreFn::BalancedAccuracy);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        for p in 1..nn {
            let want = naive_split_score(&knn, start, p, ScoreFn::BalancedAccuracy);
            let got = cv.profile()[p];
            assert!((got - want).abs() < 1e-12, "p = {p}");
        }
    }

    #[test]
    fn group_counts_match_direct_recount() {
        let knn = feed(300, 140, 6, 3, 24);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        for &p in &[1usize, nn / 3, nn / 2, nn - 1] {
            assert_eq!(cv.groups_at(p), naive_groups(&knn, start, p), "p = {p}");
        }
    }

    #[test]
    fn profile_peaks_near_true_change_point() {
        // Two clearly different regimes; the best split should fall near the
        // middle of the scored range.
        let n = 400;
        let knn = feed_two_regimes(n, 400, 10, 3, 25);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let nn = cv.compute(&knn, knn.qstart());
        assert!(nn > 10);
        let (best, score) = cv.peak(30, 0.0).expect("room for a split");
        let true_split = nn / 2;
        assert!(
            (best as i64 - true_split as i64).unsigned_abs() < 40,
            "best split {best}, expected ~{true_split}"
        );
        assert!(score > 0.85, "peak score {score}");
    }

    #[test]
    fn too_small_range_returns_zero() {
        let knn = feed(40, 60, 6, 3, 26);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let nn = cv.compute(&knn, knn.max_subsequences() - 1);
        assert_eq!(nn, 0);
        assert!(cv.is_empty());
    }

    #[test]
    fn engine_is_reusable_across_different_sizes() {
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for (n, d, w) in [(150usize, 100usize, 6usize), (260, 130, 9), (90, 80, 4)] {
            let knn = feed(n, d, w, 3, 27);
            let start = knn.qstart();
            let nn = cv.compute(&knn, start);
            for p in (1..nn).step_by(7) {
                let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
                assert!((cv.profile()[p] - want).abs() < 1e-12);
            }
        }
    }

    /// Predicted-label group counts at split `p`, recounted from the
    /// neighbour lists.
    fn naive_groups(knn: &StreamingKnn, start_slot: usize, p: usize) -> BinaryGroups {
        let nn = knn.max_subsequences() - start_slot;
        let split_sid = knn.sid_of_slot(start_slot) + p as i64;
        let ones = |rows: std::ops::Range<usize>| {
            rows.filter(|&j| {
                let (sids, _) = knn.neighbors(start_slot + j);
                let zeros = sids.iter().filter(|&&s| s < split_sid).count();
                zeros * 2 < sids.len()
            })
            .count() as u64
        };
        BinaryGroups {
            n_left: p as u64,
            ones_left: ones(0..p),
            n_right: (nn - p) as u64,
            ones_right: ones(p..nn),
        }
    }

    /// Asserts that `cv`'s last computation is the one the neighbour lists
    /// define over `[start_slot, m_max)`: the scored length and range
    /// start, every split's [`naive_split_score`] bit for bit, and the
    /// group counts.
    fn assert_matches_naive(cv: &mut CrossVal, knn: &StreamingKnn, start_slot: usize) {
        let nn = knn.max_subsequences() - start_slot;
        if nn < 2 {
            assert!(cv.is_empty(), "nothing to score");
            return;
        }
        assert_eq!(cv.len(), nn, "scored length");
        assert_eq!(cv.range_start_sid(), knn.sid_of_slot(start_slot));
        assert_eq!(cv.profile()[0], 0.0, "index 0 is by convention 0");
        for p in 1..nn {
            let want = naive_split_score(knn, start_slot, p, cv.score_fn());
            let got = cv.profile()[p];
            assert_eq!(got.to_bits(), want.to_bits(), "p = {p}: {got} vs {want}");
            assert_eq!(
                cv.groups_at(p),
                naive_groups(knn, start_slot, p),
                "groups at p = {p}"
            );
        }
    }

    #[test]
    fn warm_reevaluation_is_bit_exact_every_step() {
        // Persistent engine, evaluated after every single update, through
        // growth, steady state and eviction.
        let mut rng = SplitMix64::new(31);
        let mut knn = StreamingKnn::new(KnnConfig::new(100, 6, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for _ in 0..320 {
            if !knn.update(rng.next_f64() * 2.0 - 1.0) {
                continue;
            }
            cv.compute(&knn, knn.qstart());
            assert_matches_naive(&mut cv, &knn, knn.qstart());
        }
    }

    #[test]
    fn warm_reevaluation_with_jump_and_range_advance() {
        // Evaluate only every 5th update (jump-ahead) while the range start
        // leaps forward in chunks, as after detected change points.
        let mut rng = SplitMix64::new(32);
        let mut knn = StreamingKnn::new(KnnConfig::new(140, 7, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let mut extra_start = 0usize; // simulated cpl offset
        let mut since = 0usize;
        for i in 0..600 {
            if !knn.update(rng.next_f64() * 2.0 - 1.0) {
                continue;
            }
            since += 1;
            if since < 5 {
                continue;
            }
            since = 0;
            if i % 150 == 0 && knn.n_subsequences() > extra_start + 40 {
                extra_start += 23;
            }
            let start = knn.qstart() + extra_start.min(knn.n_subsequences() - 1);
            cv.compute(&knn, start);
            assert_matches_naive(&mut cv, &knn, start);
        }
    }

    #[test]
    fn warm_reevaluation_with_nans_is_bit_exact() {
        // Non-finite values shorten neighbour lists and later heal; the
        // flip sids must follow the lists throughout.
        let mut rng = SplitMix64::new(33);
        let mut knn = StreamingKnn::new(KnnConfig::new(90, 6, 3));
        let mut cv = CrossVal::new(ScoreFn::BalancedAccuracy);
        for i in 0..420 {
            let x = if i % 97 == 41 {
                f64::NAN
            } else {
                rng.next_f64() * 2.0 - 1.0
            };
            if !knn.update(x) {
                continue;
            }
            if i % 3 != 0 {
                continue;
            }
            cv.compute(&knn, knn.qstart());
            assert_matches_naive(&mut cv, &knn, knn.qstart());
        }
    }

    #[test]
    fn long_gap_between_evaluations_is_exact() {
        // Leave the engine unused over many window turnovers; the next
        // compute must still be exact.
        let mut rng = SplitMix64::new(34);
        let mut knn = StreamingKnn::new(KnnConfig::new(80, 5, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for _ in 0..120 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        cv.compute(&knn, knn.qstart());
        assert_matches_naive(&mut cv, &knn, knn.qstart());
        for _ in 0..2500 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        cv.compute(&knn, knn.qstart());
        assert_matches_naive(&mut cv, &knn, knn.qstart());
    }

    #[test]
    fn cloned_knn_does_not_warm_poison_the_engine() {
        // One engine alternates between an index and a clone that diverges
        // from it; both stay exact.
        let mut rng = SplitMix64::new(35);
        let mut knn = StreamingKnn::new(KnnConfig::new(90, 6, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for _ in 0..150 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        cv.compute(&knn, knn.qstart());
        let mut fork = knn.clone();
        for _ in 0..30 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
            fork.update(-(rng.next_f64() * 2.0 - 1.0));
        }
        cv.compute(&fork, fork.qstart());
        assert_matches_naive(&mut cv, &fork, fork.qstart());
        cv.compute(&knn, knn.qstart());
        assert_matches_naive(&mut cv, &knn, knn.qstart());
    }

    #[test]
    #[should_panic(expected = "before the first live slot")]
    fn compute_rejects_a_start_slot_before_the_window() {
        // 100 points into a d = 200 window: slots below qstart hold no
        // subsequence yet.
        let knn = feed(100, 200, 8, 3, 36);
        assert!(knn.qstart() > 0);
        CrossVal::new(ScoreFn::MacroF1).compute(&knn, 0);
    }

    #[test]
    #[should_panic(expected = "below the k-NN floor")]
    fn compute_rejects_a_start_below_the_floor() {
        let mut knn = feed(300, 120, 6, 3, 41);
        let floor = knn.oldest_sid().unwrap() + 30;
        knn.advance_floor(floor);
        CrossVal::new(ScoreFn::MacroF1).compute(&knn, knn.slot_of_sid(floor - 1));
    }

    #[test]
    fn evaluations_at_and_after_the_floor_are_exact() {
        // The floor follows simulated change points, as in ClaSS; each
        // evaluation scores the range from the floor and from a later
        // start, and both match the naive evaluation bit for bit. An
        // exclusion radius of 1 lets a row's neighbour be the next row, so
        // flip sids just past the late threshold (sid + 2) occur too.
        for exclusion in [None, Some(1)] {
            let mut rng = SplitMix64::new(42);
            let mut knn = StreamingKnn::new(KnnConfig {
                exclusion,
                ..KnnConfig::new(120, 6, 3)
            });
            let mut cv = CrossVal::new(ScoreFn::MacroF1);
            for i in 0..900 {
                if !knn.update(rng.next_f64() * 2.0 - 1.0) || i % 4 != 0 {
                    continue;
                }
                if i % 100 == 0 {
                    let newest = knn.newest_sid().unwrap();
                    knn.advance_floor(knn.floor_sid() + (newest - knn.floor_sid()) / 2);
                }
                let at = knn.slot_of_sid(knn.floor_sid());
                for start in [at, at + (knn.max_subsequences() - at) / 3] {
                    cv.compute(&knn, start);
                    assert_matches_naive(&mut cv, &knn, start);
                }
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "a million updates; run in release")]
    fn long_horizon_counts_and_profile_stay_exact() {
        // About a million updates at a small window, so the count rings
        // wrap tens of thousands of times, with random floor jumps (at
        // most to the next subsequence) and NaN stretches. The counts
        // match a recount after every update; every 1000th update, the
        // profile from the floor and from a later start match the naive
        // evaluation.
        let mut rng = SplitMix64::new(43);
        let mut knn = StreamingKnn::new(KnnConfig::new(48, 4, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for i in 0..1_000_000u32 {
            let x = if i % 5003 < 3 {
                f64::NAN
            } else {
                rng.next_f64() * 2.0 - 1.0
            };
            knn.update(x);
            if rng.next_f64() < 0.02 {
                let (floor, next) = (knn.floor_sid(), knn.newest_sid().unwrap() + 1);
                knn.advance_floor(floor + (rng.next_f64() * (next - floor + 1) as f64) as i64);
            }
            knn.assert_counts_match_recount();
            if i % 1000 == 999 {
                let at = knn.qstart() + (knn.floor_sid() - knn.oldest_sid().unwrap()) as usize;
                for start in [at, (at + 5).min(knn.max_subsequences())] {
                    cv.compute(&knn, start);
                    assert_matches_naive(&mut cv, &knn, start);
                }
            }
        }
    }

    #[test]
    fn score_fn_confusion_matrix_basics() {
        // Perfect prediction.
        let m = [[10, 0], [0, 10]];
        assert!((ScoreFn::MacroF1.score(&m) - 1.0).abs() < 1e-12);
        assert!((ScoreFn::BalancedAccuracy.score(&m) - 1.0).abs() < 1e-12);
        // All predicted 1 with balanced truth: F1(0) = 0, F1(1) = 2/3.
        let m = [[0, 10], [0, 10]];
        assert!((ScoreFn::MacroF1.score(&m) - (2.0 / 3.0) / 2.0).abs() < 1e-12);
        assert!((ScoreFn::BalancedAccuracy.score(&m) - 0.5).abs() < 1e-12);
        // Empty matrix must not divide by zero.
        let m = [[0, 0], [0, 0]];
        assert_eq!(ScoreFn::MacroF1.score(&m), 0.0);
        assert_eq!(ScoreFn::BalancedAccuracy.score(&m), 0.0);
    }

    #[test]
    fn score_fn_all_one_class_edges_stay_finite_and_bounded() {
        // The matrices that arise at the extreme evaluation points reached
        // under jump-ahead: a split right after the range start (almost no
        // truth-0 rows) or right before its end (almost no truth-1 rows),
        // possibly with a degenerate all-one-sided prediction.
        for m in [
            [[0, 0], [0, 25]], // all truth 1, all predicted 1
            [[0, 0], [25, 0]], // all truth 1, all predicted 0
            [[25, 0], [0, 0]], // all truth 0, all predicted 0
            [[0, 25], [0, 0]], // all truth 0, all predicted 1
            [[1, 0], [24, 0]], // first split, everything predicted 0
            [[0, 1], [0, 24]], // first split, everything predicted 1
        ] {
            for sf in [ScoreFn::MacroF1, ScoreFn::BalancedAccuracy] {
                let s = sf.score(&m);
                assert!(s.is_finite(), "{sf:?} on {m:?} -> {s}");
                assert!((0.0..=1.0).contains(&s), "{sf:?} on {m:?} -> {s}");
            }
        }
    }

    #[test]
    fn groups_at_consistent_at_first_and_last_split() {
        // Pin the profile-index-0 convention and the boundary splits that
        // jump scheduling lands on: groups_at(p) must tile the scored range
        // exactly at p = 1 and p = nn - 1, matching the profile scores.
        let knn = feed(220, 120, 6, 3, 37);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        assert!(nn > 2);
        assert_eq!(cv.profile()[0], 0.0, "index 0 is by convention 0");
        for p in [1, nn - 1] {
            let g = cv.groups_at(p);
            assert_eq!(g.n_left + g.n_right, nn as u64);
            assert!(g.ones_left <= g.n_left);
            assert!(g.ones_right <= g.n_right);
            let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
            assert!((cv.profile()[p] - want).abs() < 1e-12, "p = {p}");
        }
    }

    /// The counts [`StreamingKnn::flip_counts`] keeps at floor
    /// `start_sid` for rows `start_sid..` with flip sids `flip`, each at
    /// most `start_sid + flip.len()`.
    fn flip_counts(start_sid: i64, flip: &[i64]) -> (Vec<u32>, Vec<u32>) {
        let (mut cnt, mut step) = (vec![0u32; flip.len() + 1], vec![0u32; flip.len() + 1]);
        for (sid, &f) in (start_sid..).zip(flip) {
            cnt[(f.max(start_sid) - start_sid) as usize] += 1;
            if f > sid + 1 {
                let (r, f) = ((sid + 1 - start_sid) as usize, (f - start_sid) as usize);
                step[r] = step[r].wrapping_add(1);
                step[f] = step[f].wrapping_sub(1);
            }
        }
        (cnt, step)
    }

    /// An engine holding `profile` as if computed and scored, with block
    /// maxima derived from their definition and exact block bounds.
    fn with_profile(profile: &[f64]) -> CrossVal {
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        cv.nn = profile.len();
        cv.profile = profile.to_vec();
        cv.block_max = profile
            .chunks(BLOCK)
            .map(|b| b.iter().fold(0.0, |m: f64, &v| m.max(v)))
            .collect();
        cv.bound = cv.block_max.clone();
        cv.scored = true;
        cv
    }

    /// The branchy first-maximum scan that [`CrossVal::peak`] replaced.
    fn scan(profile: &[f64], margin: usize, min_score: f64) -> Option<(usize, f64)> {
        let nn = profile.len();
        if nn < 2 * margin + 2 {
            return None;
        }
        let mut best_p = margin;
        let mut best_v = f64::MIN;
        for (p, &v) in profile.iter().enumerate().take(nn - margin).skip(margin) {
            if v > best_v {
                best_v = v;
                best_p = p;
            }
        }
        (best_v >= min_score).then_some((best_p, best_v))
    }

    #[test]
    fn peak_returns_the_first_split_of_a_plateau() {
        let mut profile = vec![0.25; 300];
        profile[0] = 0.0;
        profile[100..220].fill(0.9);
        assert_eq!(with_profile(&profile).peak(10, 0.5), Some((100, 0.9)));
        // A plateau that starts inside the margin peaks at the margin.
        assert_eq!(with_profile(&profile).peak(120, 0.5), Some((120, 0.9)));
    }

    #[test]
    fn peak_ignores_larger_scores_inside_the_margin() {
        let mut profile = vec![0.5; 400];
        profile[0] = 0.0;
        profile[5] = 1.0; // head margin, inside the first block
        profile[70] = 1.0; // head margin, in a whole block
        profile[395] = 1.0; // tail margin
        profile[200] = 0.8;
        let mut cv = with_profile(&profile);
        assert_eq!(cv.peak(80, 0.0), Some((200, 0.8)));
        assert_eq!(cv.peak(60, 0.0), Some((70, 1.0)));
    }

    #[test]
    fn peak_accepts_a_maximum_equal_to_min_score() {
        let mut profile = vec![0.5; 200];
        profile[0] = 0.0;
        profile[90] = 0.75;
        let mut cv = with_profile(&profile);
        assert_eq!(cv.peak(20, 0.75), Some((90, 0.75)));
        assert_eq!(cv.peak(20, f64::from_bits(0.75f64.to_bits() + 1)), None);
    }

    #[test]
    fn peak_within_one_block() {
        // [70, 120) lies inside the second 64-split block: no whole block
        // between the edges, so only the edge scans see it.
        let mut profile = vec![0.1; 190];
        profile[0] = 0.0;
        profile[64] = 0.95; // same block, inside the margin
        profile[100] = 0.6;
        profile[110] = 0.6;
        let mut cv = with_profile(&profile);
        assert_eq!(cv.peak(70, 0.0), Some((100, 0.6)));
        // A range ending exactly on a block boundary.
        let mut cv = with_profile(&profile[..128]);
        assert_eq!(cv.peak(20, 0.0), Some((64, 0.95)));
    }

    #[test]
    fn peak_needs_two_splits_between_the_margins() {
        let profile = vec![1.0; 42];
        let mut cv = with_profile(&profile);
        assert_eq!(cv.peak(20, 0.0), Some((20, 1.0))); // 2 * 20 + 2 == nn
        assert_eq!(cv.peak(21, 0.0), None);
        assert_eq!(with_profile(&[]).peak(0, 0.0), None);
        assert_eq!(CrossVal::new(ScoreFn::MacroF1).peak(0, 0.0), None);
    }

    #[test]
    fn peak_matches_the_scan_on_computed_profiles() {
        // Every `peak` runs on a fresh computation, so it scores only the
        // blocks its bounds admit, over a buffer that holds another
        // index's scores; the scan runs on a second engine's full profile.
        // Both score functions, with `min_score` also at the range's true
        // maximum and at the next float above it.
        for (sf, seed) in [(ScoreFn::MacroF1, 38), (ScoreFn::BalancedAccuracy, 39)] {
            let knn = feed_two_regimes(700, 600, 8, 3, seed);
            let other = feed_two_regimes(900, 800, 8, 3, seed + 10);
            let mut full = CrossVal::new(sf);
            let nn = full.compute(&knn, knn.qstart());
            assert!(nn > 500);
            let profile = full.profile();
            let mut cv = CrossVal::new(sf);
            for margin in [0, 1, 40, 63, 64, 65, 200, nn / 2 - 1, nn / 2] {
                // The range's maximum (any value when it has no room).
                let top = scan(profile, margin, 0.0).map_or(0.5, |(_, v)| v);
                for min_score in [0.0, 0.7, 1.0, top, top.next_up()] {
                    cv.compute(&other, other.qstart());
                    cv.profile();
                    cv.compute(&knn, knn.qstart());
                    assert_eq!(
                        cv.peak(margin, min_score),
                        scan(profile, margin, min_score),
                        "{sf:?}, margin {margin}, min_score {min_score}"
                    );
                    // Blocks scored by `peak` leave the full profile intact.
                    assert_eq!(cv.profile(), profile, "{sf:?}, margin {margin}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the scored splits")]
    fn groups_at_rejects_the_split_past_the_range() {
        let knn = feed(220, 120, 6, 3, 40);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let nn = cv.compute(&knn, knn.qstart());
        cv.groups_at(nn);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn peak_agrees_with_the_branchy_scan(
            levels in prop::collection::vec(0u32..8, 0..400),
            spike in 0usize..500,
            margin in 0usize..220,
            min_level in 0u32..10,
        ) {
            // Few distinct values, so ties and plateaus are common, and
            // at most one split (`spike`, when in range) scores 1.
            let mut profile: Vec<f64> = levels.iter().map(|&v| f64::from(v) / 8.0).collect();
            if let Some(s) = profile.get_mut(spike) {
                *s = 1.0;
            }
            if let Some(p0) = profile.first_mut() {
                *p0 = 0.0;
            }
            let min_score = f64::from(min_level) / 8.0;
            prop_assert_eq!(
                with_profile(&profile).peak(margin, min_score),
                scan(&profile, margin, min_score)
            );
        }

        #[test]
        fn block_bounds_cover_every_score_of_their_block(
            seed in any::<u64>(),
            size in 0usize..10,
            use_ba in any::<bool>(),
            planted in any::<bool>(),
        ) {
            // Flip sids straight into the sweep: uniform over and below
            // the scored range (empty lists included), or planted around
            // one split so that scores near 1 occur. Sizes cover a lone
            // block 0, exact block multiples and ragged last blocks.
            let nn = [2usize, 3, 63, 64, 65, 127, 128, 129, 200, 1000][size];
            let sf = if use_ba { ScoreFn::BalancedAccuracy } else { ScoreFn::MacroF1 };
            let mut rng = SplitMix64::new(seed);
            let mut draw = |n: usize| (rng.next_f64() * n as f64) as i64;
            let start_sid = 1000 + draw(1000);
            let cut = 1 + draw(nn - 1);
            let flip: Vec<i64> = (0..nn as i64)
                .map(|j| match (planted, draw(20)) {
                    (_, 0) => i64::MIN,
                    (true, 1..=17) if j < cut => start_sid + draw(cut as usize + 1),
                    (true, 1..=17) => start_sid + cut + 1 + draw(nn - cut as usize + 8),
                    _ => start_sid - 8 + draw(nn + 16),
                })
                .map(|f| f.min(start_sid + nn as i64))
                .collect();
            let mut cv = CrossVal::new(sf);
            let (cnt, step) = flip_counts(start_sid, &flip);
            cv.sweep(nn, &cnt, &step);
            let bound = cv.bound.clone();
            prop_assert_eq!(bound.len(), nn.div_ceil(BLOCK));
            for (b, scores) in cv.profile().chunks(BLOCK).enumerate() {
                for (i, &v) in scores.iter().enumerate() {
                    prop_assert!(
                        v <= bound[b],
                        "split {}: {} above its block bound {}", b * BLOCK + i, v, bound[b]
                    );
                }
            }
        }
    }
}
