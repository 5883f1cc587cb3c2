//! Exact streaming k-nearest-neighbour index over sliding-window
//! subsequences (paper §3.1, Algorithm 2).
//!
//! For every new stream value the index
//!
//! 1. computes the similarity between the newest width-`w` subsequence and
//!    every other subsequence in the window in O(d) total, by maintaining
//!    the (w-1)-length dot products of the previous step (Eq. 3-5, the
//!    STOMP recurrence adapted to streaming),
//! 2. selects the k nearest neighbours of the newest subsequence, honouring
//!    a trivial-match exclusion radius of 1.5·w, and
//! 3. updates the stored neighbour lists of all older subsequences for which
//!    the newest subsequence is a closer neighbour than their current k-th.
//!
//! Step 1 also runs the admission filters of steps 2 and 3, in the same
//! SIMD loop (see [`crate::simd::QStepIo`]): over the eligible slots, for
//! each 64-slot block, it reports the block's largest score and a bit mask
//! of the slots whose score is `>=` the row's admission threshold. Almost
//! every score is rejected by those two summaries, so steps 2 and 3 read
//! them instead of re-reading the d scores, and run their scalar insertion
//! body only where a block or a bit lets a score through. An update costs
//! one O(d) sweep plus O(k) per insertion.
//!
//! Both filters are exact because they never reject a score the insertion
//! body would accept; the body then applies the unchanged exact test.
//! * Selection keeps the kk best scores of the eligible slots, where kk
//!   is k or the number of eligible slots if smaller. Its *floor* is the
//!   kk-th largest block maximum. Each of the kk blocks with the largest
//!   maxima holds a score at least that large, so the final k-th score is
//!   at least the floor. A score below the floor may enter the list early
//!   in a full scan, but a later score always pushes it out. So selection
//!   visits only the slots whose score is `>=` the floor, one bit mask
//!   per block ([`crate::simd::floor_hits`]), in ascending slot order as
//!   a full scan would. Ties among the kept scores then keep their order,
//!   and a NaN score fails the mask's ordered compare, just as it fails
//!   the body's test. A block is masked only if its maximum reaches the
//!   floor and beats `row[kk-1]`, where `row` is the candidate list under
//!   construction. That value is −∞ until the list fills and only rises
//!   during the sweep, and a block maximum is never NaN, so a skipped
//!   block holds no score the body would take, now or later in the sweep.
//! * Reverse insertion offers the newest subsequence to row `r` only if
//!   hit bit `r` is set: `score >= kth[r]`, where `kth` is a contiguous
//!   per-row column holding the k-th score of a full row and −∞ for a row
//!   with room. This is a superset of the exact test `score > k-th score`
//!   (full row) or `score` not NaN (row with room): ties, and −∞ offered
//!   to a row with room, reach the body and get the exact verdict there.
//!   Each row's threshold changes only when that row admits, so the masks
//!   computed before the sweep stay valid throughout it.
//!
//! Neighbour lists and tie order are therefore the same as those of a
//! plain scalar sweep, bit for bit.
//!
//! Every row also carries its *flip sid* ([`StreamingKnn::flip_sids`]),
//! the one number through which its neighbour list enters the
//! cross-validation profile. The index recomputes it at the only two places
//! a list changes: when the row is created and when it admits a newer
//! subsequence. [`crate::crossval::CrossVal`] reads the column as it is, so
//! it needs no record of which lists changed between two evaluations.
//!
//! The index also keeps the two counts a profile evaluation is made of
//! (`StreamingKnn::flip_counts`), over the rows at or after a *floor*
//! sid: the larger of the oldest live sid and the last argument to
//! [`StreamingKnn::advance_floor`] (ClaSS passes its last change point).
//! Keyed by absolute sid over `[floor, newest + 1]`, `cnt` counts the rows
//! by flip sid (a flip sid below the floor counts at the floor), and
//! `step` is the left-count step of the *late* rows, those whose flip sid
//! `f` is above their own sid `r` + 1: each adds 1 at key `r + 1` and
//! subtracts 1 at key `f`, so a running sum of `step` is the profile's
//! left count (see [`crate::crossval`]). Both change in O(1) wherever a
//! flip sid is written or a row leaves: eviction and a floor rise take
//! the rows below the new floor out, and fold the `cnt` keys below it
//! into the floor key and zero them (the `step` keys up to the new floor
//! are zero by then). The keys live in a ring of `m_max + 1` slots stored
//! twice over, so any key range is one contiguous slice and an evaluation
//! reads the counts in place.
//!
//! Neighbour identities are stored as *absolute* subsequence ids (the
//! position of the subsequence start in the stream). This avoids the O(k·d)
//! index-decrement pass of the paper's Algorithm 2 line 21 while preserving
//! its semantics exactly: ids that have dropped out of the window simply
//! compare as "older than everything in range", which is the paper's
//! "negative offsets belong to class zero by design".

use crate::buffer::{ShiftBuffer, ShiftMatrix};
use crate::simd;
use crate::similarity::Similarity;

/// Largest supported neighbour count; the ablation study uses k in
/// {1, 3, 5, 7}, so 16 leaves generous headroom while letting the scratch
/// candidate list live on the stack.
pub const MAX_K: usize = 16;

/// Configuration of the streaming k-NN index.
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// Sliding window size `d` in data points.
    pub window_size: usize,
    /// Subsequence width `w` in data points.
    pub width: usize,
    /// Number of neighbours `k`.
    pub k: usize,
    /// Similarity measure used for ranking.
    pub similarity: Similarity,
    /// Trivial-match exclusion radius in subsequence starts. `None` selects
    /// the paper's default of `ceil(1.5 * w)`.
    pub exclusion: Option<usize>,
    /// If `true` (ClaSS behaviour), newly arriving subsequences are inserted
    /// into the neighbour lists of older subsequences when closer than their
    /// current k-th neighbour. `false` restricts neighbours to the past only
    /// (the one-directional constraint used by FLOSS).
    pub update_existing: bool,
}

impl KnnConfig {
    /// Convenience constructor with paper defaults for the free parameters.
    pub fn new(window_size: usize, width: usize, k: usize) -> Self {
        Self {
            window_size,
            width,
            k,
            similarity: Similarity::Pearson,
            exclusion: None,
            update_existing: true,
        }
    }

    /// Effective exclusion radius in subsequence starts.
    pub fn exclusion_radius(&self) -> usize {
        self.exclusion
            .unwrap_or((3 * self.width).div_ceil(2))
            .max(1)
    }

    fn validate(&self) {
        assert!(self.window_size >= 4, "window size too small");
        assert!(
            self.width >= 2 && self.width < self.window_size,
            "width must satisfy 2 <= w < d (w = {}, d = {})",
            self.width,
            self.window_size
        );
        assert!(
            self.k >= 1 && self.k <= MAX_K,
            "k must be in 1..={MAX_K}, got {}",
            self.k
        );
    }
}

/// Exact streaming k-NN over sliding-window subsequences.
///
/// See the module documentation for the algorithm; all state is pre-sized at
/// construction, and [`StreamingKnn::update`] performs no heap allocation.
#[derive(Debug, Clone)]
pub struct StreamingKnn {
    cfg: KnnConfig,
    excl: usize,
    m_max: usize,
    /// Raw window values.
    win: ShiftBuffer<f64>,
    /// Per-subsequence moments, aligned with subsequence offsets: only the
    /// columns the measure reads, `mu` and `sig` for Pearson, `ssq` for
    /// Euclidean, `ssq` and `ce2` for CID.
    moments: Moments,
    /// Slot-indexed (w-1)-length dot products (the `Q` of Algorithm 2).
    /// Values never move between slots; see module docs.
    q: Vec<f64>,
    /// Scratch: similarity score of every subsequence vs. the newest.
    scores: Vec<f64>,
    /// Neighbour ids (absolute subsequence start positions), k per row.
    nn_sid: ShiftMatrix<i64>,
    /// Neighbour scores, aligned with `nn_sid`, sorted descending.
    nn_score: ShiftMatrix<f64>,
    /// Number of valid neighbours per row.
    nn_len: ShiftBuffer<u8>,
    /// Admission threshold per row: the k-th score of a full row, −∞ for a
    /// row with room. Contiguous copy of `nn_score` column k-1 that the
    /// Q-step kernel filters against (see module docs).
    kth: ShiftBuffer<f64>,
    /// Flip sid per row (see [`StreamingKnn::flip_sids`]), recomputed
    /// wherever a row's neighbour list changes.
    flip: ShiftBuffer<i64>,
    /// Flip-sid counts of the rows at or after the floor (see module docs).
    counts: FlipCounts,
    /// Scratch: per 64-slot block of the eligible range, the largest score
    /// of the latest update (the Q-step kernel's `block_max`).
    block_max: Vec<f64>,
    /// Scratch: per block, the `score >= kth` hit bits (`block_hits`).
    block_hits: Vec<u64>,
    /// Absolute id (stream start position) of the next subsequence.
    next_sid: i64,
    /// Remaining pushes until the most recent non-finite observation has
    /// left the window (0 = window clean). When it reaches 0, the Q slots
    /// the NaN poisoned are recomputed explicitly, restoring exactness for
    /// dirty feeds.
    nan_heal: usize,
}

impl StreamingKnn {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (see [`KnnConfig`]).
    pub fn new(cfg: KnnConfig) -> Self {
        cfg.validate();
        let m_max = cfg.window_size - cfg.width + 1;
        let k = cfg.k;
        let excl = cfg.exclusion_radius();
        Self {
            excl,
            m_max,
            win: ShiftBuffer::new(cfg.window_size),
            moments: Moments::new(cfg.similarity, m_max),
            q: vec![0.0; m_max],
            scores: vec![0.0; m_max],
            nn_sid: ShiftMatrix::new(m_max, k),
            nn_score: ShiftMatrix::new(m_max, k),
            nn_len: ShiftBuffer::new(m_max),
            kth: ShiftBuffer::new(m_max),
            flip: ShiftBuffer::new(m_max),
            counts: FlipCounts::new(m_max + 1),
            block_max: vec![0.0; m_max.div_ceil(simd::BLOCK)],
            block_hits: vec![0; m_max.div_ceil(simd::BLOCK)],
            next_sid: 0,
            nan_heal: 0,
            cfg,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &KnnConfig {
        &self.cfg
    }

    /// Subsequence width `w`.
    #[inline]
    pub fn width(&self) -> usize {
        self.cfg.width
    }

    /// Maximum number of co-resident subsequences (`d - w + 1`).
    #[inline]
    pub fn max_subsequences(&self) -> usize {
        self.m_max
    }

    /// Number of subsequences currently in the window.
    #[inline]
    pub fn n_subsequences(&self) -> usize {
        (self.win.len() + 1).saturating_sub(self.cfg.width)
    }

    /// First slot holding a live subsequence (`m_max - n_subsequences`).
    #[inline]
    pub fn qstart(&self) -> usize {
        self.m_max - self.n_subsequences()
    }

    /// Absolute id (stream start position) of the newest subsequence, or
    /// `None` before the first subsequence completes.
    #[inline]
    pub fn newest_sid(&self) -> Option<i64> {
        (self.next_sid > 0).then(|| self.next_sid - 1)
    }

    /// Absolute id of the oldest subsequence still in the window.
    #[inline]
    pub fn oldest_sid(&self) -> Option<i64> {
        self.newest_sid()
            .map(|n| n - (self.n_subsequences() as i64 - 1))
    }

    /// Absolute id of the subsequence in `slot` (slots are right-aligned:
    /// slot `m_max - 1` is the newest).
    ///
    /// # Panics
    /// Panics unless `slot` is live: in `[qstart(), max_subsequences())`.
    #[inline]
    pub fn sid_of_slot(&self, slot: usize) -> i64 {
        let qstart = self.qstart();
        assert!(
            slot >= qstart && slot < self.m_max,
            "slot {slot} is not live (live slots {qstart}..{})",
            self.m_max
        );
        self.next_sid - 1 - (self.m_max - 1 - slot) as i64
    }

    /// Slot of the subsequence with absolute id `sid`.
    ///
    /// # Panics
    /// Panics unless `sid` is live: between the oldest and the newest sid.
    #[inline]
    pub fn slot_of_sid(&self, sid: i64) -> usize {
        let newest = self.next_sid - 1;
        let n = self.n_subsequences() as i64;
        assert!(
            sid <= newest && newest - sid < n,
            "sid {sid} is not live (live sids {}..={newest})",
            newest + 1 - n
        );
        self.m_max - 1 - (newest - sid) as usize
    }

    /// Neighbour ids and scores of the subsequence in `slot`, best first.
    #[inline]
    pub fn neighbors(&self, slot: usize) -> (&[i64], &[f64]) {
        let qs = self.qstart();
        debug_assert!(slot >= qs && slot < self.m_max);
        let r = slot - qs;
        let len = self.nn_len.get(r) as usize;
        (&self.nn_sid.row(r)[..len], &self.nn_score.row(r)[..len])
    }

    /// Flip sid of every live row, oldest first (index `slot - qstart()`):
    /// the smallest split sid at which the row's leave-one-out majority
    /// vote is class 0, where a neighbour votes class 1 at split `s`
    /// exactly when its sid is `>= s`. The vote is class 1 for every split
    /// below it; a row without neighbours has flip sid `i64::MIN`. This is
    /// the one number of a row that [`crate::crossval::CrossVal`] reads.
    #[inline]
    pub fn flip_sids(&self) -> &[i64] {
        self.flip.as_slice()
    }

    /// The floor: the first sid whose row the flip counts include, the
    /// larger of the oldest live sid and the last
    /// [`StreamingKnn::advance_floor`] argument (0 on an empty index).
    #[inline]
    pub fn floor_sid(&self) -> i64 {
        self.counts.floor
    }

    /// Raises the floor to `sid`; a `sid` at or below the floor changes
    /// nothing. The rows below the new floor leave the flip counts, in
    /// O(1) per row and per key passed.
    ///
    /// # Panics
    /// Panics if `sid` is past the next subsequence (`newest + 1`).
    pub fn advance_floor(&mut self, sid: i64) {
        assert!(
            sid <= self.next_sid,
            "floor {sid} is past the next subsequence {}",
            self.next_sid
        );
        self.raise_floor(sid, self.next_sid - self.flip.len() as i64);
    }

    /// The flip-sid counts of the rows at or after the floor, keyed by
    /// sid over `[floor_sid(), newest + 1]` (index `key - floor_sid()`):
    /// `(cnt, step)`, where `cnt[i]` counts the rows whose flip sid is
    /// `floor + i` (or below the floor, for `i = 0`) and `step[i]` is the
    /// number of late rows (flip sid above their own sid + 1) with sid
    /// `floor + i - 1`, less the number with flip sid `floor + i`, in
    /// wrapping `u32` arithmetic. `step[0]` is 0.
    #[inline]
    pub(crate) fn flip_counts(&self) -> (&[u32], &[u32]) {
        self.counts.span(self.next_sid)
    }

    /// Similarity score of every live subsequence against the newest one, as
    /// computed by the latest [`StreamingKnn::update`]. Indexed by slot;
    /// only `[qstart(), m_max)` is meaningful.
    #[inline]
    pub fn latest_scores(&self) -> &[f64] {
        &self.scores
    }

    /// Raw window contents, oldest value first.
    #[inline]
    pub fn window(&self) -> &[f64] {
        self.win.as_slice()
    }

    /// Ingests one stream value. Returns `true` if a new subsequence was
    /// completed (i.e. at least `w` values have been seen).
    pub fn update(&mut self, x: f64) -> bool {
        let grew = !self.win.is_full();
        self.win.push(x);
        // Track when the most recent non-finite observation leaves the
        // window: a value pushed now is evicted after exactly `capacity`
        // further pushes, regardless of the current fill level.
        let mut heal_now = false;
        if self.nan_heal > 0 {
            self.nan_heal -= 1;
            heal_now = self.nan_heal == 0;
        }
        if !x.is_finite() {
            self.nan_heal = self.win.capacity();
            heal_now = false;
        }
        let l = self.win.len();
        let w = self.cfg.width;
        if l < w {
            return false;
        }
        let sid = self.next_sid;
        self.next_sid += 1;

        // --- Per-subsequence moments of the newest subsequence (O(w)). ---
        self.moments.push(&self.win.as_slice()[l - w..]);

        let n_subs = l - w + 1;
        let qstart = self.m_max - n_subs;

        // --- NaN healing (ROADMAP): the last non-finite value has left the
        // window, but the Q recursion keeps NaN in every slot it touched
        // (x + NaN - NaN = NaN). All live subsequences are clean again, so
        // an explicit recompute of the poisoned slots restores exactness.
        // The pre-update invariant is q[s] = win[o..o+w-1] · win[l-w..l-1].
        if heal_now {
            let win = self.win.as_slice();
            let prefix = &win[l - w..l - 1];
            for s in qstart..self.m_max {
                if self.q[s].is_nan() {
                    let o = s - qstart;
                    self.q[s] = simd::dot(&win[o..o + w - 1], prefix);
                }
            }
        }

        // Only subsequences at slot distance >= excl from the newest are
        // eligible neighbours: the first `nfilt` live slots. Empty when the
        // exclusion radius covers the whole window (tiny d relative to w).
        let nfilt = n_subs.saturating_sub(self.excl);
        let nblocks = nfilt.div_ceil(simd::BLOCK);

        // --- Q maintenance, similarity scores (Eq. 3-5) and the admission
        // filter, one fused SIMD pass per update (see `crate::simd`). ---
        {
            let win = self.win.as_slice();
            if grew {
                // A new leftmost slot appeared: fill the recursion hole with
                // an explicit (w-1)-length dot product (Algorithm 2 line 7).
                self.q[qstart] = simd::dot(&win[0..w - 1], &win[l - w..l - 1]);
            }
            let last = win[l - 1];
            let first_of_newest = win[l - w];
            let o_new = n_subs - 1;
            // The rows still hold the previous update's subsequences: one
            // fewer than `n_subs` while the window grows, or all of them
            // with the oldest (about to be evicted) first once it is full.
            let kth = self.kth.as_slice();
            let row0 = kth.len() + 1 - n_subs;
            let io = simd::QStepIo {
                q: &mut self.q[qstart..],
                scores: &mut self.scores[qstart..],
                tail: &win[w - 1..],
                head: &win[..n_subs],
                last,
                first: first_of_newest,
                kth: &kth[row0..row0 + nfilt],
                block_max: &mut self.block_max[..nblocks],
                block_hits: &mut self.block_hits[..nblocks],
            };
            match &self.moments {
                Moments::Pearson { mu, sig } => {
                    let (mu, sig) = (mu.as_slice(), sig.as_slice());
                    simd::qstep_pearson(io, mu, sig, w as f64, mu[o_new], sig[o_new]);
                }
                Moments::Euclidean { ssq } => {
                    let ssq = ssq.as_slice();
                    simd::qstep_euclidean(io, ssq, ssq[o_new]);
                }
                Moments::Cid { ssq, ce2 } => {
                    let (ssq, ce2) = (ssq.as_slice(), ce2.as_slice());
                    simd::qstep_cid(io, ssq, ce2, ssq[o_new], ce2[o_new]);
                }
            }
        }

        // --- k-NN selection for the newest subsequence. Candidates are
        // ranked by descending score, ties broken towards the older slot,
        // and NaN / -inf scores are never selected (a NaN in the window
        // must shorten the list rather than fabricate neighbours). ---
        let k = self.cfg.k;
        let kk = k.min(nfilt);
        let mut row_sid = [i64::MIN; MAX_K];
        let mut row_score = [f64::NEG_INFINITY; MAX_K];
        let mut n_chosen = 0usize;
        // The kk-th largest block maximum, a lower bound on the final k-th
        // score (see module docs).
        let mut top = [f64::NEG_INFINITY; MAX_K];
        for &m in &self.block_max[..nblocks] {
            if m > top[kk - 1] {
                let pos = top[..kk].iter().position(|&t| t < m).unwrap_or(kk - 1);
                top.copy_within(pos..kk - 1, pos + 1);
                top[pos] = m;
            }
        }
        let floor = top[kk.saturating_sub(1)];
        for b in 0..nblocks {
            // Exact block filters (see module docs); never NaN on any side.
            let m = self.block_max[b];
            if m < floor || m <= row_score[kk - 1] {
                continue;
            }
            // Only the block's scores at or above the floor can be kept;
            // they are visited in ascending slot order, as in a full scan.
            let c0 = qstart + b * simd::BLOCK;
            let c1 = (c0 + simd::BLOCK).min(qstart + nfilt);
            let mut hits = simd::floor_hits(&self.scores[c0..c1], floor);
            while hits != 0 {
                let s = c0 + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let sc = self.scores[s];
                if sc > row_score[kk - 1] {
                    let mut pos = n_chosen;
                    while pos > 0 && row_score[pos - 1] < sc {
                        pos -= 1;
                    }
                    let end = if n_chosen == kk { kk - 1 } else { n_chosen };
                    for j in (pos..end).rev() {
                        row_score[j + 1] = row_score[j];
                        row_sid[j + 1] = row_sid[j];
                    }
                    row_score[pos] = sc;
                    // Slot `s` is live: its sid is the newest sid less its
                    // distance from the newest slot.
                    row_sid[pos] = sid - (self.m_max - 1 - s) as i64;
                    if n_chosen < kk {
                        n_chosen += 1;
                    }
                }
            }
        }
        self.nn_sid.push_row(&row_sid[..k]);
        self.nn_score.push_row(&row_score[..k]);
        self.nn_len.push(n_chosen as u8);
        self.kth.push(if n_chosen == k {
            row_score[k - 1]
        } else {
            f64::NEG_INFINITY
        });
        let flip = flip_sid_of(&row_sid[..n_chosen]);
        if self.flip.is_full() {
            // The oldest row leaves with this push.
            let oldest = sid - self.m_max as i64;
            self.raise_floor(oldest + 1, oldest);
        }
        self.flip.push(flip);
        self.counts.add(flip, sid, 1);

        // --- Insert the newest subsequence into older neighbour lists:
        // row r (slot qstart + r) for every hit bit r of the eligible
        // range, in ascending order. ---
        if self.cfg.update_existing {
            debug_assert_eq!(self.nn_sid.rows(), n_subs);
            for b in 0..nblocks {
                let mut hits = self.block_hits[b];
                while hits != 0 {
                    let r = b * simd::BLOCK + hits.trailing_zeros() as usize;
                    self.admit(r, qstart + r, sid);
                    hits &= hits - 1;
                }
            }
        }
        true
    }

    /// Offers the newest subsequence `sid`, scored `self.scores[s]`, to the
    /// neighbour list of row `r` (slot `s`): the exact admission test, then
    /// a sorted insertion that keeps `kth` and `flip` in step.
    fn admit(&mut self, r: usize, s: usize, sid: i64) {
        let k = self.cfg.k;
        let sc = self.scores[s];
        if sc.is_nan() {
            // A NaN in the window poisons the recursion's scores; a NaN
            // neighbour entry would break the lists' sortedness.
            return;
        }
        let len = self.nn_len.get(r) as usize;
        if len == k && sc <= self.nn_score.row(r)[k - 1] {
            return;
        }
        // Insertion position by descending score.
        let mut pos = 0;
        {
            let sr = self.nn_score.row(r);
            while pos < len && sr[pos] >= sc {
                pos += 1;
            }
        }
        let end = len.min(k - 1);
        {
            let sr = self.nn_score.row_mut(r);
            for j in (pos..end).rev() {
                sr[j + 1] = sr[j];
            }
            sr[pos] = sc;
            if len + 1 >= k {
                self.kth.as_mut_slice()[r] = sr[k - 1];
            }
        }
        {
            let ir = self.nn_sid.row_mut(r);
            for j in (pos..end).rev() {
                ir[j + 1] = ir[j];
            }
            ir[pos] = sid;
        }
        let len = (len + 1).min(k);
        self.nn_len.as_mut_slice()[r] = len as u8;
        let flip = flip_sid_of(&self.nn_sid.row(r)[..len]);
        let old = std::mem::replace(&mut self.flip.as_mut_slice()[r], flip);
        let row_sid = sid - (self.m_max - 1 - s) as i64;
        if flip != old && row_sid >= self.counts.floor {
            self.counts.add(old, row_sid, -1);
            self.counts.add(flip, row_sid, 1);
        }
    }

    /// Raises the floor to `to` if it is higher: the rows in `[floor, to)`
    /// leave the counts, then the keys below `to` fold into it. `row0` is
    /// the sid of flip row 0.
    fn raise_floor(&mut self, to: i64, row0: i64) {
        if to <= self.counts.floor {
            return;
        }
        for sid in self.counts.floor..to {
            let flip = self.flip.get((sid - row0) as usize);
            self.counts.add(flip, sid, -1);
        }
        self.counts.raise(to);
    }
}

/// The per-subsequence moment columns of one similarity measure, one
/// entry per live subsequence, oldest first. Each measure keeps only the
/// columns its Q-step kernel reads.
#[derive(Debug, Clone)]
enum Moments {
    /// Pearson reads the mean `mu` and the standard deviation `sig`.
    Pearson {
        mu: ShiftBuffer<f64>,
        sig: ShiftBuffer<f64>,
    },
    /// Euclidean reads the sum of squares `ssq`.
    Euclidean { ssq: ShiftBuffer<f64> },
    /// CID reads the sum of squares `ssq` and the squared complexity
    /// estimate `ce2` (the sum of squared first differences).
    Cid {
        ssq: ShiftBuffer<f64>,
        ce2: ShiftBuffer<f64>,
    },
}

impl Moments {
    fn new(similarity: Similarity, m_max: usize) -> Self {
        let col = || ShiftBuffer::new(m_max);
        match similarity {
            Similarity::Pearson => Moments::Pearson {
                mu: col(),
                sig: col(),
            },
            Similarity::Euclidean => Moments::Euclidean { ssq: col() },
            Similarity::Cid => Moments::Cid {
                ssq: col(),
                ce2: col(),
            },
        }
    }

    /// Appends the moments of the newest subsequence `newest` (O(w)).
    fn push(&mut self, newest: &[f64]) {
        let (sum, ssq_new) = simd::sum_sumsq(newest);
        match self {
            Moments::Pearson { mu, sig } => {
                let w = newest.len() as f64;
                let m = sum / w;
                let var = (ssq_new / w - m * m).max(0.0);
                mu.push(m);
                sig.push(var.sqrt());
            }
            Moments::Euclidean { ssq } => {
                ssq.push(ssq_new);
            }
            Moments::Cid { ssq, ce2 } => {
                ssq.push(ssq_new);
                ce2.push(simd::diff_sumsq(newest));
            }
        }
    }
}

/// The flip-sid counts of [`StreamingKnn::flip_counts`]: two rings of
/// `len` slots keyed by sid, each stored twice (slot `i` and `i + len`
/// hold the same count) so that any `len` consecutive keys are one slice.
#[derive(Debug, Clone)]
struct FlipCounts {
    cnt: Vec<u32>,
    step: Vec<u32>,
    len: usize,
    /// The floor sid and its ring slot; the live keys are
    /// `[floor, floor + len)`.
    floor: i64,
    floor_slot: usize,
}

impl FlipCounts {
    fn new(len: usize) -> Self {
        Self {
            cnt: vec![0; 2 * len],
            step: vec![0; 2 * len],
            len,
            floor: 0,
            floor_slot: 0,
        }
    }

    #[inline]
    fn slot(&self, key: i64) -> usize {
        debug_assert!(key >= self.floor && key - self.floor < self.len as i64);
        let i = self.floor_slot + (key - self.floor) as usize;
        if i >= self.len {
            i - self.len
        } else {
            i
        }
    }

    /// Adds `delta` times a row `sid` (at or after the floor) whose flip
    /// sid is `flip` to the counts: to `cnt` at its flip sid and, for a
    /// late row, to `step` at `sid + 1` and, negated, at `flip`.
    #[inline]
    fn add(&mut self, flip: i64, sid: i64, delta: i32) {
        let i = self.slot(flip.max(self.floor));
        bump(&mut self.cnt, i, self.len, delta);
        if flip > sid + 1 {
            let (r, f) = (self.slot(sid + 1), self.slot(flip));
            bump(&mut self.step, r, self.len, delta);
            bump(&mut self.step, f, self.len, -delta);
        }
    }

    /// Moves the floor up to `to`, once the rows below it are taken out:
    /// the `cnt` keys in `[floor, to)` fold into key `to` and are zeroed.
    /// The `step` keys up to `to` are zero already: each remaining late
    /// row `r` touches only keys `r + 1` and above, with `r >= to`.
    fn raise(&mut self, to: i64) {
        let mut folded = 0;
        for key in self.floor..to {
            let i = self.slot(key);
            folded += self.cnt[i];
            self.cnt[i] = 0;
            self.cnt[i + self.len] = 0;
        }
        let i = self.slot(to);
        (self.floor, self.floor_slot) = (to, i);
        self.cnt[i] += folded;
        self.cnt[i + self.len] = self.cnt[i];
    }

    /// The counts of the keys `[floor, last]`.
    #[inline]
    fn span(&self, last: i64) -> (&[u32], &[u32]) {
        let r = self.floor_slot..self.floor_slot + (last + 1 - self.floor) as usize;
        (&self.cnt[r.clone()], &self.step[r])
    }
}

/// Adds `delta` to ring slot `i` of a doubled ring of `len` slots, in
/// both copies.
#[inline]
fn bump(ring: &mut [u32], i: usize, len: usize, delta: i32) {
    ring[i] = ring[i].wrapping_add_signed(delta);
    ring[i + len] = ring[i];
}

/// Flip sid of a neighbour list (see [`StreamingKnn::flip_sids`]). A
/// majority needs `floor(m/2) + 1` of the `m` neighbours at or past the
/// split, so the flip sid is one past the `(floor(m/2) + 1)`-th largest
/// sid. The sids of a list are distinct, so that is the one sid with
/// exactly `floor(m/2)` larger sids in the list; no sort is needed.
#[inline]
fn flip_sid_of(sids: &[i64]) -> i64 {
    let half = sids.len() / 2;
    sids.iter()
        .find(|&&a| sids.iter().filter(|&&b| b > a).count() == half)
        .map_or(i64::MIN, |&a| a + 1)
}

#[cfg(test)]
impl StreamingKnn {
    /// Recounts the flip counts from the flip column and the floor, and
    /// asserts that every ring slot, in both copies, holds the recount
    /// (zero for the keys outside `[floor, newest + 1]`).
    pub(crate) fn assert_counts_match_recount(&self) {
        let c = &self.counts;
        let row0 = self.next_sid - self.flip.len() as i64;
        assert!(
            (row0..=self.next_sid).contains(&c.floor),
            "floor {} outside [{row0}, {}]",
            c.floor,
            self.next_sid
        );
        assert_eq!(c.floor_slot, c.floor as usize % c.len, "floor slot");
        let (mut cnt, mut step) = (vec![0u32; 2 * c.len], vec![0u32; 2 * c.len]);
        for (sid, &f) in (row0..).zip(self.flip.as_slice()) {
            if sid < c.floor {
                continue;
            }
            bump(&mut cnt, f.max(c.floor) as usize % c.len, c.len, 1);
            if f > sid + 1 {
                bump(&mut step, (sid + 1) as usize % c.len, c.len, 1);
                bump(&mut step, f as usize % c.len, c.len, -1);
            }
        }
        assert_eq!(c.cnt, cnt, "cnt ring, floor {}", c.floor);
        assert_eq!(c.step, step, "step ring, floor {}", c.floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::naive;
    use crate::stats::SplitMix64;

    fn random_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 4.0 - 2.0).collect()
    }

    /// The per-row columns mirror the neighbour lists: `kth` holds the k-th
    /// score of every full row and -inf for every row with room, and
    /// `flip_sids` the flip sid recomputed from scratch: one past the
    /// `(floor(m/2) + 1)`-th largest of the row's `m` sids, found by sorting.
    /// The flip counts match a recount from that column and the floor.
    fn assert_kth_in_step(knn: &StreamingKnn) {
        knn.assert_counts_match_recount();
        let k = knn.cfg.k;
        assert_eq!(knn.kth.len(), knn.nn_score.rows());
        assert_eq!(knn.flip_sids().len(), knn.nn_score.rows());
        for r in 0..knn.kth.len() {
            let len = knn.nn_len.get(r) as usize;
            let want = if len == k {
                knn.nn_score.row(r)[k - 1]
            } else {
                f64::NEG_INFINITY
            };
            assert_eq!(knn.kth.get(r).to_bits(), want.to_bits(), "row {r}");
            let mut sids = knn.nn_sid.row(r)[..len].to_vec();
            sids.sort_unstable();
            let want = if len == 0 {
                i64::MIN
            } else {
                sids[(len - 1) / 2] + 1
            };
            assert_eq!(knn.flip_sids()[r], want, "row {r}: flip sid of {sids:?}");
        }
    }

    /// Brute-force mirror of the streaming semantics: same exclusion, same
    /// insert-only updates, but naive dot products. Returns neighbour lists
    /// by absolute sid after feeding the whole series.
    struct NaiveMirror {
        d: usize,
        w: usize,
        k: usize,
        excl: usize,
        sim: Similarity,
        series: Vec<f64>,
        rows: Vec<(i64, Vec<(i64, f64)>)>, // (sid, sorted neighbour list)
    }

    impl NaiveMirror {
        fn score(&self, a: i64, b: i64) -> f64 {
            let sa = &self.series[a as usize..a as usize + self.w];
            let sb = &self.series[b as usize..b as usize + self.w];
            match self.sim {
                Similarity::Pearson => naive::pearson(sa, sb),
                Similarity::Euclidean => -naive::sq_euclidean(sa, sb),
                Similarity::Cid => -naive::sq_cid(sa, sb),
            }
        }

        fn run(&mut self) {
            let n = self.series.len();
            for t in self.w - 1..n {
                let sid = (t + 1 - self.w) as i64;
                let oldest_point = (t + 1).saturating_sub(self.d);
                let oldest_sid = oldest_point as i64;
                // Selection among older, eligible subsequences.
                let mut cands: Vec<(i64, f64)> = (oldest_sid..=sid - self.excl as i64)
                    .map(|c| (c, self.score(c, sid)))
                    .collect();
                cands.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                cands.truncate(self.k);
                self.rows.push((sid, cands));
                // Insert-only update of older rows still in window.
                for (rsid, list) in self.rows.iter_mut() {
                    if *rsid < oldest_sid || sid - *rsid < self.excl as i64 || *rsid == sid {
                        continue;
                    }
                    let sc = {
                        let sa = &self.series[*rsid as usize..*rsid as usize + self.w];
                        let sb = &self.series[sid as usize..sid as usize + self.w];
                        match self.sim {
                            Similarity::Pearson => naive::pearson(sa, sb),
                            Similarity::Euclidean => -naive::sq_euclidean(sa, sb),
                            Similarity::Cid => -naive::sq_cid(sa, sb),
                        }
                    };
                    if list.len() < self.k {
                        let pos = list.iter().position(|e| e.1 < sc).unwrap_or(list.len());
                        list.insert(pos, (sid, sc));
                    } else if sc > list.last().unwrap().1 {
                        list.pop();
                        let pos = list.iter().position(|e| e.1 < sc).unwrap_or(list.len());
                        list.insert(pos, (sid, sc));
                    }
                }
            }
        }
    }

    fn check_against_naive(n: usize, d: usize, w: usize, k: usize, sim: Similarity, seed: u64) {
        let series = random_series(n, seed);
        let cfg = KnnConfig {
            window_size: d,
            width: w,
            k,
            similarity: sim,
            exclusion: None,
            update_existing: true,
        };
        let excl = cfg.exclusion_radius();
        let mut knn = StreamingKnn::new(cfg);
        for &x in &series {
            knn.update(x);
            assert_kth_in_step(&knn);
        }
        let mut mirror = NaiveMirror {
            d,
            w,
            k,
            excl,
            sim,
            series,
            rows: Vec::new(),
        };
        mirror.run();
        // Compare the live rows at the end.
        let qs = knn.qstart();
        for slot in qs..knn.max_subsequences() {
            let sid = knn.sid_of_slot(slot);
            let (got_sids, got_scores) = knn.neighbors(slot);
            let (_, want) = mirror
                .rows
                .iter()
                .find(|(s, _)| *s == sid)
                .unwrap_or_else(|| panic!("missing naive row for sid {sid}"));
            assert_eq!(got_sids.len(), want.len(), "sid {sid}: neighbour count");
            for (i, &(wsid, wscore)) in want.iter().enumerate() {
                // Scores must match; ids may differ only under (near-)ties,
                // where the streaming recursion and the naive mirror may
                // legitimately order equal-scored neighbours differently.
                assert!(
                    (got_scores[i] - wscore).abs() < 1e-7,
                    "sid {sid} nn{i}: score {} vs {}",
                    got_scores[i],
                    wscore
                );
                let tie = i
                    .checked_sub(1)
                    .is_some_and(|p| (want[p].1 - wscore).abs() < 1e-7)
                    || want.get(i + 1).is_some_and(|n| (n.1 - wscore).abs() < 1e-7);
                assert!(
                    got_sids[i] == wsid || tie,
                    "sid {sid} nn{i}: id {} vs {} (scores {} vs {})",
                    got_sids[i],
                    wsid,
                    got_scores[i],
                    wscore
                );
            }
        }
    }

    #[test]
    fn streaming_knn_matches_naive_pearson_short() {
        check_against_naive(120, 200, 8, 3, Similarity::Pearson, 1);
    }

    #[test]
    fn streaming_knn_matches_naive_pearson_with_eviction() {
        check_against_naive(300, 100, 7, 3, Similarity::Pearson, 2);
    }

    #[test]
    fn streaming_knn_matches_naive_euclidean() {
        check_against_naive(250, 90, 6, 2, Similarity::Euclidean, 3);
    }

    #[test]
    fn streaming_knn_matches_naive_cid() {
        check_against_naive(220, 80, 5, 3, Similarity::Cid, 4);
    }

    #[test]
    fn streaming_knn_matches_naive_k1() {
        check_against_naive(260, 110, 9, 1, Similarity::Pearson, 5);
    }

    #[test]
    fn latest_scores_match_naive_pearson_each_step() {
        let n = 240;
        let (d, w) = (90, 7);
        let series = random_series(n, 6);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        for (t, &x) in series.iter().enumerate() {
            if !knn.update(x) {
                continue;
            }
            let newest = knn.newest_sid().unwrap() as usize;
            let sb = &series[newest..newest + w];
            for slot in knn.qstart()..knn.max_subsequences() {
                let sid = knn.sid_of_slot(slot) as usize;
                let sa = &series[sid..sid + w];
                let want = naive::pearson(sa, sb);
                let got = knn.latest_scores()[slot];
                assert!(
                    (got - want).abs() < 1e-7,
                    "t={t} slot={slot}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn exclusion_radius_is_respected() {
        let series = random_series(400, 7);
        let cfg = KnnConfig::new(150, 10, 3);
        let excl = cfg.exclusion_radius();
        let mut knn = StreamingKnn::new(cfg);
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            let sid = knn.sid_of_slot(slot);
            let (sids, _) = knn.neighbors(slot);
            for &nsid in sids {
                assert!(
                    (nsid - sid).unsigned_abs() as usize >= excl,
                    "sid {sid} has trivial neighbour {nsid} (excl {excl})"
                );
            }
        }
    }

    #[test]
    fn neighbor_scores_sorted_descending() {
        let series = random_series(500, 8);
        let mut knn = StreamingKnn::new(KnnConfig::new(120, 9, 5));
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            let (_, scores) = knn.neighbors(slot);
            for p in scores.windows(2) {
                assert!(p[0] >= p[1]);
            }
        }
    }

    #[test]
    fn update_returns_false_until_width_reached() {
        let mut knn = StreamingKnn::new(KnnConfig::new(50, 10, 3));
        for i in 0..9 {
            assert!(!knn.update(i as f64), "step {i}");
        }
        assert!(knn.update(9.0));
        assert_eq!(knn.n_subsequences(), 1);
    }

    #[test]
    fn constant_stream_is_handled_gracefully() {
        let mut knn = StreamingKnn::new(KnnConfig::new(60, 8, 3));
        for _ in 0..200 {
            knn.update(1.0);
        }
        // Flat subsequences: Pearson degenerates to 0 everywhere; the index
        // must stay finite and populated.
        for slot in knn.qstart()..knn.max_subsequences() {
            let (_, scores) = knn.neighbors(slot);
            assert!(scores.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn sid_slot_roundtrip() {
        let series = random_series(300, 9);
        let mut knn = StreamingKnn::new(KnnConfig::new(100, 6, 3));
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            assert_eq!(knn.slot_of_sid(knn.sid_of_slot(slot)), slot);
        }
        assert_eq!(knn.oldest_sid().unwrap(), knn.sid_of_slot(knn.qstart()));
    }

    #[test]
    #[should_panic(expected = "is not live")]
    fn slot_of_sid_rejects_a_sid_past_the_newest() {
        let mut knn = StreamingKnn::new(KnnConfig::new(200, 8, 3));
        for x in random_series(500, 15) {
            knn.update(x);
        }
        knn.slot_of_sid(knn.newest_sid().unwrap() + 1);
    }

    #[test]
    #[should_panic(expected = "is not live")]
    fn slot_of_sid_rejects_an_evicted_sid() {
        let mut knn = StreamingKnn::new(KnnConfig::new(200, 8, 3));
        for x in random_series(500, 16) {
            knn.update(x);
        }
        knn.slot_of_sid(knn.oldest_sid().unwrap() - 1);
    }

    #[test]
    #[should_panic(expected = "is not live")]
    fn sid_of_slot_rejects_the_slot_past_the_newest() {
        let mut knn = StreamingKnn::new(KnnConfig::new(200, 8, 3));
        for x in random_series(500, 19) {
            knn.update(x);
        }
        assert_eq!(knn.qstart(), 0, "the window is full");
        knn.sid_of_slot(knn.max_subsequences());
    }

    #[test]
    #[should_panic(expected = "is not live")]
    fn sid_of_slot_rejects_a_slot_before_a_growing_window() {
        // 100 points into a d = 200 window: slots below qstart hold no
        // subsequence yet.
        let mut knn = StreamingKnn::new(KnnConfig::new(200, 8, 3));
        for x in random_series(100, 20) {
            knn.update(x);
        }
        assert!(knn.qstart() > 0, "the window still grows");
        knn.sid_of_slot(knn.qstart() - 1);
    }

    #[test]
    fn flip_counts_follow_floor_jumps() {
        // Floor jumps of every size, at and past the newest row's
        // neighbours and up to the next subsequence, through growth,
        // eviction and a NaN stretch; the counts match a recount after
        // every update and every jump.
        let mut rng = SplitMix64::new(17);
        let mut knn = StreamingKnn::new(KnnConfig::new(60, 5, 3));
        assert_eq!(knn.floor_sid(), 0);
        knn.advance_floor(0);
        assert_kth_in_step(&knn);
        for t in 0..1500 {
            let x = if t % 400 == 350 {
                f64::NAN
            } else {
                rng.next_f64() * 2.0 - 1.0
            };
            knn.update(x);
            assert_kth_in_step(&knn);
            if t % 7 == 0 {
                let floor = knn.floor_sid();
                let next = knn.newest_sid().map_or(0, |n| n + 1);
                let to = match t % 5 {
                    0 => next,
                    1 => floor - 3,
                    _ => floor + (rng.next_f64() * (next - floor + 1) as f64) as i64,
                };
                knn.advance_floor(to);
                assert_eq!(knn.floor_sid(), floor.max(to));
                assert_kth_in_step(&knn);
                let (cnt, step) = knn.flip_counts();
                assert_eq!(cnt.len() as i64, next + 1 - knn.floor_sid());
                assert_eq!(step.len(), cnt.len());
                // Each late row's +1 and -1 both fall inside the span.
                assert_eq!(step[0], 0, "t={t}");
                let total = step.iter().fold(0u32, |a, &s| a.wrapping_add(s));
                assert_eq!(total, 0, "t={t}");
                let rows = knn.flip_sids().len() as i64;
                let counted = rows - (knn.floor_sid() - (next - rows));
                assert_eq!(cnt.iter().sum::<u32>() as i64, counted, "t={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the next subsequence")]
    fn advance_floor_rejects_a_floor_past_the_next_subsequence() {
        let mut knn = StreamingKnn::new(KnnConfig::new(60, 5, 3));
        for x in random_series(100, 18) {
            knn.update(x);
        }
        knn.advance_floor(knn.newest_sid().unwrap() + 2);
    }

    #[test]
    fn one_directional_mode_never_points_forward() {
        let series = random_series(400, 10);
        let mut cfg = KnnConfig::new(120, 8, 1);
        cfg.update_existing = false;
        let mut knn = StreamingKnn::new(cfg);
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            let sid = knn.sid_of_slot(slot);
            let (sids, _) = knn.neighbors(slot);
            for &nsid in sids {
                assert!(nsid < sid, "forward arc {nsid} from {sid}");
            }
        }
    }

    #[test]
    fn nan_is_healed_once_evicted_from_window() {
        // A single NaN poisons the Q recursion (x + NaN - NaN = NaN). Once
        // the value has left the sliding window, the index must return to
        // exactness: every per-step score matches the naive computation.
        let (d, w) = (90, 7);
        let nan_at = 130;
        let mut series = random_series(400, 12);
        series[nan_at] = f64::NAN;
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        // The NaN is evicted after exactly `d` further pushes.
        let clean_from = nan_at + d + 1;
        for (t, &x) in series.iter().enumerate() {
            if !knn.update(x) {
                continue;
            }
            assert_kth_in_step(&knn);
            if t < clean_from {
                continue;
            }
            let newest = knn.newest_sid().unwrap() as usize;
            let sb = &series[newest..newest + w];
            for slot in knn.qstart()..knn.max_subsequences() {
                let sid = knn.sid_of_slot(slot) as usize;
                let sa = &series[sid..sid + w];
                let want = naive::pearson(sa, sb);
                let got = knn.latest_scores()[slot];
                assert!(
                    (got - want).abs() < 1e-7,
                    "t={t} slot={slot}: {got} vs {want} (healing failed)"
                );
            }
            // Fresh rows must get full neighbour lists again.
            let (sids, _) = knn.neighbors(knn.max_subsequences() - 1);
            assert_eq!(sids.len(), 3, "t={t}: short list after heal");
        }
    }

    #[test]
    fn nan_healing_applies_to_euclidean_q_state() {
        // Through the Euclidean scoring path, a dirty window must propagate
        // NaN (shortened neighbour lists), never fabricate distance-0
        // neighbours; after eviction the Q state (shared across measures)
        // must be finite and the scores exact again.
        let (d, w) = (70, 6);
        let nan_at = 100;
        let mut series = random_series(300, 13);
        series[nan_at] = f64::NAN;
        let cfg = KnnConfig {
            window_size: d,
            width: w,
            k: 2,
            similarity: Similarity::Euclidean,
            exclusion: None,
            update_existing: true,
        };
        let mut knn = StreamingKnn::new(cfg);
        // The NaN is evicted (and healing fires) exactly at t = nan_at + d.
        let clean_from = nan_at + d;
        for (t, &x) in series.iter().enumerate() {
            if !knn.update(x) {
                continue;
            }
            assert_kth_in_step(&knn);
            if t >= nan_at && t < clean_from {
                // Dirty window: the recursion poisons every slot one step
                // after the NaN arrives; poisoned scores must surface as
                // NaN — not as a perfect distance-0 match — so no stored
                // neighbour can ever carry a fabricated 0.0 score.
                for slot in knn.qstart()..knn.max_subsequences() {
                    let sc = knn.latest_scores()[slot];
                    assert!(
                        t == nan_at || sc.is_nan(),
                        "t={t} slot={slot}: dirty-window score {sc} not NaN"
                    );
                }
                continue;
            }
            if t < clean_from {
                continue;
            }
            let newest = knn.newest_sid().unwrap() as usize;
            let sb = &series[newest..newest + w];
            for slot in knn.qstart()..knn.max_subsequences() {
                let sid = knn.sid_of_slot(slot) as usize;
                let sa = &series[sid..sid + w];
                let want = -naive::sq_euclidean(sa, sb);
                let got = knn.latest_scores()[slot];
                assert!(
                    (got - want).abs() < 1e-6,
                    "t={t} slot={slot}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn exclusion_wider_than_the_window_leaves_lists_empty() {
        // d - w + 1 = 3 subsequences, exclusion radius ceil(1.5 * 8) = 12:
        // no pair is ever eligible, so every list stays empty.
        let mut knn = StreamingKnn::new(KnnConfig::new(10, 8, 1));
        for x in random_series(40, 14) {
            knn.update(x);
            assert_kth_in_step(&knn);
        }
        assert_eq!(knn.n_subsequences(), 3);
        for slot in knn.qstart()..knn.max_subsequences() {
            assert!(knn.neighbors(slot).0.is_empty(), "slot {slot}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_width_larger_than_window() {
        let _ = StreamingKnn::new(KnnConfig::new(50, 60, 3));
    }

    #[test]
    #[should_panic]
    fn rejects_zero_k() {
        let _ = StreamingKnn::new(KnnConfig::new(50, 5, 0));
    }
}
