//! Portable SIMD kernels for the streaming hot paths.
//!
//! The per-update cost of ClaSS is the O(d) work of
//! [`crate::knn::StreamingKnn::update`]. A TSC-cycle split of one update at
//! d = 10k (`paper-d10k` streams, seed 7, 2-core x86-64 VM, AVX2 backend,
//! median of three runs) gives about 31k cycles for the fused Q-step sweep,
//! 3k for k-NN selection and 1k for the insertion into older neighbour
//! lists, of about 36k in total. The sweep also emits the admission-filter
//! summaries those two steps consume (see [`QStepIo`]); when they re-read
//! the scores in two plain-Rust sweeps of their own, the split on the same
//! host was about 23k, 12k and 14k of 50k.
//!
//! Every `jump`-th update, ClaSS also evaluates the ClaSP profile
//! ([`crate::crossval::CrossVal::compute`]); that evaluation is the step
//! tail, and its elementwise score pass is a kernel here as well. The
//! pass is exact but costs two `f64` divisions per split, while ClaSS acts
//! only on a maximum that reaches `min_score`. So the sweep before it
//! bounds each 64-split block's scores from above with
//! [`scalar::split_score`] at the block's corner counts, and
//! [`crate::crossval::CrossVal::peak`] runs the pass only on the blocks
//! whose bound reaches `min_score`. Per evaluation on `paper-d10k` (seeds
//! 1–3, medians, 2-core x86-64 VM):
//!
//! | step | before | after |
//! |---|---:|---:|
//! | pass 1: histogram + difference array | 18.9 µs | 16.1 µs (same code) |
//! | pass 2: suffix and prefix sums | 7.7 µs | 4.8 µs (one zipped loop) |
//! | score pass | 14.2 µs (SSE2 build) | 9.2 µs (AVX2, with block maxima) |
//! | best split | 12.0 µs (first-maximum scan) | 0.23 µs ([`crate::crossval::CrossVal::peak`]) |
//! | pass 2, plus the block bounds | 7.8 µs | 8.2 µs |
//! | score pass, then best split | 15.3 + 0.25 µs (every split) | 0.16 µs (bounded blocks only) |
//! | passes 1 and 2 (scatter, then sums and bounds) | 30.6–32.0 µs | 12.3–13.5 µs (one pass over the index's flip counts) |
//! | the count pass (two running sums, block minima, bounds) | 13.5–15.6 µs (one serial pass, flip column read) | 5.1–8.0 µs ([`split_counts`], AVX2 scan of the step column) |
//!
//! The scan's figure is the traced replay's `class.argmax_ns`; the others
//! are from builds with a clock around each pass. The two rows before
//! the last were timed back to back on the same host at a slower speed
//! level than the rows above. At a full window under 0.1 % of the blocks
//! reach the score pass, and 0.7–0.8 % over all evaluations of those
//! streams. The last two rows time
//! [`crate::crossval::CrossVal::compute`] alone on one full window
//! (d = 10k, w = 42, k = 3) of a two-regime stream, the window of the
//! `crossval/structured_peak` criterion case (best of 15 runs of 2000
//! calls, four alternations); no split is scored there. The last row's
//! two passes were built into one process and alternated; with the
//! scalar backend the same window takes 10.5–11.2 µs against
//! 11.3–13.1 µs, the gain of the step column alone.
//!
//! The count pass is two prefix sums ([`scalar::split_counts`]): one over
//! the rows by flip sid, one over the index's left-count step. Their
//! loop-carried adds serialize the scalar body, and LLVM does not
//! vectorize them. A portable 8-lane log-step body (array lanes, no
//! intrinsics) compiled with AVX2 enabled ran at 11.2–13.0 µs on random
//! columns of a d = 10k window, against 10.1–14.3 µs for the scalar body:
//! no gain. The intrinsic scan ([`avx2::split_counts`]) ran at
//! 4.3–5.2 µs on the same columns. It puts 64 lines of code in `unsafe`
//! functions (the pass, its 8-lane scan and its lane minimum).

//! This module provides fused kernels for the Q-step sweep, the
//! subsequence-moment sums and the explicit dot products that seed the
//! recursion, the profile count pass and the profile score pass, in two
//! layers that share one semantics:
//!
//! * [`scalar`] — plain Rust, the reference and the portable fallback.
//!   Its loops are written so that LLVM vectorizes them at the baseline
//!   target: zipped slices with no per-slot indexing, branch-free scores
//!   (compute, then select) and block outputs folded in 8-slot chunks.
//! * [`avx2`] (x86-64 only) — selected at runtime by CPU feature
//!   detection. It runs the scalar bodies of the reductions and of the
//!   profile score pass compiled with AVX2 enabled, and explicit 256-bit
//!   `core::arch` intrinsics for the Q-step sweep and the count pass.
//!
//! Every kernel gives the same bits on both backends. The reductions
//! ([`scalar::dot`], [`scalar::sum_sumsq`], [`scalar::diff_sumsq`]) have
//! one summation order, four lane accumulators folded `(0 + 2) + (1 + 3)`
//! plus a sequential tail, and one body. The Q-step and the profile score
//! pass are elementwise, and the integer sums of the count pass are exact.
//!
//! The Q-step sweep alone, µs per call (a scratch harness calling the
//! kernels on random columns, best of 15 batches per run, median of six
//! alternated runs, 2-core x86-64 VM with AVX2; the host is noisy, the
//! paired ratios in the last column are steadier):
//!
//! | measure, d, w | scalar before | `autovec` (deleted) | scalar | AVX2 | scalar / `autovec` |
//! |---|---:|---:|---:|---:|---:|
//! | Pearson, 10k, 42 | 50.9 | 37.4 | 26.4 | 13.9 | 0.71 (0.52–0.82) |
//! | Pearson, 500, 24 | 2.17 | 1.56 | 1.12 | 0.71 | 0.69 (0.66–0.90) |
//! | Euclidean, 10k, 42 | 31.2 | 24.3 | 19.6 | 9.6 | 0.88 (0.58–1.01) |
//! | Euclidean, 500, 24 | 1.29 | 0.94 | 0.74 | 0.29 | 0.80 (0.70–1.00) |
//! | CID, 10k, 42 | 37.0 | 31.6 | 21.7 | 10.6 | 0.83 (0.66–0.88) |
//! | CID, 500, 24 | 1.91 | 1.43 | 1.22 | 0.67 | 0.76 (0.47–1.19) |
//!
//! "Scalar before" indexed every slot and branched per score; the scalar
//! body now zips its slices and selects, so the baseline build vectorizes
//! it and the `autovec` lane blocks have nothing left to add. The AVX2
//! Q-step stays in intrinsics: the same scalar body compiled with AVX2
//! enabled took 1.09–1.16× their time (Pearson), 1.50–1.57× (Euclidean)
//! and 1.21–1.34× (CID), medians of six paired runs at the two sizes;
//! a fused single-pass plain body, probed at Pearson d = 10k, took
//! 1.36–1.44×, and 1.39× as an AVX-512 build.
//!
//! The free functions at the top level ([`dot`], [`sum_sumsq`],
//! [`diff_sumsq`], [`qstep_pearson`], [`qstep_euclidean`], [`qstep_cid`],
//! [`split_counts`], [`profile_scores`]) dispatch to the best available
//! backend, resolved once per process. The `CLASS_SIMD` environment
//! variable (`scalar` | `avx2`) overrides the choice for A/B measurements;
//! a value that cannot be honoured (an unknown name, or `avx2` on a CPU
//! without it) is reported once on stderr, and the best available backend
//! runs.
//!
//! NaN semantics are part of the contract: dirty stream values must
//! propagate (or be floored/zeroed) exactly as the scalar reference does,
//! so the differential tests in `tests/simd_differential.rs` exercise
//! NaN-containing inputs across all remainder lengths.

use crate::crossval::ScoreFn;
use crate::similarity::{pearson_from_dot, sq_cid_from_dot, sq_euclidean_from_dot};
use std::ops::Range;
use std::sync::OnceLock;

/// Lane width of the reductions' accumulators and of the AVX2 Q-step
/// (4 × f64 = 256 bit).
pub const LANES: usize = 4;

/// Which kernel implementation services the dispatching free functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Plain-Rust loops: the reference and the portable fallback.
    Scalar,
    /// AVX2 (x86-64, runtime-detected).
    Avx2,
}

impl Backend {
    /// Short lowercase identifier, used by benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// The backend servicing the dispatching free functions, resolved once per
/// process from CPU feature detection and the `CLASS_SIMD` override.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

/// Whether the running CPU supports the [`avx2`] kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> Backend {
    let value = std::env::var_os("CLASS_SIMD");
    let value = value.as_ref().map(|v| v.to_string_lossy());
    let (backend, warning) = parse(value.as_deref(), avx2_available());
    if let Some(warning) = warning {
        eprintln!("warning: {warning}");
    }
    backend
}

/// The backend a `CLASS_SIMD` value selects (`None` when it is unset) on
/// a CPU with or without AVX2, and a warning when the value cannot be
/// honoured. Unset or empty picks the best available backend, as does an
/// unknown value; `avx2` without AVX2 runs [`Backend::Scalar`].
fn parse(value: Option<&str>, avx2: bool) -> (Backend, Option<String>) {
    let best = if avx2 { Backend::Avx2 } else { Backend::Scalar };
    match value.unwrap_or("") {
        "" => (best, None),
        "scalar" => (Backend::Scalar, None),
        "avx2" if avx2 => (Backend::Avx2, None),
        "avx2" => (
            Backend::Scalar,
            Some("CLASS_SIMD=avx2, but this CPU has no AVX2; using scalar".into()),
        ),
        other => (
            best,
            Some(format!(
                "CLASS_SIMD={other:?} is not one of scalar|avx2; using {}",
                best.name()
            )),
        ),
    }
}

/// Slots per admission block of the Q-step's filter outputs (one `u64` of
/// hit bits each).
pub const BLOCK: usize = 64;

/// In/out state of one fused Q-recursion + score + Q-shift pass.
///
/// For every slot `i` the kernels compute, in a single traversal,
///
/// ```text
/// dot       = q[i] + tail[i] * last     // complete the w-length dot
/// scores[i] = similarity(dot, ...)      // measure-specific, see kernels
/// q[i]      = dot - head[i] * first     // shift to the next step's state
/// ```
///
/// replacing the previous load → dot → score → store sequence of
/// `StreamingKnn::update` (paper Eq. 3–5, Algorithm 2).
///
/// The same traversal filters the eligible prefix `[0, kth.len())` for
/// the k-NN admission tests, one [`BLOCK`]-slot block `b` at a time (the
/// last block may be ragged; slots past the prefix are scored, not
/// filtered):
///
/// ```text
/// block_max[b]  = max of the block's non-NaN scores (−∞ if none),
///                 with −0.0 reported as +0.0
/// block_hits[b] = bit j set iff scores[64b + j] >= kth[64b + j]
/// ```
///
/// The maximum is order-independent once the zero sign is canonicalized,
/// and the compare is ordered (NaN sets no bit), so both outputs are
/// bit-identical across backends.
#[derive(Debug)]
pub struct QStepIo<'a> {
    /// Maintained (w-1)-length dot products; rewritten in place to the
    /// next step's value.
    pub q: &'a mut [f64],
    /// Output: similarity score of each slot vs. the newest subsequence.
    pub scores: &'a mut [f64],
    /// `win[i + w - 1]` per slot — the value completing each dot product.
    pub tail: &'a [f64],
    /// `win[i]` per slot — the value leaving each dot for the next step.
    pub head: &'a [f64],
    /// Newest window value (multiplies `tail`).
    pub last: f64,
    /// First value of the newest subsequence (multiplies `head`).
    pub first: f64,
    /// Admission threshold per slot of the eligible prefix; its length
    /// sets the prefix.
    pub kth: &'a [f64],
    /// Output: largest score per block of the eligible prefix.
    pub block_max: &'a mut [f64],
    /// Output: `scores >= kth` hit bits per block of the eligible prefix.
    pub block_hits: &'a mut [u64],
}

impl QStepIo<'_> {
    /// Asserts the slice lengths of one sweep, including each named
    /// per-slot column of the measure.
    #[inline]
    fn check(&self, columns: &[(&str, &[f64])]) {
        let n = self.q.len();
        assert_eq!(self.scores.len(), n, "scores length mismatch");
        assert_eq!(self.tail.len(), n, "tail length mismatch");
        assert_eq!(self.head.len(), n, "head length mismatch");
        for (name, column) in columns {
            assert_eq!(column.len(), n, "{name} length mismatch");
        }
        assert!(self.kth.len() <= n, "kth longer than q");
        let blocks = self.kth.len().div_ceil(BLOCK);
        assert_eq!(self.block_max.len(), blocks, "block_max length mismatch");
        assert_eq!(self.block_hits.len(), blocks, "block_hits length mismatch");
    }
}

/// Dot product of two equal-length slices via the active backend.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::dot(a, b),
        _ => scalar::dot(a, b),
    }
}

/// Fused `(sum, sum of squares)` of a slice via the active backend.
#[inline]
pub fn sum_sumsq(a: &[f64]) -> (f64, f64) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::sum_sumsq(a),
        _ => scalar::sum_sumsq(a),
    }
}

/// Sum of squared consecutive differences (`CE(x)^2`, the complexity
/// estimate of the CID measure) via the active backend.
#[inline]
pub fn diff_sumsq(a: &[f64]) -> f64 {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::diff_sumsq(a),
        _ => scalar::diff_sumsq(a),
    }
}

/// Fused Q-step scoring with the Pearson measure (paper Eq. 4).
/// `mu`/`sig` are the per-slot moments, `mu_n`/`sig_n` the newest
/// subsequence's, `w` the subsequence width as f64.
#[inline]
pub fn qstep_pearson(io: QStepIo<'_>, mu: &[f64], sig: &[f64], w: f64, mu_n: f64, sig_n: f64) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        _ => scalar::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
    }
}

/// Fused Q-step scoring with the (negated squared) Euclidean measure.
/// `ssq` are the per-slot sums of squares, `ssq_n` the newest one's.
#[inline]
pub fn qstep_euclidean(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::qstep_euclidean(io, ssq, ssq_n),
        _ => scalar::qstep_euclidean(io, ssq, ssq_n),
    }
}

/// Fused Q-step scoring with the (negated squared) complexity-invariant
/// distance. `ssq`/`ce2` are per-slot, `ssq_n`/`ce2_n` the newest one's.
#[inline]
pub fn qstep_cid(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::qstep_cid(io, ssq, ce2, ssq_n, ce2_n),
        _ => scalar::qstep_cid(io, ssq, ce2, ssq_n, ce2_n),
    }
}

/// ClaSP profile score pass with fused block maxima via the active backend
/// (see [`scalar::profile_scores`] for the contract).
#[inline]
pub fn profile_scores(
    score_fn: ScoreFn,
    left: &[u32],
    tot: &[u32],
    profile: &mut [f64],
    block_max: &mut [f64],
    blocks: Range<usize>,
) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::profile_scores(score_fn, left, tot, profile, block_max, blocks),
        _ => scalar::profile_scores(score_fn, left, tot, profile, block_max, blocks),
    }
}

/// The count pass of a ClaSP evaluation via the active backend (see
/// [`scalar::split_counts`] for the contract).
#[inline]
pub fn split_counts(
    cnt: &[u32],
    step: &[u32],
    left: &mut [u32],
    tot: &mut [u32],
    l_min: &mut [u32],
) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::split_counts(cnt, step, left, tot, l_min),
        _ => scalar::split_counts(cnt, step, left, tot, l_min),
    }
}

/// The slice lengths [`scalar::split_counts`] requires.
fn check_split_counts(cnt: &[u32], step: &[u32], left: &[u32], tot: &[u32], l_min: &[u32]) {
    let nn = left.len();
    assert!(nn <= u32::MAX as usize, "more than u32::MAX splits");
    assert_eq!(cnt.len(), nn, "cnt length mismatch");
    assert_eq!(step.len(), nn, "step length mismatch");
    assert_eq!(tot.len(), nn, "tot length mismatch");
    assert_eq!(l_min.len(), nn.div_ceil(BLOCK), "l_min length mismatch");
}

/// Plain-Rust kernels: the reference for the semantics (including NaN
/// propagation) of the [`avx2`] backend, and the portable fallback.
pub mod scalar {
    use super::*;

    /// ClaSP profile scores from the per-split counts, with one maximum
    /// per [`BLOCK`]-split block, for the blocks in `blocks`.
    ///
    /// With `nn = profile.len()`, split `p` in `1..nn` places the first
    /// `p` rows in class 0; `left[p]` rows among them and `tot[p]` rows in
    /// all are predicted 1. `profile[p]` is [`split_score`] of these
    /// counts — [`ScoreFn::score`] of the confusion matrix they give,
    /// evaluated on `i32` counts (whose `f64` conversions are as exact as
    /// `i64`'s); `profile[0]` is 0. `block_max[b]` is the largest of
    /// `profile[64b..64b + 64]`, taken as an `i64` maximum over the
    /// `to_bits()` patterns, so it is the value maximum whenever the
    /// scores are `+0.0` or above — as every consistent set of counts
    /// gives. Only the splits and maxima of blocks `b` in `blocks` are
    /// written; the rest of `profile` and `block_max` is left as it was.
    ///
    /// This is the one body behind every backend: each lane performs the
    /// same IEEE operations in the same order, so compiling it for a wider
    /// target ([`avx2::profile_scores`]) changes no bit. The dispatch on
    /// `score_fn` is hoisted so each arm is a branch-free elementwise loop.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree with `nn` or `blocks` reaches
    /// past the last block.
    #[inline(always)]
    pub fn profile_scores(
        score_fn: ScoreFn,
        left: &[u32],
        tot: &[u32],
        profile: &mut [f64],
        block_max: &mut [f64],
        blocks: Range<usize>,
    ) {
        let nn = profile.len();
        assert!(nn <= i32::MAX as usize, "profile longer than i32::MAX");
        assert_eq!(left.len(), nn, "left length mismatch");
        assert_eq!(tot.len(), nn, "tot length mismatch");
        assert_eq!(
            block_max.len(),
            nn.div_ceil(BLOCK),
            "block_max length mismatch"
        );
        assert!(blocks.end <= block_max.len(), "block range out of bounds");
        match score_fn {
            ScoreFn::MacroF1 => score_blocks(left, tot, profile, block_max, blocks, macro_f1),
            ScoreFn::BalancedAccuracy => {
                score_blocks(left, tot, profile, block_max, blocks, balanced_accuracy)
            }
        }
    }

    /// Scores the splits of `blocks` block by block with `score(p, l, t,
    /// nn)`, folding each block's bit-pattern maximum as it goes. The fold
    /// starts at the bits of `+0.0`, which is also `profile[0]`.
    #[inline(always)]
    fn score_blocks(
        left: &[u32],
        tot: &[u32],
        profile: &mut [f64],
        block_max: &mut [f64],
        blocks: Range<usize>,
        score: impl Fn(i32, i32, i32, i32) -> f64,
    ) {
        let nn = profile.len();
        if blocks.contains(&0) {
            profile[0] = 0.0;
        }
        for b in blocks {
            let (lo, hi) = ((b * BLOCK).max(1), (b * BLOCK + BLOCK).min(nn));
            let splits = profile[lo..hi]
                .iter_mut()
                .zip(&left[lo..hi])
                .zip(&tot[lo..hi]);
            let mut m = 0i64;
            for (p, ((s, &l), &t)) in (lo as i32..).zip(splits) {
                *s = score(p, l as i32, t as i32, nn as i32);
                m = m.max(s.to_bits() as i64);
            }
            block_max[b] = f64::from_bits(m as u64);
        }
    }

    /// The count pass of a ClaSP evaluation: two prefix sums over the
    /// per-key counts of an `nn`-row range, `nn = left.len()`, with one
    /// minimum per [`BLOCK`]-split block. In wrapping `u32` arithmetic (a
    /// negative step is its two's complement):
    ///
    /// ```text
    /// tot[p]   = nn - (cnt[0] + ... + cnt[p])        p in 0..nn
    /// left[p]  = step[1] + ... + step[p]             (left[0] = 0)
    /// l_min[b] = min of left[p] over the splits p of block b, that is
    ///            [max(64b, 1), min(64b + 64, nn)); u32::MAX if none
    /// ```
    ///
    /// `step[0]` enters no result. This is the reference body: the AVX2 scan
    /// ([`avx2::split_counts`]) gives the same integers.
    ///
    /// # Panics
    /// Panics if a slice length disagrees with `nn`.
    pub fn split_counts(
        cnt: &[u32],
        step: &[u32],
        left: &mut [u32],
        tot: &mut [u32],
        l_min: &mut [u32],
    ) {
        check_split_counts(cnt, step, left, tot, l_min);
        let nn = left.len();
        if nn == 0 {
            return;
        }
        let n = nn as u32;
        // Index 0 is no split: it only seeds the sums.
        let (mut zeros, mut l) = (cnt[0], 0u32);
        (left[0], tot[0]) = (0, n.wrapping_sub(zeros));
        for (b, m) in l_min.iter_mut().enumerate() {
            let (lo, hi) = ((b * BLOCK).max(1), (b * BLOCK + BLOCK).min(nn));
            let mut mn = u32::MAX;
            for (((t, left), &c), &s) in tot[lo..hi]
                .iter_mut()
                .zip(&mut left[lo..hi])
                .zip(&cnt[lo..hi])
                .zip(&step[lo..hi])
            {
                zeros = zeros.wrapping_add(c);
                *t = n.wrapping_sub(zeros);
                l = l.wrapping_add(s);
                *left = l;
                mn = mn.min(l);
            }
            *m = mn;
        }
    }

    /// The score of one split: `p` of `nn` rows in class 0, `l` of them
    /// and `t` rows in all predicted 1. [`profile_scores`] computes every
    /// split with this arithmetic.
    ///
    /// Both scores are non-decreasing in `p` and `t` and non-increasing in
    /// `l` as long as `l <= p`, `l <= t <= nn` and `1 <= p < nn` (the
    /// denominators then stay at least 1), and every IEEE step — the exact
    /// integer-to-`f64` conversions, division, addition, the `×0.5` — is
    /// monotone. So for counts taken at a block's corner (its last split,
    /// its smallest `l`, its largest `t`) this is at least every score of
    /// the block, bit for bit: the bound [`crate::crossval::CrossVal`]
    /// prunes blocks with.
    #[inline]
    pub fn split_score(score_fn: ScoreFn, p: i32, l: i32, t: i32, nn: i32) -> f64 {
        match score_fn {
            ScoreFn::MacroF1 => macro_f1(p, l, t, nn),
            ScoreFn::BalancedAccuracy => balanced_accuracy(p, l, t, nn),
        }
    }

    /// The confusion matrix `m[true][pred]` at split `p` of `nn` rows, with
    /// `l` of the left rows and `t` rows in all predicted 1: every row left
    /// of `p` is truth 0, the rest truth 1.
    #[inline(always)]
    fn confusion(p: i32, l: i32, t: i32, nn: i32) -> [[i32; 2]; 2] {
        let m11 = t - l;
        [[p - l, l], [nn - p - m11, m11]]
    }

    /// [`ScoreFn::MacroF1`] at one split.
    #[inline(always)]
    fn macro_f1(p: i32, l: i32, t: i32, nn: i32) -> f64 {
        let [[m00, m01], [m10, m11]] = confusion(p, l, t, nn);
        let d0 = 2 * m00 + m10 + m01;
        let f0 = if d0 == 0 {
            0.0
        } else {
            2.0 * m00 as f64 / d0 as f64
        };
        let d1 = 2 * m11 + m01 + m10;
        let f1 = if d1 == 0 {
            0.0
        } else {
            2.0 * m11 as f64 / d1 as f64
        };
        0.5 * (f0 + f1)
    }

    /// [`ScoreFn::BalancedAccuracy`] at one split.
    #[inline(always)]
    fn balanced_accuracy(p: i32, l: i32, t: i32, nn: i32) -> f64 {
        let [[m00, m01], [m10, m11]] = confusion(p, l, t, nn);
        let d0 = m00 + m01;
        let r0 = if d0 == 0 { 0.0 } else { m00 as f64 / d0 as f64 };
        let d1 = m10 + m11;
        let r1 = if d1 == 0 { 0.0 } else { m11 as f64 / d1 as f64 };
        0.5 * (r0 + r1)
    }

    /// Dot product in the reductions' one summation order: four lane
    /// accumulators folded `(0 + 2) + (1 + 3)`, then a sequential tail.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot operand length mismatch");
        let [s] = lane_sums(a, b, |x, y| [x * y]);
        s
    }

    /// `(sum, sum of squares)` in the reductions' one summation order.
    #[inline]
    pub fn sum_sumsq(a: &[f64]) -> (f64, f64) {
        let [s, q] = lane_sums(a, a, |x, _| [x, x * x]);
        (s, q)
    }

    /// Sum of squared consecutive differences over the `n - 1` pairs, in
    /// the reductions' one summation order.
    #[inline]
    pub fn diff_sumsq(a: &[f64]) -> f64 {
        let nd = a.len().saturating_sub(1);
        let [s] = lane_sums(&a[a.len() - nd..], &a[..nd], |hi, lo| {
            let d = hi - lo;
            [d * d]
        });
        s
    }

    /// The one summation order of the reductions: `K` sums of `term(a[i],
    /// b[i])` over `i < a.len()`, each accumulated in [`LANES`] lanes
    /// (lane `i mod 4`) over the whole 4-element chunks, the lanes folded
    /// `(0 + 2) + (1 + 3)`, then the remaining terms added in sequence.
    /// `b` must be as long as `a`.
    #[inline(always)]
    fn lane_sums<const K: usize>(
        a: &[f64],
        b: &[f64],
        term: impl Fn(f64, f64) -> [f64; K],
    ) -> [f64; K] {
        let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        let (ra, rb) = (ca.remainder(), cb.remainder());
        let mut acc = [[0.0; K]; LANES];
        for (x, y) in ca.zip(cb) {
            for (l, acc) in acc.iter_mut().enumerate() {
                for (s, t) in acc.iter_mut().zip(term(x[l], y[l])) {
                    *s += t;
                }
            }
        }
        let mut sums = std::array::from_fn(|k| (acc[0][k] + acc[2][k]) + (acc[1][k] + acc[3][k]));
        for (&x, &y) in ra.iter().zip(rb) {
            for (s, t) in sums.iter_mut().zip(term(x, y)) {
                *s += t;
            }
        }
        sums
    }

    /// The Q-step skeleton shared by the three measures: `score(dot, c)`
    /// is a slot's similarity given its completed dot product and its item
    /// `c` of the measure's `columns`. Scores every slot first, then
    /// derives the block outputs from the scores ([`block_outputs`]) — the
    /// definition in [`QStepIo`].
    #[inline(always)]
    fn qstep<C>(io: QStepIo<'_>, columns: impl Iterator<Item = C>, score: impl Fn(f64, C) -> f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
            kth,
            block_max,
            block_hits,
        } = io;
        let slots = q.iter_mut().zip(scores.iter_mut()).zip(tail).zip(head);
        for ((((q, s), &t), &h), c) in slots.zip(columns) {
            let dot = *q + t * last;
            *s = score(dot, c);
            *q = dot - h * first;
        }
        let blocks = scores[..kth.len()].chunks(BLOCK).zip(kth.chunks(BLOCK));
        for ((sb, kb), (mx, hits)) in blocks.zip(block_max.iter_mut().zip(block_hits)) {
            (*mx, *hits) = block_outputs(sb, kb);
        }
    }

    /// One block's `(maximum, hit bits)` from its scores and thresholds,
    /// folded in 8-slot chunks: a NaN score fails both `s > m` and `s >=
    /// t`, so it neither moves the maximum nor sets a bit, and `+ 0.0`
    /// reports a −0.0 maximum as +0.0.
    #[inline(always)]
    fn block_outputs(scores: &[f64], kth: &[f64]) -> (f64, u64) {
        const W: usize = 8;
        let (sc, kc) = (scores.chunks_exact(W), kth.chunks_exact(W));
        let (sr, kr, whole) = (sc.remainder(), kc.remainder(), W * sc.len());
        let mut m = [f64::NEG_INFINITY; W];
        let mut hits = 0u64;
        for (j, (s, t)) in sc.zip(kc).enumerate() {
            let mut bits = 0u64;
            for l in 0..W {
                m[l] = if s[l] > m[l] { s[l] } else { m[l] };
                bits |= u64::from(s[l] >= t[l]) << l;
            }
            hits |= bits << (W * j);
        }
        let mut mx = f64::NEG_INFINITY;
        for s in m {
            mx = if s > mx { s } else { mx };
        }
        for (j, (&s, &t)) in sr.iter().zip(kr).enumerate() {
            mx = if s > mx { s } else { mx };
            hits |= u64::from(s >= t) << (whole + j);
        }
        (mx + 0.0, hits)
    }

    /// Fused Q-step, Pearson scoring (see [`QStepIo`]).
    pub fn qstep_pearson(io: QStepIo<'_>, mu: &[f64], sig: &[f64], w: f64, mu_n: f64, sig_n: f64) {
        io.check(&[("mu", mu), ("sig", sig)]);
        qstep(io, mu.iter().zip(sig), |dot, (&m, &g)| {
            pearson_from_dot(dot, w, m, g, mu_n, sig_n)
        });
    }

    /// Fused Q-step, negated squared Euclidean scoring.
    pub fn qstep_euclidean(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
        io.check(&[("ssq", ssq)]);
        qstep(io, ssq.iter(), |dot, &c| {
            -sq_euclidean_from_dot(dot, c, ssq_n)
        });
    }

    /// Fused Q-step, negated squared CID scoring.
    pub fn qstep_cid(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
        io.check(&[("ssq", ssq), ("ce2", ce2)]);
        qstep(io, ssq.iter().zip(ce2), |dot, (&c, &e)| {
            -sq_cid_from_dot(dot, c, ssq_n, e, ce2_n)
        });
    }
}

/// AVX2 kernels (x86-64). Every public function asserts
/// [`avx2_available`]. The reductions and the profile score pass run the
/// [`scalar`] bodies compiled with AVX2 enabled, so they give the same
/// bits. The Q-step sweep and the count pass are explicit `core::arch`
/// intrinsics; the sweep scores its `n % 4` remainder slot by slot with
/// the scalar arithmetic. Its NaN handling replicates the scalar kernels
/// exactly: clamps blend the unordered lanes back, and `maxpd`'s
/// returns-second-operand-on-NaN rule matches an `s > m` select.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // raw intrinsics behind runtime feature detection
pub mod avx2 {
    use super::*;
    use crate::similarity::{CE_FLOOR, SIGMA_FLOOR};
    use core::arch::x86_64::*;

    #[inline(always)]
    fn assert_available() {
        assert!(
            avx2_available(),
            "AVX2 kernels called on a CPU without AVX2"
        );
    }

    /// Runs `body`, a call of a [`scalar`] kernel, compiled with AVX2
    /// enabled: the same IEEE operations in the same order, so the same
    /// bits (Rust contracts no multiply-add).
    #[inline(always)]
    fn run<R>(body: impl FnOnce() -> R) -> R {
        /// # Safety
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn with_avx2<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        assert_available();
        // SAFETY: the CPU supports AVX2 (asserted above), the only
        // requirement of a `target_feature` function; the body is safe
        // code.
        unsafe { with_avx2(body) }
    }

    /// [`scalar::dot`] compiled with AVX2.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        run(|| scalar::dot(a, b))
    }

    /// [`scalar::sum_sumsq`] compiled with AVX2.
    pub fn sum_sumsq(a: &[f64]) -> (f64, f64) {
        run(|| scalar::sum_sumsq(a))
    }

    /// [`scalar::diff_sumsq`] compiled with AVX2.
    pub fn diff_sumsq(a: &[f64]) -> f64 {
        run(|| scalar::diff_sumsq(a))
    }

    /// Largest lane of `v`, whose lanes are not NaN.
    #[target_feature(enable = "avx2")]
    unsafe fn hmax(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; LANES];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        lanes.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The Q-step skeleton shared by the three measures, fused with the
    /// admission filter: `lanes(i, dot)` scores the 256-bit lane block at
    /// slot `i`, `slot(i, dot)` a single remainder slot. The sweep filters
    /// each [`BLOCK`] of the eligible prefix as it scores it, then scores
    /// the unfiltered rest. Hit bits enter a block's word at the top and
    /// shift down by a constant, so one final shift aligns its first slot
    /// to bit 0. Callers define `lanes` inside their own `avx2` function,
    /// so that the closure inherits the target feature and inlines here.
    ///
    /// # Safety
    /// The CPU must support AVX2, `io` must pass [`QStepIo::check`], and
    /// `lanes` must read only the lane block `i..i + LANES` of slices at
    /// least as long as `io.q`: the sweep accesses every slice by raw
    /// pointer.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn qstep<L, S>(io: QStepIo<'_>, lanes: L, slot: S)
    where
        L: Fn(usize, __m256d) -> __m256d,
        S: Fn(usize, f64) -> f64,
    {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
            kth,
            block_max,
            block_hits,
        } = io;
        let (n, nfilt) = (q.len(), kth.len());
        let (qp, sp) = (q.as_mut_ptr(), scores.as_mut_ptr());
        let (tp, hp, kp) = (tail.as_ptr(), head.as_ptr(), kth.as_ptr());
        let vlast = _mm256_set1_pd(last);
        let vfirst = _mm256_set1_pd(first);
        let step = |i: usize| {
            let dot = _mm256_add_pd(
                _mm256_loadu_pd(qp.add(i)),
                _mm256_mul_pd(_mm256_loadu_pd(tp.add(i)), vlast),
            );
            let sc = lanes(i, dot);
            _mm256_storeu_pd(sp.add(i), sc);
            let qn = _mm256_sub_pd(dot, _mm256_mul_pd(_mm256_loadu_pd(hp.add(i)), vfirst));
            _mm256_storeu_pd(qp.add(i), qn);
            sc
        };
        let step1 = |i: usize| {
            let dot = *qp.add(i) + *tp.add(i) * last;
            let sc = slot(i, dot);
            *sp.add(i) = sc;
            *qp.add(i) = dot - *hp.add(i) * first;
            sc
        };
        for (b, lo) in (0..nfilt).step_by(BLOCK).enumerate() {
            let hi = (lo + BLOCK).min(nfilt);
            let mut vmax = _mm256_set1_pd(f64::NEG_INFINITY);
            let mut hits = 0u64;
            let mut i = lo;
            while i + LANES <= hi {
                let sc = step(i);
                // maxpd returns its second operand when either is NaN, so a
                // NaN score leaves the running max alone.
                vmax = _mm256_max_pd(sc, vmax);
                let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(sc, _mm256_loadu_pd(kp.add(i)));
                let bits = u64::from(_mm256_movemask_pd(ge) as u32);
                hits = hits >> LANES | bits << (BLOCK - LANES);
                i += LANES;
            }
            let mut mx = hmax(vmax);
            while i < hi {
                let sc = step1(i);
                mx = mx.max(sc);
                hits = hits >> 1 | u64::from(sc >= *kp.add(i)) << (BLOCK - 1);
                i += 1;
            }
            block_max[b] = mx + 0.0;
            block_hits[b] = hits >> (BLOCK - (hi - lo));
        }
        let mut i = nfilt;
        while i + LANES <= n {
            step(i);
            i += LANES;
        }
        while i < n {
            step1(i);
            i += 1;
        }
    }

    /// Fused Q-step, Pearson scoring; value-identical to the scalar kernel
    /// (flat-σ zeroing and NaN propagation included).
    pub fn qstep_pearson(io: QStepIo<'_>, mu: &[f64], sig: &[f64], w: f64, mu_n: f64, sig_n: f64) {
        assert_available();
        // Hard asserts: the impl reads raw pointers sized by `q.len()`.
        io.check(&[("mu", mu), ("sig", sig)]);
        unsafe { qstep_pearson_impl(io, mu, sig, w, mu_n, sig_n) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn qstep_pearson_impl(
        io: QStepIo<'_>,
        mu: &[f64],
        sig: &[f64],
        w: f64,
        mu_n: f64,
        sig_n: f64,
    ) {
        let vw = _mm256_set1_pd(w);
        let vmun = _mm256_set1_pd(mu_n);
        let vsign = _mm256_set1_pd(sig_n);
        let vfloor = _mm256_set1_pd(SIGMA_FLOOR);
        let vneg1 = _mm256_set1_pd(-1.0);
        let vpos1 = _mm256_set1_pd(1.0);
        let vzero = _mm256_setzero_pd();
        // sig_n < floor zeroes every lane (scalar checks it per call).
        let flat_n = _mm256_cmp_pd::<_CMP_LT_OQ>(vsign, vfloor);
        let lanes = |i: usize, dot: __m256d| {
            let vmu = _mm256_loadu_pd(mu.as_ptr().add(i));
            let vsig = _mm256_loadu_pd(sig.as_ptr().add(i));
            // Same association as the scalar kernel: (w*mu_a)*mu_n etc.
            let num = _mm256_sub_pd(dot, _mm256_mul_pd(_mm256_mul_pd(vw, vmu), vmun));
            let den = _mm256_mul_pd(_mm256_mul_pd(vw, vsig), vsign);
            let c = _mm256_div_pd(num, den);
            // clamp to [-1, 1] but keep NaN lanes NaN, like f64::clamp.
            let clamped = _mm256_min_pd(_mm256_max_pd(c, vneg1), vpos1);
            let unord = _mm256_cmp_pd::<_CMP_UNORD_Q>(c, c);
            let val = _mm256_blendv_pd(clamped, c, unord);
            let flat = _mm256_or_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(vsig, vfloor), flat_n);
            _mm256_blendv_pd(val, vzero, flat)
        };
        let slot = |i: usize, dot| pearson_from_dot(dot, w, mu[i], sig[i], mu_n, sig_n);
        qstep(io, lanes, slot);
    }

    /// Fused Q-step, negated squared Euclidean scoring; value-identical to
    /// the scalar kernel (NaN-preserving floor at zero included).
    pub fn qstep_euclidean(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
        assert_available();
        io.check(&[("ssq", ssq)]);
        unsafe { qstep_euclidean_impl(io, ssq, ssq_n) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn qstep_euclidean_impl(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
        let vssqn = _mm256_set1_pd(ssq_n);
        let vtwo = _mm256_set1_pd(2.0);
        let vzero = _mm256_setzero_pd();
        let vsign = _mm256_set1_pd(-0.0);
        let lanes = |i: usize, dot: __m256d| {
            let vssq = _mm256_loadu_pd(ssq.as_ptr().add(i));
            let inner = _mm256_sub_pd(_mm256_add_pd(vssq, vssqn), _mm256_mul_pd(vtwo, dot));
            // maxpd returns the *second* operand on NaN, so this order
            // preserves a NaN `inner` like the scalar floor does.
            let ed2 = _mm256_max_pd(vzero, inner);
            _mm256_xor_pd(ed2, vsign)
        };
        qstep(io, lanes, |i, dot| {
            -sq_euclidean_from_dot(dot, ssq[i], ssq_n)
        });
    }

    /// Fused Q-step, negated squared CID scoring; value-identical to the
    /// scalar kernel (hi/lo selection via an ordered `>=` mask so NaN
    /// complexity estimates land exactly where the scalar branch puts
    /// them).
    pub fn qstep_cid(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
        assert_available();
        io.check(&[("ssq", ssq), ("ce2", ce2)]);
        unsafe { qstep_cid_impl(io, ssq, ce2, ssq_n, ce2_n) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn qstep_cid_impl(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
        let vssqn = _mm256_set1_pd(ssq_n);
        let vce2n = _mm256_set1_pd(ce2_n);
        let vtwo = _mm256_set1_pd(2.0);
        let vzero = _mm256_setzero_pd();
        let vsign = _mm256_set1_pd(-0.0);
        let vtiny = _mm256_set1_pd(CE_FLOOR);
        let lanes = |i: usize, dot: __m256d| {
            let vssq = _mm256_loadu_pd(ssq.as_ptr().add(i));
            let vce2 = _mm256_loadu_pd(ce2.as_ptr().add(i));
            let inner = _mm256_sub_pd(_mm256_add_pd(vssq, vssqn), _mm256_mul_pd(vtwo, dot));
            // NaN-preserving floor at zero (maxpd returns src2 on NaN).
            let ed2 = _mm256_max_pd(vzero, inner);
            // (hi, lo) = ce2_a >= ce2_b ? (a, b) : (b, a), as in the scalar
            // branch (NaN a compares false and becomes lo).
            let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(vce2, vce2n);
            let hi = _mm256_blendv_pd(vce2n, vce2, ge);
            let lo = _mm256_blendv_pd(vce2, vce2n, ge);
            let lo = _mm256_max_pd(lo, vtiny);
            let cid2 = _mm256_mul_pd(ed2, _mm256_div_pd(hi, lo));
            _mm256_xor_pd(cid2, vsign)
        };
        let slot = |i: usize, dot| -sq_cid_from_dot(dot, ssq[i], ssq_n, ce2[i], ce2_n);
        qstep(io, lanes, slot);
    }

    /// [`scalar::profile_scores`] compiled with AVX2 (no intrinsics, no
    /// reassociation: every lane runs the reference's division).
    pub fn profile_scores(
        score_fn: ScoreFn,
        left: &[u32],
        tot: &[u32],
        profile: &mut [f64],
        block_max: &mut [f64],
        blocks: Range<usize>,
    ) {
        run(|| scalar::profile_scores(score_fn, left, tot, profile, block_max, blocks));
    }

    /// The count pass, 8 splits per instruction: each chunk of eight `u32`
    /// counts is scanned in registers (`scan8`) and offset by the running
    /// sum, which a lane-7 broadcast carries to the next chunk. Integer
    /// sums are exact, so this equals [`scalar::split_counts`].
    pub fn split_counts(
        cnt: &[u32],
        step: &[u32],
        left: &mut [u32],
        tot: &mut [u32],
        l_min: &mut [u32],
    ) {
        assert_available();
        check_split_counts(cnt, step, left, tot, l_min);
        // SAFETY: the CPU supports AVX2 and every slice has the length
        // the impl requires, both asserted above.
        unsafe { split_counts_impl(cnt, step, left, tot, l_min) }
    }

    /// # Safety
    /// The CPU must support AVX2, and the slices must pass
    /// `check_split_counts`: the pass reads `cnt` and `step` and writes
    /// `left` and `tot` by raw pointer, up to `left.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn split_counts_impl(
        cnt: &[u32],
        step: &[u32],
        left: &mut [u32],
        tot: &mut [u32],
        l_min: &mut [u32],
    ) {
        const W: usize = 8;
        let nn = left.len();
        if nn == 0 {
            return;
        }
        let (cp, sp) = (cnt.as_ptr(), step.as_ptr());
        let (lp, tp) = (left.as_mut_ptr(), tot.as_mut_ptr());
        let n = nn as u32;
        let vn = _mm256_set1_epi32(n as i32);
        let lane7 = _mm256_set1_epi32(7);
        // The running sums, in every lane. The step sum starts at
        // `-step[0]`, so that `left[0] = 0`.
        let mut zeros = _mm256_setzero_si256();
        let mut l = _mm256_set1_epi32(step[0].wrapping_neg() as i32);
        // Index 0 is no split: an all-ones lane keeps it out of block 0's
        // minimum.
        let mut not_split = _mm256_setr_epi32(-1, 0, 0, 0, 0, 0, 0, 0);
        for (b, lo) in (0..nn).step_by(BLOCK).enumerate() {
            let hi = (lo + BLOCK).min(nn);
            let mut vmin = _mm256_set1_epi32(-1);
            let mut i = lo;
            while i + W <= hi {
                zeros = _mm256_add_epi32(zeros, scan8(_mm256_loadu_si256(cp.add(i).cast())));
                l = _mm256_add_epi32(l, scan8(_mm256_loadu_si256(sp.add(i).cast())));
                _mm256_storeu_si256(tp.add(i).cast(), _mm256_sub_epi32(vn, zeros));
                _mm256_storeu_si256(lp.add(i).cast(), l);
                vmin = _mm256_min_epu32(vmin, _mm256_or_si256(l, not_split));
                not_split = _mm256_setzero_si256();
                zeros = _mm256_permutevar8x32_epi32(zeros, lane7);
                l = _mm256_permutevar8x32_epi32(l, lane7);
                i += W;
            }
            // The ragged end of the last block, one split at a time.
            let mut m = hmin_epu32(vmin);
            let mut z = _mm256_cvtsi256_si32(zeros) as u32;
            let mut s = _mm256_cvtsi256_si32(l) as u32;
            while i < hi {
                z = z.wrapping_add(*cp.add(i));
                *tp.add(i) = n.wrapping_sub(z);
                s = s.wrapping_add(*sp.add(i));
                *lp.add(i) = s;
                if i > 0 {
                    m = m.min(s);
                }
                i += 1;
            }
            l_min[b] = m;
        }
    }

    /// Inclusive prefix sum of the eight `u32` lanes of `x`, wrapping:
    /// two in-lane shifts give each 128-bit half its own sums, then the
    /// low half's total (its lane 3) is added to the high half.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn scan8(x: __m256i) -> __m256i {
        let x = _mm256_add_epi32(x, _mm256_slli_si256::<4>(x));
        let x = _mm256_add_epi32(x, _mm256_slli_si256::<8>(x));
        // [0 | low half], then lane 3 of each half broadcast within it.
        let low = _mm256_permute2x128_si256::<0x08>(x, x);
        _mm256_add_epi32(x, _mm256_shuffle_epi32::<0xFF>(low))
    }

    /// Smallest unsigned lane of `v`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hmin_epu32(v: __m256i) -> u32 {
        let m = _mm_min_epu32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_min_epu32(m, _mm_shuffle_epi32::<0b01_00_11_10>(m));
        let m = _mm_min_epu32(m, _mm_shuffle_epi32::<0b10_11_00_01>(m));
        _mm_cvtsi128_si32(m) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SplitMix64;

    fn random(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 4.0 - 2.0).collect()
    }

    #[test]
    fn backend_name_roundtrip() {
        for backend in [Backend::Scalar, Backend::Avx2] {
            assert_eq!(parse(Some(backend.name()), true), (backend, None));
        }
        // Dispatch resolves to something usable on this machine.
        let _ = active_backend();
    }

    #[test]
    fn parse_honours_the_two_backend_names() {
        for avx2 in [false, true] {
            let best = if avx2 { Backend::Avx2 } else { Backend::Scalar };
            assert_eq!(parse(None, avx2), (best, None), "unset");
            assert_eq!(parse(Some(""), avx2), (best, None), "empty");
            assert_eq!(parse(Some("scalar"), avx2), (Backend::Scalar, None));
        }
        assert_eq!(parse(Some("avx2"), true), (Backend::Avx2, None));
    }

    #[test]
    fn parse_warns_about_a_value_it_cannot_honour() {
        let (backend, warning) = parse(Some("avx2"), false);
        assert_eq!(backend, Backend::Scalar);
        assert!(warning.unwrap().contains("no AVX2"));
        // A deleted backend name, a typo and garbage run the best backend
        // and name the two valid values.
        for value in ["autovec", "AVX2", "avx512", "sse2 ", "\u{fffd}"] {
            for (avx2, best) in [(false, Backend::Scalar), (true, Backend::Avx2)] {
                let (backend, warning) = parse(Some(value), avx2);
                assert_eq!(backend, best, "{value:?}");
                let warning = warning.expect("a warning");
                assert!(warning.contains("scalar|avx2"), "{warning}");
                assert!(warning.contains(&format!("{value:?}")), "{warning}");
                assert!(warning.ends_with(best.name()), "{warning}");
            }
        }
    }

    #[test]
    fn dispatch_dot_matches_scalar() {
        for n in [0usize, 1, 3, 4, 5, 63, 64, 65, 200] {
            let a = random(n, 1 + n as u64);
            let b = random(n, 1000 + n as u64);
            assert_eq!(
                dot(&a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn dispatch_moments_match_scalar() {
        for n in [0usize, 1, 2, 5, 8, 131] {
            let a = random(n, 7 + n as u64);
            assert_eq!(sum_sumsq(&a), scalar::sum_sumsq(&a), "n={n}");
            assert_eq!(diff_sumsq(&a), scalar::diff_sumsq(&a), "n={n}");
        }
    }

    #[test]
    #[should_panic]
    fn qstep_rejects_mismatched_lengths() {
        let mut q = vec![0.0; 4];
        let mut scores = vec![0.0; 4];
        let tail = vec![0.0; 3];
        let head = vec![0.0; 4];
        qstep_euclidean(
            QStepIo {
                q: &mut q,
                scores: &mut scores,
                tail: &tail,
                head: &head,
                last: 0.0,
                first: 0.0,
                kth: &[],
                block_max: &mut [],
                block_hits: &mut [],
            },
            &[0.0; 4],
            0.0,
        );
    }

    #[test]
    #[should_panic(expected = "block_hits length mismatch")]
    fn qstep_rejects_missing_block_outputs() {
        let mut q = vec![0.0; 4];
        let mut scores = vec![0.0; 4];
        qstep_euclidean(
            QStepIo {
                q: &mut q,
                scores: &mut scores,
                tail: &[0.0; 4],
                head: &[0.0; 4],
                last: 0.0,
                first: 0.0,
                kth: &[0.0; 2],
                block_max: &mut [0.0],
                block_hits: &mut [],
            },
            &[0.0; 4],
            0.0,
        );
    }
}
