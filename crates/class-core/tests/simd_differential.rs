//! Differential tests of the SIMD layer: the AVX2 backend (where the CPU
//! supports it) and the dispatched functions must agree with the scalar
//! reference bit for bit on random, constant, and NaN-containing inputs,
//! across all remainder lengths (`n % 4 != 0` included). The reductions
//! share one summation order, and also agree within 1e-12 (relative) with
//! a plain sequential sum. The Q-step kernels agree on `q`, `scores` and
//! the admission-block outputs (`block_max`, `block_hits`), with every NaN
//! counted as equal but NaN lanes required in the same places — NaN
//! semantics are part of the kernel contract (see `class_core::simd`) —
//! and each backend's block outputs follow their definition from its own
//! scores. So does the profile score pass (scores and block maxima), over
//! the whole range and block by block, and the count pass (`left`, `tot`
//! and the block minima of `left`), which also matches a naive running
//! sum, and the k-NN selection's floor mask (`floor_hits`), which also
//! matches its definition.

use class_core::simd::{self, scalar, QStepIo, BLOCK};
use class_core::{ScoreFn, SplitMix64};
use proptest::prelude::*;
use std::ops::Range;

const TOL: f64 = 1e-12;

/// Equality up to `TOL` (relative), treating NaN == NaN.
fn close(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

/// Bit patterns, with every NaN folded to one: NaN payloads and signs are
/// not part of the kernel contract.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|&x| if x.is_nan() { f64::NAN } else { x }.to_bits())
        .collect()
}

/// Input generator: uniform values in [-3, 3] with optional NaN injection
/// and an optional constant (flat) prefix — the three regimes the kernels
/// must handle (`SIGMA_FLOOR` zeroing kicks in on flat subsequences).
fn make_input(n: usize, seed: u64, nan_at: Option<usize>, constant: bool) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<f64> = if constant {
        vec![1.25; n]
    } else {
        (0..n).map(|_| rng.next_f64() * 6.0 - 3.0).collect()
    };
    if let Some(p) = nan_at {
        if n > 0 {
            let p = p % n;
            v[p] = f64::NAN;
        }
    }
    v
}

/// What one Q-step kernel run produces.
#[derive(Debug)]
struct QStepOut {
    q: Vec<f64>,
    scores: Vec<f64>,
    block_max: Vec<f64>,
    block_hits: Vec<u64>,
}

impl QStepOut {
    /// Asserts `self` matches the scalar reference `want` bit for bit.
    fn assert_matches(&self, want: &QStepOut, label: &str) {
        for (what, got, want) in [
            ("q", &self.q, &want.q),
            ("scores", &self.scores, &want.scores),
            ("block_max", &self.block_max, &want.block_max),
        ] {
            assert_eq!(bits(got), bits(want), "{label}/{what}: {got:?} vs {want:?}");
        }
        assert_eq!(self.block_hits, want.block_hits, "{label}/block_hits");
    }

    /// Asserts that the block outputs follow the definition in `QStepIo`,
    /// computed from this run's own scores: per block of the prefix `kth`
    /// covers, the non-NaN maximum (−∞ if none) with −0.0 reported as
    /// +0.0, and bit `j` set iff slot `j` is in the block and its score is
    /// `>=` its threshold (ordered: NaN sets no bit).
    fn assert_block_definition(&self, kth: &[f64], label: &str) {
        let blocks = self.scores[..kth.len()]
            .chunks(BLOCK)
            .zip(kth.chunks(BLOCK));
        assert_eq!(self.block_max.len(), kth.len().div_ceil(BLOCK), "{label}");
        for (b, (sb, kb)) in blocks.enumerate() {
            let max = sb
                .iter()
                .filter(|s| !s.is_nan())
                .fold(f64::NEG_INFINITY, |m, &s| m.max(s));
            let max = if max == 0.0 { 0.0 } else { max };
            assert_eq!(
                self.block_max[b].to_bits(),
                max.to_bits(),
                "{label}/block_max[{b}]: {:?} vs {max:?}",
                self.block_max[b]
            );
            for j in 0..BLOCK {
                let hit = j < sb.len() && sb[j] >= kb[j];
                assert_eq!(
                    self.block_hits[b] >> j & 1 == 1,
                    hit,
                    "{label}/block_hits[{b}] bit {j}"
                );
            }
        }
    }
}

/// Runs one Q-step kernel variant on fresh copies of the shared inputs,
/// filtering the prefix `kth` covers, and returns its outputs.
#[allow(clippy::too_many_arguments)]
fn run_qstep(
    which: &str,
    backend: &str,
    q0: &[f64],
    tail: &[f64],
    head: &[f64],
    moments: (&[f64], &[f64], &[f64]),
    newest: (f64, f64, f64, f64),
    shift: (f64, f64),
    kth: &[f64],
) -> QStepOut {
    let (mu, sig, aux) = moments;
    let (mu_n, sig_n, ssq_n, ce2_n) = newest;
    let (last, first) = shift;
    let blocks = kth.len().div_ceil(BLOCK);
    let mut out = QStepOut {
        q: q0.to_vec(),
        scores: vec![0.0; q0.len()],
        block_max: vec![0.0; blocks],
        block_hits: vec![0; blocks],
    };
    let io = QStepIo {
        q: &mut out.q,
        scores: &mut out.scores,
        tail,
        head,
        last,
        first,
        kth,
        block_max: &mut out.block_max,
        block_hits: &mut out.block_hits,
    };
    let w = 8.0;
    match (which, backend) {
        ("pearson", "scalar") => scalar::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        ("euclidean", "scalar") => scalar::qstep_euclidean(io, sig, ssq_n),
        ("cid", "scalar") => scalar::qstep_cid(io, sig, aux, ssq_n, ce2_n),
        #[cfg(target_arch = "x86_64")]
        ("pearson", "avx2") => simd::avx2::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        #[cfg(target_arch = "x86_64")]
        ("euclidean", "avx2") => simd::avx2::qstep_euclidean(io, sig, ssq_n),
        #[cfg(target_arch = "x86_64")]
        ("cid", "avx2") => simd::avx2::qstep_cid(io, sig, aux, ssq_n, ce2_n),
        other => panic!("unknown kernel/backend combination {other:?}"),
    }
    out
}

/// Every Q-step backend: the scalar reference, which is also the portable
/// fallback, and AVX2 where the CPU supports it.
fn qstep_backends() -> Vec<&'static str> {
    let mut b = vec!["scalar"];
    if simd::avx2_available() {
        b.push("avx2");
    }
    b
}

/// Admission column for the first `nfilt` slots, built from reference
/// scores so that every compare outcome occurs: ties (`>=` must hit),
/// thresholds just above and below the score, and −∞ (a row with room).
fn admission_column(scores: &[f64], nfilt: usize) -> Vec<f64> {
    scores[..nfilt]
        .iter()
        .enumerate()
        .map(|(i, &s)| match i % 5 {
            0 => s,
            1 => s - 0.25,
            2 => s + 0.25,
            3 => f64::NEG_INFINITY,
            _ => -s,
        })
        .collect()
}

/// Eligible-prefix lengths to filter on an `n`-slot sweep: empty, one
/// slot, one block ± 1, and everything.
fn prefixes(n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = [0, 1, 63, 64, 65, n]
        .into_iter()
        .filter(|&p| p <= n)
        .collect();
    p.dedup();
    p
}

/// Shared harness: build inputs for all three Q-step kernels from a seed
/// and compare every backend against the scalar reference, for every
/// eligible prefix of [`prefixes`].
fn check_qstep_all(n: usize, seed: u64, nan_at: Option<usize>, constant: bool) {
    let q0 = make_input(n, seed, nan_at, false);
    let tail = make_input(n, seed ^ 1, nan_at.map(|p| p / 2), constant);
    let head = make_input(n, seed ^ 2, None, constant);
    let mu = make_input(n, seed ^ 3, None, false);
    // `sig` doubles as ssq for euclidean/cid; mix small values under the
    // sigma floor so the flat-subsequence zeroing path is exercised.
    let mut sig = make_input(n, seed ^ 4, nan_at.map(|p| p / 3), false);
    for (i, s) in sig.iter_mut().enumerate() {
        *s = s.abs();
        if i % 7 == 3 {
            *s = 1e-9; // below SIGMA_FLOOR
        }
    }
    let aux: Vec<f64> = make_input(n, seed ^ 5, None, false)
        .iter()
        .map(|v| v.abs())
        .collect();
    let newest = (0.3, if seed % 3 == 0 { 1e-9 } else { 0.9 }, 4.2, 1.7);
    let moments = (mu.as_slice(), sig.as_slice(), aux.as_slice());
    check_qstep_inputs(&q0, &tail, &head, moments, newest, prefixes(n));
}

/// Runs every backend on the given inputs, for each eligible prefix length
/// in `nfilts`: each run's block outputs must follow their definition
/// from its own scores, and every output must match the scalar
/// reference's bit for bit.
fn check_qstep_inputs(
    q0: &[f64],
    tail: &[f64],
    head: &[f64],
    moments: (&[f64], &[f64], &[f64]),
    newest: (f64, f64, f64, f64),
    nfilts: impl IntoIterator<Item = usize> + Clone,
) {
    let (n, shift) = (q0.len(), (1.12, -0.57));
    for which in ["pearson", "euclidean", "cid"] {
        let run = |backend, kth: &[f64]| {
            run_qstep(which, backend, q0, tail, head, moments, newest, shift, kth)
        };
        let plain = run("scalar", &[]);
        for nfilt in nfilts.clone() {
            let kth = admission_column(&plain.scores, nfilt);
            let want = run("scalar", &kth);
            for backend in qstep_backends() {
                let label = format!("{which}/{backend}(n={n}, nfilt={nfilt})");
                let got = run(backend, &kth);
                got.assert_block_definition(&kth, &label);
                got.assert_matches(&want, &label);
            }
        }
    }
}

/// `[dot, sum, sum of squares, diff_sumsq]` of one reduction backend.
fn run_reductions(backend: &str, a: &[f64], b: &[f64]) -> [f64; 4] {
    let (dot, (sum, sumsq), diff) = match backend {
        "scalar" => (
            scalar::dot(a, b),
            scalar::sum_sumsq(a),
            scalar::diff_sumsq(a),
        ),
        "dispatch" => (simd::dot(a, b), simd::sum_sumsq(a), simd::diff_sumsq(a)),
        #[cfg(target_arch = "x86_64")]
        "avx2" => (
            simd::avx2::dot(a, b),
            simd::avx2::sum_sumsq(a),
            simd::avx2::diff_sumsq(a),
        ),
        other => panic!("unknown backend {other}"),
    };
    [dot, sum, sumsq, diff]
}

/// The reductions by their definition, summed in sequence.
fn sequential_reductions(a: &[f64], b: &[f64]) -> [f64; 4] {
    let dot = a.iter().zip(b).fold(0.0, |s, (x, y)| s + x * y);
    let sum = a.iter().fold(0.0, |s, x| s + x);
    let sumsq = a.iter().fold(0.0, |s, x| s + x * x);
    let diff = a
        .windows(2)
        .fold(0.0, |s, p| s + (p[1] - p[0]) * (p[1] - p[0]));
    [dot, sum, sumsq, diff]
}

fn check_reductions(a: &[f64], b: &[f64], label: &str) {
    const NAMES: [&str; 4] = ["dot", "sum", "sumsq", "diff_sumsq"];
    let want = run_reductions("scalar", a, b);
    for backend in profile_backends() {
        let got = run_reductions(backend, a, b);
        for ((name, got), want) in NAMES.iter().zip(got).zip(want) {
            assert_eq!(
                bits(&[got]),
                bits(&[want]),
                "{label}/{backend}/{name}: {got} vs {want}"
            );
        }
    }
    for ((name, got), seq) in NAMES.iter().zip(want).zip(sequential_reductions(a, b)) {
        assert!(close(got, seq), "{label}/{name}: {got} vs sequential {seq}");
    }
}

#[test]
fn reductions_agree_across_remainder_lengths() {
    for n in [
        0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 250,
    ] {
        let a = make_input(n, 100 + n as u64, None, false);
        let b = make_input(n, 200 + n as u64, None, false);
        check_reductions(&a, &b, &format!("random(n={n})"));
        let c = make_input(n, 0, None, true);
        check_reductions(&c, &c, &format!("constant(n={n})"));
        let d = make_input(n, 300 + n as u64, Some(n / 2), false);
        check_reductions(&d, &b, &format!("nan(n={n})"));
    }
}

#[test]
fn qstep_kernels_agree_across_remainder_lengths() {
    for n in [
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 127, 128, 129, 255, 256, 281,
    ] {
        check_qstep_all(n, 500 + n as u64, None, false);
        check_qstep_all(n, 600 + n as u64, Some(n / 3), false);
        check_qstep_all(n, 700 + n as u64, None, true);
    }
}

#[test]
fn block_outputs_follow_the_scalar_definition() {
    // A hand-made 70-slot sweep with a NaN Q slot, zero sums of squares
    // (Euclidean scores of 0.0 and -0.0 occur) and a 66-slot prefix among
    // the others; every prefix length up to 70 is filtered.
    let n = 70;
    let q0 = make_input(n, 11, Some(5), false);
    let tail = make_input(n, 12, None, false);
    let head = make_input(n, 13, None, false);
    let ssq = vec![0.0; n];
    let moments = (ssq.as_slice(), ssq.as_slice(), ssq.as_slice());
    check_qstep_inputs(&q0, &tail, &head, moments, (0.0, 1.0, 0.0, 1.0), 0..=n);
    let out = run_qstep(
        "euclidean",
        "scalar",
        &q0,
        &tail,
        &head,
        moments,
        (0.0, 1.0, 0.0, 1.0),
        (0.0, 0.0),
        &vec![-1.0; 66],
    );
    out.assert_block_definition(&[-1.0; 66], "euclidean/scalar(n=70, nfilt=66)");
    assert!(out.scores[5].is_nan() && out.block_hits[0] & 1 << 5 == 0);
}

#[test]
fn block_outputs_follow_the_definition_at_every_prefix_length() {
    // Every ragged block length, each 8-slot chunk remainder among them,
    // over two blocks and one slot; with no NaN, a NaN score, and a run
    // of NaN scores that fills whole chunks.
    let n = 2 * BLOCK + 1;
    for nan in [0..0, 37..38, 8..24] {
        let mut q0 = make_input(n, 31, None, false);
        q0[nan].fill(f64::NAN);
        let tail = make_input(n, 32, None, false);
        let head = make_input(n, 33, None, false);
        let mu = make_input(n, 34, None, false);
        let sig: Vec<f64> = make_input(n, 35, None, false)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let newest = (0.3, 0.9, 4.2, 1.7);
        check_qstep_inputs(&q0, &tail, &head, (&mu, &sig, &sig), newest, 0..=n);
    }
}

#[test]
fn an_all_nan_block_reports_minus_infinity() {
    // NaN Q state poisons the first 64 slots under every measure (flat
    // subsequences are avoided, since they score 0 whatever the dot).
    let n = 150;
    let mut q0 = make_input(n, 21, None, false);
    q0[..64].fill(f64::NAN);
    let tail = make_input(n, 22, None, false);
    let head = make_input(n, 23, None, false);
    let mu = make_input(n, 24, None, false);
    let sig: Vec<f64> = make_input(n, 25, None, false)
        .iter()
        .map(|v| v.abs() + 0.5)
        .collect();
    let newest = (0.3, 0.9, 4.2, 1.7);
    check_qstep_inputs(&q0, &tail, &head, (&mu, &sig, &sig), newest, prefixes(n));
    for which in ["pearson", "euclidean", "cid"] {
        let out = run_qstep(
            which,
            "scalar",
            &q0,
            &tail,
            &head,
            (&mu, &sig, &sig),
            newest,
            (1.12, -0.57),
            &vec![f64::NEG_INFINITY; n],
        );
        assert!(out.scores[..64].iter().all(|s| s.is_nan()), "{which}");
        assert_eq!(out.block_max[0], f64::NEG_INFINITY, "{which}");
        // -inf admits every non-NaN score and no NaN one.
        assert_eq!(
            out.block_hits,
            [0, u64::MAX, (1 << (n - 128)) - 1],
            "{which}"
        );
    }
}

#[test]
fn dispatch_layer_matches_scalar_reference() {
    // The top-level free functions must agree with `scalar` bit for bit no
    // matter which backend the process resolved to.
    let a = make_input(101, 42, Some(50), false);
    let b = make_input(101, 43, None, false);
    assert_eq!(
        bits(&run_reductions("dispatch", &a, &b)),
        bits(&run_reductions("scalar", &a, &b))
    );
}

/// The special values of an `f64` compare: NaN, both zeros, both
/// infinities, and ordinary values either side of them.
const SPECIALS: [f64; 8] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.5,
    -0.5,
    1.0,
];

/// `floor_hits` of one backend.
fn run_floor_hits(backend: &str, scores: &[f64], floor: f64) -> u64 {
    match backend {
        "scalar" => scalar::floor_hits(scores, floor),
        "dispatch" => simd::floor_hits(scores, floor),
        #[cfg(target_arch = "x86_64")]
        "avx2" => simd::avx2::floor_hits(scores, floor),
        other => panic!("unknown backend {other}"),
    }
}

#[test]
fn floor_hits_agree_with_their_definition_on_every_length() {
    // Scores cycle through the special values and random ones, so every
    // length from an empty block to a full one holds every compare
    // outcome, and every special value is also the floor: NaN on either
    // side sets no bit, and -0.0 and +0.0 compare equal.
    let random = make_input(BLOCK, 31, None, false);
    let scores: Vec<f64> = random
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            if i % 3 == 0 {
                r
            } else {
                SPECIALS[i % SPECIALS.len()]
            }
        })
        .collect();
    for n in 0..=BLOCK {
        for floor in SPECIALS.into_iter().chain([random[7], random[n % BLOCK]]) {
            let block = &scores[..n];
            let want = block
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s >= floor)
                .fold(0u64, |m, (j, _)| m | 1 << j);
            for backend in ["scalar"].into_iter().chain(profile_backends()) {
                assert_eq!(
                    run_floor_hits(backend, block, floor),
                    want,
                    "{backend}(n={n}, floor={floor:?})"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "more than BLOCK scores")]
fn floor_hits_reject_more_than_one_block() {
    simd::floor_hits(&[0.0; BLOCK + 1], 0.0);
}

/// Per-split counts for an `nn`-row profile: random consistent counts
/// (`left[p]` of the `p` left rows and `tot[p] - left[p]` of the `nn - p`
/// right rows predicted 1), with every fifth split at an all-one-sided
/// extreme. Inconsistent counts at splits 1 and 2 make the macro-F1
/// denominators zero: `tot[1] = 1 + nn` gives `d0 == 0`, `tot[2] = 2 - nn`
/// (wrapped) gives `d1 == 0`. (Balanced accuracy's denominators are `p`
/// and `nn - p`, never zero at a split.)
fn profile_counts(nn: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = SplitMix64::new(seed);
    // Uniform in `0..=n`.
    let mut draw = |n: usize| (rng.next_f64() * (n + 1) as f64) as u32;
    let (mut left, mut tot) = (vec![0u32; nn], vec![0u32; nn]);
    for p in 1..nn {
        let (l, r) = match p % 5 {
            0 => (0, 0),
            1 => (p as u32, (nn - p) as u32),
            _ => (draw(p), draw(nn - p)),
        };
        left[p] = l;
        tot[p] = l + r;
    }
    if nn > 2 {
        left[1] = 0;
        tot[1] = (1 + nn) as u32;
        left[2] = 0;
        tot[2] = (2 - nn as i64) as i32 as u32;
    }
    (left, tot)
}

/// Profile scores and block maxima of one backend's score pass.
fn run_profile(
    backend: &str,
    score_fn: ScoreFn,
    left: &[u32],
    tot: &[u32],
) -> (Vec<u64>, Vec<u64>) {
    let blocks = left.len().div_ceil(BLOCK);
    run_profile_blocks(backend, score_fn, left, tot, std::iter::once(0..blocks))
}

/// Profile scores and block maxima of one backend's score pass over the
/// given block ranges, one call each; unscored entries stay NaN.
fn run_profile_blocks(
    backend: &str,
    score_fn: ScoreFn,
    left: &[u32],
    tot: &[u32],
    ranges: impl IntoIterator<Item = Range<usize>>,
) -> (Vec<u64>, Vec<u64>) {
    let nn = left.len();
    let mut profile = vec![f64::NAN; nn];
    let mut block_max = vec![f64::NAN; nn.div_ceil(BLOCK)];
    for blocks in ranges {
        let (p, m) = (&mut profile, &mut block_max);
        match backend {
            "scalar" => scalar::profile_scores(score_fn, left, tot, p, m, blocks),
            "dispatch" => simd::profile_scores(score_fn, left, tot, p, m, blocks),
            #[cfg(target_arch = "x86_64")]
            "avx2" => simd::avx2::profile_scores(score_fn, left, tot, p, m, blocks),
            other => panic!("unknown backend {other}"),
        }
    }
    (bits(&profile), bits(&block_max))
}

/// Every backend the scalar reference is checked against: the dispatched
/// one (whatever `CLASS_SIMD` resolved to) and AVX2 where the CPU
/// supports it.
fn profile_backends() -> Vec<&'static str> {
    let mut b = vec!["dispatch"];
    if simd::avx2_available() {
        b.push("avx2");
    }
    b
}

fn check_profile(nn: usize, seed: u64) {
    let (left, tot) = profile_counts(nn, seed);
    for score_fn in [ScoreFn::MacroF1, ScoreFn::BalancedAccuracy] {
        let (want, want_max) = run_profile("scalar", score_fn, &left, &tot);
        for backend in profile_backends() {
            let (got, got_max) = run_profile(backend, score_fn, &left, &tot);
            let label = format!("{backend}/{}(nn={nn}, seed={seed})", score_fn.name());
            assert_eq!(got, want, "{label}: profile bits");
            assert_eq!(got_max, want_max, "{label}: block maxima");
        }
    }
}

#[test]
fn profile_kernel_agrees_bit_for_bit() {
    for nn in [2usize, 3, 63, 64, 65, 127, 128, 10_001] {
        check_profile(nn, 900 + nn as u64);
    }
}

#[test]
fn profile_kernel_scores_only_the_requested_blocks() {
    // Every other block (block 0 included or not), in separate calls and
    // out of order: those blocks carry the full pass's bits, the rest is
    // untouched.
    for nn in [2usize, 63, 64, 65, 200, 1_000] {
        let (left, tot) = profile_counts(nn, 800 + nn as u64);
        let blocks = nn.div_ceil(BLOCK);
        for first in [0, 1] {
            let picked: Vec<usize> = (first..blocks).step_by(2).rev().collect();
            for score_fn in [ScoreFn::MacroF1, ScoreFn::BalancedAccuracy] {
                let (full, full_max) = run_profile("scalar", score_fn, &left, &tot);
                for backend in ["scalar"].into_iter().chain(profile_backends()) {
                    let (got, got_max) = run_profile_blocks(
                        backend,
                        score_fn,
                        &left,
                        &tot,
                        picked.iter().map(|&b| b..b + 1),
                    );
                    let label = format!("{backend}/{}(nn={nn}, first={first})", score_fn.name());
                    for b in 0..blocks {
                        let splits = b * BLOCK..((b + 1) * BLOCK).min(nn);
                        if picked.contains(&b) {
                            assert_eq!(got[splits.clone()], full[splits], "{label}: block {b}");
                            assert_eq!(got_max[b], full_max[b], "{label}: block {b} maximum");
                        } else {
                            let nan = f64::NAN.to_bits();
                            assert!(got[splits].iter().all(|&v| v == nan), "{label}: block {b}");
                            assert_eq!(got_max[b], nan, "{label}: block {b} maximum");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn profile_kernel_follows_its_definition() {
    // The scalar reference against `ScoreFn::score` on the confusion
    // matrix, and each block maximum against the block's largest score.
    let nn = 150;
    let (left, tot) = profile_counts(nn, 7);
    for score_fn in [ScoreFn::MacroF1, ScoreFn::BalancedAccuracy] {
        let (profile, block_max) = run_profile("scalar", score_fn, &left, &tot);
        let profile: Vec<f64> = profile.into_iter().map(f64::from_bits).collect();
        assert_eq!(profile[0].to_bits(), 0, "profile[0] is +0.0");
        for p in 3..nn {
            let (l, t) = (i64::from(left[p]), i64::from(tot[p]));
            let (p_, nn_) = (p as i64, nn as i64);
            let m = [[p_ - l, l], [nn_ - p_ - (t - l), t - l]];
            assert_eq!(
                profile[p].to_bits(),
                score_fn.score(&m).to_bits(),
                "p = {p}"
            );
        }
        // Splits 1 and 2 carry the inconsistent zero-denominator counts.
        if score_fn == ScoreFn::MacroF1 {
            assert_eq!(profile[1], 0.5 * (2.0 * (1 + nn) as f64 / (2 * nn) as f64));
            assert_eq!(profile[2], 0.0 + 0.5 * (2.0 * 2.0 / (2 * nn) as f64));
        }
        for (b, &mx) in block_max.iter().enumerate() {
            let block = &profile[b * BLOCK..((b + 1) * BLOCK).min(nn)];
            let want = block.iter().fold(0.0, |m: f64, &v| m.max(v));
            assert_eq!(f64::from_bits(mx), want, "{}: block {b}", score_fn.name());
        }
    }
    // A split that misclassifies no row scores 1, above every other split
    // with consistent counts; planted at each offset of each block, it is
    // that block's maximum.
    let (mut left, mut tot) = (left, tot);
    (left[1], tot[1], left[2], tot[2]) = (0, 0, 0, 0);
    for planted in 1..nn {
        let (mut left, mut tot) = (left.clone(), tot.clone());
        left[planted] = 0;
        tot[planted] = (nn - planted) as u32;
        for score_fn in [ScoreFn::MacroF1, ScoreFn::BalancedAccuracy] {
            let (_, block_max) = run_profile("scalar", score_fn, &left, &tot);
            let mx = f64::from_bits(block_max[planted / BLOCK]);
            assert_eq!(mx, 1.0, "{}: planted at {planted}", score_fn.name());
        }
    }
}

/// Random count columns for an `nn`-split range: `cnt` in `0..4`, and
/// `step` in `-3..=3` as wrapping `u32`, so negative steps occur and
/// `left` wraps below zero and back. `step[0]` is drawn too: the kernel
/// must ignore it.
fn count_columns(nn: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = SplitMix64::new(seed);
    let mut draw = |n: u32| (rng.next_f64() * f64::from(n)) as u32;
    let cnt = (0..nn).map(|_| draw(4)).collect();
    let step = (0..nn).map(|_| draw(7).wrapping_sub(3)).collect();
    (cnt, step)
}

/// `(left, tot, l_min)` of one backend's count pass; the outputs start
/// filled with a marker, so an unwritten entry shows.
fn run_counts(backend: &str, cnt: &[u32], step: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let nn = cnt.len();
    let mark = 0xDEAD_BEEF;
    let (mut left, mut tot) = (vec![mark; nn], vec![mark; nn]);
    let mut l_min = vec![mark; nn.div_ceil(BLOCK)];
    let (l, t, m) = (&mut left, &mut tot, &mut l_min);
    match backend {
        "scalar" => scalar::split_counts(cnt, step, l, t, m),
        "dispatch" => simd::split_counts(cnt, step, l, t, m),
        #[cfg(target_arch = "x86_64")]
        "avx2" => simd::avx2::split_counts(cnt, step, l, t, m),
        other => panic!("unknown backend {other}"),
    }
    (left, tot, l_min)
}

/// The count pass by its definition: running sums over `cnt` from index
/// 0 and over `step` from index 1, and each block's smallest `left` over
/// its splits (index 0 is none).
fn naive_counts(cnt: &[u32], step: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let nn = cnt.len();
    let (mut zeros, mut l) = (0u32, 0u32);
    let (mut left, mut tot) = (vec![0u32; nn], vec![0u32; nn]);
    for p in 0..nn {
        zeros = zeros.wrapping_add(cnt[p]);
        tot[p] = (nn as u32).wrapping_sub(zeros);
        if p > 0 {
            l = l.wrapping_add(step[p]);
        }
        left[p] = l;
    }
    let l_min = (0..nn.div_ceil(BLOCK))
        .map(|b| {
            let splits = (b * BLOCK).max(1)..((b + 1) * BLOCK).min(nn);
            splits.map(|p| left[p]).min().unwrap_or(u32::MAX)
        })
        .collect();
    (left, tot, l_min)
}

fn check_counts(cnt: &[u32], step: &[u32], label: &str) {
    let want = naive_counts(cnt, step);
    for backend in ["scalar"].into_iter().chain(profile_backends()) {
        let (left, tot, l_min) = run_counts(backend, cnt, step);
        let label = format!("{backend}/{label}(nn={})", cnt.len());
        assert_eq!(left, want.0, "{label}: left");
        assert_eq!(tot, want.1, "{label}: tot");
        assert_eq!(l_min, want.2, "{label}: l_min");
    }
}

#[test]
fn count_kernel_agrees_bit_for_bit_and_with_running_sums() {
    // Lengths around the 8-split chunk and the 64-split block, and a
    // full window; several seeds each.
    for nn in [
        2usize, 3, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 10_001,
    ] {
        for seed in 0..3 {
            let (cnt, step) = count_columns(nn, 700 + 31 * seed + nn as u64);
            check_counts(&cnt, &step, "random");
        }
    }
}

#[test]
fn count_kernel_leaves_index_zero_out_of_block_zero() {
    // With every step 1, `left` is `p`: block 0's minimum is split 1's 1,
    // not index 0's 0, and the other blocks start at their first split.
    // A lone index has no split: its block minimum is `u32::MAX`.
    for nn in [1usize, 2, 8, 9, 64, 65, 200] {
        let (cnt, step) = (vec![0u32; nn], vec![1u32; nn]);
        check_counts(&cnt, &step, "unit steps");
        let (_, _, l_min) = run_counts("dispatch", &cnt, &step);
        let firsts: Vec<u32> = (0..l_min.len())
            .map(|b| if b == 0 { 1 } else { (b * BLOCK) as u32 })
            .map(|p| if nn > 1 { p } else { u32::MAX })
            .collect();
        assert_eq!(l_min, firsts, "nn={nn}");
    }
    assert!(run_counts("dispatch", &[], &[]).0.is_empty());
}

#[test]
#[should_panic(expected = "step length mismatch")]
fn count_kernel_rejects_mismatched_lengths() {
    let (mut left, mut tot, mut l_min) = ([0u32; 9], [0u32; 9], [0u32; 1]);
    simd::split_counts(&[0; 9], &[0; 8], &mut left, &mut tot, &mut l_min);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proptest_count_kernel_agrees(nn in 0usize..300, seed in any::<u64>()) {
        let (cnt, step) = count_columns(nn, seed);
        check_counts(&cnt, &step, "proptest");
    }

    #[test]
    fn proptest_profile_kernel_agrees(nn in 0usize..300, seed in any::<u64>()) {
        check_profile(nn, seed);
    }

    #[test]
    fn proptest_reductions_agree(
        n in 0usize..130,
        seed in any::<u64>(),
        nan_sel in 0usize..260, // >= 130 encodes "no NaN injected"
    ) {
        let nan = (nan_sel < 130).then_some(nan_sel);
        let a = make_input(n, seed, nan, false);
        let b = make_input(n, seed ^ 0xABCD, None, false);
        check_reductions(&a, &b, "proptest");
    }

    #[test]
    fn proptest_qstep_kernels_agree(
        n in 0usize..130,
        seed in any::<u64>(),
        nan_sel in 0usize..260, // >= 130 encodes "no NaN injected"
        constant in any::<bool>(),
    ) {
        check_qstep_all(n, seed, (nan_sel < 130).then_some(nan_sel), constant);
    }
}
