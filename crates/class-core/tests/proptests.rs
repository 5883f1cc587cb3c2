//! Property-based tests of the core data structures and the central
//! exactness invariants: the streaming computations must equal their naive
//! batch counterparts on arbitrary inputs.
//!
//! Debug builds don't vectorize the kernels, so the full case counts cost
//! ~90 s under `cargo test -q`; [`cases`] scales them down 4x under
//! `cfg(debug_assertions)` while release/CI coverage stays at the full
//! counts.

use class_core::buffer::{ShiftBuffer, ShiftMatrix};
use class_core::crossval::{naive_split_score, CrossVal, ScoreFn};
use class_core::fft::{fft_inplace, ifft};
use class_core::knn::{KnnConfig, StreamingKnn};
use class_core::similarity::{naive, Similarity};
use class_core::stats::{ln_p_ranksum_binary, BinaryGroups};
use class_core::wss::{select_width, WidthBounds, WssMethod};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Scales a release-profile case count down for unoptimized builds.
const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release.div_ceil(4)
    } else {
        release
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn shift_buffer_behaves_like_vecdeque(
        cap in 1usize..40,
        ops in prop::collection::vec(-1000i64..1000, 0..400),
    ) {
        // `cap` below 8 rounds the quarter of slack down to one slot, so
        // those buffers compact on every push once full.
        let mut buf = ShiftBuffer::new(cap);
        let mut model: VecDeque<i64> = VecDeque::new();
        for v in ops {
            prop_assert_eq!(buf.push(v), model.len() == cap);
            model.push_back(v);
            if model.len() > cap {
                model.pop_front();
            }
            prop_assert_eq!(buf.len(), model.len());
            prop_assert_eq!(buf.is_full(), model.len() == cap);
            // A write through the mutable view must survive compactions.
            if v % 3 == 0 {
                let i = v.unsigned_abs() as usize % model.len();
                buf.as_mut_slice()[i] += 1;
                model[i] += 1;
            }
            let want: Vec<i64> = model.iter().copied().collect();
            prop_assert_eq!(buf.as_slice(), &want[..]);
            prop_assert_eq!(&*buf.as_mut_slice(), &want[..]);
            for (i, &w) in want.iter().enumerate() {
                prop_assert_eq!(buf.get(i), w);
            }
        }
    }

    #[test]
    fn shift_matrix_behaves_like_vecdeque_of_rows(
        cap in 1usize..40,
        cols in 1usize..5,
        rows in prop::collection::vec(prop::collection::vec(-100i64..100, 1..5), 0..200),
    ) {
        let mut m = ShiftMatrix::new(cap, cols);
        let mut model: VecDeque<Vec<i64>> = VecDeque::new();
        for mut row in rows {
            row.resize(cols, 0);
            prop_assert_eq!(m.push_row(&row), model.len() == cap);
            model.push_back(row);
            if model.len() > cap {
                model.pop_front();
            }
            prop_assert_eq!(m.rows(), model.len());
            for (r, want) in model.iter().enumerate() {
                prop_assert_eq!(m.row(r), &want[..]);
            }
            let flat: Vec<i64> = model.iter().flatten().copied().collect();
            prop_assert_eq!(m.as_slice(), &flat[..]);
        }
    }

    #[test]
    fn fft_roundtrip_recovers_signal(
        log_n in 2u32..9,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let mut rng = class_core::SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0 - 5.0).collect();
        let mut buf = vec![0.0; 2 * n];
        for (i, &v) in x.iter().enumerate() {
            buf[2 * i] = v;
        }
        fft_inplace(&mut buf, false);
        ifft(&mut buf);
        for (i, &v) in x.iter().enumerate() {
            prop_assert!((buf[2 * i] - v).abs() < 1e-8);
            prop_assert!(buf[2 * i + 1].abs() < 1e-8);
        }
    }

    #[test]
    fn ranksum_ln_p_is_nonpositive_and_symmetric(
        n1 in 1u64..2000,
        n2 in 1u64..2000,
        f1 in 0.0f64..=1.0,
        f2 in 0.0f64..=1.0,
    ) {
        let g = BinaryGroups {
            n_left: n1,
            ones_left: (n1 as f64 * f1) as u64,
            n_right: n2,
            ones_right: (n2 as f64 * f2) as u64,
        };
        let flipped = BinaryGroups {
            n_left: g.n_right,
            ones_left: g.ones_right,
            n_right: g.n_left,
            ones_right: g.ones_left,
        };
        let lp = ln_p_ranksum_binary(g);
        prop_assert!(lp <= 0.0, "ln p = {lp}");
        prop_assert!(lp.is_finite());
        prop_assert!((lp - ln_p_ranksum_binary(flipped)).abs() < 1e-9);
    }

    #[test]
    fn wss_result_is_always_within_bounds(
        seed in any::<u64>(),
        n in 64usize..1200,
        min_w in 4usize..12,
    ) {
        let mut rng = class_core::SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        let bounds = WidthBounds { min: min_w, max: (n / 3).max(min_w + 1) };
        for m in WssMethod::all() {
            let w = select_width(m, &x, bounds);
            prop_assert!(w >= bounds.min && w <= bounds.max, "{:?}: {w}", m);
        }
    }
}

proptest! {
    // The exactness invariants run fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    #[test]
    fn streaming_scores_equal_naive_pearson(
        seed in any::<u64>(),
        d in 60usize..160,
        w in 4usize..12,
        extra in 0usize..120,
    ) {
        let n = d + extra;
        let mut rng = class_core::SplitMix64::new(seed);
        let series: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        for (t, &x) in series.iter().enumerate() {
            if !knn.update(x) {
                continue;
            }
            // Check a handful of slots per step to bound the test cost.
            let newest = knn.newest_sid().unwrap() as usize;
            let sb = &series[newest..newest + w];
            let qs = knn.qstart();
            let m = knn.max_subsequences();
            for slot in [qs, qs + (m - qs) / 2, m - 1] {
                let sid = knn.sid_of_slot(slot) as usize;
                let want = naive::pearson(&series[sid..sid + w], sb);
                let got = knn.latest_scores()[slot];
                prop_assert!((got - want).abs() < 1e-7, "t={t} slot={slot}");
            }
        }
    }

    #[test]
    fn incremental_crossval_equals_naive(
        seed in any::<u64>(),
        d in 60usize..140,
        w in 4usize..10,
        extra in 0usize..100,
        offset_frac in 0.0f64..0.5,
    ) {
        let n = d + extra;
        let mut rng = class_core::SplitMix64::new(seed);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        for _ in 0..n {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        let qs = knn.qstart();
        let m = knn.max_subsequences();
        if m - qs < 4 {
            return Ok(());
        }
        let start = qs + ((m - qs) as f64 * offset_frac) as usize;
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let nn = cv.compute(&knn, start);
        for p in 1..nn {
            let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
            prop_assert!((cv.profile()[p] - want).abs() < 1e-12, "p = {p}");
        }
    }

    #[test]
    fn crossval_matches_naive_under_arbitrary_interleavings(
        seed in any::<u64>(),
        d in 50usize..120,
        w in 4usize..9,
        k in 1usize..5,
        use_ba in any::<bool>(),
        script in prop::collection::vec((1usize..40, 0u8..8, 0usize..30, 0usize..30), 1..12),
    ) {
        // A long-lived engine driven through arbitrary interleavings of
        // stream updates (including NaN stretches that shorten and then
        // heal neighbour lists), jump-style evaluation gaps, and floor
        // rises (as at change points, up to the next subsequence) must
        // score every split exactly as the naive leave-one-out evaluation
        // does, from the floor and from later range starts alike.
        let sf = if use_ba { ScoreFn::BalancedAccuracy } else { ScoreFn::MacroF1 };
        let mut rng = class_core::SplitMix64::new(seed);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, k));
        let mut cv = CrossVal::new(sf);
        for (steps, tag, rise, past) in script {
            for i in 0..steps {
                let x = if tag == 0 && i % 3 == 0 {
                    f64::NAN
                } else {
                    rng.next_f64() * 2.0 - 1.0
                };
                knn.update(x);
            }
            let Some(oldest) = knn.oldest_sid() else {
                continue;
            };
            if tag >= 5 {
                let next = knn.newest_sid().unwrap() + 1;
                knn.advance_floor((knn.floor_sid() + rise as i64).min(next));
            }
            let m = knn.max_subsequences();
            let first = knn.qstart() + (knn.floor_sid() - oldest) as usize;
            for start in [first, (first + past).min(m)] {
                let nn = cv.compute(&knn, start);
                let in_range = m - start;
                prop_assert_eq!(nn, if in_range < 2 { 0 } else { in_range });
                let start_sid = oldest + (start - knn.qstart()) as i64;
                for p in 1..nn {
                    let want = naive_split_score(&knn, start, p, sf);
                    prop_assert_eq!(cv.profile()[p].to_bits(), want.to_bits());
                    // Group counts, recounted: row j votes 1 when fewer than
                    // half of its neighbours precede the split.
                    let split_sid = start_sid + p as i64;
                    let votes_one = |j: usize| {
                        let (sids, _) = knn.neighbors(start + j);
                        sids.iter().filter(|&&s| s < split_sid).count() * 2 < sids.len()
                    };
                    let ones_left = (0..p).filter(|&j| votes_one(j)).count() as u64;
                    let ones_right = (p..nn).filter(|&j| votes_one(j)).count() as u64;
                    prop_assert_eq!(
                        cv.groups_at(p),
                        BinaryGroups {
                            n_left: p as u64,
                            ones_left,
                            n_right: (nn - p) as u64,
                            ones_right,
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn knn_neighbors_respect_exclusion_and_sorting(
        seed in any::<u64>(),
        d in 60usize..160,
        w in 4usize..12,
        k in 1usize..5,
    ) {
        let mut rng = class_core::SplitMix64::new(seed);
        let cfg = KnnConfig::new(d, w, k);
        let excl = cfg.exclusion_radius() as i64;
        let mut knn = StreamingKnn::new(cfg);
        for _ in 0..2 * d {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            let sid = knn.sid_of_slot(slot);
            let (sids, scores) = knn.neighbors(slot);
            for pair in scores.windows(2) {
                prop_assert!(pair[0] >= pair[1]);
            }
            for &nsid in sids {
                prop_assert!((nsid - sid).abs() >= excl);
            }
        }
    }
}

proptest! {
    // Light enough to run as many cases as the data-structure checks.
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn knn_selection_equals_brute_force_top_k_on_tie_heavy_inputs(
        seed in any::<u64>(),
        d in 40usize..300,
        w in 3usize..10,
        k in 1usize..6,
        levels in 3u64..=5,
        measure in 0usize..3,
    ) {
        // Integer levels keep the dot products exact, so equal
        // subsequences tie bit for bit; flat runs tie at the sigma floor,
        // and NaN stretches poison scores until they leave the window.
        let similarity = [Similarity::Pearson, Similarity::Euclidean, Similarity::Cid][measure];
        let mut cfg = KnnConfig::new(d, w, k);
        cfg.similarity = similarity;
        let excl = cfg.exclusion_radius();
        let mut knn = StreamingKnn::new(cfg);
        let mut rng = class_core::SplitMix64::new(seed);
        let (mut left, mut kind, mut flat) = (0usize, 0u64, 0.0);
        for t in 0..3 * d {
            if left == 0 {
                left = 1 + rng.next_below(2 * w as u64) as usize;
                // 1 in 32 stretches is NaN, 3 in 10 are flat.
                kind = match rng.next_below(320) {
                    0..=9 => 0,
                    10..=105 => 1,
                    _ => 2,
                };
                flat = rng.next_below(levels) as f64;
            }
            left -= 1;
            let x = match kind {
                0 => f64::NAN,
                1 => flat,
                _ => rng.next_below(levels) as f64,
            };
            if !knn.update(x) {
                continue;
            }
            // Brute force: every eligible slot with a score the list can
            // hold (not NaN, above −∞), by score descending, then sid
            // ascending, the first k.
            let (qs, m) = (knn.qstart(), knn.max_subsequences());
            let nfilt = (m - qs).saturating_sub(excl);
            let scores = knn.latest_scores();
            let mut want: Vec<(f64, i64)> = (qs..qs + nfilt)
                .filter(|&s| scores[s] > f64::NEG_INFINITY)
                .map(|s| (scores[s], knn.sid_of_slot(s)))
                .collect();
            want.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            want.truncate(k);
            let (sids, got) = knn.neighbors(m - 1);
            let got: Vec<(u64, i64)> = got
                .iter()
                .map(|s| s.to_bits())
                .zip(sids.iter().copied())
                .collect();
            let want: Vec<(u64, i64)> =
                want.iter().map(|&(s, sid)| (s.to_bits(), sid)).collect();
            prop_assert!(got == want, "t={t} {similarity:?}: {got:?} vs {want:?}");
        }
    }
}

/// Long-stream numerical stability: the STOMP-style dot-product recursion
/// accumulates floating-point error over hundreds of thousands of updates;
/// the correlations must stay within 1e-6 of an exact recomputation even
/// for signals with large magnitudes.
#[test]
fn q_recursion_is_stable_over_long_streams() {
    let d = 512;
    let w = 24;
    // The full 60k-update stream runs in release; the scaled debug stream
    // still spans dozens of complete window turnovers (d = 512).
    let n = if cfg!(debug_assertions) {
        15_000
    } else {
        60_000
    };
    let mut rng = class_core::SplitMix64::new(99);
    let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
    let mut series = Vec::with_capacity(n);
    for _ in 0..n {
        // Large-amplitude signal with drift to stress cancellation.
        let x = 500.0 + 100.0 * (series.len() as f64 * 0.01).sin() + 50.0 * (rng.next_f64() - 0.5);
        series.push(x);
        knn.update(x);
    }
    let newest = knn.newest_sid().unwrap() as usize;
    let sb = &series[newest..newest + w];
    let mut worst: f64 = 0.0;
    for slot in knn.qstart()..knn.max_subsequences() {
        let sid = knn.sid_of_slot(slot) as usize;
        let want = naive::pearson(&series[sid..sid + w], sb);
        let got = knn.latest_scores()[slot];
        worst = worst.max((got - want).abs());
    }
    assert!(
        worst < 1e-6,
        "worst correlation drift after {n} updates: {worst:e}"
    );
}
