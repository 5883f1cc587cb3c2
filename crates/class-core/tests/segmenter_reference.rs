//! Differential test of `ClassSegmenter` against a reference loop built
//! from the public API alone: `StreamingKnn::update`, `CrossVal::compute`,
//! the full `CrossVal::profile` with a first-maximum scan, `groups_at` and
//! `significance_ln_p`. The segmenter locates the best split with
//! `CrossVal::peak`, which scores only the blocks of splits that can reach
//! `min_score`; the reference scores every split. Their change points must
//! be identical, on both score functions, with and without jump-ahead, and
//! with a threshold that prunes as well as one that prunes nothing.

use class_core::stats::significance_ln_p;
use class_core::{
    ClassConfig, ClassSegmenter, CrossVal, KnnConfig, ScoreFn, SplitMix64, StreamingKnn,
    StreamingSegmenter, WidthSelection,
};

/// The segmenter's evaluation loop for a fixed width, spelled out: the
/// index absorbs every observation, every `jump`-th completed subsequence
/// scores the whole evolving segment, and the stream's end scores a
/// trailing partial jump once more.
fn reference(xs: &[f64], cfg: &ClassConfig, w: usize) -> Vec<u64> {
    let w = w.clamp(2, cfg.window_size / 2);
    let mut knn = StreamingKnn::new(KnnConfig {
        window_size: cfg.window_size,
        width: w,
        k: cfg.k,
        similarity: cfg.similarity,
        exclusion: None,
        update_existing: true,
    });
    let mut cv = CrossVal::new(cfg.score);
    let mut rng = SplitMix64::new(cfg.seed);
    let ln_alpha = cfg.log10_alpha * std::f64::consts::LN_10;
    let margin = ((cfg.cp_margin_factor * w as f64).round() as usize).max(2);
    let (mut cpl_sid, mut since_eval) = (0i64, 0usize);
    let mut cps = Vec::new();
    let mut evaluate = |knn: &StreamingKnn, cpl_sid: &mut i64| {
        let Some(oldest) = knn.oldest_sid() else {
            return;
        };
        let start_sid = (*cpl_sid).max(oldest);
        let nn = cv.compute(knn, knn.slot_of_sid(start_sid));
        if nn < 2 * margin + 2 {
            return;
        }
        let (mut best_p, mut best) = (margin, f64::MIN);
        for (p, &v) in cv
            .profile()
            .iter()
            .enumerate()
            .take(nn - margin)
            .skip(margin)
        {
            if v > best {
                (best_p, best) = (p, v);
            }
        }
        if best < cfg.min_score {
            return;
        }
        let ln_p = significance_ln_p(cv.groups_at(best_p), cfg.sample_size, &mut rng);
        if ln_p <= ln_alpha {
            *cpl_sid = start_sid + best_p as i64;
            cps.push(*cpl_sid as u64);
        }
    };
    for &x in xs {
        if !knn.update(x) {
            continue;
        }
        since_eval += 1;
        if since_eval == cfg.jump {
            since_eval = 0;
            evaluate(&knn, &mut cpl_sid);
        }
    }
    if cfg.jump > 1 && since_eval > 0 {
        evaluate(&knn, &mut cpl_sid);
    }
    cps.sort_unstable();
    cps.dedup();
    cps
}

/// Three regimes of 1200 points: two sines of different frequency, then
/// a sawtooth, with seeded noise.
fn regimes(seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..3600)
        .map(|i| {
            let t = i as f64;
            let v = match i / 1200 {
                0 => (t * 0.2).sin(),
                1 => (t * 0.45).sin(),
                _ => (i % 37) as f64 / 18.5 - 1.0,
            };
            v + 0.1 * (rng.next_f64() - 0.5)
        })
        .collect()
}

#[test]
fn segmenter_matches_the_full_profile_reference() {
    let w = 20;
    let mut found = 0;
    for (seed, score) in [(1, ScoreFn::MacroF1), (2, ScoreFn::BalancedAccuracy)] {
        let xs = regimes(seed);
        for jump in [1, 5] {
            for min_score in [0.75, 0.0] {
                let mut cfg = ClassConfig::with_window_size(800);
                cfg.width = WidthSelection::Fixed(w);
                cfg.score = score;
                cfg.jump = jump;
                cfg.min_score = min_score;
                cfg.log10_alpha = -10.0;
                cfg.seed = seed;
                let want = reference(&xs, &cfg, w);
                let got = ClassSegmenter::new(cfg).segment_series(&xs);
                assert_eq!(
                    got, want,
                    "{score:?}, jump {jump}, min_score {min_score}, seed {seed}"
                );
                found += got.len();
            }
        }
    }
    assert!(found >= 8, "too few change points to compare: {found}");
}
