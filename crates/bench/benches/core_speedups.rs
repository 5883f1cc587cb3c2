//! Criterion micro-benchmarks validating the paper's two technical
//! contributions (§4.4 runtime decomposition):
//!
//! * the exact streaming k-NN (O(d) per update) vs. recomputing dot
//!   products (O(d·w)) vs. naive distances (the paper's 36 h / 212 h /
//!   2513 h decomposition), and
//! * the incremental O(d) cross-validation vs. the original O(d^2)
//!   per-update evaluation.

use bench::naive::{naive_full_profile, naive_knn_newest, recomputed_dot_knn_newest};
use class_core::crossval::{CrossVal, ScoreFn};
use class_core::knn::{KnnConfig, StreamingKnn};
use class_core::stats::SplitMix64;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::f64::consts::PI;
use std::hint::black_box;

fn filled_knn(d: usize, w: usize) -> (StreamingKnn, SplitMix64) {
    let mut rng = SplitMix64::new(42);
    let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
    for _ in 0..2 * d {
        knn.update(rng.next_f64() * 2.0 - 1.0);
    }
    (knn, rng)
}

/// A full window over two regimes (a sine, then a sawtooth) with seeded
/// noise, the boundary in its middle. Unlike uniform noise, such a stream
/// gives flip sids that run in consecutive stretches, and many of them
/// precede the range start.
fn structured_knn(d: usize, w: usize) -> StreamingKnn {
    let mut rng = SplitMix64::new(43);
    let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
    for i in 0..2 * d {
        let x = if i < 3 * d / 2 {
            (i as f64 * 0.15).sin()
        } else {
            (i % 37) as f64 / 18.5 - 1.0
        };
        knn.update(x + 0.1 * (rng.next_f64() - 0.5));
    }
    knn
}

fn bench_knn_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_update");
    group.sample_size(20);
    for &d in &[1000usize, 2000, 4000] {
        let w = 50;
        group.bench_with_input(BenchmarkId::new("streaming", d), &d, |b, _| {
            let (mut knn, mut rng) = filled_knn(d, w);
            b.iter(|| {
                knn.update(black_box(rng.next_f64() * 2.0 - 1.0));
            });
        });
        group.bench_with_input(BenchmarkId::new("recomputed_dots", d), &d, |b, _| {
            let (mut knn, mut rng) = filled_knn(d, w);
            b.iter(|| {
                knn.update(rng.next_f64() * 2.0 - 1.0);
                black_box(recomputed_dot_knn_newest(&knn, 3));
            });
        });
        group.bench_with_input(BenchmarkId::new("naive_distances", d), &d, |b, _| {
            let (mut knn, mut rng) = filled_knn(d, w);
            b.iter(|| {
                knn.update(rng.next_f64() * 2.0 - 1.0);
                black_box(naive_knn_newest(&knn, 3));
            });
        });
    }
    // The `fleet-inproc` shape (d = 500, w = 25) on a noisy sine of
    // period 25: many blocks hold near-best scores, so neighbour
    // selection is a larger share of an update than on uniform noise.
    let (d, w) = (500, 25);
    group.bench_with_input(BenchmarkId::new("periodic", d), &d, |b, _| {
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        let mut rng = SplitMix64::new(43);
        let mut i = 0u64;
        let mut next = move || {
            i += 1;
            (i as f64 * 0.08 * PI).sin() + 0.1 * (rng.next_f64() - 0.5)
        };
        for _ in 0..2 * d {
            knn.update(next());
        }
        b.iter(|| {
            knn.update(black_box(next()));
        });
    });
    group.finish();
}

fn bench_crossval(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossval");
    group.sample_size(20);
    for &d in &[1000usize, 2000, 4000] {
        let w = 50;
        let (knn, _) = filled_knn(d, w);
        // What a ClaSS evaluation runs: the counts, then only the blocks
        // that can reach the score threshold.
        group.bench_with_input(BenchmarkId::new("incremental_peak", d), &d, |b, _| {
            let mut cv = CrossVal::new(ScoreFn::MacroF1);
            b.iter(|| {
                cv.compute(&knn, knn.qstart());
                black_box(cv.peak(5 * w, 0.75));
            });
        });
        // The whole profile, every split scored.
        group.bench_with_input(BenchmarkId::new("incremental_profile", d), &d, |b, _| {
            let mut cv = CrossVal::new(ScoreFn::MacroF1);
            b.iter(|| {
                cv.compute(&knn, knn.qstart());
                black_box(cv.profile()[1]);
            });
        });
        // The naive O(d^2) variant is far too slow at large d for equal
        // sample counts; criterion handles this, it is just slow — keep the
        // smallest size only.
        if d == 1000 {
            group.bench_with_input(BenchmarkId::new("naive_quadratic", d), &d, |b, _| {
                b.iter(|| {
                    black_box(naive_full_profile(&knn, knn.qstart(), ScoreFn::MacroF1));
                });
            });
        }
    }
    // One full-window ClaSS evaluation at the paper's d = 10k on a
    // structured stream.
    let (d, w) = (10_000, 42);
    let knn = structured_knn(d, w);
    group.bench_with_input(BenchmarkId::new("structured_peak", d), &d, |b, _| {
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        b.iter(|| {
            cv.compute(&knn, knn.qstart());
            black_box(cv.peak(5 * w, 0.75));
        });
    });
    group.finish();
}

fn bench_class_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("class_step");
    group.sample_size(20);
    for &d in &[1000usize, 2000] {
        group.bench_with_input(BenchmarkId::new("end_to_end", d), &d, |b, _| {
            let mut cfg = ClassConfig::with_window_size(d);
            cfg.width = WidthSelection::Fixed(50);
            let mut class = ClassSegmenter::new(cfg);
            let mut rng = SplitMix64::new(7);
            let mut cps = Vec::new();
            for i in 0..2 * d {
                class.step((i as f64 * 0.2).sin() + 0.05 * rng.next_f64(), &mut cps);
            }
            b.iter(|| {
                class.step(black_box(rng.next_f64()), &mut cps);
                cps.clear();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_knn_update, bench_crossval, bench_class_step);
criterion_main!(benches);
