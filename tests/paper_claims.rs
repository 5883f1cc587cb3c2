//! Miniature versions of the paper's headline claims, asserted as tests.
//! These run on small subsets with a reduced sliding window so the whole
//! file stays under a minute in release mode; the full-scale numbers live
//! in EXPERIMENTS.md.

use bench::small_subset;
use class_core::ClassConfig;
use competitors::CompetitorKind;
use datasets::{resolve_benchmark_series, AnnotatedSeries, GenConfig};
use eval::{covering_matrix, mean_ranks, rank_matrix, run_matrix, AlgoSpec};

/// The synthetic benchmark group (TSSB + UTSA).
fn benchmark_series(cfg: &GenConfig) -> Vec<AnnotatedSeries> {
    resolve_benchmark_series(cfg, None).expect("synthetic archives")
}

fn lineup(window: usize) -> Vec<AlgoSpec> {
    let mut algos = vec![AlgoSpec::Class(ClassConfig::with_window_size(window))];
    for kind in [
        CompetitorKind::Floss,
        CompetitorKind::ChangeFinder,
        CompetitorKind::Newma,
        CompetitorKind::Adwin,
        CompetitorKind::Ddm,
        CompetitorKind::Hddm,
        CompetitorKind::Window,
    ] {
        algos.push(AlgoSpec::Baseline {
            kind,
            window_size: window,
        });
    }
    algos
}

#[test]
fn class_has_the_best_mean_rank_on_a_benchmark_sample() {
    let cfg = GenConfig::default();
    let series = small_subset(&benchmark_series(&cfg), 10);
    assert!(series.len() >= 8, "subset too small: {}", series.len());
    let algos = lineup(1500);
    let results = run_matrix(&algos, &series, 8);
    let scores = covering_matrix(&results, algos.len(), series.len());
    let ranks = mean_ranks(&rank_matrix(&scores));
    let class_rank = ranks[0];
    let best = ranks.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (class_rank - best).abs() < 1e-9 || class_rank <= best + 0.5,
        "ClaSS rank {class_rank}, best {best}, all {ranks:?}"
    );
}

#[test]
fn class_beats_the_drift_detectors_substantially() {
    // The paper's central quantitative claim: the self-supervised model
    // yields a large Covering margin over the statistical drift detectors.
    let cfg = GenConfig::default();
    let series = small_subset(&benchmark_series(&cfg), 10);
    let algos = lineup(1500);
    let results = run_matrix(&algos, &series, 8);
    let scores = covering_matrix(&results, algos.len(), series.len());
    let mean = |i: usize| scores[i].iter().sum::<f64>() / scores[i].len() as f64;
    let class_mean = mean(0);
    for (i, algo) in algos.iter().enumerate().skip(1) {
        if matches!(algo.name(), "DDM" | "HDDM" | "ADWIN") {
            assert!(
                class_mean > mean(i) + 0.1,
                "ClaSS {class_mean:.3} vs {} {:.3}",
                algo.name(),
                mean(i)
            );
        }
    }
}

#[test]
fn throughput_ordering_matches_table2_complexities() {
    // O(1)/O(log c) detectors must be orders of magnitude faster than the
    // windowed methods, which in turn bound ClaSS from above (Figure 6).
    let cfg = GenConfig::default();
    let series = small_subset(&benchmark_series(&cfg), 6);
    let algos = lineup(1500);
    let results = run_matrix(&algos, &series, 8);
    let tp = |name: &str| -> f64 {
        let v: Vec<f64> = results
            .iter()
            .filter(|r| r.algo == name)
            .map(|r| r.throughput())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(
        tp("DDM") > 10.0 * tp("ClaSS"),
        "DDM {} vs ClaSS {}",
        tp("DDM"),
        tp("ClaSS")
    );
    assert!(tp("HDDM") > 10.0 * tp("ClaSS"));
    assert!(tp("ADWIN") > tp("ClaSS"));
}
