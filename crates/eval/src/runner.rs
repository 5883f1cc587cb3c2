//! Experiment runner: drives every algorithm over every series, measuring
//! Covering and runtime, in parallel across series (the experiments are
//! embarrassingly parallel; each algorithm instance itself is single-core,
//! matching the paper's single-core measurement protocol).

use crate::covering::covering;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter};
use competitors::{build, CompetitorKind, SeriesContext};
use datasets::AnnotatedSeries;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Which algorithm to run, with the experiment-level knobs.
#[derive(Debug, Clone)]
pub enum AlgoSpec {
    /// ClaSS with a configuration template; `warmup` is set per series to
    /// `min(window_size, series length)` as in Algorithm 1.
    Class(ClassConfig),
    /// One of the eight baselines with the paper-tuned configuration and
    /// the sliding window size granted to the windowed methods (FLOSS).
    Baseline {
        /// Which baseline.
        kind: CompetitorKind,
        /// Sliding window size for windowed baselines.
        window_size: usize,
    },
}

impl AlgoSpec {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoSpec::Class(_) => "ClaSS",
            AlgoSpec::Baseline { kind, .. } => kind.name(),
        }
    }

    /// The paper's default line-up: ClaSS + all eight baselines, with a
    /// given sliding window size for the windowed methods.
    pub fn default_lineup(window_size: usize) -> Vec<AlgoSpec> {
        let mut algos = vec![AlgoSpec::Class(ClassConfig::with_window_size(window_size))];
        algos.extend(
            CompetitorKind::baselines().map(|kind| AlgoSpec::Baseline { kind, window_size }),
        );
        algos
    }

    /// Builds a fresh segmenter for one series.
    pub fn instantiate(&self, series: &AnnotatedSeries) -> Box<dyn StreamingSegmenter> {
        match self {
            AlgoSpec::Class(cfg) => {
                let mut cfg = cfg.clone();
                cfg.warmup = Some(cfg.window_size.min(series.len()));
                Box::new(ClassSegmenter::new(cfg))
            }
            AlgoSpec::Baseline { kind, window_size } => {
                let ctx = SeriesContext {
                    width: series.width,
                    window_size: *window_size,
                };
                build(*kind, ctx)
            }
        }
    }
}

/// Result of one (algorithm, series) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm name.
    pub algo: &'static str,
    /// Series name (e.g. `tssb/004`).
    pub series: String,
    /// Archive name (Table 1 row).
    pub archive: &'static str,
    /// Covering score against the ground truth.
    pub covering: f64,
    /// Wall time of the full stream pass: every `step` plus `finalize`,
    /// on one core.
    pub runtime: Duration,
    /// Number of processed observations.
    pub n_points: usize,
    /// Predicted change points.
    pub cps: Vec<u64>,
}

impl RunResult {
    /// Throughput in points per second.
    pub fn throughput(&self) -> f64 {
        self.n_points as f64 / self.runtime.as_secs_f64().max(1e-9)
    }
}

/// Runs one algorithm over one series.
pub fn run_one(spec: &AlgoSpec, series: &AnnotatedSeries) -> RunResult {
    let mut seg = spec.instantiate(series);
    let mut cps = Vec::new();
    let start = Instant::now();
    for &x in &series.values {
        seg.step(x, &mut cps);
    }
    seg.finalize(&mut cps);
    let runtime = start.elapsed();
    cps.sort_unstable();
    cps.dedup();
    let cov = covering(&series.change_points, &cps, series.len() as u64);
    RunResult {
        algo: spec.name(),
        series: series.name.clone(),
        archive: series.archive,
        covering: cov,
        runtime,
        n_points: series.len(),
        cps,
    }
}

/// Runs every algorithm over every series on a pool of `threads` scoped
/// workers; each (algorithm, series) pair is one independent [`run_one`]
/// pass, so at most `threads` segmenters are live at once. Results are
/// in deterministic (algo-major, series-minor) order.
///
/// Jobs are handed out heaviest series first (a stable sort, so ties
/// keep the algo-major, series-minor order) from one shared counter, so
/// no worker straggles with a long series at the end; each result goes
/// into its own slot, so the result path takes no lock. `runtime` is
/// the wall time of one job's step-and-finalize pass on its worker,
/// matching the paper's single-core measurement protocol.
pub fn run_matrix(
    algos: &[AlgoSpec],
    series: &[AnnotatedSeries],
    threads: usize,
) -> Vec<RunResult> {
    let mut jobs: Vec<(usize, usize)> = (0..algos.len())
        .flat_map(|a| (0..series.len()).map(move |s| (a, s)))
        .collect();
    jobs.sort_by_key(|&(_, s)| std::cmp::Reverse(series[s].len()));
    let slots: Vec<OnceLock<RunResult>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(jobs.len()) {
            scope.spawn(|| {
                while let Some(&(a, s)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    slots[a * series.len() + s]
                        .set(run_one(&algos[a], &series[s]))
                        .expect("each job runs once");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran"))
        .collect()
}

/// Extracts the per-series Covering score matrix `scores[algo][series]`
/// from run results laid out by [`run_matrix`].
pub fn covering_matrix(results: &[RunResult], n_algos: usize, n_series: usize) -> Vec<Vec<f64>> {
    assert_eq!(results.len(), n_algos * n_series);
    (0..n_algos)
        .map(|a| {
            (0..n_series)
                .map(|s| results[a * n_series + s].covering)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{build_series, NoiseSpec, Regime};

    fn small_series() -> AnnotatedSeries {
        build_series(
            "test/0".into(),
            "test",
            &[
                (
                    Regime::Sine {
                        period: 25.0,
                        amp: 1.0,
                        phase: 0.0,
                    },
                    1500,
                ),
                (
                    Regime::Square {
                        period: 40.0,
                        amp: 1.0,
                    },
                    1500,
                ),
            ],
            NoiseSpec::benchmark(),
            3,
        )
    }

    #[test]
    fn run_one_produces_sane_result() {
        let series = small_series();
        let mut cfg = ClassConfig::with_window_size(1000);
        cfg.log10_alpha = -15.0;
        let r = run_one(&AlgoSpec::Class(cfg), &series);
        assert_eq!(r.algo, "ClaSS");
        assert_eq!(r.n_points, 3000);
        assert!((0.0..=1.0).contains(&r.covering));
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn class_beats_trivial_segmentation_on_clear_change() {
        let series = small_series();
        let mut cfg = ClassConfig::with_window_size(1000);
        cfg.log10_alpha = -15.0;
        let r = run_one(&AlgoSpec::Class(cfg), &series);
        // Trivial (no CP) covering would be 0.5.
        assert!(r.covering > 0.6, "covering = {}", r.covering);
    }

    #[test]
    fn run_matrix_is_deterministic_and_ordered() {
        let series = vec![small_series()];
        let algos = vec![
            AlgoSpec::Baseline {
                kind: CompetitorKind::Ddm,
                window_size: 1000,
            },
            AlgoSpec::Baseline {
                kind: CompetitorKind::Adwin,
                window_size: 1000,
            },
        ];
        let a = run_matrix(&algos, &series, 4);
        let b = run_matrix(&algos, &series, 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].algo, "DDM");
        assert_eq!(a[1].algo, "ADWIN");
        assert_eq!(a[0].cps, b[0].cps);
        assert_eq!(a[1].cps, b[1].cps);
    }

    #[test]
    fn run_matrix_mixed_lengths_and_excess_threads() {
        // Different series lengths exercise the longest-first schedule;
        // more threads than jobs must still fill every result slot, in
        // deterministic (algo-major, series-minor) order.
        let long = small_series();
        let short = build_series(
            "test/1".into(),
            "test",
            &[(
                Regime::Sine {
                    period: 30.0,
                    amp: 1.0,
                    phase: 0.0,
                },
                500,
            )],
            NoiseSpec::benchmark(),
            4,
        );
        let series = vec![long, short];
        let algos = vec![
            AlgoSpec::Baseline {
                kind: CompetitorKind::Ddm,
                window_size: 1000,
            },
            AlgoSpec::Baseline {
                kind: CompetitorKind::Adwin,
                window_size: 1000,
            },
        ];
        let got = run_matrix(&algos, &series, 64);
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|r| r.series.clone()).collect::<Vec<_>>(),
            vec!["test/0", "test/1", "test/0", "test/1"]
        );
        assert_eq!(got[0].algo, "DDM");
        assert_eq!(got[2].algo, "ADWIN");
        let serial = run_matrix(&algos, &series, 1);
        for (a, b) in got.iter().zip(&serial) {
            assert_eq!(a.cps, b.cps);
        }
    }

    #[test]
    fn covering_matrix_layout() {
        let series = vec![small_series(), small_series()];
        let algos = vec![AlgoSpec::Baseline {
            kind: CompetitorKind::Ddm,
            window_size: 1000,
        }];
        let results = run_matrix(&algos, &series, 2);
        let m = covering_matrix(&results, 1, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 2);
    }
}
