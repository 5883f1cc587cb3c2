//! Experiment runner: drives every algorithm over every series, measuring
//! Covering and runtime, in parallel across series (the experiments are
//! embarrassingly parallel; each algorithm instance itself is single-core,
//! matching the paper's single-core measurement protocol).

use crate::covering::covering;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter};
use competitors::{build, CompetitorKind, SeriesContext};
use datasets::AnnotatedSeries;
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
    /// Wall-clock runtime of the full stream pass.
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

/// Runs every algorithm over every series on the multi-stream serving
/// engine: each (algorithm, series) pair is an independent stream,
/// sharded over `threads` engine workers and fed through bounded ring
/// buffers with the lossless `Block` policy. Results are in
/// deterministic (algo-major, series-minor) order.
///
/// Jobs are packed onto shards greedily by series length, heaviest
/// first, so no shard straggles; the packing depends only on the job
/// list. Jobs are registered and fed through [`stream_engine::feed_all`]
/// in waves of `4 * threads`, so at most `4 * threads` streams are being
/// fed at any moment, plus the earlier waves' streams still draining
/// their last ring (at most 512 records each) — a paper-scale matrix is
/// thousands of jobs, and each live ClaSS operator holds O(window)
/// state. `runtime` is operator-busy time measured per drained batch
/// (`stream_engine::Timing::Batch`), which matches the paper's
/// single-core measurement protocol even though shards interleave many
/// streams — and keeps per-record clock reads out of baselines whose
/// step is cheaper than a clock read.
pub fn run_matrix(
    algos: &[AlgoSpec],
    series: &[AnnotatedSeries],
    threads: usize,
) -> Vec<RunResult> {
    use stream_engine::{
        feed_all, serve, Backpressure, EngineConfig, RingConfig, SegmenterOperator, StreamOptions,
        Timing,
    };

    // (algorithm, series) pairs, heaviest first; the sort is stable, so
    // ties keep the algo-major, series-minor layout.
    let mut jobs: Vec<(usize, usize)> = (0..algos.len())
        .flat_map(|a| (0..series.len()).map(move |s| (a, s)))
        .collect();
    if jobs.is_empty() {
        return Vec::new();
    }
    jobs.sort_by_key(|&(_, s)| std::cmp::Reverse(series[s].len()));
    let threads = threads.max(1).min(jobs.len());
    // Greedy balance: each job (heaviest first) goes to the least-loaded
    // shard by total records, ties to the lowest shard index.
    let mut load = vec![0usize; threads];
    let jobs: Vec<(usize, usize, usize)> = jobs
        .into_iter()
        .map(|(a, s)| {
            let shard = (0..threads)
                .min_by_key(|&k| (load[k], k))
                .expect(">=1 shard");
            load[shard] += series[s].len();
            (a, s, shard)
        })
        .collect();

    let config = EngineConfig {
        shards: threads,
        ring: RingConfig::new(512, Backpressure::Block),
    };
    // The greedy packing spreads the heaviest-first prefix of each wave
    // across shards, so a wave of 4x threads keeps every shard busy.
    let (results, ()) = serve(config, |engine| {
        for wave in jobs.chunks(4 * threads) {
            let handles = wave
                .iter()
                .map(|&(a, s, shard)| {
                    let opts = StreamOptions {
                        ring: config.ring,
                        timing: Timing::Batch,
                        shard: Some(shard),
                        ..StreamOptions::default()
                    };
                    engine.register_with(opts, move || {
                        SegmenterOperator::new(algos[a].instantiate(&series[s]))
                    })
                })
                .collect();
            let data: Vec<&[f64]> = wave
                .iter()
                .map(|&(_, s, _)| &series[s].values[..])
                .collect();
            feed_all(handles, &data).expect(
                "shard workers outlive the feed: consumers are only dropped at engine join()",
            );
        }
    });

    // Stream ids follow registration order, i.e. the sorted job order;
    // scatter back to the deterministic (algo-major, series-minor) layout.
    let mut out: Vec<Option<RunResult>> = (0..jobs.len()).map(|_| None).collect();
    for r in results {
        let (a, s, _) = jobs[r.stream];
        let mut cps: Vec<u64> = r.output.iter().map(|rec| rec.value).collect();
        cps.sort_unstable();
        cps.dedup();
        let ser = &series[s];
        out[a * series.len() + s] = Some(RunResult {
            algo: algos[a].name(),
            series: ser.name.clone(),
            archive: ser.archive,
            covering: covering(&ser.change_points, &cps, ser.len() as u64),
            runtime: r.busy,
            n_points: ser.len(),
            cps,
        });
    }
    out.into_iter()
        .map(|r| r.expect("every job served"))
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
