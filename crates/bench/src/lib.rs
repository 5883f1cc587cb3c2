//! # bench — benchmark harness regenerating every table and figure
//!
//! One binary per artefact of the paper's evaluation section:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — dataset specifications |
//! | `table2` | Table 2 — competitor update complexities (measured) |
//! | `table3` | Table 3 — summary Covering performances |
//! | `fig5` | Figure 5 — CD diagrams + box plots |
//! | `fig6` | Figure 6 — runtime vs quality, throughput, d-sweep |
//! | `fig7` | Figure 7 — scalability ClaSS vs FLOSS |
//! | `ablation` | §4.2 — design-choice ablations (a)-(g) |
//! | `early_stss` | §4.5 — early-segmentation study (detection delay) |
//! | `serve_soak` | §4.4 deployment — seeded fault-plan soak of a ClaSS fleet (`--features fault-inject`) |
//! | `compare_bundles` | diffs two `--bundle-out` run bundles |
//!
//! Criterion micro-benchmarks (`cargo bench -p bench`) validate the two
//! core algorithmic speedups against naive baselines. The §4.4 throughput
//! numbers (window operator at d = 10k, a stream fleet on the engine, and
//! paced wire ingest) come from the repository's benchmark package
//! (`benchmark/`, declared in `BENCHMARK.json`), not from this crate.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod naive;

pub use args::Args;
pub use experiments::{
    all_series, archive_series, benchmark_series, eval_group, mean_pct, mean_throughput,
    small_subset, total_runtime_secs, tuning_split, GroupEval,
};
