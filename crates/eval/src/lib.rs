//! # eval — evaluation framework for the ClaSS reproduction
//!
//! Implements the paper's evaluation protocol (§4.1): the Covering metric
//! (Eq. 6), per-dataset rank aggregation with Friedman/Nemenyi
//! critical-difference analysis (Figure 5), summary statistics (Table 3),
//! a parallel experiment runner, and text renderers for every artefact.

#![warn(missing_docs)]

pub mod bundle;
pub mod cli;
pub mod covering;
pub mod delay;
pub mod ranks;
pub mod report;
pub mod runner;

pub use bundle::{
    compare, default_tolerance, git_describe, parse_json, CompareReport, Json, MetricDiff,
    RunBundle, BUNDLE_SCHEMA,
};
pub use covering::{covering, segments_from_cps, Segment};
pub use delay::{delay_stats, run_timed, DelayStats, TimedReport};
pub use ranks::{
    friedman_statistic, mean_ranks, nemenyi_cd, pairwise_wins, rank_matrix, summarize,
    wins_and_ties, Summary,
};
pub use report::{box_plots, cd_diagram, summary_table, wins_line, MethodScores};
pub use runner::{covering_matrix, run_matrix, run_one, AlgoSpec, RunResult};

/// Sliding window size used by the scaled-down experiment profile
/// (the paper's default is 10_000 on unscaled data; the laptop profile
/// scales both data and window by roughly the same factor, preserving the
/// "10-100 temporal patterns per window" guidance of §3.5).
pub const DEFAULT_WINDOW_SIZE: usize = 2_000;
