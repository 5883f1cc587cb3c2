//! Minimal, API-compatible stand-in for the crates.io `criterion` crate.
//!
//! The build environment has no registry access, so this shim implements
//! the surface the workspace's benches use: [`criterion_group!`] /
//! [`criterion_main!`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`bench_with_input`],
//! [`BenchmarkId`], and [`Bencher::iter`].
//!
//! Each benchmark warms up briefly, then runs a fixed wall-clock
//! measurement budget (`CRITERION_SHIM_BUDGET_MS`, default 200 ms per
//! benchmark) and prints mean and best ns/iter. There is no statistical
//! analysis, no plots, and no baseline comparison — enough to rank
//! implementations and catch order-of-magnitude regressions by eye.
//!
//! Positional command-line arguments filter by name, as criterion's do,
//! but by substring instead of regex: `cargo bench --bench core_speedups
//! -- structured_peak` runs only the benchmarks whose full name
//! (`group/function/parameter`) contains `structured_peak`. Arguments
//! starting with `-` (such as the `--bench` cargo passes) are ignored.
//!
//! [`bench_with_input`]: BenchmarkGroup::bench_with_input

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

fn budget() -> Duration {
    let ms = std::env::var("CRITERION_SHIM_BUDGET_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200u64);
    Duration::from_millis(ms)
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    /// Mean nanoseconds per iteration over the measurement phase.
    mean_ns: f64,
    /// Best observed batch mean, in nanoseconds per iteration.
    best_ns: f64,
    iterations: u64,
}

impl Bencher {
    fn new() -> Self {
        Self {
            mean_ns: f64::NAN,
            best_ns: f64::NAN,
            iterations: 0,
        }
    }

    /// Run `f` repeatedly: a short warm-up, then batches until the
    /// measurement budget is exhausted.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: let caches/branch predictors settle and estimate cost.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < Duration::from_millis(20) || warmup_iters < 3 {
            black_box(f());
            warmup_iters += 1;
            if warmup_iters >= 1_000_000 {
                break;
            }
        }
        let est_ns = (warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64).max(1.0);

        // Batch size targeting ~1 ms per batch so Instant overhead vanishes.
        let batch = ((1.0e6 / est_ns).ceil() as u64).clamp(1, 1_000_000);
        let deadline = Instant::now() + budget();
        let mut total_ns = 0.0f64;
        let mut total_iters = 0u64;
        let mut best = f64::INFINITY;
        while Instant::now() < deadline || total_iters == 0 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64;
            total_ns += ns;
            total_iters += batch;
            best = best.min(ns / batch as f64);
        }
        self.mean_ns = total_ns / total_iters as f64;
        self.best_ns = best;
        self.iterations = total_iters;
    }
}

/// A benchmark identifier composed of a function name and a parameter,
/// e.g. `BenchmarkId::new("streaming", 4000)` renders as `streaming/4000`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Compose `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self(format!("{}/{}", name.into(), parameter))
    }

    /// An id carrying only a parameter, no function name.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// A named set of related benchmarks, printed under a common prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's budget is wall-clock
    /// based, so the sample count is ignored.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; ignored.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; ignored.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Benchmark a closure under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.parent
            .run_one(&format!("{}/{}", self.name, id.0), &mut f);
        self
    }

    /// Benchmark a closure that receives a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.parent.run_one(
            &format!("{}/{}", self.name, id.0),
            &mut |b: &mut Bencher| f(b, input),
        );
        self
    }

    /// End the group (prints nothing extra in the shim).
    pub fn finish(self) {}
}

/// Units for [`BenchmarkGroup::throughput`]; accepted and ignored.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Top-level benchmark driver; one per bench binary.
pub struct Criterion {
    /// Name filters from the command line; empty runs every benchmark.
    filters: Vec<String>,
}

impl Default for Criterion {
    /// A driver filtered by the process's positional arguments.
    fn default() -> Self {
        Self::with_args(std::env::args().skip(1))
    }
}

impl Criterion {
    /// A driver filtered by `args`: each one not starting with `-` is a
    /// substring a benchmark's full name must contain (any one of them).
    fn with_args(args: impl IntoIterator<Item = String>) -> Self {
        let filters = args.into_iter().filter(|a| !a.starts_with('-')).collect();
        Self { filters }
    }

    /// Whether the benchmark named `full_name` passes the filters.
    fn selects(&self, full_name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| full_name.contains(f.as_str()))
    }

    /// Runs and reports one benchmark, unless the filters skip it.
    fn run_one<F: FnMut(&mut Bencher)>(&self, full_name: &str, f: &mut F) {
        if !self.selects(full_name) {
            return;
        }
        let mut b = Bencher::new();
        f(&mut b);
        if b.iterations == 0 {
            // The body never called `iter` — nothing to report.
            println!("{full_name:<48} (no measurement)");
            return;
        }
        println!(
            "{full_name:<48} mean {:>12} best {:>12}  ({} iters)",
            fmt_ns(b.mean_ns),
            fmt_ns(b.best_ns),
            b.iterations
        );
    }

    /// Open a named [`BenchmarkGroup`].
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup { name, parent: self }
    }

    /// Benchmark a closure at the top level (no group).
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one(&id.0, &mut f);
        self
    }
}

/// Collect benchmark functions into a single runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        #[doc = concat!("Benchmark group `", stringify!($group), "`.")]
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running each [`criterion_group!`] in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criterion(args: &[&str]) -> Criterion {
        Criterion::with_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn no_positional_argument_selects_everything() {
        for args in [&[][..], &["--bench"], &["--bench", "--nocapture"]] {
            assert!(criterion(args).selects("knn_update/streaming/1000"));
        }
    }

    #[test]
    fn positional_arguments_select_by_substring() {
        let c = criterion(&["--bench", "structured_peak", "naive/4000"]);
        assert!(c.selects("crossval/structured_peak/10000"));
        assert!(c.selects("crossval/naive/4000"));
        assert!(!c.selects("crossval/naive/1000"));
        assert!(!c.selects("knn_update/streaming/1000"));
        // Substrings, not patterns: no regex metacharacters apply.
        assert!(!criterion(&["streaming.*"]).selects("knn_update/streaming/1000"));
    }
}
