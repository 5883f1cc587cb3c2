//! Metric collection, exact sample statistics, and the result line.

use std::time::Duration;

/// Exact nearest-rank `q`-quantile of ascending `sorted` samples, with the
/// number of samples strictly above it.
pub fn quantile(sorted: &[u64], q: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&v| v <= value);
    (value, beyond)
}

/// Samples per block of [`block_median`].
const BLOCK: usize = 1_000;

/// Mean over consecutive blocks of `BLOCK` samples, in the order they were
/// taken, of each block's exact median. On a shared host whose speed
/// shifts between levels during a run, the median of the pooled samples
/// jumps to whichever level held more than half of them; this averages
/// over the levels instead, as a throughput does.
pub fn block_median(samples: &[u64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let blocks: Vec<&[u64]> = if samples.len() < BLOCK {
        vec![samples]
    } else {
        samples.chunks_exact(BLOCK).collect()
    };
    let sum: f64 = blocks
        .iter()
        .map(|b| {
            let mut v = b.to_vec();
            v.sort_unstable();
            quantile(&v, 0.5).0 as f64
        })
        .sum();
    sum / blocks.len() as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<String>,
    problems: Vec<String>,
    /// Records offered to the system under test.
    pub attempted: u64,
    /// Offered records that failed a correctness check.
    pub failed: u64,
}

impl Report {
    /// Records one metric value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a descriptive line to the summary (configuration, counts).
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Records a correctness check; a failing check counts `failed_records`
    /// offered records as failed and makes the run incorrect.
    pub fn check(&mut self, ok: bool, failed_records: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
            self.failed += failed_records;
        }
    }

    /// Reports 0 for every `declared` metric not measured, returning
    /// their names.
    pub fn fill_absent(&mut self, declared: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        let mut absent = Vec::new();
        for &(name, unit) in declared {
            if self.metrics.iter().all(|(n, _, _)| n != name) {
                self.metric(name, 0.0, unit);
                absent.push(name);
            }
        }
        absent
    }

    /// Prints the summary and the result line (holding exactly the
    /// `declared` metrics, in their declared units), then exits: 0 if
    /// every check passed, 1 if not.
    pub fn finish(mut self, declared: &[(&str, &str)]) -> ! {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.problems
                    .push(format!("metric {name} is not finite ({value})"));
            }
        }
        // A record can fail more than one check; count it once.
        self.failed = self.failed.min(self.attempted);
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        for line in &self.info {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>18.6} {unit}");
        }
        println!(
            "{:<32} {error_rate:>18.6} failed/offered ({} of {} records)",
            "error_rate", self.failed, self.attempted
        );
        for p in &self.problems {
            eprintln!("benchmark: CHECK FAILED: {p}");
        }
        let mut fields = Vec::with_capacity(declared.len());
        for &(name, declared_unit) in declared {
            let (_, value, unit) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("declared metric {name} was not measured"));
            assert_eq!(*unit, declared_unit, "unit of {name}");
            let value = if value.is_finite() { *value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        std::process::exit(if correct { 0 } else { 1 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_count_what_lies_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), (50, 50));
        assert_eq!(quantile(&v, 0.99), (99, 1));
        assert_eq!(quantile(&[7, 7, 7, 9], 0.5), (7, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        // Half the run at one speed, half at another: the block medians
        // average the two levels.
        let shifted: Vec<u64> = (0..2 * BLOCK)
            .map(|i| if i < BLOCK { 10 } else { 30 })
            .collect();
        assert_eq!(block_median(&shifted), 20.0);
    }
}
