//! Minimal command-line argument parsing for the experiment binaries
//! (kept dependency-free on purpose; see EXPERIMENTS.md).

use crate::tuning_split;
use class_core::class::MIN_WINDOW_SIZE;
use datasets::AnnotatedSeries;
use eval::cli::{usage_error, Flags};

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Multiplier on the laptop-profile dataset sizes.
    pub scale: f64,
    /// Use the paper's original (unscaled) dataset sizes.
    pub paper_sizes: bool,
    /// Sliding window size `d` for ClaSS/FLOSS.
    pub window: usize,
    /// Worker threads.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Free-form sub-command (used by the ablation binary's `--choice`).
    pub choice: Option<String>,
    /// Quick mode: 20% subsample of the series (the paper's tuning split).
    pub quick: bool,
    /// Real-archive directory (`--data-dir`, falling back to the
    /// `CLASS_DATA_DIR` environment variable); `None` = synthetic only.
    pub data_dir: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 1.0,
            paper_sizes: false,
            window: eval::DEFAULT_WINDOW_SIZE,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            seed: 0xC1A55,
            choice: None,
            quick: false,
            data_dir: None,
        }
    }
}

const HELP: &str = "options: --scale F --paper-sizes --window N --threads N --seed N \
                    --choice NAME --quick --data-dir PATH\n";

impl Args {
    /// Parses `std::env::args()`; a usage error exits with status 2.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|msg| usage_error(msg))
    }

    /// Parses an explicit iterator of arguments (testable); `Err` holds
    /// the usage error's message.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        Flags::new()
            .help(HELP)
            .parsed("--scale", &mut out.scale)
            .switch("--paper-sizes", &mut out.paper_sizes)
            .at_least("--window", MIN_WINDOW_SIZE, &mut out.window)
            .at_least("--threads", 1, &mut out.threads)
            .parsed("--seed", &mut out.seed)
            .optional("--choice", &mut out.choice)
            .switch("--quick", &mut out.quick)
            .optional("--data-dir", &mut out.data_dir)
            .parse(args)?;
        Ok(out)
    }

    /// Dataset generation config derived from the arguments.
    pub fn gen_config(&self) -> datasets::GenConfig {
        datasets::GenConfig {
            scale: self.scale,
            paper_sizes: self.paper_sizes,
            seed: self.seed,
        }
    }

    /// `series` cut to the tuning split ([`tuning_split`]) under `--quick`.
    pub fn quick_split(&self, series: Vec<AnnotatedSeries>) -> Vec<AnnotatedSeries> {
        if self.quick {
            tuning_split(&series)
        } else {
            series
        }
    }

    /// The real-archive directory: `--data-dir` wins, then
    /// `CLASS_DATA_DIR`, else `None` (pure synthetic run).
    pub fn data_dir(&self) -> Option<datasets::DataDir> {
        datasets::DataDir::from_flag_or_env(self.data_dir.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse("").unwrap();
        assert_eq!(a.scale, 1.0);
        assert!(!a.paper_sizes);
        let a = parse("--scale 0.5 --window 1500 --threads 2 --seed 7 --quick").unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.window, 1500);
        assert_eq!(a.threads, 2);
        assert_eq!(a.seed, 7);
        assert!(a.quick);
    }

    #[test]
    fn choice_flag() {
        let a = parse("--choice window-size").unwrap();
        assert_eq!(a.choice.as_deref(), Some("window-size"));
    }

    #[test]
    fn data_dir_flag_overrides_default() {
        let a = parse("--data-dir /tmp/archives").unwrap();
        assert_eq!(a.data_dir.as_deref(), Some("/tmp/archives"));
        assert_eq!(
            a.data_dir().map(|d| d.root().to_path_buf()),
            Some(std::path::PathBuf::from("/tmp/archives"))
        );
    }

    #[test]
    fn usage_errors_are_returned() {
        assert_eq!(
            parse("--frobnicate").unwrap_err(),
            "unknown argument --frobnicate"
        );
        assert_eq!(
            parse("--seed abc").unwrap_err(),
            "expected a numeric --seed, got \"abc\""
        );
    }
}
