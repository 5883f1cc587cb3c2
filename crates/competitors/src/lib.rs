//! # competitors — the eight STSS baselines of the ClaSS paper (Table 2)
//!
//! Every competitor implements [`class_core::StreamingSegmenter`] and is
//! configured with the hyper-parameters the paper selected in its §4.1
//! search:
//!
//! | Algorithm | Update | Segmentation method | Paper-tuned parameter |
//! |---|---|---|---|
//! | [`Bocd`] | O(n) | Bayesian probability | run-length drop 150 |
//! | [`Floss`] | O(d) | Matrix profile | CAC threshold 0.45 |
//! | [`ChangeFinder`] | O(c^2) | Moving averages | score threshold |
//! | [`WindowSegmenter`] | O(c) | Autoregressive cost | threshold 0.2 |
//! | [`Newma`] | O(c) | Moving averages | quantile 1.0 |
//! | [`Adwin`] | O(log c) | Adaptive statistics | delta 0.01 |
//! | [`Ddm`] | O(1) | Model error | min instances 20 |
//! | [`Hddm`] | O(1) | Hoeffding's inequality | delta 1e-60 |
//!
//! The [`build`] helper constructs any competitor from a [`CompetitorKind`]
//! plus the per-series information the paper grants the baselines (the
//! annotated subsequence width for FLOSS and Window).

#![warn(missing_docs)]

pub mod adwin;
pub mod bocd;
pub mod changefinder;
pub mod ddm;
pub mod floss;
pub mod hddm;
pub mod newma;
pub mod util;
pub mod window_seg;

pub use adwin::{Adwin, AdwinConfig};
pub use bocd::{Bocd, BocdConfig};
pub use changefinder::{ChangeFinder, ChangeFinderConfig, Sdar};
pub use ddm::{Ddm, DdmConfig};
pub use floss::{Floss, FlossConfig};
pub use hddm::{Hddm, HddmConfig, HddmVariant};
pub use newma::{Newma, NewmaConfig};
pub use window_seg::{WindowConfig, WindowCost, WindowSegmenter};

use class_core::StreamingSegmenter;

/// Identifier for one of the paper's eight baselines (ClaSS itself runs
/// through the evaluation harness, not through [`build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompetitorKind {
    /// FLOSS arc-curve segmentation.
    Floss,
    /// Bayesian online changepoint detection.
    Bocd,
    /// SDAR-based two-stage ChangeFinder.
    ChangeFinder,
    /// Dual-EWMA NEWMA.
    Newma,
    /// Adaptive windowing.
    Adwin,
    /// Drift detection method.
    Ddm,
    /// Hoeffding-bound drift detection.
    Hddm,
    /// Two-window discrepancy baseline.
    Window,
}

impl CompetitorKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            CompetitorKind::Floss => "FLOSS",
            CompetitorKind::Bocd => "BOCD",
            CompetitorKind::ChangeFinder => "ChangeFinder",
            CompetitorKind::Newma => "NEWMA",
            CompetitorKind::Adwin => "ADWIN",
            CompetitorKind::Ddm => "DDM",
            CompetitorKind::Hddm => "HDDM",
            CompetitorKind::Window => "Window",
        }
    }

    /// The eight baselines.
    pub fn baselines() -> [CompetitorKind; 8] {
        [
            CompetitorKind::Floss,
            CompetitorKind::Bocd,
            CompetitorKind::ChangeFinder,
            CompetitorKind::Newma,
            CompetitorKind::Adwin,
            CompetitorKind::Ddm,
            CompetitorKind::Hddm,
            CompetitorKind::Window,
        ]
    }
}

/// Per-series context the paper grants the baselines: FLOSS and Window
/// receive the annotated subsequence width; everything else ignores it.
#[derive(Debug, Clone, Copy)]
pub struct SeriesContext {
    /// Annotated (or generator-known) temporal pattern width.
    pub width: usize,
    /// Sliding window size for the windowed methods (paper: 10k).
    pub window_size: usize,
}

impl Default for SeriesContext {
    fn default() -> Self {
        Self {
            width: 50,
            window_size: 10_000,
        }
    }
}

/// Constructs a baseline segmenter with the paper's tuned configuration.
pub fn build(kind: CompetitorKind, ctx: SeriesContext) -> Box<dyn StreamingSegmenter> {
    let width = ctx.width.max(4);
    match kind {
        CompetitorKind::Floss => {
            let window = ctx.window_size.max(4 * width);
            Box::new(Floss::new(FlossConfig::new(window, width)))
        }
        CompetitorKind::Bocd => Box::new(Bocd::new(BocdConfig::default())),
        CompetitorKind::ChangeFinder => Box::new(ChangeFinder::new(ChangeFinderConfig::default())),
        CompetitorKind::Newma => Box::new(Newma::new(NewmaConfig::default())),
        CompetitorKind::Adwin => Box::new(Adwin::new(AdwinConfig::default())),
        CompetitorKind::Ddm => Box::new(Ddm::new(DdmConfig::default())),
        CompetitorKind::Hddm => Box::new(Hddm::new(HddmConfig::default())),
        CompetitorKind::Window => Box::new(WindowSegmenter::new(WindowConfig::new(5 * width))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use class_core::stats::SplitMix64;

    #[test]
    fn build_constructs_every_baseline() {
        let ctx = SeriesContext {
            width: 30,
            window_size: 1000,
        };
        for kind in CompetitorKind::baselines() {
            let seg = build(kind, ctx);
            assert_eq!(seg.name(), kind.name());
        }
    }

    #[test]
    fn every_baseline_survives_a_nontrivial_stream() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<f64> = (0..3000)
            .map(|i| {
                let f = if i < 1500 { 0.1 } else { 0.4 };
                (i as f64 * f).sin() + 0.1 * (rng.next_f64() - 0.5)
            })
            .collect();
        let ctx = SeriesContext {
            width: 30,
            window_size: 1000,
        };
        for kind in CompetitorKind::baselines() {
            let mut seg = build(kind, ctx);
            let cps = seg.segment_series(&xs);
            for &c in &cps {
                assert!((c as usize) < xs.len(), "{}: cp out of range", kind.name());
            }
        }
    }

    #[test]
    fn every_baseline_survives_pathological_input() {
        // Constant, then NaN spike, then constant again: nothing may panic.
        let mut xs = vec![1.0; 500];
        xs[250] = f64::NAN;
        xs.extend(std::iter::repeat_n(2.0, 500));
        let ctx = SeriesContext {
            width: 10,
            window_size: 200,
        };
        for kind in CompetitorKind::baselines() {
            let mut seg = build(kind, ctx);
            let _ = seg.segment_series(&xs);
        }
    }
}
