//! # class-core — Classification Score Stream (ClaSS)
//!
//! A from-scratch Rust implementation of **ClaSS**, the streaming time
//! series segmentation (STSS) algorithm of Ermshaus, Schäfer and Leser,
//! *"Raising the ClaSS of Streaming Time Series Segmentation"* (VLDB 2024),
//! together with all algorithmic substrates it depends on:
//!
//! * an **exact streaming k-nearest-neighbour** index over sliding-window
//!   subsequences with O(k·d) updates ([`knn`], paper Algorithm 2),
//! * an **O(d) incremental cross-validation** of the self-supervised k-NN
//!   classifier ([`crossval`], paper Algorithm 3),
//! * a **resampled Wilcoxon rank-sum** change point validation that is
//!   numerically stable down to significance levels of 1e-100 ([`stats`]),
//! * **window size selection** (SuSS, FFT, ACF, MWF) to learn the
//!   subsequence width from the stream prefix ([`wss`]),
//! * **batch ClaSP** as a reference implementation built on the same
//!   primitives ([`clasp_batch`]), and
//! * a **degraded-input guard** that heals NaNs and retires dead or
//!   stuck feeds ([`guard`]), shared by the serving engine's streams and
//!   the channels of a fused [`MultivariateClass`].
//!
//! ## Quickstart
//!
//! ```
//! use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter};
//!
//! // A stream whose frequency doubles at t = 3000.
//! let series: Vec<f64> = (0..6000)
//!     .map(|i| if i < 3000 { (i as f64 * 0.2).sin() } else { (i as f64 * 0.5).sin() })
//!     .collect();
//!
//! let mut cfg = ClassConfig::with_window_size(2000);
//! cfg.warmup = Some(1000);    // learn the width from the first 1000 points
//! cfg.log10_alpha = -15.0;    // significance level 1e-15
//! let mut class = ClassSegmenter::new(cfg);
//!
//! let mut cps = Vec::new();
//! for &x in &series {
//!     class.step(x, &mut cps); // change points are reported on the fly
//! }
//! assert!(cps.iter().any(|&cp| (cp as i64 - 3000).abs() < 500));
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod clasp_batch;
pub mod class;
pub mod crossval;
pub mod fft;
pub mod guard;
pub mod knn;
pub mod multivariate;
pub mod segmenter;
pub mod simd;
pub mod similarity;
pub mod stats;
pub mod wss;

pub use clasp_batch::{clasp_profile, clasp_segment, ClaspConfig};
pub use class::{ClassConfig, ClassSegmenter, WidthSelection};
pub use crossval::{CrossVal, ScoreFn};
pub use guard::{GuardConfig, GuardTrip, GuardVerdict, InputGuard};
pub use knn::{KnnConfig, StreamingKnn};
pub use multivariate::{
    ChannelFault, ChannelSelection, FusionStrategy, MultivariateClass, MultivariateConfig,
    VoteFuser,
};
pub use segmenter::StreamingSegmenter;
pub use similarity::Similarity;
pub use stats::{BinaryGroups, SampleSize, SplitMix64};
pub use wss::{select_width, WidthBounds, WssMethod};
