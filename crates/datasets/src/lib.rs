//! # datasets — real-archive ingestion + synthetic stand-ins for Table 1
//!
//! The paper evaluates on two public benchmarks (TSSB, UTSA) and six
//! annotated data archives (mHealth, MIT-BIH Arr/VE, PAMAP, Sleep DB,
//! WESAD). This crate serves those workloads from two sources:
//!
//! * **Real archives** — parsers for the univariate TSSB/FLOSS-style
//!   `.txt` and UTSA-style `.csv` file formats and the multi-channel
//!   WFDB `.hea`/`.dat`/`.atr` record triples ([`wfdb`], formats 16 and
//!   212), EDF(+) recordings ([`edf`], Sleep DB's native form) and wide
//!   `.csv` files the six data archives ship as
//!   ([`formats`], [`loader`]), plus a manifest layer ([`manifest`])
//!   that discovers archives from a `CLASS_DATA_DIR` directory tree (one
//!   subdirectory per archive, one file — or WFDB triple — per series).
//!   Small golden fixtures in real format are bundled under `fixtures/`
//!   so the loaders run in CI without network access.
//! * **Synthetic stand-ins** — deterministic generators with the same
//!   structural properties as Table 1 (series counts, length and
//!   segment-count distributions, per-domain signal character) and exact
//!   ground-truth change points (see EXPERIMENTS.md for the substitution
//!   rationale). The manifest layer falls back to these whenever a real
//!   archive is absent, so every consumer handles both transparently.
//!
//! Error contract: everything reachable from on-disk input fails loudly
//! and typed — [`ParseError`] with `line:col` (or byte-offset) location
//! for format violations, [`LoadError`] wrapping I/O and classification
//! failures, and manifest discovery that reports every unrecognized
//! file it passes over ([`DiskArchive::skipped`], surfaced as per-file
//! warnings and counts by `class-cli datasets list`) rather than
//! dropping it silently. `unwrap()` is confined to test code; the handful of
//! `expect()`s in parser internals assert invariants already enforced
//! by validation, never file contents.
//!
//! ```
//! use datasets::{Archive, GenConfig, resolve_archive, SeriesOrigin};
//!
//! let cfg = GenConfig::default();
//! let tssb = Archive::Tssb.generate(&cfg);
//! assert_eq!(tssb.len(), 75);
//! assert!(tssb[0].n_segments() >= 1);
//!
//! // With no data dir the resolver serves the synthetic stand-in.
//! let (series, origin) = resolve_archive(Archive::Tssb, &cfg, None).unwrap();
//! assert_eq!(origin, SeriesOrigin::Synthetic);
//! assert_eq!(series.len(), 75);
//! ```

#![warn(missing_docs)]

pub mod archives;
pub mod edf;
pub mod formats;
pub mod loader;
pub mod manifest;
pub mod multivariate;
pub mod regimes;
pub mod series;
pub mod wfdb;

pub use archives::{Archive, ArchiveSpec, GenConfig};
pub use edf::{EdfRecord, EdfSignal};
pub use formats::{MultivariateRaw, ParseError, RawSeries};
pub use loader::{
    annotate_multivariate, classify_series_file, load_multivariate_file, load_series_file,
    parse_multivariate_file, parse_series_file, serialize_series, LoadError, SeriesKind,
};
pub use manifest::{
    fixtures_dir, resolve_all_series, resolve_archive, resolve_archive_channels,
    resolve_archive_series, resolve_benchmark_series, resolve_channel_series,
    resolve_multivariate_archive, DataDir, DiskArchive, SeriesOrigin, DATA_DIR_ENV,
};
pub use multivariate::{generate_multivariate, MultivariateSeries, MultivariateSpec};
pub use regimes::Regime;
pub use series::{build_series, random_segment_lengths, AnnotatedSeries, NoiseSpec};
pub use wfdb::{SignalSpec, WfdbFormat, WfdbHeader, WfdbRecord};
