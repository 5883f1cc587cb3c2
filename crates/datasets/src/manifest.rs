//! Archive discovery and resolution: real archives from a `CLASS_DATA_DIR`
//! directory tree when present, synthetic stand-ins otherwise.
//!
//! The expected layout mirrors how the benchmark archives are distributed —
//! one directory per archive, one file per series:
//!
//! ```text
//! $CLASS_DATA_DIR/
//! ├── TSSB/
//! │   ├── Adiac_176_1200_2500.txt
//! │   └── ...
//! └── UTSA/
//!     ├── PulsusParadoxusECG.csv
//!     └── ...
//! ```
//!
//! [`resolve_archive`] (and the grouped variants) checks the data dir for a
//! directory whose name matches the archive's Table 1 name
//! (case-insensitively); on a hit the real files are loaded, otherwise the
//! synthetic generator produces the stand-in — callers never branch on the
//! source themselves. The bundled golden fixtures under
//! `crates/datasets/fixtures/` follow exactly this layout, so
//! [`fixtures_dir`] can serve as a miniature always-available data dir.

use crate::archives::{Archive, GenConfig};
use crate::loader::{
    classify_series_file, load_multivariate_file, load_series_file, LoadError, SeriesKind,
};
use crate::multivariate::{generate_multivariate, MultivariateSeries, MultivariateSpec};
use crate::series::AnnotatedSeries;
use std::path::{Path, PathBuf};

/// Environment variable naming the real-archive directory tree.
pub const DATA_DIR_ENV: &str = "CLASS_DATA_DIR";

/// A directory tree holding real archives (one subdirectory per archive).
#[derive(Debug, Clone)]
pub struct DataDir {
    root: PathBuf,
}

/// One discovered on-disk archive: a subdirectory with loadable series
/// files.
#[derive(Debug, Clone)]
pub struct DiskArchive {
    /// Archive name (the directory name).
    pub name: String,
    /// The directory.
    pub dir: PathBuf,
    /// Loadable univariate series files, sorted by file name for
    /// determinism.
    pub files: Vec<PathBuf>,
    /// Loadable multivariate series files (WFDB `.hea` headers, EDF
    /// recordings and wide `.csv`), sorted by file name. The
    /// `.dat`/`.atr` companions of a header are not listed — the header
    /// pulls them in.
    pub multivariate_files: Vec<PathBuf>,
    /// Files the classifier did not recognize as loadable series (and
    /// that are not `.dat`/`.atr` companions of a listed header), sorted
    /// by file name. Surfaced so discovery never *silently* drops data —
    /// a stray `.rec` or misnamed export shows up here instead of
    /// vanishing (the PR 5 `.TXT` bug's remaining sibling).
    pub skipped: Vec<PathBuf>,
}

impl DiskArchive {
    /// Loads every univariate series of the archive, in file-name order.
    pub fn load(&self) -> Result<Vec<AnnotatedSeries>, LoadError> {
        self.files
            .iter()
            .map(|f| load_series_file(f, &self.name))
            .collect()
    }

    /// Loads every multivariate series of the archive, in file-name
    /// order.
    pub fn load_multivariate(&self) -> Result<Vec<MultivariateSeries>, LoadError> {
        self.multivariate_files
            .iter()
            .map(|f| load_multivariate_file(f, &self.name))
            .collect()
    }
}

impl DataDir {
    /// Opens an explicit directory.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// Opens the directory a `--data-dir` flag names, else the one
    /// `CLASS_DATA_DIR` names, if set and non-empty.
    pub fn from_flag_or_env(flag: Option<&str>) -> Option<Self> {
        match (flag, std::env::var(DATA_DIR_ENV)) {
            (Some(p), _) => Some(Self::open(p)),
            (None, Ok(v)) if !v.trim().is_empty() => Some(Self::open(v.trim())),
            _ => None,
        }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Discovers the on-disk archives: every subdirectory holding at least
    /// one `.txt`/`.csv` series file, sorted by name.
    pub fn archives(&self) -> std::io::Result<Vec<DiskArchive>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(archive) = read_archive_dir(&entry.path(), name)? {
                out.push(archive);
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Finds the on-disk archive whose name matches `name`
    /// case-insensitively and ignoring spaces/`-`/`_` (Table 1 prints
    /// "Arr DB" and "Sleep DB", a tree holds `arr-db/` or `SleepDB/`).
    /// Only the matching subdirectory is read — a full-archive tree holds
    /// thousands of series files per directory, and resolvers call this
    /// once per archive.
    pub fn find(&self, name: &str) -> std::io::Result<Option<DiskArchive>> {
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let dir_name = entry.file_name().to_string_lossy().into_owned();
            if normalize_archive_name(&dir_name) == normalize_archive_name(name) {
                if let Some(archive) = read_archive_dir(&entry.path(), dir_name)? {
                    return Ok(Some(archive));
                }
            }
        }
        Ok(None)
    }
}

/// Canonical form archive names are matched in: ASCII-lowercased with
/// spaces, dashes and underscores removed.
fn normalize_archive_name(name: &str) -> String {
    name.chars()
        .filter(|c| !matches!(c, ' ' | '-' | '_'))
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Reads one candidate archive directory; `None` for non-directories and
/// directories without loadable series files of either kind.
///
/// `.txt`/`.hea` classify by extension alone; `.csv` needs a header
/// sniff (univariate `value,label` vs wide multi-channel), which opens
/// the file. A full-scale archive directory holds thousands of series
/// files, so only the **first** `.csv` (in sorted order) is sniffed and
/// its kind applied to the rest — real archive directories are
/// format-homogeneous, and a mixed directory still fails loudly at load
/// time with the parser's header diagnostics.
fn read_archive_dir(dir: &Path, name: String) -> std::io::Result<Option<DiskArchive>> {
    if !dir.is_dir() {
        return Ok(None);
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    // WFDB `.dat`/`.atr` companions of a present `.hea` header are
    // pulled in by the header — they are accounted for, not skipped.
    // Collected up front because `.dat` sorts before `.hea`.
    let hea_stems: std::collections::BTreeSet<String> = paths
        .iter()
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.eq_ignore_ascii_case("hea"))
        })
        .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(String::from))
        .collect();
    let mut files = Vec::new();
    let mut multivariate_files = Vec::new();
    let mut skipped = Vec::new();
    let mut csv_kind: Option<SeriesKind> = None;
    for path in paths {
        let kind = match path.extension().and_then(|e| e.to_str()) {
            Some(e) if e.eq_ignore_ascii_case("csv") => match csv_kind {
                Some(k) => Some(k),
                None => {
                    let k = classify_series_file(&path)?;
                    if let Some(k) = k {
                        csv_kind = Some(k);
                    }
                    k
                }
            },
            _ => classify_series_file(&path)?,
        };
        match kind {
            Some(SeriesKind::Univariate) => files.push(path),
            Some(SeriesKind::Multivariate) => multivariate_files.push(path),
            None => {
                let companion = path.extension().and_then(|e| e.to_str()).is_some_and(|e| {
                    e.eq_ignore_ascii_case("dat") || e.eq_ignore_ascii_case("atr")
                }) && path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .is_some_and(|s| hea_stems.contains(s));
                if !companion {
                    skipped.push(path);
                }
            }
        }
    }
    if files.is_empty() && multivariate_files.is_empty() {
        return Ok(None);
    }
    Ok(Some(DiskArchive {
        name,
        dir: dir.to_path_buf(),
        files,
        multivariate_files,
        skipped,
    }))
}

/// Where a resolved archive's series came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesOrigin {
    /// Loaded from real files under this directory.
    Disk(PathBuf),
    /// Generated by the synthetic stand-in.
    Synthetic,
}

/// Resolves one archive: real files when `data_dir` holds a matching
/// directory, the synthetic generator otherwise. Failures on a present
/// data dir are reported, not silently substituted — a corrupt or
/// unreadable real archive must never masquerade as a synthetic result.
/// Only a missing tree (the root or the archive's directory simply not
/// existing) falls back to the generator.
pub fn resolve_archive(
    archive: Archive,
    cfg: &GenConfig,
    data_dir: Option<&DataDir>,
) -> Result<(Vec<AnnotatedSeries>, SeriesOrigin), LoadError> {
    if let Some(dir) = data_dir {
        match dir.find(archive.spec().name) {
            // A directory holding only multivariate files is not a hit
            // for the univariate resolver — fall through.
            Ok(Some(disk)) if !disk.files.is_empty() => {
                let series = disk.load()?;
                return Ok((series, SeriesOrigin::Disk(disk.dir)));
            }
            Ok(_) => {}
            // A nonexistent root means "no real archives": fall back.
            // Any other I/O failure (permissions, transient FS errors)
            // must surface, or experiments would silently run synthetic.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(LoadError::io(dir.root(), e)),
        }
    }
    Ok((archive.generate(cfg), SeriesOrigin::Synthetic))
}

/// Synthetic stand-in parameters for one archive's multivariate form:
/// `(series count, spec template)`. The channel counts follow the
/// archives' sensor setups in miniature (mHealth/PAMAP are multi-IMU
/// wearables, the PhysioNet databases are 2-lead ECG / few-channel
/// polysomnography); series counts and lengths are kept laptop-small —
/// the multivariate fallback is a functional stand-in, not a Table 1
/// reproduction.
fn multivariate_fallback(archive: Archive, cfg: &GenConfig) -> Option<(usize, MultivariateSpec)> {
    let spec = archive.spec();
    if spec.is_benchmark {
        return None;
    }
    let (n_channels, n_informative) = match archive {
        Archive::MHealth | Archive::Pamap => (6, 4),
        Archive::ArrDb | Archive::VeDb => (2, 2),
        Archive::SleepDb | Archive::Wesad => (4, 3),
        Archive::Tssb | Archive::Utsa => unreachable!("benchmark archives handled above"),
    };
    let scale = if cfg.paper_sizes {
        1.0
    } else {
        spec.default_scale * cfg.scale
    };
    let len = ((spec.len.1 as f64 * scale) as usize).clamp(6_000, 40_000);
    let n_segments = spec.segments.1.clamp(2, 6);
    Some((
        4,
        MultivariateSpec {
            n_channels,
            n_informative,
            len,
            n_segments,
            noise: 0.08,
            seed: 0,
        },
    ))
}

/// Resolves one archive's **multivariate** series: real WFDB / wide-CSV
/// files when `data_dir` holds a matching directory with multivariate
/// content, a small synthetic multi-channel stand-in otherwise. Benchmark
/// archives (TSSB, UTSA) are univariate by construction and resolve to an
/// empty list.
pub fn resolve_multivariate_archive(
    archive: Archive,
    cfg: &GenConfig,
    data_dir: Option<&DataDir>,
) -> Result<(Vec<MultivariateSeries>, SeriesOrigin), LoadError> {
    let Some((count, template)) = multivariate_fallback(archive, cfg) else {
        return Ok((Vec::new(), SeriesOrigin::Synthetic));
    };
    if let Some(dir) = data_dir {
        match dir.find(archive.spec().name) {
            Ok(Some(disk)) if !disk.multivariate_files.is_empty() => {
                let series = disk.load_multivariate()?;
                return Ok((series, SeriesOrigin::Disk(disk.dir)));
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(LoadError::io(dir.root(), e)),
        }
    }
    let spec = archive.spec();
    let name_lc = spec.name.to_lowercase().replace(' ', "-");
    let series = (0..count)
        .map(|i| {
            let mut s = generate_multivariate(&MultivariateSpec {
                seed: cfg.seed.wrapping_add(
                    (archive as u64 * 100 + i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                ),
                ..template
            });
            s.name = format!("{name_lc}/{i:03}");
            s.archive = crate::loader::intern_archive_name(spec.name);
            s
        })
        .collect();
    Ok((series, SeriesOrigin::Synthetic))
}

/// Resolves the paper's benchmark group (TSSB + UTSA), mixing real and
/// synthetic archives as available.
pub fn resolve_benchmark_series(
    cfg: &GenConfig,
    data_dir: Option<&DataDir>,
) -> Result<Vec<AnnotatedSeries>, LoadError> {
    let mut out = Vec::new();
    for a in [Archive::Tssb, Archive::Utsa] {
        out.extend(resolve_archive(a, cfg, data_dir)?.0);
    }
    Ok(out)
}

/// Resolves the data-archive group (the six annotated archives).
pub fn resolve_archive_series(
    cfg: &GenConfig,
    data_dir: Option<&DataDir>,
) -> Result<Vec<AnnotatedSeries>, LoadError> {
    let mut out = Vec::new();
    for a in Archive::all() {
        if !a.spec().is_benchmark {
            out.extend(resolve_archive(a, cfg, data_dir)?.0);
        }
    }
    Ok(out)
}

/// Resolves all eight archives.
pub fn resolve_all_series(
    cfg: &GenConfig,
    data_dir: Option<&DataDir>,
) -> Result<Vec<AnnotatedSeries>, LoadError> {
    let mut out = resolve_benchmark_series(cfg, data_dir)?;
    out.extend(resolve_archive_series(cfg, data_dir)?);
    Ok(out)
}

/// Resolves one archive under the paper's **univariate protocol**: the
/// benchmark archives (TSSB, UTSA) are univariate already and resolve via
/// [`resolve_archive`]; a data archive resolves its multivariate series
/// ([`resolve_multivariate_archive`]) and extracts every channel as its
/// own addressable series (`<archive>/<record>/ch<c>`), which is how the
/// paper's Table 3 scores the six data archives.
pub fn resolve_archive_channels(
    archive: Archive,
    cfg: &GenConfig,
    data_dir: Option<&DataDir>,
) -> Result<(Vec<AnnotatedSeries>, SeriesOrigin), LoadError> {
    if archive.spec().is_benchmark {
        return resolve_archive(archive, cfg, data_dir);
    }
    let (multivariate, origin) = resolve_multivariate_archive(archive, cfg, data_dir)?;
    let series = multivariate
        .iter()
        .flat_map(MultivariateSeries::extract_channels)
        .collect();
    Ok((series, origin))
}

/// Resolves the per-channel extraction of every data archive (the six
/// annotated archives), mixing real and synthetic as available — the
/// paper's univariate protocol over the data-archive group.
pub fn resolve_channel_series(
    cfg: &GenConfig,
    data_dir: Option<&DataDir>,
) -> Result<Vec<AnnotatedSeries>, LoadError> {
    let mut out = Vec::new();
    for a in Archive::all() {
        if !a.spec().is_benchmark {
            out.extend(resolve_archive_channels(a, cfg, data_dir)?.0);
        }
    }
    Ok(out)
}

/// The bundled golden fixtures (real-format files checked into the repo),
/// laid out exactly like a `CLASS_DATA_DIR` tree.
pub fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_data_dir_falls_back_to_synthetic() {
        let cfg = GenConfig::default();
        let (series, origin) = resolve_archive(Archive::Tssb, &cfg, None).unwrap();
        assert_eq!(origin, SeriesOrigin::Synthetic);
        assert_eq!(series.len(), Archive::Tssb.spec().n_series);

        let dir = DataDir::open("/definitely/not/a/path");
        let (series, origin) = resolve_archive(Archive::Utsa, &cfg, Some(&dir)).unwrap();
        assert_eq!(origin, SeriesOrigin::Synthetic);
        assert_eq!(series.len(), Archive::Utsa.spec().n_series);
    }

    #[test]
    fn fixtures_resolve_as_disk_archives() {
        let cfg = GenConfig::default();
        let dir = DataDir::open(fixtures_dir());
        let (series, origin) = resolve_archive(Archive::Tssb, &cfg, Some(&dir)).unwrap();
        assert!(matches!(origin, SeriesOrigin::Disk(_)));
        assert!(!series.is_empty());
        for s in &series {
            assert_eq!(s.archive, "TSSB");
            assert!(s.name.starts_with("tssb/"));
        }
    }

    #[test]
    fn discovery_lists_fixture_archives_sorted() {
        let dir = DataDir::open(fixtures_dir());
        let archives = dir.archives().unwrap();
        let names: Vec<&str> = archives.iter().map(|a| a.name.as_str()).collect();
        assert!(names.contains(&"TSSB"), "{names:?}");
        assert!(names.contains(&"UTSA"), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // The malformed fixtures live in their own directory and are
        // intentionally discoverable — loading them is what must fail.
        for a in &archives {
            assert!(
                !a.files.is_empty() || !a.multivariate_files.is_empty(),
                "{}: no loadable files",
                a.name
            );
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        let dir = DataDir::open(fixtures_dir());
        assert!(dir.find("tssb").unwrap().is_some());
        assert!(dir.find("TsSb").unwrap().is_some());
        assert!(dir.find("nope").unwrap().is_none());
    }

    #[test]
    fn find_ignores_spaces_and_dashes() {
        // Table 1 prints "Arr DB" / "Sleep DB"; trees hold `ArrDB/`,
        // `arr-db/`, `sleep_db/` — all must resolve.
        assert_eq!(normalize_archive_name("Arr DB"), "arrdb");
        assert_eq!(normalize_archive_name("arr-db"), "arrdb");
        assert_eq!(normalize_archive_name("Sleep_DB"), "sleepdb");
        let dir = DataDir::open(fixtures_dir());
        assert!(dir.find("Arr DB").unwrap().is_some(), "ArrDB fixtures");
    }

    #[test]
    fn multivariate_fallback_is_deterministic_and_shaped() {
        let cfg = GenConfig::default();
        for a in [Archive::MHealth, Archive::ArrDb, Archive::SleepDb] {
            let (series, origin) = resolve_multivariate_archive(a, &cfg, None).unwrap();
            assert_eq!(origin, SeriesOrigin::Synthetic);
            assert_eq!(series.len(), 4, "{}", a.spec().name);
            for s in &series {
                assert!(s.n_channels() >= 2);
                assert!(s.len() >= 6_000);
                assert!(!s.change_points.is_empty());
                assert_eq!(s.archive, a.spec().name);
            }
            let (again, _) = resolve_multivariate_archive(a, &cfg, None).unwrap();
            assert_eq!(series[0].channels, again[0].channels);
        }
        // Benchmark archives have no multivariate form.
        let (series, _) = resolve_multivariate_archive(Archive::Tssb, &cfg, None).unwrap();
        assert!(series.is_empty());
    }

    #[test]
    fn multivariate_fixtures_resolve_as_disk_archives() {
        let cfg = GenConfig::default();
        let dir = DataDir::open(fixtures_dir());
        for (archive, n_channels) in [
            (Archive::ArrDb, 2),
            (Archive::MHealth, 3),
            (Archive::SleepDb, 2),
        ] {
            let (series, origin) = resolve_multivariate_archive(archive, &cfg, Some(&dir)).unwrap();
            assert!(matches!(origin, SeriesOrigin::Disk(_)), "{archive:?}");
            assert!(!series.is_empty(), "{archive:?}");
            for s in &series {
                assert_eq!(s.n_channels(), n_channels, "{}", s.name);
                assert!(!s.change_points.is_empty(), "{}", s.name);
            }
        }
    }

    #[test]
    fn unrecognized_files_are_counted_not_silently_dropped() {
        let dir = std::env::temp_dir().join("class-datasets-manifest-skip");
        let arch = dir.join("Mixed");
        std::fs::create_dir_all(&arch).unwrap();
        std::fs::write(arch.join("Tone_4_3.txt"), "0.5\n1.5\n-0.25\n2\n7.125\n").unwrap();
        // A stray export the loader does not understand.
        std::fs::write(arch.join("notes.rec"), "raw dump\n").unwrap();
        // A WFDB triple: the companions are pulled in by the header, so
        // they must NOT count as skipped — but an orphan .dat must.
        std::fs::write(
            arch.join("r1.hea"),
            "r1 1 250 2\nr1.dat 16 100(0)/mV\n# width=2\n",
        )
        .unwrap();
        std::fs::write(arch.join("r1.dat"), [0u8; 4]).unwrap();
        std::fs::write(arch.join("r1.atr"), [0u8; 2]).unwrap();
        std::fs::write(arch.join("orphan.dat"), [0u8; 4]).unwrap();
        let found = DataDir::open(&dir).find("Mixed").unwrap().unwrap();
        assert_eq!(found.files.len(), 1);
        assert_eq!(found.multivariate_files.len(), 1);
        let skipped: Vec<&str> = found
            .skipped
            .iter()
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
            .collect();
        assert_eq!(skipped, vec!["notes.rec", "orphan.dat"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fixture_tree_has_no_skipped_files() {
        // The bundled fixtures must classify completely: a file checked
        // in under fixtures/ that discovery cannot place is a bug.
        let dir = DataDir::open(fixtures_dir());
        for a in dir.archives().unwrap() {
            assert!(
                a.skipped.is_empty(),
                "{}: silently skipped {:?}",
                a.name,
                a.skipped
            );
        }
    }

    #[test]
    fn channel_resolver_extracts_every_channel() {
        let cfg = GenConfig::default();
        // Synthetic fallback: 4 series x 4 channels for Sleep DB.
        let (series, origin) = resolve_archive_channels(Archive::SleepDb, &cfg, None).unwrap();
        assert_eq!(origin, SeriesOrigin::Synthetic);
        assert_eq!(series.len(), 16);
        assert!(series.iter().any(|s| s.name.ends_with("/ch3")));
        for s in &series {
            assert_eq!(s.archive, "Sleep DB");
            assert!(!s.change_points.is_empty());
        }
        // Benchmark archives pass through the univariate resolver.
        let (series, _) = resolve_archive_channels(Archive::Tssb, &cfg, None).unwrap();
        assert_eq!(series.len(), Archive::Tssb.spec().n_series);
        // Disk-backed: the ArrDB fixtures extract one series per lead.
        let dir = DataDir::open(fixtures_dir());
        let (series, origin) = resolve_archive_channels(Archive::ArrDb, &cfg, Some(&dir)).unwrap();
        assert!(matches!(origin, SeriesOrigin::Disk(_)));
        let mv = resolve_multivariate_archive(Archive::ArrDb, &cfg, Some(&dir))
            .unwrap()
            .0;
        assert_eq!(
            series.len(),
            mv.iter().map(|m| m.n_channels()).sum::<usize>()
        );
        for (s, (m, c)) in series.iter().zip(
            mv.iter()
                .flat_map(|m| (0..m.n_channels()).map(move |c| (m, c))),
        ) {
            assert_eq!(s.name, format!("{}/ch{c}", m.name));
            assert_eq!(s.values, m.channels[c]);
            assert_eq!(s.change_points, m.change_points);
        }
    }

    #[test]
    fn univariate_resolver_skips_multivariate_only_archives() {
        // The mHealth fixture directory holds only wide-CSV files; the
        // univariate resolver must fall back to synthetic, not return an
        // empty disk archive.
        let cfg = GenConfig::default();
        let dir = DataDir::open(fixtures_dir());
        let (series, origin) = resolve_archive(Archive::MHealth, &cfg, Some(&dir)).unwrap();
        assert_eq!(origin, SeriesOrigin::Synthetic);
        assert_eq!(series.len(), Archive::MHealth.spec().n_series);
    }
}
