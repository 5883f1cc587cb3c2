//! `class-cli` — command-line streaming time series segmentation.
//!
//! Reads one observation per line (plain number, or a chosen column of a
//! CSV) from a file or stdin and prints change points as they are detected,
//! exactly as a downstream user would deploy ClaSS on a live feed:
//!
//! ```text
//! cat sensor.csv | class-cli --window 10000 --alpha 1e-50
//! class-cli --input recording.txt --width 125 --format tsv
//! ```
//!
//! The `datasets` subcommands work with annotated benchmark archives
//! (real files under `CLASS_DATA_DIR`, the bundled fixtures, or the
//! synthetic Table 1 stand-ins):
//!
//! ```text
//! class-cli datasets list
//! class-cli datasets run crates/datasets/fixtures/TSSB/SineFreqDouble_50_900.txt
//! ```
//!
//! `serve-status` inspects a running (or finished) serving engine via
//! either observability source — the live metrics endpoint's
//! `/stats.json` route or the periodic JSON snapshot file:
//!
//! ```text
//! class-cli serve-status --addr 127.0.0.1:9599
//! class-cli serve-status --snapshot /var/run/class/stats.json --format tsv
//! ```
//!
//! `serve` and `feed` are the two ends of the TCP ingestion tier: `serve`
//! binds an [`stream_engine::IngestServer`] on a live serving engine so
//! any number of producers can register streams at runtime and push
//! values over the length-prefixed binary protocol; `feed` is such a
//! producer, streaming local files:
//!
//! ```text
//! class-cli serve --listen 127.0.0.1:9600 --window 10000 --metrics-addr 127.0.0.1:9599
//! class-cli feed --connect 127.0.0.1:9600 sensor-a.txt sensor-b.txt
//! ```

use class_core::{ClassSegmenter, StreamingSegmenter};
use eval::cli::{usage_error, ClassFlags, Flags};
use std::io::{BufRead, BufReader, Read, Write};

const USAGE: &str = "\
class-cli — streaming time series segmentation (ClaSS, VLDB 2024)

USAGE:
    class-cli [OPTIONS]                 segment a stdin/--input feed
    class-cli datasets list             list available archives
    class-cli datasets run FILE...      segment annotated archive files
    class-cli serve --listen ADDR       run a TCP ingestion server
    class-cli feed --connect ADDR FILE... stream files to a `serve` instance
    class-cli serve-status ...          inspect a serving engine's stats

OPTIONS:
    --input FILE       read from FILE instead of stdin
    --window N         sliding window size d (default 10000, at least 16)
    --width N          fixed subsequence width (default: learned via SuSS)
    --wss METHOD       width selection: suss | fft | acf | mwf
    --alpha P          significance level, in (0, 1) (default 1e-50)
    --column N         0-based CSV column to read (default 0)
    --delimiter C      CSV delimiter (default ',')
    --format FMT       output: text | tsv
    --relearn          re-learn the width after each change point
    --jump N           evaluate the profile every N-th point (default 5;
                       1 = exact per-point evaluation)
    --help             print this help

DATASETS SUBCOMMANDS (annotated archives: real files, fixtures, synthetic):
    datasets list [--data-dir PATH] [--format text|tsv]
        List archives under --data-dir (default: $CLASS_DATA_DIR), the
        bundled golden fixtures, and the synthetic Table 1 stand-ins.
        Files discovery cannot classify are warned about on stderr and
        counted per archive (the `skipped` column in --format tsv) —
        never silently dropped.
    datasets run FILE... [--window N] [--alpha P] [--width N] [--rate R]
                         [--jump N] [--channels K] [--fusion quorum|any|N]
                         [--extract-channels]
                         [--guard-nan-burst N] [--guard-flatline N]
                         [--metrics-addr HOST:PORT] [--bundle-out PATH]
                         [--format text|tsv]
        Load annotated archive files — univariate TSSB/FLOSS-style .txt /
        UTSA-style .csv, or multi-channel WFDB .hea (with .dat/.atr
        companions) / EDF(+) .edf / wide .csv — replay each through the
        serving engine (--rate records/sec simulates a live feed;
        default: unpaced), and report Covering and detection delay
        against the files' ground-truth annotations. Multi-channel files
        run the fused multivariate segmenter: --fusion picks the vote
        fusion (quorum = majority, any = union, N = quorum of N
        channels) and --channels K keeps only the K highest-variance
        channels after a probe phase. --extract-channels instead scores
        every channel as its own `<name>/ch<c>` univariate stream
        against the record's shared annotations (the paper's
        per-channel protocol).

        Degraded-input policy: --guard-nan-burst N quarantines a stream
        after N consecutive non-finite values (isolated ones are healed
        with the last finite value); --guard-flatline N quarantines after
        N identical consecutive values. On a multi-channel file the guard
        applies per channel: a tripped channel is retired and the vote
        quorum re-derived over the survivors, so the fused stream
        degrades instead of dying.

        Exit status: 0 ok, 1 load/engine error, 2 usage error, 3 at
        least one stream was quarantined (a report with the cause and
        record index is printed to stderr).

        Observability: --metrics-addr HOST:PORT serves live Prometheus
        text at /metrics (and JSON at /stats.json) while files replay;
        --bundle-out PATH writes a provenance-stamped run bundle
        (class-run-bundle/v1) for diffing with compare_bundles.

SERVE / FEED (the TCP ingestion tier: many producers, one engine):
    serve --listen HOST:PORT [--shards N] [--window N] [--width N]
          [--wss METHOD] [--alpha P] [--jump N] [--ring N]
          [--policy block|drop-oldest|error] [--metrics-addr HOST:PORT]
          [--idle-exit SECONDS]
        Run a ClaSS segmenter behind the binary ingestion protocol:
        producers (e.g. `class-cli feed`) connect, register streams at
        runtime and stream values; each stream's change points are
        collected and printed when the server exits. The FIRST stderr
        line is `listening on HOST:PORT` with the resolved port (bind
        port 0 for an ephemeral one). --ring/--policy set the default
        ring a producer gets when its REGISTER does not request one;
        backpressure is surfaced on the wire (block -> THROTTLE frames,
        drop-oldest -> drop counts on ACKs, error -> typed ERROR and
        close). --idle-exit S exits once at least one producer has
        connected and none has been active for S seconds (default:
        serve forever). Exit status: 0 ok, 1 bind/engine error, 2
        usage error, 3 at least one stream was quarantined.

    feed --connect HOST:PORT [--batch N] [--column N] [--delimiter C]
         [--ring N] [--policy block|drop-oldest|error] FILE...
        Register one wire stream per FILE (named by its file stem) on a
        running `serve` instance and stream its values in --batch-sized
        RECORDS frames (default 512), stop-and-wait. Values parse like
        the stdin mode (--column/--delimiter; non-numeric lines are
        skipped). --ring/--policy request a specific ring at
        registration (default: the server decides). Prints per-file
        acked/dropped/throttled counts. Exit status: 0 ok, 1
        connect/protocol/read error, 2 usage error.

SERVE-STATUS (read a serving engine's stats from either source):
    serve-status (--addr HOST:PORT | --snapshot PATH) [--format text|tsv]
        --addr fetches /stats.json from a live metrics endpoint
        (serve_soak --metrics-addr, datasets run --metrics-addr, or any
        ServingEngine::serve_metrics listener); --snapshot reads the
        periodic JSON snapshot file a headless run maintains. Prints
        connected streams, records/sec, ingest lag (queue depth), drops
        and quarantines; --format tsv emits one row per stream. When
        the engine has a network ingestion tier attached (serve
        --metrics-addr), text mode also prints the tier totals and one
        row per producer connection.

        Exit status: 0 healthy, 1 fetch/read/parse error, 2 usage
        error, 3 the engine reports quarantined streams.
";

/// The `--format` choices every command shares: `true` selects TSV.
const FORMATS: [(&str, bool); 2] = [("text", false), ("tsv", true)];

// ---------------------------------------------------------------------------
// `datasets` subcommands
// ---------------------------------------------------------------------------

/// How `datasets run` fuses per-channel votes on multi-channel files.
#[derive(PartialEq)]
enum FusionChoice {
    /// Majority quorum (the multivariate default).
    Quorum,
    /// Union of every channel's change points.
    Any,
    /// Quorum of exactly N channels.
    Votes(usize),
}

struct DatasetsRunArgs {
    files: Vec<String>,
    class: ClassFlags,
    rate: Option<f64>,
    tsv: bool,
    channels: Option<usize>,
    fusion: FusionChoice,
    extract_channels: bool,
    guard_nan_burst: Option<usize>,
    guard_flatline: Option<usize>,
    metrics_addr: Option<String>,
    bundle_out: Option<String>,
}

impl DatasetsRunArgs {
    /// The `--guard-*` thresholds as `(nan_burst, flatline)`, 0 = off;
    /// `None` when neither flag is given (values pass verbatim).
    fn guard(&self) -> Option<(usize, usize)> {
        let (nan_burst, flatline) = (self.guard_nan_burst, self.guard_flatline);
        (nan_burst.is_some() || flatline.is_some())
            .then(|| (nan_burst.unwrap_or(0), flatline.unwrap_or(0)))
    }
}

/// Exit code for a run in which at least one stream was quarantined.
const EXIT_QUARANTINED: i32 = 3;

fn datasets_list(rest: &[String]) -> i32 {
    let mut data_dir: Option<String> = None;
    let mut tsv = false;
    Flags::new()
        .optional("--data-dir", &mut data_dir)
        .choice("--format", FORMATS, &mut tsv)
        .parse_or_exit(rest);
    let data_dir = datasets::DataDir::from_flag_or_env(data_dir.as_deref());

    if tsv {
        println!("source\tarchive\tseries_files\tmultivariate_files\tskipped");
    }
    // Files the discovery walk could not classify are never silently
    // dropped: each one gets a stderr warning, and the per-archive
    // skipped count shows up in both output formats.
    let list_tree = |source: &str, label: &str, dir: &datasets::DataDir| match dir.archives() {
        Ok(archives) if !archives.is_empty() => {
            if !tsv {
                println!("{label} ({}):", dir.root().display());
            }
            for a in archives {
                for p in &a.skipped {
                    eprintln!(
                        "warning: {}: skipped {}: not a recognized series file",
                        a.name,
                        p.display()
                    );
                }
                if tsv {
                    println!(
                        "{source}\t{}\t{}\t{}\t{}",
                        a.name,
                        a.files.len(),
                        a.multivariate_files.len(),
                        a.skipped.len()
                    );
                } else {
                    let mv = a.multivariate_files.len();
                    let mv_note = if mv > 0 {
                        format!(" + {mv} multi-channel")
                    } else {
                        String::new()
                    };
                    let skip_note = if a.skipped.is_empty() {
                        String::new()
                    } else {
                        format!(" ({} skipped)", a.skipped.len())
                    };
                    println!(
                        "  {:<12} {:>4} series files{mv_note}{skip_note}",
                        a.name,
                        a.files.len()
                    );
                }
            }
        }
        Ok(_) => {
            if !tsv {
                println!("{label} ({}): no archives", dir.root().display());
            }
        }
        Err(e) => {
            if tsv {
                eprintln!(
                    "warning: {label} ({}): unreadable: {e}",
                    dir.root().display()
                );
            } else {
                println!("{label} ({}): unreadable: {e}", dir.root().display());
            }
        }
    };

    match &data_dir {
        Some(dir) => list_tree("real", "real archives", dir),
        None if !tsv => println!(
            "real archives: none (set {} or pass --data-dir)",
            datasets::DATA_DIR_ENV
        ),
        None => {}
    }
    if !tsv {
        println!();
    }
    list_tree(
        "fixtures",
        "bundled fixtures",
        &datasets::DataDir::open(datasets::fixtures_dir()),
    );
    if !tsv {
        println!();
        println!("synthetic stand-ins (Table 1 profiles):");
    }
    for a in datasets::Archive::all() {
        let spec = a.spec();
        if tsv {
            println!("synthetic\t{}\t{}\t0\t0", spec.name, spec.n_series);
        } else {
            println!(
                "  {:<12} {:>4} series, median length {:>9}, median segments {:>3}{}",
                spec.name,
                spec.n_series,
                spec.len.1,
                spec.segments.1,
                if spec.is_benchmark {
                    "  [benchmark]"
                } else {
                    ""
                }
            );
        }
    }
    0
}

fn parse_datasets_run_args(rest: &[String]) -> DatasetsRunArgs {
    let mut args = DatasetsRunArgs {
        files: Vec::new(),
        class: ClassFlags::archive(),
        rate: None,
        tsv: false,
        channels: None,
        fusion: FusionChoice::Quorum,
        extract_channels: false,
        guard_nan_burst: None,
        guard_flatline: None,
        metrics_addr: None,
        bundle_out: None,
    };
    args.class
        .define(Flags::new())
        .positionals(&mut args.files)
        .positive("--rate", &mut args.rate)
        .choice("--format", FORMATS, &mut args.tsv)
        .optional_at_least("--channels", 1, &mut args.channels)
        .optional_at_least("--guard-nan-burst", 1, &mut args.guard_nan_burst)
        .optional_at_least("--guard-flatline", 1, &mut args.guard_flatline)
        .switch("--extract-channels", &mut args.extract_channels)
        .optional("--metrics-addr", &mut args.metrics_addr)
        .optional("--bundle-out", &mut args.bundle_out)
        .value("--fusion", |v| {
            args.fusion = match v {
                "quorum" => FusionChoice::Quorum,
                "any" => FusionChoice::Any,
                other => match other.parse::<usize>() {
                    Ok(k) if k >= 1 => FusionChoice::Votes(k),
                    _ => {
                        return Err(format!(
                            "--fusion must be quorum, any, or a positive vote count, got {other}"
                        ))
                    }
                },
            };
            Ok(())
        })
        .parse_or_exit(rest);
    if args.files.is_empty() {
        usage_error("datasets run needs at least one FILE");
    }
    // Fused-path knobs have no meaning when every channel runs as its
    // own univariate stream.
    if args.extract_channels && args.channels.is_some() {
        usage_error("--channels applies to the fused run, not --extract-channels");
    }
    if args.extract_channels && args.fusion != FusionChoice::Quorum {
        usage_error("--fusion applies to the fused run, not --extract-channels");
    }
    args
}

/// Everything one scored file prints, regardless of channel count.
#[derive(Default)]
struct FileScore {
    name: String,
    archive: &'static str,
    points: usize,
    width: usize,
    channels: usize,
    true_cps: Vec<u64>,
    found: Vec<u64>,
    records_in: u64,
    elapsed: std::time::Duration,
}

impl FileScore {
    fn print(&self, tsv: bool, stats: &eval::DelayStats, cov: f64) {
        let delay = stats
            .mean_delay()
            .map(|d| format!("{d:.0}"))
            .unwrap_or_else(|| "-".into());
        if tsv {
            println!(
                "{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.2}\t{delay}\t{}",
                self.name,
                self.points,
                self.width,
                fmt_cps(&self.true_cps),
                fmt_cps(&self.found),
                cov,
                stats.detection_rate(),
                self.channels,
            );
        } else {
            println!("series: {} ({})", self.name, self.archive);
            println!(
                "points: {}, width: {}, channels: {}, true cps: [{}]",
                self.points,
                self.width,
                self.channels,
                fmt_cps(&self.true_cps)
            );
            println!("found cps: [{}]", fmt_cps(&self.found));
            println!("covering: {cov:.4}");
            println!(
                "detection rate: {:.2}, mean delay: {delay}, false alarms: {}",
                stats.detection_rate(),
                stats.false_alarms
            );
            println!(
                "throughput: {:.0} pts/s\n",
                self.records_in as f64 / self.elapsed.as_secs_f64().max(1e-9)
            );
        }
    }
}

/// Scores engine output records against annotations: `(sorted deduped
/// change points, covering, delay stats)`. Flush-time reports
/// (timestamp `u64::MAX`) count as emitted at end-of-stream.
fn score_records(
    records: &[stream_engine::Record<u64>],
    true_cps: &[u64],
    n_points: usize,
    width: usize,
) -> (Vec<u64>, f64, eval::DelayStats) {
    let mut found: Vec<u64> = records.iter().map(|r| r.value).collect();
    found.sort_unstable();
    found.dedup();
    let cov = eval::covering(true_cps, &found, n_points as u64);
    let timed: Vec<eval::TimedReport> = records
        .iter()
        .map(|r| eval::TimedReport {
            emitted_at: if r.timestamp == u64::MAX {
                n_points as u64
            } else {
                r.timestamp
            },
            cp: r.value,
        })
        .collect();
    // Localisation tolerance: the paper's minimum-segment margin of
    // 5 subsequence widths (ClaSP's `excl_radius`); profile maxima
    // systematically sit a couple of widths before the annotation.
    let stats = eval::delay_stats(true_cps, &timed, 5 * width as u64);
    (found, cov, stats)
}

/// What `datasets run` accumulates across files for the `--bundle-out`
/// provenance bundle.
#[derive(Default)]
struct RunTally {
    files: usize,
    records: u64,
    change_points: usize,
    covering_sum: f64,
    quarantined: usize,
}

/// Replays one univariate series (file-loaded or channel-extracted)
/// with the `--guard-*` stream guard.
fn replay_univariate_series(
    args: &DatasetsRunArgs,
    series: datasets::AnnotatedSeries,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> i32 {
    let cfg = match args.class.config_for(series.len(), series.width) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {}: {e}", series.name);
            return 1;
        }
    };
    let mut source = stream_engine::ReplaySource::new(series.values.clone());
    if let Some(rate) = args.rate {
        source = source.with_rate(rate);
    }
    let opts = stream_engine::StreamOptions {
        guard: args
            .guard()
            .map(|(n, f)| stream_engine::GuardConfig::new(n, f)),
        name: Some(series.name.clone()),
        ..stream_engine::StreamOptions::default()
    };
    replay(
        args,
        FileScore {
            name: series.name.clone(),
            archive: series.archive,
            points: series.len(),
            width: series.width,
            channels: 1,
            true_cps: series.change_points.clone(),
            ..FileScore::default()
        },
        source,
        opts,
        move || stream_engine::SegmenterOperator::new(ClassSegmenter::new(cfg)),
        metrics,
        tally,
    )
}

/// Replays one series as a single stream through a 1-shard serving
/// engine — unpaced like the paper's §4.4 RAM-resident streams, or at
/// --rate records/sec like a live sensor feed; the ingest loop paces,
/// the shard steps the segmenter — then scores and prints it. The ring
/// carries `file.channels` interleaved records per point; counts are
/// reported per point so multi-channel throughput compares with
/// univariate files.
fn replay<Op>(
    args: &DatasetsRunArgs,
    mut file: FileScore,
    records: impl IntoIterator<Item = f64>,
    opts: stream_engine::StreamOptions,
    build: impl FnOnce() -> Op + Send,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> i32
where
    Op: stream_engine::Operator<In = f64, Out = u64>,
{
    let started = std::time::Instant::now();
    let (mut results, fed) = stream_engine::serve(stream_engine::EngineConfig::new(1), |engine| {
        if let Some(m) = metrics {
            m.attach(engine.stats_handle());
        }
        let mut handle = engine.register_with(opts, build);
        for v in records {
            handle.push(v)?;
        }
        Ok::<(), stream_engine::PushError>(())
    });
    file.elapsed = started.elapsed();
    let result = results.remove(0);
    if let Err(e) = fed {
        eprintln!("error: {}: ingest failed: {e}", file.name);
        return 1;
    }
    let (found, cov, stats) =
        score_records(&result.output, &file.true_cps, file.points, file.width);
    let per_point = file.channels as u64;
    file.found = found;
    file.records_in = result.records_in / per_point;
    tally.files += 1;
    tally.records += file.records_in;
    tally.change_points += file.found.len();
    tally.covering_sum += cov;
    file.print(args.tsv, &stats, cov);
    if let Some((cause, at_record)) = result.quarantine() {
        let unit = if per_point > 1 { "frame" } else { "record" };
        eprintln!(
            "quarantined: {} at {unit} {}: {cause} \
             ({} {unit}s processed, {} drained after the fault)",
            file.name,
            at_record / per_point,
            file.records_in,
            result.quarantined_after / per_point
        );
        tally.quarantined += 1;
        return EXIT_QUARANTINED;
    }
    0
}

/// Replays one multi-channel series (WFDB record, EDF or wide-CSV) as a
/// single fused stream through a 1-shard serving engine — channels
/// travel interleaved through one ring, the shard reassembles frames and
/// steps the quorum-fusion segmenter — and prints its scores.
fn replay_multivariate_series(
    args: &DatasetsRunArgs,
    series: datasets::MultivariateSeries,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> i32 {
    use class_core::{ChannelSelection, FusionStrategy, MultivariateClass, MultivariateConfig};

    let n = series.len();
    let n_channels = series.n_channels();
    let base = match args.class.config_for(n, series.width) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {}: {e}", series.name);
            return 1;
        }
    };
    let window = base.window_size;
    let mut cfg = MultivariateConfig::new(base, n_channels);
    // Overrides keep the default config's clustering tolerance, so
    // `--fusion N` with the default quorum count behaves identically to
    // no flag at all.
    let tolerance = cfg.fusion.tolerance();
    match args.fusion {
        FusionChoice::Quorum => {}
        FusionChoice::Any => cfg.fusion = FusionStrategy::Any { tolerance },
        FusionChoice::Votes(k) => {
            if k > n_channels {
                eprintln!("error: --fusion {k} exceeds the file's {n_channels} channels");
                return 2;
            }
            cfg.fusion = FusionStrategy::Quorum {
                min_votes: k,
                tolerance,
            };
        }
    }
    if let Some(k) = args.channels {
        if k > n_channels {
            eprintln!("error: --channels {k} exceeds the file's {n_channels} channels");
            return 2;
        }
        if k < n_channels {
            // Probe for half a window, floored at 64 frames but never
            // longer than the stream itself.
            cfg.selection = ChannelSelection::TopVariance {
                k,
                probe: (window / 2).max(64).min(n),
            };
            // Only the selected channels can vote, so a quorum sized for
            // the full channel count could never be satisfied. An
            // explicit contradictory --fusion N is a usage error; the
            // default quorum re-derives as a majority of the selection.
            match args.fusion {
                FusionChoice::Votes(v) if v > k => {
                    eprintln!(
                        "error: --fusion {v} can never be satisfied by the --channels {k} selection"
                    );
                    return 2;
                }
                FusionChoice::Quorum => {
                    cfg.fusion = FusionStrategy::Quorum {
                        min_votes: k.div_ceil(2).max(1),
                        tolerance,
                    };
                }
                _ => {}
            }
        }
    }

    // Per-channel degraded-input policy: a tripped channel is retired
    // inside the fused segmenter (votes re-quorumed) instead of taking
    // the whole stream down.
    cfg.channel_guard = args
        .guard()
        .map(|(n, f)| class_core::ChannelGuardConfig::new(n, f));

    let mut source = stream_engine::MultiChannelReplaySource::new(series.channels.clone());
    if let Some(rate) = args.rate {
        source = source.with_rate(rate);
    }
    let opts = stream_engine::StreamOptions {
        name: Some(series.name.clone()),
        ..stream_engine::StreamOptions::default()
    };
    replay(
        args,
        FileScore {
            name: series.name.clone(),
            archive: series.archive,
            points: n,
            width: series.width,
            channels: n_channels,
            true_cps: series.change_points.clone(),
            ..FileScore::default()
        },
        source.into_iter().flatten(),
        opts,
        move || {
            stream_engine::MultivariateSegmenterOperator::new(MultivariateClass::new(
                cfg, n_channels,
            ))
        },
        metrics,
        tally,
    )
}

fn datasets_run(rest: &[String]) -> i32 {
    let args = parse_datasets_run_args(rest);
    if args.tsv {
        println!(
            "series\tpoints\twidth\ttrue_cps\tfound_cps\tcovering\tdetection_rate\tmean_delay\tchannels"
        );
    }
    let metrics = match &args.metrics_addr {
        Some(addr) => match stream_engine::MetricsServer::bind(addr) {
            Ok(server) => {
                eprintln!("metrics: http://{}/metrics", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("error: binding metrics endpoint {addr}: {e}");
                return 1;
            }
        },
        None => None,
    };
    let metrics = metrics.as_ref();
    let started = std::time::Instant::now();
    let mut tally = RunTally::default();
    let mut code = 0;
    for file in &args.files {
        let path = std::path::Path::new(file);
        let archive = path
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str())
            .unwrap_or("archive");
        let kind = match datasets::classify_series_file(path) {
            Ok(Some(kind)) => kind,
            Ok(None) => {
                eprintln!(
                    "error: {}: not a loadable series file (expected .txt, .csv, .hea or .edf)",
                    path.display()
                );
                code = 1;
                break;
            }
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                code = 1;
                break;
            }
        };
        let loaded = match kind {
            datasets::SeriesKind::Univariate => datasets::load_series_file(path, archive)
                .map(|series| replay_univariate_series(&args, series, metrics, &mut tally)),
            // --extract-channels scores every channel as its own
            // `<name>/ch<c>` univariate stream against the record's shared
            // annotations (the paper's per-channel protocol), stopping at
            // the first failing channel.
            datasets::SeriesKind::Multivariate if args.extract_channels => {
                datasets::load_multivariate_file(path, archive).map(|series| {
                    series
                        .extract_channels()
                        .into_iter()
                        .map(|channel| {
                            replay_univariate_series(&args, channel, metrics, &mut tally)
                        })
                        .find(|&code| code != 0)
                        .unwrap_or(0)
                })
            }
            datasets::SeriesKind::Multivariate => datasets::load_multivariate_file(path, archive)
                .map(|series| replay_multivariate_series(&args, series, metrics, &mut tally)),
        };
        code = loaded.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            1
        });
        if code != 0 {
            break;
        }
    }
    // The bundle records whatever was processed, even on a quarantine
    // or error exit — a partial run is still evidence worth diffing.
    if let Some(path) = &args.bundle_out {
        let elapsed = started.elapsed().as_secs_f64();
        let mut bundle = eval::RunBundle::new("datasets-run");
        bundle.config("alpha", args.class.alpha());
        bundle.config(
            "window",
            args.class
                .window()
                .map_or_else(|| "auto".into(), |w| w.to_string()),
        );
        bundle.config("files", args.files.join(","));
        bundle.metric("files", tally.files as f64);
        bundle.metric("records", tally.records as f64);
        bundle.metric("change_points", tally.change_points as f64);
        bundle.metric(
            "covering_mean",
            if tally.files > 0 {
                tally.covering_sum / tally.files as f64
            } else {
                0.0
            },
        );
        bundle.metric("quarantined", tally.quarantined as f64);
        bundle.metric("elapsed_s", elapsed);
        if let Err(e) = bundle.write(path) {
            eprintln!("error: writing bundle {path}: {e}");
            if code == 0 {
                code = 1;
            }
        } else {
            eprintln!("bundle: {path}");
        }
    }
    code
}

// ---------------------------------------------------------------------------
// `serve-status` — inspect a serving engine via its observability surface
// ---------------------------------------------------------------------------

/// Fetches `/stats.json` from a live metrics endpoint with a plain
/// std-TCP HTTP/1.1 GET (2 s connect/read timeouts, `Connection:
/// close` so EOF delimits the body).
fn http_get_stats_json(addr: &str) -> Result<String, String> {
    use std::net::{TcpStream, ToSocketAddrs};
    let timeout = std::time::Duration::from_secs(2);
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no address resolved"))?;
    let mut conn =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("{addr}: {e}"))?;
    conn.set_read_timeout(Some(timeout)).ok();
    conn.set_write_timeout(Some(timeout)).ok();
    conn.write_all(
        format!("GET /stats.json HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: {status}"));
    }
    Ok(body.to_string())
}

/// `class-cli serve-status`: read a `class-serving-stats/v1` document
/// from a live endpoint or a snapshot file and summarise engine health.
fn serve_status(rest: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut tsv = false;
    Flags::new()
        .optional("--addr", &mut addr)
        .optional("--snapshot", &mut snapshot)
        .choice("--format", FORMATS, &mut tsv)
        .parse_or_exit(rest);
    let (source, doc) = match (&addr, &snapshot) {
        (Some(a), None) => match http_get_stats_json(a) {
            Ok(d) => (format!("http://{a}/stats.json"), d),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        },
        (None, Some(p)) => match std::fs::read_to_string(p) {
            Ok(d) => (p.clone(), d),
            Err(e) => {
                eprintln!("error: {p}: {e}");
                return 1;
            }
        },
        _ => usage_error("serve-status needs exactly one of --addr or --snapshot"),
    };
    let json = match eval::parse_json(&doc) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {source}: {e}");
            return 1;
        }
    };
    let schema = json.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if !schema.starts_with("class-serving-stats/") {
        eprintln!("error: {source}: not a serving-stats document (schema {schema:?})");
        return 1;
    }
    let num = |obj: &eval::Json, key: &str| obj.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let totals = match json.get("totals") {
        Some(t) => t.clone(),
        None => {
            eprintln!("error: {source}: missing totals");
            return 1;
        }
    };
    let quarantined = num(&totals, "quarantined") as u64;
    let streams = json
        .get("streams")
        .and_then(|s| s.as_arr())
        .unwrap_or(&[])
        .to_vec();

    if tsv {
        println!("stream\tname\tshard\tstate\trecords_in\tdrops\tqueue_depth\tp99_ns");
        for s in &streams {
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                num(s, "stream") as u64,
                s.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
                num(s, "shard") as u64,
                s.get("state").and_then(|v| v.as_str()).unwrap_or("?"),
                num(s, "records_in") as u64,
                num(s, "drops") as u64,
                num(s, "queue_depth") as u64,
                num(s, "p99_ns") as u64,
            );
        }
    } else {
        println!("serving stats from {source}");
        println!("uptime:       {:.1} s", num(&json, "uptime_s"));
        println!(
            "streams:      {} connected, {} active, {quarantined} quarantined",
            num(&totals, "streams") as u64,
            num(&totals, "active") as u64,
        );
        println!(
            "records in:   {} ({:.0} records/s)",
            num(&totals, "records_in") as u64,
            num(&totals, "records_per_sec"),
        );
        println!("drops:        {}", num(&totals, "drops") as u64);
        println!(
            "ingest lag:   {} records queued",
            num(&totals, "queue_depth") as u64
        );
        // The `net` object is additive: only engines with an ingestion
        // tier attached report it (serve --metrics-addr).
        if let Some(net) = json.get("net") {
            println!(
                "ingest tier:  {} connections accepted ({} open), {} frames, \
                 {} records, {} throttles, {} protocol errors",
                num(net, "accepted") as u64,
                num(net, "active") as u64,
                num(net, "frames") as u64,
                num(net, "records") as u64,
                num(net, "throttle_events") as u64,
                num(net, "protocol_errors") as u64,
            );
            for c in net
                .get("connections")
                .and_then(|v| v.as_arr())
                .unwrap_or(&[])
            {
                println!(
                    "  conn {} ({}): {}, {} streams, {} frames ({:.1}/s), \
                     {} records, {} throttles",
                    num(c, "conn") as u64,
                    c.get("peer").and_then(|v| v.as_str()).unwrap_or("?"),
                    if matches!(c.get("open"), Some(eval::Json::Bool(true))) {
                        "open"
                    } else {
                        "closed"
                    },
                    num(c, "streams") as u64,
                    num(c, "frames") as u64,
                    num(c, "frames_per_sec"),
                    num(c, "records") as u64,
                    num(c, "throttle_events") as u64,
                );
            }
        }
    }
    // Quarantine detail goes to stderr in both formats, like
    // `datasets run`, so scripts scraping stdout stay parseable.
    for s in &streams {
        if s.get("state").and_then(|v| v.as_str()) == Some("quarantined") {
            let detail = s.get("quarantine").cloned().unwrap_or(eval::Json::Null);
            eprintln!(
                "quarantined: stream {} ({}) at record {}: {}",
                num(s, "stream") as u64,
                s.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
                num(&detail, "at_record") as u64,
                detail
                    .get("cause")
                    .and_then(|v| v.as_str())
                    .unwrap_or("unknown cause"),
            );
        }
    }
    if quarantined > 0 {
        EXIT_QUARANTINED
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// `serve` / `feed` — the TCP ingestion tier from the command line
// ---------------------------------------------------------------------------

/// The `--policy` choices: a ring's backpressure policy.
const POLICIES: [(&str, stream_engine::Backpressure); 3] = [
    ("block", stream_engine::Backpressure::Block),
    ("drop-oldest", stream_engine::Backpressure::DropOldest),
    ("error", stream_engine::Backpressure::Error),
];

/// `class-cli serve`: bind a TCP ingestion server on a live serving
/// engine and step wire-registered ClaSS streams until idle (or forever).
fn serve_cmd(rest: &[String]) -> i32 {
    let mut listen = String::new();
    let mut shards = 2;
    let mut class = ClassFlags::live();
    let mut ring = stream_engine::RingConfig::default().capacity;
    let mut policy = stream_engine::Backpressure::Block;
    let mut metrics_addr: Option<String> = None;
    let mut idle_exit: Option<f64> = None;
    class
        .define(Flags::new())
        .parsed("--listen", &mut listen)
        .at_least("--shards", 1, &mut shards)
        .at_least("--ring", 1, &mut ring)
        .choice("--policy", POLICIES, &mut policy)
        .optional("--metrics-addr", &mut metrics_addr)
        .positive("--idle-exit", &mut idle_exit)
        .parse_or_exit(rest);
    if listen.is_empty() {
        usage_error("serve needs --listen HOST:PORT (use port 0 for an ephemeral port)");
    }
    let cfg = class.config();

    let engine_cfg = stream_engine::EngineConfig {
        shards,
        ring: stream_engine::RingConfig::new(ring, policy),
    };
    let started = std::time::Instant::now();
    let (results, code) = stream_engine::serve(engine_cfg, |engine| {
        let server = match stream_engine::IngestServer::bind(
            listen.as_str(),
            engine.registrar(),
            move |_req: &stream_engine::RegisterRequest| {
                stream_engine::SegmenterOperator::new(ClassSegmenter::new(cfg.clone()))
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: binding {listen}: {e}");
                return 1;
            }
        };
        // First stderr line by contract: scripts bind port 0 and parse
        // the resolved address from here.
        eprintln!("listening on {}", server.addr());
        let metrics = match &metrics_addr {
            Some(addr) => match stream_engine::MetricsServer::bind(addr) {
                Ok(m) => {
                    m.attach(engine.stats_handle());
                    m.attach_net(server.net_stats());
                    eprintln!("metrics: http://{}/metrics", m.addr());
                    Some(m)
                }
                Err(e) => {
                    eprintln!("error: binding metrics endpoint {addr}: {e}");
                    return 1;
                }
            },
            None => None,
        };
        let stats = server.net_stats();
        let poll = std::time::Duration::from_millis(100);
        let mut idle_since: Option<std::time::Instant> = None;
        loop {
            std::thread::sleep(poll);
            let Some(limit) = idle_exit else {
                continue;
            };
            let snap = stats.stats();
            if snap.accepted > 0 && snap.active == 0 {
                let since = *idle_since.get_or_insert_with(std::time::Instant::now);
                if since.elapsed().as_secs_f64() >= limit {
                    break;
                }
            } else {
                idle_since = None;
            }
        }
        let snap = stats.stats();
        eprintln!(
            "shutting down after {} connections, {} frames, {} records on the wire",
            snap.accepted,
            snap.frames(),
            snap.records()
        );
        drop(metrics);
        drop(server);
        0
    });
    if code != 0 {
        return code;
    }
    println!(
        "served {} wire streams in {:.1} s",
        results.len(),
        started.elapsed().as_secs_f64()
    );
    let mut code = 0;
    for r in &results {
        let mut found: Vec<u64> = r.output.iter().map(|rec| rec.value).collect();
        found.sort_unstable();
        found.dedup();
        println!(
            "stream {}: {} records, {} drops, {} change points [{}]",
            r.stream,
            r.records_in,
            r.drops,
            found.len(),
            fmt_cps(&found)
        );
        if let Some((cause, at_record)) = r.quarantine() {
            eprintln!(
                "quarantined: stream {} at record {at_record}: {cause}",
                r.stream
            );
            code = EXIT_QUARANTINED;
        }
    }
    code
}

/// Reads one value per line from `path` exactly like the stdin mode:
/// pick a delimited column, skip lines that do not parse.
fn read_values(path: &str, column: usize, delimiter: char) -> Result<Vec<f64>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut values = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("{path}: read failure: {e}"))?;
        let field = line.split(delimiter).nth(column).unwrap_or("");
        if let Ok(x) = field.trim().parse::<f64>() {
            values.push(x); // headers and malformed lines are skipped
        }
    }
    if values.is_empty() {
        return Err(format!("{path}: no numeric values in column {column}"));
    }
    Ok(values)
}

/// `class-cli feed`: stream local files to a running `serve` instance,
/// one wire stream per file, stop-and-wait batches.
fn feed_cmd(rest: &[String]) -> i32 {
    let mut connect = String::new();
    let mut batch = 512;
    let mut column = 0;
    let mut delimiter = ',';
    let mut ring: Option<usize> = None;
    let mut policy: Option<stream_engine::Backpressure> = None;
    let mut files = Vec::new();
    Flags::new()
        .parsed("--connect", &mut connect)
        .at_least("--batch", 1, &mut batch)
        .parsed("--column", &mut column)
        .character("--delimiter", &mut delimiter)
        .optional_at_least("--ring", 1, &mut ring)
        .choice(
            "--policy",
            POLICIES.map(|(name, p)| (name, Some(p))),
            &mut policy,
        )
        .positionals(&mut files)
        .parse_or_exit(rest);
    if connect.is_empty() {
        usage_error("feed needs --connect HOST:PORT");
    }
    if files.is_empty() {
        usage_error("feed needs at least one FILE");
    }
    // A requested ring only travels on REGISTER when either knob is
    // given; otherwise capacity 0 asks for the server's default.
    let req_ring = match (ring, policy) {
        (None, None) => None,
        (cap, pol) => Some(stream_engine::RingConfig::new(
            cap.unwrap_or_else(|| stream_engine::RingConfig::default().capacity),
            pol.unwrap_or(stream_engine::Backpressure::Block),
        )),
    };
    let client_name = format!("class-cli-feed/{}", std::process::id());
    let mut client = match stream_engine::NetClient::connect(connect.as_str(), &client_name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connecting {connect}: {e}");
            return 1;
        }
    };
    // ACK `received`/`drops` are cumulative per stream (= per file here);
    // the client's throttle counter spans the connection, so that one is
    // reported as a per-file delta.
    let mut throttled_before = 0u64;
    for file in &files {
        let values = match read_values(file, column, delimiter) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        let name = std::path::Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(file.as_str());
        let id = match client.register(name, req_ring) {
            Ok(id) => id,
            Err(e) => {
                eprintln!("error: {file}: register: {e}");
                return 1;
            }
        };
        for chunk in values.chunks(batch) {
            if let Err(e) = client.send_records(id, chunk) {
                eprintln!("error: {file}: send: {e}");
                return 1;
            }
        }
        let ack = match client.detach(id) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {file}: detach: {e}");
                return 1;
            }
        };
        let throttled = client.throttle_events();
        println!(
            "fed {name}: {} records read, {} acked, {} dropped, {} throttle events",
            values.len(),
            ack.received,
            ack.drops,
            throttled - throttled_before,
        );
        throttled_before = throttled;
    }
    0
}

fn fmt_cps(cps: &[u64]) -> String {
    cps.iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match raw.first().map(String::as_str) {
        Some("datasets") => match raw.get(1).map(String::as_str) {
            Some("list") => datasets_list(&raw[2..]),
            Some("run") => datasets_run(&raw[2..]),
            other => usage_error(format!(
                "expected `datasets list` or `datasets run`, got {:?}",
                other.unwrap_or("")
            )),
        },
        Some("serve-status") => serve_status(&raw[1..]),
        Some("serve") => serve_cmd(&raw[1..]),
        Some("feed") => feed_cmd(&raw[1..]),
        _ => segment_feed(&raw),
    };
    std::process::exit(code);
}

/// The default mode: segment a stdin / `--input` feed, printing change
/// points as they are detected.
fn segment_feed(rest: &[String]) -> i32 {
    let mut input: Option<String> = None;
    let mut class_flags = ClassFlags::live();
    let mut column = 0;
    let mut delimiter = ',';
    let mut tsv = false;
    let mut relearn = false;
    class_flags
        .define(Flags::new())
        .help(USAGE)
        .optional("--input", &mut input)
        .parsed("--column", &mut column)
        .character("--delimiter", &mut delimiter)
        .choice("--format", FORMATS, &mut tsv)
        .switch("--relearn", &mut relearn)
        .parse_or_exit(rest);
    let mut cfg = class_flags.config();
    cfg.relearn_width = relearn;
    let mut class = ClassSegmenter::new(cfg);

    let reader: Box<dyn Read> = match &input {
        Some(path) => match std::fs::File::open(path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                return 1;
            }
        },
        None => Box::new(std::io::stdin()),
    };
    let reader = BufReader::new(reader);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    if tsv {
        writeln!(out, "detected_at\tchange_point").unwrap();
    }
    let mut cps = Vec::new();
    let mut t: u64 = 0;
    let mut skipped = 0usize;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: read failure: {e}");
                return 1;
            }
        };
        let field = line.split(delimiter).nth(column).unwrap_or("");
        let Ok(x) = field.trim().parse::<f64>() else {
            skipped += 1;
            continue; // header or malformed line
        };
        let before = cps.len();
        class.step(x, &mut cps);
        for &cp in &cps[before..] {
            if tsv {
                writeln!(out, "{t}\t{cp}").unwrap();
            } else {
                writeln!(out, "t={t}: change point at {cp}").unwrap();
            }
        }
        t += 1;
    }
    let before = cps.len();
    class.finalize(&mut cps);
    for &cp in &cps[before..] {
        if tsv {
            writeln!(out, "{t}\t{cp}").unwrap();
        } else {
            writeln!(out, "end-of-stream: change point at {cp}").unwrap();
        }
    }
    if !tsv {
        writeln!(
            out,
            "processed {t} observations ({skipped} skipped), {} change points, width {:?}",
            cps.len(),
            class.width()
        )
        .unwrap();
    }
    0
}
