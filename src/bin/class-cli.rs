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

use class_core::class::MIN_WINDOW_SIZE;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection, WssMethod};
use std::io::{BufRead, BufReader, Read, Write};

struct CliArgs {
    input: Option<String>,
    window: usize,
    width: Option<usize>,
    wss: WssMethod,
    alpha: f64,
    column: usize,
    delimiter: char,
    format: String,
    relearn: bool,
    jump: Option<usize>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            input: None,
            window: 10_000,
            width: None,
            wss: WssMethod::Suss,
            alpha: 1e-50,
            column: 0,
            delimiter: ',',
            format: "text".into(),
            relearn: false,
            jump: None,
        }
    }
}

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
    --alpha P          significance level (default 1e-50)
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

/// Parses a `--window` value: a window `ClassSegmenter` accepts, so a
/// too-small one is a usage error rather than a panic.
fn parse_window(v: &str) -> Result<usize, String> {
    let d: usize = v.parse().map_err(|_| "numeric --window")?;
    if d < MIN_WINDOW_SIZE {
        return Err(format!(
            "--window must be at least {MIN_WINDOW_SIZE}, got {d}"
        ));
    }
    Ok(d)
}

/// Parses a numeric flag value, or exits with a usage error (status 2).
fn numeric<T: std::str::FromStr>(name: &str, v: &str) -> T {
    v.parse()
        .map_err(|_| format!("numeric {name}, got {v:?}"))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
}

fn parse_args() -> CliArgs {
    let mut args = CliArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--input" => args.input = Some(grab("--input")),
            "--window" => {
                args.window = parse_window(&grab("--window")).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                })
            }
            "--width" => args.width = Some(numeric("--width", &grab("--width"))),
            "--wss" => {
                args.wss = match grab("--wss").as_str() {
                    "suss" => WssMethod::Suss,
                    "fft" => WssMethod::FftDominant,
                    "acf" => WssMethod::Acf,
                    "mwf" => WssMethod::Mwf,
                    other => {
                        eprintln!("error: unknown WSS method {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--alpha" => args.alpha = numeric("--alpha", &grab("--alpha")),
            "--column" => args.column = numeric("--column", &grab("--column")),
            "--delimiter" => args.delimiter = grab("--delimiter").chars().next().unwrap_or(','),
            "--format" => args.format = grab("--format"),
            "--relearn" => args.relearn = true,
            "--jump" => {
                let j: usize = numeric("--jump", &grab("--jump"));
                if j == 0 {
                    eprintln!("error: --jump must be at least 1");
                    std::process::exit(2);
                }
                args.jump = Some(j);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    args
}

// ---------------------------------------------------------------------------
// `datasets` subcommands
// ---------------------------------------------------------------------------

/// How `datasets run` fuses per-channel votes on multi-channel files.
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
    window: Option<usize>,
    width: Option<usize>,
    alpha: f64,
    rate: Option<f64>,
    tsv: bool,
    channels: Option<usize>,
    fusion: FusionChoice,
    extract_channels: bool,
    jump: Option<usize>,
    guard_nan_burst: Option<usize>,
    guard_flatline: Option<usize>,
    metrics_addr: Option<String>,
    bundle_out: Option<String>,
}

impl DatasetsRunArgs {
    /// The serving engine's per-stream guard from the `--guard-*` flags
    /// (`None` when neither flag is given: values pass verbatim).
    fn stream_guard(&self) -> Option<stream_engine::GuardConfig> {
        if self.guard_nan_burst.is_none() && self.guard_flatline.is_none() {
            return None;
        }
        Some(stream_engine::GuardConfig::new(
            self.guard_nan_burst.unwrap_or(0),
            self.guard_flatline.unwrap_or(0),
        ))
    }

    /// The per-channel guard multivariate files run with.
    fn channel_guard(&self) -> Option<class_core::ChannelGuardConfig> {
        if self.guard_nan_burst.is_none() && self.guard_flatline.is_none() {
            return None;
        }
        Some(class_core::ChannelGuardConfig::new(
            self.guard_nan_burst.unwrap_or(0),
            self.guard_flatline.unwrap_or(0),
        ))
    }
}

/// Exit code for a run in which at least one stream was quarantined.
const EXIT_QUARANTINED: i32 = 3;

fn datasets_main(args: Vec<String>) -> ! {
    let code = match args.first().map(String::as_str) {
        Some("list") => datasets_list(&args[1..]),
        Some("run") => datasets_run(&args[1..]),
        other => {
            eprintln!(
                "error: expected `datasets list` or `datasets run`, got {:?}\n\n{USAGE}",
                other.unwrap_or("")
            );
            2
        }
    };
    std::process::exit(code);
}

fn datasets_list(rest: &[String]) -> i32 {
    let mut data_dir = datasets::DataDir::from_env();
    let mut tsv = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data-dir" => match it.next() {
                Some(p) => data_dir = Some(datasets::DataDir::open(p)),
                None => {
                    eprintln!("error: --data-dir requires a value");
                    return 2;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => tsv = false,
                Some("tsv") => tsv = true,
                other => {
                    eprintln!("error: --format must be text or tsv, got {other:?}");
                    return 2;
                }
            },
            other => {
                eprintln!("error: unknown argument {other}");
                return 2;
            }
        }
    }

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

fn parse_datasets_run_args(rest: &[String]) -> Result<DatasetsRunArgs, String> {
    let mut out = DatasetsRunArgs {
        files: Vec::new(),
        window: None,
        width: None,
        alpha: 1e-15,
        rate: None,
        tsv: false,
        channels: None,
        fusion: FusionChoice::Quorum,
        extract_channels: false,
        jump: None,
        guard_nan_burst: None,
        guard_flatline: None,
        metrics_addr: None,
        bundle_out: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--window" => out.window = Some(parse_window(&grab("--window")?)?),
            "--width" => out.width = Some(grab("--width")?.parse().map_err(|_| "numeric --width")?),
            "--alpha" => out.alpha = grab("--alpha")?.parse().map_err(|_| "numeric --alpha")?,
            "--rate" => {
                let rate: f64 = grab("--rate")?.parse().map_err(|_| "numeric --rate")?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(format!("--rate must be a positive number, got {rate}"));
                }
                out.rate = Some(rate);
            }
            "--format" => out.tsv = grab("--format")? == "tsv",
            "--jump" => {
                let j: usize = grab("--jump")?.parse().map_err(|_| "numeric --jump")?;
                if j == 0 {
                    return Err("--jump must be at least 1".into());
                }
                out.jump = Some(j);
            }
            "--channels" => {
                let k: usize = grab("--channels")?
                    .parse()
                    .map_err(|_| "numeric --channels")?;
                if k == 0 {
                    return Err("--channels must keep at least one channel".into());
                }
                out.channels = Some(k);
            }
            "--guard-nan-burst" => {
                let n: usize = grab("--guard-nan-burst")?
                    .parse()
                    .map_err(|_| "numeric --guard-nan-burst")?;
                if n == 0 {
                    return Err("--guard-nan-burst must be at least 1".into());
                }
                out.guard_nan_burst = Some(n);
            }
            "--guard-flatline" => {
                let n: usize = grab("--guard-flatline")?
                    .parse()
                    .map_err(|_| "numeric --guard-flatline")?;
                if n == 0 {
                    return Err("--guard-flatline must be at least 1".into());
                }
                out.guard_flatline = Some(n);
            }
            "--extract-channels" => out.extract_channels = true,
            "--metrics-addr" => out.metrics_addr = Some(grab("--metrics-addr")?),
            "--bundle-out" => out.bundle_out = Some(grab("--bundle-out")?),
            "--fusion" => {
                let v = grab("--fusion")?;
                out.fusion = match v.as_str() {
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
            }
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag}")),
            file => out.files.push(file.to_string()),
        }
    }
    if out.files.is_empty() {
        return Err("datasets run needs at least one FILE".into());
    }
    if out.extract_channels {
        // Fused-path knobs have no meaning when every channel runs as
        // its own univariate stream.
        if out.channels.is_some() {
            return Err("--channels applies to the fused run, not --extract-channels".into());
        }
        if !matches!(out.fusion, FusionChoice::Quorum) {
            return Err("--fusion applies to the fused run, not --extract-channels".into());
        }
    }
    Ok(out)
}

/// Everything one scored file prints, regardless of channel count.
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

/// Replays one univariate archive file through a 1-shard serving engine
/// and prints its scores.
fn run_univariate_file(
    args: &DatasetsRunArgs,
    path: &std::path::Path,
    archive: &str,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> i32 {
    let series = match datasets::load_series_file(path, archive) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    replay_univariate_series(args, series, metrics, tally)
}

/// Replays one extracted multi-channel file per channel: each channel of
/// the record becomes its own `<name>/ch<c>` univariate stream scored
/// against the record's shared annotations — the paper's per-channel
/// protocol, as opposed to the fused run.
fn run_extracted_channels(
    args: &DatasetsRunArgs,
    path: &std::path::Path,
    archive: &str,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> i32 {
    let series = match datasets::load_multivariate_file(path, archive) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for channel in series.extract_channels() {
        code = replay_univariate_series(args, channel, metrics, tally);
        if code != 0 {
            break;
        }
    }
    code
}

/// The shared engine replay for one univariate series (file-loaded or
/// channel-extracted): one stream on one shard, scored and printed.
fn replay_univariate_series(
    args: &DatasetsRunArgs,
    series: datasets::AnnotatedSeries,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> i32 {
    let mut cfg =
        ClassConfig::with_window_size(args.window.unwrap_or_else(|| series.len().min(10_000)));
    cfg.width = WidthSelection::Fixed(args.width.unwrap_or(series.width));
    cfg.log10_alpha = args.alpha.log10();
    if let Some(j) = args.jump {
        cfg.jump = j;
    }

    // Replay the loaded series through the serving engine — unpaced
    // like the paper's §4.4 RAM-resident streams, or at --rate
    // records/sec like a live sensor feed. One stream on one shard:
    // the ingest loop below paces, the shard steps the segmenter.
    let mut source = stream_engine::ReplaySource::new(series.values.clone());
    if let Some(rate) = args.rate {
        source = source.with_rate(rate);
    }
    let started = std::time::Instant::now();
    let retry = stream_engine::RetryPolicy::default();
    let guard = args.stream_guard();
    let stream_name = series.name.clone();
    let (mut results, fed) = stream_engine::serve(stream_engine::EngineConfig::new(1), |engine| {
        if let Some(m) = metrics {
            m.attach(engine.stats_handle());
        }
        let mut handle = engine.register_with(
            stream_engine::StreamOptions {
                guard,
                name: Some(stream_name),
                ..stream_engine::StreamOptions::default()
            },
            move || stream_engine::SegmenterOperator::new(ClassSegmenter::new(cfg)),
        );
        for v in source {
            handle.push_with_retry(v, &retry)?;
        }
        Ok::<(), stream_engine::IngestError>(())
    });
    let elapsed = started.elapsed();
    let result = results.remove(0);
    if let Err(e) = fed {
        eprintln!("error: {}: ingest failed: {e}", series.name);
        return 1;
    }
    let (found, cov, stats) = score_records(
        &result.output,
        &series.change_points,
        series.len(),
        series.width,
    );
    tally.files += 1;
    tally.records += result.records_in;
    tally.change_points += found.len();
    tally.covering_sum += cov;
    FileScore {
        name: series.name.clone(),
        archive: series.archive,
        points: series.len(),
        width: series.width,
        channels: 1,
        true_cps: series.change_points.clone(),
        found,
        records_in: result.records_in,
        elapsed,
    }
    .print(args.tsv, &stats, cov);
    if let Some((cause, at_record)) = result.quarantine() {
        eprintln!(
            "quarantined: {} at record {at_record}: {cause} \
             ({} records processed, {} drained after the fault)",
            series.name, result.records_in, result.quarantined_after
        );
        tally.quarantined += 1;
        return EXIT_QUARANTINED;
    }
    0
}

/// Replays one multi-channel archive file (WFDB record or wide-CSV) as a
/// single fused stream through a 1-shard serving engine — channels
/// travel interleaved through one ring, the shard reassembles frames and
/// steps the quorum-fusion segmenter — and prints its scores.
fn run_multivariate_file(
    args: &DatasetsRunArgs,
    path: &std::path::Path,
    archive: &str,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> i32 {
    use class_core::{ChannelSelection, FusionStrategy, MultivariateClass, MultivariateConfig};

    let series = match datasets::load_multivariate_file(path, archive) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let n = series.len();
    let n_channels = series.n_channels();
    let window = args.window.unwrap_or_else(|| n.min(10_000));
    let mut base = ClassConfig::with_window_size(window);
    base.width = WidthSelection::Fixed(args.width.unwrap_or(series.width));
    base.log10_alpha = args.alpha.log10();
    if let Some(j) = args.jump {
        base.jump = j;
    }
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
    cfg.channel_guard = args.channel_guard();

    let mut source = stream_engine::MultiChannelReplaySource::new(series.channels.clone());
    if let Some(rate) = args.rate {
        source = source.with_rate(rate);
    }
    let started = std::time::Instant::now();
    let retry = stream_engine::RetryPolicy::default();
    let stream_name = series.name.clone();
    let (mut results, fed) = stream_engine::serve(stream_engine::EngineConfig::new(1), |engine| {
        if let Some(m) = metrics {
            m.attach(engine.stats_handle());
        }
        let mut handle = engine.register_with(
            stream_engine::StreamOptions {
                name: Some(stream_name),
                ..stream_engine::StreamOptions::default()
            },
            move || {
                stream_engine::MultivariateSegmenterOperator::new(MultivariateClass::new(
                    cfg, n_channels,
                ))
            },
        );
        for row in source {
            for v in row {
                handle.push_with_retry(v, &retry)?;
            }
        }
        Ok::<(), stream_engine::IngestError>(())
    });
    let elapsed = started.elapsed();
    let result = results.remove(0);
    if let Err(e) = fed {
        eprintln!("error: {}: ingest failed: {e}", series.name);
        return 1;
    }
    let (found, cov, stats) = score_records(&result.output, &series.change_points, n, series.width);
    tally.files += 1;
    tally.records += result.records_in / n_channels as u64;
    tally.change_points += found.len();
    tally.covering_sum += cov;
    FileScore {
        name: series.name.clone(),
        archive: series.archive,
        points: n,
        width: series.width,
        channels: n_channels,
        true_cps: series.change_points.clone(),
        found,
        // The ring carried frames x channels interleaved records; report
        // throughput in frames so it is comparable to univariate files.
        records_in: result.records_in / n_channels as u64,
        elapsed,
    }
    .print(args.tsv, &stats, cov);
    if let Some((cause, at_record)) = result.quarantine() {
        eprintln!(
            "quarantined: {} at frame {}: {cause}",
            series.name,
            at_record / n_channels as u64
        );
        tally.quarantined += 1;
        return EXIT_QUARANTINED;
    }
    0
}

fn datasets_run(rest: &[String]) -> i32 {
    let args = match parse_datasets_run_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
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
        code = match kind {
            datasets::SeriesKind::Univariate => {
                run_univariate_file(&args, path, archive, metrics.as_ref(), &mut tally)
            }
            datasets::SeriesKind::Multivariate if args.extract_channels => {
                run_extracted_channels(&args, path, archive, metrics.as_ref(), &mut tally)
            }
            datasets::SeriesKind::Multivariate => {
                run_multivariate_file(&args, path, archive, metrics.as_ref(), &mut tally)
            }
        };
        if code != 0 {
            break;
        }
    }
    // The bundle records whatever was processed, even on a quarantine
    // or error exit — a partial run is still evidence worth diffing.
    if let Some(path) = &args.bundle_out {
        let elapsed = started.elapsed().as_secs_f64();
        let mut bundle = eval::RunBundle::new("datasets-run");
        bundle.config("alpha", args.alpha);
        bundle.config(
            "window",
            args.window.map_or_else(|| "auto".into(), |w| w.to_string()),
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
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => {
                    eprintln!("error: --addr requires HOST:PORT");
                    return 2;
                }
            },
            "--snapshot" => match it.next() {
                Some(p) => snapshot = Some(p.clone()),
                None => {
                    eprintln!("error: --snapshot requires a path");
                    return 2;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("tsv") => tsv = true,
                Some("text") => tsv = false,
                other => {
                    eprintln!("error: --format must be text or tsv, got {other:?}");
                    return 2;
                }
            },
            other => {
                eprintln!("error: unknown argument {other}\n\n{USAGE}");
                return 2;
            }
        }
    }
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
        _ => {
            eprintln!("error: serve-status needs exactly one of --addr or --snapshot\n\n{USAGE}");
            return 2;
        }
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

/// Parses a `--policy` value into a ring backpressure policy.
fn parse_policy(v: &str) -> Result<stream_engine::Backpressure, String> {
    match v {
        "block" => Ok(stream_engine::Backpressure::Block),
        "drop-oldest" => Ok(stream_engine::Backpressure::DropOldest),
        "error" => Ok(stream_engine::Backpressure::Error),
        other => Err(format!(
            "--policy must be block, drop-oldest or error, got {other}"
        )),
    }
}

struct ServeArgs {
    listen: String,
    shards: usize,
    window: usize,
    width: Option<usize>,
    wss: WssMethod,
    alpha: f64,
    jump: Option<usize>,
    ring: usize,
    policy: stream_engine::Backpressure,
    metrics_addr: Option<String>,
    idle_exit: Option<f64>,
}

fn parse_serve_args(rest: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        listen: String::new(),
        shards: 2,
        window: 10_000,
        width: None,
        wss: WssMethod::Suss,
        alpha: 1e-50,
        jump: None,
        ring: stream_engine::RingConfig::default().capacity,
        policy: stream_engine::Backpressure::Block,
        metrics_addr: None,
        idle_exit: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => out.listen = grab("--listen")?,
            "--shards" => {
                let s: usize = grab("--shards")?.parse().map_err(|_| "numeric --shards")?;
                if s == 0 {
                    return Err("--shards must be at least 1".into());
                }
                out.shards = s;
            }
            "--window" => out.window = parse_window(&grab("--window")?)?,
            "--width" => out.width = Some(grab("--width")?.parse().map_err(|_| "numeric --width")?),
            "--wss" => {
                out.wss = match grab("--wss")?.as_str() {
                    "suss" => WssMethod::Suss,
                    "fft" => WssMethod::FftDominant,
                    "acf" => WssMethod::Acf,
                    "mwf" => WssMethod::Mwf,
                    other => return Err(format!("unknown WSS method {other}")),
                }
            }
            "--alpha" => out.alpha = grab("--alpha")?.parse().map_err(|_| "numeric --alpha")?,
            "--jump" => {
                let j: usize = grab("--jump")?.parse().map_err(|_| "numeric --jump")?;
                if j == 0 {
                    return Err("--jump must be at least 1".into());
                }
                out.jump = Some(j);
            }
            "--ring" => {
                let c: usize = grab("--ring")?.parse().map_err(|_| "numeric --ring")?;
                if c == 0 {
                    return Err("--ring must hold at least one record".into());
                }
                out.ring = c;
            }
            "--policy" => out.policy = parse_policy(&grab("--policy")?)?,
            "--metrics-addr" => out.metrics_addr = Some(grab("--metrics-addr")?),
            "--idle-exit" => {
                let s: f64 = grab("--idle-exit")?
                    .parse()
                    .map_err(|_| "numeric --idle-exit")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!(
                        "--idle-exit must be a positive number of seconds, got {s}"
                    ));
                }
                out.idle_exit = Some(s);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.listen.is_empty() {
        return Err("serve needs --listen HOST:PORT (use port 0 for an ephemeral port)".into());
    }
    Ok(out)
}

/// `class-cli serve`: bind a TCP ingestion server on a live serving
/// engine and step wire-registered ClaSS streams until idle (or forever).
fn serve_cmd(rest: &[String]) -> i32 {
    let args = match parse_serve_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    let mut cfg = ClassConfig::with_window_size(args.window);
    cfg.width = match args.width {
        Some(w) => WidthSelection::Fixed(w),
        None => WidthSelection::Learn(args.wss),
    };
    cfg.log10_alpha = args.alpha.log10();
    if let Some(j) = args.jump {
        cfg.jump = j;
    }

    let engine_cfg = stream_engine::EngineConfig {
        shards: args.shards,
        ring: stream_engine::RingConfig::new(args.ring, args.policy),
    };
    let started = std::time::Instant::now();
    let (results, code) = stream_engine::serve(engine_cfg, |engine| {
        let server = match stream_engine::IngestServer::bind(
            args.listen.as_str(),
            engine.registrar(),
            move |_req: &stream_engine::RegisterRequest| {
                stream_engine::SegmenterOperator::new(ClassSegmenter::new(cfg.clone()))
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: binding {}: {e}", args.listen);
                return 1;
            }
        };
        // First stderr line by contract: scripts bind port 0 and parse
        // the resolved address from here.
        eprintln!("listening on {}", server.addr());
        let metrics = match &args.metrics_addr {
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
            let Some(limit) = args.idle_exit else {
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

struct FeedArgs {
    connect: String,
    batch: usize,
    column: usize,
    delimiter: char,
    ring: Option<usize>,
    policy: Option<stream_engine::Backpressure>,
    files: Vec<String>,
}

fn parse_feed_args(rest: &[String]) -> Result<FeedArgs, String> {
    let mut out = FeedArgs {
        connect: String::new(),
        batch: 512,
        column: 0,
        delimiter: ',',
        ring: None,
        policy: None,
        files: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--connect" => out.connect = grab("--connect")?,
            "--batch" => {
                let b: usize = grab("--batch")?.parse().map_err(|_| "numeric --batch")?;
                if b == 0 {
                    return Err("--batch must send at least one record per frame".into());
                }
                out.batch = b;
            }
            "--column" => out.column = grab("--column")?.parse().map_err(|_| "numeric --column")?,
            "--delimiter" => out.delimiter = grab("--delimiter")?.chars().next().unwrap_or(','),
            "--ring" => {
                let c: usize = grab("--ring")?.parse().map_err(|_| "numeric --ring")?;
                if c == 0 {
                    return Err("--ring must hold at least one record".into());
                }
                out.ring = Some(c);
            }
            "--policy" => out.policy = Some(parse_policy(&grab("--policy")?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag}")),
            file => out.files.push(file.to_string()),
        }
    }
    if out.connect.is_empty() {
        return Err("feed needs --connect HOST:PORT".into());
    }
    if out.files.is_empty() {
        return Err("feed needs at least one FILE".into());
    }
    Ok(out)
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
    let args = match parse_feed_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    // A requested ring only travels on REGISTER when either knob is
    // given; otherwise capacity 0 asks for the server's default.
    let req_ring = match (args.ring, args.policy) {
        (None, None) => None,
        (cap, pol) => Some(stream_engine::RingConfig::new(
            cap.unwrap_or_else(|| stream_engine::RingConfig::default().capacity),
            pol.unwrap_or(stream_engine::Backpressure::Block),
        )),
    };
    let client_name = format!("class-cli-feed/{}", std::process::id());
    let mut client = match stream_engine::NetClient::connect(args.connect.as_str(), &client_name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connecting {}: {e}", args.connect);
            return 1;
        }
    };
    // ACK `received`/`drops` are cumulative per stream (= per file here);
    // the client's throttle counter spans the connection, so that one is
    // reported as a per-file delta.
    let mut throttled_before = 0u64;
    for file in &args.files {
        let values = match read_values(file, args.column, args.delimiter) {
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
        for chunk in values.chunks(args.batch) {
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
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("datasets") {
        raw.remove(0);
        datasets_main(raw);
    }
    if raw.first().map(String::as_str) == Some("serve-status") {
        std::process::exit(serve_status(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("serve") {
        std::process::exit(serve_cmd(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("feed") {
        std::process::exit(feed_cmd(&raw[1..]));
    }
    let args = parse_args();
    let mut cfg = ClassConfig::with_window_size(args.window);
    cfg.width = match args.width {
        Some(w) => WidthSelection::Fixed(w),
        None => WidthSelection::Learn(args.wss),
    };
    cfg.log10_alpha = args.alpha.log10();
    cfg.relearn_width = args.relearn;
    if let Some(j) = args.jump {
        cfg.jump = j;
    }
    let mut class = ClassSegmenter::new(cfg);

    let reader: Box<dyn Read> = match &args.input {
        Some(path) => Box::new(std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("error: cannot open {path}: {e}");
            std::process::exit(1);
        })),
        None => Box::new(std::io::stdin()),
    };
    let reader = BufReader::new(reader);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    let tsv = args.format == "tsv";
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
                std::process::exit(1);
            }
        };
        let field = line.split(args.delimiter).nth(args.column).unwrap_or("");
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
}
