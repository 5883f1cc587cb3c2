//! Smoke tests for the user-facing `class-cli` binary: feed a synthetic
//! two-regime series via stdin and assert a change point lands near the
//! regime boundary with a clean exit code.

use std::io::Write;
use std::process::{Command, Stdio};

const CLI: &str = env!("CARGO_BIN_EXE_class-cli");

/// A stream whose frequency doubles at t = 3000 (the quickstart signal).
fn two_regime_input() -> String {
    let mut s = String::new();
    for i in 0..6000 {
        let x = if i < 3000 {
            (i as f64 * 0.2).sin()
        } else {
            (i as f64 * 0.5).sin()
        };
        s.push_str(&format!("{x}\n"));
    }
    s
}

fn run_cli(args: &[&str], input: &str) -> (String, String, i32) {
    let mut child = Command::new(CLI)
        .args(args)
        // The list subcommand consults CLASS_DATA_DIR; keep the smoke
        // tests hermetic regardless of the invoking environment.
        .env_remove("CLASS_DATA_DIR")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn class-cli");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait for class-cli");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn detects_the_regime_boundary_from_stdin() {
    let (stdout, stderr, code) = run_cli(
        &["--window", "2000", "--alpha", "1e-15", "--format", "tsv"],
        &two_regime_input(),
    );
    assert_eq!(code, 0, "non-zero exit; stderr: {stderr}");
    // TSV: header line, then `detected_at\tchange_point` rows.
    let cps: Vec<i64> = stdout
        .lines()
        .skip(1)
        .map(|l| {
            l.split('\t')
                .nth(1)
                .and_then(|f| f.parse().ok())
                .unwrap_or_else(|| panic!("malformed TSV row: {l:?}"))
        })
        .collect();
    assert!(
        cps.iter().any(|&cp| (cp - 3000).abs() < 500),
        "no change point near 3000; got {cps:?}\nstdout: {stdout}"
    );
}

#[test]
fn text_format_skips_headers_and_prints_a_summary() {
    let input = format!("value\n{}", two_regime_input());
    let (stdout, stderr, code) = run_cli(&["--window", "2000", "--alpha", "1e-15"], &input);
    assert_eq!(code, 0, "non-zero exit; stderr: {stderr}");
    let summary = stdout
        .lines()
        .last()
        .expect("summary line on non-empty output");
    assert!(
        summary.starts_with("processed 6000 observations (1 skipped)"),
        "unexpected summary: {summary}"
    );
}

#[test]
fn serve_and_feed_round_trip_over_tcp() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join("class-cli-smoke-net");
    std::fs::create_dir_all(&dir).unwrap();
    let data_path = dir.join("two-regime.txt");
    std::fs::write(&data_path, two_regime_input()).unwrap();

    // An ephemeral-port server: the resolved address is, by contract,
    // the first stderr line.
    let mut serve = Command::new(CLI)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--window",
            "2000",
            "--alpha",
            "1e-15",
            "--idle-exit",
            "0.5",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn class-cli serve");
    let mut serve_err = std::io::BufReader::new(serve.stderr.take().expect("stderr piped"));
    let mut first = String::new();
    serve_err.read_line(&mut first).expect("read listen line");
    let addr = first
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {first:?}"))
        .to_string();

    // Feed the same file twice: ACK `received` is cumulative per
    // *stream*, so each registration must report its own full count.
    let data_arg = data_path.display().to_string();
    let (stdout, stderr, code) = run_cli(&["feed", "--connect", &addr, &data_arg, &data_arg], "");
    assert_eq!(code, 0, "feed failed: {stderr}");
    assert_eq!(
        stdout
            .matches("fed two-regime: 6000 records read, 6000 acked, 0 dropped")
            .count(),
        2,
        "{stdout}"
    );

    // The producer detached, so --idle-exit shuts the server down and
    // its stdout carries the terminal per-stream ledger.
    let out = serve.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0), "serve exit");
    let stdout = String::from_utf8(out.stdout).expect("utf8 serve stdout");
    assert!(stdout.contains("served 2 wire streams"), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("stream 1:")),
        "{stdout}"
    );
    let row = stdout
        .lines()
        .find(|l| l.starts_with("stream 0:"))
        .unwrap_or_else(|| panic!("no stream row in {stdout:?}"));
    assert!(row.contains("6000 records, 0 drops"), "{row}");
    let cps: Vec<i64> = row
        .split_once('[')
        .and_then(|(_, rest)| rest.strip_suffix(']'))
        .unwrap_or_else(|| panic!("no change point list in {row:?}"))
        .split_whitespace()
        .map(|c| c.parse().expect("numeric change point"))
        .collect();
    assert!(
        cps.iter().any(|&cp| (cp - 3000).abs() < 500),
        "no change point near 3000 over the wire; got {cps:?}"
    );
    std::fs::remove_file(&data_path).ok();
}

#[test]
fn serve_and_feed_usage_errors_exit_2() {
    let (_, stderr, code) = run_cli(&["serve"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--listen"), "{stderr}");

    let (_, stderr, code) = run_cli(&["serve", "--listen", "127.0.0.1:0", "--policy", "x"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--policy must be"), "{stderr}");

    let (_, stderr, code) = run_cli(&["feed", "--connect", "127.0.0.1:1"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("at least one FILE"), "{stderr}");

    // A connect failure (nothing listening) is a runtime error, not usage.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let dir = std::env::temp_dir().join("class-cli-smoke-net");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("tiny.txt");
    std::fs::write(&f, "1\n2\n3\n").unwrap();
    let (_, stderr, code) = run_cli(
        &[
            "feed",
            "--connect",
            &format!("127.0.0.1:{port}"),
            &f.display().to_string(),
        ],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error: connecting"), "{stderr}");
    std::fs::remove_file(&f).ok();
}

#[test]
fn small_window_with_a_wide_width_runs_to_completion() {
    // ceil(1.5 w) exceeds d - w + 1 here, so no subsequence is ever
    // eligible as a neighbour: every list stays empty, nothing panics.
    let (stdout, stderr, code) = run_cli(&["--window", "16", "--width", "8"], &two_regime_input());
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.lines().last().is_some(), "no summary line");
}

#[test]
fn too_small_windows_are_usage_errors() {
    let runs: [&[&str]; 3] = [
        &["--window", "10"],
        &["datasets", "run", "--window", "15", "ignored.txt"],
        &["serve", "--listen", "127.0.0.1:0", "--window", "8"],
    ];
    for args in runs {
        let (_, stderr, code) = run_cli(args, "");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains("--window must be at least 16"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn non_numeric_flag_values_are_usage_errors() {
    for flag in ["--width", "--alpha", "--column", "--jump", "--window"] {
        let (_, stderr, code) = run_cli(&[flag, "abc"], "");
        assert_eq!(code, 2, "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("numeric {flag}")),
            "{flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

#[test]
fn help_exits_cleanly_and_unknown_flags_do_not() {
    let (stdout, _, code) = run_cli(&["--help"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("USAGE"));

    let (_, stderr, code) = run_cli(&["--no-such-flag"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown argument"));
}

fn fixture(rel: &str) -> String {
    datasets::fixtures_dir().join(rel).display().to_string()
}

#[test]
fn datasets_list_shows_fixtures_and_synthetic_archives() {
    let (stdout, stderr, code) = run_cli(&["datasets", "list"], "");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("bundled fixtures"), "{stdout}");
    assert!(stdout.contains("TSSB"), "{stdout}");
    assert!(stdout.contains("UTSA"), "{stdout}");
    assert!(stdout.contains("synthetic stand-ins"), "{stdout}");
    assert!(stdout.contains("[benchmark]"), "{stdout}");
}

#[test]
fn datasets_run_scores_a_fixture_against_its_annotations() {
    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            &fixture("TSSB/SineFreqDouble_50_900.txt"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(
        stdout.contains("series: tssb/SineFreqDouble (TSSB)"),
        "{stdout}"
    );
    assert!(stdout.contains("true cps: [900]"), "{stdout}");
    let cov_line = stdout
        .lines()
        .find(|l| l.starts_with("covering: "))
        .unwrap_or_else(|| panic!("no covering line in {stdout}"));
    let cov: f64 = cov_line["covering: ".len()..]
        .trim()
        .parse()
        .expect("covering value");
    assert!((0.0..=1.0).contains(&cov), "{cov_line}");
    assert!(cov > 0.6, "covering too low for a clear change: {cov_line}");
}

#[test]
fn datasets_run_tsv_emits_one_row_per_file() {
    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--format",
            "tsv",
            &fixture("TSSB/SineToSawtooth_40_800.txt"),
            &fixture("UTSA/EcgRhythmShift.csv"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].starts_with("series\tpoints\twidth"), "{stdout}");
    assert!(
        lines[1].starts_with("tssb/SineToSawtooth\t1800\t40\t800\t"),
        "{stdout}"
    );
    assert!(
        lines[2].starts_with("utsa/EcgRhythmShift\t2200\t60\t1100\t"),
        "{stdout}"
    );
}

#[test]
fn datasets_run_scores_a_wfdb_fixture_through_the_serving_engine() {
    let (stdout, stderr, code) = run_cli(&["datasets", "run", &fixture("ArrDB/r100.hea")], "");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("series: arrdb/r100 (ArrDB)"), "{stdout}");
    assert!(stdout.contains("channels: 2"), "{stdout}");
    assert!(stdout.contains("true cps: [1000]"), "{stdout}");
    let cov_line = stdout
        .lines()
        .find(|l| l.starts_with("covering: "))
        .unwrap_or_else(|| panic!("no covering line in {stdout}"));
    let cov: f64 = cov_line["covering: ".len()..].trim().parse().unwrap();
    assert!(cov > 0.6, "covering too low for a clear change: {cov_line}");
    assert!(
        stdout.contains("detection rate: 1.00"),
        "annotated change undetected: {stdout}"
    );
}

#[test]
fn datasets_run_scores_a_wide_csv_fixture_with_fusion_knobs() {
    // Default quorum fusion.
    let (stdout, stderr, code) =
        run_cli(&["datasets", "run", &fixture("mHealth/AnkleGait.csv")], "");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(
        stdout.contains("series: mhealth/AnkleGait (mHealth)"),
        "{stdout}"
    );
    assert!(stdout.contains("channels: 3"), "{stdout}");
    assert!(stdout.contains("detection rate: 1.00"), "{stdout}");

    // --fusion any and --channels top-k selection also run cleanly.
    for extra in [
        &["--fusion", "any"][..],
        &["--channels", "2"][..],
        &["--fusion", "2"][..],
    ] {
        let mut args = vec!["datasets", "run"];
        args.extend_from_slice(extra);
        let file = fixture("mHealth/AnkleGait.csv");
        args.push(&file);
        let (stdout, stderr, code) = run_cli(&args, "");
        assert_eq!(code, 0, "{extra:?}: {stderr}");
        assert!(stdout.contains("covering:"), "{extra:?}: {stdout}");
    }

    // Knobs exceeding the channel count are usage errors.
    let (_, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--channels",
            "9",
            &fixture("mHealth/AnkleGait.csv"),
        ],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("exceeds"), "{stderr}");
    let (_, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--fusion",
            "9",
            &fixture("mHealth/AnkleGait.csv"),
        ],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("exceeds"), "{stderr}");

    // A vote count the --channels selection can never satisfy is a
    // usage error, not a silent zero-detection run.
    let (_, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--channels",
            "2",
            "--fusion",
            "3",
            &fixture("mHealth/AnkleGait.csv"),
        ],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("never be satisfied"), "{stderr}");

    // Selecting a single channel re-derives the default quorum so
    // detection still works (regression: min_votes used to stay sized
    // for the full channel count, making fusion impossible).
    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--channels",
            "1",
            &fixture("mHealth/AnkleGait.csv"),
        ],
        "",
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("detection rate: 1.00"), "{stdout}");
}

#[test]
fn datasets_run_scores_an_edf_fixture_through_the_serving_engine() {
    let (stdout, stderr, code) = run_cli(&["datasets", "run", &fixture("SleepDB/psg01.edf")], "");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(
        stdout.contains("series: sleepdb/psg01 (SleepDB)"),
        "{stdout}"
    );
    assert!(stdout.contains("channels: 2"), "{stdout}");
    assert!(stdout.contains("true cps: [1000]"), "{stdout}");
    let cov_line = stdout
        .lines()
        .find(|l| l.starts_with("covering: "))
        .unwrap_or_else(|| panic!("no covering line in {stdout}"));
    let cov: f64 = cov_line["covering: ".len()..].trim().parse().unwrap();
    assert!(cov > 0.6, "covering too low for a clear change: {cov_line}");
    assert!(
        stdout.contains("detection rate: 1.00"),
        "annotated change undetected: {stdout}"
    );
}

#[test]
fn datasets_run_extract_channels_scores_each_channel_separately() {
    // The per-channel protocol: one TSV row per channel, each an
    // addressable `<record>/ch<c>` univariate stream scored against the
    // record's shared annotations. Works for every multi-channel format;
    // EDF and wide-CSV cover both binary and text loaders.
    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--extract-channels",
            "--format",
            "tsv",
            &fixture("SleepDB/psg01.edf"),
            &fixture("mHealth/AnkleGait.csv"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "{stdout}");
    assert!(
        lines[1].starts_with("sleepdb/psg01/ch0\t2000\t25\t1000\t"),
        "{stdout}"
    );
    assert!(
        lines[2].starts_with("sleepdb/psg01/ch1\t2000\t25\t1000\t"),
        "{stdout}"
    );
    assert!(
        lines[3].starts_with("mhealth/AnkleGait/ch0\t2200\t30\t1100\t"),
        "{stdout}"
    );
    // Every extracted row is a single-channel stream.
    for row in &lines[1..] {
        assert!(row.ends_with("\t1"), "{row}");
    }

    // A univariate file passes through extraction mode unchanged.
    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--extract-channels",
            &fixture("TSSB/SineFreqDouble_50_900.txt"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("series: tssb/SineFreqDouble"), "{stdout}");

    // Fused-path knobs are rejected in extraction mode.
    for extra in [&["--fusion", "any"][..], &["--channels", "2"][..]] {
        let mut args = vec!["datasets", "run", "--extract-channels"];
        args.extend_from_slice(extra);
        let file = fixture("mHealth/AnkleGait.csv");
        args.push(&file);
        let (_, stderr, code) = run_cli(&args, "");
        assert_eq!(code, 2, "{extra:?}: {stderr}");
        assert!(stderr.contains("--extract-channels"), "{stderr}");
    }
}

#[test]
fn datasets_run_reports_malformed_edf_with_its_byte_offset() {
    // The committed BadCalib.edf has its signal-0 digital-minimum header
    // field corrupted; the loader pins the error to that field's offset
    // (256-byte fixed header + 3 signals x label/transducer/dimension/
    // phys-min/phys-max fields).
    let offset = 256 + 3 * (16 + 80 + 8 + 8 + 8);
    let (_, stderr, code) = run_cli(&["datasets", "run", &fixture("malformed/BadCalib.edf")], "");
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("BadCalib.edf"), "{stderr}");
    assert!(stderr.contains(&format!("at byte {offset}")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn datasets_list_tsv_counts_skipped_files_and_fixtures_have_none() {
    let (stdout, stderr, code) = run_cli(&["datasets", "list", "--format", "tsv"], "");
    assert_eq!(code, 0, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines[0], "source\tarchive\tseries_files\tmultivariate_files\tskipped",
        "{stdout}"
    );
    let fixture_rows: Vec<&&str> = lines
        .iter()
        .filter(|l| l.starts_with("fixtures\t"))
        .collect();
    assert!(fixture_rows.len() >= 6, "{stdout}");
    // The silent-skip audit bar: discovery classifies every bundled
    // fixture file, so the skipped column is 0 across the tree.
    for row in &fixture_rows {
        assert!(row.ends_with("\t0"), "unclassified fixture files: {row}");
    }
    assert!(
        fixture_rows
            .iter()
            .any(|r| r.starts_with("fixtures\tSleepDB\t0\t2\t0")),
        "{stdout}"
    );
    assert!(
        stderr.lines().all(|l| !l.contains("skipped")),
        "fixture tree produced skip warnings: {stderr}"
    );

    // A directory with a stray unloadable file surfaces it: warned on
    // stderr, counted in the skipped column.
    let dir = std::env::temp_dir().join("class-cli-smoke-skip");
    let arch = dir.join("Strays");
    std::fs::create_dir_all(&arch).unwrap();
    std::fs::write(arch.join("Tone_4_3.txt"), "0.5\n1.5\n-0.25\n2\n7.125\n").unwrap();
    std::fs::write(arch.join("notes.rec"), "raw dump\n").unwrap();
    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "list",
            "--format",
            "tsv",
            "--data-dir",
            &dir.display().to_string(),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("real\tStrays\t1\t0\t1"), "{stdout}");
    assert!(
        stderr.contains("notes.rec") && stderr.contains("skipped"),
        "{stderr}"
    );
}

#[test]
fn datasets_run_tsv_is_byte_identical_across_runs() {
    // The acceptance bar for the multivariate serving path: scoring a
    // WFDB record and a wide-CSV file (plus a univariate control) is
    // fully deterministic — two runs produce identical bytes.
    let args = [
        "datasets",
        "run",
        "--format",
        "tsv",
        &fixture("ArrDB/r201.hea"),
        &fixture("mHealth/ChestActivity.csv"),
        &fixture("TSSB/SineFreqDouble_50_900.txt"),
    ];
    let (a, stderr, code) = run_cli(&args, "");
    assert_eq!(code, 0, "stderr: {stderr}");
    let (b, _, _) = run_cli(&args, "");
    assert_eq!(a, b, "two runs differ");
    let lines: Vec<&str> = a.lines().collect();
    assert_eq!(lines.len(), 4, "{a}");
    assert!(lines[0].ends_with("\tchannels"), "{a}");
    assert!(lines[1].starts_with("arrdb/r201\t2100\t55\t1200\t"), "{a}");
    assert!(lines[1].ends_with("\t2"), "{a}");
    assert!(
        lines[2].starts_with("mhealth/ChestActivity\t2400\t35\t900 1700\t"),
        "{a}"
    );
    assert!(lines[2].ends_with("\t3"), "{a}");
    assert!(
        lines[3].starts_with("tssb/SineFreqDouble\t1800\t50\t900\t"),
        "{a}"
    );
    assert!(lines[3].ends_with("\t1"), "{a}");
}

#[test]
fn datasets_run_channel_selection_survives_tiny_files() {
    // Regression: the TopVariance probe length used to be computed with
    // `clamp(64, n)`, which panics when a valid multi-channel file has
    // fewer than 64 frames.
    let dir = std::env::temp_dir().join("class-cli-smoke-tiny-wide");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("Tiny.csv");
    let mut body = String::from("# window=8\na,b,label\n");
    for i in 0..40 {
        body.push_str(&format!(
            "{}.5,{}.25,{}\n",
            i % 3,
            i % 2,
            usize::from(i >= 20)
        ));
    }
    std::fs::write(&path, body).unwrap();
    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--channels",
            "1",
            &path.display().to_string(),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stdout.contains("covering:"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn datasets_run_reports_malformed_multivariate_files() {
    // WFDB header with an unsupported signal format code.
    let (_, stderr, code) = run_cli(
        &["datasets", "run", &fixture("malformed/BadFormat.hea")],
        "",
    );
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("BadFormat.hea:2:15:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Wide-CSV with a non-numeric channel value.
    let (_, stderr, code) = run_cli(&["datasets", "run", &fixture("malformed/BadWide.csv")], "");
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("BadWide.csv:4:6:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn datasets_run_reports_line_and_column_on_malformed_files() {
    let (_, stderr, code) = run_cli(
        &["datasets", "run", &fixture("malformed/BadValue_20_600.txt")],
        "",
    );
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("BadValue_20_600.txt:4:1:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let (_, stderr, code) = run_cli(&["datasets", "run", &fixture("malformed/BadLabel.csv")], "");
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("BadLabel.csv:4:6:"), "{stderr}");

    // File-level diagnostics (no usable annotations) have no line/col.
    let (_, stderr, code) = run_cli(
        &["datasets", "run", &fixture("malformed/NoAnnotations.txt")],
        "",
    );
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("NoAnnotations.txt: "), "{stderr}");
}

#[test]
fn datasets_subcommand_usage_errors_exit_2() {
    let (_, stderr, code) = run_cli(&["datasets", "frobnicate"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("datasets list"), "{stderr}");

    let (_, stderr, code) = run_cli(&["datasets", "run"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("at least one FILE"), "{stderr}");

    // Bad replay rates are usage errors, not panics in the replay source.
    for rate in ["0", "-5", "NaN"] {
        let (_, stderr, code) = run_cli(&["datasets", "run", "--rate", rate, "ignored.txt"], "");
        assert_eq!(code, 2, "--rate {rate}: {stderr}");
        assert!(stderr.contains("positive"), "--rate {rate}: {stderr}");
        assert!(!stderr.contains("panicked"), "--rate {rate}: {stderr}");
    }
}

#[test]
fn datasets_run_quarantines_a_flatlined_stream_with_exit_code_3() {
    // A sensor that sticks mid-stream: with --guard-flatline the stream
    // is quarantined (cause + record index on stderr, exit code 3);
    // without the guard the same file runs clean to exit 0.
    let dir = std::env::temp_dir().join("class-cli-smoke-flatline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("DeadSensor_25_300.txt");
    let mut body = String::new();
    for i in 0..600 {
        let v = if i < 300 { (i as f64 * 0.3).sin() } else { 0.5 };
        body.push_str(&format!("{v}\n"));
    }
    std::fs::write(&path, body).unwrap();
    let file = path.display().to_string();

    let (stdout, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--window",
            "100",
            "--guard-flatline",
            "50",
            &file,
        ],
        "",
    );
    assert_eq!(code, 3, "stdout: {stdout}\nstderr: {stderr}");
    // The 50th consecutive stuck value is record 349 (the run starts at
    // record 300); the report names the stream, position, and cause.
    assert!(stderr.contains("quarantined: "), "{stderr}");
    assert!(stderr.contains("DeadSensor at record 349"), "{stderr}");
    assert!(
        stderr.contains("flatline: 50 consecutive values stuck at"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    let (_, stderr, code) = run_cli(&["datasets", "run", "--window", "100", &file], "");
    assert_eq!(code, 0, "stderr: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn datasets_run_guard_flags_validate_their_values() {
    for flag in ["--guard-nan-burst", "--guard-flatline"] {
        let (_, stderr, code) = run_cli(&["datasets", "run", flag, "0", "ignored.txt"], "");
        assert_eq!(code, 2, "{flag}: {stderr}");
        assert!(stderr.contains("at least 1"), "{flag}: {stderr}");
    }
}

// ---------------------------------------------------------------------------
// serve-status + observability flags
// ---------------------------------------------------------------------------

#[test]
fn serve_status_reads_a_live_metrics_endpoint() {
    use stream_engine::{feed_all, EngineConfig, StreamOptions, TumblingWindowMean};
    let n_streams = 4usize;
    let data: Vec<Vec<f64>> = (0..n_streams)
        .map(|k| {
            (0..500)
                .map(|t| (t as f64 * 0.2 + k as f64).sin())
                .collect()
        })
        .collect();
    // Run the CLI against the endpoint from inside the serve body: the
    // engine is complete but its registry is still live, so the scrape
    // sees the terminal ledger.
    let (results, (text, tsv)) = stream_engine::serve(EngineConfig::new(2), |engine| {
        let server = engine
            .serve_metrics("127.0.0.1:0")
            .expect("ephemeral metrics port");
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..n_streams)
            .map(|k| {
                engine.register_with(
                    StreamOptions {
                        name: Some(format!("smoke/{k}")),
                        ..StreamOptions::default()
                    },
                    move || TumblingWindowMean::new(8),
                )
            })
            .collect();
        let slices: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
        feed_all(handles, &slices).expect("feed completes");
        (
            run_cli(&["serve-status", "--addr", &addr], ""),
            run_cli(&["serve-status", "--addr", &addr, "--format", "tsv"], ""),
        )
    });
    assert_eq!(results.len(), n_streams);

    let (stdout, stderr, code) = text;
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("streams:      4 connected"), "{stdout}");
    assert!(stdout.contains("records in:   2000"), "{stdout}");
    assert!(stdout.contains("drops:        0"), "{stdout}");

    let (stdout, stderr, code) = tsv;
    assert_eq!(code, 0, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1 + n_streams, "{stdout}");
    assert!(
        lines[0].starts_with("stream\tname\tshard\tstate"),
        "{stdout}"
    );
    assert!(lines[1].starts_with("0\tsmoke/0\t"), "{stdout}");
    assert!(lines[1].contains("\tdone\t500\t0\t"), "{stdout}");
}

#[test]
fn serve_status_falls_back_to_a_snapshot_file_and_flags_quarantines() {
    use std::time::Duration;
    use stream_engine::{
        render_stats_json, QuarantineCause, ServingStats, StreamState, StreamStats,
    };
    let mk = |stream: usize, state: StreamState, done: bool| StreamStats {
        stream,
        name: format!("snap/{stream}"),
        shard: 0,
        records_in: 900,
        drops: 0,
        quarantined_after: if done { 0 } else { 100 },
        pushed: 1000,
        healed: 0,
        skipped: 0,
        queue_depth: 0,
        done,
        state,
        p50: Duration::from_nanos(1024),
        p99: Duration::from_nanos(8192),
        mean: Duration::from_nanos(2000),
    };
    let healthy = ServingStats {
        streams: vec![mk(0, StreamState::Done, true)],
        shards: Vec::new(),
        uptime: Duration::from_secs(5),
    };
    let degraded = ServingStats {
        streams: vec![
            mk(0, StreamState::Done, true),
            mk(
                1,
                StreamState::Quarantined {
                    cause: QuarantineCause::OperatorPanic {
                        message: "sensor died".into(),
                    },
                    at_record: 900,
                },
                false,
            ),
        ],
        shards: Vec::new(),
        uptime: Duration::from_secs(5),
    };
    let dir = std::env::temp_dir().join("class-cli-smoke-status");
    std::fs::create_dir_all(&dir).unwrap();

    let ok_path = dir.join("healthy.json");
    std::fs::write(&ok_path, render_stats_json(&healthy, None)).unwrap();
    let (stdout, stderr, code) = run_cli(
        &["serve-status", "--snapshot", &ok_path.display().to_string()],
        "",
    );
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("records in:   900"), "{stdout}");

    let bad_path = dir.join("degraded.json");
    std::fs::write(&bad_path, render_stats_json(&degraded, None)).unwrap();
    let (stdout, stderr, code) = run_cli(
        &[
            "serve-status",
            "--snapshot",
            &bad_path.display().to_string(),
        ],
        "",
    );
    assert_eq!(code, 3, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("1 quarantined"), "{stdout}");
    assert!(
        stderr.contains("quarantined: stream 1 (snap/1) at record 900: operator panic"),
        "{stderr}"
    );
    std::fs::remove_file(&ok_path).ok();
    std::fs::remove_file(&bad_path).ok();
}

#[test]
fn serve_status_error_and_usage_paths() {
    // Nothing listens on a fresh ephemeral port: fetch errors exit 1.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
        // listener drops here, freeing the port
    };
    let (_, stderr, code) = run_cli(
        &["serve-status", "--addr", &format!("127.0.0.1:{port}")],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");

    // Missing and conflicting sources are usage errors.
    let (_, stderr, code) = run_cli(&["serve-status"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("exactly one of"), "{stderr}");
    let (_, stderr, code) = run_cli(&["serve-status", "--addr", "x", "--snapshot", "y"], "");
    assert_eq!(code, 2, "{stderr}");

    // A readable file that is not a serving-stats document exits 1.
    let dir = std::env::temp_dir().join("class-cli-smoke-status");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-stats.json");
    std::fs::write(&path, "{\"schema\": \"class-run-bundle/v1\"}").unwrap();
    let (_, stderr, code) = run_cli(
        &["serve-status", "--snapshot", &path.display().to_string()],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("not a serving-stats document"), "{stderr}");
    std::fs::remove_file(&path).ok();

    let (_, stderr, code) = run_cli(&["serve-status", "--format", "xml"], "");
    assert_eq!(code, 2, "{stderr}");
}

#[test]
fn datasets_run_emits_a_provenance_bundle_and_serves_metrics() {
    let dir = std::env::temp_dir().join("class-cli-smoke-bundle");
    std::fs::create_dir_all(&dir).unwrap();
    let bundle_path = dir.join("run.json");
    let (_, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--bundle-out",
            &bundle_path.display().to_string(),
            // An ephemeral-port endpoint proves the flag binds and serves
            // without hardcoding a port that CI might already use.
            "--metrics-addr",
            "127.0.0.1:0",
            &fixture("TSSB/SineFreqDouble_50_900.txt"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("metrics: http://127.0.0.1:"), "{stderr}");
    assert!(stderr.contains("bundle: "), "{stderr}");
    let doc = std::fs::read_to_string(&bundle_path).expect("bundle written");
    assert!(doc.contains("\"schema\": \"class-run-bundle/v1\""), "{doc}");
    assert!(doc.contains("\"tool\": \"datasets-run\""), "{doc}");
    assert!(doc.contains("\"records\": 1800"), "{doc}");
    assert!(doc.contains("\"simd_backend\""), "{doc}");

    // The bundle is loadable and self-comparable through the library
    // path the compare_bundles binary uses.
    let bundle = eval::RunBundle::load(bundle_path.display().to_string()).expect("parses");
    let report = eval::compare(&bundle, &bundle, &[], None).expect("comparable to itself");
    assert!(report.is_clean(), "{report:?}");

    // An unbindable metrics address fails loudly up front.
    let (_, stderr, code) = run_cli(
        &[
            "datasets",
            "run",
            "--metrics-addr",
            "256.0.0.1:0",
            &fixture("TSSB/SineFreqDouble_50_900.txt"),
        ],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("binding metrics endpoint"), "{stderr}");
    std::fs::remove_file(&bundle_path).ok();
}

// ---------------------------------------------------------------------------
// One flag parser: every usage error is `error: <msg>` and exit 2
// ---------------------------------------------------------------------------

#[test]
fn usage_errors_share_one_shape_across_subcommands() {
    let fixture = fixture("TSSB/SineFreqDouble_50_900.txt");
    let stdin: &[&str] = &[];
    let run: &[&str] = &["datasets", "run", &fixture];
    let feed: &[&str] = &["feed", "--connect", "127.0.0.1:1", "f.txt"];
    let serve: &[&str] = &["serve", "--listen", "127.0.0.1:0"];
    let mut cases: Vec<(Vec<&str>, String)> = Vec::new();
    // Every subcommand: an unknown flag, a missing value, a bad value.
    let table: [(&[&str], &str, [&str; 2]); 6] = [
        (stdin, "--window", ["--jump", "abc"]),
        (&["datasets", "list"], "--data-dir", ["--format", "xml"]),
        (run, "--rate", ["--channels", "abc"]),
        (&["serve-status"], "--addr", ["--format", "xml"]),
        (serve, "--ring", ["--shards", "abc"]),
        (feed, "--policy", ["--batch", "abc"]),
    ];
    for (sub, missing, bad) in table {
        let unknown = "unknown argument --no-such-flag".to_string();
        cases.push(([sub, &["--no-such-flag"]].concat(), unknown));
        cases.push((
            [sub, &[missing]].concat(),
            format!("{missing} requires a value"),
        ));
        cases.push(([sub, &bad].concat(), bad[0].to_string()));
    }
    // Values that used to fall back silently.
    for sub in [stdin, run, serve] {
        for alpha in ["0", "nan", "2"] {
            let want = "--alpha must be in (0, 1)".to_string();
            cases.push(([sub, &["--alpha", alpha]].concat(), want));
        }
    }
    for sub in [stdin, run] {
        let want = "--format must be text|tsv".to_string();
        cases.push(([sub, &["--format", "xml"]].concat(), want));
    }
    for sub in [stdin, feed] {
        for d in ["", ";;"] {
            let want = "--delimiter must be exactly one character".to_string();
            cases.push(([sub, &["--delimiter", d]].concat(), want));
        }
    }
    for (args, want) in cases {
        let (_, stderr, code) = run_cli(&args, "");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn datasets_run_rejects_a_file_shorter_than_the_minimum_window() {
    let dir = std::env::temp_dir().join("class-cli-smoke-tiny");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("Tiny_3_6.txt");
    let body: String = (0..12)
        .map(|i| format!("{}\n", (i as f64 * 0.3).sin()))
        .collect();
    std::fs::write(&path, body).unwrap();
    let (stdout, stderr, code) = run_cli(&["datasets", "run", &path.display().to_string()], "");
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stderr.contains("12 points, shorter than the minimum window 16"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&path).ok();
}
