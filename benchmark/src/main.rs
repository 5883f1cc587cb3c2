//! The repository's benchmark: three workloads over the ClaSS library
//! crates, driven through their public API only. Run from the repository
//! root:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-d10k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is 1 if any correctness check failed, 2 on bad arguments.
//! README.md lists the workloads, the metrics, and which layer metric
//! should move which end-to-end metric.

mod calib;
mod inputs;
mod paper;
mod quality;
mod replay;
mod report;
mod serving;
mod sys;

use report::Report;
use serving::Transport;
use std::time::Duration;

/// End-to-end metrics and their units, as `BENCHMARK.json` declares them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "records/s"),
    ("records_per_cpu_s", "records/cpu_s"),
    ("step_p50_us", "us"),
    ("step_p99_us", "us"),
    ("warmup_stall_ms", "ms"),
    ("detect_delay_pts", "points"),
    ("covering", "ratio"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` declares them.
const PER_LAYER: &[(&str, &str)] = &[
    ("knn.update_ns", "ns"),
    ("knn.update_calls", "count"),
    ("crossval.compute_ns", "ns"),
    ("crossval.compute_calls", "count"),
    ("class.argmax_ns", "ns"),
    ("class.candidate_ratio", "ratio"),
    ("stats.significance_ns", "ns"),
    ("stats.significance_calls", "count"),
    ("stats.significance_pass_ratio", "ratio"),
    ("wss.select_width_ms", "ms"),
    ("class.warmup_replay_ms", "ms"),
    ("engine.register_ms", "ms"),
    ("feed.wall_s", "s"),
    ("feed.cpu_s", "s"),
    ("feed.backoff_rounds", "count"),
    ("shard.op_busy_share", "ratio"),
    ("shard.overhead_share", "ratio"),
    ("shard.sleep_share", "ratio"),
    ("engine.queue_depth_p50", "records"),
    ("engine.queue_depth_max", "records"),
    ("engine.drain_ms", "ms"),
    ("engine.sequential_ratio", "ratio"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.send_ns", "ns"),
    ("net.ack_wait_ns", "ns"),
    ("net.throttle_per_frame", "ratio"),
    ("ack_p50_us", "us"),
    ("ack_p95_us", "us"),
    ("net.ack_p99_us", "us"),
    ("net.ack_p999_us", "us"),
    ("server.cpu_per_record_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_ms", "ms"),
    ("datasets.generate_ms", "ms"),
    ("ledger.unattributed_share", "ratio"),
    ("ledger.trace_overhead", "ratio"),
];

const USAGE: &str =
    "usage: class-benchmark --workload paper-d10k|fleet-inproc|wire-paced --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must lie in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("class-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let budget = Duration::from_secs_f64(args.seconds);
    let (started, steal0) = (std::time::Instant::now(), sys::steal());
    let mut report = Report::default();
    report.info(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    match args.workload.as_str() {
        "paper-d10k" => paper::run(args.seed, budget, args.trace, &mut report),
        "fleet-inproc" => serving::run(
            Transport::InProcess,
            args.seed,
            budget,
            args.trace,
            &mut report,
        ),
        "wire-paced" => serving::run(Transport::Wire, args.seed, budget, args.trace, &mut report),
        other => {
            eprintln!("class-benchmark: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
    // Other tenants of a virtual machine's host show up here first.
    report.info(format!(
        "host steal: {:.2} % of {} cores over the run",
        100.0 * sys::steal().saturating_sub(steal0).as_secs_f64()
            / (started.elapsed().as_secs_f64() * sys::nproc() as f64),
        sys::nproc()
    ));
    if args.trace {
        // A layer this workload's records never pass through reads 0.
        let absent = report.fill_absent(PER_LAYER);
        if !absent.is_empty() {
            report.info(format!(
                "layers not on this workload's path, reported as 0: {}",
                absent.join(", ")
            ));
        }
        report.finish(PER_LAYER)
    } else {
        report.finish(END_TO_END)
    }
}
