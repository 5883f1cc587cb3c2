//! `compare_bundles` — diff two provenance-stamped run bundles.
//!
//! The single comparison path for every `--bundle-out` artefact
//! (`serve_soak`, `class-cli datasets run`): load
//! two `class-run-bundle/v1` documents, check that they are comparable
//! at all (same schema version, tool, and config — anything else errors
//! loudly instead of producing a meaningless diff), then judge each
//! shared metric against a per-metric relative tolerance.
//!
//! ```sh
//! compare_bundles A.json B.json \
//!     [--tolerance METRIC=F]... [--default-tolerance F]
//! ```
//!
//! Exit codes: `0` every metric within tolerance, `1` at least one
//! violation (each named on stderr), `2` usage / IO / incomparable
//! bundles.

use eval::bundle::{compare, RunBundle};
use eval::cli::{usage_error, Flags};

const USAGE: &str = "usage: compare_bundles A.json B.json \
     [--tolerance METRIC=F]... [--default-tolerance F]\n";

fn fail(msg: &str) -> ! {
    eprintln!("compare_bundles: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut overrides: Vec<(String, f64)> = Vec::new();
    let mut default_tolerance: Option<f64> = None;
    Flags::new()
        .help(USAGE)
        .value("--tolerance", |spec| {
            let (metric, value) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad --tolerance {spec:?}: want METRIC=F"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("bad tolerance value {value:?}"))?;
            overrides.push((metric.to_string(), value));
            Ok(())
        })
        .optional("--default-tolerance", &mut default_tolerance)
        .positionals(&mut paths)
        .parse_or_exit(std::env::args().skip(1));
    if paths.len() != 2 {
        usage_error(USAGE.trim_end());
    }

    let a = RunBundle::load(&paths[0]).unwrap_or_else(|e| fail(&e));
    let b = RunBundle::load(&paths[1]).unwrap_or_else(|e| fail(&e));
    let report = compare(&a, &b, &overrides, default_tolerance).unwrap_or_else(|e| fail(&e));

    println!(
        "comparing {} ({} seed={:?} {}) vs {} ({} seed={:?} {})",
        paths[0],
        a.git_describe,
        a.seed,
        a.simd_backend,
        paths[1],
        b.git_describe,
        b.seed,
        b.simd_backend
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    println!(
        "{:<28} {:>16} {:>16} {:>9} {:>9}  verdict",
        "metric", "a", "b", "delta%", "tol%"
    );
    for d in &report.diffs {
        println!(
            "{:<28} {:>16} {:>16} {:>8.2}% {:>8.0}%  {}",
            d.name,
            d.a,
            d.b,
            d.rel * 100.0,
            d.tolerance * 100.0,
            if d.beyond { "VIOLATION" } else { "ok" }
        );
    }

    let violations = report.violations();
    if violations.is_empty() {
        println!(
            "compare_bundles: OK — {} metrics within tolerance",
            report.diffs.len()
        );
    } else {
        for d in &violations {
            eprintln!(
                "compare_bundles: metric {} differs by {:.2}% (tolerance {:.0}%): {} vs {}",
                d.name,
                d.rel * 100.0,
                d.tolerance * 100.0,
                d.a,
                d.b
            );
        }
        std::process::exit(1);
    }
}
