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

const USAGE: &str = "usage: compare_bundles A.json B.json \
     [--tolerance METRIC=F]... [--default-tolerance F]";

fn fail(msg: &str) -> ! {
    eprintln!("compare_bundles: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut overrides: Vec<(String, f64)> = Vec::new();
    let mut default_tolerance: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let spec = it
                    .next()
                    .unwrap_or_else(|| fail("--tolerance requires METRIC=F"));
                let (metric, value) = spec
                    .split_once('=')
                    .unwrap_or_else(|| fail(&format!("bad --tolerance {spec:?}: want METRIC=F")));
                let value: f64 = value
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad tolerance value {value:?}")));
                overrides.push((metric.to_string(), value));
            }
            "--default-tolerance" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--default-tolerance requires a value"));
                default_tolerance = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("bad --default-tolerance value {v:?}"))),
                );
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other if other.starts_with("--") => fail(&format!("unknown option {other}")),
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() != 2 {
        fail(USAGE);
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
