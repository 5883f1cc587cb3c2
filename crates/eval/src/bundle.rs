//! Provenance-stamped run bundles: one comparison path for every
//! serving/benchmark artefact.
//!
//! A `RunBundle` records *how* a run was produced — tool, preset-style
//! config, seed, SIMD backend, `git describe` — next to its final
//! metrics, so any two runs can be diffed mechanically instead of
//! eyeballing ad-hoc JSON reports. `bench --bin compare_bundles` is the
//! CLI over [`compare`]; `serve_soak` and `class-cli datasets run` both
//! emit bundles via `--bundle-out`.
//!
//! The module also hosts the crate's minimal JSON value parser
//! ([`parse_json`]) — enough of RFC 8259 for the documents this
//! workspace writes (no external dependency, mirroring the hand-rolled
//! renderers everywhere else).

use std::path::Path;

/// Schema stamped into (and required of) every bundle document.
pub const BUNDLE_SCHEMA: &str = "class-run-bundle/v1";

// ---------------------------------------------------------------------------
// Minimal JSON value parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uDCxx`.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the document is a &str, so
                    // slicing at char boundaries is safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("short \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u hex"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }
}

/// Parses one JSON document into a [`Json`] value, rejecting trailing
/// garbage. Covers the subset this workspace emits (no duplicate-key
/// policy; objects keep document order).
pub fn parse_json(doc: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: doc.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// RunBundle
// ---------------------------------------------------------------------------

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repo) is unavailable — bundles must never fail to
/// render over provenance.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A provenance-stamped run record: what produced it, under what
/// configuration, and the final metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunBundle {
    /// Document schema ([`BUNDLE_SCHEMA`] when produced by this code).
    pub schema: String,
    /// Emitting tool (`serve-soak`, `serve-throughput`, `datasets-run`).
    pub tool: String,
    /// The run's RNG seed, when the tool is seeded.
    pub seed: Option<u64>,
    /// Active SIMD backend (`scalar` / `avx2`).
    pub simd_backend: String,
    /// `git describe --always --dirty` at run time.
    pub git_describe: String,
    /// Configuration knobs as ordered string pairs; two bundles must
    /// agree on these to be comparable.
    pub config: Vec<(String, String)>,
    /// Final metrics as ordered name/value pairs.
    pub metrics: Vec<(String, f64)>,
}

impl RunBundle {
    /// A new bundle for `tool`, stamped with the live SIMD backend and
    /// git description.
    pub fn new(tool: &str) -> RunBundle {
        RunBundle {
            schema: BUNDLE_SCHEMA.to_string(),
            tool: tool.to_string(),
            seed: None,
            simd_backend: class_core::simd::active_backend().name().to_string(),
            git_describe: git_describe(),
            config: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Sets the run seed.
    pub fn with_seed(mut self, seed: u64) -> RunBundle {
        self.seed = Some(seed);
        self
    }

    /// Appends a configuration pair.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Appends a metric. Non-finite values are stored as-is and rendered
    /// as `null` (then skipped on parse), so one broken metric can't
    /// corrupt the document.
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_string(), value));
    }

    /// Renders the bundle as its canonical JSON document.
    pub fn render_json(&self) -> String {
        let esc = |s: &str| {
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        };
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", esc(&self.schema)));
        out.push_str(&format!("  \"tool\": \"{}\",\n", esc(&self.tool)));
        match self.seed {
            Some(seed) => out.push_str(&format!("  \"seed\": {seed},\n")),
            None => out.push_str("  \"seed\": null,\n"),
        }
        out.push_str(&format!(
            "  \"simd_backend\": \"{}\",\n",
            esc(&self.simd_backend)
        ));
        out.push_str(&format!(
            "  \"git_describe\": \"{}\",\n",
            esc(&self.git_describe)
        ));
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\": \"{}\"{}",
                esc(k),
                esc(v),
                if i + 1 < self.config.len() { ", " } else { "" }
            ));
        }
        out.push_str("},\n");
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let rendered = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "\"{}\": {rendered}{}",
                esc(k),
                if i + 1 < self.metrics.len() { ", " } else { "" }
            ));
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a bundle document, validating its schema family. A
    /// document without a `class-run-bundle/*` schema errors loudly —
    /// that is the "don't compare garbage" gate.
    pub fn parse(doc: &str) -> Result<RunBundle, String> {
        let root = parse_json(doc)?;
        let schema = root
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("bundle has no \"schema\" key")?
            .to_string();
        if !schema.starts_with("class-run-bundle/") {
            return Err(format!(
                "schema {schema:?} is not a run bundle (expected {BUNDLE_SCHEMA:?})"
            ));
        }
        let tool = root
            .get("tool")
            .and_then(Json::as_str)
            .ok_or("bundle has no \"tool\" key")?
            .to_string();
        let seed = match root.get("seed") {
            Some(Json::Num(n)) => Some(*n as u64),
            _ => None,
        };
        let simd_backend = root
            .get("simd_backend")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let git = root
            .get("git_describe")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let mut config = Vec::new();
        if let Some(members) = root.get("config").and_then(Json::as_obj) {
            for (k, v) in members {
                let value = match v {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => format!("{n}"),
                    Json::Bool(b) => b.to_string(),
                    other => return Err(format!("config {k:?} has non-scalar value {other:?}")),
                };
                config.push((k.clone(), value));
            }
        }
        let mut metrics = Vec::new();
        if let Some(members) = root.get("metrics").and_then(Json::as_obj) {
            for (k, v) in members {
                match v {
                    Json::Num(n) => metrics.push((k.clone(), *n)),
                    Json::Null => {} // a non-finite metric was elided
                    other => return Err(format!("metric {k:?} is not a number: {other:?}")),
                }
            }
        }
        Ok(RunBundle {
            schema,
            tool,
            seed,
            simd_backend,
            git_describe: git,
            config,
            metrics,
        })
    }

    /// Reads and parses a bundle file.
    pub fn load(path: impl AsRef<Path>) -> Result<RunBundle, String> {
        let path = path.as_ref();
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        RunBundle::parse(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the rendered bundle to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render_json())
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Default relative tolerance for a metric by name: timing-, rate-, and
/// memory-shaped metrics (wall-clock dependent) get a loose 75%; count
/// metrics (deterministic modulo small scheduling races) get 5%.
pub fn default_tolerance(metric: &str) -> f64 {
    const LOOSE: [&str; 7] = ["per_sec", "elapsed", "latency", "hwm", "busy", "p50", "p99"];
    if LOOSE.iter().any(|k| metric.contains(k)) {
        0.75
    } else {
        0.05
    }
}

/// One metric's comparison outcome.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric name.
    pub name: String,
    /// Value in bundle A.
    pub a: f64,
    /// Value in bundle B.
    pub b: f64,
    /// Relative difference `|a-b| / max(|a|,|b|)` (0 when both are 0).
    pub rel: f64,
    /// Tolerance the difference was judged against.
    pub tolerance: f64,
    /// Whether the difference exceeds the tolerance.
    pub beyond: bool,
}

/// The result of comparing two bundles.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Per-metric outcomes, in bundle-A order.
    pub diffs: Vec<MetricDiff>,
    /// Non-fatal observations (skipped metrics, seed/backend notes).
    pub notes: Vec<String>,
}

impl CompareReport {
    /// Metrics whose difference exceeded their tolerance.
    pub fn violations(&self) -> Vec<&MetricDiff> {
        self.diffs.iter().filter(|d| d.beyond).collect()
    }

    /// Whether every compared metric is within tolerance.
    pub fn is_clean(&self) -> bool {
        self.diffs.iter().all(|d| !d.beyond)
    }
}

/// Compares two bundles metric by metric.
///
/// Errors (the caller should exit loudly, not report a diff) when the
/// bundles are not comparable at all: different schema versions,
/// different tools, or conflicting config. Differing seeds and SIMD
/// backends are *notes* — but on a backend mismatch the timing-shaped
/// metrics (see [`default_tolerance`]'s loose class) are skipped, since
/// rates measured on different kernels say nothing about regressions.
///
/// `overrides` are per-metric tolerance overrides; `default_override`
/// replaces [`default_tolerance`] for every metric not overridden.
pub fn compare(
    a: &RunBundle,
    b: &RunBundle,
    overrides: &[(String, f64)],
    default_override: Option<f64>,
) -> Result<CompareReport, String> {
    if a.schema != b.schema {
        return Err(format!(
            "schema mismatch: {:?} vs {:?} — refusing to compare across schema versions",
            a.schema, b.schema
        ));
    }
    if a.tool != b.tool {
        return Err(format!(
            "tool mismatch: {:?} vs {:?} — these bundles measure different things",
            a.tool, b.tool
        ));
    }
    for (k, va) in &a.config {
        match b.config.iter().find(|(kb, _)| kb == k) {
            Some((_, vb)) if va == vb => {}
            Some((_, vb)) => {
                return Err(format!(
                    "config mismatch on {k:?}: {va:?} vs {vb:?} — runs are not comparable"
                ))
            }
            None => return Err(format!("config key {k:?} missing from bundle B")),
        }
    }
    for (k, _) in &b.config {
        if !a.config.iter().any(|(ka, _)| ka == k) {
            return Err(format!("config key {k:?} missing from bundle A"));
        }
    }

    let mut report = CompareReport::default();
    if a.seed != b.seed {
        report
            .notes
            .push(format!("seeds differ: {:?} vs {:?}", a.seed, b.seed));
    }
    let backend_mismatch = a.simd_backend != b.simd_backend;
    if backend_mismatch {
        report.notes.push(format!(
            "SIMD backends differ ({} vs {}): timing metrics skipped",
            a.simd_backend, b.simd_backend
        ));
    }
    if a.git_describe != b.git_describe {
        report.notes.push(format!(
            "builds differ: {} vs {}",
            a.git_describe, b.git_describe
        ));
    }

    for (name, &va) in a.metrics.iter().map(|(k, v)| (k, v)) {
        let Some(&vb) = b.metrics.iter().find(|(kb, _)| kb == name).map(|(_, v)| v) else {
            report
                .notes
                .push(format!("metric {name:?} only in bundle A: skipped"));
            continue;
        };
        let loose = default_tolerance(name) > 0.05;
        if backend_mismatch && loose {
            report
                .notes
                .push(format!("metric {name:?} skipped (backend mismatch)"));
            continue;
        }
        let tolerance = overrides
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, t)| *t)
            .or(default_override)
            .unwrap_or_else(|| default_tolerance(name));
        let denom = va.abs().max(vb.abs());
        let rel = if denom == 0.0 {
            0.0
        } else {
            (va - vb).abs() / denom
        };
        report.diffs.push(MetricDiff {
            name: name.clone(),
            a: va,
            b: vb,
            rel,
            tolerance,
            beyond: rel > tolerance,
        });
    }
    for (name, _) in &b.metrics {
        if !a.metrics.iter().any(|(ka, _)| ka == name) {
            report
                .notes
                .push(format!("metric {name:?} only in bundle B: skipped"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunBundle {
        let mut b = RunBundle::new("serve-soak").with_seed(42);
        b.config("preset", "quick");
        b.config("shards", 4);
        b.metric("records", 144_000.0);
        b.metric("quarantined", 7.0);
        b.metric("records_per_sec", 250_000.5);
        b
    }

    #[test]
    fn render_parse_round_trips() {
        let b = sample();
        let parsed = RunBundle::parse(&b.render_json()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut b = sample();
        b.config("path", "dir\\file \"x\"\nnext");
        let parsed = RunBundle::parse(&b.render_json()).unwrap();
        assert_eq!(parsed.config, b.config);
    }

    #[test]
    fn non_finite_metric_renders_null_and_is_elided() {
        let mut b = sample();
        b.metric("broken", f64::NAN);
        let doc = b.render_json();
        assert!(doc.contains("\"broken\": null"), "{doc}");
        let parsed = RunBundle::parse(&doc).unwrap();
        assert!(!parsed.metrics.iter().any(|(k, _)| k == "broken"));
    }

    #[test]
    fn identical_bundles_compare_clean() {
        let b = sample();
        let report = compare(&b, &b, &[], None).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.diffs.len(), 3);
    }

    #[test]
    fn perturbed_metric_beyond_tolerance_is_a_violation() {
        let a = sample();
        let mut b = sample();
        b.metrics[0].1 *= 1.10; // records +10% > 5% default
        let report = compare(&a, &b, &[], None).unwrap();
        let violations = report.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].name, "records");
        // A per-metric override can absorb it.
        let relaxed = compare(&a, &b, &[("records".to_string(), 0.2)], None).unwrap();
        assert!(relaxed.is_clean());
    }

    #[test]
    fn timing_metrics_get_loose_default_tolerance() {
        let a = sample();
        let mut b = sample();
        b.metrics[2].1 *= 1.5; // records_per_sec +50% < 75% loose default
        assert!(compare(&a, &b, &[], None).unwrap().is_clean());
    }

    #[test]
    fn schema_and_tool_and_config_mismatches_error() {
        let a = sample();
        let mut v2 = sample();
        v2.schema = "class-run-bundle/v2".to_string();
        assert!(compare(&a, &v2, &[], None).unwrap_err().contains("schema"));
        let mut other_tool = sample();
        other_tool.tool = "serve-throughput".to_string();
        assert!(compare(&a, &other_tool, &[], None)
            .unwrap_err()
            .contains("tool"));
        let mut other_cfg = sample();
        other_cfg.config[0].1 = "full".to_string();
        assert!(compare(&a, &other_cfg, &[], None)
            .unwrap_err()
            .contains("preset"));
    }

    #[test]
    fn backend_mismatch_skips_timing_metrics_only() {
        let a = sample();
        let mut b = sample();
        b.simd_backend = "scalar".to_string();
        b.metrics[2].1 *= 100.0; // timing metric wildly off — skipped
        let report = compare(&a, &b, &[], None).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.diffs.len(), 2, "count metrics still compared");
    }

    #[test]
    fn non_bundle_schema_fails_parse() {
        let err = RunBundle::parse("{\"schema\": \"class-serve-soak/v1\"}").unwrap_err();
        assert!(err.contains("not a run bundle"), "{err}");
    }

    #[test]
    fn json_parser_covers_the_grammar() {
        let doc = r#"{"a": [1, -2.5e3, true, false, null], "b": {"c": "x\ty A 😀"}}"#;
        let v = parse_json(doc).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ty A 😀")
        );
        assert_eq!(parse_json(r#""😀 A""#).unwrap().as_str(), Some("😀 A"));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{\"a\": }").is_err());
    }
}
