//! Live metrics export: Prometheus text exposition and JSON snapshots
//! over a minimal std-only HTTP listener.
//!
//! The paper's §5.6 deployment runs ClaSS as an always-on Flink
//! operator; operating such a deployment means watching it. This module
//! turns a [`ServingStats`] snapshot — the engine's one registry of
//! streams, shards and, when an ingest server is bound, producer
//! connections — into the two formats operators actually consume. Every
//! exporter below takes that one snapshot, so each carries the ingest
//! tier whenever the engine has one:
//!
//! * [`render_prometheus`] — Prometheus text exposition (format 0.0.4)
//!   with **stable label sets**: every per-stream series carries
//!   `stream` (id), `shard`, and `name` labels, every per-shard series a
//!   `shard` label, in a fixed family order so scrapes diff cleanly.
//! * [`render_stats_json`] — a self-describing JSON document
//!   (`class-serving-stats/v1`) for headless runs and the
//!   `class-cli serve-status` view.
//! * [`MetricsServer`] — a `std::net::TcpListener` on its own thread
//!   serving `GET /metrics` and `GET /stats.json` from an attached
//!   [`StatsHandle`]; [`crate::ServingEngine::serve_metrics`] is the
//!   one-call way to get one. No async runtime, no HTTP dependency: a
//!   scrape is one request per connection, which is exactly what
//!   Prometheus and `curl` do.
//! * [`SnapshotWriter`] — periodic atomic (`tmp` + rename) JSON
//!   snapshots to a file, the "either source" half of `serve-status`
//!   when no port can be opened.

use crate::engine::{lock_recover, StatsHandle};
use crate::latency::{ServingStats, ShardStats, StreamStats};
use crate::net::{accept_until, stop_listener, ConnStats, NetStats};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema identifier stamped into every [`render_stats_json`] document.
pub const STATS_JSON_SCHEMA: &str = "class-serving-stats/v1";

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline get backslash-escaped per the exposition format spec.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a JSON string value (quote, backslash, control characters).
fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends one metric family: its HELP/TYPE header (a counter when the
/// name ends in `_total`, a gauge otherwise) and one `name{labels} value`
/// line per sample (no braces for empty labels).
fn family(
    out: &mut String,
    name: &str,
    help: &str,
    samples: impl IntoIterator<Item = (String, String)>,
) {
    let kind = if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    };
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in samples {
        if labels.is_empty() {
            out.push_str(&format!("{name} {value}\n"));
        } else {
            out.push_str(&format!("{name}{{{labels}}} {value}\n"));
        }
    }
}

/// A family table entry: name, HELP text, and the accessor rendering
/// its value from one row of a snapshot.
type Family<T> = (&'static str, &'static str, fn(&T) -> String);

/// The p50 and p99 samples of a latency-quantile family.
fn quantiles(labels: &str, p50: Duration, p99: Duration) -> [(String, String); 2] {
    [("0.5", p50), ("0.99", p99)].map(|(q, d)| {
        (
            format!("{labels},quantile=\"{q}\""),
            d.as_secs_f64().to_string(),
        )
    })
}

/// The per-stream label set, shared by every `class_stream_*` series.
fn stream_labels(s: &StreamStats) -> String {
    format!(
        "stream=\"{}\",shard=\"{}\",name=\"{}\"",
        s.stream,
        s.shard,
        escape_label(&s.name)
    )
}

/// Renders a [`ServingStats`] snapshot as Prometheus text exposition
/// (format 0.0.4). Families appear in a fixed order; series within a
/// family are ordered by shard index / stream id, so two renders of the
/// same snapshot are byte-identical (pinned by a golden-fixture test).
///
/// When the snapshot carries an ingest tier ([`ServingStats::net`]), its
/// families (`class_net_*`) follow: engine-level connection/frame totals
/// and one series per producer connection (`conn`/`peer` labels).
pub fn render_prometheus(stats: &ServingStats) -> String {
    let mut out = String::with_capacity(4096);
    let engine = [
        (
            "class_engine_uptime_seconds",
            "Time since the serving engine started.",
            stats.uptime.as_secs_f64().to_string(),
        ),
        (
            "class_engine_streams",
            "Streams registered with the engine.",
            stats.streams.len().to_string(),
        ),
        (
            "class_engine_active_streams",
            "Streams not yet done (quarantined streams still draining count).",
            stats.active_streams().to_string(),
        ),
        (
            "class_engine_quarantined_streams",
            "Streams taken out of service by a fault.",
            stats.quarantined().to_string(),
        ),
    ];
    for (name, help, value) in engine {
        family(&mut out, name, help, [(String::new(), value)]);
    }

    let shard_families: [Family<ShardStats>; 6] = [
        (
            "class_shard_streams",
            "Streams assigned to the shard (finished ones included).",
            |s| s.streams.to_string(),
        ),
        (
            "class_shard_active_streams",
            "Streams the shard is still serving.",
            |s| s.active.to_string(),
        ),
        (
            "class_shard_quarantined_streams",
            "Streams quarantined on the shard.",
            |s| s.quarantined.to_string(),
        ),
        (
            "class_shard_records_in_total",
            "Records processed across the shard's streams.",
            |s| s.records_in.to_string(),
        ),
        (
            "class_shard_drops_total",
            "Backpressure drops across the shard's streams.",
            |s| s.drops.to_string(),
        ),
        (
            "class_shard_queue_depth",
            "Sum of the shard's ring-buffer depths.",
            |s| s.queue_depth.to_string(),
        ),
    ];
    let shard_labels = |s: &ShardStats| format!("shard=\"{}\"", s.shard);
    for (name, help, get) in shard_families {
        let samples = stats.shards.iter().map(|s| (shard_labels(s), get(s)));
        family(&mut out, name, help, samples);
    }
    family(
        &mut out,
        "class_shard_latency_seconds",
        "Per-record operator latency quantiles over the shard's merged histogram.",
        stats
            .shards
            .iter()
            .flat_map(|s| quantiles(&shard_labels(s), s.p50, s.p99)),
    );

    let stream_families: [Family<StreamStats>; 9] = [
        (
            "class_stream_records_in_total",
            "Records consumed while healthy (operator-processed plus guard-healed/skipped).",
            |s| s.records_in.to_string(),
        ),
        (
            "class_stream_drops_total",
            "Records evicted by the drop-oldest backpressure policy.",
            |s| s.drops.to_string(),
        ),
        (
            "class_stream_quarantined_after_total",
            "Records drained and discarded after the stream was quarantined.",
            |s| s.quarantined_after.to_string(),
        ),
        (
            "class_stream_pushed_total",
            "Records accepted into the stream's ring.",
            |s| s.pushed.to_string(),
        ),
        (
            "class_stream_healed_total",
            "Non-finite values the input guard replaced.",
            |s| s.healed.to_string(),
        ),
        (
            "class_stream_skipped_total",
            "Records the input guard dropped before the operator.",
            |s| s.skipped.to_string(),
        ),
        (
            "class_stream_queue_depth",
            "Records currently queued in the stream's ring buffer.",
            |s| s.queue_depth.to_string(),
        ),
        (
            "class_stream_done",
            "1 once the stream is closed, drained, and flushed.",
            |s| u8::from(s.done).to_string(),
        ),
        (
            "class_stream_quarantined",
            "1 if the stream was taken out of service by a fault.",
            |s| u8::from(s.state.is_quarantined()).to_string(),
        ),
    ];
    for (name, help, get) in stream_families {
        let samples = stats.streams.iter().map(|s| (stream_labels(s), get(s)));
        family(&mut out, name, help, samples);
    }
    family(
        &mut out,
        "class_stream_latency_seconds",
        "Per-record operator latency quantiles.",
        stats
            .streams
            .iter()
            .flat_map(|s| quantiles(&stream_labels(s), s.p50, s.p99)),
    );
    family(
        &mut out,
        "class_stream_latency_mean_seconds",
        "Mean per-record operator latency.",
        stats
            .streams
            .iter()
            .map(|s| (stream_labels(s), s.mean.as_secs_f64().to_string())),
    );

    if let Some(net) = &stats.net {
        render_net_families(&mut out, net);
    }
    out
}

/// Appends the network ingestion tier's metric families.
fn render_net_families(out: &mut String, net: &NetStats) {
    let totals = [
        (
            "class_net_connections",
            "Producer connections currently open.",
            net.active.to_string(),
        ),
        (
            "class_net_connections_total",
            "Producer connections ever accepted.",
            net.accepted.to_string(),
        ),
        (
            "class_net_frames_total",
            "Protocol frames received across all connections.",
            net.frames().to_string(),
        ),
        (
            "class_net_records_total",
            "Record values accepted into rings over the wire.",
            net.records().to_string(),
        ),
        (
            "class_net_throttle_total",
            "THROTTLE frames sent (block-policy backpressure stalls).",
            net.throttle_events().to_string(),
        ),
        (
            "class_net_errors_total",
            "Typed protocol ERROR frames sent to producers.",
            net.protocol_errors().to_string(),
        ),
    ];
    for (name, help, value) in totals {
        family(out, name, help, [(String::new(), value)]);
    }
    let conn_families: [Family<ConnStats>; 7] = [
        (
            "class_net_conn_open",
            "1 while the producer connection is open.",
            |c| u8::from(c.open).to_string(),
        ),
        (
            "class_net_conn_streams",
            "Streams currently attached by the connection.",
            |c| c.streams.to_string(),
        ),
        (
            "class_net_conn_frames_total",
            "Protocol frames received on the connection.",
            |c| c.frames.to_string(),
        ),
        (
            "class_net_conn_records_total",
            "Record values the connection fed into rings.",
            |c| c.records.to_string(),
        ),
        (
            "class_net_conn_throttle_total",
            "THROTTLE frames sent to the connection.",
            |c| c.throttle_events.to_string(),
        ),
        (
            "class_net_conn_errors_total",
            "Typed ERROR frames sent to the connection.",
            |c| c.protocol_errors.to_string(),
        ),
        (
            "class_net_conn_frames_per_sec",
            "Frames per second over the connection's lifetime.",
            |c| c.frames_per_sec().to_string(),
        ),
    ];
    for (name, help, get) in conn_families {
        let samples = net.connections.iter().map(|c| {
            let labels = format!("conn=\"{}\",peer=\"{}\"", c.conn, escape_label(&c.peer));
            (labels, get(c))
        });
        family(out, name, help, samples);
    }
}

/// Renders a [`ServingStats`] snapshot as a `class-serving-stats/v1`
/// JSON document — the payload behind `GET /stats.json`, the
/// [`SnapshotWriter`] file, and `class-cli serve-status`.
///
/// When the snapshot carries an ingest tier ([`ServingStats::net`]), the
/// document carries a `"net"` object describing it (additive — the
/// schema stays `class-serving-stats/v1` and the object is simply absent
/// when no ingest server is bound).
pub fn render_stats_json(stats: &ServingStats) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{STATS_JSON_SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"uptime_s\": {:.3},\n",
        stats.uptime.as_secs_f64()
    ));
    out.push_str("  \"totals\": {");
    out.push_str(&format!(
        "\"streams\": {}, \"active\": {}, \"quarantined\": {}, \"records_in\": {}, \
         \"drops\": {}, \"queue_depth\": {}, \"records_per_sec\": {:.1}",
        stats.streams.len(),
        stats.active_streams(),
        stats.quarantined(),
        stats.records_in(),
        stats.drops(),
        stats.queue_depth(),
        stats.records_per_sec()
    ));
    out.push_str("},\n");
    out.push_str("  \"shards\": [\n");
    out.push_str(&json_rows(stats.shards.iter().map(|s| {
        format!(
            "    {{\"shard\": {}, \"streams\": {}, \"active\": {}, \"quarantined\": {}, \
             \"records_in\": {}, \"drops\": {}, \"queue_depth\": {}, \"p50_ns\": {}, \
             \"p99_ns\": {}}}",
            s.shard,
            s.streams,
            s.active,
            s.quarantined,
            s.records_in,
            s.drops,
            s.queue_depth,
            s.p50.as_nanos(),
            s.p99.as_nanos(),
        )
    })));
    out.push_str("  ],\n");
    out.push_str("  \"streams\": [\n");
    out.push_str(&json_rows(stats.streams.iter().map(|s| {
        let state = if s.state.is_quarantined() {
            "quarantined"
        } else if s.done {
            "done"
        } else {
            "active"
        };
        let quarantine = match s.state.quarantine() {
            Some((cause, at_record)) => format!(
                "{{\"at_record\": {at_record}, \"cause\": \"{}\"}}",
                escape_json(&cause.to_string())
            ),
            None => "null".to_string(),
        };
        format!(
            "    {{\"stream\": {}, \"name\": \"{}\", \"shard\": {}, \"state\": \"{state}\", \
             \"records_in\": {}, \"drops\": {}, \"quarantined_after\": {}, \"pushed\": {}, \
             \"healed\": {}, \"skipped\": {}, \"queue_depth\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"quarantine\": {quarantine}}}",
            s.stream,
            escape_json(&s.name),
            s.shard,
            s.records_in,
            s.drops,
            s.quarantined_after,
            s.pushed,
            s.healed,
            s.skipped,
            s.queue_depth,
            s.p50.as_nanos(),
            s.p99.as_nanos(),
            s.mean.as_nanos(),
        )
    })));
    match &stats.net {
        None => out.push_str("  ]\n}\n"),
        Some(net) => {
            out.push_str("  ],\n");
            out.push_str("  \"net\": {\n");
            out.push_str(&format!(
                "    \"accepted\": {}, \"active\": {}, \"frames\": {}, \"records\": {}, \
                 \"throttle_events\": {}, \"protocol_errors\": {},\n",
                net.accepted,
                net.active,
                net.frames(),
                net.records(),
                net.throttle_events(),
                net.protocol_errors()
            ));
            out.push_str("    \"connections\": [\n");
            out.push_str(&json_rows(net.connections.iter().map(|c| {
                format!(
                    "      {{\"conn\": {}, \"peer\": \"{}\", \"open\": {}, \"streams\": {}, \
                     \"frames\": {}, \"records\": {}, \"throttle_events\": {}, \
                     \"protocol_errors\": {}, \"uptime_s\": {:.3}, \"frames_per_sec\": {:.1}}}",
                    c.conn,
                    escape_json(&c.peer),
                    c.open,
                    c.streams,
                    c.frames,
                    c.records,
                    c.throttle_events,
                    c.protocol_errors,
                    c.uptime.as_secs_f64(),
                    c.frames_per_sec(),
                )
            })));
            out.push_str("    ]\n  }\n}\n");
        }
    }
    out
}

/// One JSON array element per line, comma-separated.
fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let mut out = rows.collect::<Vec<_>>().join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Peak resident set size in kB from `/proc/self/status`, if available
/// (Linux). The soak binaries and leak tests bound this.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A minimal std-only HTTP metrics endpoint on its own thread.
///
/// Serves `GET /metrics` (Prometheus text exposition) and
/// `GET /stats.json` (the JSON snapshot) from one snapshot of the
/// currently attached [`StatsHandle`], ingest tier included; `503` until
/// one is attached, `404` elsewhere. The
/// listener thread sleeps in `accept` while idle and shuts down on
/// [`Drop`].
///
/// [`MetricsServer::attach`] is callable repeatedly — a multi-round soak
/// re-attaches each round's engine while the endpoint (and its scrape
/// URL) stays up.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shared: Arc<Endpoint>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// What a [`MetricsServer`] shares with its listener thread.
#[derive(Debug, Default)]
struct Endpoint {
    source: Mutex<Option<StatsHandle>>,
    stop: AtomicBool,
    scrapes: AtomicU64,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9599"`; port `0` picks an
    /// ephemeral port, read back via [`MetricsServer::addr`]) and starts
    /// the listener thread. No stats are served until
    /// [`MetricsServer::attach`].
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Endpoint::default());
        let ep = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("class-metrics".into())
            .spawn(move || {
                accept_until(&listener, &ep.stop, |conn, _peer| {
                    // A failed scrape must not take the listener down.
                    let _ = handle_conn(conn, &ep);
                });
            })?;
        Ok(MetricsServer {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Attaches (or replaces) the stats source served from now on.
    pub fn attach(&self, handle: StatsHandle) {
        *lock_recover(&self.shared.source) = Some(handle);
    }

    /// How many `/metrics` scrapes have been answered.
    pub fn scrapes(&self) -> u64 {
        self.shared.scrapes.load(Ordering::Relaxed)
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        stop_listener(self.addr, &self.shared.stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Budget for a whole request head (and for writing the response): the
/// listener serves one connection at a time, so a client that trickles
/// its request must not hold it for longer than this.
const CONN_TIMEOUT: Duration = Duration::from_secs(2);

fn handle_conn(mut conn: TcpStream, ep: &Endpoint) -> std::io::Result<()> {
    conn.set_write_timeout(Some(CONN_TIMEOUT))?;
    let deadline = Instant::now() + CONN_TIMEOUT;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        conn.set_read_timeout(Some(left))?;
        let n = conn.read(&mut buf)?;
        if n == 0 || head.len() + n > 8192 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let request = String::from_utf8_lossy(&head);
    let path = request.split_whitespace().nth(1).unwrap_or("/").to_string();
    let snapshot = lock_recover(&ep.source).as_ref().map(StatsHandle::stats);
    let (status, content_type, body) = match (path.as_str(), snapshot) {
        ("/metrics", Some(stats)) => {
            ep.scrapes.fetch_add(1, Ordering::Relaxed);
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&stats),
            )
        }
        ("/stats.json", Some(stats)) => ("200 OK", "application/json", render_stats_json(&stats)),
        ("/metrics" | "/stats.json", None) => (
            "503 Service Unavailable",
            "text/plain; charset=utf-8",
            "no serving engine attached\n".to_string(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics or /stats.json\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(response.as_bytes())
}

/// Periodically writes [`render_stats_json`] snapshots to a file
/// (atomically: a `.tmp` sibling renamed into place), for headless runs
/// where no port can be opened. A final snapshot is written on [`Drop`],
/// so the file always ends with the run's terminal stats.
#[derive(Debug)]
pub struct SnapshotWriter {
    /// Dropping the sender stops the writer.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SnapshotWriter {
    /// Starts snapshotting `handle` to `path` every `interval`.
    pub fn start(
        handle: StatsHandle,
        path: impl Into<PathBuf>,
        interval: Duration,
    ) -> SnapshotWriter {
        let path = path.into();
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("class-snapshots".into())
            .spawn(move || {
                let _ = write_snapshot(&handle, &path);
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let _ = write_snapshot(&handle, &path);
                }
                // Terminal snapshot: the file ends at the final stats.
                let _ = write_snapshot(&handle, &path);
            })
            .expect("spawning the snapshot writer thread");
        SnapshotWriter {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Stops the writer after one final snapshot (same as dropping it).
    pub fn stop(self) {}
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.stop.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn write_snapshot(handle: &StatsHandle, path: &Path) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, render_stats_json(&handle.stats()))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamState;
    use crate::latency::{ServingStats, StreamStats};

    fn one_stream(name: &str) -> ServingStats {
        ServingStats {
            streams: vec![StreamStats {
                stream: 0,
                name: name.to_string(),
                shard: 0,
                records_in: 10,
                drops: 1,
                quarantined_after: 0,
                pushed: 12,
                healed: 0,
                skipped: 0,
                queue_depth: 1,
                done: false,
                state: StreamState::Active,
                p50: Duration::from_nanos(1024),
                p99: Duration::from_nanos(4096),
                mean: Duration::from_nanos(1500),
            }],
            shards: Vec::new(),
            uptime: Duration::from_secs(2),
            net: None,
        }
    }

    #[test]
    fn label_escaping_covers_quotes_backslashes_newlines() {
        let rendered = render_prometheus(&one_stream("a \"quoted\\path\"\nline"));
        assert!(
            rendered.contains(r#"name="a \"quoted\\path\"\nline""#),
            "{rendered}"
        );
        // The raw newline must not appear inside any series line.
        for line in rendered.lines() {
            assert!(
                line.starts_with('#') || line.contains(' ') && !line.trim_end().is_empty(),
                "malformed line {line:?}"
            );
        }
    }

    #[test]
    fn json_escaping_keeps_document_single_value() {
        let doc = render_stats_json(&one_stream("tab\there \"q\" \\"));
        assert!(doc.contains(r#""name": "tab\there \"q\" \\""#), "{doc}");
    }

    #[test]
    fn counters_render_from_snapshot_fields() {
        let stats = one_stream("s");
        let rendered = render_prometheus(&stats);
        assert!(rendered
            .contains("class_stream_records_in_total{stream=\"0\",shard=\"0\",name=\"s\"} 10"));
        assert!(
            rendered.contains("class_stream_pushed_total{stream=\"0\",shard=\"0\",name=\"s\"} 12")
        );
        assert!(rendered.contains("class_engine_uptime_seconds 2"));
    }

    #[test]
    fn vm_hwm_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(vm_hwm_kb().unwrap() > 0);
        }
    }
}
