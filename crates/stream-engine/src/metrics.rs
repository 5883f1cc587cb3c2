//! Live metrics export: Prometheus text exposition and JSON snapshots
//! over a minimal std-only HTTP listener.
//!
//! The paper's §5.6 deployment runs ClaSS as an always-on Flink
//! operator; operating such a deployment means watching it. This module
//! turns a [`ServingStats`] snapshot into the two formats operators
//! actually consume:
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
use crate::net::{ConnStats, NetStats, NetStatsHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// One family's HELP/TYPE header.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// A metric-family table entry: series name, HELP text, and the
/// accessor pulling its value out of a per-shard snapshot.
type ShardFamily = (&'static str, &'static str, fn(&ShardStats) -> u64);

/// A metric-family table entry over per-stream snapshots.
type StreamFamily = (&'static str, &'static str, fn(&StreamStats) -> u64);

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
/// With `net: Some(_)` the network ingestion tier's families
/// (`class_net_*`) follow: engine-level connection/frame totals and one
/// series per producer connection (`conn`/`peer` labels).
pub fn render_prometheus(stats: &ServingStats, net: Option<&NetStats>) -> String {
    let mut out = String::with_capacity(4096);

    // Engine-level gauges.
    family(
        &mut out,
        "class_engine_uptime_seconds",
        "gauge",
        "Time since the serving engine started.",
    );
    out.push_str(&format!(
        "class_engine_uptime_seconds {}\n",
        stats.uptime.as_secs_f64()
    ));
    family(
        &mut out,
        "class_engine_streams",
        "gauge",
        "Streams registered with the engine.",
    );
    out.push_str(&format!("class_engine_streams {}\n", stats.streams.len()));
    family(
        &mut out,
        "class_engine_active_streams",
        "gauge",
        "Streams not yet done (quarantined streams still draining count).",
    );
    out.push_str(&format!(
        "class_engine_active_streams {}\n",
        stats.active_streams()
    ));
    family(
        &mut out,
        "class_engine_quarantined_streams",
        "gauge",
        "Streams taken out of service by a fault.",
    );
    out.push_str(&format!(
        "class_engine_quarantined_streams {}\n",
        stats.quarantined()
    ));

    // Per-shard families, one series per shard.
    let shard_gauges: [ShardFamily; 6] = [
        (
            "class_shard_streams",
            "Streams assigned to the shard (finished ones included).",
            |s| s.streams as u64,
        ),
        (
            "class_shard_active_streams",
            "Streams the shard is still serving.",
            |s| s.active as u64,
        ),
        (
            "class_shard_quarantined_streams",
            "Streams quarantined on the shard.",
            |s| s.quarantined as u64,
        ),
        (
            "class_shard_records_in_total",
            "Records processed across the shard's streams.",
            |s| s.records_in,
        ),
        (
            "class_shard_drops_total",
            "Backpressure drops across the shard's streams.",
            |s| s.drops,
        ),
        (
            "class_shard_queue_depth",
            "Sum of the shard's ring-buffer depths.",
            |s| s.queue_depth as u64,
        ),
    ];
    for (name, help, get) in shard_gauges {
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        family(&mut out, name, kind, help);
        for s in &stats.shards {
            out.push_str(&format!("{name}{{shard=\"{}\"}} {}\n", s.shard, get(s)));
        }
    }
    family(
        &mut out,
        "class_shard_latency_seconds",
        "gauge",
        "Per-record operator latency quantiles over the shard's merged histogram.",
    );
    for s in &stats.shards {
        out.push_str(&format!(
            "class_shard_latency_seconds{{shard=\"{}\",quantile=\"0.5\"}} {}\n",
            s.shard,
            s.p50.as_secs_f64()
        ));
        out.push_str(&format!(
            "class_shard_latency_seconds{{shard=\"{}\",quantile=\"0.99\"}} {}\n",
            s.shard,
            s.p99.as_secs_f64()
        ));
    }

    // Per-stream families, one series per stream.
    let stream_counters: [StreamFamily; 7] = [
        (
            "class_stream_records_in_total",
            "Records consumed while healthy (operator-processed plus guard-healed/skipped).",
            |s| s.records_in,
        ),
        (
            "class_stream_drops_total",
            "Records evicted by the drop-oldest backpressure policy.",
            |s| s.drops,
        ),
        (
            "class_stream_quarantined_after_total",
            "Records drained and discarded after the stream was quarantined.",
            |s| s.quarantined_after,
        ),
        (
            "class_stream_pushed_total",
            "Records accepted into the stream's ring.",
            |s| s.pushed,
        ),
        (
            "class_stream_healed_total",
            "Non-finite values the input guard replaced.",
            |s| s.healed,
        ),
        (
            "class_stream_skipped_total",
            "Records the input guard dropped before the operator.",
            |s| s.skipped,
        ),
        (
            "class_stream_retries_total",
            "Ingest backoff retries against the stream's ring.",
            |s| s.retries,
        ),
    ];
    for (name, help, get) in stream_counters {
        family(&mut out, name, "counter", help);
        for s in &stats.streams {
            out.push_str(&format!("{name}{{{}}} {}\n", stream_labels(s), get(s)));
        }
    }
    family(
        &mut out,
        "class_stream_queue_depth",
        "gauge",
        "Records currently queued in the stream's ring buffer.",
    );
    for s in &stats.streams {
        out.push_str(&format!(
            "class_stream_queue_depth{{{}}} {}\n",
            stream_labels(s),
            s.queue_depth
        ));
    }
    family(
        &mut out,
        "class_stream_done",
        "gauge",
        "1 once the stream is closed, drained, and flushed.",
    );
    for s in &stats.streams {
        out.push_str(&format!(
            "class_stream_done{{{}}} {}\n",
            stream_labels(s),
            u8::from(s.done)
        ));
    }
    family(
        &mut out,
        "class_stream_quarantined",
        "gauge",
        "1 if the stream was taken out of service by a fault.",
    );
    for s in &stats.streams {
        out.push_str(&format!(
            "class_stream_quarantined{{{}}} {}\n",
            stream_labels(s),
            u8::from(s.state.is_quarantined())
        ));
    }
    family(
        &mut out,
        "class_stream_latency_seconds",
        "gauge",
        "Per-record operator latency quantiles.",
    );
    for s in &stats.streams {
        out.push_str(&format!(
            "class_stream_latency_seconds{{{},quantile=\"0.5\"}} {}\n",
            stream_labels(s),
            s.p50.as_secs_f64()
        ));
        out.push_str(&format!(
            "class_stream_latency_seconds{{{},quantile=\"0.99\"}} {}\n",
            stream_labels(s),
            s.p99.as_secs_f64()
        ));
    }
    family(
        &mut out,
        "class_stream_latency_mean_seconds",
        "gauge",
        "Mean per-record operator latency.",
    );
    for s in &stats.streams {
        out.push_str(&format!(
            "class_stream_latency_mean_seconds{{{}}} {}\n",
            stream_labels(s),
            s.mean.as_secs_f64()
        ));
    }

    if let Some(net) = net {
        render_net_families(&mut out, net);
    }
    out
}

/// The per-connection label set, shared by every `class_net_conn_*`
/// series.
fn conn_labels(c: &ConnStats) -> String {
    format!("conn=\"{}\",peer=\"{}\"", c.conn, escape_label(&c.peer))
}

/// A metric-family table entry over per-connection snapshots.
type ConnFamily = (&'static str, &'static str, fn(&ConnStats) -> u64);

/// Appends the network ingestion tier's metric families.
fn render_net_families(out: &mut String, net: &NetStats) {
    family(
        out,
        "class_net_connections",
        "gauge",
        "Producer connections currently open.",
    );
    out.push_str(&format!("class_net_connections {}\n", net.active));
    family(
        out,
        "class_net_connections_total",
        "counter",
        "Producer connections ever accepted.",
    );
    out.push_str(&format!("class_net_connections_total {}\n", net.accepted));
    family(
        out,
        "class_net_frames_total",
        "counter",
        "Protocol frames received across all connections.",
    );
    out.push_str(&format!("class_net_frames_total {}\n", net.frames()));
    family(
        out,
        "class_net_records_total",
        "counter",
        "Record values accepted into rings over the wire.",
    );
    out.push_str(&format!("class_net_records_total {}\n", net.records()));
    family(
        out,
        "class_net_throttle_total",
        "counter",
        "THROTTLE frames sent (block-policy backpressure stalls).",
    );
    out.push_str(&format!(
        "class_net_throttle_total {}\n",
        net.throttle_events()
    ));
    family(
        out,
        "class_net_errors_total",
        "counter",
        "Typed protocol ERROR frames sent to producers.",
    );
    out.push_str(&format!(
        "class_net_errors_total {}\n",
        net.protocol_errors()
    ));

    let conn_gauges: [ConnFamily; 2] = [
        (
            "class_net_conn_open",
            "1 while the producer connection is open.",
            |c| u64::from(c.open),
        ),
        (
            "class_net_conn_streams",
            "Streams currently attached by the connection.",
            |c| c.streams as u64,
        ),
    ];
    for (name, help, get) in conn_gauges {
        family(out, name, "gauge", help);
        for c in &net.connections {
            out.push_str(&format!("{name}{{{}}} {}\n", conn_labels(c), get(c)));
        }
    }
    let conn_counters: [ConnFamily; 4] = [
        (
            "class_net_conn_frames_total",
            "Protocol frames received on the connection.",
            |c| c.frames,
        ),
        (
            "class_net_conn_records_total",
            "Record values the connection fed into rings.",
            |c| c.records,
        ),
        (
            "class_net_conn_throttle_total",
            "THROTTLE frames sent to the connection.",
            |c| c.throttle_events,
        ),
        (
            "class_net_conn_errors_total",
            "Typed ERROR frames sent to the connection.",
            |c| c.protocol_errors,
        ),
    ];
    for (name, help, get) in conn_counters {
        family(out, name, "counter", help);
        for c in &net.connections {
            out.push_str(&format!("{name}{{{}}} {}\n", conn_labels(c), get(c)));
        }
    }
    family(
        out,
        "class_net_conn_frames_per_sec",
        "gauge",
        "Frames per second over the connection's lifetime.",
    );
    for c in &net.connections {
        out.push_str(&format!(
            "class_net_conn_frames_per_sec{{{}}} {}\n",
            conn_labels(c),
            c.frames_per_sec()
        ));
    }
}

/// Renders a [`ServingStats`] snapshot as a `class-serving-stats/v1`
/// JSON document — the payload behind `GET /stats.json`, the
/// [`SnapshotWriter`] file, and `class-cli serve-status`.
///
/// With `net: Some(_)` the document carries a `"net"` object describing
/// the network ingestion tier (additive — the schema stays
/// `class-serving-stats/v1` and the object is simply absent when no
/// ingest server is attached).
pub fn render_stats_json(stats: &ServingStats, net: Option<&NetStats>) -> String {
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
    for (i, s) in stats.shards.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shard\": {}, \"streams\": {}, \"active\": {}, \"quarantined\": {}, \
             \"records_in\": {}, \"drops\": {}, \"queue_depth\": {}, \"p50_ns\": {}, \
             \"p99_ns\": {}}}{}\n",
            s.shard,
            s.streams,
            s.active,
            s.quarantined,
            s.records_in,
            s.drops,
            s.queue_depth,
            s.p50.as_nanos(),
            s.p99.as_nanos(),
            if i + 1 < stats.shards.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"streams\": [\n");
    for (i, s) in stats.streams.iter().enumerate() {
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
        out.push_str(&format!(
            "    {{\"stream\": {}, \"name\": \"{}\", \"shard\": {}, \"state\": \"{state}\", \
             \"records_in\": {}, \"drops\": {}, \"quarantined_after\": {}, \"pushed\": {}, \
             \"healed\": {}, \"skipped\": {}, \"retries\": {}, \"queue_depth\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"quarantine\": {quarantine}}}{}\n",
            s.stream,
            escape_json(&s.name),
            s.shard,
            s.records_in,
            s.drops,
            s.quarantined_after,
            s.pushed,
            s.healed,
            s.skipped,
            s.retries,
            s.queue_depth,
            s.p50.as_nanos(),
            s.p99.as_nanos(),
            s.mean.as_nanos(),
            if i + 1 < stats.streams.len() { "," } else { "" }
        ));
    }
    match net {
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
            for (i, c) in net.connections.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"conn\": {}, \"peer\": \"{}\", \"open\": {}, \"streams\": {}, \
                     \"frames\": {}, \"records\": {}, \"throttle_events\": {}, \
                     \"protocol_errors\": {}, \"uptime_s\": {:.3}, \"frames_per_sec\": {:.1}}}{}\n",
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
                    if i + 1 < net.connections.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str("    ]\n  }\n}\n");
        }
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
/// `GET /stats.json` (the JSON snapshot) from the currently attached
/// [`StatsHandle`]; `503` until one is attached, `404` elsewhere. The
/// listener accepts non-blockingly and shuts down on [`Drop`].
///
/// [`MetricsServer::attach`] is callable repeatedly — a multi-round soak
/// re-attaches each round's engine while the endpoint (and its scrape
/// URL) stays up.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    source: Arc<Mutex<Option<StatsHandle>>>,
    net_source: Arc<Mutex<Option<NetStatsHandle>>>,
    stop: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9599"`; port `0` picks an
    /// ephemeral port, read back via [`MetricsServer::addr`]) and starts
    /// the listener thread. No stats are served until
    /// [`MetricsServer::attach`].
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let source: Arc<Mutex<Option<StatsHandle>>> = Arc::new(Mutex::new(None));
        let net_source: Arc<Mutex<Option<NetStatsHandle>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let scrapes = Arc::new(AtomicU64::new(0));
        let thread = {
            let source = Arc::clone(&source);
            let net_source = Arc::clone(&net_source);
            let stop = Arc::clone(&stop);
            let scrapes = Arc::clone(&scrapes);
            std::thread::Builder::new()
                .name("class-metrics".into())
                .spawn(move || listen_loop(listener, &source, &net_source, &stop, &scrapes))?
        };
        Ok(MetricsServer {
            addr,
            source,
            net_source,
            stop,
            scrapes,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Attaches (or replaces) the stats source served from now on.
    pub fn attach(&self, handle: StatsHandle) {
        *lock_recover(&self.source) = Some(handle);
    }

    /// Attaches (or replaces) a network ingestion tier: `/metrics`
    /// grows the `class_net_*` families and `/stats.json` a `"net"`
    /// object (see [`crate::IngestServer::net_stats`]).
    pub fn attach_net(&self, handle: NetStatsHandle) {
        *lock_recover(&self.net_source) = Some(handle);
    }

    /// How many `/metrics` scrapes have been answered.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Accept-poll cadence; also bounds shutdown latency on `Drop`.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

fn listen_loop(
    listener: TcpListener,
    source: &Mutex<Option<StatsHandle>>,
    net_source: &Mutex<Option<NetStatsHandle>>,
    stop: &AtomicBool,
    scrapes: &AtomicU64,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((conn, _peer)) => {
                // A failed scrape must not take the listener down.
                let _ = handle_conn(conn, source, net_source, scrapes);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_conn(
    mut conn: TcpStream,
    source: &Mutex<Option<StatsHandle>>,
    net_source: &Mutex<Option<NetStatsHandle>>,
    scrapes: &AtomicU64,
) -> std::io::Result<()> {
    conn.set_nonblocking(false)?;
    conn.set_read_timeout(Some(Duration::from_secs(2)))?;
    conn.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = conn.read(&mut buf)?;
        if n == 0 || head.len() + n > 8192 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let request = String::from_utf8_lossy(&head);
    let path = request.split_whitespace().nth(1).unwrap_or("/").to_string();
    let snapshot = lock_recover(source).as_ref().map(StatsHandle::stats);
    let net_snapshot = lock_recover(net_source).as_ref().map(NetStatsHandle::stats);
    let (status, content_type, body) = match (path.as_str(), snapshot) {
        ("/metrics", Some(stats)) => {
            scrapes.fetch_add(1, Ordering::Relaxed);
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&stats, net_snapshot.as_ref()),
            )
        }
        ("/stats.json", Some(stats)) => (
            "200 OK",
            "application/json",
            render_stats_json(&stats, net_snapshot.as_ref()),
        ),
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
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// How often the writer wakes to check for stop between snapshots.
const SNAPSHOT_POLL: Duration = Duration::from_millis(50);

impl SnapshotWriter {
    /// Starts snapshotting `handle` to `path` every `interval`.
    pub fn start(
        handle: StatsHandle,
        path: impl Into<PathBuf>,
        interval: Duration,
    ) -> SnapshotWriter {
        let path = path.into();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("class-snapshots".into())
                .spawn(move || {
                    loop {
                        let _ = write_snapshot(&handle, &path);
                        let mut slept = Duration::ZERO;
                        while slept < interval && !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(SNAPSHOT_POLL);
                            slept += SNAPSHOT_POLL;
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    // Terminal snapshot: the file ends at the final stats.
                    let _ = write_snapshot(&handle, &path);
                })
                .expect("spawning the snapshot writer thread")
        };
        SnapshotWriter {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the writer after one final snapshot (same as dropping it).
    pub fn stop(self) {}
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn write_snapshot(handle: &StatsHandle, path: &Path) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, render_stats_json(&handle.stats(), None))?;
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
                retries: 0,
                queue_depth: 1,
                done: false,
                state: StreamState::Active,
                p50: Duration::from_nanos(1024),
                p99: Duration::from_nanos(4096),
                mean: Duration::from_nanos(1500),
            }],
            shards: Vec::new(),
            uptime: Duration::from_secs(2),
        }
    }

    #[test]
    fn label_escaping_covers_quotes_backslashes_newlines() {
        let rendered = render_prometheus(&one_stream("a \"quoted\\path\"\nline"), None);
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
        let doc = render_stats_json(&one_stream("tab\there \"q\" \\"), None);
        assert!(doc.contains(r#""name": "tab\there \"q\" \\""#), "{doc}");
    }

    #[test]
    fn counters_render_from_snapshot_fields() {
        let stats = one_stream("s");
        let rendered = render_prometheus(&stats, None);
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
