//! Golden-format suite for the Prometheus text exposition and the
//! metrics endpoint.
//!
//! The exposition format is an *interface*: dashboards, alert rules and
//! scrape configs are written against metric names and label sets, so a
//! rename or re-ordering is a breaking change that must show up as a
//! test diff, not as a silently broken dashboard. The render is pinned
//! three ways:
//!
//! 1. **byte-exact** against committed fixtures
//!    (`tests/golden/serving_stats.prom` and, for the JSON document,
//!    `tests/golden/serving_stats.json`; regenerate deliberately with
//!    `UPDATE_GOLDEN=1 cargo test -p stream-engine --test
//!    metrics_golden`);
//! 2. **label escaping** for names carrying spaces, quotes, backslashes
//!    and newlines (Prometheus text exposition 0.0.4 escaping rules);
//! 3. **parse-back** through a hand-rolled exposition-syntax validator:
//!    every line must be a well-formed comment or sample.
//!
//! The endpoint half serves a real engine over real TCP and reconciles
//! the scraped counters with [`stream_engine::StatsHandle::stats`].

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream_engine::{
    feed_all, render_prometheus, render_stats_json, serve, ConnStats, EngineConfig, NetStats,
    QuarantineCause, ServingStats, ShardStats, SnapshotWriter, StreamOptions, StreamState,
    StreamStats, TumblingWindowMean,
};

/// A fixed, fully deterministic snapshot exercising every family the
/// renderer emits: an active stream, a done stream, and a quarantined
/// stream whose name needs all three label escapes.
fn fixture() -> ServingStats {
    let mk = |stream: usize, shard: usize, name: &str| StreamStats {
        stream,
        name: name.to_string(),
        shard,
        records_in: 1000 + stream as u64 * 111,
        drops: stream as u64,
        quarantined_after: 0,
        pushed: 1000 + stream as u64 * 112,
        healed: stream as u64 * 2,
        skipped: 0,
        queue_depth: 4 - stream,
        done: false,
        state: StreamState::Active,
        p50: Duration::from_nanos(2048),
        p99: Duration::from_nanos(65_536),
        mean: Duration::from_nanos(3_000),
    };
    let mut sensor_a = mk(0, 0, "sensor/A");
    sensor_a.done = true;
    sensor_a.state = StreamState::Done;
    sensor_a.queue_depth = 0;
    let sensor_b = mk(1, 1, "sensor \"B\" \\ west");
    let mut sensor_c = mk(2, 0, "sensor\nC");
    sensor_c.state = StreamState::Quarantined {
        cause: QuarantineCause::OperatorPanic {
            message: "boom \"quoted\" \\ and\nnewline".to_string(),
        },
        at_record: 777,
    };
    sensor_c.quarantined_after = 55;
    ServingStats {
        streams: vec![sensor_a, sensor_b, sensor_c],
        shards: vec![
            ShardStats {
                shard: 0,
                streams: 2,
                active: 1,
                quarantined: 1,
                records_in: 2222,
                drops: 2,
                queue_depth: 2,
                p50: Duration::from_nanos(2048),
                p99: Duration::from_nanos(65_536),
            },
            ShardStats {
                shard: 1,
                streams: 1,
                active: 1,
                quarantined: 0,
                records_in: 1111,
                drops: 1,
                queue_depth: 3,
                p50: Duration::from_nanos(4096),
                p99: Duration::from_nanos(131_072),
            },
        ],
        uptime: Duration::from_millis(12_345),
        net: None,
    }
}

/// [`fixture`] with the ingest tier of [`net_fixture`].
fn fixture_with_net() -> ServingStats {
    ServingStats {
        net: Some(net_fixture()),
        ..fixture()
    }
}

/// A fixed ingestion-tier snapshot: two open producer connections (one
/// with a label-escape-needing peer name) and one already closed.
fn net_fixture() -> NetStats {
    let mk = |conn: u64, peer: &str, open: bool| ConnStats {
        conn,
        peer: peer.to_string(),
        open,
        streams: if open { 2 } else { 0 },
        frames: 100 + conn * 17,
        records: 5_000 + conn * 13,
        throttle_events: conn,
        protocol_errors: conn / 2,
        uptime: Duration::from_millis(2_000 + conn * 500),
    };
    NetStats {
        accepted: 3,
        active: 2,
        connections: vec![
            mk(0, "127.0.0.1:50001", true),
            mk(1, "bench \"B\" \\ east\nclient", true),
            mk(2, "127.0.0.1:50003", false),
        ],
    }
}

/// Compares `rendered` with the committed fixture `tests/golden/<file>`
/// (or rewrites the fixture under `UPDATE_GOLDEN=1`).
fn assert_golden(rendered: &str, file: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("writing golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden fixture missing: run UPDATE_GOLDEN=1 cargo test -p stream-engine \
         --test metrics_golden and commit the result",
    );
    assert_eq!(
        rendered, golden,
        "render drifted from tests/golden/{file} — \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1 and commit"
    );
}

#[test]
fn render_matches_committed_golden_byte_for_byte() {
    assert_golden(
        &render_prometheus(&fixture_with_net()),
        "serving_stats.prom",
    );
}

/// The JSON document is pinned too, with the ingest tier; without one the
/// document is the same up to the streams array, closed without `"net"`.
#[test]
fn json_render_matches_committed_golden_byte_for_byte() {
    let with_net = render_stats_json(&fixture_with_net());
    assert_golden(&with_net, "serving_stats.json");
    let streams_end = with_net
        .find(",\n  \"net\": {")
        .expect("the net object follows the streams array");
    let plain = format!("{}\n}}\n", &with_net[..streams_end]);
    assert_eq!(render_stats_json(&fixture()), plain);
}

#[test]
fn label_values_escape_backslash_quote_and_newline() {
    let out = render_prometheus(&fixture_with_net());
    // `sensor "B" \ west` must appear with escaped quotes + backslash.
    assert!(
        out.contains(r#"name="sensor \"B\" \\ west""#),
        "missing escaped quote/backslash label:\n{out}"
    );
    // The newline in `sensor\nC` must be the two-character sequence \n,
    // never a literal line break inside a label.
    assert!(
        out.contains(r#"name="sensor\nC""#),
        "missing escaped newline label:\n{out}"
    );
    // Peer labels on net series go through the same escaper.
    assert!(
        out.contains(r#"peer="bench \"B\" \\ east\nclient""#),
        "missing escaped peer label:\n{out}"
    );
    for line in out.lines() {
        assert!(
            !line.ends_with('\\'),
            "dangling escape at end of line: {line:?}"
        );
    }
}

/// A parsed exposition sample: metric name, label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Splits a sample line into (name, labels, value), honouring escapes
/// inside quoted label values. Returns None if the line is malformed.
fn parse_sample(line: &str) -> Option<Sample> {
    fn is_name_char(c: char, first: bool) -> bool {
        c.is_ascii_alphabetic()
            || c == '_'
            || c == ':'
            || (!first && (c.is_ascii_digit() || c == '.'))
    }
    let mut chars = line.chars().peekable();
    let mut name = String::new();
    while let Some(&c) = chars.peek() {
        if is_name_char(c, name.is_empty()) {
            name.push(c);
            chars.next();
        } else {
            break;
        }
    }
    if name.is_empty() {
        return None;
    }
    let mut labels = Vec::new();
    if chars.peek() == Some(&'{') {
        chars.next();
        loop {
            let mut key = String::new();
            while let Some(&c) = chars.peek() {
                if is_name_char(c, key.is_empty()) {
                    key.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            if key.is_empty() || chars.next() != Some('=') || chars.next() != Some('"') {
                return None;
            }
            let mut value = String::new();
            loop {
                match chars.next()? {
                    '\\' => match chars.next()? {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        _ => return None,
                    },
                    '"' => break,
                    '\n' => return None, // literal newline in a label
                    c => value.push(c),
                }
            }
            labels.push((key, value));
            match chars.next()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
    }
    if chars.next() != Some(' ') {
        return None;
    }
    let value: String = chars.collect();
    value.trim().parse::<f64>().ok().map(|v| (name, labels, v))
}

#[test]
fn every_line_is_valid_exposition_syntax() {
    let out = render_prometheus(&fixture_with_net());
    let mut samples = 0usize;
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            assert!(!name.is_empty(), "HELP without a metric name: {line:?}");
            helped.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge"),
                "unknown TYPE {kind:?} in {line:?}"
            );
            typed.push(name.to_string());
        } else if !line.is_empty() {
            let (name, labels, _) = parse_sample(line)
                .unwrap_or_else(|| panic!("not a valid exposition sample: {line:?}"));
            assert!(
                typed.contains(&name),
                "sample {name} appears before its TYPE header"
            );
            // Counters must carry the conventional _total suffix; the
            // suffix must never appear on a gauge.
            let is_counter = name.ends_with("_total");
            let type_line = out
                .lines()
                .find(|l| l.starts_with(&format!("# TYPE {name} ")))
                .unwrap();
            assert_eq!(
                type_line.ends_with("counter"),
                is_counter,
                "_total suffix disagrees with TYPE for {name}"
            );
            for (key, _) in &labels {
                assert!(!key.is_empty());
            }
            samples += 1;
        }
    }
    assert_eq!(helped, typed, "every HELP pairs with a TYPE in order");
    assert!(
        samples > 30,
        "expected a full render, got {samples} samples"
    );
}

#[test]
fn counters_reconcile_with_the_snapshot() {
    let stats = fixture();
    let out = render_prometheus(&stats);
    let find = |name: &str, stream: &str| -> f64 {
        out.lines()
            .filter_map(parse_sample_line_for(name, stream))
            .next()
            .unwrap_or_else(|| panic!("no sample {name} for stream {stream}:\n{out}"))
    };
    fn parse_sample_line_for<'a>(
        name: &'a str,
        stream: &'a str,
    ) -> impl Fn(&str) -> Option<f64> + 'a {
        move |line: &str| {
            let (n, labels, v) = parse_sample(line)?;
            (n == name && labels.iter().any(|(k, val)| k == "stream" && val == stream)).then_some(v)
        }
    }
    for s in &stats.streams {
        let id = s.stream.to_string();
        assert_eq!(
            find("class_stream_records_in_total", &id),
            s.records_in as f64
        );
        assert_eq!(find("class_stream_drops_total", &id), s.drops as f64);
        assert_eq!(find("class_stream_pushed_total", &id), s.pushed as f64);
        assert_eq!(
            find("class_stream_quarantined_after_total", &id),
            s.quarantined_after as f64
        );
    }
}

#[test]
fn net_families_reconcile_and_degrade_cleanly() {
    // Without an ingest tier neither render carries a net section.
    let plain = render_prometheus(&fixture());
    assert!(!plain.contains("class_net_"), "{plain}");
    let plain_json = render_stats_json(&fixture());
    assert!(!plain_json.contains("\"net\""), "{plain_json}");
    let stats = fixture_with_net();
    let out = render_prometheus(&stats);
    assert!(out.contains("class_net_connections 2\n"), "{out}");
    assert!(out.contains("class_net_connections_total 3\n"), "{out}");
    assert!(
        out.contains(
            r#"class_net_conn_frames_total{conn="1",peer="bench \"B\" \\ east\nclient"} 117"#
        ),
        "{out}"
    );
    assert!(
        out.contains(r#"class_net_conn_open{conn="2",peer="127.0.0.1:50003"} 0"#),
        "closed connections stay listed: {out}"
    );
    let json = render_stats_json(&stats);
    assert!(json.contains("\"net\": {"), "{json}");
    assert!(json.contains("\"accepted\": 3, \"active\": 2"), "{json}");
    assert!(
        json.contains("\"conn\": 2, \"peer\": \"127.0.0.1:50003\", \"open\": false"),
        "{json}"
    );
}

/// Minimal HTTP/1.1 GET against the metrics listener.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connecting to the metrics endpoint");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP head/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn live_endpoint_serves_scrapes_that_reconcile_with_stats() {
    let n_streams = 6usize;
    let points = 400usize;
    let data: Vec<Vec<f64>> = (0..n_streams)
        .map(|k| {
            (0..points)
                .map(|t| (t as f64 * 0.2 + k as f64).sin())
                .collect()
        })
        .collect();
    let (results, (_addr, server, handle, mid_scrape)) = serve(EngineConfig::new(2), |engine| {
        let server = engine
            .serve_metrics("127.0.0.1:0")
            .expect("binding an ephemeral metrics port");
        let addr = server.addr();
        let handles: Vec<_> = (0..n_streams)
            .map(|k| {
                engine.register_with(
                    StreamOptions {
                        name: Some(format!("live/{k}")),
                        ..StreamOptions::default()
                    },
                    move || TumblingWindowMean::new(8),
                )
            })
            .collect();
        // One scrape while the engine is demonstrably live.
        let (head, body) = http_get(addr, "/metrics");
        let slices: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
        feed_all(handles, &slices).expect("feed completes");
        (addr, server, engine.stats_handle(), (head, body))
    });
    assert_eq!(results.len(), n_streams);

    let (head, body) = mid_scrape;
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type: {head}"
    );
    assert!(body.contains("class_engine_streams 6"), "{body}");

    // After serving completes the registry is frozen: a fresh scrape
    // must agree exactly with the snapshot and with the results.
    let stats = handle.stats();
    let (_, body) = http_get(server.addr(), "/metrics");
    for s in &stats.streams {
        assert_eq!(s.records_in, points as u64);
        let needle = format!(
            "class_stream_records_in_total{{stream=\"{}\",shard=\"{}\",name=\"live/{}\"}} {}",
            s.stream, s.shard, s.stream, s.records_in
        );
        assert!(body.contains(&needle), "missing {needle:?} in:\n{body}");
    }
    assert_eq!(
        body.matches("class_stream_done").count(),
        2 + n_streams, // HELP + TYPE + one sample per stream
        "every stream reports done-ness"
    );

    // Route handling: /stats.json is the JSON view, anything else 404s.
    let (head, json_body) = http_get(server.addr(), "/stats.json");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    assert!(json_body.contains("\"schema\": \"class-serving-stats/v1\""));
    // uptime keeps ticking between the scrape and this render; every
    // non-time-derived line must match byte for byte.
    let stable = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("uptime_s") && !l.contains("records_per_sec"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        stable(&json_body),
        stable(&render_stats_json(&stats)),
        "JSON route renders the live snapshot"
    );
    let (head, _) = http_get(server.addr(), "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(server.scrapes() >= 2, "scrape counter advanced");
}

#[test]
fn unattached_endpoint_returns_503_until_a_source_arrives() {
    let server = stream_engine::MetricsServer::bind("127.0.0.1:0").expect("bind");
    let (head, _) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
}

/// The endpoint answers one connection at a time. A client that trickles
/// its request, a byte every 500 ms (inside any per-read timeout), must
/// lose the listener at the request-head deadline instead of holding it
/// until 8 KiB have arrived, so a second client's scrape still completes.
#[test]
fn a_trickling_client_does_not_stall_other_scrapes() {
    let (_, handle) = serve(EngineConfig::new(1), |engine| {
        engine.register(|| TumblingWindowMean::new(4)).close();
        engine.stats_handle()
    });
    let server = stream_engine::MetricsServer::bind("127.0.0.1:0").expect("bind");
    server.attach(handle);
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let trickler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connecting the trickling client");
            // 20 bytes over 10 s: long enough to outlast the scrape below,
            // bounded so that a listener it does hold is let go.
            let head = b"GET /metrics HTTP/1.1\r\nX";
            for &byte in head.iter().take(20) {
                if stop.load(Ordering::Relaxed) || conn.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        })
    };
    // Let the listener take the trickling connection first.
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    let (head, _) = http_get(addr, "/metrics");
    let took = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    trickler.join().expect("trickling client");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        took < Duration::from_secs(4),
        "a scrape waited {took:?} behind a trickling client"
    );
}

#[test]
fn snapshot_writer_maintains_a_parseable_file_and_flushes_on_drop() {
    let path =
        std::env::temp_dir().join(format!("class_snapshot_test_{}.json", std::process::id()));
    let n_streams = 3usize;
    let data: Vec<Vec<f64>> = (0..n_streams)
        .map(|k| {
            (0..300)
                .map(|t| (t as f64 * 0.3 + k as f64).cos())
                .collect()
        })
        .collect();
    let (results, handle) = serve(EngineConfig::new(1), |engine| {
        let writer = SnapshotWriter::start(
            engine.stats_handle(),
            path.clone(),
            Duration::from_millis(10),
        );
        let handles: Vec<_> = (0..n_streams)
            .map(|_| engine.register(move || TumblingWindowMean::new(4)))
            .collect();
        let slices: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
        feed_all(handles, &slices).expect("feed completes");
        drop(writer); // final flush happens here, while the engine is live
        engine.stats_handle()
    });
    assert_eq!(results.len(), n_streams);
    let doc = std::fs::read_to_string(&path).expect("snapshot file exists after drop");
    assert!(
        doc.contains("\"schema\": \"class-serving-stats/v1\""),
        "mid-run snapshot carries the schema: {doc}"
    );

    // A writer over the now-frozen registry flushes the terminal ledger
    // on drop; everything except the still-ticking uptime-derived lines
    // must match a direct render byte for byte.
    let writer = SnapshotWriter::start(handle.clone(), path.clone(), Duration::from_millis(10));
    drop(writer);
    let doc = std::fs::read_to_string(&path).expect("snapshot file exists after drop");
    let stable = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("uptime_s") && !l.contains("records_per_sec"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&doc), stable(&render_stats_json(&handle.stats())));
    assert!(!std::path::Path::new(&format!("{}.tmp", path.display())).exists());
    std::fs::remove_file(&path).ok();
}
