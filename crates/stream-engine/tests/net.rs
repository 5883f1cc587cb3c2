//! Wire-path tests for the network ingestion tier: frame codec
//! properties (proptest), a multi-producer differential test pinning
//! socket-fed output bit-identical to [`feed_all`] under the block
//! policy, runtime register → feed → detach ledger accounting, the
//! per-policy backpressure semantics over the wire, protocol-violation
//! handling (an oversized ring request included), and the net families
//! of the metrics endpoints and snapshot files.

use class_core::{ClassConfig, ClassSegmenter, WidthSelection};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use stream_engine::{
    feed_all, serve, Backpressure, EngineConfig, ErrorCode, Frame, FrameError, IngestServer,
    MetricsServer, NetClient, NetError, Operator, Record, RegisterRequest, RingConfig,
    SegmenterOperator, SnapshotWriter, StreamOptions, StreamState,
};

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

const WINDOW: usize = 400;

fn segmenter() -> SegmenterOperator<ClassSegmenter> {
    let mut cfg = ClassConfig::with_window_size(WINDOW);
    cfg.width = WidthSelection::Fixed(15);
    cfg.warmup = Some(WINDOW);
    cfg.log10_alpha = -15.0;
    cfg.seed = 7;
    SegmenterOperator::new(ClassSegmenter::new(cfg))
}

/// Deterministic two-regime series: a noisy sine that more than
/// doubles its frequency halfway through, parameterised per stream so
/// no two streams are identical. The noise is a tiny splitmix-style
/// generator so runs are reproducible without any dependency.
fn stream_values(k: usize, n: usize) -> Vec<f64> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (k as u64);
    let mut noise = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64 - 0.5
    };
    let scale = 1.0 + 0.03 * k as f64;
    (0..n)
        .map(|i| {
            let f = if i < n / 2 { 0.18 } else { 0.42 } * scale;
            (i as f64 * f).sin() + 0.05 * noise()
        })
        .collect()
}

/// An operator slow enough that a tiny ring fills: backpressure tests
/// exercise the policy branch deterministically even on one CPU.
struct SlowOp {
    delay: Duration,
}

impl Operator for SlowOp {
    type In = f64;
    type Out = u64;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<u64>>) {
        std::thread::sleep(self.delay);
        if rec.timestamp % 64 == 0 {
            out.push(Record::new(rec.timestamp, rec.timestamp));
        }
    }

    fn name(&self) -> &'static str {
        "slow"
    }
}

// ---------------------------------------------------------------------
// Frame codec properties
// ---------------------------------------------------------------------

/// Printable-ASCII strings (valid UTF-8 by construction).
fn ascii_string(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..=94, 0..max)
        .prop_map(|v| v.into_iter().map(|b| (b + 32) as char).collect())
}

/// Any frame variant. Values are arbitrary `u64` bit patterns pushed
/// through `f64::from_bits`, so NaNs and infinities are covered.
fn any_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..7,
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..24),
        ascii_string(40),
    )
        .prop_map(|(tag, x, bits, s)| match tag {
            0 => Frame::Hello {
                version: x as u16,
                peer: s,
            },
            1 => Frame::Register {
                policy: (x % 3) as u8,
                capacity: x as u32,
                name: s,
            },
            2 => Frame::Records {
                stream: x as u32,
                values: bits.into_iter().map(f64::from_bits).collect(),
            },
            3 => Frame::Detach { stream: x as u32 },
            4 => Frame::Ack {
                stream: x as u32,
                received: x,
                drops: x.rotate_left(17),
            },
            5 => Frame::Throttle {
                stream: x as u32,
                queued: (x >> 32) as u32,
            },
            _ => Frame::Error {
                code: match x % 5 {
                    0 => ErrorCode::VersionMismatch,
                    1 => ErrorCode::UnknownStream,
                    2 => ErrorCode::Overflow,
                    3 => ErrorCode::Protocol,
                    _ => ErrorCode::Shutdown,
                },
                stream: if x % 2 == 0 { None } else { Some(x as u32) },
                message: s,
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode → encode is byte-identical (stronger than frame
    /// equality: it holds through NaN payloads, where `PartialEq` on
    /// the decoded frame would not).
    #[test]
    fn codec_roundtrip_is_byte_identical(frame in any_frame()) {
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes).expect("valid frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Every strict prefix of a valid frame is `Truncated` with an
    /// exact byte offset and a `needed` that never exceeds the frame.
    #[test]
    fn codec_truncation_is_typed_at_every_cut(frame in any_frame()) {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { offset, needed }) => {
                    prop_assert_eq!(offset, cut);
                    prop_assert!(needed > cut);
                    prop_assert!(needed <= bytes.len());
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "cut {cut}/{}: expected Truncated, got {other:?}",
                        bytes.len()
                    )))
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder — including bytes
    /// patched to start with a valid tag, which reach the payload
    /// parsers.
    #[test]
    fn codec_never_panics_on_garbage(raw in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = Frame::decode(&raw);
        let mut bytes = raw;
        if let Some(first) = bytes.first_mut() {
            *first = 1 + *first % 7; // a valid tag: exercise payload parsing
        }
        if bytes.len() >= 5 {
            // A length field that matches the available payload drives
            // the parse all the way into the payload readers.
            let len = (bytes.len() - 5) as u32;
            bytes[1..5].copy_from_slice(&len.to_le_bytes());
        }
        let _ = Frame::decode(&bytes);
    }
}

// ---------------------------------------------------------------------
// Differential test: socket feed ≡ in-process feed_all
// ---------------------------------------------------------------------

/// Under the block policy the wire path is lossless and stamps the
/// same timestamps as an in-process feed, so every stream's operator
/// output must be bit-identical between the two.
#[test]
fn socket_feed_matches_feed_all_bit_for_bit() {
    const STREAMS: usize = 6;
    const POINTS: usize = 1200;
    const PRODUCERS: usize = 3;
    let data: Vec<Vec<f64>> = (0..STREAMS).map(|k| stream_values(k, POINTS)).collect();
    let ring = RingConfig::new(64, Backpressure::Block);

    // Reference run: registered in-process, fed with feed_all.
    let (expected, ()) = serve(EngineConfig::new(2), |engine| {
        let handles = (0..STREAMS)
            .map(|k| {
                engine.register_with(
                    StreamOptions {
                        ring,
                        name: Some(format!("ref-{k}")),
                        ..StreamOptions::default()
                    },
                    segmenter,
                )
            })
            .collect::<Vec<_>>();
        let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        feed_all(handles, &slices).expect("block policy feeds losslessly");
    });

    // Wire run: the same streams arrive over TCP from three concurrent
    // producers. Registration order over the wire is nondeterministic,
    // so each producer reports its (wire id → data index) mapping.
    let (got, mapping) = serve(EngineConfig::new(2), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| segmenter())
            .expect("binding a loopback ingest listener");
        let addr = server.addr();
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let chunk: Vec<(usize, Vec<f64>)> = (0..STREAMS)
                .filter(|k| k % PRODUCERS == p)
                .map(|k| (k, data[k].clone()))
                .collect();
            producers.push(std::thread::spawn(move || {
                let mut client =
                    NetClient::connect(addr, &format!("producer-{p}")).expect("connect");
                let mut map = Vec::new();
                for (k, values) in chunk {
                    let id = client
                        .register(&format!("wire-{k}"), Some(ring))
                        .expect("register over the wire");
                    let mut sent = 0u64;
                    for batch in values.chunks(128) {
                        let ack = client.send_records(id, batch).expect("records acked");
                        sent += batch.len() as u64;
                        assert_eq!(ack.stream, id);
                        assert_eq!(ack.received, sent, "block policy acks are lossless");
                        assert_eq!(ack.drops, 0, "block policy never drops");
                    }
                    let ack = client.detach(id).expect("detach acked");
                    assert_eq!(ack.received, values.len() as u64);
                    map.push((id as usize, k));
                }
                map
            }));
        }
        let mut map = Vec::new();
        for t in producers {
            map.extend(t.join().expect("producer threads complete"));
        }
        drop(server); // releases the registrar before the body returns
        map
    });

    assert_eq!(expected.len(), STREAMS);
    assert_eq!(got.len(), STREAMS);
    assert_eq!(mapping.len(), STREAMS);
    assert!(
        expected.iter().any(|r| !r.output.is_empty()),
        "fixture must exercise real operator output, found none"
    );
    let by_id: HashMap<usize, _> = got.iter().map(|r| (r.stream, r)).collect();
    for (wire_id, k) in mapping {
        let w = by_id[&wire_id];
        let e = &expected[k];
        assert_eq!(e.stream, k, "reference results sort by registration order");
        assert_eq!(w.records_in, POINTS as u64);
        assert_eq!(w.records_in, e.records_in);
        assert_eq!(w.drops, 0);
        assert_eq!(w.pushed, e.pushed);
        assert_eq!(
            w.output, e.output,
            "stream {k}: socket-fed output diverged from feed_all"
        );
    }
}

// ---------------------------------------------------------------------
// Runtime register / detach ledger
// ---------------------------------------------------------------------

/// A wire stream registers on a live engine, feeds, and detaches; the
/// resident stream keeps serving afterwards and both ledgers are exact.
#[test]
fn runtime_register_feed_detach_keeps_engine_serving() {
    const WIRE_POINTS: usize = 500;
    const RESIDENT_POINTS: usize = 300;
    let (results, (wire_id, detach_ack)) = serve(EngineConfig::new(2), |engine| {
        let mut resident = engine.register(segmenter);
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| segmenter())
            .expect("binding a loopback ingest listener");
        let addr = server.addr();
        let (wire_id, ack) = std::thread::spawn(move || {
            let mut client = NetClient::connect(addr, "ledger-producer").expect("connect");
            let id = client
                .register(
                    "wire-ledger",
                    Some(RingConfig::new(32, Backpressure::Block)),
                )
                .expect("register");
            for batch in stream_values(0, WIRE_POINTS).chunks(100) {
                client.send_records(id, batch).expect("records acked");
            }
            (id, client.detach(id).expect("detach acked"))
        })
        .join()
        .expect("producer thread");

        // The wire stream is fully retired; the engine still serves.
        let values = stream_values(1, RESIDENT_POINTS);
        let mut off = 0;
        while off < values.len() {
            match resident.try_feed(&values[off..]) {
                Ok(0) => std::thread::yield_now(),
                Ok(n) => off += n,
                Err(e) => panic!("resident stream must keep accepting: {e}"),
            }
        }
        drop(resident);
        drop(server);
        (wire_id as usize, ack)
    });

    assert_eq!(detach_ack.received, WIRE_POINTS as u64);
    assert_eq!(detach_ack.drops, 0);
    assert_eq!(results.len(), 2);
    let wire = results
        .iter()
        .find(|r| r.stream == wire_id)
        .expect("wire stream result present");
    assert_eq!(wire.records_in, WIRE_POINTS as u64);
    assert_eq!(wire.pushed, WIRE_POINTS as u64);
    assert_eq!(wire.drops, 0);
    assert_eq!(wire.quarantined_after, 0);
    assert_eq!(wire.state, StreamState::Done);
    let resident = results
        .iter()
        .find(|r| r.stream != wire_id)
        .expect("resident stream result present");
    assert_eq!(resident.records_in, RESIDENT_POINTS as u64);
    assert_eq!(resident.state, StreamState::Done);
}

// ---------------------------------------------------------------------
// Per-policy wire semantics
// ---------------------------------------------------------------------

/// drop-oldest: everything is accepted immediately; cumulative
/// evictions ride on every ACK and reconcile with the final ledger.
#[test]
fn drop_oldest_reports_eviction_counts_on_acks() {
    const POINTS: usize = 100;
    let (results, (ack, det)) = serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| SlowOp {
            delay: Duration::from_millis(2),
        })
        .expect("binding a loopback ingest listener");
        let addr = server.addr();
        let out = std::thread::spawn(move || {
            let mut client = NetClient::connect(addr, "lossy-producer").expect("connect");
            let id = client
                .register("lossy", Some(RingConfig::new(4, Backpressure::DropOldest)))
                .expect("register");
            let values: Vec<f64> = (0..POINTS).map(|i| i as f64).collect();
            let ack = client.send_records(id, &values).expect("records acked");
            let det = client.detach(id).expect("detach acked");
            (ack, det)
        })
        .join()
        .expect("producer thread");
        drop(server);
        out
    });

    assert_eq!(
        ack.received, POINTS as u64,
        "drop-oldest accepts everything"
    );
    assert!(
        ack.drops > 0,
        "a slow consumer behind a cap-4 ring must evict"
    );
    assert!(det.drops >= ack.drops, "drop counts are cumulative");
    let r = &results[0];
    assert_eq!(r.pushed, POINTS as u64);
    assert_eq!(
        r.drops, det.drops,
        "the detach ack carries the final drop count"
    );
    assert_eq!(
        r.records_in + r.drops + r.quarantined_after,
        r.pushed,
        "exact ledger under concurrent eviction"
    );
}

/// error policy: an overflowing RECORDS frame gets a typed ERROR and
/// the connection is closed.
#[test]
fn error_policy_surfaces_typed_overflow_and_closes() {
    let (results, (err, closed)) = serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| SlowOp {
            delay: Duration::from_millis(5),
        })
        .expect("binding a loopback ingest listener");
        let addr = server.addr();
        let out = std::thread::spawn(move || {
            let mut client = NetClient::connect(addr, "bursty-producer").expect("connect");
            let id = client
                .register("fragile", Some(RingConfig::new(2, Backpressure::Error)))
                .expect("register");
            let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
            let err = client
                .send_records(id, &values)
                .expect_err("a 50-record burst must overflow a cap-2 error ring");
            let closed = client.send_records(id, &[1.0]).is_err();
            (err, closed)
        })
        .join()
        .expect("producer thread");
        drop(server);
        out
    });

    match err {
        NetError::Remote {
            code: ErrorCode::Overflow,
            stream,
            ..
        } => assert!(stream.is_some(), "overflow errors name the stream"),
        other => panic!("expected a remote overflow error, got {other:?}"),
    }
    assert!(closed, "the server closes the connection after an ERROR");
    // The stream the server force-closed still drained and accounted.
    let r = &results[0];
    assert_eq!(r.records_in + r.drops + r.quarantined_after, r.pushed);
}

/// block policy: the frame stalls, one THROTTLE per stalled frame is
/// surfaced, and the ack is lossless.
#[test]
fn block_policy_throttles_and_stays_lossless() {
    const POINTS: usize = 40;
    let (results, (ack, throttles)) = serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| SlowOp {
            delay: Duration::from_millis(2),
        })
        .expect("binding a loopback ingest listener");
        let addr = server.addr();
        let out = std::thread::spawn(move || {
            let mut client = NetClient::connect(addr, "patient-producer").expect("connect");
            let id = client
                .register("steady", Some(RingConfig::new(2, Backpressure::Block)))
                .expect("register");
            let values: Vec<f64> = (0..POINTS).map(|i| (i as f64).cos()).collect();
            let ack = client.send_records(id, &values).expect("records acked");
            client.detach(id).expect("detach acked");
            (ack, client.throttle_events())
        })
        .join()
        .expect("producer thread");
        drop(server);
        out
    });

    assert_eq!(ack.received, POINTS as u64, "block policy is lossless");
    assert_eq!(ack.drops, 0);
    assert!(
        throttles >= 1,
        "a cap-2 ring behind a 2 ms/record operator must raise THROTTLE"
    );
    assert_eq!(results[0].records_in, POINTS as u64);
    assert_eq!(results[0].drops, 0);
}

// ---------------------------------------------------------------------
// Protocol violations
// ---------------------------------------------------------------------

/// Connects raw, writes `frames`, and returns every frame the server
/// sends back before closing.
fn raw_exchange(addr: std::net::SocketAddr, frames: &[Frame]) -> Vec<Frame> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for f in frames {
        sock.write_all(&f.encode()).expect("write frame");
    }
    let mut buf = Vec::new();
    sock.read_to_end(&mut buf).expect("read until server close");
    let mut out = Vec::new();
    let mut start = 0;
    while start < buf.len() {
        let (frame, used) = Frame::decode(&buf[start..]).expect("server sends whole frames");
        start += used;
        out.push(frame);
    }
    out
}

#[test]
fn protocol_violations_get_typed_errors_and_close() {
    let (_results, ()) = serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| segmenter())
            .expect("binding a loopback ingest listener");
        let addr = server.addr();

        // Unsupported HELLO version → typed version-mismatch, close.
        let replies = raw_exchange(
            addr,
            &[Frame::Hello {
                version: 99,
                peer: "time-traveller".to_string(),
            }],
        );
        assert_eq!(replies.len(), 1);
        assert!(
            matches!(
                replies[0],
                Frame::Error {
                    code: ErrorCode::VersionMismatch,
                    ..
                }
            ),
            "got {replies:?}"
        );

        // RECORDS before HELLO → protocol error, close.
        let replies = raw_exchange(
            addr,
            &[Frame::Records {
                stream: 0,
                values: vec![1.0],
            }],
        );
        assert_eq!(replies.len(), 1);
        assert!(
            matches!(
                replies[0],
                Frame::Error {
                    code: ErrorCode::Protocol,
                    ..
                }
            ),
            "got {replies:?}"
        );

        // RECORDS for a never-registered stream → unknown-stream.
        let mut client = NetClient::connect(addr, "confused-producer").expect("connect");
        match client.send_records(7, &[1.0]) {
            Err(NetError::Remote {
                code: ErrorCode::UnknownStream,
                stream: Some(7),
                ..
            }) => {}
            other => panic!("expected unknown-stream, got {other:?}"),
        }

        drop(server);
    });
}

/// A REGISTER asking for a ring above the wire limit is refused with a
/// typed protocol error before anything is allocated for it, and its
/// connection is closed; a second connection on the same server still
/// registers, feeds and detaches with an exact ledger.
#[test]
fn oversized_register_is_refused_and_server_keeps_serving() {
    const POINTS: usize = 300;
    let (results, (refused, closed, det)) = serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| segmenter())
            .expect("binding a loopback ingest listener");
        let addr = server.addr();
        let out = std::thread::spawn(move || {
            let mut greedy = NetClient::connect(addr, "greedy-producer").expect("connect");
            let refused = greedy.register(
                "big",
                Some(RingConfig::new(u32::MAX as usize, Backpressure::Block)),
            );
            let closed = greedy.register("again", None).is_err();
            let mut client = NetClient::connect(addr, "modest-producer").expect("connect");
            let id = client
                .register("modest", Some(RingConfig::new(32, Backpressure::Block)))
                .expect("register");
            for batch in stream_values(0, POINTS).chunks(100) {
                client.send_records(id, batch).expect("records acked");
            }
            (refused, closed, client.detach(id).expect("detach acked"))
        })
        .join()
        .expect("producer thread");
        drop(server);
        out
    });

    match refused {
        Err(NetError::Remote {
            code: ErrorCode::Protocol,
            stream: None,
            ..
        }) => {}
        other => panic!("expected a remote protocol error, got {other:?}"),
    }
    assert!(closed, "the server closes the connection after an ERROR");
    assert_eq!(det.received, POINTS as u64);
    assert_eq!(det.drops, 0);
    assert_eq!(results.len(), 1, "the refused REGISTER created no stream");
    let r = &results[0];
    assert_eq!(r.records_in, POINTS as u64);
    assert_eq!(r.pushed, POINTS as u64);
    assert_eq!(r.drops, 0);
    assert_eq!(r.quarantined_after, 0);
    assert_eq!(r.state, StreamState::Done);
}

// ---------------------------------------------------------------------
// Metrics end to end
// ---------------------------------------------------------------------

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    response
        .split_once("\r\n\r\n")
        .expect("HTTP head/body split")
        .1
        .to_string()
}

/// A live scrape while a producer connection is open shows the
/// connection-level families on /metrics and the `net` object on
/// /stats.json.
#[test]
fn metrics_endpoints_expose_net_families() {
    let (_results, ()) = serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind(
            "127.0.0.1:0",
            engine.registrar(),
            |req: &RegisterRequest| {
                assert_eq!(req.name, "metered");
                segmenter()
            },
        )
        .expect("binding a loopback ingest listener");
        let metrics = MetricsServer::bind("127.0.0.1:0").expect("binding a metrics port");
        metrics.attach(engine.stats_handle());

        let mut client = NetClient::connect(server.addr(), "scraped-producer").expect("connect");
        let id = client.register("metered", None).expect("register");
        let values: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        client.send_records(id, &values).expect("records acked");

        let prom = http_get(metrics.addr(), "/metrics");
        assert!(prom.contains("class_net_connections 1"), "{prom}");
        assert!(prom.contains("class_net_connections_total 1"), "{prom}");
        assert!(prom.contains("class_net_records_total 64"), "{prom}");
        assert!(prom.contains("class_net_conn_open{conn=\"0\""), "{prom}");
        assert!(prom.contains("class_net_conn_streams{conn=\"0\""), "{prom}");
        assert!(prom.contains("class_net_conn_frames_per_sec"), "{prom}");

        let json = http_get(metrics.addr(), "/stats.json");
        assert!(json.contains("\"net\""), "{json}");
        assert!(json.contains("\"accepted\": 1"), "{json}");
        assert!(json.contains("\"active\": 1"), "{json}");
        assert!(json.contains("\"conn\": 0"), "{json}");
        assert!(json.contains("\"open\": true"), "{json}");

        client.detach(id).expect("detach acked");
        drop(client);
        drop(metrics);
        drop(server);
    });
}

/// A snapshot file of an engine with an ingest tier carries the `net`
/// object: the writer renders the engine's one snapshot, connections
/// included, with no second source to attach.
#[test]
fn snapshot_files_carry_the_ingest_tier() {
    let path = std::env::temp_dir().join(format!(
        "class_net_snapshot_test_{}.json",
        std::process::id()
    ));
    serve(EngineConfig::new(1), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| segmenter())
            .expect("binding a loopback ingest listener");
        let mut client = NetClient::connect(server.addr(), "snapshotted").expect("connect");
        let id = client.register("snap", None).expect("register");
        client
            .send_records(id, &stream_values(0, 64))
            .expect("records acked");
        // The writer's first and terminal snapshots, one producer open.
        SnapshotWriter::start(engine.stats_handle(), path.clone(), Duration::from_secs(60)).stop();
        client.detach(id).expect("detach acked");
        drop(client);
        drop(server);
    });
    let doc = std::fs::read_to_string(&path).expect("snapshot file exists after stop");
    std::fs::remove_file(&path).ok();
    assert!(doc.contains("\"net\": {"), "{doc}");
    // HELLO, REGISTER and RECORDS were received, 64 values accepted.
    assert!(
        doc.contains("\"accepted\": 1, \"active\": 1, \"frames\": 3, \"records\": 64"),
        "{doc}"
    );
    assert!(doc.contains("\"conn\": 0"), "{doc}");
}
