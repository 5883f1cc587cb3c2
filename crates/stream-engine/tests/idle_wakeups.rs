//! An idle engine sleeps: shards with registered but silent streams wait
//! on their bell, and the ingest and metrics listeners wait in `accept`;
//! none is woken by a timer. The test counts the voluntary context
//! switches of every thread of this process except its own while 4 idle
//! streams sit on 2 shards, next to a bound `IngestServer` with one idle
//! connected `NetClient` and a `MetricsServer`, for 500 ms. A shard that
//! polled every 200 µs would switch about 5000 times a second, a listener
//! that polled every 5 ms about 200. The idle connection's thread wakes
//! on its 100 ms read timeout, about 5 times in the window.
//!
//! Kept as the only test in this binary so no sibling test's threads
//! add to the count.

#![cfg(target_os = "linux")]

use std::time::Duration;
use stream_engine::{
    serve, EngineConfig, IngestServer, MetricsServer, NetClient, TumblingWindowMean,
};

/// Voluntary context switches summed over this process's threads, except
/// the thread with id `skip`.
fn voluntary_switches_except(skip: &std::ffi::OsStr) -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let task = task.expect("task entry");
        if task.file_name() == skip {
            continue;
        }
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .map_or(0, |v| v.trim().parse::<u64>().expect("switch count"));
    }
    total
}

#[test]
fn idle_shards_do_not_wake() {
    let me = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    let me = me.file_name().expect("thread id").to_owned();
    let (results, switches) = serve(EngineConfig::new(2), |engine| {
        let handles: Vec<_> = (0..4)
            .map(|_| engine.register(|| TumblingWindowMean::new(4)))
            .collect();
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), |_req| {
            TumblingWindowMean::new(4)
        })
        .expect("binding a loopback ingest listener");
        let client = NetClient::connect(server.addr(), "idle").expect("connect");
        let metrics = MetricsServer::bind("127.0.0.1:0").expect("binding a metrics listener");
        // Let the shards accept the registrations and park.
        std::thread::sleep(Duration::from_millis(50));
        let before = voluntary_switches_except(&me);
        std::thread::sleep(Duration::from_millis(500));
        let after = voluntary_switches_except(&me);
        drop((client, server, metrics));
        drop(handles);
        after - before
    });
    assert_eq!(results.len(), 4);
    assert!(
        switches < 50,
        "idle engine and listeners woke {switches} times in 500 ms: something polls"
    );
}
