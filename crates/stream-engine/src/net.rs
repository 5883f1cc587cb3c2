//! Network ingestion tier: a std-only TCP listener that feeds remote
//! producers into a live serving engine.
//!
//! The paper's throughput experiment assumes records *arrive over a
//! network* (Flink sources); this module closes that gap. Many producer
//! connections speak a small length-prefixed binary protocol
//! ([`Frame`]) against one [`IngestServer`], registering streams on a
//! running engine at runtime (via [`crate::Registrar`]), feeding them,
//! and detaching them — while the engine keeps serving everything else.
//!
//! The ingest tier keeps no books of its own: each connection's monitor
//! is registered, through the same [`crate::Registrar`], in the engine's
//! one stats registry, so every [`crate::ServingStats`] snapshot — and
//! every exporter rendering one — carries the connections as
//! [`crate::ServingStats::net`].
//!
//! ## Wire protocol
//!
//! Every frame is `[type: u8][len: u32 LE][payload]`, `len` capped at
//! [`MAX_FRAME_LEN`]. Strings are `u16 LE` length + UTF-8 bytes;
//! values travel as `f64` bit patterns (`u64 LE`), so a feed
//! round-trips bit-identically — NaNs included.
//!
//! | frame | payload | direction |
//! |---|---|---|
//! | `HELLO` | version `u16`, peer name | both, first frame each way |
//! | `REGISTER` | policy `u8`, capacity `u32` (0 = engine default, at most [`MAX_WIRE_RING`]), name | producer → |
//! | `RECORDS` | stream `u32`, count `u32`, count × `f64` | producer → |
//! | `DETACH` | stream `u32` | producer → |
//! | `ACK` | stream `u32`, received `u64`, drops `u64` | → producer |
//! | `THROTTLE` | stream `u32`, queued `u32` | → producer |
//! | `ERROR` | code `u8`, stream `u32` (`u32::MAX` = none), message | → producer |
//!
//! A `REGISTER` asking for more than [`MAX_WIRE_RING`] records gets a
//! `protocol` `ERROR` and the connection is closed, like any other
//! protocol violation.
//!
//! ## Backpressure over the wire
//!
//! The per-stream ring policy surfaces as protocol behaviour:
//!
//! * **block** — a `RECORDS` frame that does not fit is held; the
//!   server sends one `THROTTLE` (current queue depth) per stalled
//!   frame, waits for the shard to free ring space and pushes the rest
//!   until everything is accepted, then acks. Lossless: the ack's
//!   `received` always equals the bytes sent.
//! * **drop-oldest** — everything is accepted immediately; the
//!   cumulative eviction count rides on every `ACK` (`drops`).
//! * **error** — a `RECORDS` frame that overflows gets a typed
//!   `ERROR` (`overflow`) and the connection is closed.

use crate::engine::{Registrar, StatsHandle, StreamHandle, StreamOptions};
use crate::operator::Operator;
use crate::ring::{Backpressure, RingConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol version carried in `HELLO`; mismatches are refused.
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on a frame's payload length (1 MiB ≈ 131k records per
/// `RECORDS` frame). Larger headers are rejected as [`FrameError::Oversized`]
/// before any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Largest ring capacity, in records, a `REGISTER` frame may ask for. The
/// server allocates the ring up front, so a larger request is refused
/// with a protocol `ERROR` instead of letting one peer exhaust memory.
pub const MAX_WIRE_RING: usize = 1 << 20;

/// Frame header: type byte + LE u32 payload length.
const FRAME_HEADER: usize = 5;

/// Sentinel stream id in `ERROR` frames that concern the connection.
const NO_STREAM: u32 = u32::MAX;

/// How often blocking server loops re-check the stop flag.
const NET_POLL: Duration = Duration::from_millis(100);

/// How long a listener waits after a failed `accept` (say, out of file
/// descriptors) before it tries again, so an error loop cannot spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

const TAG_HELLO: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_RECORDS: u8 = 3;
const TAG_DETACH: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_THROTTLE: u8 = 6;
const TAG_ERROR: u8 = 7;

/// Typed error codes carried in `ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer's `HELLO` carried an unsupported protocol version.
    VersionMismatch,
    /// A frame referenced a stream id this connection never registered.
    UnknownStream,
    /// A `RECORDS` frame overflowed a ring under the `error` policy.
    Overflow,
    /// The peer broke protocol (bad frame, wrong first frame, …).
    Protocol,
    /// The engine is shutting down; no more records can be delivered.
    Shutdown,
}

/// Every error code with its wire byte and display name.
const ERROR_CODES: [(ErrorCode, u8, &str); 5] = [
    (ErrorCode::VersionMismatch, 1, "version-mismatch"),
    (ErrorCode::UnknownStream, 2, "unknown-stream"),
    (ErrorCode::Overflow, 3, "overflow"),
    (ErrorCode::Protocol, 4, "protocol"),
    (ErrorCode::Shutdown, 5, "shutdown"),
];

impl ErrorCode {
    fn entry(self) -> (ErrorCode, u8, &'static str) {
        *ERROR_CODES
            .iter()
            .find(|e| e.0 == self)
            .expect("every code is in the table")
    }

    fn to_u8(self) -> u8 {
        self.entry().1
    }

    fn from_u8(v: u8) -> Option<Self> {
        ERROR_CODES.iter().find(|e| e.1 == v).map(|e| e.0)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.entry().2)
    }
}

/// One protocol frame. See the module docs for the wire layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener, first frame in each direction.
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Peer name (client id or `"class-engine"`).
        peer: String,
    },
    /// Register a stream on the engine.
    Register {
        /// Backpressure policy: 0 block, 1 drop-oldest, 2 error.
        policy: u8,
        /// Ring capacity; 0 means the engine default.
        capacity: u32,
        /// Stream name (labels stats and metrics).
        name: String,
    },
    /// A batch of observations for one registered stream.
    Records {
        /// Stream id from the registration `ACK`.
        stream: u32,
        /// Observation values, bit-exact `f64`s.
        values: Vec<f64>,
    },
    /// Detach a stream: drain, flush, retire, then `ACK`.
    Detach {
        /// Stream id to detach.
        stream: u32,
    },
    /// Server acknowledgement for `REGISTER` / `RECORDS` / `DETACH`.
    Ack {
        /// Stream the ack concerns.
        stream: u32,
        /// Cumulative records accepted from this connection.
        received: u64,
        /// Cumulative drop-oldest evictions for the stream.
        drops: u64,
    },
    /// Backpressure signal under the `block` policy: the last `RECORDS`
    /// frame is stalled on a full ring.
    Throttle {
        /// Stream that is throttling.
        stream: u32,
        /// Ring depth when the throttle was raised.
        queued: u32,
    },
    /// Typed failure; the server closes the connection after sending.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Affected stream, if any.
        stream: Option<u32>,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a byte buffer failed to decode into a [`Frame`]. Every variant
/// carries the byte offset (relative to the frame start) at which
/// decoding stopped, so producers can be debugged from a hex dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does; `needed` total bytes are
    /// required. Streaming decoders treat this as "read more".
    Truncated {
        /// Bytes available when decoding stopped.
        offset: usize,
        /// Total bytes the frame needs (header + payload).
        needed: usize,
    },
    /// The type byte is not a known frame tag.
    UnknownType {
        /// The unknown tag.
        tag: u8,
        /// Offset of the tag byte (always 0).
        offset: usize,
    },
    /// The header declares a payload longer than [`MAX_FRAME_LEN`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
        /// Offset of the length field.
        offset: usize,
    },
    /// The payload does not parse as the tag's layout.
    Malformed {
        /// Offset at which parsing failed.
        offset: usize,
        /// What was wrong.
        detail: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { offset, needed } => {
                write!(f, "truncated frame: {offset} bytes of {needed}")
            }
            FrameError::UnknownType { tag, offset } => {
                write!(f, "unknown frame type {tag:#04x} at byte {offset}")
            }
            FrameError::Oversized { len, max, offset } => {
                write!(
                    f,
                    "oversized frame: payload {len} > {max} (length field at byte {offset})"
                )
            }
            FrameError::Malformed { offset, detail } => {
                write!(f, "malformed frame at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Payload reader tracking the absolute byte offset for error reports.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], base: usize) -> Self {
        Self { buf, pos: 0, base }
    }

    fn malformed(&self, detail: &'static str) -> FrameError {
        FrameError::Malformed {
            offset: self.base + self.pos,
            detail,
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(self.malformed(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    /// The next `N` bytes as an array (little-endian integer fields).
    fn bytes<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], FrameError> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returns N bytes"))
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        self.bytes(what).map(u16::from_le_bytes)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        self.bytes(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        self.bytes(what).map(u64::from_le_bytes)
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u16("string length")? as usize;
        let at = self.base + self.pos;
        let bytes = self.take(len, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed {
            offset: at,
            detail: "string is not valid UTF-8",
        })
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(self.malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "string field too long");
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::Register { .. } => TAG_REGISTER,
            Frame::Records { .. } => TAG_RECORDS,
            Frame::Detach { .. } => TAG_DETACH,
            Frame::Ack { .. } => TAG_ACK,
            Frame::Throttle { .. } => TAG_THROTTLE,
            Frame::Error { .. } => TAG_ERROR,
        }
    }

    /// Appends the wire encoding of this frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]); // patched below
        match self {
            Frame::Hello { version, peer } => {
                out.extend_from_slice(&version.to_le_bytes());
                put_string(out, peer);
            }
            Frame::Register {
                policy,
                capacity,
                name,
            } => {
                out.push(*policy);
                out.extend_from_slice(&capacity.to_le_bytes());
                put_string(out, name);
            }
            Frame::Records { stream, values } => {
                out.extend_from_slice(&stream.to_le_bytes());
                let count = values.len().min(u32::MAX as usize) as u32;
                out.extend_from_slice(&count.to_le_bytes());
                for v in values {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Frame::Detach { stream } => out.extend_from_slice(&stream.to_le_bytes()),
            Frame::Ack {
                stream,
                received,
                drops,
            } => {
                out.extend_from_slice(&stream.to_le_bytes());
                out.extend_from_slice(&received.to_le_bytes());
                out.extend_from_slice(&drops.to_le_bytes());
            }
            Frame::Throttle { stream, queued } => {
                out.extend_from_slice(&stream.to_le_bytes());
                out.extend_from_slice(&queued.to_le_bytes());
            }
            Frame::Error {
                code,
                stream,
                message,
            } => {
                out.push(code.to_u8());
                out.extend_from_slice(&stream.unwrap_or(NO_STREAM).to_le_bytes());
                put_string(out, message);
            }
        }
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// The wire encoding of this frame as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + 16);
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it plus the
    /// bytes consumed. [`FrameError::Truncated`] means `buf` is a
    /// proper prefix — stream decoders read more and retry; every other
    /// error is fatal for the connection. Never panics, whatever the
    /// bytes.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < FRAME_HEADER {
            return Err(FrameError::Truncated {
                offset: buf.len(),
                needed: FRAME_HEADER,
            });
        }
        let tag = buf[0];
        if !(TAG_HELLO..=TAG_ERROR).contains(&tag) {
            return Err(FrameError::UnknownType { tag, offset: 0 });
        }
        let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized {
                len,
                max: MAX_FRAME_LEN,
                offset: 1,
            });
        }
        let total = FRAME_HEADER + len;
        if buf.len() < total {
            return Err(FrameError::Truncated {
                offset: buf.len(),
                needed: total,
            });
        }
        let mut r = Reader::new(&buf[FRAME_HEADER..total], FRAME_HEADER);
        let frame = match tag {
            TAG_HELLO => {
                let version = r.u16("version")?;
                let peer = r.string()?;
                Frame::Hello { version, peer }
            }
            TAG_REGISTER => {
                let policy = r.u8("policy byte")?;
                if policy > 2 {
                    return Err(FrameError::Malformed {
                        offset: FRAME_HEADER,
                        detail: "policy byte out of range (0 block, 1 drop-oldest, 2 error)",
                    });
                }
                let capacity = r.u32("capacity")?;
                let name = r.string()?;
                Frame::Register {
                    policy,
                    capacity,
                    name,
                }
            }
            TAG_RECORDS => {
                let stream = r.u32("stream id")?;
                let count = r.u32("record count")? as usize;
                if count * 8 != r.buf.len() - r.pos {
                    return Err(r.malformed("record count disagrees with payload length"));
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(f64::from_bits(r.u64("record value")?));
                }
                Frame::Records { stream, values }
            }
            TAG_DETACH => Frame::Detach {
                stream: r.u32("stream id")?,
            },
            TAG_ACK => Frame::Ack {
                stream: r.u32("stream id")?,
                received: r.u64("received total")?,
                drops: r.u64("drops total")?,
            },
            TAG_THROTTLE => Frame::Throttle {
                stream: r.u32("stream id")?,
                queued: r.u32("queued depth")?,
            },
            TAG_ERROR => {
                let at = FRAME_HEADER;
                let code_byte = r.u8("error code")?;
                let code = ErrorCode::from_u8(code_byte).ok_or(FrameError::Malformed {
                    offset: at,
                    detail: "unknown error code",
                })?;
                let stream = match r.u32("stream id")? {
                    NO_STREAM => None,
                    s => Some(s),
                };
                let message = r.string()?;
                Frame::Error {
                    code,
                    stream,
                    message,
                }
            }
            _ => unreachable!("tag range checked above"),
        };
        r.finish()?;
        Ok((frame, total))
    }
}

/// What a producer asked for in `REGISTER`, handed to the server's
/// operator factory.
#[derive(Debug, Clone)]
pub struct RegisterRequest {
    /// Requested stream name.
    pub name: String,
    /// Resolved ring config (the engine default if capacity was 0).
    pub ring: RingConfig,
}

/// Maps a wire policy byte to a ring policy. Callers validate `byte <= 2`.
fn policy_from_byte(byte: u8) -> Backpressure {
    match byte {
        1 => Backpressure::DropOldest,
        2 => Backpressure::Error,
        _ => Backpressure::Block,
    }
}

/// Maps a ring policy to its wire byte.
pub fn policy_to_byte(policy: Backpressure) -> u8 {
    match policy {
        Backpressure::Block => 0,
        Backpressure::DropOldest => 1,
        Backpressure::Error => 2,
    }
}

/// Per-connection counters, written by the connection thread and read
/// by the engine's stats snapshots.
#[derive(Debug)]
pub(crate) struct ConnMonitor {
    conn: u64,
    peer: String,
    connected_at: Instant,
    /// Nanoseconds from connect to close; 0 while the connection lives.
    closed_after_nanos: AtomicU64,
    frames: AtomicU64,
    records: AtomicU64,
    throttle_events: AtomicU64,
    protocol_errors: AtomicU64,
    streams: AtomicUsize,
}

impl ConnMonitor {
    /// The monitor of connection `conn` from `peer`, connected now.
    pub(crate) fn new(conn: u64, peer: String) -> Self {
        Self {
            conn,
            peer,
            connected_at: Instant::now(),
            closed_after_nanos: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            records: AtomicU64::new(0),
            throttle_events: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            streams: AtomicUsize::new(0),
        }
    }

    fn stats(&self) -> ConnStats {
        let closed = self.closed_after_nanos.load(Ordering::Acquire);
        let open = closed == 0;
        ConnStats {
            conn: self.conn,
            peer: self.peer.clone(),
            open,
            streams: self.streams.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            throttle_events: self.throttle_events.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            uptime: if open {
                self.connected_at.elapsed()
            } else {
                Duration::from_nanos(closed)
            },
        }
    }

    fn close(&self) {
        let nanos = self
            .connected_at
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        // `max(1)`: 0 is the "still open" sentinel.
        self.closed_after_nanos
            .store(nanos.max(1), Ordering::Release);
    }
}

/// Snapshot of one producer connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnStats {
    /// Connection id (accept order, starting at 0).
    pub conn: u64,
    /// The client's socket address (`IP:port`); the name it sends in
    /// `HELLO` is not recorded.
    pub peer: String,
    /// Whether the connection is still open.
    pub open: bool,
    /// Streams currently attached by this connection.
    pub streams: usize,
    /// Protocol frames received.
    pub frames: u64,
    /// Record values accepted into rings.
    pub records: u64,
    /// `THROTTLE` frames sent (block-policy stalls).
    pub throttle_events: u64,
    /// Protocol errors (typed `ERROR` frames sent).
    pub protocol_errors: u64,
    /// Connection lifetime so far (frozen at close).
    pub uptime: Duration,
}

impl ConnStats {
    /// Frames per second over the connection's lifetime.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.uptime.as_secs_f64().max(1e-9)
    }
}

/// Snapshot of the ingestion tier: totals plus per-connection rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Connections ever accepted.
    pub accepted: u64,
    /// Connections currently open.
    pub active: usize,
    /// Per-connection rows, accept order.
    pub connections: Vec<ConnStats>,
}

impl NetStats {
    /// The snapshot of `conns`, every connection ever accepted in accept
    /// order.
    pub(crate) fn of(conns: &[Arc<ConnMonitor>]) -> NetStats {
        let connections: Vec<ConnStats> = conns.iter().map(|m| m.stats()).collect();
        NetStats {
            accepted: connections.len() as u64,
            active: connections.iter().filter(|c| c.open).count(),
            connections,
        }
    }

    /// Total frames received across all connections.
    pub fn frames(&self) -> u64 {
        self.connections.iter().map(|c| c.frames).sum()
    }

    /// Total record values accepted across all connections.
    pub fn records(&self) -> u64 {
        self.connections.iter().map(|c| c.records).sum()
    }

    /// Total `THROTTLE` frames sent.
    pub fn throttle_events(&self) -> u64 {
        self.connections.iter().map(|c| c.throttle_events).sum()
    }

    /// Total protocol errors.
    pub fn protocol_errors(&self) -> u64 {
        self.connections.iter().map(|c| c.protocol_errors).sum()
    }
}

/// A cloneable, `'static` window onto the ingest tier alone: the
/// [`crate::ServingStats::net`] part of the engine's snapshots, without
/// the per-stream rows. Stays valid (frozen) after the server is dropped.
#[derive(Debug, Clone)]
pub struct NetStatsHandle {
    stats: StatsHandle,
}

impl NetStatsHandle {
    /// Takes a live snapshot of the ingestion tier.
    pub fn stats(&self) -> NetStats {
        self.stats.registry.net().unwrap_or_default()
    }
}

/// A TCP ingestion server bound to a live engine.
///
/// Accepts any number of producer connections, each serviced by its own
/// thread holding a [`Registrar`] clone — so wire-path registration and
/// feeding never block the engine's shard workers or other producers.
/// Binding gives the engine an ingest tier: from then on its stats
/// snapshots carry [`crate::ServingStats::net`].
/// Dropping the server stops accepting, closes every connection, and
/// joins all threads; streams fed by open connections are closed (their
/// shards drain and retire them as usual).
///
/// **Shutdown contract:** the server holds a [`Registrar`], so it must
/// be dropped before the [`crate::serve`] body returns (see
/// [`crate::ServingEngine::registrar`]).
#[derive(Debug)]
pub struct IngestServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    stats: StatsHandle,
}

impl IngestServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting producers. `factory` builds the operator for
    /// each wire-registered stream; it runs on the owning shard.
    pub fn bind<Op, F>(
        addr: impl ToSocketAddrs,
        registrar: Registrar<'static, Op>,
        factory: F,
    ) -> std::io::Result<IngestServer>
    where
        Op: Operator<In = f64> + 'static,
        Op::Out: Send + 'static,
        F: Fn(&RegisterRequest) -> Op + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = registrar.stats_handle();
        stats.registry.open_ingest();
        let (accept_stop, registry) = (Arc::clone(&stop), Arc::clone(&stats.registry));
        let factory = Arc::new(factory);
        // One thread per connection: a thread whose connection has ended
        // is joined when the next connection arrives, the rest before the
        // accept thread ends.
        let accept_thread = std::thread::spawn(move || {
            let mut conn_threads = Vec::new();
            accept_until(&listener, &accept_stop, |sock, peer| {
                let monitor = registry.register_conn(peer.to_string());
                let registrar = registrar.clone();
                let factory = Arc::clone(&factory);
                let stop = Arc::clone(&accept_stop);
                join_finished(&mut conn_threads);
                conn_threads.push(std::thread::spawn(move || {
                    let streams = HashMap::new();
                    Connection {
                        sock,
                        registrar,
                        factory,
                        monitor,
                        stop,
                        streams,
                        greeted: false,
                    }
                    .serve();
                }));
            });
            drop(registrar); // release the engine before waiting on connections
            for t in conn_threads {
                let _ = t.join();
            }
        });
        Ok(IngestServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            stats,
        })
    }

    /// The bound listen address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable, `'static` handle onto per-connection stats.
    pub fn net_stats(&self) -> NetStatsHandle {
        NetStatsHandle {
            stats: self.stats.clone(),
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        stop_listener(self.addr, &self.stop);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Joins the threads in `threads` that have ended, keeping the rest, so
/// a long-running server holds one handle per open connection rather
/// than one per connection ever made.
fn join_finished(threads: &mut Vec<std::thread::JoinHandle<()>>) {
    let (done, open): (Vec<_>, Vec<_>) = std::mem::take(threads)
        .into_iter()
        .partition(|t| t.is_finished());
    *threads = open;
    for t in done {
        let _ = t.join();
    }
}

/// Accepts connections on a blocking `listener` until `stop` is set,
/// handing each to `on_conn`. The one listener loop of the crate (the
/// ingest server and the metrics endpoint); an idle listener sleeps in
/// `accept` until [`stop_listener`] wakes it.
pub(crate) fn accept_until(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut on_conn: impl FnMut(TcpStream, SocketAddr),
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((sock, peer)) => on_conn(sock, peer),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Sets `stop` and wakes the [`accept_until`] loop of the listener bound
/// to `addr` with one connection of its own (over loopback when the
/// listener is bound to an unspecified address).
pub(crate) fn stop_listener(addr: SocketAddr, stop: &AtomicBool) {
    stop.store(true, Ordering::Release);
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(if wake.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    let _ = TcpStream::connect(wake);
}

/// Bytes read from a socket and not yet decoded into frames; both ends
/// of a connection read through one.
#[derive(Debug, Default)]
struct FrameBuf {
    buf: Vec<u8>,
    /// Start of the first undecoded frame.
    start: usize,
}

impl FrameBuf {
    /// Decodes the next buffered frame; `Ok(None)` means read more.
    fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        match Frame::decode(&self.buf[self.start..]) {
            Ok((frame, used)) => {
                self.start += used;
                Ok(Some(frame))
            }
            Err(FrameError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reclaims the decoded bytes, then reads once from `sock`; returns
    /// the bytes read (0 at end of stream).
    fn fill(&mut self, sock: &mut TcpStream) -> std::io::Result<usize> {
        self.buf.drain(..self.start);
        self.start = 0;
        let mut chunk = [0u8; 8192];
        let n = sock.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }
}

/// One registered stream's connection-side state.
struct ConnStream {
    handle: StreamHandle,
    policy: Backpressure,
    /// Cumulative record values accepted from the wire.
    received: u64,
}

/// Why the connection loop ended; `Fatal` means a typed `ERROR` frame
/// was already sent (or the socket died trying).
enum ConnEnd {
    Eof,
    Fatal,
    Stopped,
    Io,
}

struct Connection<Op, F>
where
    Op: Operator<In = f64> + 'static,
    Op::Out: Send + 'static,
    F: Fn(&RegisterRequest) -> Op + Send + Sync + 'static,
{
    sock: TcpStream,
    registrar: Registrar<'static, Op>,
    factory: Arc<F>,
    monitor: Arc<ConnMonitor>,
    stop: Arc<AtomicBool>,
    streams: HashMap<u32, ConnStream>,
    greeted: bool,
}

impl<Op, F> Connection<Op, F>
where
    Op: Operator<In = f64> + 'static,
    Op::Out: Send + 'static,
    F: Fn(&RegisterRequest) -> Op + Send + Sync + 'static,
{
    /// Services the connection until EOF, protocol error, or server stop,
    /// then closes whatever the producer left attached: the shards drain
    /// and retire those streams; their results simply carry no DETACH ack.
    fn serve(mut self) {
        let _ = self.sock.set_nodelay(true);
        let _ = self.sock.set_read_timeout(Some(NET_POLL));
        let _ = self.sock.set_write_timeout(Some(Duration::from_secs(10)));
        let _end = self.run();
        self.streams.clear();
        self.monitor.streams.store(0, Ordering::Relaxed);
        self.monitor.close();
    }

    fn run(&mut self) -> ConnEnd {
        let mut frames = FrameBuf::default();
        loop {
            match frames.next() {
                Ok(Some(frame)) => {
                    self.monitor.frames.fetch_add(1, Ordering::Relaxed);
                    if let Err(end) = self.handle_frame(frame) {
                        return end;
                    }
                    continue;
                }
                Ok(None) => {} // read more
                Err(e) => {
                    self.send_protocol_error(None, &e);
                    return ConnEnd::Fatal;
                }
            }
            match frames.fill(&mut self.sock) {
                Ok(0) => return ConnEnd::Eof,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::Acquire) {
                        self.send_error(ErrorCode::Shutdown, None, "server stopping");
                        return ConnEnd::Stopped;
                    }
                }
                Err(_) => return ConnEnd::Io,
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ConnEnd> {
        self.sock
            .write_all(&frame.encode())
            .map_err(|_| ConnEnd::Io)
    }

    /// Sends a typed `ERROR` frame (best-effort) and counts it.
    fn send_error(&mut self, code: ErrorCode, stream: Option<u32>, message: &str) {
        self.monitor.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let _ = self.send(&Frame::Error {
            code,
            stream,
            message: message.to_string(),
        });
    }

    fn send_protocol_error(&mut self, stream: Option<u32>, err: &FrameError) {
        self.send_error(ErrorCode::Protocol, stream, &err.to_string());
    }

    fn handle_frame(&mut self, frame: Frame) -> Result<(), ConnEnd> {
        if !self.greeted {
            return match frame {
                Frame::Hello { version, peer: _ } => {
                    if version != PROTOCOL_VERSION {
                        self.send_error(
                            ErrorCode::VersionMismatch,
                            None,
                            &format!(
                                "server speaks version {PROTOCOL_VERSION}, client sent {version}"
                            ),
                        );
                        return Err(ConnEnd::Fatal);
                    }
                    self.greeted = true;
                    self.send(&Frame::Hello {
                        version: PROTOCOL_VERSION,
                        peer: "class-engine".to_string(),
                    })?;
                    Ok(())
                }
                _ => {
                    self.send_error(ErrorCode::Protocol, None, "expected HELLO first");
                    Err(ConnEnd::Fatal)
                }
            };
        }
        match frame {
            Frame::Hello { .. } => {
                self.send_error(ErrorCode::Protocol, None, "duplicate HELLO");
                Err(ConnEnd::Fatal)
            }
            Frame::Register {
                policy,
                capacity,
                name,
            } => self.handle_register(policy, capacity, name),
            Frame::Records { stream, values } => self.handle_records(stream, &values),
            Frame::Detach { stream } => self.handle_detach(stream),
            Frame::Ack { .. } | Frame::Throttle { .. } | Frame::Error { .. } => {
                self.send_error(
                    ErrorCode::Protocol,
                    None,
                    "ACK/THROTTLE/ERROR are server-to-producer frames",
                );
                Err(ConnEnd::Fatal)
            }
        }
    }

    fn handle_register(&mut self, policy: u8, capacity: u32, name: String) -> Result<(), ConnEnd> {
        if capacity as usize > MAX_WIRE_RING {
            self.send_error(
                ErrorCode::Protocol,
                None,
                &format!("ring capacity {capacity} exceeds the wire limit of {MAX_WIRE_RING}"),
            );
            return Err(ConnEnd::Fatal);
        }
        let ring = if capacity == 0 {
            self.registrar.default_ring()
        } else {
            RingConfig::new(capacity as usize, policy_from_byte(policy))
        };
        let req = RegisterRequest { name, ring };
        let factory = Arc::clone(&self.factory);
        let freq = req.clone();
        let registered = self.registrar.register_stream(
            StreamOptions {
                ring,
                name: Some(req.name.clone()),
                ..StreamOptions::default()
            },
            move || factory(&freq),
        );
        let handle = match registered {
            Ok(h) => h,
            Err(_) => {
                self.send_error(ErrorCode::Shutdown, None, "engine is shutting down");
                return Err(ConnEnd::Fatal);
            }
        };
        let id = handle.id().min(NO_STREAM as usize - 1) as u32;
        self.streams.insert(
            id,
            ConnStream {
                handle,
                policy: ring.policy,
                received: 0,
            },
        );
        self.monitor
            .streams
            .store(self.streams.len(), Ordering::Relaxed);
        self.send(&Frame::Ack {
            stream: id,
            received: 0,
            drops: 0,
        })
    }

    /// Removes `stream` from the connection for a `frame` that names it;
    /// a stream this connection never registered is a fatal error.
    fn take_stream(&mut self, stream: u32, frame: &str) -> Result<ConnStream, ConnEnd> {
        self.streams.remove(&stream).ok_or_else(|| {
            let message = format!("{frame} for a stream this connection never registered");
            self.send_error(ErrorCode::UnknownStream, Some(stream), &message);
            ConnEnd::Fatal
        })
    }

    fn handle_records(&mut self, stream: u32, values: &[f64]) -> Result<(), ConnEnd> {
        let mut entry = self.take_stream(stream, "RECORDS")?;
        let mut off = 0usize;
        let mut throttled = false;
        while off < values.len() {
            // The feed accepts what fits and never reports overflow.
            let Ok(n) = entry.handle.feed_unrung(&values[off..]) else {
                self.send_error(ErrorCode::Shutdown, Some(stream), "engine is shutting down");
                return Err(ConnEnd::Fatal);
            };
            off += n;
            // A partial accept is the per-call capacity cap, not a stall:
            // only zero progress (never under drop-oldest) is one.
            if n > 0 || off == values.len() {
                continue;
            }
            if entry.policy == Backpressure::Error {
                self.send_error(
                    ErrorCode::Overflow,
                    Some(stream),
                    "ring full under the `error` backpressure policy",
                );
                return Err(ConnEnd::Fatal);
            }
            if !throttled {
                throttled = true;
                self.monitor.throttle_events.fetch_add(1, Ordering::Relaxed);
                let queued = entry.handle.queue_depth().min(u32::MAX as usize) as u32;
                self.send(&Frame::Throttle { stream, queued })?;
            }
            if self.stop.load(Ordering::Acquire) {
                self.send_error(ErrorCode::Shutdown, Some(stream), "server stopping");
                return Err(ConnEnd::Stopped);
            }
            entry.handle.producer.wait_space(NET_POLL);
        }
        entry.received += off as u64;
        self.monitor
            .records
            .fetch_add(off as u64, Ordering::Relaxed);
        let sent = self.send(&Frame::Ack {
            stream,
            received: entry.received,
            drops: entry.handle.drops(),
        });
        // Wake the shard only now: woken first, it takes the CPU the ACK
        // needs (on a 2-core host the ACK p50 rose from ~35 µs to a whole
        // frame's processing time, ~190 µs).
        entry.handle.producer.wake();
        self.streams.insert(stream, entry);
        sent
    }

    fn handle_detach(&mut self, stream: u32) -> Result<(), ConnEnd> {
        let entry = self.take_stream(stream, "DETACH")?;
        self.monitor
            .streams
            .store(self.streams.len(), Ordering::Relaxed);
        let received = entry.received;
        let report = self.registrar.detach_stream(entry.handle);
        self.send(&Frame::Ack {
            stream,
            received,
            drops: report.drops,
        })
    }
}

/// A typed failure from the producer-side [`NetClient`].
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode.
    Frame(FrameError),
    /// The server broke protocol (unexpected frame, bad handshake).
    Protocol(String),
    /// The server sent a typed `ERROR` frame.
    Remote {
        /// The error code.
        code: ErrorCode,
        /// Affected stream, if any.
        stream: Option<u32>,
        /// Server-provided detail.
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Remote {
                code,
                stream,
                message,
            } => match stream {
                Some(s) => write!(f, "server error [{code}] on stream {s}: {message}"),
                None => write!(f, "server error [{code}]: {message}"),
            },
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

/// A producer-side client for the ingestion protocol: registers
/// streams, sends records stop-and-wait (or pipelined via
/// [`NetClient::send_records_nowait`] + [`NetClient::recv_ack`]), and
/// detaches. Counts `THROTTLE` frames it absorbs.
#[derive(Debug)]
pub struct NetClient {
    sock: TcpStream,
    frames: FrameBuf,
    throttle_events: u64,
    server: String,
}

impl NetClient {
    /// Connects, performs the `HELLO` handshake, and returns the client.
    /// `name` identifies this producer to the server.
    pub fn connect(addr: impl ToSocketAddrs, name: &str) -> Result<NetClient, NetError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(Duration::from_secs(30)))?;
        sock.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut client = NetClient {
            sock,
            frames: FrameBuf::default(),
            throttle_events: 0,
            server: String::new(),
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            peer: name.to_string(),
        })?;
        match client.read_frame()? {
            Frame::Hello { version, peer } if version == PROTOCOL_VERSION => {
                client.server = peer;
                Ok(client)
            }
            Frame::Hello { version, .. } => Err(NetError::Protocol(format!(
                "server replied with protocol version {version}, expected {PROTOCOL_VERSION}"
            ))),
            other => Err(unexpected(other, "HELLO reply")),
        }
    }

    /// The server's `HELLO` name.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// `THROTTLE` frames absorbed so far (block-policy backpressure).
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// Registers a stream and returns its wire id. `ring: None` asks
    /// for the engine's default capacity and policy.
    pub fn register(&mut self, name: &str, ring: Option<RingConfig>) -> Result<u32, NetError> {
        let (policy, capacity) = match ring {
            Some(cfg) => (
                policy_to_byte(cfg.policy),
                cfg.capacity.min(u32::MAX as usize) as u32,
            ),
            None => (0, 0),
        };
        self.send(&Frame::Register {
            policy,
            capacity,
            name: name.to_string(),
        })?;
        let ack = self.recv_ack()?;
        Ok(ack.stream)
    }

    /// Sends one `RECORDS` frame and waits for its `ACK` (stop-and-wait).
    pub fn send_records(&mut self, stream: u32, values: &[f64]) -> Result<AckInfo, NetError> {
        self.send_records_nowait(stream, values)?;
        self.recv_ack()
    }

    /// Sends one `RECORDS` frame without waiting. Pair each call with a
    /// later [`NetClient::recv_ack`]; the server acks frames in order.
    pub fn send_records_nowait(&mut self, stream: u32, values: &[f64]) -> Result<(), NetError> {
        self.send(&Frame::Records {
            stream,
            values: values.to_vec(),
        })
    }

    /// Detaches a stream: the server drains, flushes, and retires it
    /// before acking, so a returned ack means the stream is fully
    /// accounted engine-side.
    pub fn detach(&mut self, stream: u32) -> Result<AckInfo, NetError> {
        self.send(&Frame::Detach { stream })?;
        self.recv_ack()
    }

    /// Reads frames until the next `ACK`, absorbing `THROTTLE`s (they
    /// are counted, not returned) and turning `ERROR` frames into
    /// [`NetError::Remote`].
    pub fn recv_ack(&mut self) -> Result<AckInfo, NetError> {
        loop {
            match self.read_frame()? {
                Frame::Ack {
                    stream,
                    received,
                    drops,
                } => {
                    return Ok(AckInfo {
                        stream,
                        received,
                        drops,
                    })
                }
                Frame::Throttle { .. } => self.throttle_events += 1,
                other => return Err(unexpected(other, "ACK/THROTTLE/ERROR")),
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.sock.write_all(&frame.encode())?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Frame, NetError> {
        loop {
            if let Some(frame) = self.frames.next()? {
                return Ok(frame);
            }
            if self.frames.fill(&mut self.sock)? == 0 {
                return Err(NetError::Protocol(
                    "server closed the connection mid-frame".to_string(),
                ));
            }
        }
    }
}

/// The client's error for a frame it did not expect: the server's own
/// `ERROR`, or a protocol violation.
fn unexpected(frame: Frame, expected: &str) -> NetError {
    match frame {
        Frame::Error {
            code,
            stream,
            message,
        } => NetError::Remote {
            code,
            stream,
            message,
        },
        other => NetError::Protocol(format!("expected {expected}, got {other:?}")),
    }
}

/// A decoded `ACK`: cumulative accounting for one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// Stream the ack concerns.
    pub stream: u32,
    /// Cumulative records accepted from this connection.
    pub received: u64,
    /// Cumulative drop-oldest evictions.
    pub drops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_finished_keeps_only_running_threads() {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let mut threads = vec![std::thread::spawn(move || {
            let _ = parked.recv();
        })];
        threads.extend((0..8).map(|_| std::thread::spawn(|| {})));
        while threads[1..].iter().any(|t| !t.is_finished()) {
            std::thread::yield_now();
        }
        join_finished(&mut threads);
        assert_eq!(threads.len(), 1, "the eight ended threads are joined");
        assert!(!threads[0].is_finished(), "the running thread is kept");
        release.send(()).unwrap();
        threads.pop().unwrap().join().unwrap();
    }

    fn roundtrip(frame: &Frame) {
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes).expect("round-trip decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(&back, frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(&Frame::Hello {
            version: 1,
            peer: "bench-7".to_string(),
        });
        roundtrip(&Frame::Register {
            policy: 1,
            capacity: 4096,
            name: "sensor/A".to_string(),
        });
        roundtrip(&Frame::Records {
            stream: 3,
            values: vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE],
        });
        roundtrip(&Frame::Detach { stream: 9 });
        roundtrip(&Frame::Ack {
            stream: 3,
            received: u64::MAX,
            drops: 17,
        });
        roundtrip(&Frame::Throttle {
            stream: 0,
            queued: 1024,
        });
        roundtrip(&Frame::Error {
            code: ErrorCode::Overflow,
            stream: Some(5),
            message: "ring full".to_string(),
        });
        roundtrip(&Frame::Error {
            code: ErrorCode::Shutdown,
            stream: None,
            message: String::new(),
        });
    }

    #[test]
    fn nan_payloads_roundtrip_bit_exactly() {
        let bits = [0x7ff8_dead_beef_0001u64, 0xfff0_0000_0000_0000u64];
        let frame = Frame::Records {
            stream: 1,
            values: bits.iter().map(|&b| f64::from_bits(b)).collect(),
        };
        let bytes = frame.encode();
        let (back, _) = Frame::decode(&bytes).unwrap();
        let Frame::Records { values, .. } = back else {
            panic!("wrong frame");
        };
        let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits);
    }

    #[test]
    fn truncation_reports_offset_and_need() {
        let bytes = Frame::Detach { stream: 2 }.encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            match err {
                FrameError::Truncated { offset, needed } => {
                    assert_eq!(offset, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_tag_and_oversized_header_are_typed() {
        let mut bytes = Frame::Detach { stream: 2 }.encode();
        bytes[0] = 0xEE;
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            FrameError::UnknownType {
                tag: 0xEE,
                offset: 0
            }
        );
        let mut huge = Frame::Detach { stream: 2 }.encode();
        huge[1..5].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&huge).unwrap_err(),
            FrameError::Oversized {
                len: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN,
                offset: 1
            }
        );
    }

    #[test]
    fn malformed_payloads_are_typed_with_offsets() {
        // RECORDS whose count disagrees with the payload length.
        let mut bad = Vec::new();
        bad.push(TAG_RECORDS);
        bad.extend_from_slice(&16u32.to_le_bytes()); // payload: stream + count + one value... claims 2
        bad.extend_from_slice(&1u32.to_le_bytes()); // stream
        bad.extend_from_slice(&2u32.to_le_bytes()); // count = 2, but only 8 bytes follow
        bad.extend_from_slice(&0u64.to_le_bytes());
        match Frame::decode(&bad).unwrap_err() {
            FrameError::Malformed { offset, detail } => {
                assert!(detail.contains("count"), "{detail}");
                assert!(offset >= FRAME_HEADER);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // REGISTER with a policy byte out of range.
        let mut bad_policy = Frame::Register {
            policy: 0,
            capacity: 1,
            name: "x".to_string(),
        }
        .encode();
        bad_policy[FRAME_HEADER] = 9;
        assert!(matches!(
            Frame::decode(&bad_policy).unwrap_err(),
            FrameError::Malformed { .. }
        ));
        // Trailing garbage after a well-formed payload.
        let mut trailing = Frame::Detach { stream: 1 }.encode();
        trailing.push(0xAB);
        let len = (trailing.len() - FRAME_HEADER) as u32;
        trailing[1..5].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            Frame::decode(&trailing).unwrap_err(),
            FrameError::Malformed { .. }
        ));
    }
}
