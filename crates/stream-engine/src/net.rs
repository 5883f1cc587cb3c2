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
//!   frame and keeps retrying until everything is accepted, then acks.
//!   Lossless: the ack's `received` always equals the bytes sent.
//! * **drop-oldest** — everything is accepted immediately; the
//!   cumulative eviction count rides on every `ACK` (`drops`).
//! * **error** — a `RECORDS` frame that overflows gets a typed
//!   `ERROR` (`overflow`) and the connection is closed.

use crate::engine::{lock_recover, Registrar, StreamHandle, StreamOptions};
use crate::operator::Operator;
use crate::ring::{Backpressure, PushError, RingConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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

/// Backoff while a blocked `RECORDS` frame waits for ring space.
const BLOCK_RETRY: Duration = Duration::from_micros(100);

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

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::VersionMismatch => 1,
            ErrorCode::UnknownStream => 2,
            ErrorCode::Overflow => 3,
            ErrorCode::Protocol => 4,
            ErrorCode::Shutdown => 5,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::VersionMismatch),
            2 => Some(ErrorCode::UnknownStream),
            3 => Some(ErrorCode::Overflow),
            4 => Some(ErrorCode::Protocol),
            5 => Some(ErrorCode::Shutdown),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::UnknownStream => "unknown-stream",
            ErrorCode::Overflow => "overflow",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Shutdown => "shutdown",
        };
        f.write_str(s)
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

    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
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

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "string field too long");
    put_u16(out, bytes.len().min(u16::MAX as usize) as u16);
    out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
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
        put_u32(out, 0); // patched below
        match self {
            Frame::Hello { version, peer } => {
                put_u16(out, *version);
                put_string(out, peer);
            }
            Frame::Register {
                policy,
                capacity,
                name,
            } => {
                out.push(*policy);
                put_u32(out, *capacity);
                put_string(out, name);
            }
            Frame::Records { stream, values } => {
                put_u32(out, *stream);
                put_u32(out, values.len().min(u32::MAX as usize) as u32);
                for v in values {
                    put_u64(out, v.to_bits());
                }
            }
            Frame::Detach { stream } => put_u32(out, *stream),
            Frame::Ack {
                stream,
                received,
                drops,
            } => {
                put_u32(out, *stream);
                put_u64(out, *received);
                put_u64(out, *drops);
            }
            Frame::Throttle { stream, queued } => {
                put_u32(out, *stream);
                put_u32(out, *queued);
            }
            Frame::Error {
                code,
                stream,
                message,
            } => {
                out.push(code.to_u8());
                put_u32(out, stream.unwrap_or(NO_STREAM));
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
/// by [`NetStatsHandle::stats`].
#[derive(Debug)]
struct ConnMonitor {
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
    /// Peer address (or the client's `HELLO` name once received).
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

#[derive(Debug)]
struct NetRegistry {
    accepted: AtomicU64,
    conns: Mutex<Vec<Arc<ConnMonitor>>>,
}

impl NetRegistry {
    fn snapshot(&self) -> NetStats {
        let conns = lock_recover(&self.conns).clone();
        let connections: Vec<ConnStats> = conns
            .iter()
            .map(|m| {
                let closed = m.closed_after_nanos.load(Ordering::Acquire);
                let open = closed == 0;
                ConnStats {
                    conn: m.conn,
                    peer: m.peer.clone(),
                    open,
                    streams: m.streams.load(Ordering::Relaxed),
                    frames: m.frames.load(Ordering::Relaxed),
                    records: m.records.load(Ordering::Relaxed),
                    throttle_events: m.throttle_events.load(Ordering::Relaxed),
                    protocol_errors: m.protocol_errors.load(Ordering::Relaxed),
                    uptime: if open {
                        m.connected_at.elapsed()
                    } else {
                        Duration::from_nanos(closed)
                    },
                }
            })
            .collect();
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: connections.iter().filter(|c| c.open).count(),
            connections,
        }
    }
}

/// A cloneable, `'static` window onto an [`IngestServer`]'s connection
/// stats — the network analogue of [`crate::StatsHandle`]. Stays valid
/// (frozen) after the server is dropped.
#[derive(Debug, Clone)]
pub struct NetStatsHandle {
    registry: Arc<NetRegistry>,
}

impl NetStatsHandle {
    /// Takes a live snapshot of the ingestion tier.
    pub fn stats(&self) -> NetStats {
        self.registry.snapshot()
    }
}

/// A TCP ingestion server bound to a live engine.
///
/// Accepts any number of producer connections, each serviced by its own
/// thread holding a [`Registrar`] clone — so wire-path registration and
/// feeding never block the engine's shard workers or other producers.
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
    registry: Arc<NetRegistry>,
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(NetRegistry {
            accepted: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_stop = Arc::clone(&stop);
        let accept_registry = Arc::clone(&registry);
        let factory = Arc::new(factory);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, registrar, factory, accept_registry, accept_stop);
        });
        Ok(IngestServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            registry,
        })
    }

    /// The bound listen address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable, `'static` handle onto per-connection stats.
    pub fn net_stats(&self) -> NetStatsHandle {
        NetStatsHandle {
            registry: Arc::clone(&self.registry),
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Accept loop: non-blocking accept with a stop-flag poll; one thread
/// per connection. Joins every connection thread before returning.
fn accept_loop<Op, F>(
    listener: TcpListener,
    registrar: Registrar<'static, Op>,
    factory: Arc<F>,
    registry: Arc<NetRegistry>,
    stop: Arc<AtomicBool>,
) where
    Op: Operator<In = f64> + 'static,
    Op::Out: Send + 'static,
    F: Fn(&RegisterRequest) -> Op + Send + Sync + 'static,
{
    const ACCEPT_POLL: Duration = Duration::from_millis(5);
    let mut conn_threads = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((sock, peer)) => {
                let conn = registry.accepted.fetch_add(1, Ordering::Relaxed);
                let monitor = Arc::new(ConnMonitor {
                    conn,
                    peer: peer.to_string(),
                    connected_at: Instant::now(),
                    closed_after_nanos: AtomicU64::new(0),
                    frames: AtomicU64::new(0),
                    records: AtomicU64::new(0),
                    throttle_events: AtomicU64::new(0),
                    protocol_errors: AtomicU64::new(0),
                    streams: AtomicUsize::new(0),
                });
                lock_recover(&registry.conns).push(Arc::clone(&monitor));
                let registrar = registrar.clone();
                let factory = Arc::clone(&factory);
                let conn_stop = Arc::clone(&stop);
                conn_threads.push(std::thread::spawn(move || {
                    serve_connection(sock, registrar, factory, monitor, conn_stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    drop(registrar); // release the engine before waiting on connections
    for t in conn_threads {
        let _ = t.join();
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

/// Services one producer connection until EOF, protocol error, or
/// server stop.
fn serve_connection<Op, F>(
    sock: TcpStream,
    registrar: Registrar<'static, Op>,
    factory: Arc<F>,
    monitor: Arc<ConnMonitor>,
    stop: Arc<AtomicBool>,
) where
    Op: Operator<In = f64> + 'static,
    Op::Out: Send + 'static,
    F: Fn(&RegisterRequest) -> Op + Send + Sync + 'static,
{
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(NET_POLL));
    let _ = sock.set_write_timeout(Some(Duration::from_secs(10)));
    let mut conn = Connection {
        sock,
        registrar,
        factory,
        monitor,
        stop,
        streams: HashMap::new(),
        greeted: false,
    };
    let _end = conn.run();
    // Close whatever the producer left attached: the shards drain and
    // retire those streams; their results simply carry no DETACH ack.
    conn.streams.clear();
    conn.monitor.streams.store(0, Ordering::Relaxed);
    conn.monitor.close();
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
    fn run(&mut self) -> ConnEnd {
        let mut buf: Vec<u8> = Vec::with_capacity(8192);
        let mut start = 0usize;
        let mut chunk = [0u8; 8192];
        loop {
            // Decode every complete frame already buffered.
            loop {
                match Frame::decode(&buf[start..]) {
                    Ok((frame, used)) => {
                        start += used;
                        self.monitor.frames.fetch_add(1, Ordering::Relaxed);
                        match self.handle_frame(frame) {
                            Ok(()) => {}
                            Err(end) => return end,
                        }
                    }
                    Err(FrameError::Truncated { .. }) => break, // read more
                    Err(e) => {
                        self.send_protocol_error(None, &e);
                        return ConnEnd::Fatal;
                    }
                }
            }
            // Reclaim consumed bytes before growing the buffer.
            if start > 0 {
                buf.drain(..start);
                start = 0;
            }
            match self.sock.read(&mut chunk) {
                Ok(0) => return ConnEnd::Eof,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
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

    fn handle_records(&mut self, stream: u32, values: &[f64]) -> Result<(), ConnEnd> {
        let Some(mut entry) = self.streams.remove(&stream) else {
            self.send_error(
                ErrorCode::UnknownStream,
                Some(stream),
                "RECORDS for a stream this connection never registered",
            );
            return Err(ConnEnd::Fatal);
        };
        let mut off = 0usize;
        let mut throttled = false;
        while off < values.len() {
            match entry.handle.try_feed(&values[off..]) {
                Ok(n) => {
                    off += n;
                    if off == values.len() {
                        break;
                    }
                    if n > 0 {
                        // Partial accept = the per-call capacity cap, not a
                        // stall; only zero progress engages the policy.
                        continue;
                    }
                    match entry.policy {
                        Backpressure::Block => {
                            if !throttled {
                                throttled = true;
                                self.monitor.throttle_events.fetch_add(1, Ordering::Relaxed);
                                let queued =
                                    entry.handle.queue_depth().min(u32::MAX as usize) as u32;
                                self.send(&Frame::Throttle { stream, queued })?;
                            }
                            if self.stop.load(Ordering::Acquire) {
                                self.send_error(
                                    ErrorCode::Shutdown,
                                    Some(stream),
                                    "server stopping",
                                );
                                return Err(ConnEnd::Stopped);
                            }
                            std::thread::sleep(BLOCK_RETRY);
                        }
                        Backpressure::Error => {
                            self.send_error(
                                ErrorCode::Overflow,
                                Some(stream),
                                "ring full under the `error` backpressure policy",
                            );
                            return Err(ConnEnd::Fatal);
                        }
                        // DropOldest try_feed always makes progress.
                        Backpressure::DropOldest => {
                            unreachable!("drop-oldest try_feed accepts every record offered")
                        }
                    }
                }
                Err(PushError::Disconnected) => {
                    self.send_error(ErrorCode::Shutdown, Some(stream), "engine is shutting down");
                    return Err(ConnEnd::Fatal);
                }
                Err(PushError::Overflow(_)) => {
                    unreachable!("try_feed accepts what fits instead of reporting overflow")
                }
            }
        }
        entry.received += off as u64;
        self.monitor
            .records
            .fetch_add(off as u64, Ordering::Relaxed);
        let ack = Frame::Ack {
            stream,
            received: entry.received,
            drops: entry.handle.drops(),
        };
        self.streams.insert(stream, entry);
        self.send(&ack)
    }

    fn handle_detach(&mut self, stream: u32) -> Result<(), ConnEnd> {
        let Some(entry) = self.streams.remove(&stream) else {
            self.send_error(
                ErrorCode::UnknownStream,
                Some(stream),
                "DETACH for a stream this connection never registered",
            );
            return Err(ConnEnd::Fatal);
        };
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
    buf: Vec<u8>,
    start: usize,
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
            buf: Vec::with_capacity(8192),
            start: 0,
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
            Frame::Error {
                code,
                stream,
                message,
            } => Err(NetError::Remote {
                code,
                stream,
                message,
            }),
            other => Err(NetError::Protocol(format!(
                "expected HELLO reply, got {other:?}"
            ))),
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
                Frame::Error {
                    code,
                    stream,
                    message,
                } => {
                    return Err(NetError::Remote {
                        code,
                        stream,
                        message,
                    })
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected ACK/THROTTLE/ERROR, got {other:?}"
                    )))
                }
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.sock.write_all(&frame.encode())?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Frame, NetError> {
        let mut chunk = [0u8; 8192];
        loop {
            match Frame::decode(&self.buf[self.start..]) {
                Ok((frame, used)) => {
                    self.start += used;
                    if self.start == self.buf.len() {
                        self.buf.clear();
                        self.start = 0;
                    }
                    return Ok(frame);
                }
                Err(FrameError::Truncated { .. }) => {}
                Err(e) => return Err(e.into()),
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            match self.sock.read(&mut chunk) {
                Ok(0) => {
                    return Err(NetError::Protocol(
                        "server closed the connection mid-frame".to_string(),
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e.into()),
            }
        }
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
        put_u32(&mut bad, 16); // payload: stream + count + one value... claims 2
        put_u32(&mut bad, 1); // stream
        put_u32(&mut bad, 2); // count = 2, but only 8 bytes follow
        put_u64(&mut bad, 0);
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
