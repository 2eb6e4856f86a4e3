//! The serving frontend: a std-only TCP request loop speaking a small
//! length-prefixed binary protocol, plus the matching client.
//!
//! ## Wire protocol
//!
//! Every message is one checksummed frame from
//! [`copydet_model::codec`] (`[kind: u8][len: u32][payload][crc32]`, see
//! [`codec::encode_wire_frame`]). Requests:
//!
//! | kind | request | payload |
//! |------|---------|---------|
//! | `0x01` | INGEST | `u32 n`, then `n × (str source, str item, str value)` |
//! | `0x02` | STATS | empty |
//! | `0x03` | DETECT | empty |
//! | `0x04` | SHUTDOWN | empty |
//! | `0x05` | METRICS | empty |
//! | `0x06` | TRACE | `u32 n` (most recent traces wanted; `0` = all) |
//! | `0x07` | DETECT_TOPK | `u8 mode` (`0` = per-source, `1` = fleet-wide), `u32 k`, then `str source` when `mode == 0` |
//! | `0x08` | HEALTH | empty |
//! | `0x09` | EVENTS | `u32 n` (most recent events wanted; `0` = all), `u8 min_severity` tag, `str component` (empty = any) |
//!
//! Responses are `0x80` (OK, payload per request kind) or `0x81` (error,
//! `str` message). Strings are the codec's length-prefixed UTF-8, bounded
//! by [`codec::MAX_STR_LEN`]; whole frames are bounded by
//! [`codec::MAX_WIRE_FRAME_LEN`], so a hostile peer can neither drive an
//! allocation nor wedge the reader.
//!
//! Frame payloads are **attacker-controlled bytes**: every decode in this
//! module is total — typed [`ProtocolError`]s become `0x81` responses and
//! the connection keeps serving; nothing on the request path may panic.
//! `copydet-audit` enforces this (no-panic + lossy-cast lints cover this
//! module).
//!
//! ## Threading
//!
//! One accept thread, one handler thread per connection. Each INGEST batch
//! goes through [`ShardedStore::ingest_batch`], which splits the batch by
//! item partition and applies each shard's slice under a single shard-lock
//! acquisition — the per-shard batching that lets many concurrent clients
//! stream without convoying on one mutex. DETECT runs a full
//! [`ShardedDetector`] round (fan-out scan + merge) outside every store
//! lock. The connection registry is the highest-ranked lock in the process
//! (see `DESIGN.md` §8): handlers touch it only while holding no store
//! lock, and [`RankedMutex`] enforces that order in debug builds.

use crate::detector::ShardedDetector;
use crate::shard::ShardedStore;
use copydet_model::codec::{self, u32_to_usize, usize_to_u64, CodecError, Reader};
use copydet_model::sync::RankedMutex;
use copydet_obs::event::field;
use copydet_obs::{
    emit, evaluate_process_health, event_ring, publish_lock_metrics, registry,
    set_default_event_capacity, set_default_trace_capacity, set_slow_op_threshold,
    slow_op_exceeded, trace_ring, Counter, Event, FieldValue, Gauge, HealthReason,
    HealthReasonCode, HealthThresholds, HealthVerdict, Histogram, RoundTrace, Severity, Span,
    TraceStage,
};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Request kind: ingest a claim batch.
pub const REQ_INGEST: u8 = 0x01;
/// Request kind: fleet statistics.
pub const REQ_STATS: u8 = 0x02;
/// Request kind: run a detection round.
pub const REQ_DETECT: u8 = 0x03;
/// Request kind: stop the server.
pub const REQ_SHUTDOWN: u8 = 0x04;
/// Request kind: metrics-registry text exposition.
pub const REQ_METRICS: u8 = 0x05;
/// Request kind: recent round traces.
pub const REQ_TRACE: u8 = 0x06;
/// Request kind: top-k copier query (per-source or fleet-wide).
pub const REQ_DETECT_TOPK: u8 = 0x07;
/// Request kind: typed health verdict.
pub const REQ_HEALTH: u8 = 0x08;
/// Request kind: recent flight-recorder events.
pub const REQ_EVENTS: u8 = 0x09;
/// Response kind: success.
pub const RESP_OK: u8 = 0x80;
/// Response kind: failure (payload is the message).
pub const RESP_ERR: u8 = 0x81;

/// Verb names, indexed by [`verb_index`]; also the `verb` label of the
/// `copydet_frontend_*` registry metrics.
const VERBS: [&str; 9] = [
    "INGEST",
    "STATS",
    "DETECT",
    "SHUTDOWN",
    "METRICS",
    "TRACE",
    "DETECT_TOPK",
    "HEALTH",
    "EVENTS",
];

/// Dense verb index of a request kind (`None` for unknown kinds).
fn verb_index(kind: u8) -> Option<usize> {
    match kind {
        REQ_INGEST => Some(0),
        REQ_STATS => Some(1),
        REQ_DETECT => Some(2),
        REQ_SHUTDOWN => Some(3),
        REQ_METRICS => Some(4),
        REQ_TRACE => Some(5),
        REQ_DETECT_TOPK => Some(6),
        REQ_HEALTH => Some(7),
        REQ_EVENTS => Some(8),
        _ => None,
    }
}

/// The verb name of a request kind, for event fields.
fn verb_name(kind: u8) -> &'static str {
    verb_index(kind).and_then(|i| VERBS.get(i).copied()).unwrap_or("UNKNOWN")
}

/// Per-verb request counters in the process-global registry, indexed like
/// [`VERBS`].
fn request_counters() -> &'static [Arc<Counter>; 9] {
    static COUNTERS: OnceLock<[Arc<Counter>; 9]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        std::array::from_fn(|i| {
            let verb = VERBS.get(i).copied().unwrap_or("UNKNOWN");
            registry().counter(&format!("copydet_frontend_requests_total{{verb=\"{verb}\"}}"))
        })
    })
}

/// Per-verb request-latency histograms, indexed like [`VERBS`].
fn request_nanos() -> &'static [Arc<Histogram>; 9] {
    static HISTOGRAMS: OnceLock<[Arc<Histogram>; 9]> = OnceLock::new();
    HISTOGRAMS.get_or_init(|| {
        std::array::from_fn(|i| {
            let verb = VERBS.get(i).copied().unwrap_or("UNKNOWN");
            registry().histogram(&format!("copydet_frontend_request_nanos{{verb=\"{verb}\"}}"))
        })
    })
}

/// Connections currently being served, across every frontend in the
/// process.
fn connections_live() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| registry().gauge("copydet_frontend_connections_live"))
}

/// Connections ever accepted, across every frontend in the process.
fn connections_total() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_frontend_connections_total"))
}

/// Requests currently being dispatched, across every frontend in the
/// process — the saturation gauge `HEALTH` readers correlate with the
/// per-rank lock-wait gauges.
fn inflight_requests() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| registry().gauge("copydet_frontend_inflight_requests"))
}

/// RAII handle for the in-flight gauge: covers every dispatch exit path
/// (response written, I/O error, SHUTDOWN break).
struct InflightRequest;

impl InflightRequest {
    fn start() -> Self {
        inflight_requests().inc();
        Self
    }
}

impl Drop for InflightRequest {
    fn drop(&mut self) {
        inflight_requests().dec();
    }
}

/// Records one served request into the global registry (count + latency).
fn record_request(kind: u8, span: &Span) {
    if let Some(i) = verb_index(kind) {
        if let Some(counter) = request_counters().get(i) {
            counter.inc();
        }
        if let Some(histogram) = request_nanos().get(i) {
            histogram.record(span.elapsed_nanos());
        }
    }
}

/// RAII handle for the live-connection gauge: increments on open, and the
/// `Drop` decrement covers every handler exit path (EOF, error, shutdown).
struct LiveConnection;

impl LiveConnection {
    fn open() -> Self {
        connections_total().inc();
        connections_live().inc();
        emit(Severity::Info, "serve", "conn.open", Vec::new());
        Self
    }
}

impl Drop for LiveConnection {
    fn drop(&mut self) {
        connections_live().dec();
        emit(Severity::Info, "serve", "conn.close", Vec::new());
    }
}

/// Per-server request accounting reported in the `STATS` trailer: uptime
/// plus one count per verb.
///
/// The process-global registry carries the same numbers as
/// `copydet_frontend_requests_total{verb=...}`, but summed over **every**
/// frontend the process ever ran; this per-[`serve`] instance keeps one
/// server's `STATS` honest when many servers share a process (as tests do).
#[derive(Debug)]
struct FrontendStats {
    started: Instant,
    verbs: [AtomicU64; 9],
}

impl FrontendStats {
    fn new() -> Self {
        Self { started: Instant::now(), verbs: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Counts one request of `kind` (unknown kinds are not counted).
    fn count(&self, kind: u8) {
        if let Some(counter) = verb_index(kind).and_then(|i| self.verbs.get(i)) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn uptime_micros(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn counts(&self) -> WireRequestCounts {
        let get = |i: usize| self.verbs.get(i).map_or(0, |c| c.load(Ordering::Relaxed));
        WireRequestCounts {
            ingest: get(0),
            stats: get(1),
            detect: get(2),
            shutdown: get(3),
            metrics: get(4),
            trace: get(5),
            detect_topk: get(6),
            health: get(7),
            events: get(8),
        }
    }
}

/// A request the server refuses with a `0x81` response instead of serving.
///
/// Every variant is a *recoverable* per-request failure: the handler writes
/// the message back and keeps the connection alive. Nothing here panics —
/// frame payloads are untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A request payload failed to decode.
    BadPayload {
        /// The request being decoded (e.g. `"INGEST"`).
        request: &'static str,
        /// The codec failure underneath.
        source: CodecError,
    },
    /// Bytes remained after a payload's declared content.
    TrailingBytes {
        /// The request being decoded.
        request: &'static str,
        /// Undeclared bytes left over.
        trailing: usize,
        /// Entries the payload declared.
        declared: u32,
    },
    /// The request kind byte is not part of the protocol.
    UnknownKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// A response outgrew a wire-protocol limit.
    ResponseTooLarge {
        /// The response being built (e.g. `"DETECT"`).
        request: &'static str,
        /// The oversized length.
        len: usize,
        /// The limit it exceeded.
        limit: usize,
        /// Entries the response was carrying.
        entries: usize,
    },
    /// Response encoding failed (a string over the codec bound).
    Encode {
        /// The response being built.
        request: &'static str,
        /// The codec failure underneath.
        source: CodecError,
    },
    /// Detection reported a source id the name registry cannot resolve —
    /// an internal inconsistency reported to the client, never a panic.
    UnknownSource {
        /// The unresolvable dense source index.
        index: usize,
    },
    /// A `DETECT_TOPK` request named a source the fleet has never seen —
    /// a typed refusal, never a silently empty result.
    UnknownSourceName {
        /// The name the request asked about.
        name: String,
    },
    /// A `DETECT_TOPK` request used a mode byte the protocol does not
    /// define.
    UnknownTopKMode {
        /// The offending mode byte.
        mode: u8,
    },
    /// An `EVENTS` request used a severity tag the protocol does not
    /// define.
    UnknownSeverity {
        /// The offending severity tag.
        tag: u8,
    },
    /// The detection round itself failed (e.g. a shard's counts disagreed
    /// with its snapshot). Carries the rendered
    /// [`DetectError`](copydet_detect::DetectError) — a recoverable
    /// per-request failure, not a dead round thread.
    Detect {
        /// The rendered detection error.
        message: String,
    },
    /// An INGEST batch was applied in memory but the fleet can no longer
    /// persist claims ([`ShardedStore::ingest_error`]), so the batch is not
    /// acknowledged. Sticky until the fleet is recovered.
    NotPersisted {
        /// The rendered persistence failure.
        detail: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadPayload { request, source } => {
                write!(f, "bad {request} payload: {source}")
            }
            ProtocolError::TrailingBytes { request, trailing, declared } => {
                write!(
                    f,
                    "bad {request} payload: {trailing} trailing byte(s) after the declared \
                     {declared} entr(y/ies)"
                )
            }
            ProtocolError::UnknownKind { kind } => write!(f, "unknown request kind {kind:#04x}"),
            ProtocolError::ResponseTooLarge { request, len, limit, entries } => write!(
                f,
                "{request} response of {len} bytes exceeds the {limit}-byte frame limit \
                 ({entries} entries); run detection in-process for results this large"
            ),
            ProtocolError::Encode { request, source } => {
                write!(f, "{request} encoding failed: {source}")
            }
            ProtocolError::UnknownSource { index } => {
                write!(f, "internal error: source index {index} has no registered name")
            }
            ProtocolError::UnknownSourceName { name } => {
                write!(f, "unknown source name {name:?}")
            }
            ProtocolError::UnknownTopKMode { mode } => {
                write!(f, "unknown DETECT_TOPK mode {mode:#04x} (0 = per-source, 1 = fleet-wide)")
            }
            ProtocolError::UnknownSeverity { tag } => {
                write!(f, "unknown EVENTS severity tag {tag} (0 = debug .. 3 = error)")
            }
            ProtocolError::Detect { message } => {
                write!(f, "DETECT round failed: {message}")
            }
            ProtocolError::NotPersisted { detail } => {
                write!(f, "INGEST not acknowledged: the fleet cannot persist claims ({detail})")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

fn invalid(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Writes one frame to a stream.
fn write_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> io::Result<()> {
    let frame = codec::encode_wire_frame(kind, payload).map_err(invalid)?;
    stream.write_all(&frame)
}

/// Reads one frame from a stream; `Ok(None)` on a clean EOF before the
/// first header byte, or on an idle timeout before the first header byte
/// when the stream has a read timeout set ([`FrontendConfig::idle_timeout`])
/// — a silent peer is reaped like a cleanly closed one. An EOF or timeout
/// *inside* a header or body is a torn frame and surfaces as an error like
/// any other truncation.
fn read_frame(stream: &mut TcpStream) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; codec::WIRE_HEADER_LEN];
    {
        // The first byte decides clean-close vs torn frame, so it is read
        // on its own: read_exact cannot tell "0 bytes then EOF" from
        // "3 bytes then EOF".
        let (first, rest) = header.split_at_mut(1);
        match stream.read(first) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(stream),
            // A timed-out wait between frames (WouldBlock on Unix,
            // TimedOut on Windows) is the idle-connection signal. Only the
            // server arms read timeouts, so this branch never fires for the
            // client half of this module.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                emit(Severity::Info, "serve", "conn.idle_timeout", Vec::new());
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
        stream.read_exact(rest)?;
    }
    // The header alone bounds the body; the body is validated in place
    // against the header (kind, declared length, checksum) with no
    // header+body reassembly copy.
    let body_len = codec::wire_frame_body_len(&header).map_err(invalid)?;
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body)?;
    let (kind, payload) = codec::decode_wire_parts(&header, &body).map_err(invalid)?;
    Ok(Some((kind, payload.to_vec())))
}

/// Per-shard statistics as reported over the wire.
///
/// Counts are `u64` on the wire: the server's in-memory counts are `usize`
/// and the protocol must not narrow them (lossy-cast audit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireShardStats {
    /// Snapshots taken by the shard.
    pub epoch: u64,
    /// Live `(source, item)` claims in the shard.
    pub live_claims: u64,
    /// Sources known to the shard.
    pub num_sources: u64,
    /// Items routed to the shard.
    pub num_items: u64,
    /// Distinct values in the shard.
    pub num_values: u64,
    /// Sealed segments in the shard.
    pub sealed_segments: u64,
    /// Claims still in the shard's growing segment.
    pub growing_claims: u64,
    /// `true` if the shard persists to disk.
    pub durable: bool,
}

/// Fleet-wide statistics as reported over the wire: per-shard counters plus
/// the serving process's request accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFleetStats {
    /// Per-shard counters, one entry per shard.
    pub shards: Vec<WireShardStats>,
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// Requests served per verb since the server started (the `STATS`
    /// request carrying this response included).
    pub requests: WireRequestCounts,
}

/// Per-verb request counts since the server started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireRequestCounts {
    /// `INGEST` requests served.
    pub ingest: u64,
    /// `STATS` requests served.
    pub stats: u64,
    /// `DETECT` requests served.
    pub detect: u64,
    /// `SHUTDOWN` requests served.
    pub shutdown: u64,
    /// `METRICS` requests served.
    pub metrics: u64,
    /// `TRACE` requests served.
    pub trace: u64,
    /// `DETECT_TOPK` requests served.
    pub detect_topk: u64,
    /// `HEALTH` requests served.
    pub health: u64,
    /// `EVENTS` requests served.
    pub events: u64,
}

/// One copying pair as reported over the wire (source names, since the
/// client has no id space).
#[derive(Debug, Clone, PartialEq)]
pub struct WireCopyingPair {
    /// First source of the pair (smaller global id).
    pub first: String,
    /// Second source of the pair.
    pub second: String,
    /// Posterior probability of independence.
    pub posterior: f64,
}

/// A detection round's result as reported over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDetection {
    /// Pairs for which evidence was materialized.
    pub pairs_considered: u64,
    /// Pairs decided as copying.
    pub copying: Vec<WireCopyingPair>,
}

/// A top-k query's answer as reported over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTopK {
    /// Pairs the query's filtered round materialized.
    pub candidates: u64,
    /// Candidates whose exact evidence was folded: always `candidates`.
    pub evaluated: u64,
    /// Always 0; kept so the response layout does not change.
    pub pruned: u64,
    /// At most `k` pairs, most suspicious first (ascending posterior of
    /// independence, ties by global pair id).
    pub ranked: Vec<WireCopyingPair>,
}

/// The registry of live connections: a socket handle to interrupt each
/// blocked reader with, plus the handler thread to join. Highest rank in
/// the process — it is taken while no store lock is held, and never the
/// other way around.
// lock-rank: 30 (serve.frontend.connections)
type Connections = Arc<RankedMutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Rank of the connection registry lock (see `DESIGN.md` §8).
const CONNECTIONS_RANK: u32 = 30;

fn new_connections() -> Connections {
    // lock-rank: 30 (serve.frontend.connections)
    Arc::new(RankedMutex::new(CONNECTIONS_RANK, "serve.frontend.connections", Vec::new()))
}

/// A running frontend: bound address plus the accept thread.
///
/// The server stops when [`shutdown`](Self::shutdown) is called or a client
/// sends `SHUTDOWN`; `shutdown` additionally closes every open connection
/// and joins its handler thread, so when it returns **no** thread still
/// holds a clone of the store — on a durable fleet the shard directory
/// locks are free to reopen. Dropping the handle without `shutdown` leaves
/// the accept thread running (detached) — tests and the demo always shut
/// down explicitly.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Connections,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Returns `true` once the server has been asked to stop.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting connections, closes every open connection, and joins
    /// the accept and handler threads. When this returns, no server thread
    /// holds a reference to the store.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // A throwaway connection unblocks the accept loop so it can observe
        // the stop flag.
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Interrupt handlers blocked in a read, then wait for each to drop
        // its store clone.
        let connections = std::mem::take(&mut *self.connections.lock());
        for (stream, handle) in connections {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = handle.join();
        }
    }
}

/// Serves a [`ShardedStore`] on `addr` (`127.0.0.1:0` picks a free port).
///
/// Returns once the listener is bound; the accept loop runs on its own
/// thread and every connection gets a handler thread (registered so
/// [`ServerHandle::shutdown`] can close and join it). All request handling
/// is std-only (no async runtime): the workload is lock-amortized batch
/// ingest plus occasional detection rounds, where a thread per connection
/// is the simplest correct concurrency model.
pub fn serve(store: ShardedStore, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    serve_with_config(store, addr, FrontendConfig::default())
}

/// Serving knobs for [`serve_with_config`]. All settings trade wall time or
/// resource use only — none changes a single bit of any response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendConfig {
    /// How long a connection may sit idle *between* frames before its
    /// handler closes it. `None` (the default) waits forever — the
    /// pre-timeout behavior, where a client that connects and goes silent
    /// pins a handler thread until shutdown. Mid-frame timeouts remain
    /// errors: only silence before a frame's first byte is "idle".
    pub idle_timeout: Option<std::time::Duration>,
    /// Requests, rounds or maintenance ticks slower than this are promoted
    /// to `Warn` flight-recorder events carrying the round's stage
    /// breakdown. `None` (the default) leaves the `COPYDET_SLOW_OP_MS`
    /// environment setting in force (absent ⇒ slow-op capture disabled).
    pub slow_op_threshold: Option<std::time::Duration>,
    /// Capacity of the global round-trace ring, applied at server startup
    /// (`0`, the default, keeps `COPYDET_TRACE_CAPACITY` / the built-in
    /// default). First use of the ring wins — start the server before
    /// tracing anything if this knob matters.
    pub trace_capacity: usize,
    /// Capacity of the global flight-recorder event ring, applied at server
    /// startup (`0`, the default, keeps `COPYDET_EVENT_CAPACITY` / the
    /// built-in default). First use wins, like `trace_capacity`.
    pub event_capacity: usize,
}

/// [`serve`] with explicit [`FrontendConfig`] knobs.
pub fn serve_with_config(
    store: ShardedStore,
    addr: impl ToSocketAddrs,
    config: FrontendConfig,
) -> io::Result<ServerHandle> {
    // Observability knobs first: ring capacities only matter before the
    // rings' first use, and the slow-op threshold should cover the very
    // first request.
    if config.trace_capacity > 0 {
        set_default_trace_capacity(config.trace_capacity);
    }
    if config.event_capacity > 0 {
        set_default_event_capacity(config.event_capacity);
    }
    if config.slow_op_threshold.is_some() {
        // `None` deliberately leaves COPYDET_SLOW_OP_MS in force.
        set_slow_op_threshold(config.slow_op_threshold);
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let connections = new_connections();
    let frontend_stats = Arc::new(FrontendStats::new());
    let accept_stop = Arc::clone(&stop);
    let accept_connections = Arc::clone(&connections);
    let accept_thread = std::thread::spawn(move || {
        for connection in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = connection else { continue };
            // A handler blocked in `read` observes idleness through the OS
            // read timeout; `read_frame` turns a pre-frame timeout into a
            // clean close. Failure to arm the timeout is not fatal — the
            // connection just keeps the old wait-forever behavior.
            if config.idle_timeout.is_some() {
                let _ = stream.set_read_timeout(config.idle_timeout);
            }
            let store = store.clone();
            let stats = Arc::clone(&frontend_stats);
            let stop = Arc::clone(&accept_stop);
            let server_addr = addr;
            let handler_connections = Arc::clone(&accept_connections);
            let Ok(interrupt) = stream.try_clone() else { continue };
            let handler = std::thread::spawn(move || {
                let _ =
                    handle_connection(stream, store, stats, stop, server_addr, handler_connections);
            });
            let mut registry = accept_connections.lock();
            // Reap finished handlers so a long-lived server's registry holds
            // only live connections.
            registry.retain(|(_, handle)| !handle.is_finished());
            registry.push((interrupt, handler));
        }
    });
    Ok(ServerHandle { addr, stop, accept_thread: Some(accept_thread), connections })
}

/// Serves one connection until EOF, error, or SHUTDOWN.
fn handle_connection(
    mut stream: TcpStream,
    store: ShardedStore,
    stats: Arc<FrontendStats>,
    stop: Arc<AtomicBool>,
    server_addr: SocketAddr,
    connections: Connections,
) -> io::Result<()> {
    let _live = LiveConnection::open();
    let result = serve_connection(&mut stream, &store, &stats, &stop, server_addr, &connections);
    // Dropping `stream` alone does not close the socket: the accept loop
    // holds a `try_clone` dup in the connection registry (for SHUTDOWN
    // interruption), so the peer would never see a FIN. An explicit
    // half-duplex shutdown closes the connection regardless of dups — this
    // is what makes an idle-timeout reap observable to the silent client.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    result
}

/// The per-connection request loop; see [`handle_connection`] for the
/// socket-close contract wrapped around it.
fn serve_connection(
    stream: &mut TcpStream,
    store: &ShardedStore,
    stats: &FrontendStats,
    stop: &AtomicBool,
    server_addr: SocketAddr,
    connections: &Connections,
) -> io::Result<()> {
    while let Some((kind, payload)) = read_frame(stream)? {
        let span = Span::start();
        let _inflight = InflightRequest::start();
        // Counted before dispatch so a STATS response includes the request
        // that asked for it.
        stats.count(kind);
        let response = match kind {
            REQ_INGEST => handle_ingest(store, &payload),
            REQ_STATS => Ok(handle_stats(store, stats)),
            REQ_DETECT => handle_detect(store, &payload),
            REQ_DETECT_TOPK => handle_detect_topk(store, &payload),
            REQ_METRICS => handle_metrics(),
            REQ_TRACE => handle_trace(&payload),
            REQ_HEALTH => handle_health(store, &payload),
            REQ_EVENTS => handle_events(&payload),
            REQ_SHUTDOWN => {
                stop.store(true, Ordering::SeqCst);
                write_frame(stream, RESP_OK, &[])?;
                record_request(kind, &span);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(wake_addr(server_addr));
                // A wire SHUTDOWN quiesces the whole server, not just this
                // connection: close every *other* registered connection so
                // their handlers exit and release their store clones (this
                // one's response is already written; skipping it keeps the
                // OK from being discarded by an abortive close).
                let own = stream.peer_addr().ok();
                let registry = connections.lock();
                for (other, _) in registry.iter() {
                    if own.is_none() || other.peer_addr().ok() != own {
                        let _ = other.shutdown(std::net::Shutdown::Both);
                    }
                }
                break;
            }
            other => Err(ProtocolError::UnknownKind { kind: other }),
        };
        let ok = response.is_ok();
        match response {
            Ok(out) => write_frame(stream, RESP_OK, &out)?,
            Err(e) => {
                // Every ProtocolError (bad payloads, unknown kinds, failed
                // DETECT rounds) lands in the flight recorder before the
                // 0x81 frame goes out.
                emit(
                    Severity::Warn,
                    "serve",
                    "request.error",
                    vec![field::str("verb", verb_name(kind)), field::str("detail", &e.to_string())],
                );
                write_error(stream, &e.to_string())?;
            }
        }
        record_request(kind, &span);
        let nanos = span.elapsed_nanos();
        if slow_op_exceeded(nanos) {
            emit(
                Severity::Warn,
                "serve",
                "request.slow",
                vec![field::str("verb", verb_name(kind)), field::u64("nanos", nanos)],
            );
        }
        // Per-request outcome at Debug: suppressed in one atomic load
        // unless COPYDET_LOG=debug asks for the firehose.
        emit(
            Severity::Debug,
            "serve",
            "request",
            vec![
                field::str("verb", verb_name(kind)),
                field::u64("ok", u64::from(ok)),
                field::u64("nanos", nanos),
            ],
        );
    }
    Ok(())
}

/// INGEST: decode the batch, apply it, answer with the accepted count — or
/// with [`ProtocolError::NotPersisted`] once the fleet cannot persist (see
/// `DESIGN.md` §6 for what an unacknowledged batch may have left behind).
fn handle_ingest(store: &ShardedStore, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    let claims = decode_ingest(payload)?;
    // The response carries the batch's own accepted count — a fleet-wide
    // total would re-acquire every shard mutex right after the batch
    // released them, doubling cross-shard lock traffic for a number that is
    // stale the moment it is read (STATS reports live totals).
    let accepted =
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
    // One atomic load: the batch recorded any failure it hit under the
    // locks it held, so no shard is locked again here.
    if let Some(e) = store.ingest_error() {
        return Err(ProtocolError::NotPersisted { detail: e.to_string() });
    }
    let mut out = Vec::new();
    codec::put_u64(&mut out, usize_to_u64(accepted));
    Ok(out)
}

/// STATS: per-shard counters, all widened to `u64` on the wire, followed by
/// the server's uptime and per-verb request counts.
fn handle_stats(store: &ShardedStore, frontend: &FrontendStats) -> Vec<u8> {
    let mut out = Vec::new();
    let stats = store.shard_stats();
    // Shard counts are configuration-sized (far below 2^32); saturating
    // here keeps the encoder total without a panic path.
    codec::put_u32(&mut out, u32::try_from(stats.len()).unwrap_or(u32::MAX));
    for s in stats {
        codec::put_u64(&mut out, s.epoch);
        codec::put_u64(&mut out, usize_to_u64(s.live_claims));
        codec::put_u64(&mut out, usize_to_u64(s.num_sources));
        codec::put_u64(&mut out, usize_to_u64(s.num_items));
        codec::put_u64(&mut out, usize_to_u64(s.num_values));
        codec::put_u64(&mut out, usize_to_u64(s.sealed_segments));
        codec::put_u64(&mut out, usize_to_u64(s.growing_claims));
        codec::put_u8(&mut out, u8::from(s.durable));
    }
    codec::put_u64(&mut out, frontend.uptime_micros());
    let counts = frontend.counts();
    for count in [
        counts.ingest,
        counts.stats,
        counts.detect,
        counts.shutdown,
        counts.metrics,
        counts.trace,
        counts.detect_topk,
        counts.health,
        counts.events,
    ] {
        codec::put_u64(&mut out, count);
    }
    out
}

/// METRICS: the process-global registry in Prometheus-style text
/// exposition, as one wire string.
fn handle_metrics() -> Result<Vec<u8>, ProtocolError> {
    const REQUEST: &str = "METRICS";
    // Lock-contention probes are pull-model: refresh their gauges so the
    // exposition below carries current counts.
    publish_lock_metrics();
    let text = registry().render_text();
    let mut out = Vec::new();
    codec::put_str(&mut out, &text)
        .map_err(|source| ProtocolError::Encode { request: REQUEST, source })?;
    Ok(out)
}

/// TRACE: the most recent `n` round traces from the global ring, newest
/// first (`n == 0` means every retained trace).
fn handle_trace(payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    const REQUEST: &str = "TRACE";
    let bad = |source| ProtocolError::BadPayload { request: REQUEST, source };
    let mut r = Reader::new(payload);
    let declared = r.u32().map_err(bad)?;
    if !r.is_empty() {
        return Err(ProtocolError::TrailingBytes {
            request: REQUEST,
            trailing: r.remaining(),
            declared,
        });
    }
    let traces = trace_ring().recent(u32_to_usize(declared));
    let mut out = Vec::new();
    // The ring is capacity-bounded far below 2^32, so this never saturates.
    codec::put_u32(&mut out, u32::try_from(traces.len()).unwrap_or(u32::MAX));
    let encode = |out: &mut Vec<u8>, s: &str| {
        codec::put_str(out, s).map_err(|source| ProtocolError::Encode { request: REQUEST, source })
    };
    for trace in &traces {
        codec::put_u64(&mut out, trace.sequence);
        encode(&mut out, &trace.label)?;
        codec::put_u64(&mut out, trace.total_nanos);
        let stages =
            u32::try_from(trace.stages.len()).map_err(|_| ProtocolError::ResponseTooLarge {
                request: REQUEST,
                len: trace.stages.len(),
                limit: u32_to_usize(u32::MAX),
                entries: trace.stages.len(),
            })?;
        codec::put_u32(&mut out, stages);
        for stage in &trace.stages {
            encode(&mut out, &stage.name)?;
            codec::put_u64(&mut out, stage.nanos);
            codec::put_u64(&mut out, stage.count);
        }
    }
    if usize_to_u64(out.len()) > u64::from(codec::MAX_WIRE_FRAME_LEN) {
        return Err(ProtocolError::ResponseTooLarge {
            request: REQUEST,
            len: out.len(),
            limit: u32_to_usize(codec::MAX_WIRE_FRAME_LEN),
            entries: traces.len(),
        });
    }
    Ok(out)
}

/// HEALTH: compose the sticky-store check (only the serve layer can see the
/// store) with the process-wide rules of
/// [`evaluate_process_health`], and encode the verdict: `u8 ok`, `u32 n`,
/// then `n × (u8 reason tag, str detail)`.
fn handle_health(store: &ShardedStore, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    const REQUEST: &str = "HEALTH";
    if !payload.is_empty() {
        return Err(ProtocolError::TrailingBytes {
            request: REQUEST,
            trailing: payload.len(),
            declared: 0,
        });
    }
    let mut reasons = Vec::new();
    if let Some(e) = store.io_error() {
        reasons
            .push(HealthReason { code: HealthReasonCode::StickyStoreError, detail: e.to_string() });
    }
    reasons.extend(evaluate_process_health(&HealthThresholds::default()));
    let verdict = HealthVerdict::from_reasons(reasons);
    let mut out = Vec::new();
    codec::put_u8(&mut out, u8::from(verdict.ok));
    // At most one reason per code: far below 2^32.
    codec::put_u32(&mut out, u32::try_from(verdict.reasons.len()).unwrap_or(u32::MAX));
    for reason in &verdict.reasons {
        codec::put_u8(&mut out, reason.code.tag());
        codec::put_str(&mut out, &reason.detail)
            .map_err(|source| ProtocolError::Encode { request: REQUEST, source })?;
    }
    Ok(out)
}

/// EVENTS: the most recent `n` flight-recorder events at `min_severity` or
/// above (optionally from one component), newest first. Encoded per event:
/// seq, wall_ms, severity tag, component, name, then the typed fields
/// (`0` = u64, `1` = i64 as little-endian bits, `2` = f64 bits, `3` = str).
fn handle_events(payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    const REQUEST: &str = "EVENTS";
    let bad = |source| ProtocolError::BadPayload { request: REQUEST, source };
    let mut r = Reader::new(payload);
    let declared = r.u32().map_err(bad)?;
    let severity_tag = r.u8().map_err(bad)?;
    let component = r.string().map_err(bad)?;
    if !r.is_empty() {
        return Err(ProtocolError::TrailingBytes {
            request: REQUEST,
            trailing: r.remaining(),
            declared,
        });
    }
    let min_severity = Severity::from_tag(severity_tag)
        .ok_or(ProtocolError::UnknownSeverity { tag: severity_tag })?;
    let events = event_ring().recent_filtered(u32_to_usize(declared), min_severity, &component);
    let mut out = Vec::new();
    // The ring is capacity-bounded far below 2^32, so this never saturates.
    codec::put_u32(&mut out, u32::try_from(events.len()).unwrap_or(u32::MAX));
    let encode = |out: &mut Vec<u8>, s: &str| {
        codec::put_str(out, s).map_err(|source| ProtocolError::Encode { request: REQUEST, source })
    };
    for event in &events {
        codec::put_u64(&mut out, event.seq);
        codec::put_u64(&mut out, event.wall_ms);
        codec::put_u8(&mut out, event.severity.tag());
        encode(&mut out, &event.component)?;
        encode(&mut out, &event.name)?;
        let fields =
            u32::try_from(event.fields.len()).map_err(|_| ProtocolError::ResponseTooLarge {
                request: REQUEST,
                len: event.fields.len(),
                limit: u32_to_usize(u32::MAX),
                entries: event.fields.len(),
            })?;
        codec::put_u32(&mut out, fields);
        for (key, value) in &event.fields {
            encode(&mut out, key)?;
            match value {
                FieldValue::U64(v) => {
                    codec::put_u8(&mut out, 0);
                    codec::put_u64(&mut out, *v);
                }
                FieldValue::I64(v) => {
                    codec::put_u8(&mut out, 1);
                    // Bit-transport, not a cast: the lossy-cast audit covers
                    // this module.
                    codec::put_u64(&mut out, u64::from_le_bytes(v.to_le_bytes()));
                }
                FieldValue::F64(v) => {
                    codec::put_u8(&mut out, 2);
                    codec::put_u64(&mut out, v.to_bits());
                }
                FieldValue::Str(v) => {
                    codec::put_u8(&mut out, 3);
                    encode(&mut out, v)?;
                }
            }
        }
    }
    if usize_to_u64(out.len()) > u64::from(codec::MAX_WIRE_FRAME_LEN) {
        return Err(ProtocolError::ResponseTooLarge {
            request: REQUEST,
            len: out.len(),
            limit: u32_to_usize(codec::MAX_WIRE_FRAME_LEN),
            entries: events.len(),
        });
    }
    Ok(out)
}

/// DETECT: run a sharded round and encode the copying pairs by name.
fn handle_detect(store: &ShardedStore, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    const REQUEST: &str = "DETECT";
    // DETECT declares an empty payload; stray bytes mean a confused (or
    // hostile) peer and are refused, not silently dropped.
    if !payload.is_empty() {
        return Err(ProtocolError::TrailingBytes {
            request: REQUEST,
            trailing: payload.len(),
            declared: 0,
        });
    }
    let result = ShardedDetector::new()
        .detect_round(store)
        .map_err(|e| ProtocolError::Detect { message: e.to_string() })?;
    // Pair ids live in the global registry's id space; the read-locked name
    // list resolves them in O(sources) without stalling concurrent ingest
    // batches.
    let names = store.global_source_names();
    let mut out = Vec::new();
    codec::put_u64(&mut out, usize_to_u64(result.pairs_considered));
    let mut copying: Vec<_> =
        result.outcomes.iter().filter(|(_, o)| o.decision.is_copying()).collect();
    copying.sort_by_key(|(pair, _)| **pair);
    let declared = u32::try_from(copying.len()).map_err(|_| ProtocolError::ResponseTooLarge {
        request: REQUEST,
        len: copying.len(),
        limit: u32_to_usize(u32::MAX),
        entries: copying.len(),
    })?;
    codec::put_u32(&mut out, declared);
    for (pair, outcome) in &copying {
        // Detection ran over a registry snapshot at least as old as `names`
        // — a miss is an internal inconsistency, reported, never indexed.
        let resolve = |index: usize| {
            names.get(index).map(String::as_str).ok_or(ProtocolError::UnknownSource { index })
        };
        let encode = |out: &mut Vec<u8>, s: &str| {
            codec::put_str(out, s)
                .map_err(|source| ProtocolError::Encode { request: REQUEST, source })
        };
        encode(&mut out, resolve(pair.first().index())?)?;
        encode(&mut out, resolve(pair.second().index())?)?;
        codec::put_u64(&mut out, outcome.posterior.unwrap_or(0.0).to_bits());
    }
    // The response size is data-dependent (every copying pair carries two
    // names): an over-limit payload must be a typed protocol error, not a
    // killed handler thread.
    if usize_to_u64(out.len()) > u64::from(codec::MAX_WIRE_FRAME_LEN) {
        return Err(ProtocolError::ResponseTooLarge {
            request: REQUEST,
            len: out.len(),
            limit: u32_to_usize(codec::MAX_WIRE_FRAME_LEN),
            entries: copying.len(),
        });
    }
    Ok(out)
}

/// DETECT_TOPK: run a top-k query (per-source or fleet-wide) and encode the
/// ranked pairs by name, most suspicious first, with the query's work
/// counters.
fn handle_detect_topk(store: &ShardedStore, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    const REQUEST: &str = "DETECT_TOPK";
    let bad = |source| ProtocolError::BadPayload { request: REQUEST, source };
    let mut r = Reader::new(payload);
    let mode = r.u8().map_err(bad)?;
    let k = r.u32().map_err(bad)?;
    let source = match mode {
        0 => Some(r.string().map_err(bad)?),
        1 => None,
        other => return Err(ProtocolError::UnknownTopKMode { mode: other }),
    };
    if !r.is_empty() {
        return Err(ProtocolError::TrailingBytes {
            request: REQUEST,
            trailing: r.remaining(),
            declared: k,
        });
    }
    let detector = ShardedDetector::new();
    let result = match &source {
        Some(name) => detector.detect_topk(store, name, u32_to_usize(k)),
        None => detector.detect_topk_fleet(store, u32_to_usize(k)),
    }
    .map_err(|e| match e {
        copydet_detect::DetectError::UnknownSourceName { name } => {
            ProtocolError::UnknownSourceName { name }
        }
        other => ProtocolError::Detect { message: other.to_string() },
    })?;
    let names = store.global_source_names();
    let mut out = Vec::new();
    codec::put_u64(&mut out, result.stats.candidates);
    codec::put_u64(&mut out, result.stats.evaluated);
    codec::put_u64(&mut out, result.stats.pruned);
    let declared =
        u32::try_from(result.ranked.len()).map_err(|_| ProtocolError::ResponseTooLarge {
            request: REQUEST,
            len: result.ranked.len(),
            limit: u32_to_usize(u32::MAX),
            entries: result.ranked.len(),
        })?;
    codec::put_u32(&mut out, declared);
    for (pair, outcome) in &result.ranked {
        let resolve = |index: usize| {
            names.get(index).map(String::as_str).ok_or(ProtocolError::UnknownSource { index })
        };
        let encode = |out: &mut Vec<u8>, s: &str| {
            codec::put_str(out, s)
                .map_err(|source| ProtocolError::Encode { request: REQUEST, source })
        };
        encode(&mut out, resolve(pair.first().index())?)?;
        encode(&mut out, resolve(pair.second().index())?)?;
        codec::put_u64(&mut out, outcome.posterior.unwrap_or(1.0).to_bits());
    }
    if usize_to_u64(out.len()) > u64::from(codec::MAX_WIRE_FRAME_LEN) {
        return Err(ProtocolError::ResponseTooLarge {
            request: REQUEST,
            len: out.len(),
            limit: u32_to_usize(codec::MAX_WIRE_FRAME_LEN),
            entries: result.ranked.len(),
        });
    }
    Ok(out)
}

/// The address a throwaway self-connection should dial to unblock the
/// accept loop: the listener's own address, except that a wildcard bind
/// (`0.0.0.0` / `::`) is not connectable on every platform, so it is
/// rewritten to the matching loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

fn write_error(stream: &mut TcpStream, message: &str) -> io::Result<()> {
    let mut out = Vec::new();
    codec::put_str(&mut out, message).map_err(invalid)?;
    write_frame(stream, RESP_ERR, &out)
}

fn decode_ingest(payload: &[u8]) -> Result<Vec<(String, String, String)>, ProtocolError> {
    const REQUEST: &str = "INGEST";
    let bad = |source| ProtocolError::BadPayload { request: REQUEST, source };
    let mut r = Reader::new(payload);
    let declared = r.u32().map_err(bad)?;
    let n = u32_to_usize(declared);
    let mut claims = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let mut field = || r.string().map_err(bad);
        claims.push((field()?, field()?, field()?));
    }
    if !r.is_empty() {
        return Err(ProtocolError::TrailingBytes {
            request: REQUEST,
            trailing: r.remaining(),
            declared,
        });
    }
    Ok(claims)
}

/// A blocking client for the serving frontend.
///
/// One request in flight at a time (the protocol is strictly
/// request/response per connection); open more clients for concurrency.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a frontend.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self { stream: TcpStream::connect(addr)? })
    }

    fn request(&mut self, kind: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, kind, payload)?;
        match read_frame(&mut self.stream)? {
            Some((RESP_OK, payload)) => Ok(payload),
            Some((RESP_ERR, payload)) => {
                let message = Reader::new(&payload).string().map_err(invalid)?;
                Err(io::Error::other(format!("server error: {message}")))
            }
            Some((kind, _)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response kind {kind:#04x}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            )),
        }
    }

    /// Ingests a batch of claims; returns the number of claims the server
    /// accepted from this batch (use [`stats`](Self::stats) for fleet
    /// totals).
    pub fn ingest(&mut self, claims: &[(&str, &str, &str)]) -> io::Result<u64> {
        let count = u32::try_from(claims.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a batch of {} claims exceeds the u32 wire count", claims.len()),
            )
        })?;
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, count);
        for (s, d, v) in claims {
            codec::put_str(&mut payload, s).map_err(invalid)?;
            codec::put_str(&mut payload, d).map_err(invalid)?;
            codec::put_str(&mut payload, v).map_err(invalid)?;
        }
        let resp = self.request(REQ_INGEST, &payload)?;
        Reader::new(&resp).u64().map_err(invalid)
    }

    /// Fetches fleet statistics: per-shard counters plus the server's
    /// uptime and per-verb request counts.
    pub fn stats(&mut self) -> io::Result<WireFleetStats> {
        let resp = self.request(REQ_STATS, &[])?;
        let mut r = Reader::new(&resp);
        let decode = |r: &mut Reader<'_>| -> Result<WireFleetStats, CodecError> {
            let n = u32_to_usize(r.u32()?);
            let mut shards = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                shards.push(WireShardStats {
                    epoch: r.u64()?,
                    live_claims: r.u64()?,
                    num_sources: r.u64()?,
                    num_items: r.u64()?,
                    num_values: r.u64()?,
                    sealed_segments: r.u64()?,
                    growing_claims: r.u64()?,
                    durable: r.u8()? != 0,
                });
            }
            let uptime_micros = r.u64()?;
            let requests = WireRequestCounts {
                ingest: r.u64()?,
                stats: r.u64()?,
                detect: r.u64()?,
                shutdown: r.u64()?,
                metrics: r.u64()?,
                trace: r.u64()?,
                detect_topk: r.u64()?,
                health: r.u64()?,
                events: r.u64()?,
            };
            Ok(WireFleetStats { shards, uptime_micros, requests })
        };
        decode(&mut r).map_err(invalid)
    }

    /// Fetches the server process's metrics registry in Prometheus-style
    /// text exposition.
    pub fn metrics(&mut self) -> io::Result<String> {
        let resp = self.request(REQ_METRICS, &[])?;
        Reader::new(&resp).string().map_err(invalid)
    }

    /// Fetches the server process's most recent `n` round traces, newest
    /// first (`0` means every retained trace).
    pub fn trace(&mut self, n: u32) -> io::Result<Vec<RoundTrace>> {
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, n);
        let resp = self.request(REQ_TRACE, &payload)?;
        let mut r = Reader::new(&resp);
        let decode = |r: &mut Reader<'_>| -> Result<Vec<RoundTrace>, CodecError> {
            let count = u32_to_usize(r.u32()?);
            let mut traces = Vec::with_capacity(count.min(1 << 10));
            for _ in 0..count {
                let sequence = r.u64()?;
                let label = r.string()?;
                let total_nanos = r.u64()?;
                let num_stages = u32_to_usize(r.u32()?);
                let mut stages = Vec::with_capacity(num_stages.min(1 << 10));
                for _ in 0..num_stages {
                    stages.push(TraceStage { name: r.string()?, nanos: r.u64()?, count: r.u64()? });
                }
                traces.push(RoundTrace { label, sequence, total_nanos, stages });
            }
            Ok(traces)
        };
        decode(&mut r).map_err(invalid)
    }

    /// Runs a detection round on the server and returns the copying pairs
    /// (by source name, ordered by global pair id).
    pub fn detect(&mut self) -> io::Result<WireDetection> {
        let resp = self.request(REQ_DETECT, &[])?;
        let mut r = Reader::new(&resp);
        let decode = |r: &mut Reader<'_>| -> Result<WireDetection, CodecError> {
            let pairs_considered = r.u64()?;
            let n = u32_to_usize(r.u32()?);
            let mut copying = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                copying.push(WireCopyingPair {
                    first: r.string()?,
                    second: r.string()?,
                    posterior: f64::from_bits(r.u64()?),
                });
            }
            Ok(WireDetection { pairs_considered, copying })
        };
        decode(&mut r).map_err(invalid)
    }

    /// Runs a top-k query on the server: the `k` most likely copiers of
    /// `source` (`Some`), or the `k` most suspicious pairs fleet-wide
    /// (`None`). The ranked answer is bit-identical to the top-k of a full
    /// [`detect`](Self::detect) round; the counters say how many of the
    /// fleet's pairs the query evaluated.
    pub fn detect_topk(&mut self, source: Option<&str>, k: u32) -> io::Result<WireTopK> {
        let mut payload = Vec::new();
        match source {
            Some(name) => {
                codec::put_u8(&mut payload, 0);
                codec::put_u32(&mut payload, k);
                codec::put_str(&mut payload, name).map_err(invalid)?;
            }
            None => {
                codec::put_u8(&mut payload, 1);
                codec::put_u32(&mut payload, k);
            }
        }
        let resp = self.request(REQ_DETECT_TOPK, &payload)?;
        let mut r = Reader::new(&resp);
        let decode = |r: &mut Reader<'_>| -> Result<WireTopK, CodecError> {
            let candidates = r.u64()?;
            let evaluated = r.u64()?;
            let pruned = r.u64()?;
            let n = u32_to_usize(r.u32()?);
            let mut ranked = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ranked.push(WireCopyingPair {
                    first: r.string()?,
                    second: r.string()?,
                    posterior: f64::from_bits(r.u64()?),
                });
            }
            Ok(WireTopK { candidates, evaluated, pruned, ranked })
        };
        decode(&mut r).map_err(invalid)
    }

    /// Fetches the server's typed health verdict: `ok`, or degraded with
    /// one [`HealthReason`] per observed problem (sticky store errors, WAL
    /// fsync over budget, merge starvation, connection saturation).
    pub fn health(&mut self) -> io::Result<HealthVerdict> {
        let resp = self.request(REQ_HEALTH, &[])?;
        let mut r = Reader::new(&resp);
        let ok = r.u8().map_err(invalid)? != 0;
        let n = u32_to_usize(r.u32().map_err(invalid)?);
        let mut reasons = Vec::with_capacity(n.min(1 << 8));
        for _ in 0..n {
            let tag = r.u8().map_err(invalid)?;
            let code = HealthReasonCode::from_tag(tag).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown health reason tag {tag}"),
                )
            })?;
            reasons.push(HealthReason { code, detail: r.string().map_err(invalid)? });
        }
        Ok(HealthVerdict { ok, reasons })
    }

    /// Fetches the server's most recent `n` flight-recorder events at
    /// `min_severity` or above, newest first (`n == 0` means every retained
    /// event; an empty `component` matches every component).
    pub fn events(
        &mut self,
        n: u32,
        min_severity: Severity,
        component: &str,
    ) -> io::Result<Vec<Event>> {
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, n);
        codec::put_u8(&mut payload, min_severity.tag());
        codec::put_str(&mut payload, component).map_err(invalid)?;
        let resp = self.request(REQ_EVENTS, &payload)?;
        let mut r = Reader::new(&resp);
        let decode = |r: &mut Reader<'_>| -> Result<Option<Vec<Event>>, CodecError> {
            let count = u32_to_usize(r.u32()?);
            let mut events = Vec::with_capacity(count.min(1 << 10));
            for _ in 0..count {
                let seq = r.u64()?;
                let wall_ms = r.u64()?;
                let Some(severity) = Severity::from_tag(r.u8()?) else { return Ok(None) };
                let component = r.string()?;
                let name = r.string()?;
                let num_fields = u32_to_usize(r.u32()?);
                let mut fields = Vec::with_capacity(num_fields.min(1 << 10));
                for _ in 0..num_fields {
                    let key = r.string()?;
                    let value = match r.u8()? {
                        0 => FieldValue::U64(r.u64()?),
                        1 => FieldValue::I64(i64::from_le_bytes(r.u64()?.to_le_bytes())),
                        2 => FieldValue::F64(f64::from_bits(r.u64()?)),
                        3 => FieldValue::Str(r.string()?),
                        _ => return Ok(None),
                    };
                    fields.push((key, value));
                }
                events.push(Event { seq, wall_ms, severity, component, name, fields });
            }
            Ok(Some(events))
        };
        match decode(&mut r) {
            Ok(Some(events)) => Ok(events),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "EVENTS response used an unknown severity or field tag",
            )),
            Err(e) => Err(invalid(e)),
        }
    }

    /// Asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request(REQ_SHUTDOWN, &[]).map(|_| ())
    }
}
