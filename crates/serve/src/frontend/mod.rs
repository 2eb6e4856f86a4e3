//! The serving frontend: a std-only TCP request loop speaking a small
//! length-prefixed binary protocol, plus the matching client.
//!
//! ## Wire protocol
//!
//! Every message is one checksummed frame from
//! [`copydet_model::codec`] (`[kind: u8][len: u32][payload][crc32]`, see
//! [`codec::encode_wire_frame`](copydet_model::codec::encode_wire_frame)).
//! Requests:
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
//! by [`codec::MAX_STR_LEN`](copydet_model::codec::MAX_STR_LEN); whole
//! frames are bounded by
//! [`codec::MAX_WIRE_FRAME_LEN`](copydet_model::codec::MAX_WIRE_FRAME_LEN),
//! so a hostile peer can neither drive an allocation nor wedge the reader.
//!
//! Each verb is one row of the module's verb table: kind byte, name (the
//! `verb` label of the `copydet_frontend_*` metrics), whether the request
//! payload must be empty, and handler. The table's order is the order of
//! the `STATS` trailer's per-verb counts. The dispatch loop does everything
//! the verbs share, once: it refuses stray bytes on an empty-request verb,
//! counts and times the request, and refuses an OK payload over the frame
//! limit with a typed error.
//!
//! Frame payloads are **attacker-controlled bytes**: every decode in this
//! module is total — typed [`ProtocolError`]s become `0x81` responses and
//! the connection keeps serving; nothing on the request path may panic.
//! `copydet-audit` enforces this (its no-panic and lossy-cast lints cover
//! all of `crates/serve/src`).
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

mod client;
mod protocol;

pub use client::Client;
pub use protocol::{
    ProtocolError, WireCopyingPair, WireDetection, WireFleetStats, WireRequestCounts,
    WireShardStats, WireTopK, REQ_DETECT, REQ_DETECT_TOPK, REQ_EVENTS, REQ_HEALTH, REQ_INGEST,
    REQ_METRICS, REQ_SHUTDOWN, REQ_STATS, REQ_TRACE, RESP_ERR, RESP_OK,
};

use crate::detector::ShardedDetector;
use crate::shard::ShardedStore;
use copydet_model::codec::{u32_to_usize, usize_to_u64};
use copydet_model::sync::RankedMutex;
use copydet_obs::event::field;
use copydet_obs::{
    emit, evaluate_process_health, event_ring, publish_lock_metrics, registry, slow_op_exceeded,
    trace_ring, Counter, FieldValue, Gauge, HealthReason, HealthReasonCode, HealthThresholds,
    HealthVerdict, Histogram, Severity, Span,
};
use protocol::{read_frame, write_error, write_frame, Request, Response};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A verb handler: decodes the rest of its request, acts on the server, and
/// encodes its OK payload.
type Handler = fn(&Server, &mut Request<'_>, &mut Response) -> Result<(), ProtocolError>;

/// One wire verb.
struct Verb {
    kind: u8,
    /// The `verb` metric label and the name errors carry.
    name: &'static str,
    /// The request payload must be empty: stray bytes are refused before the
    /// handler runs.
    empty_request: bool,
    handler: Handler,
}

/// The verb table. Its order is the order of the `STATS` trailer's counts,
/// so a new verb is appended, never inserted.
const VERBS: &[Verb] = &[
    Verb { kind: REQ_INGEST, name: "INGEST", empty_request: false, handler: handle_ingest },
    Verb { kind: REQ_STATS, name: "STATS", empty_request: true, handler: handle_stats },
    Verb { kind: REQ_DETECT, name: "DETECT", empty_request: true, handler: handle_detect },
    Verb { kind: REQ_SHUTDOWN, name: "SHUTDOWN", empty_request: true, handler: handle_shutdown },
    Verb { kind: REQ_METRICS, name: "METRICS", empty_request: true, handler: handle_metrics },
    Verb { kind: REQ_TRACE, name: "TRACE", empty_request: false, handler: handle_trace },
    Verb {
        kind: REQ_DETECT_TOPK,
        name: "DETECT_TOPK",
        empty_request: false,
        handler: handle_detect_topk,
    },
    Verb { kind: REQ_HEALTH, name: "HEALTH", empty_request: true, handler: handle_health },
    Verb { kind: REQ_EVENTS, name: "EVENTS", empty_request: false, handler: handle_events },
];

/// The table index of a request kind (`None` for kinds the protocol does
/// not define).
fn verb_index(kind: u8) -> Option<usize> {
    VERBS.iter().position(|verb| verb.kind == kind)
}

/// Per-verb request counters and latency histograms in the process-global
/// registry, in table order.
fn verb_metrics() -> &'static [(Arc<Counter>, Arc<Histogram>)] {
    static METRICS: OnceLock<Vec<(Arc<Counter>, Arc<Histogram>)>> = OnceLock::new();
    METRICS.get_or_init(|| {
        VERBS
            .iter()
            .map(|verb| {
                let label = format!("{{verb=\"{}\"}}", verb.name);
                (
                    registry().counter(&format!("copydet_frontend_requests_total{label}")),
                    registry().histogram(&format!("copydet_frontend_request_nanos{label}")),
                )
            })
            .collect()
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
/// (response written, I/O error).
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

/// Rank of the connection registry lock (see `DESIGN.md` §8).
const CONNECTIONS_RANK: u32 = 30;

/// One running server: the fleet it serves plus what its connections and
/// `STATS` share.
#[derive(Debug)]
struct Server {
    store: ShardedStore,
    addr: SocketAddr,
    stopped: AtomicBool,
    started: Instant,
    /// Requests served per verb, in table order. The process-global
    /// registry carries the same counts summed over **every** frontend the
    /// process ever ran; these keep one server's `STATS` honest when many
    /// servers share a process (as tests do).
    requests: [AtomicU64; VERBS.len()],
    /// Live connections: a socket handle to interrupt each blocked reader
    /// with, plus the handler thread to join. Highest rank in the process —
    /// taken while no store lock is held, never the other way around.
    // lock-rank: 30 (serve.frontend.connections)
    connections: RankedMutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

impl Server {
    /// Stops the server: raises the stop flag, wakes the accept loop with a
    /// throwaway connection so it observes the flag, and closes every
    /// registered connection but `spare`, so each handler exits and releases
    /// its store clone.
    fn stop(&self, spare: Option<SocketAddr>) {
        self.stopped.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(wake_addr(self.addr));
        for (stream, _) in self.connections.lock().iter() {
            if spare.is_none() || stream.peer_addr().ok() != spare {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }
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
    server: Arc<Server>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr
    }

    /// Returns `true` once the server has been asked to stop.
    pub fn is_stopped(&self) -> bool {
        self.server.stopped.load(Ordering::SeqCst)
    }

    /// Stops accepting connections, closes every open connection, and joins
    /// the accept and handler threads. When this returns, no server thread
    /// holds a reference to the store.
    pub fn shutdown(mut self) {
        self.server.stop(None);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Wait for each handler to drop its store clone. A connection the
        // accept loop registered after the sweep in `stop` is closed here.
        let connections = std::mem::take(&mut *self.server.connections.lock());
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

/// Serving knobs for [`serve_with_config`]. No setting changes a single bit
/// of any response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendConfig {
    /// How long a connection may sit idle *between* frames before its
    /// handler closes it. `None` (the default) waits forever — the
    /// pre-timeout behavior, where a client that connects and goes silent
    /// pins a handler thread until shutdown. Mid-frame timeouts remain
    /// errors: only silence before a frame's first byte is "idle".
    pub idle_timeout: Option<Duration>,
}

/// [`serve`] with explicit [`FrontendConfig`] knobs.
pub fn serve_with_config(
    store: ShardedStore,
    addr: impl ToSocketAddrs,
    config: FrontendConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let server = Arc::new(Server {
        store,
        addr: listener.local_addr()?,
        stopped: AtomicBool::new(false),
        started: Instant::now(),
        requests: std::array::from_fn(|_| AtomicU64::new(0)),
        // lock-rank: 30 (serve.frontend.connections)
        connections: RankedMutex::new(CONNECTIONS_RANK, "serve.frontend.connections", Vec::new()),
    });
    let accept_server = Arc::clone(&server);
    let accept_thread = std::thread::spawn(move || {
        for connection in listener.incoming() {
            if accept_server.stopped.load(Ordering::SeqCst) {
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
            let Ok(interrupt) = stream.try_clone() else { continue };
            let server = Arc::clone(&accept_server);
            let handler = std::thread::spawn(move || handle_connection(stream, &server));
            let mut registry = accept_server.connections.lock();
            // Reap finished handlers so a long-lived server's registry holds
            // only live connections.
            registry.retain(|(_, handle)| !handle.is_finished());
            registry.push((interrupt, handler));
        }
    });
    Ok(ServerHandle { server, accept_thread: Some(accept_thread) })
}

/// Serves one connection until EOF, error, or the server stopping.
fn handle_connection(mut stream: TcpStream, server: &Server) {
    let _live = LiveConnection::open();
    let _ = serve_connection(&mut stream, server);
    // Dropping `stream` alone does not close the socket: the accept loop
    // holds a `try_clone` dup in the connection registry (for SHUTDOWN
    // interruption), so the peer would never see a FIN. An explicit
    // half-duplex shutdown closes the connection regardless of dups — this
    // is what makes an idle-timeout reap observable to the silent client.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The per-connection request loop; see [`handle_connection`] for the
/// socket-close contract wrapped around it.
fn serve_connection(stream: &mut TcpStream, server: &Server) -> io::Result<()> {
    let peer = stream.peer_addr().ok();
    while let Some((kind, payload)) = read_frame(stream)? {
        let span = Span::start();
        let _inflight = InflightRequest::start();
        let index = verb_index(kind);
        let verb = index.and_then(|i| VERBS.get(i));
        // Counted before dispatch so a STATS response includes the request
        // that asked for it.
        if let Some(count) = index.and_then(|i| server.requests.get(i)) {
            count.fetch_add(1, Ordering::Relaxed);
        }
        let name = verb.map_or("UNKNOWN", |verb| verb.name);
        let response = match verb {
            Some(verb) => dispatch(server, verb, &payload),
            None => Err(ProtocolError::UnknownKind { kind }),
        };
        let ok = response.is_ok();
        // The stop flag goes up before SHUTDOWN's OK does, so a client that
        // has read the OK finds the server stopped.
        if ok && kind == REQ_SHUTDOWN {
            server.stopped.store(true, Ordering::SeqCst);
        }
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
                    vec![field::str("verb", name), field::str("detail", &e.to_string())],
                );
                write_error(stream, &e.to_string())?;
            }
        }
        // The wake and the sweep wait until SHUTDOWN's OK is on the wire:
        // a sweep any earlier may close this connection first.
        if ok && kind == REQ_SHUTDOWN {
            server.stop(peer);
        }
        let nanos = span.elapsed_nanos();
        if let Some((count, latency)) = index.and_then(|i| verb_metrics().get(i)) {
            count.inc();
            latency.record(nanos);
        }
        if slow_op_exceeded(nanos) {
            emit(
                Severity::Warn,
                "serve",
                "request.slow",
                vec![field::str("verb", name), field::u64("nanos", nanos)],
            );
        }
        // Per-request outcome at Debug: suppressed in one atomic load
        // unless COPYDET_LOG=debug asks for the firehose.
        emit(
            Severity::Debug,
            "serve",
            "request",
            vec![
                field::str("verb", name),
                field::u64("ok", u64::from(ok)),
                field::u64("nanos", nanos),
            ],
        );
        // A stopped server serves no further request on any connection.
        if server.stopped.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Runs one request through its verb's row of the table.
fn dispatch(server: &Server, verb: &Verb, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    let mut request = Request::new(verb.name, payload);
    if verb.empty_request {
        request.finish(0)?;
    }
    let mut response = Response::new(verb.name);
    (verb.handler)(server, &mut request, &mut response)?;
    response.finish()
}

/// INGEST: decode the batch, apply it, answer with the accepted count — or
/// with [`ProtocolError::NotPersisted`] once the fleet cannot persist (see
/// `DESIGN.md` §6 for what an unacknowledged batch may have left behind).
fn handle_ingest(
    server: &Server,
    request: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    let declared = request.u32()?;
    let n = u32_to_usize(declared);
    let mut claims = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        claims.push((request.string()?, request.string()?, request.string()?));
    }
    request.finish(declared)?;
    // The response carries the batch's own accepted count — a fleet-wide
    // total would re-acquire every shard mutex right after the batch
    // released them, doubling cross-shard lock traffic for a number that is
    // stale the moment it is read (STATS reports live totals).
    let accepted = server
        .store
        .ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
    // One atomic load: the batch recorded any failure it hit under the
    // locks it held, so no shard is locked again here.
    if let Some(e) = server.store.ingest_error() {
        return Err(ProtocolError::NotPersisted { detail: e.to_string() });
    }
    out.u64(usize_to_u64(accepted));
    Ok(())
}

/// STATS: per-shard counters, all widened to `u64` on the wire, followed by
/// the server's uptime and its per-verb request counts in table order.
fn handle_stats(
    server: &Server,
    _: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    let stats = server.store.shard_stats();
    out.count(stats.len())?;
    for s in stats {
        out.u64(s.epoch);
        out.u64(usize_to_u64(s.live_claims));
        out.u64(usize_to_u64(s.num_sources));
        out.u64(usize_to_u64(s.num_items));
        out.u64(usize_to_u64(s.num_values));
        out.u64(usize_to_u64(s.sealed_segments));
        out.u64(usize_to_u64(s.growing_claims));
        out.u8(u8::from(s.durable));
    }
    out.u64(u64::try_from(server.started.elapsed().as_micros()).unwrap_or(u64::MAX));
    for count in &server.requests {
        out.u64(count.load(Ordering::Relaxed));
    }
    Ok(())
}

/// SHUTDOWN: nothing to do before the empty OK. The dispatch loop then
/// stops the whole server, sparing the asking connection so the OK is not
/// lost to an abortive close.
fn handle_shutdown(_: &Server, _: &mut Request<'_>, _: &mut Response) -> Result<(), ProtocolError> {
    Ok(())
}

/// METRICS: the process-global registry in Prometheus-style text
/// exposition, as one wire string.
fn handle_metrics(
    _: &Server,
    _: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    // Lock-contention probes are pull-model: refresh their gauges so the
    // exposition below carries current counts.
    publish_lock_metrics();
    out.str(&registry().render_text())
}

/// TRACE: the most recent `n` round traces from the global ring, newest
/// first (`n == 0` means every retained trace).
fn handle_trace(
    _: &Server,
    request: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    let declared = request.u32()?;
    request.finish(declared)?;
    let traces = trace_ring().recent(u32_to_usize(declared));
    out.count(traces.len())?;
    for trace in &traces {
        out.u64(trace.sequence);
        out.str(&trace.label)?;
        out.u64(trace.total_nanos);
        out.count(trace.stages.len())?;
        for stage in &trace.stages {
            out.str(&stage.name)?;
            out.u64(stage.nanos);
            out.u64(stage.count);
        }
    }
    Ok(())
}

/// HEALTH: compose the sticky-store check (only the serve layer can see the
/// store) with the process-wide rules of
/// [`evaluate_process_health`], and encode the verdict: `u8 ok`, `u32 n`,
/// then `n × (u8 reason tag, str detail)`.
fn handle_health(
    server: &Server,
    _: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    let mut reasons = Vec::new();
    if let Some(e) = server.store.io_error() {
        reasons
            .push(HealthReason { code: HealthReasonCode::StickyStoreError, detail: e.to_string() });
    }
    reasons.extend(evaluate_process_health(&HealthThresholds::default()));
    let verdict = HealthVerdict::from_reasons(reasons);
    out.u8(u8::from(verdict.ok));
    out.count(verdict.reasons.len())?;
    for reason in &verdict.reasons {
        out.u8(reason.code.tag());
        out.str(&reason.detail)?;
    }
    Ok(())
}

/// EVENTS: the most recent `n` flight-recorder events at `min_severity` or
/// above (optionally from one component), newest first. Encoded per event:
/// seq, wall_ms, severity tag, component, name, then the typed fields
/// (`0` = u64, `1` = i64 as little-endian bits, `2` = f64 bits, `3` = str).
fn handle_events(
    _: &Server,
    request: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    let declared = request.u32()?;
    let severity_tag = request.u8()?;
    let component = request.string()?;
    request.finish(declared)?;
    let min_severity = Severity::from_tag(severity_tag)
        .ok_or(ProtocolError::UnknownSeverity { tag: severity_tag })?;
    let events = event_ring().recent_filtered(u32_to_usize(declared), min_severity, &component);
    out.count(events.len())?;
    for event in &events {
        out.u64(event.seq);
        out.u64(event.wall_ms);
        out.u8(event.severity.tag());
        out.str(&event.component)?;
        out.str(&event.name)?;
        out.count(event.fields.len())?;
        for (key, value) in &event.fields {
            out.str(key)?;
            match value {
                FieldValue::U64(v) => {
                    out.u8(0);
                    out.u64(*v);
                }
                FieldValue::I64(v) => {
                    out.u8(1);
                    // Bit-transport, not a cast: the lossy-cast audit covers
                    // this module.
                    out.u64(u64::from_le_bytes(v.to_le_bytes()));
                }
                FieldValue::F64(v) => {
                    out.u8(2);
                    out.u64(v.to_bits());
                }
                FieldValue::Str(v) => {
                    out.u8(3);
                    out.str(v)?;
                }
            }
        }
    }
    Ok(())
}

/// DETECT: run a sharded round and encode the copying pairs by name.
fn handle_detect(
    server: &Server,
    _: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    let result = ShardedDetector::new()
        .detect_round(&server.store)
        .map_err(|e| ProtocolError::Detect { message: e.to_string() })?;
    let mut copying: Vec<_> =
        result.outcomes.iter().filter(|(_, o)| o.decision.is_copying()).collect();
    copying.sort_by_key(|(pair, _)| **pair);
    out.u64(usize_to_u64(result.pairs_considered));
    // Pair ids live in the global registry's id space; the read-locked name
    // list resolves them in O(sources) without stalling concurrent ingest
    // batches.
    out.pairs(
        &server.store.global_source_names(),
        copying.iter().map(|(pair, outcome)| (**pair, outcome.posterior.unwrap_or(0.0))),
    )
}

/// DETECT_TOPK: run a top-k query (per-source or fleet-wide) and encode the
/// ranked pairs by name, most suspicious first, with the query's work
/// counters.
fn handle_detect_topk(
    server: &Server,
    request: &mut Request<'_>,
    out: &mut Response,
) -> Result<(), ProtocolError> {
    let mode = request.u8()?;
    let k = request.u32()?;
    let source = match mode {
        0 => Some(request.string()?),
        1 => None,
        other => return Err(ProtocolError::UnknownTopKMode { mode: other }),
    };
    request.finish(k)?;
    let detector = ShardedDetector::new();
    let result = match &source {
        Some(name) => detector.detect_topk(&server.store, name, u32_to_usize(k)),
        None => detector.detect_topk_fleet(&server.store, u32_to_usize(k)),
    }
    .map_err(|e| match e {
        copydet_detect::DetectError::UnknownSourceName { name } => {
            ProtocolError::UnknownSourceName { name }
        }
        other => ProtocolError::Detect { message: other.to_string() },
    })?;
    // The v1 layout: candidates, evaluated (every candidate), pruned (none).
    out.u64(result.candidates);
    out.u64(result.candidates);
    out.u64(0);
    out.pairs(
        &server.store.global_source_names(),
        result.ranked.iter().map(|(pair, outcome)| (*pair, outcome.posterior.unwrap_or(1.0))),
    )
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_table_pins_kinds_and_names() {
        // The STATS trailer and the `verb` metric labels follow this order.
        let rows: Vec<(u8, &str)> = VERBS.iter().map(|verb| (verb.kind, verb.name)).collect();
        assert_eq!(
            rows,
            [
                (0x01, "INGEST"),
                (0x02, "STATS"),
                (0x03, "DETECT"),
                (0x04, "SHUTDOWN"),
                (0x05, "METRICS"),
                (0x06, "TRACE"),
                (0x07, "DETECT_TOPK"),
                (0x08, "HEALTH"),
                (0x09, "EVENTS"),
            ]
        );
        let empty: Vec<&str> =
            VERBS.iter().filter(|verb| verb.empty_request).map(|verb| verb.name).collect();
        assert_eq!(empty, ["STATS", "DETECT", "SHUTDOWN", "METRICS", "HEALTH"]);
        assert_eq!(verb_index(REQ_EVENTS), Some(8));
        assert_eq!(verb_index(0x7F), None);
    }
}
