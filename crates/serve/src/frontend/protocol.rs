//! The wire layer both halves of the frontend share: kind bytes, the typed
//! [`ProtocolError`], frame I/O, the response types, and the request
//! decoder / response encoder the server's handlers work through.

use super::verb_index;
use copydet_model::codec::{self, u32_to_usize, usize_to_u64, CodecError, Reader};
use copydet_model::SourcePair;
use copydet_obs::{emit, Severity};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;

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
    ///
    /// [`ShardedStore::ingest_error`]: crate::ShardedStore::ingest_error
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

pub(super) fn invalid(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Writes one frame to a stream.
pub(super) fn write_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> io::Result<()> {
    let frame = codec::encode_wire_frame(kind, payload).map_err(invalid)?;
    stream.write_all(&frame)
}

/// Writes a `0x81` frame carrying `message`.
pub(super) fn write_error(stream: &mut TcpStream, message: &str) -> io::Result<()> {
    let mut out = Vec::new();
    codec::put_str(&mut out, message).map_err(invalid)?;
    write_frame(stream, RESP_ERR, &out)
}

/// Reads one frame from a stream; `Ok(None)` on a clean EOF before the
/// first header byte, or on an idle timeout before the first header byte
/// when the stream has a read timeout set
/// ([`FrontendConfig::idle_timeout`](super::FrontendConfig::idle_timeout))
/// — a silent peer is reaped like a cleanly closed one. An EOF or timeout
/// *inside* a header or body is a torn frame and surfaces as an error like
/// any other truncation.
pub(super) fn read_frame(stream: &mut TcpStream) -> io::Result<Option<(u8, Vec<u8>)>> {
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
            // client.
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

/// A request payload being decoded by its verb's handler: every decode
/// failure is a [`ProtocolError::BadPayload`] naming the verb.
pub(super) struct Request<'a> {
    verb: &'static str,
    reader: Reader<'a>,
}

impl<'a> Request<'a> {
    pub(super) fn new(verb: &'static str, payload: &'a [u8]) -> Self {
        Self { verb, reader: Reader::new(payload) }
    }

    fn bad(&self, source: CodecError) -> ProtocolError {
        ProtocolError::BadPayload { request: self.verb, source }
    }

    pub(super) fn u8(&mut self) -> Result<u8, ProtocolError> {
        self.reader.u8().map_err(|e| self.bad(e))
    }

    pub(super) fn u32(&mut self) -> Result<u32, ProtocolError> {
        self.reader.u32().map_err(|e| self.bad(e))
    }

    pub(super) fn string(&mut self) -> Result<String, ProtocolError> {
        self.reader.string().map_err(|e| self.bad(e))
    }

    /// Refuses bytes left after the payload's declared content: a confused
    /// (or hostile) peer, not something to drop silently. `declared` is the
    /// entry count the payload declared, echoed in the error.
    pub(super) fn finish(&self, declared: u32) -> Result<(), ProtocolError> {
        if self.reader.is_empty() {
            return Ok(());
        }
        Err(ProtocolError::TrailingBytes {
            request: self.verb,
            trailing: self.reader.remaining(),
            declared,
        })
    }
}

/// An OK payload being encoded by its verb's handler: every encode failure
/// names the verb, and [`finish`](Self::finish) applies the frame limit.
pub(super) struct Response {
    verb: &'static str,
    out: Vec<u8>,
    /// The first list length the payload declared — its entry count, which
    /// an oversize error reports.
    entries: Option<usize>,
}

impl Response {
    pub(super) fn new(verb: &'static str) -> Self {
        Self { verb, out: Vec::new(), entries: None }
    }

    fn too_large(&self, len: usize, limit: usize) -> ProtocolError {
        ProtocolError::ResponseTooLarge {
            request: self.verb,
            len,
            limit,
            entries: self.entries.unwrap_or(len),
        }
    }

    pub(super) fn u8(&mut self, v: u8) {
        codec::put_u8(&mut self.out, v);
    }

    pub(super) fn u64(&mut self, v: u64) {
        codec::put_u64(&mut self.out, v);
    }

    pub(super) fn str(&mut self, s: &str) -> Result<(), ProtocolError> {
        codec::put_str(&mut self.out, s)
            .map_err(|source| ProtocolError::Encode { request: self.verb, source })
    }

    /// Declares a list of `n` entries as its `u32` wire count.
    pub(super) fn count(&mut self, n: usize) -> Result<(), ProtocolError> {
        let declared = u32::try_from(n).map_err(|_| self.too_large(n, u32_to_usize(u32::MAX)))?;
        self.entries.get_or_insert(n);
        codec::put_u32(&mut self.out, declared);
        Ok(())
    }

    /// Copying pairs by global source name — DETECT's and DETECT_TOPK's
    /// shared layout: `u32 n`, then `n × (str first, str second, f64
    /// posterior)`.
    pub(super) fn pairs(
        &mut self,
        names: &[String],
        pairs: impl ExactSizeIterator<Item = (SourcePair, f64)>,
    ) -> Result<(), ProtocolError> {
        self.count(pairs.len())?;
        // Detection ran over a registry snapshot at least as old as `names`
        // — a miss is an internal inconsistency, reported, never indexed.
        let name = |index: usize| {
            names.get(index).map(String::as_str).ok_or(ProtocolError::UnknownSource { index })
        };
        for (pair, posterior) in pairs {
            self.str(name(pair.first().index())?)?;
            self.str(name(pair.second().index())?)?;
            self.u64(posterior.to_bits());
        }
        Ok(())
    }

    /// The finished payload. Response sizes are data-dependent (every
    /// copying pair carries two names), so an over-limit payload is a typed
    /// error here, not a failed frame write that kills the connection.
    pub(super) fn finish(self) -> Result<Vec<u8>, ProtocolError> {
        if usize_to_u64(self.out.len()) > u64::from(codec::MAX_WIRE_FRAME_LEN) {
            return Err(self.too_large(self.out.len(), u32_to_usize(codec::MAX_WIRE_FRAME_LEN)));
        }
        Ok(self.out)
    }
}

/// Per-shard statistics as reported over the wire.
///
/// Counts are `u64` on the wire: the server's in-memory counts are `usize`
/// and the protocol must not narrow them (the crate denies `as` casts).
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

/// Per-verb request counts since the server started, in verb-table order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireRequestCounts {
    pub(super) counts: Vec<u64>,
}

impl WireRequestCounts {
    /// Requests of `kind` (e.g. [`REQ_INGEST`]) served; 0 for a kind the
    /// protocol does not define.
    pub fn get(&self, kind: u8) -> u64 {
        verb_index(kind).and_then(|i| self.counts.get(i)).copied().unwrap_or(0)
    }
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
