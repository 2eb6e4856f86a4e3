//! The blocking client half of the wire protocol.

use super::protocol::{
    invalid, read_frame, write_frame, WireCopyingPair, WireDetection, WireFleetStats,
    WireRequestCounts, WireShardStats, WireTopK, REQ_DETECT, REQ_DETECT_TOPK, REQ_EVENTS,
    REQ_HEALTH, REQ_INGEST, REQ_METRICS, REQ_SHUTDOWN, REQ_STATS, REQ_TRACE, RESP_ERR, RESP_OK,
};
use super::VERBS;
use copydet_model::codec::{self, u32_to_usize, Reader};
use copydet_obs::{
    Event, FieldValue, HealthReason, HealthReasonCode, HealthVerdict, RoundTrace, Severity,
    TraceStage,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

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
        Reply::new(&resp).u64()
    }

    /// Fetches fleet statistics: per-shard counters plus the server's
    /// uptime and per-verb request counts.
    pub fn stats(&mut self) -> io::Result<WireFleetStats> {
        let resp = self.request(REQ_STATS, &[])?;
        let mut r = Reply::new(&resp);
        let n = r.count()?;
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
        let counts = VERBS.iter().map(|_| r.u64()).collect::<io::Result<_>>()?;
        Ok(WireFleetStats { shards, uptime_micros, requests: WireRequestCounts { counts } })
    }

    /// Fetches the server process's metrics registry in Prometheus-style
    /// text exposition.
    pub fn metrics(&mut self) -> io::Result<String> {
        let resp = self.request(REQ_METRICS, &[])?;
        Reply::new(&resp).string()
    }

    /// Fetches the server process's most recent `n` round traces, newest
    /// first (`0` means every retained trace).
    pub fn trace(&mut self, n: u32) -> io::Result<Vec<RoundTrace>> {
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, n);
        let resp = self.request(REQ_TRACE, &payload)?;
        let mut r = Reply::new(&resp);
        let count = r.count()?;
        let mut traces = Vec::with_capacity(count.min(1 << 10));
        for _ in 0..count {
            let sequence = r.u64()?;
            let label = r.string()?;
            let total_nanos = r.u64()?;
            let num_stages = r.count()?;
            let mut stages = Vec::with_capacity(num_stages.min(1 << 10));
            for _ in 0..num_stages {
                stages.push(TraceStage { name: r.string()?, nanos: r.u64()?, count: r.u64()? });
            }
            traces.push(RoundTrace { label, sequence, total_nanos, stages });
        }
        Ok(traces)
    }

    /// Runs a detection round on the server and returns the copying pairs
    /// (by source name, ordered by global pair id).
    pub fn detect(&mut self) -> io::Result<WireDetection> {
        let resp = self.request(REQ_DETECT, &[])?;
        let mut r = Reply::new(&resp);
        Ok(WireDetection { pairs_considered: r.u64()?, copying: r.pairs()? })
    }

    /// Runs a top-k query on the server: the `k` most likely copiers of
    /// `source` (`Some`), or the `k` most suspicious pairs fleet-wide
    /// (`None`). The ranked answer is bit-identical to the top-k of a full
    /// [`detect`](Self::detect) round; the counters say how many of the
    /// fleet's pairs the query evaluated.
    pub fn detect_topk(&mut self, source: Option<&str>, k: u32) -> io::Result<WireTopK> {
        let mut payload = Vec::new();
        codec::put_u8(&mut payload, u8::from(source.is_none()));
        codec::put_u32(&mut payload, k);
        if let Some(name) = source {
            codec::put_str(&mut payload, name).map_err(invalid)?;
        }
        let resp = self.request(REQ_DETECT_TOPK, &payload)?;
        let mut r = Reply::new(&resp);
        Ok(WireTopK {
            candidates: r.u64()?,
            evaluated: r.u64()?,
            pruned: r.u64()?,
            ranked: r.pairs()?,
        })
    }

    /// Fetches the server's typed health verdict: `ok`, or degraded with
    /// one [`HealthReason`] per observed problem (sticky store errors, WAL
    /// fsync over budget, merge starvation, connection saturation).
    pub fn health(&mut self) -> io::Result<HealthVerdict> {
        let resp = self.request(REQ_HEALTH, &[])?;
        let mut r = Reply::new(&resp);
        let ok = r.u8()? != 0;
        let n = r.count()?;
        let mut reasons = Vec::with_capacity(n.min(1 << 8));
        for _ in 0..n {
            let tag = r.u8()?;
            let code = HealthReasonCode::from_tag(tag)
                .ok_or_else(|| unknown_tag(format!("unknown health reason tag {tag}")))?;
            reasons.push(HealthReason { code, detail: r.string()? });
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
        let mut r = Reply::new(&resp);
        let unknown =
            || unknown_tag("EVENTS response used an unknown severity or field tag".into());
        let count = r.count()?;
        let mut events = Vec::with_capacity(count.min(1 << 10));
        for _ in 0..count {
            let seq = r.u64()?;
            let wall_ms = r.u64()?;
            let severity = Severity::from_tag(r.u8()?).ok_or_else(unknown)?;
            let component = r.string()?;
            let name = r.string()?;
            let num_fields = r.count()?;
            let mut fields = Vec::with_capacity(num_fields.min(1 << 10));
            for _ in 0..num_fields {
                let key = r.string()?;
                let value = match r.u8()? {
                    0 => FieldValue::U64(r.u64()?),
                    1 => FieldValue::I64(i64::from_le_bytes(r.u64()?.to_le_bytes())),
                    2 => FieldValue::F64(f64::from_bits(r.u64()?)),
                    3 => FieldValue::Str(r.string()?),
                    _ => return Err(unknown()),
                };
                fields.push((key, value));
            }
            events.push(Event { seq, wall_ms, severity, component, name, fields });
        }
        Ok(events)
    }

    /// Asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request(REQ_SHUTDOWN, &[]).map(|_| ())
    }
}

fn unknown_tag(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// An OK payload being decoded; every codec failure is an `InvalidData`
/// I/O error.
struct Reply<'a>(Reader<'a>);

impl<'a> Reply<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Self(Reader::new(payload))
    }

    fn u8(&mut self) -> io::Result<u8> {
        self.0.u8().map_err(invalid)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.0.u64().map_err(invalid)
    }

    fn string(&mut self) -> io::Result<String> {
        self.0.string().map_err(invalid)
    }

    /// A list's `u32` entry count.
    fn count(&mut self) -> io::Result<usize> {
        self.0.u32().map(u32_to_usize).map_err(invalid)
    }

    /// DETECT's and DETECT_TOPK's copying-pair list.
    fn pairs(&mut self) -> io::Result<Vec<WireCopyingPair>> {
        let n = self.count()?;
        let mut pairs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            pairs.push(WireCopyingPair {
                first: self.string()?,
                second: self.string()?,
                posterior: f64::from_bits(self.u64()?),
            });
        }
        Ok(pairs)
    }
}
