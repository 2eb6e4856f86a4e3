//! The load generator: the wire-level loops of the four workloads, driven
//! through `frontend::Client` over loopback, and the restart cycle every
//! workload ends with.

use crate::oracle;
use crate::server::{dir_bytes, Server};
use crate::stats::{due_latency, millis};
use crate::workload::{Churn, ClaimIds, Corpus, FRAME_CLAIMS, TOPK_K};
use copydet_model::SourceId;
use copydet_serve::frontend::{Client, WireDetection, WireTopK};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Operations attempted and the ones that failed (I/O errors, ERR frames,
/// refused connections and failed output checks alike), with a line of
/// text per failure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one wire operation; an error becomes a failure and `None`.
    pub fn wire<T>(&mut self, what: &str, result: std::io::Result<T>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.failures.push(format!("{what}: {e}"))).ok()
    }

    /// Counts one output check.
    pub fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        self.failures.extend(failures);
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// One wire call as the harness saw it: `(name, start, end, request)`.
pub type WireSpan = (&'static str, Instant, Instant, u32);

/// Times one wire call and, when `record` is set, keeps it as a span.
fn call<T>(
    spans: &mut Vec<WireSpan>,
    record: bool,
    name: &'static str,
    request: u32,
    f: impl FnOnce() -> T,
) -> (T, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if record {
        spans.push((name, start, end, request));
    }
    (out, start, end)
}

/// A DETECT answer and how many claims the single writer had had
/// acknowledged when it was asked (what the baseline is built over).
pub struct Answer {
    pub acked: usize,
    pub round: WireDetection,
}

/// What a measured wire phase produced, whichever loop ran it.
#[derive(Default)]
pub struct Phase {
    /// Latency per INGEST frame; in the open loop, from the frame's due time.
    pub ingest_ms: Vec<f64>,
    pub detect_ms: Vec<f64>,
    pub topk_ms: Vec<f64>,
    /// Latency of the loop's unit (an iteration; a frame when streaming),
    /// split by whether it recorded spans (`[off, on]`): the two medians
    /// give the tracing overhead.
    pub unit_ms: [Vec<f64>; 2],
    /// Open loop only: how late each frame was sent.
    pub late_ms: Vec<f64>,
    pub wall: Duration,
    pub acked: u64,
    /// The first DETECT answer — taken before churn has worn the planted
    /// copiers away — and, from the single-connection loop, the last.
    pub first: Option<Answer>,
    pub last: Option<Answer>,
    /// Σ candidates, evaluated, pruned over the top-k answers.
    pub topk_counts: [u64; 3],
    pub spans: Vec<WireSpan>,
}

impl Phase {
    fn tally(&mut self, topk: &WireTopK) {
        for (sum, n) in
            self.topk_counts.iter_mut().zip([topk.candidates, topk.evaluated, topk.pruned])
        {
            *sum += n;
        }
    }
}

/// Sends one frame; `true` once the server acknowledged all of it.
fn ingest_frame(client: &mut Client, corpus: &Corpus, frame: &[ClaimIds], ops: &mut Ops) -> bool {
    let names = corpus.frame_names(frame);
    match ops.wire("INGEST", client.ingest(&names)) {
        Some(n) if n as usize == frame.len() => true,
        Some(n) => {
            ops.failures.push(format!("INGEST: {n} of {} claims accepted", frame.len()));
            false
        }
        None => false,
    }
}

fn topk_query(
    client: &mut Client,
    corpus: &Corpus,
    target: SourceId,
    ops: &mut Ops,
) -> Option<WireTopK> {
    let name = corpus.synth.dataset.source_name(target);
    ops.wire("DETECT_TOPK", client.detect_topk(Some(name), TOPK_K))
}

/// One connection, closed loop: churn frame, full round, top-k query,
/// `iterations` times. Every top-k answer is checked against the round of
/// its iteration (no write lies between them). With `trace`, odd iterations
/// record a span per wire call.
#[allow(clippy::too_many_arguments)]
pub fn rounds(
    client: &mut Client,
    corpus: &Corpus,
    churn: &mut Churn,
    targets: &[SourceId],
    sent: &mut Vec<ClaimIds>,
    ops: &mut Ops,
    iterations: usize,
    trace: bool,
) -> Phase {
    let mut out = Phase::default();
    let start = Instant::now();
    for i in 0..iterations {
        let record = trace && i % 2 == 1;
        let request = i as u32;
        let frame = churn.frame(corpus);
        let (ok, t0, t1) = call(&mut out.spans, record, "wire.ingest", request, || {
            ingest_frame(client, corpus, &frame, ops)
        });
        if !ok {
            break;
        }
        sent.extend_from_slice(&frame);
        out.acked += frame.len() as u64;
        let (round, _, t2) = call(&mut out.spans, record, "wire.detect", request, || {
            ops.wire("DETECT", client.detect())
        });
        let Some(round) = round else { break };
        let target = targets[i % targets.len()];
        let (topk, _, t3) = call(&mut out.spans, record, "wire.topk", request, || {
            topk_query(client, corpus, target, ops)
        });
        let Some(topk) = topk else { break };
        out.ingest_ms.push(millis(t1 - t0));
        out.detect_ms.push(millis(t2 - t1));
        out.topk_ms.push(millis(t3 - t2));
        out.unit_ms[usize::from(record)].push(millis(t3 - t0));
        out.tally(&topk);
        ops.check(oracle::check_topk_consistent(
            &format!("iteration {i} top-k"),
            &topk,
            &round,
            corpus.synth.dataset.source_name(target),
            TOPK_K,
        ));
        if out.first.is_none() {
            out.first = Some(Answer { acked: sent.len(), round: round.clone() });
        }
        out.last = Some(Answer { acked: sent.len(), round });
    }
    out.wall = start.elapsed();
    out
}

/// `connections` closed-loop writers stream the corpus into the fleet in
/// 256-claim frames, connection `w` taking frames `w, w + n, …`.
pub fn stream(
    server: &Server,
    corpus: &Corpus,
    connections: usize,
    ops: &mut Ops,
    trace: bool,
) -> Phase {
    let frames: Vec<&[ClaimIds]> = corpus.stream.chunks(FRAME_CLAIMS).collect();
    let start = Instant::now();
    let parts: Vec<(Phase, Ops)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|w| {
                let frames = &frames;
                scope.spawn(move || {
                    let mut out = Phase::default();
                    let mut ops = Ops::default();
                    let Some(mut client) =
                        ops.wire("connect", server.connect().map_err(std::io::Error::other))
                    else {
                        return (out, ops);
                    };
                    for (i, frame) in frames.iter().enumerate().skip(w).step_by(connections) {
                        let record = trace && (i / connections) % 2 == 1;
                        let (ok, t0, t1) =
                            call(&mut out.spans, record, "wire.ingest", i as u32, || {
                                ingest_frame(&mut client, corpus, frame, &mut ops)
                            });
                        if !ok {
                            break;
                        }
                        out.acked += frame.len() as u64;
                        out.ingest_ms.push(millis(t1 - t0));
                        out.unit_ms[usize::from(record)].push(millis(t1 - t0));
                    }
                    (out, ops)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("stream writer panicked")).collect()
    });
    let mut out = Phase { wall: start.elapsed(), ..Default::default() };
    for (part, part_ops) in parts {
        out.ingest_ms.extend(part.ingest_ms);
        for (all, some) in out.unit_ms.iter_mut().zip(part.unit_ms) {
            all.extend(some);
        }
        out.acked += part.acked;
        out.spans.extend(part.spans);
        ops.merge(part_ops);
    }
    out
}

/// A frame sent this long after it was due was not sent "on schedule" in
/// any useful sense; if the run *ends* that far behind, the rate was not
/// sustained and every such frame counts as failed.
pub const BACKLOG_LIMIT_MS: f64 = 1000.0;

/// Connection A writes churn frames open-loop at `rate` claims/s for
/// `seconds`; connection B loops `[DETECT → DETECT_TOPK]` closed-loop until
/// the writer is done. The blocking client means a stalled reply delays the
/// next send, so writer latency counts from each frame's due time and the
/// lateness of every send is reported.
#[allow(clippy::too_many_arguments)]
pub fn mixed(
    server: &Server,
    corpus: &Corpus,
    churn: &mut Churn,
    targets: &[SourceId],
    sent: &mut Vec<ClaimIds>,
    ops: &mut Ops,
    seconds: f64,
    rate: f64,
    trace: bool,
) -> Phase {
    let interval = Duration::from_secs_f64(FRAME_CLAIMS as f64 / rate);
    let count = (seconds / interval.as_secs_f64()).ceil() as u32;
    let frames: Vec<Vec<ClaimIds>> = (0..count).map(|_| churn.frame(corpus)).collect();
    let writer_done = AtomicBool::new(false);
    let start = Instant::now();
    let ((writes, writer_ops), (reads, reader_ops)) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut ops = Ops::default();
            let mut out = Phase::default();
            let connected = ops.wire("connect", server.connect().map_err(std::io::Error::other));
            if let Some(mut client) = connected {
                for (i, frame) in frames.iter().enumerate() {
                    let due = start + interval * i as u32;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    let record = trace && i % 2 == 1;
                    let (ok, send, done) =
                        call(&mut out.spans, record, "wire.ingest", i as u32, || {
                            ingest_frame(&mut client, corpus, frame, &mut ops)
                        });
                    if !ok {
                        break;
                    }
                    sent.extend_from_slice(frame);
                    out.acked += frame.len() as u64;
                    out.late_ms.push(millis(send.saturating_duration_since(due)));
                    out.ingest_ms.push(millis(due_latency(due, done)));
                }
            }
            writer_done.store(true, Ordering::SeqCst);
            (out, ops)
        });
        let reader = scope.spawn(|| {
            let mut ops = Ops::default();
            let mut reads = Phase::default();
            let connected = ops.wire("connect", server.connect().map_err(std::io::Error::other));
            if let Some(mut client) = connected {
                let mut i = 0usize;
                while !writer_done.load(Ordering::SeqCst) {
                    let record = trace && i % 2 == 1;
                    let request = i as u32;
                    let (round, t0, t1) =
                        call(&mut reads.spans, record, "wire.detect", request, || {
                            ops.wire("DETECT", client.detect())
                        });
                    let Some(round) = round else { break };
                    let target = targets[i % targets.len()];
                    let (topk, _, t2) =
                        call(&mut reads.spans, record, "wire.topk", request, || {
                            topk_query(&mut client, corpus, target, &mut ops)
                        });
                    let Some(topk) = topk else { break };
                    reads.detect_ms.push(millis(t1 - t0));
                    reads.topk_ms.push(millis(t2 - t1));
                    reads.unit_ms[usize::from(record)].push(millis(t2 - t0));
                    reads.tally(&topk);
                    // Writes land between the round and the query, so only
                    // the answer's own shape can be checked here.
                    let unrelated = WireDetection { pairs_considered: 0, copying: Vec::new() };
                    ops.check(oracle::check_topk_consistent(
                        &format!("reader iteration {i} top-k"),
                        &topk,
                        &unrelated,
                        corpus.synth.dataset.source_name(target),
                        TOPK_K,
                    ));
                    // Another connection writes: the reader cannot say how far.
                    reads.first.get_or_insert(Answer { acked: 0, round });
                    i += 1;
                }
            }
            (reads, ops)
        });
        (writer.join().expect("writer panicked"), reader.join().expect("reader panicked"))
    });
    // The writer's frames and the reader's rounds and queries make one phase.
    let mut out = Phase {
        ingest_ms: writes.ingest_ms,
        late_ms: writes.late_ms,
        acked: writes.acked,
        wall: start.elapsed(),
        ..reads
    };
    out.spans.extend(writes.spans);
    ops.merge(writer_ops);
    ops.merge(reader_ops);
    if out.late_ms.last().is_some_and(|&backlog| backlog > BACKLOG_LIMIT_MS) {
        let late = out.late_ms.iter().filter(|&&l| l > BACKLOG_LIMIT_MS).count();
        ops.failures.extend((0..late).map(|_| "INGEST: sent over a second late".to_owned()));
    }
    out
}

/// The quiescent read-back: one round (returned as the phase's `first`),
/// then a top-k query per target, each checked against the round.
pub fn read_back(
    client: &mut Client,
    corpus: &Corpus,
    targets: &[SourceId],
    ops: &mut Ops,
) -> Option<Phase> {
    let mut out = Phase::default();
    let start = Instant::now();
    let round = ops.wire("DETECT", client.detect())?;
    out.detect_ms.push(millis(start.elapsed()));
    for &target in targets {
        let start = Instant::now();
        let topk = topk_query(client, corpus, target, ops)?;
        out.topk_ms.push(millis(start.elapsed()));
        out.tally(&topk);
        ops.check(oracle::check_topk_consistent(
            "read-back top-k",
            &topk,
            &round,
            corpus.synth.dataset.source_name(target),
            TOPK_K,
        ));
    }
    out.first = Some(Answer { acked: 0, round });
    Some(out)
}

/// What the restart cycles measured.
#[derive(Default)]
pub struct RestartOutcome {
    pub recover_s: Vec<f64>,
    /// Bytes in the fleet directory after the first graceful shutdown.
    pub stored_bytes: u64,
    /// The first child's peak resident set, read before it was stopped.
    pub peak_rss_mb: f64,
}

/// `cycles` times: graceful SHUTDOWN of the child, a new child on the same
/// directory, until its first STATS answers — which must report
/// `expected_live` live claims. Returns the last child.
pub fn restart(
    mut server: Server,
    expected_live: u64,
    cycles: usize,
    ops: &mut Ops,
) -> Result<(Server, RestartOutcome), String> {
    let mut out = RestartOutcome {
        recover_s: Vec::new(),
        stored_bytes: 0,
        peak_rss_mb: server.peak_rss_mb()?,
    };
    for cycle in 0..cycles {
        let dir = server.dir.clone();
        let down = server.shutdown()?;
        if cycle == 0 {
            out.stored_bytes = dir_bytes(&dir).map_err(|e| format!("measure {dir:?}: {e}"))?;
        }
        let start = Instant::now();
        server = Server::spawn(&dir)?;
        let stats = server.connect().and_then(|mut c| c.stats().map_err(|e| e.to_string()));
        let up = start.elapsed();
        if let Some(stats) = ops.wire("STATS", stats.map_err(std::io::Error::other)) {
            let live: u64 = stats.shards.iter().map(|s| s.live_claims).sum();
            ops.check(if live == expected_live {
                Vec::new()
            } else {
                vec![format!("restart {cycle}: {live} live claims, {expected_live} acknowledged")]
            });
        }
        out.recover_s.push((down + up).as_secs_f64());
    }
    Ok((server, out))
}
