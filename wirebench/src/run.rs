//! One run of one workload: set-up, the measured wire phase, the restart
//! cycles and the output checks — and, for a traced run, the in-process
//! layer measurements on top.

use crate::layers;
use crate::load::{self, Answer, Ops, Phase, RestartOutcome};
use crate::oracle;
use crate::report::{Metrics, RunResult, WorkloadDef, WORKLOADS};
use crate::server::Server;
use crate::stats::Sample;
use crate::trace::Tracer;
use crate::workload::{Churn, ClaimIds, Corpus, Shape, FRAME_CLAIMS};
use copydet_model::SourceId;
use copydet_serve::frontend::{Client, WireDetection};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `full` is what `BENCHMARK.json` runs; `smoke` is the same code on tiny
/// corpora, for the debug-mode test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One closed-loop connection: churn frame, DETECT, DETECT_TOPK.
    Rounds,
    /// `nproc` closed-loop writers into an empty fleet, read-back after.
    Stream,
    /// Open-loop writer beside a closed-loop reader.
    Mixed,
}

/// Claims per second of `--seconds` that `ingest_durable` streams: a fixed
/// amount of work (so that a faster server finishes sooner instead of
/// growing a larger fleet, which would charge it more memory and a longer
/// recovery), sized so the stream takes about `--seconds` on the reference
/// host.
const STREAM_CLAIMS_PER_SECOND: f64 = 85_000.0;

/// Claims `stock_2wk(1.0)` generates, give or take a few percent by seed.
const STOCK_2WK_CLAIMS: f64 = 6_190_000.0;

/// How much more than the claims it keeps a plan asks the preset for, so
/// that every seed's corpus can be cut to the same size.
const OVERSIZE: f64 = 1.12;

/// The open-loop writer's rate: 10–15% of what the fleet ingests closed-loop.
pub const MIXED_RATE_CLAIMS_PER_S: f64 = 20_000.0;

/// Everything a run's sizes depend on.
pub struct Plan {
    pub def: &'static WorkloadDef,
    pub kind: Kind,
    pub shape: Shape,
    /// Claims of the corpus (the preset generates a few more, see
    /// [`Corpus::generate`]).
    pub claims: usize,
    pub seconds: f64,
    pub setups: usize,
    pub restarts: usize,
    /// Iterations of a closed `[INGEST → DETECT → DETECT_TOPK]` loop.
    ///
    /// A count, not a duration: what a fleet stores, how long it takes to
    /// recover and how much memory it holds all depend on how many churn
    /// frames it has taken — each shard seals every 4,096 claims and merges
    /// its segments at the fifth seal — so a loop that ran "for 12 seconds"
    /// would leave a faster server in a different state. The counts below
    /// take about `--seconds` on the reference host and leave every shard
    /// in the middle of a segment (6.5 seals' worth of claims on the dense
    /// corpus, 4.5 on the Zipf one), where a few claims more or less on one
    /// shard do not move a seal across the end of the run.
    pub iterations: usize,
}

/// `--seconds` the iteration counts were sized for.
const REFERENCE_SECONDS: f64 = 12.0;

impl Plan {
    pub fn new(workload: &str, seconds: f64, scale: Scale) -> Result<Self, String> {
        let def = WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let full = scale == Scale::Full;
        // (kind, preset, claims kept, iterations at the reference seconds)
        let dense = if full { (Shape::Dense(0.115), 64_000) } else { (Shape::Dense(0.02), 10_000) };
        let zipf = if full { (Shape::Zipf(2.0), 24_000) } else { (Shape::Zipf(0.1), 1_000) };
        let (kind, (shape, claims), iterations) = match def.name {
            "dense_rounds" => (Kind::Rounds, dense, 168.0),
            "zipf_rounds" => (Kind::Rounds, zipf, 194.0),
            "mixed_serve" => (Kind::Mixed, dense, 0.0),
            _ => {
                let claims = seconds * if full { STREAM_CLAIMS_PER_SECOND } else { 8_000.0 };
                let shape = Shape::DenseLong(claims * OVERSIZE / STOCK_2WK_CLAIMS);
                (Kind::Stream, (shape, claims as usize), 0.0)
            }
        };
        Ok(Self {
            def,
            kind,
            shape,
            claims,
            seconds,
            setups: if full { 5 } else { 1 },
            // A small fleet restarts in tens of milliseconds, where process
            // start-up jitter is a large share: more cycles, a steadier reading.
            restarts: match (full, kind) {
                (false, _) => 1,
                (true, Kind::Stream) => 5,
                (true, _) => 15,
            },
            // At least three: the checks want a first and a last round.
            iterations: ((iterations * seconds / REFERENCE_SECONDS).round() as usize).max(3),
        })
    }
}

/// Writer connections of the streaming workload: one per core, as the
/// issue's "at most nproc connections".
pub fn stream_connections() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A fleet ready to be measured.
pub struct Fleet {
    pub corpus: Corpus,
    pub server: Server,
    pub client: Client,
    pub churn: Churn,
    pub targets: Vec<SourceId>,
    /// Every acknowledged claim of the single writer, in order.
    pub sent: Vec<ClaimIds>,
    pub generate_s: f64,
}

/// Set-up: corpus generation, child start, preload over the wire and one
/// warm-up iteration (the first DETECT assembles every shard's first
/// snapshot in full; later ones patch it). The streaming workload starts
/// from an empty fleet, so its set-up stops after the child answers STATS.
pub fn setup(plan: &Plan, seed: u64, dir: &Path, ops: &mut Ops) -> Result<Fleet, String> {
    let start = Instant::now();
    let corpus = Corpus::generate(plan.shape, seed, plan.claims);
    let generate_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let server = Server::spawn(dir)?;
    let mut client = server.connect()?;
    let mut churn = Churn::new(seed);
    let targets = corpus.topk_targets(seed);
    let mut sent = Vec::new();
    if plan.kind == Kind::Stream {
        ops.wire("STATS", client.stats());
    } else {
        for frame in corpus.stream.chunks(8 * FRAME_CLAIMS) {
            let names = corpus.frame_names(frame);
            ops.wire("INGEST", client.ingest(&names)).ok_or("preload failed")?;
            sent.extend_from_slice(frame);
        }
        load::rounds(&mut client, &corpus, &mut churn, &targets, &mut sent, ops, 1, false);
    }
    Ok(Fleet { corpus, server, client, churn, targets, sent, generate_s })
}

/// Stops the child and removes its directory.
fn teardown(server: Server) -> Result<(), String> {
    let dir = server.dir.clone();
    server.shutdown()?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))
}

/// The child's METRICS text.
fn metrics_of(server: &Server) -> std::io::Result<String> {
    server.connect().map_err(std::io::Error::other)?.metrics()
}

/// What one workload measured on the wire, before and across its restarts.
#[derive(Default)]
pub struct Measured {
    pub wire: Phase,
    pub restart: RestartOutcome,
    pub user_bytes: u64,
    /// The first child's METRICS exposition, fetched on a traced run once
    /// the timed phase is over (a restarted child's counters start at 0).
    pub exposition: Option<String>,
}

/// What the recovered fleet's first DETECT is held to.
enum AfterRestart {
    /// One writer: the answer the fleet gave before, bit for bit (`None`
    /// when the wire phase broke off before it gave one).
    Same(Option<WireDetection>),
    /// Two writers permute arrival order, hence ids, hence the order sums
    /// fold in: the baseline by name, posteriors to a tolerance.
    ByName(WireDetection),
}

/// The measured phase, the restart cycles and every output check of one
/// workload. Consumes the fleet's server; returns the last child.
pub fn measure(
    plan: &Plan,
    fleet: Fleet,
    ops: &mut Ops,
    tracer: Option<&mut Tracer>,
) -> Result<(Measured, Corpus, Server), String> {
    let Fleet { corpus, server, mut client, mut churn, targets, mut sent, .. } = fleet;
    let trace = tracer.is_some();
    let mut live = corpus.stream.len() as u64;
    let (mut wire, after) = match plan.kind {
        Kind::Rounds => {
            let mut out = load::rounds(
                &mut client,
                &corpus,
                &mut churn,
                &targets,
                &mut sent,
                ops,
                plan.iterations,
                trace,
            );
            // First and last round against the single-store baseline over
            // exactly the claims acknowledged before each.
            for (which, answer) in [("first", &out.first), ("last", &out.last)] {
                if let Some(Answer { acked, round }) = answer {
                    let want = oracle::reference(&corpus, sent[..*acked].iter().copied());
                    let what = format!("{which} DETECT");
                    ops.check(oracle::check_detect_exact(&what, round, &want.detection));
                    live = want.live_claims;
                }
            }
            let last = out.last.take().map(|answer| answer.round);
            (out, AfterRestart::Same(last))
        }
        Kind::Mixed => {
            let out = load::mixed(
                &server,
                &corpus,
                &mut churn,
                &targets,
                &mut sent,
                ops,
                plan.seconds,
                MIXED_RATE_CLAIMS_PER_S,
                trace,
            );
            // The writer is the only writer, so once it stops the fleet
            // state is a pure function of the stream: the quiescent round
            // must equal the baseline bit for bit.
            let settled = load::read_back(&mut client, &corpus, &targets, ops)
                .and_then(|back| back.first)
                .map(|answer| answer.round);
            if let Some(round) = &settled {
                let want = oracle::reference(&corpus, sent.iter().copied());
                ops.check(oracle::check_detect_exact("final DETECT", round, &want.detection));
                live = want.live_claims;
            }
            (out, AfterRestart::Same(settled))
        }
        Kind::Stream => {
            let out = load::stream(&server, &corpus, stream_connections(), ops, trace);
            sent.extend_from_slice(&corpus.stream);
            let want = oracle::reference(&corpus, corpus.stream.iter().copied());
            live = want.live_claims;
            if let Some(stats) = ops.wire("STATS", client.stats()) {
                let got: u64 = stats.shards.iter().map(|s| s.live_claims).sum();
                ops.check(if got == live {
                    Vec::new()
                } else {
                    vec![format!("before restart: {got} live claims, {live} acknowledged")]
                });
            }
            (out, AfterRestart::ByName(want.detection))
        }
    };
    drop(client);
    let exposition = trace.then(|| ops.wire("METRICS", metrics_of(&server))).flatten();
    let (server, restart) = load::restart(server, live, plan.restarts, ops)?;

    let mut client = server.connect()?;
    match after {
        // Restart == byte-identical.
        AfterRestart::Same(before) => {
            if let (Some(before), Some(again)) = (before, ops.wire("DETECT", client.detect())) {
                ops.check(oracle::check_detect_exact("post-restart DETECT", &again, &before));
            }
        }
        // The streaming workload's reads: a read-back on the recovered
        // fleet, whose first round pays for every shard's first full
        // snapshot, then four more rounds that do not.
        AfterRestart::ByName(want) => {
            if let Some(back) = load::read_back(&mut client, &corpus, &targets, ops) {
                if let Some(Answer { round, .. }) = &back.first {
                    ops.check(oracle::check_detect_by_name("post-restart DETECT", round, &want));
                }
                wire.detect_ms = back.detect_ms;
                wire.topk_ms = back.topk_ms;
                wire.topk_counts = back.topk_counts;
                wire.first = back.first;
                for _ in 0..4 {
                    let start = Instant::now();
                    if ops.wire("DETECT", client.detect()).is_some() {
                        wire.detect_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
        }
    }
    if let Some(tracer) = tracer {
        for (name, start, end, request) in std::mem::take(&mut wire.spans) {
            tracer.record(name, (start, end), None, request);
        }
    }
    let measured = Measured { user_bytes: corpus.user_bytes(&sent), wire, restart, exposition };
    Ok((measured, corpus, server))
}

/// Fills `metrics` with the end-to-end metrics. Timings are 10th
/// percentiles (see [`crate::report::END_TO_END`]); the set-up time, which
/// has five samples, is their median.
fn end_to_end(metrics: &mut Metrics, setup_s: &[f64], m: &Measured) {
    let setup = Sample::new(setup_s.to_vec());
    metrics.set("setup_s", setup.median(), setup.len());
    metrics.set(
        "ingest_claims_per_s",
        m.wire.acked as f64 / m.wire.wall.as_secs_f64(),
        m.wire.ingest_ms.len(),
    );
    for (name, values) in
        [("detect_p10_ms", &m.wire.detect_ms), ("recover_s", &m.restart.recover_s)]
    {
        let sample = Sample::new(values.clone());
        metrics.set(name, sample.percentile(10.0), sample.len());
    }
    metrics.set(
        "stored_bytes_per_user_byte",
        m.restart.stored_bytes as f64 / m.user_bytes.max(1) as f64,
        1,
    );
    metrics.set("peak_rss_mb", m.restart.peak_rss_mb, 1);
}

/// Where a run keeps its fleets.
pub struct Workdir(pub PathBuf);

impl Workdir {
    pub fn fleet(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One end-to-end run (`--trace 0`): set-up `plan.setups` times (the last
/// fleet is the one measured), measure, restart, check.
pub fn run_end_to_end(plan: &Plan, seed: u64, workdir: &Workdir) -> Result<RunResult, String> {
    let mut ops = Ops::default();
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..plan.setups {
        if let Some(Fleet { server, .. }) = fleet.take() {
            teardown(server)?;
        }
        let start = Instant::now();
        fleet = Some(setup(plan, seed, &workdir.fleet("fleet"), &mut ops)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let fleet = fleet.ok_or("a run sets up at least once")?;
    let (measured, _, server) = measure(plan, fleet, &mut ops, None)?;
    teardown(server)?;
    let mut metrics = Metrics::default();
    end_to_end(&mut metrics, &setup_s, &measured);
    Ok(result(plan, false, ops, metrics))
}

fn result(plan: &Plan, traced: bool, ops: Ops, metrics: Metrics) -> RunResult {
    RunResult {
        workload: plan.def.name,
        traced,
        attempted: ops.attempted,
        failed: ops.failed(),
        failures: ops.failures,
        metrics,
    }
}

/// One traced run (`--trace 1`): a wire phase whose iterations alternate
/// span recording off and on, the server's own counts read after timing
/// stops, then the request path replayed in-process on the same inputs with
/// a span around every call into a layer. Returns the spans too.
pub fn run_traced(
    plan: &Plan,
    seed: u64,
    workdir: &Workdir,
) -> Result<(RunResult, Tracer), String> {
    let mut ops = Ops::default();
    let mut tracer = Tracer::default();
    let mut metrics = Metrics::default();
    let fleet = setup(plan, seed, &workdir.fleet("fleet"), &mut ops)?;
    metrics.set("synth.generate_s", fleet.generate_s, 1);
    let (measured, corpus, server) = measure(plan, fleet, &mut ops, Some(&mut tracer))?;
    teardown(server)?;
    // Counts only, read after the timed phase stopped.
    layers::server_counts(&mut metrics, measured.exposition.as_deref().unwrap_or(""));
    layers::wire_side(&mut metrics, &corpus, &measured);
    let replay =
        layers::replay(plan, &corpus, seed, &workdir.fleet("replay"), &mut tracer, &mut metrics)?;
    layers::reconcile(&mut metrics, plan, &measured, &replay, &tracer);
    layers::micro(&mut metrics, &corpus, &workdir.fleet("micro"))?;
    metrics.set(
        "failed_ops_share",
        ops.failed() as f64 / ops.attempted.max(1) as f64,
        ops.attempted as usize,
    );
    Ok((result(plan, true, ops, metrics), tracer))
}
