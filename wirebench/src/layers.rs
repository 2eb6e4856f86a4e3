//! The per-layer metrics of the traced run: the request path replayed
//! in-process with a span around every call into a layer, counts read from
//! the server's METRICS exposition, and direct timings of the public
//! functions no request-path span isolates. Layers carry the repository's
//! module names.

use crate::load::Answer;
use crate::oracle::{self, INITIAL_ACCURACY};
use crate::report::Metrics;
use crate::run::{Kind, Measured, Plan};
use crate::server::{open_fleet, SHARDS, STORE_CONFIG};
use crate::stats::{millis, supported_tail, Sample};
use crate::trace::Tracer;
use crate::workload::{Churn, ClaimIds, Corpus, FRAME_CLAIMS, TOPK_K};
use copydet_bayes::contribution::same_value_scores_both;
use copydet_bayes::{posterior_independence, CopyParams, SourceAccuracies};
use copydet_detect::{
    collect_shard_evidence, merge_shard_rounds_parallel, OwnedRoundInput, ShardRoundEvidence,
};
use copydet_fusion::{value_probabilities, VoteConfig};
use copydet_model::codec::{self, Reader};
use copydet_serve::frontend::REQ_INGEST;
use copydet_serve::{ShardedDetector, ShardedStore};
use copydet_store::ClaimStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Claims of the corpus the in-process fleets load: all of a rounds corpus,
/// a bounded prefix of the streaming one (its per-claim costs are read off
/// the prefix; the traced run must fit the same time cap as the others).
const LOAD_CAP: usize = 300_000;

/// One sample line of the exposition: the value after `name` (labels
/// included in `name`).
fn exposed(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Counts the server keeps itself, read from METRICS after timing stopped.
/// Auto-compaction runs inside a seal, so on the serving configuration the
/// compaction histogram stays empty and seal time includes the merges.
pub fn server_counts(metrics: &mut Metrics, exposition: &str) {
    let shard_lock = "{rank=\"20\",name=\"store.claim_store.shard\"}";
    let contended = exposed(exposition, &format!("copydet_lock_contended{shard_lock}"));
    let acquisitions = exposed(exposition, &format!("copydet_lock_acquisitions{shard_lock}"));
    let wait_nanos = exposed(exposition, &format!("copydet_lock_wait_nanos{shard_lock}"));
    metrics.set("serve.shard.lock_contended", contended, acquisitions as usize);
    metrics.set("serve.shard.lock_wait_ms", wait_nanos / 1e6, acquisitions as usize);
    for (metric, series) in [
        ("store.wal.appends", "copydet_store_wal_append_nanos_count"),
        ("store.wal.fsyncs", "copydet_store_wal_fsync_nanos_count"),
        ("store.seal.count", "copydet_store_seal_nanos_count"),
        ("store.compact.count", "copydet_store_compact_nanos_count"),
    ] {
        metrics.set(metric, exposed(exposition, series), 1);
    }
    for (metric, series, count) in [
        ("store.seal.ms_total", "copydet_store_seal_nanos_sum", "copydet_store_seal_nanos_count"),
        (
            "store.compact.ms_total",
            "copydet_store_compact_nanos_sum",
            "copydet_store_compact_nanos_count",
        ),
    ] {
        metrics.set(metric, exposed(exposition, series) / 1e6, exposed(exposition, count) as usize);
    }
}

/// What the wire phase of the traced run shows beyond the end-to-end
/// metrics: the ingest tail, the open loop's validity, answer sizes and
/// quality, and what recording spans cost.
pub fn wire_side(metrics: &mut Metrics, corpus: &Corpus, m: &Measured) {
    // Medians and tails: client-observed like the end-to-end metrics,
    // listed here because they do not hold a bound on a shared host. A tail
    // the sample does not support is still printed, with a note.
    let ingest = Sample::new(m.wire.ingest_ms.clone());
    let detect = Sample::new(m.wire.detect_ms.clone());
    let topk = Sample::new(m.wire.topk_ms.clone());
    metrics.set("ingest_max_ms", ingest.percentile(100.0), ingest.len());
    for (name, sample, p) in [
        ("ingest_p10_ms", &ingest, 10.0),
        ("topk_p10_ms", &topk, 10.0),
        ("ingest_p50_ms", &ingest, 50.0),
        ("ingest_p90_ms", &ingest, 90.0),
        ("ingest_p99_ms", &ingest, 99.0),
        ("detect_p50_ms", &detect, 50.0),
        ("detect_p90_ms", &detect, 90.0),
        ("topk_p50_ms", &topk, 50.0),
        ("topk_p90_ms", &topk, 90.0),
    ] {
        metrics.set(name, sample.percentile(p), sample.len());
        if p > 50.0 && supported_tail(sample.len()).is_none_or(|supported| supported < p) {
            eprintln!("note: {name} rests on {} samples, too few for a p{p}", sample.len());
        }
    }
    let late = Sample::new(m.wire.late_ms.clone());
    metrics.set("bench.late_send_p99_ms", late.percentile(99.0), late.len());
    metrics.set("bench.backlog_end_ms", m.wire.late_ms.last().copied().unwrap_or(0.0), late.len());
    let [candidates, evaluated, pruned] = m.wire.topk_counts;
    let queries = m.wire.topk_ms.len();
    metrics.set("detect.topk.candidates", candidates as f64 / queries.max(1) as f64, queries);
    metrics.set("detect.topk.evaluated", evaluated as f64 / queries.max(1) as f64, queries);
    metrics.set("detect.topk.pruned_share", pruned as f64 / candidates.max(1) as f64, queries);
    let (recall, precision, bytes) =
        m.wire.first.as_ref().map_or((0.0, 0.0, 0), |Answer { round, .. }| {
            let (recall, precision) = oracle::gold_quality(corpus, round);
            // DETECT payload: u64 considered, u32 count, then per pair two
            // length-prefixed names and the posterior bits; frame: kind, len, crc.
            let pairs: usize =
                round.copying.iter().map(|p| 4 + p.first.len() + 4 + p.second.len() + 8).sum();
            (recall, precision, 8 + 4 + pairs + 9)
        });
    metrics.set("detect.gold_recall", recall, 1);
    metrics.set("detect.gold_precision", precision, 1);
    metrics.set("serve.frontend.detect_response_bytes", bytes as f64, 1);
    let [off, on] =
        [Sample::new(m.wire.unit_ms[0].clone()), Sample::new(m.wire.unit_ms[1].clone())];
    let share = if off.is_empty() || on.is_empty() {
        0.0
    } else {
        (on.median() - off.median()) / off.median()
    };
    metrics.set("bench.trace_overhead_share", share, off.len() + on.len());
}

/// What the in-process replay measured outside its spans.
pub struct Replay {
    /// Median in-process `detect_round` on the replay fleet, ms.
    pub round_ms: f64,
}

fn ingest_payload(corpus: &Corpus, frame: &[ClaimIds]) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_u32(&mut payload, frame.len() as u32);
    for &claim in frame {
        let (s, d, v) = corpus.names(claim);
        for part in [s, d, v] {
            codec::put_str(&mut payload, part).expect("names are short");
        }
    }
    payload
}

/// One INGEST request replayed: encode → decode → `ingest_batch`, the three
/// calls `Client::ingest` and `handle_ingest` make around the socket.
/// Returns the frame's bytes on the wire.
fn replay_ingest(
    tracer: &mut Tracer,
    request: u32,
    corpus: &Corpus,
    store: &ShardedStore,
    frame: &[ClaimIds],
) -> usize {
    let root = tracer.begin("replay.ingest", None, request);
    let bytes = tracer.time("model.codec.encode", Some(root), request, || {
        codec::encode_wire_frame(REQ_INGEST, &ingest_payload(corpus, frame)).expect("small frame")
    });
    let claims = tracer.time("model.codec.decode", Some(root), request, || {
        let (_, payload) = codec::decode_wire_frame(&bytes).expect("a frame just encoded");
        let mut reader = Reader::new(payload);
        let n = reader.u32().expect("count");
        let mut field = || reader.string().expect("field");
        (0..n).map(|_| (field(), field(), field())).collect::<Vec<_>>()
    });
    tracer.time("serve.shard.ingest_batch", Some(root), request, || {
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())))
    });
    tracer.end(root);
    bytes.len()
}

type Captures =
    Vec<(copydet_store::StoreSnapshot, std::sync::Arc<copydet_index::SharedItemCounts>)>;

/// The fan-out of a round: per shard, in a scoped thread, the vote
/// bootstrap then the evidence scan. Each shard hands back its evidence and
/// the instants its vote started, its scan started and its scan ended.
fn scan_shards(
    captures: &Captures,
    maps: &[copydet_serve::ShardMaps],
    params: CopyParams,
) -> Vec<(ShardRoundEvidence, Instant, Instant, Instant)> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = captures
            .iter()
            .zip(maps)
            .map(|((snapshot, counts), map)| {
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let accuracies =
                        SourceAccuracies::uniform(snapshot.dataset.num_sources(), INITIAL_ACCURACY)
                            .expect("0.8 is a probability");
                    let probabilities = value_probabilities(
                        &snapshot.dataset,
                        &accuracies,
                        None,
                        &VoteConfig::new(params),
                    );
                    let t1 = Instant::now();
                    let input = OwnedRoundInput {
                        dataset: snapshot.dataset.clone(),
                        accuracies,
                        probabilities,
                        params,
                        delta: None,
                    };
                    let evidence =
                        collect_shard_evidence(&input.as_round_input(), counts, &map.ids)
                            .expect("captured under one lock");
                    (evidence, t0, t1, Instant::now())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("scan panicked")).collect()
    })
}

/// One DETECT request replayed, mirroring `ShardedDetector::detect_traced`
/// and `handle_detect` with public functions only.
fn replay_detect(tracer: &mut Tracer, request: u32, store: &ShardedStore, workers: usize) {
    let params = CopyParams::paper_defaults();
    let root = tracer.begin("replay.detect", None, request);
    let captures =
        tracer.time("serve.shard.capture", Some(root), request, || store.capture_shards());
    let maps = tracer.time("serve.shard.maps", Some(root), request, || {
        captures.iter().map(|(snapshot, _)| store.maps_for(snapshot)).collect::<Vec<_>>()
    });
    let fanout = tracer.begin("serve.detector.fanout", Some(root), request);
    let scans = scan_shards(&captures, &maps, params);
    tracer.end(fanout);
    let mut evidence = Vec::with_capacity(scans.len());
    for (shard_evidence, t0, t1, t2) in scans {
        tracer.record("fusion.vote", (t0, t1), Some(fanout), request);
        tracer.record("detect.scan", (t1, t2), Some(fanout), request);
        evidence.push(shard_evidence);
    }
    let accuracies = SourceAccuracies::uniform(store.num_sources(), INITIAL_ACCURACY)
        .expect("0.8 is a probability");
    let (result, _, _) = tracer.time("detect.merge", Some(root), request, || {
        merge_shard_rounds_parallel(evidence, &accuracies, params, workers)
    });
    tracer.time("serve.frontend.encode", Some(root), request, || {
        let names = store.global_source_names();
        let mut copying: Vec<_> =
            result.outcomes.iter().filter(|(_, o)| o.decision.is_copying()).collect();
        copying.sort_by_key(|(pair, _)| **pair);
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, result.pairs_considered as u64);
        codec::put_u32(&mut payload, copying.len() as u32);
        for (pair, outcome) in copying {
            for id in [pair.first(), pair.second()] {
                codec::put_str(&mut payload, &names[id.index()]).expect("names are short");
            }
            codec::put_u64(&mut payload, outcome.posterior.unwrap_or(0.0).to_bits());
        }
        black_box(codec::encode_wire_frame(0x80, &payload).expect("response fits a frame"));
    });
    tracer.end(root);
}

fn batch<'a>(
    corpus: &'a Corpus,
    frame: &'a [ClaimIds],
) -> impl Iterator<Item = (&'a str, &'a str, &'a str)> {
    frame.iter().map(|&c| corpus.names(c))
}

/// Loads the corpus (at most [`LOAD_CAP`] claims of it) into an in-memory
/// fleet and into a durable one opened as the child opens its own, frame by
/// frame through `ShardedStore::ingest_batch`; the difference between the
/// two per-claim costs is the WAL and the REGISTRY log. On the streaming
/// workload these frames are its requests, so the durable load is replayed
/// with spans. Returns the durable fleet.
fn load_fleets(
    plan: &Plan,
    corpus: &Corpus,
    dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    wire_bytes: &mut Vec<usize>,
) -> Result<ShardedStore, String> {
    let prefix = &corpus.stream[..corpus.stream.len().min(LOAD_CAP)];
    let per_claim = |nanos: u128| nanos as f64 / prefix.len() as f64;

    let memory = ShardedStore::with_config(SHARDS, STORE_CONFIG);
    let start = Instant::now();
    for frame in prefix.chunks(FRAME_CLAIMS) {
        memory.ingest_batch(batch(corpus, frame));
    }
    let memory_nanos = start.elapsed().as_nanos();
    drop(memory);

    let _ = std::fs::remove_dir_all(dir);
    let store = open_fleet(dir)?;
    let mut durable_nanos = 0u128;
    for frame in prefix.chunks(FRAME_CLAIMS) {
        if plan.kind == Kind::Stream {
            let request = wire_bytes.len() as u32;
            wire_bytes.push(replay_ingest(tracer, request, corpus, &store, frame));
            // The request's last span is its `ingest_batch`.
            durable_nanos += u128::from(tracer.spans.last().expect("a span").duration_ns());
        } else {
            let start = Instant::now();
            store.ingest_batch(batch(corpus, frame));
            durable_nanos += start.elapsed().as_nanos();
        }
    }
    let n = prefix.len();
    metrics.set("serve.shard.ingest_batch_mem_ns_per_claim", per_claim(memory_nanos), n);
    metrics.set("serve.shard.ingest_batch_durable_ns_per_claim", per_claim(durable_nanos), n);
    Ok(store)
}

/// Replayed rounds on the loaded fleet: for a quarter of `--seconds` (4 to
/// 40 times), a churn frame and a round replayed with spans, then a churn
/// frame and the real `detect_round` beside it — the same kind of state,
/// one churn frame since the last snapshot, so that what the frontend adds
/// is the wire's median minus this one. Then the real top-k per target and
/// the snapshot costs. Returns the median `detect_round`, in ms.
fn replay_rounds(
    plan: &Plan,
    corpus: &Corpus,
    seed: u64,
    store: &ShardedStore,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    wire_bytes: &mut Vec<usize>,
) -> Result<f64, String> {
    let mut churn = Churn::new(seed);
    let workers = ShardedDetector::new().merge_parallelism();
    // Warm-up, as on the wire: the first capture assembles full snapshots.
    ShardedDetector::new().detect_round(store).map_err(|e| e.to_string())?;
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < 4
        || (rounds.len() < 40 && start.elapsed().as_secs_f64() < plan.seconds / 4.0)
    {
        let request = 2 * rounds.len() as u32;
        wire_bytes.push(replay_ingest(tracer, request, corpus, store, &churn.frame(corpus)));
        replay_detect(tracer, request + 1, store, workers);
        store.ingest_batch(batch(corpus, &churn.frame(corpus)));
        let start = Instant::now();
        ShardedDetector::new().detect_round(store).map_err(|e| e.to_string())?;
        rounds.push(millis(start.elapsed()));
    }
    let mut topk = Vec::new();
    for &target in &corpus.topk_targets(seed) {
        let name = corpus.synth.dataset.source_name(target);
        let start = Instant::now();
        ShardedDetector::new()
            .detect_topk(store, name, TOPK_K as usize)
            .map_err(|e| e.to_string())?;
        topk.push(millis(start.elapsed()));
    }
    // Snapshot cost after a churn frame and with nothing new.
    let (mut delta, mut noop) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        store.ingest_batch(batch(corpus, &churn.frame(corpus)));
        for sink in [&mut delta, &mut noop] {
            let start = Instant::now();
            for shard in store.shards() {
                black_box(shard.snapshot());
            }
            sink.push(millis(start.elapsed()));
        }
    }
    let rounds = Sample::new(rounds);
    for (name, values) in [
        ("serve.detector.topk_ms", topk),
        ("store.snapshot.delta_ms", delta),
        ("store.snapshot.noop_ms", noop),
    ] {
        let sample = Sample::new(values);
        metrics.set(name, sample.median(), sample.len());
    }
    metrics.set("serve.detector.round_ms", rounds.median(), rounds.len());
    Ok(rounds.median())
}

/// The in-process half of the traced run: the same inputs (same seed, same
/// stream, same churn sequence) driven through the layers' public functions
/// on a fleet opened exactly as the child opens its own.
pub fn replay(
    plan: &Plan,
    corpus: &Corpus,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<Replay, String> {
    let mut wire_bytes = Vec::new();
    let store = load_fleets(plan, corpus, dir, tracer, metrics, &mut wire_bytes)?;
    let rounds = plan.kind != Kind::Stream;
    let round_ms = if rounds {
        replay_rounds(plan, corpus, seed, &store, tracer, metrics, &mut wire_bytes)?
    } else {
        for name in [
            "serve.detector.round_ms",
            "serve.detector.topk_ms",
            "store.snapshot.delta_ms",
            "store.snapshot.noop_ms",
        ] {
            metrics.set(name, 0.0, 0);
        }
        0.0
    };
    metrics.set(
        "model.codec.frame_bytes_per_claim",
        wire_bytes.iter().sum::<usize>() as f64 / (wire_bytes.len() * FRAME_CLAIMS).max(1) as f64,
        wire_bytes.len(),
    );
    detect_internals(metrics, &store, rounds);

    // Recovery of what was just written, by the call the child makes.
    store.sync().map_err(|e| e.to_string())?;
    let claims = store.num_claims();
    drop(store);
    let start = Instant::now();
    let recovered = open_fleet(dir)?;
    let seconds = start.elapsed().as_secs_f64();
    if recovered.num_claims() != claims {
        return Err(format!("recovered {} of {claims} claims", recovered.num_claims()));
    }
    metrics.set("serve.shard.recover_claims_per_s", claims as f64 / seconds, claims);
    Ok(Replay { round_ms })
}

/// Timings and exact counts of the detect-side functions on the replay
/// fleet's last round: the merge split by phase at one worker (only there
/// is CPU time wall time), the per-observation and per-pair arithmetic over
/// the recorded inputs, and the index over the current snapshots. All zero
/// when the workload replays no round.
fn detect_internals(metrics: &mut Metrics, store: &ShardedStore, rounds: bool) {
    let params = CopyParams::paper_defaults();
    if !rounds {
        for name in [
            "detect.scan_observations",
            "detect.merge.collect_ms",
            "detect.merge.fold_ms",
            "detect.merge.vote_ms",
            "detect.merge.pairs",
            "detect.merge.pruned_pairs",
            "detect.merge.ns_per_observation",
            "bayes.score_ns_per_observation",
            "bayes.posterior_ns_per_pair",
            "index.counts.nonzero_pairs",
            "index.build_ms",
            "index.entries",
        ] {
            metrics.set(name, 0.0, 0);
        }
        return;
    }

    let captures = store.capture_shards();
    let maps: Vec<_> = captures.iter().map(|(snapshot, _)| store.maps_for(snapshot)).collect();
    let evidence: Vec<ShardRoundEvidence> =
        scan_shards(&captures, &maps, params).into_iter().map(|(evidence, ..)| evidence).collect();
    let observations: usize = evidence.iter().map(ShardRoundEvidence::num_observations).sum();
    metrics.set("detect.scan_observations", observations as f64, evidence.len());
    let accuracies = SourceAccuracies::uniform(store.num_sources(), INITIAL_ACCURACY)
        .expect("0.8 is a probability");
    let mut splits = Vec::new();
    let mut result = None;
    for _ in 0..3 {
        let (round, timings, _) =
            merge_shard_rounds_parallel(evidence.clone(), &accuracies, params, 1);
        splits.push(timings);
        result = Some(round);
    }
    let result = result.expect("three merges ran");
    splits.sort_by_key(|t| t.total_nanos());
    let split = splits[1];
    metrics.set("detect.merge.collect_ms", split.collect_nanos as f64 / 1e6, 3);
    metrics.set("detect.merge.fold_ms", split.fold_nanos as f64 / 1e6, 3);
    metrics.set("detect.merge.vote_ms", split.vote_nanos as f64 / 1e6, 3);
    metrics.set("detect.merge.pairs", split.pairs as f64, 1);
    metrics.set("detect.merge.pruned_pairs", split.pruned_pairs as f64, 1);
    metrics.set(
        "detect.merge.ns_per_observation",
        split.total_nanos() as f64 / observations.max(1) as f64,
        observations,
    );

    // The scoring arithmetic alone, over the probabilities the round saw.
    let agreed: Vec<f64> = evidence
        .iter()
        .flat_map(|e| e.pairs.values().flatten())
        .filter_map(|o| o.same_value_probability)
        .take(2_000_000)
        .collect();
    let start = Instant::now();
    let mut sum = 0.0;
    for &p in &agreed {
        let (to, from) = same_value_scores_both(p, INITIAL_ACCURACY, INITIAL_ACCURACY, &params);
        sum += to + from;
    }
    black_box(sum);
    metrics.set(
        "bayes.score_ns_per_observation",
        start.elapsed().as_nanos() as f64 / agreed.len().max(1) as f64,
        agreed.len(),
    );
    let scores: Vec<(f64, f64)> = result.outcomes.values().map(|o| (o.c_to, o.c_from)).collect();
    let start = Instant::now();
    let mut sum = 0.0;
    for &(to, from) in &scores {
        sum += posterior_independence(to, from, &params);
    }
    black_box(sum);
    metrics.set(
        "bayes.posterior_ns_per_pair",
        start.elapsed().as_nanos() as f64 / scores.len().max(1) as f64,
        scores.len(),
    );

    // The index layer over the same state: the incrementally maintained
    // shared-item counts, and an inverted index built from them.
    let (mut nonzero, mut entries, mut build_nanos) = (0usize, 0usize, 0u128);
    for shard in store.shards() {
        let mut guard = shard.lock();
        let snapshot = guard.snapshot();
        nonzero += guard.shared_item_counts().iter_nonzero().count();
        let accuracies =
            SourceAccuracies::uniform(snapshot.dataset.num_sources(), INITIAL_ACCURACY)
                .expect("0.8 is a probability");
        let probabilities =
            value_probabilities(&snapshot.dataset, &accuracies, None, &VoteConfig::new(params));
        let start = Instant::now();
        let index = guard.build_index(&snapshot, &accuracies, &probabilities, &params);
        build_nanos += start.elapsed().as_nanos();
        entries += index.len();
    }
    metrics.set("index.counts.nonzero_pairs", nonzero as f64, SHARDS);
    metrics.set("index.build_ms", build_nanos as f64 / 1e6, SHARDS);
    metrics.set("index.entries", entries as f64, SHARDS);
}

/// Turns the span table into the layer metrics and sets them against the
/// wire: what the frontend adds to a request, how much of the client's
/// latency the replay accounts for, and the detect core's share of a round.
pub fn reconcile(
    metrics: &mut Metrics,
    plan: &Plan,
    measured: &Measured,
    replay: &Replay,
    tracer: &Tracer,
) {
    let table = tracer.layer_medians_ns();
    let layer = |name: &str| table.get(name).copied().unwrap_or((0.0, 0));
    let frame = FRAME_CLAIMS as f64;
    for (metric, span) in [
        ("model.codec.encode_ns_per_claim", "model.codec.encode"),
        ("model.codec.decode_ns_per_claim", "model.codec.decode"),
    ] {
        let (nanos, n) = layer(span);
        metrics.set(metric, nanos / frame, n);
    }
    for (metric, span) in [
        ("serve.shard.capture_ms", "serve.shard.capture"),
        ("serve.shard.maps_ms", "serve.shard.maps"),
        ("serve.detector.fanout_ms", "serve.detector.fanout"),
        ("fusion.vote_ms", "fusion.vote"),
        ("detect.scan_ms", "detect.scan"),
        ("detect.merge_ms", "detect.merge"),
        ("serve.frontend.encode_ms", "serve.frontend.encode"),
    ] {
        let (nanos, n) = layer(span);
        metrics.set(metric, nanos / 1e6, n);
    }

    // A replayed request's stages run one after another inside it, so its
    // duration is its own self time plus theirs: the rows above add up to
    // the request by construction (the fan-out's row being its wall time,
    // of which vote and scan are the slowest shard's share).
    let (ingest_ns, ingest_n) = tracer.median_duration_ns("replay.ingest");
    let (detect_ns, detect_n) = tracer.median_duration_ns("replay.detect");
    let wire_ingest = Sample::new(measured.wire.ingest_ms.clone());
    let wire_detect = Sample::new(measured.wire.detect_ms.clone());
    metrics.set(
        "serve.frontend.ingest_overhead_ns_per_claim",
        (wire_ingest.median() * 1e6 - ingest_ns) / frame,
        wire_ingest.len(),
    );
    let rounds = plan.kind != Kind::Stream;
    metrics.set(
        "serve.frontend.detect_overhead_ms",
        if rounds { wire_detect.median() - replay.round_ms } else { 0.0 },
        wire_detect.len(),
    );
    let (replayed, observed) = if rounds {
        (detect_ns / 1e6, wire_detect.median())
    } else {
        (ingest_ns / 1e6, wire_ingest.median())
    };
    metrics.set(
        "bench.replay_coverage",
        if observed > 0.0 { replayed / observed } else { 0.0 },
        if rounds { detect_n } else { ingest_n },
    );
    let core = layer("fusion.vote").0 + layer("detect.scan").0 + layer("detect.merge").0;
    metrics.set(
        "bench.detect_core_share",
        if detect_ns > 0.0 { core / detect_ns } else { 0.0 },
        detect_n,
    );
}

/// Per-op nanoseconds of `f` over `ops` iterations.
fn per_op_nanos(ops: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..ops {
        f();
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Direct timings no request-path span isolates: the bare claim store with
/// and without a WAL, the single-store PAIRWISE baseline, and the
/// observability primitives the hot paths pay for (ported from
/// `bench_serve_json`'s `obs_overhead` block).
pub fn micro(metrics: &mut Metrics, corpus: &Corpus, dir: &Path) -> Result<(), String> {
    let sample = &corpus.stream[..corpus.stream.len().min(50_000)];
    let mut bare = ClaimStore::new();
    let start = Instant::now();
    for &claim in sample {
        let (s, d, v) = corpus.names(claim);
        bare.ingest(s, d, v);
    }
    let bare_ns = start.elapsed().as_nanos() as f64 / sample.len() as f64;
    metrics.set("store.claimstore.ingest_ns_per_claim", bare_ns, sample.len());

    let _ = std::fs::remove_dir_all(dir);
    let mut logged = ClaimStore::open(dir).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for &claim in sample {
        let (s, d, v) = corpus.names(claim);
        logged.ingest(s, d, v);
    }
    let logged_ns = start.elapsed().as_nanos() as f64 / sample.len() as f64;
    let start = Instant::now();
    logged.sync().map_err(|e| e.to_string())?;
    metrics.set("store.wal.sync_ms", millis(start.elapsed()), 1);
    metrics.set("store.wal.append_ns_per_claim", logged_ns - bare_ns, sample.len());
    metrics.set(
        "store.wal.bytes_per_claim",
        logged.stats().wal_bytes as f64 / sample.len() as f64,
        sample.len(),
    );
    drop(logged);

    // The single-threaded baseline of the same job a DETECT does. On the
    // streaming workload the corpus is the bounded prefix the replay loaded.
    let baseline = oracle::reference(
        corpus,
        corpus.stream[..corpus.stream.len().min(LOAD_CAP)].iter().copied(),
    );
    metrics.set("detect.pairwise_ms", millis(baseline.pairwise_time), 1);

    use copydet_model::sync::RankedMutex;
    use copydet_obs::{emit, registry, Severity};
    const OPS: usize = 100_000;
    let suppressed = per_op_nanos(OPS, || {
        let _ = emit(Severity::Debug, "bench", "overhead.probe", Vec::new());
    });
    metrics.set("obs.emit_suppressed_ns", suppressed, OPS);
    let counter = registry().counter("copydet_wirebench_overhead_probe_total");
    metrics.set("obs.counter_inc_ns", per_op_nanos(OPS, || counter.inc()), OPS);
    let lock = RankedMutex::new(20, "store.claim_store.shard", 0u64);
    metrics.set("obs.ranked_lock_ns", per_op_nanos(OPS, || *lock.lock() += 1), OPS);
    Ok(())
}
