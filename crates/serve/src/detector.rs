//! Fan-out detection rounds over a [`ShardedStore`]: every shard builds its
//! source map and scores its own pairs into exact evidence partials on its own
//! thread — one row scan per source over one provider list per item, each
//! value group scored once at the bootstrap's one accuracy, 0.8 for every
//! source — and the cross-shard merge adds the partials into global copy
//! decisions. The server runs only this bootstrap round.

use crate::shard::ShardedStore;
use copydet_bayes::{CopyParams, SourceAccuracies};
use copydet_detect::{
    collect_shard_partials_for, merge_shard_partials, topk, DetectError, DetectionResult,
    ShardPartials, TopKResult,
};
use copydet_fusion::{value_probabilities, VoteConfig};
use copydet_index::SharedItemCounts;
use copydet_model::codec::usize_to_u64;
use copydet_model::SourceId;
use copydet_obs::event::field;
use copydet_obs::{
    emit, registry, slow_op_exceeded, trace_fields, trace_ring, Counter, Histogram,
    RoundTraceBuilder, Severity, Span,
};
use copydet_store::StoreSnapshot;
use std::sync::{Arc, OnceLock};

/// One shard's frozen state: its snapshot and the shared-item counts
/// captured with it under the same lock.
type Capture = (StoreSnapshot, Arc<SharedItemCounts>);

/// The accuracy every source starts a round with, before the vote
/// bootstraps value probabilities from it (the paper's implementations
/// use 0.8).
const INITIAL_ACCURACY: f64 = 0.8;

/// Sharded detection rounds completed in this process.
fn rounds_total() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_serve_rounds_total"))
}

/// Wall time of whole sharded detection rounds.
fn round_nanos() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("copydet_serve_round_nanos"))
}

/// Top-k queries answered in this process.
fn topk_queries_total() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_serve_topk_queries_total"))
}

/// Per-query wall time of top-k queries.
fn topk_query_nanos() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("copydet_serve_topk_query_nanos"))
}

/// Candidate pairs whose exact evidence was materialized for a top-k query.
fn topk_pairs_evaluated() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_serve_topk_pairs_evaluated_total"))
}

/// Runs copy detection over an item-partitioned store: one scoring scan per
/// shard, fanned out across threads, then an exact merge of pair partials.
///
/// Each round:
///
/// 1. **Capture** — every shard's snapshot and shared-item counts are taken
///    together under that shard's lock
///    ([`ShardedStore::capture_shards`]); everything after runs without any
///    store lock, so writers keep streaming while the round computes.
/// 2. **Fan-out** — per shard, in a [`std::thread::scope`] (the calling
///    thread scans the last shard itself): the shard's local→global source
///    map is built ([`ShardedStore::maps_for`], traced as `shard<i>.maps`
///    with the number of registry names it resolved — one per local
///    source; items and values keep shard-local ids and are never looked
///    up), then the round state is bootstrapped from the paper's defaults
///    ([`CopyParams::paper_defaults`], every source at an accuracy of
///    0.8): the value vote over the shard's own snapshot, borrowed, not
///    cloned. Then the shard scores its own pairs at that one accuracy
///    ([`collect_shard_partials_for`]): it lists each item's providers
///    once, sorted by local source id and tagged with their value group,
///    and scores each group with at least two providers once (one
///    accuracy, so `C→ = C←`); each source's row, in ascending order, walks
///    the providers after its own entry of each item it claims and yields
///    one exact [`PairEvidence`](copydet_bayes::PairEvidence) partial per
///    neighbour, keyed by the global pair and checked against the shard's
///    counts. The lists are freed before the merge, and no per-item
///    observation leaves the scan thread.
/// 3. **Merge** — on the calling thread, each pair's per-shard partials
///    are added and the posterior of Eq. 2 decides
///    ([`merge_shard_partials`]).
///
/// Shards are item-disjoint, so the merged result is **bit-identical** to
/// running the exact PAIRWISE baseline on a single store fed the same
/// stream — not merely equal in decisions, equal in every score and
/// posterior bit. Evidence sums are exact integers, so the order in which
/// shards and items add up does not matter, and the value vote depends on
/// each item's set of value groups, not on their order, so a shard's local
/// value ids vote exactly as the global ones do. The equivalence proptest
/// in `tests/shard_equivalence.rs` asserts exactly this against
/// `pairwise_detection`.
#[derive(Debug, Default)]
pub struct ShardedDetector;

impl ShardedDetector {
    /// A detector; it holds no configuration.
    pub fn new() -> Self {
        Self
    }

    /// The number of threads the cross-shard merge runs on: always 1, the
    /// calling thread. Kept only because the benchmark still reads it.
    pub fn merge_parallelism(&self) -> usize {
        1
    }

    /// One detection round over the store's current state. Snapshots are
    /// captured per shard (each under its own lock); the scans and the
    /// merge run entirely unlocked.
    ///
    /// # Errors
    /// [`DetectError::ShardEvidenceMismatch`] or
    /// [`DetectError::ShardPairCountMismatch`] if a shard's counts disagree
    /// with its snapshot — impossible for captures taken by this method
    /// (each shard's pair is captured under one lock), so an error here
    /// indicates store corruption; [`DetectError::ShardScanPanicked`] if a
    /// shard's scan thread dies. The round fails instead of panicking the
    /// serving thread.
    pub fn detect_round(&self, store: &ShardedStore) -> Result<DetectionResult, DetectError> {
        let mut trace = RoundTraceBuilder::new("sharded_round");
        let captures = capture_traced(store, &mut trace);
        self.detect_traced(store, &captures, trace)
    }

    /// One detection round over an explicit capture (from
    /// [`ShardedStore::capture_shards`]). Exposed so equivalence and stress
    /// tests can run the round and an independent baseline over the *same*
    /// frozen state while writers keep mutating the store. The round's trace
    /// has no `capture` stages (the capture happened outside this call).
    ///
    /// # Errors
    /// [`DetectError::ShardEvidenceMismatch`] or
    /// [`DetectError::ShardPairCountMismatch`] if a capture's counts
    /// disagree with its snapshot — e.g. a counts handle captured at a
    /// different time than the snapshot it is paired with.
    pub fn detect_captured(
        &self,
        store: &ShardedStore,
        captures: &[Capture],
    ) -> Result<DetectionResult, DetectError> {
        self.detect_traced(store, captures, RoundTraceBuilder::new("sharded_round"))
    }

    /// Answers "who are the `k` most likely copiers of `source`?" with a
    /// filtered round.
    ///
    /// The query runs the same capture, per-shard scan and merge as
    /// [`detect_round`](Self::detect_round), except that each shard scans
    /// only `source`'s row — its own claims — so only the pairs containing
    /// it are scored ([`collect_shard_partials_for`]); the merged outcomes
    /// are then ranked by [`topk::rank_topk`]. Every kept pair merges the
    /// same partials as in the full round, so the ranked answer is
    /// bit-identical to the top-k extracted from a full round (ascending
    /// posterior, ties by ascending pair id).
    ///
    /// # Errors
    /// [`DetectError::UnknownSourceName`] if the fleet has never seen
    /// `source` — a typed error, not an empty result, so the serving layer
    /// can answer with an ERR frame; otherwise as
    /// [`detect_round`](Self::detect_round).
    pub fn detect_topk(
        &self,
        store: &ShardedStore,
        source: &str,
        k: usize,
    ) -> Result<TopKResult, DetectError> {
        let target = store
            .global_source_id(source)
            .ok_or_else(|| DetectError::UnknownSourceName { name: source.to_owned() })?;
        self.detect_topk_target(store, Some(target), k)
    }

    /// The `k` most suspicious pairs fleet-wide: the same query as
    /// [`detect_topk`](Self::detect_topk) over an unfiltered round.
    pub fn detect_topk_fleet(
        &self,
        store: &ShardedStore,
        k: usize,
    ) -> Result<TopKResult, DetectError> {
        self.detect_topk_target(store, None, k)
    }

    /// The shared top-k query body: capture, filtered scan and merge, rank.
    /// Emits a `topk_query` trace and the per-query latency/work metrics.
    fn detect_topk_target(
        &self,
        store: &ShardedStore,
        target: Option<SourceId>,
        k: usize,
    ) -> Result<TopKResult, DetectError> {
        let mut trace = RoundTraceBuilder::new("topk_query");
        let captures = capture_traced(store, &mut trace);
        let round = self.scan_and_merge(store, &captures, target, &mut trace)?;
        let result = topk::rank_topk(round.outcomes, k);
        let finished = trace.finish();
        topk_queries_total().inc();
        topk_query_nanos().record(finished.total_nanos);
        topk_pairs_evaluated().add(result.candidates);
        if slow_op_exceeded(finished.total_nanos) {
            emit(Severity::Warn, "detect", "topk.slow", trace_fields(&finished));
        }
        emit(
            Severity::Debug,
            "detect",
            "topk.finish",
            vec![
                field::u64("k", usize_to_u64(k)),
                field::u64("evaluated", result.candidates),
                field::u64("nanos", finished.total_nanos),
            ],
        );
        trace_ring().push(finished);
        Ok(result)
    }

    /// The round body shared by [`detect_round`](Self::detect_round) and
    /// [`detect_captured`](Self::detect_captured): scan and merge into
    /// `trace`, which is pushed into the global [`trace_ring`] before
    /// returning.
    fn detect_traced(
        &self,
        store: &ShardedStore,
        captures: &[Capture],
        mut trace: RoundTraceBuilder,
    ) -> Result<DetectionResult, DetectError> {
        let result = self.scan_and_merge(store, captures, None, &mut trace)?;
        let finished = trace.finish();
        rounds_total().inc();
        round_nanos().record(finished.total_nanos);
        if slow_op_exceeded(finished.total_nanos) {
            emit(Severity::Warn, "detect", "round.slow", trace_fields(&finished));
        }
        emit(
            Severity::Debug,
            "detect",
            "round.finish",
            vec![
                field::u64("pairs", usize_to_u64(result.pairs_considered)),
                field::u64("nanos", finished.total_nanos),
            ],
        );
        trace_ring().push(finished);
        Ok(result)
    }

    /// Per-shard fan-out and merge over `captures`, recording each
    /// stage into `trace`. `target` restricts every shard's scan to the
    /// pairs containing it (`None` = the full round).
    fn scan_and_merge(
        &self,
        store: &ShardedStore,
        captures: &[Capture],
        target: Option<SourceId>,
        trace: &mut RoundTraceBuilder,
    ) -> Result<DetectionResult, DetectError> {
        let params = CopyParams::paper_defaults();
        let vote_config = VoteConfig::new(params);
        let fanout_span = Span::start();
        /// One shard's partials, with its `maps` stage time and count and
        /// its `scan` stage time.
        type ScanResult = Result<(ShardPartials, (u64, usize), u64), DetectError>;
        let vote_config = &vote_config;
        let scan_shard = move |(snapshot, counts): &Capture| -> ScanResult {
            let maps_span = Span::start();
            let map = store.maps_for(snapshot);
            let maps = (maps_span.elapsed_nanos(), map.ids.sources.len());
            // The round's bootstrap, over a borrowed snapshot.
            let scan_span = Span::start();
            let dataset = &snapshot.dataset;
            let accuracies = SourceAccuracies::uniform(dataset.num_sources(), INITIAL_ACCURACY)?;
            let probabilities = value_probabilities(dataset, &accuracies, None, vote_config);
            let partials = collect_shard_partials_for(
                dataset,
                &probabilities,
                INITIAL_ACCURACY,
                params,
                counts,
                &map.ids,
                target,
            )?;
            Ok((partials, maps, scan_span.elapsed_nanos()))
        };
        let scans: Vec<ScanResult> = std::thread::scope(|scope| {
            // The calling thread scans the last shard itself: one spawn and
            // one join fewer (none on a one-shard fleet), with the same
            // panic containment as the spawned scans.
            let (last, spawned) = match captures.split_last() {
                Some((last, rest)) => (Some(last), rest),
                None => (None, captures),
            };
            let handles: Vec<_> =
                spawned.iter().map(|capture| scope.spawn(move || scan_shard(capture))).collect();
            let inline = last.map(|capture| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scan_shard(capture)))
                    .unwrap_or(Err(DetectError::ShardScanPanicked { shard: spawned.len() }))
            });
            handles
                .into_iter()
                .enumerate()
                .map(|(shard, handle)| {
                    handle.join().unwrap_or(Err(DetectError::ShardScanPanicked { shard }))
                })
                .chain(inline)
                .collect()
        });
        trace.stage("fanout", fanout_span.elapsed_nanos());
        let mut shards = Vec::with_capacity(scans.len());
        for (i, scan) in scans.into_iter().enumerate() {
            let (partials, (maps_nanos, resolved), scan_nanos) = scan?;
            trace.stage_count(&format!("shard{i}.maps"), maps_nanos, usize_to_u64(resolved));
            let scored: usize = partials.iter().map(|(_, evidence)| evidence.shared_items()).sum();
            trace.stage_count(&format!("shard{i}.scan"), scan_nanos, usize_to_u64(scored));
            shards.push(partials);
        }
        let merge_span = Span::start();
        let (result, timings) = merge_shard_partials(shards, params);
        let merge_nanos = merge_span.elapsed_nanos();
        trace.stage("merge.collect", timings.collect_nanos);
        trace.stage_count(
            "merge.fold_vote",
            merge_nanos.saturating_sub(timings.collect_nanos),
            timings.pairs,
        );
        Ok(result)
    }
}

/// Captures every shard ([`ShardedStore::capture_shards_traced`]) and
/// records the whole capture and each shard's share into `trace`.
fn capture_traced(store: &ShardedStore, trace: &mut RoundTraceBuilder) -> Vec<Capture> {
    let capture_span = Span::start();
    let (captures, per_shard) = store.capture_shards_traced();
    trace.stage("capture", capture_span.elapsed_nanos());
    for (i, nanos) in per_shard.iter().enumerate() {
        trace.stage(&format!("shard{i}.capture"), *nanos);
    }
    captures
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_detect::{pairwise_detection, RoundInput};
    use copydet_model::{DatasetBuilder, SourcePair};

    /// A small planted-copier stream: S0 and S3 share distinctive false
    /// values on every item, the others vote independently.
    fn stream() -> Vec<(String, String, String)> {
        let mut claims = Vec::new();
        for j in 0..12 {
            for k in 0..5 {
                let value = match k {
                    0 | 3 => format!("false-{j}"),
                    _ => format!("true-{j}"),
                };
                claims.push((format!("S{k}"), format!("D{j}"), value));
            }
        }
        claims
    }

    fn baseline(claims: &[(String, String, String)]) -> DetectionResult {
        let mut b = DatasetBuilder::new();
        for (s, d, v) in claims {
            b.add_claim(s, d, v);
        }
        let ds = b.build();
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(ds.num_sources(), 0.8).unwrap();
        let probabilities = value_probabilities(&ds, &accuracies, None, &VoteConfig::new(params));
        pairwise_detection(&RoundInput::new(&ds, &accuracies, &probabilities, params))
    }

    #[test]
    fn sharded_round_is_bit_identical_to_pairwise_for_1_2_4_shards() {
        let claims = stream();
        let expected = baseline(&claims);
        for shards in [1usize, 2, 4] {
            let store = ShardedStore::new(shards);
            store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
            let got = ShardedDetector::new().detect_round(&store).expect("consistent capture");
            assert_eq!(got.outcomes.len(), expected.outcomes.len(), "{shards} shard(s)");
            for (pair, outcome) in &expected.outcomes {
                assert_eq!(
                    got.outcomes.get(pair),
                    Some(outcome),
                    "{shards} shard(s): pair {pair} diverged bitwise"
                );
            }
            // The planted pair is caught.
            let copying: Vec<SourcePair> = got.copying_pairs().collect();
            assert!(!copying.is_empty(), "{shards} shard(s): planted copiers detected");
        }
    }

    /// `shard<i>.maps` counts the registry names each shard's map resolved:
    /// one per source of the captured snapshot, none per item or value — on
    /// full rounds and top-k queries alike.
    #[test]
    fn maps_stage_counts_one_lookup_per_shard_source() {
        let claims = stream();
        let store = ShardedStore::new(3);
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
        let detector = ShardedDetector::new();
        for target in [None, store.global_source_id("S0")] {
            let mut trace = RoundTraceBuilder::new("maps_count");
            let captures = capture_traced(&store, &mut trace);
            detector
                .scan_and_merge(&store, &captures, target, &mut trace)
                .expect("consistent capture");
            let trace = trace.finish();
            for (i, (snapshot, _)) in captures.iter().enumerate() {
                let name = format!("shard{i}.maps");
                let stage = trace.stages.iter().find(|stage| stage.name == name);
                assert_eq!(
                    stage.map(|stage| stage.count),
                    Some(usize_to_u64(snapshot.dataset.num_sources())),
                    "{name}, target {target:?}"
                );
            }
        }
    }

    /// Extracts the expected top-k from a full round: pairs containing
    /// `target` (or all pairs), ascending posterior, ties by pair id.
    fn extract_topk(
        result: &DetectionResult,
        target: Option<copydet_model::SourceId>,
        k: usize,
    ) -> Vec<(SourcePair, copydet_detect::PairOutcome)> {
        let mut ranked: Vec<(SourcePair, copydet_detect::PairOutcome)> = result
            .outcomes
            .iter()
            .filter(|(pair, _)| target.is_none_or(|t| pair.first() == t || pair.second() == t))
            .map(|(pair, outcome)| (*pair, *outcome))
            .collect();
        ranked.sort_by(|a, b| {
            a.1.posterior
                .unwrap_or(1.0)
                .total_cmp(&b.1.posterior.unwrap_or(1.0))
                .then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked
    }

    #[test]
    fn topk_matches_full_round_extraction_bitwise() {
        let claims = stream();
        for shards in [1usize, 2, 4] {
            let store = ShardedStore::new(shards);
            store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
            let full = ShardedDetector::new().detect_round(&store).expect("consistent capture");
            let detector = ShardedDetector::new();
            let target = store.global_source_id("S0").expect("S0 was ingested");
            for k in [1usize, 3, 100] {
                let got = detector.detect_topk(&store, "S0", k).expect("known source");
                let expected = extract_topk(&full, Some(target), k);
                assert_eq!(got.ranked, expected, "{shards} shard(s), k={k}");
                // The filtered round evaluates exactly the target's pairs.
                let with_target = full.outcomes.keys().filter(|p| p.contains(target)).count();
                assert_eq!(got.candidates, usize_to_u64(with_target), "{shards} shard(s), k={k}");
            }
            let fleet = detector.detect_topk_fleet(&store, 4).expect("fleet query");
            assert_eq!(fleet.ranked, extract_topk(&full, None, 4), "{shards} shard(s) fleet");
        }
    }

    #[test]
    fn topk_unknown_source_is_a_typed_error() {
        let store = ShardedStore::new(2);
        store.ingest_batch([("S0", "D0", "v"), ("S1", "D0", "v")]);
        let err = ShardedDetector::new()
            .detect_topk(&store, "nobody", 3)
            .expect_err("unknown source must not return an empty result");
        assert!(
            matches!(&err, DetectError::UnknownSourceName { name } if name == "nobody"),
            "unexpected error: {err:?}"
        );
    }

    /// A counts handle captured at a different time than the snapshot it is
    /// paired with fails the round with a typed error instead of killing the
    /// round thread ([`DetectError::ShardEvidenceMismatch`]).
    #[test]
    fn stale_counts_fail_the_round_with_a_typed_error() {
        let claims = stream();
        let store = ShardedStore::new(1);
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
        let stale = store.capture_shards();
        // More overlapping claims: the shared-item counts move, the stale
        // counts handle does not.
        store.ingest_batch([("S0", "D100", "w"), ("S1", "D100", "w")]);
        let fresh = store.capture_shards();
        let mixed: Vec<_> = fresh
            .iter()
            .zip(&stale)
            .map(|((snapshot, _), (_, counts))| (snapshot.clone(), counts.clone()))
            .collect();
        let err = ShardedDetector::new()
            .detect_captured(&store, &mixed)
            .expect_err("stale counts must surface as a typed error");
        assert!(
            matches!(err, copydet_detect::DetectError::ShardEvidenceMismatch { .. }),
            "unexpected error: {err:?}"
        );
    }
}
