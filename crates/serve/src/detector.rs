//! Fan-out detection rounds over a [`ShardedStore`] and the cross-shard
//! merge into global copy decisions.

use crate::shard::{ShardMaps, ShardedStore};
use copydet_bayes::{CopyDecision, SourceAccuracies, ValueProbabilities};
use copydet_detect::{
    collect_shard_evidence, fold_pair_runs, merge_shard_rounds_parallel, topk, DetectError,
    DetectionResult, PairOutcome, SharedItemObservation, TopKResult,
};
use copydet_fusion::{vote_group_probabilities, VoteConfig};
use copydet_model::codec::usize_to_u64;
use copydet_model::{Dataset, ItemValueGroup, SourceId, SourcePair};
use copydet_nra::SortedList;
use copydet_obs::event::field;
use copydet_obs::{
    emit, registry, slow_op_exceeded, trace_fields, trace_ring, Counter, Histogram,
    RoundTraceBuilder, Severity, Span,
};
use copydet_store::LiveConfig;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// Candidate pairs ruled out by the upper bound alone (never evaluated).
fn topk_candidates_pruned() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_serve_topk_candidates_pruned_total"))
}

/// Candidate pairs whose exact evidence was materialized for a top-k query.
fn topk_pairs_evaluated() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_serve_topk_pairs_evaluated_total"))
}

/// Runs copy detection over an item-partitioned store: one evidence scan per
/// shard, fanned out across threads, then an exact merge.
///
/// Each round:
///
/// 1. **Capture** — every shard's snapshot and shared-item counts are taken
///    together under that shard's lock
///    ([`ShardedStore::capture_shards`]); everything after runs without any
///    store lock, so writers keep streaming while the round computes.
/// 2. **Fan-out** — per shard, in a [`std::thread::scope`]: the round state
///    is bootstrapped like
///    [`LiveDetector::prepare`](copydet_store::LiveDetector::prepare)
///    (uniform accuracies over a self-contained
///    [`OwnedRoundInput`](copydet_detect::OwnedRoundInput) dataset handle),
///    except that the value vote runs with each item's groups ordered by
///    **global** value id (see below) — voting locally first and redoing it
///    would double the bootstrap cost for a result that gets discarded.
///    Then the shard's overlap evidence is collected — only pairs the
///    shard's counts say share an item are visited.
/// 3. **Merge** — per-shard evidence is folded into global pairwise scores
///    in global item order and the posterior of Eq. 2 decides
///    ([`merge_shard_rounds_parallel`]). Pairs are partitioned by a stable
///    hash across merge workers (see
///    [`with_merge_parallelism`](Self::with_merge_parallelism)); the
///    parallel merge is bit-identical to the sequential one at every
///    worker count.
///
/// Shards are item-disjoint, so the merged result is **bit-identical** to
/// running the exact PAIRWISE baseline on a single store fed the same
/// stream — not merely equal in decisions, equal in every score and
/// posterior bit. Two orderings make that work: per-pair observations fold
/// in global item-id order, and each item's vote normalization sums its
/// value groups in global value-id order (shard-local interning orders both
/// differently, and floating-point addition is order-sensitive). The
/// equivalence proptest in `tests/shard_equivalence.rs` asserts exactly
/// this against `pairwise_detection`.
#[derive(Debug, Default)]
pub struct ShardedDetector {
    config: LiveConfig,
    rounds: usize,
    merge_parallelism: usize,
}

impl ShardedDetector {
    /// A detector with the default [`LiveConfig`].
    pub fn new() -> Self {
        Self::with_config(LiveConfig::default())
    }

    /// A detector with a custom configuration (`params` and
    /// `initial_accuracy` drive the bootstrap; the incremental settings are
    /// unused — every sharded round is exact).
    pub fn with_config(config: LiveConfig) -> Self {
        Self { config, rounds: 0, merge_parallelism: 0 }
    }

    /// Sets the number of cross-shard merge workers. `0` (the default)
    /// auto-selects: the `COPYDET_MERGE_THREADS` environment variable if set
    /// to a positive integer, else [`std::thread::available_parallelism`].
    /// The merge result is bit-identical at every setting — this knob trades
    /// wall time only.
    pub fn with_merge_parallelism(mut self, workers: usize) -> Self {
        self.merge_parallelism = workers;
        self
    }

    /// The merge worker count a round would use right now (resolves the
    /// auto setting; see [`with_merge_parallelism`](Self::with_merge_parallelism)).
    pub fn merge_parallelism(&self) -> usize {
        if self.merge_parallelism > 0 {
            return self.merge_parallelism;
        }
        if let Some(n) = std::env::var("COPYDET_MERGE_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|n| *n > 0)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// Number of detection rounds run so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// One detection round over the store's current state. Snapshots are
    /// captured per shard (each under its own lock); the scans and the
    /// merge run entirely unlocked.
    ///
    /// # Errors
    /// [`DetectError::ShardEvidenceMismatch`] if a shard's counts disagree
    /// with its snapshot — impossible for captures taken by this method
    /// (each shard's pair is captured under one lock), so an error here
    /// indicates store corruption; the round fails instead of panicking the
    /// serving thread.
    pub fn detect_round(&mut self, store: &ShardedStore) -> Result<DetectionResult, DetectError> {
        let trace = RoundTraceBuilder::new("sharded_round");
        let capture_span = Span::start();
        let (captures, capture_nanos) = store.capture_shards_traced();
        let capture_total = capture_span.elapsed_nanos();
        self.detect_traced(store, &captures, trace, Some((capture_total, &capture_nanos)))
    }

    /// One detection round over an explicit capture (from
    /// [`ShardedStore::capture_shards`]). Exposed so equivalence and stress
    /// tests can run the round and an independent baseline over the *same*
    /// frozen state while writers keep mutating the store. The round's trace
    /// has no `capture` stages (the capture happened outside this call).
    ///
    /// # Errors
    /// [`DetectError::ShardEvidenceMismatch`] if a capture's counts disagree
    /// with its snapshot — e.g. a counts handle captured at a different time
    /// than the snapshot it is paired with.
    pub fn detect_captured(
        &mut self,
        store: &ShardedStore,
        captures: &[(
            copydet_store::StoreSnapshot,
            std::sync::Arc<copydet_index::SharedItemCounts>,
        )],
    ) -> Result<DetectionResult, DetectError> {
        let trace = RoundTraceBuilder::new("sharded_round");
        self.detect_traced(store, captures, trace, None)
    }

    /// Answers "who are the `k` most likely copiers of `source`?" without a
    /// global round.
    ///
    /// Candidate pairs come from each shard's incrementally maintained
    /// shared-item counts, ordered by an admissible evidence upper bound and
    /// pruned through Fagin's NRA ([`topk::topk_with_pruning`]); only
    /// surviving pairs are scored exactly, through the *identical* per-shard
    /// walk and shard-order fold as [`detect_round`](Self::detect_round) —
    /// the ranked answer is bit-identical to the top-k extracted from a full
    /// round (ascending posterior, ties by ascending pair id), while
    /// evaluating a fraction of the pairs.
    ///
    /// # Errors
    /// [`DetectError::UnknownSourceName`] if the fleet has never seen
    /// `source` — a typed error, not an empty result, so the serving layer
    /// can answer with an ERR frame.
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

    /// The `k` most suspicious pairs fleet-wide, by the same pruned query
    /// path as [`detect_topk`](Self::detect_topk) with no source filter.
    pub fn detect_topk_fleet(
        &self,
        store: &ShardedStore,
        k: usize,
    ) -> Result<TopKResult, DetectError> {
        self.detect_topk_target(store, None, k)
    }

    /// The shared top-k query body: capture, candidate lists from counts
    /// alone, NRA pruning, exact evaluation of survivors. Emits a
    /// `topk_query` trace and the per-query latency/pruning metrics.
    fn detect_topk_target(
        &self,
        store: &ShardedStore,
        target: Option<SourceId>,
        k: usize,
    ) -> Result<TopKResult, DetectError> {
        let mut trace = RoundTraceBuilder::new("topk_query");
        let query_span = Span::start();
        let capture_span = Span::start();
        let (captures, capture_nanos) = store.capture_shards_traced();
        trace.stage("capture", capture_span.elapsed_nanos());
        for (i, nanos) in capture_nanos.iter().enumerate() {
            trace.stage(&format!("shard{i}.capture"), *nanos);
        }
        let prepare_span = Span::start();
        let maps: Vec<ShardMaps> =
            captures.iter().map(|(snapshot, _)| store.maps_for(snapshot)).collect();
        let accuracies =
            SourceAccuracies::uniform(store.num_sources(), self.config.initial_accuracy)
                .expect("initial accuracy is a probability");
        let vote_config = VoteConfig::new(self.config.params);
        let initial_accuracy = self.config.initial_accuracy;
        let params = self.config.params;
        trace.stage("prepare", prepare_span.elapsed_nanos());

        // Candidate lists: one per shard, straight from the shared-item
        // counts — no claim data is touched before the pruning loop asks
        // for an exact score. `local_pairs` remembers each shard's local
        // ids so the evaluator can find the pair's claim lists again.
        let lists_span = Span::start();
        let mut local_pairs: Vec<HashMap<SourcePair, (SourceId, SourceId)>> =
            Vec::with_capacity(captures.len());
        let lists: Vec<SortedList<SourcePair>> = captures
            .iter()
            .zip(&maps)
            .map(|((_, counts), map)| {
                let mut locals = HashMap::new();
                let entries: Vec<(SourcePair, u32)> = counts
                    .iter_nonzero()
                    .map(|(pair, count)| {
                        let global = SourcePair::new(
                            map.ids.sources[pair.first().index()],
                            map.ids.sources[pair.second().index()],
                        );
                        locals.insert(global, (pair.first(), pair.second()));
                        (global, count)
                    })
                    .collect();
                local_pairs.push(locals);
                topk::shard_candidate_list(entries, target, |p| {
                    topk::pair_score_upper_bound(
                        accuracies.get(p.first()),
                        accuracies.get(p.second()),
                        &params,
                    )
                })
            })
            .collect();
        trace.stage("lists", lists_span.elapsed_nanos());

        // Exact evaluator for NRA survivors: the identical per-shard
        // two-cursor walk as `collect_shard_evidence` and the identical
        // shard-order fold as the round merge, so every returned outcome
        // is bit-identical to the full round's. Each shard's vote bootstrap
        // runs lazily, on the first pair evaluated against it.
        let eval_span = Span::start();
        let mut probabilities: Vec<Option<ValueProbabilities>> = vec![None; captures.len()];
        let result = topk::topk_with_pruning(lists, k, &params, |pair| {
            let a_first = accuracies.get(pair.first());
            let a_second = accuracies.get(pair.second());
            let mut runs: copydet_detect::PairRuns = Vec::new();
            for (i, ((snapshot, _), map)) in captures.iter().zip(&maps).enumerate() {
                let Some(&(l1, l2)) = local_pairs[i].get(&pair) else { continue };
                let probs = probabilities[i].get_or_insert_with(|| {
                    let shard_accuracies =
                        SourceAccuracies::uniform(snapshot.dataset.num_sources(), initial_accuracy)
                            .expect("initial accuracy is a probability");
                    globally_ordered_vote(&snapshot.dataset, &shard_accuracies, map, &vote_config)
                });
                let claims1 = snapshot.dataset.claims_of(l1);
                let claims2 = snapshot.dataset.claims_of(l2);
                let mut observations = Vec::new();
                let (mut ci, mut cj) = (0, 0);
                while ci < claims1.len() && cj < claims2.len() {
                    let (d1, v1) = claims1[ci];
                    let (d2, v2) = claims2[cj];
                    match d1.cmp(&d2) {
                        std::cmp::Ordering::Less => ci += 1,
                        std::cmp::Ordering::Greater => cj += 1,
                        std::cmp::Ordering::Equal => {
                            let same_value_probability = (v1 == v2).then(|| probs.get(d1, v1));
                            observations.push(SharedItemObservation {
                                item: map.ids.items[d1.index()],
                                same_value_probability,
                            });
                            ci += 1;
                            cj += 1;
                        }
                    }
                }
                if !observations.is_empty() {
                    runs.push(observations);
                }
            }
            let evidence = fold_pair_runs(runs, a_first, a_second, &params);
            let posterior = evidence.posterior_independence(&params);
            PairOutcome {
                decision: CopyDecision::from_posterior(posterior),
                posterior: Some(posterior),
                c_to: evidence.c_to,
                c_from: evidence.c_from,
            }
        });
        trace.stage_count("query", eval_span.elapsed_nanos(), result.stats.evaluated);
        let finished = trace.finish();
        topk_queries_total().inc();
        topk_query_nanos().record(query_span.elapsed_nanos());
        topk_pairs_evaluated().add(result.stats.evaluated);
        topk_candidates_pruned().add(result.stats.pruned);
        if slow_op_exceeded(finished.total_nanos) {
            emit(Severity::Warn, "detect", "topk.slow", trace_fields(&finished));
        }
        emit(
            Severity::Debug,
            "detect",
            "topk.finish",
            vec![
                field::u64("k", usize_to_u64(k)),
                field::u64("evaluated", result.stats.evaluated),
                field::u64("pruned", result.stats.pruned),
                field::u64("nanos", finished.total_nanos),
            ],
        );
        trace_ring().push(finished);
        Ok(result)
    }

    /// The round body shared by [`detect_round`](Self::detect_round) and
    /// [`detect_captured`](Self::detect_captured): prepare, fan-out, merge —
    /// recording each stage into `trace`, which is pushed into the global
    /// [`trace_ring`] before returning.
    fn detect_traced(
        &mut self,
        store: &ShardedStore,
        captures: &[(
            copydet_store::StoreSnapshot,
            std::sync::Arc<copydet_index::SharedItemCounts>,
        )],
        mut trace: RoundTraceBuilder,
        capture: Option<(u64, &[u64])>,
    ) -> Result<DetectionResult, DetectError> {
        if let Some((total, per_shard)) = capture {
            trace.stage("capture", total);
            for (i, nanos) in per_shard.iter().enumerate() {
                trace.stage(&format!("shard{i}.capture"), *nanos);
            }
        }
        let prepare_span = Span::start();
        let maps: Vec<ShardMaps> =
            captures.iter().map(|(snapshot, _)| store.maps_for(snapshot)).collect();
        // Sized after the maps are built, so every mapped id is covered.
        let accuracies =
            SourceAccuracies::uniform(store.num_sources(), self.config.initial_accuracy)
                .expect("initial accuracy is a probability");
        let vote_config = VoteConfig::new(self.config.params);
        let initial_accuracy = self.config.initial_accuracy;
        let params = self.config.params;
        trace.stage("prepare", prepare_span.elapsed_nanos());
        let fanout_span = Span::start();
        type ScanResult = (Result<copydet_detect::ShardRoundEvidence, DetectError>, u64);
        let scans: Vec<ScanResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = captures
                .iter()
                .zip(&maps)
                .map(|((snapshot, counts), map)| {
                    let vote_config = &vote_config;
                    scope.spawn(move || {
                        // The same bootstrap `LiveDetector::prepare` builds,
                        // assembled directly so the vote is computed once —
                        // in global value order (prepare's locally-ordered
                        // vote would just be discarded).
                        let scan_span = Span::start();
                        let shard_accuracies = SourceAccuracies::uniform(
                            snapshot.dataset.num_sources(),
                            initial_accuracy,
                        )
                        .expect("initial accuracy is a probability");
                        let probabilities = globally_ordered_vote(
                            &snapshot.dataset,
                            &shard_accuracies,
                            map,
                            vote_config,
                        );
                        let input = copydet_detect::OwnedRoundInput {
                            dataset: snapshot.dataset.clone(),
                            accuracies: shard_accuracies,
                            probabilities,
                            params,
                            delta: None,
                        };
                        let evidence =
                            collect_shard_evidence(&input.as_round_input(), counts, &map.ids);
                        (evidence, scan_span.elapsed_nanos())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("shard evidence scan panicked"))
                .collect()
        });
        trace.stage("fanout", fanout_span.elapsed_nanos());
        let mut evidence = Vec::with_capacity(scans.len());
        for (i, (shard_evidence, nanos)) in scans.into_iter().enumerate() {
            let shard_evidence = shard_evidence?;
            let observations = usize_to_u64(shard_evidence.num_observations());
            trace.stage_count(&format!("shard{i}.scan"), nanos, observations);
            evidence.push(shard_evidence);
        }
        self.rounds += 1;
        let workers = self.merge_parallelism();
        let merge_span = Span::start();
        let (result, timings, reports) =
            merge_shard_rounds_parallel(evidence, &accuracies, self.config.params, workers);
        let merge_nanos = merge_span.elapsed_nanos();
        // Wall intervals only: `timings.fold_nanos` / `vote_nanos` are summed
        // over merge workers (CPU time) and would overrun the round.
        trace.stage("merge.collect", timings.collect_nanos);
        trace.stage_count(
            "merge.fold_vote",
            merge_nanos.saturating_sub(timings.collect_nanos),
            timings.pairs,
        );
        // Named like the `shard<i>.<stage>` spans (not under the `merge.`
        // prefix) so prefix sums over `merge.` keep tiling the merge wall
        // time — worker wall times overlap the fold_vote stage.
        for (w, report) in reports.iter().enumerate() {
            trace.stage_count(&format!("worker{w}.merge"), report.wall_nanos, report.pairs);
        }
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
            vec![field::u64("pairs", timings.pairs), field::u64("nanos", finished.total_nanos)],
        );
        trace_ring().push(finished);
        Ok(result)
    }
}

/// The vote bootstrap over one shard's snapshot, with each item's value
/// groups voted in **global value-id order**.
///
/// The vote normalizes an item's group weights by summing them in sequence;
/// a single global store iterates groups in global value-id order, while a
/// shard's local ids can order the same groups differently (a value string's
/// local id depends on which *other* items the shard saw first). Reordering
/// by global id before the fold makes the probabilities — and everything
/// downstream of them — bit-identical to the single-store run.
fn globally_ordered_vote(
    dataset: &Dataset,
    accuracies: &SourceAccuracies,
    map: &ShardMaps,
    config: &VoteConfig,
) -> ValueProbabilities {
    let mut probabilities = ValueProbabilities::new(dataset.num_items());
    for item in dataset.items() {
        let groups = dataset.values_of_item(item);
        if groups.is_empty() {
            continue;
        }
        let mut ordered: Vec<&ItemValueGroup> = groups.iter().collect();
        ordered.sort_by_key(|g| map.values[g.value.index()]);
        let probs = vote_group_probabilities(&ordered, accuracies, None, config);
        for (group, p) in ordered.iter().zip(probs) {
            probabilities.set(group.item, group.value, p).expect("vote probability is clamped");
        }
    }
    probabilities
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::CopyParams;
    use copydet_detect::{pairwise_detection, RoundInput};
    use copydet_fusion::value_probabilities;
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
            let mut detector = ShardedDetector::new();
            let got = detector.detect_round(&store).expect("consistent capture");
            assert_eq!(detector.rounds(), 1);
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

    /// The merge-parallelism knob changes wall time only: every worker
    /// count returns the identical round result.
    #[test]
    fn merge_parallelism_is_observable_and_bit_stable() {
        let claims = stream();
        let store = ShardedStore::new(2);
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
        let baseline = ShardedDetector::new()
            .with_merge_parallelism(1)
            .detect_round(&store)
            .expect("consistent capture");
        for workers in [2usize, 4, 8] {
            let mut detector = ShardedDetector::new().with_merge_parallelism(workers);
            assert_eq!(detector.merge_parallelism(), workers);
            let got = detector.detect_round(&store).expect("consistent capture");
            assert_eq!(got.outcomes, baseline.outcomes, "{workers} merge workers");
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
                // The per-source query never considers pairs outside the
                // target's candidate set.
                assert!(got.stats.evaluated <= got.stats.candidates, "{shards} shard(s), k={k}");
                assert!(
                    (got.stats.candidates as usize) < full.outcomes.len(),
                    "{shards} shard(s), k={k}: candidate set must be a strict subset"
                );
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
