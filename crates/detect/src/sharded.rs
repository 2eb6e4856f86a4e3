//! Cross-shard detection: per-shard overlap evidence and the merge that
//! turns it into global pairwise decisions.
//!
//! `copydet-serve` hash-partitions **data items** across shards, each an
//! independent claim store with its own dense id space. Because the shards
//! are item-disjoint, a pair of sources' evidence decomposes exactly: every
//! shared item lives in precisely one shard, so the global pairwise scores
//! of Eq. 2 are the fold of the per-shard shared-item observations — no
//! cross-shard interaction terms exist.
//!
//! The merge is **bit-identical** to a single-store PAIRWISE run, not just
//! approximately equal, because floating-point accumulation is
//! order-sensitive and the fold is careful about order:
//!
//! 1. each shard reports *observations* (shared item + the value-agreement
//!    probability), not partial score sums, with ids already translated to
//!    the global id space via a [`ShardIdMap`]; a shard's per-pair
//!    observation list is already **sorted by global item id** (a shard's
//!    local item order is the global order restricted to it);
//! 2. [`merge_shard_rounds_parallel`] stream-folds each pair's sorted
//!    per-shard runs in ascending global item id — exactly the order in
//!    which `ScoringContext::score_pair` walks a single store's claim
//!    lists — without ever concatenating and re-sorting them.
//!
//! Source pairs are independent of each other, so the per-pair folds are
//! embarrassingly parallel: pairs are partitioned **deterministically** (a
//! stable FNV-1a hash of the global pair ids) across `parallelism` workers
//! in a [`std::thread::scope`]. Every worker performs the identical
//! per-pair float sequence the sequential merge performs, and the partial
//! results combine through order-insensitive operations only (disjoint
//! outcome maps, exact integer counter sums) — which is why the parallel
//! merge is bit-identical to the sequential one for every thread count
//! (property-tested in `copydet-serve`'s `shard_equivalence` suite).
//!
//! Pairs whose merged evidence is empty are **pruned** before a
//! [`PairEvidence`] is materialized (they cannot arise from
//! [`collect_shard_evidence`], which only visits pairs the shard counts say
//! share an item, but hand-assembled evidence can carry them).
//!
//! The remaining input, the per-value truth probability, is order-sensitive
//! too (the vote normalizes over an item's value groups in sequence); shard
//! drivers obtain bit-identical probabilities by voting each item's groups
//! in global value-id order via
//! `copydet_fusion::vote_group_probabilities` — see `copydet-serve`.

use crate::api::RoundInput;
use crate::error::DetectError;
use crate::result::{DetectionResult, PairOutcome};
use copydet_bayes::{CopyDecision, CopyParams, PairEvidence, SourceAccuracies};
use copydet_index::SharedItemCounts;
use copydet_model::codec::{u32_to_usize, usize_to_u64};
use copydet_model::{ItemId, SourceId, SourcePair};
use std::collections::HashMap;
use std::time::Instant;

/// Hard cap on merge workers: partitioning 2 000-odd pairs over more
/// threads than this only buys scheduler overhead.
const MAX_MERGE_PARALLELISM: usize = 64;

/// Translation from one shard's dense ids to the global id space.
///
/// Index `i` holds the global id of the shard's local id `i`. The maps are
/// built by the shard router, which interns every name globally in arrival
/// order, so a fresh store fed the same claim stream assigns the same ids.
#[derive(Debug, Clone, Default)]
pub struct ShardIdMap {
    /// Global source id of each local source id.
    pub sources: Vec<SourceId>,
    /// Global item id of each local item id.
    pub items: Vec<ItemId>,
}

/// One shared data item observed for a pair of sources, in global ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedItemObservation {
    /// The shared item (global id).
    pub item: ItemId,
    /// `Some(p)` when both sources provide the same value for the item,
    /// where `p` is that value's truth probability; `None` when their
    /// values differ.
    pub same_value_probability: Option<f64>,
}

/// The overlap evidence one shard contributes to a detection round: for
/// every pair of sources that shares at least one item *within the shard*,
/// the per-item observations, keyed by the **global** source pair.
#[derive(Debug, Clone, Default)]
pub struct ShardRoundEvidence {
    /// Per-pair shared-item observations (ascending global item id, since a
    /// shard's local item order is the global order restricted to it).
    pub pairs: HashMap<SourcePair, Vec<SharedItemObservation>>,
}

impl ShardRoundEvidence {
    /// Total number of shared-item observations across all pairs.
    pub fn num_observations(&self) -> usize {
        self.pairs.values().map(Vec::len).sum()
    }
}

/// Collects one shard's overlap evidence for a detection round.
///
/// Candidate pairs come from the shard's incrementally-maintained
/// [`SharedItemCounts`] — only pairs that actually share an item in this
/// shard are visited, so the scan is `O(Σ pair overlaps)`, not
/// `O(|S_shard|²)`. For each candidate pair every shared item
/// ([`Dataset::shared_claims`](copydet_model::Dataset::shared_claims), the
/// walk `ScoringContext::score_pair` folds over too) becomes a [`SharedItemObservation`] carrying the truth probability of the
/// agreed value, translated to global ids via `map`.
///
/// # Errors
/// [`DetectError::ShardEvidenceMismatch`] if `counts` disagrees with the
/// snapshot in `input` (a listed pair must share exactly the counted number
/// of items). The two are only consistent when captured together under one
/// store lock; on the serving path a mismatch is a recoverable request
/// failure, not a dead round thread.
///
/// # Panics
/// Panics if `map` does not cover the snapshot's ids.
pub fn collect_shard_evidence(
    input: &RoundInput<'_>,
    counts: &SharedItemCounts,
    map: &ShardIdMap,
) -> Result<ShardRoundEvidence, DetectError> {
    collect_shard_evidence_for(input, counts, map, None)
}

/// [`collect_shard_evidence`] restricted to the global pairs that contain
/// `target` (`None` = every pair). A filtered-out pair is skipped before its
/// claim lists are walked; every kept pair gets exactly the observations the
/// unfiltered scan gives it, so merging filtered evidence reproduces the
/// full round's outcomes for those pairs bit for bit.
///
/// # Errors
/// As [`collect_shard_evidence`], for the kept pairs.
///
/// # Panics
/// Panics if `map` does not cover the snapshot's ids.
pub fn collect_shard_evidence_for(
    input: &RoundInput<'_>,
    counts: &SharedItemCounts,
    map: &ShardIdMap,
    target: Option<SourceId>,
) -> Result<ShardRoundEvidence, DetectError> {
    let mut evidence = ShardRoundEvidence::default();
    for (pair, count) in counts.iter_nonzero() {
        let (l1, l2) = (pair.first(), pair.second());
        let global = SourcePair::new(map.sources[l1.index()], map.sources[l2.index()]);
        if target.is_some_and(|t| !global.contains(t)) {
            continue;
        }
        let mut observations = Vec::with_capacity(u32_to_usize(count));
        for (d, v1, v2) in input.dataset.shared_claims(l1, l2) {
            observations.push(SharedItemObservation {
                item: map.items[d.index()],
                same_value_probability: (v1 == v2).then(|| input.probabilities.get(d, v1)),
            });
        }
        if observations.len() != u32_to_usize(count) {
            return Err(DetectError::ShardEvidenceMismatch {
                pair: global,
                counted: u32_to_usize(count),
                observed: observations.len(),
            });
        }
        evidence.pairs.insert(global, observations);
    }
    Ok(evidence)
}

/// Wall-time decomposition of one cross-shard merge.
///
/// The three phase durations partition the merge's own work: partitioning
/// per-shard evidence runs into per-pair (and, when parallel, per-worker)
/// buckets (`collect`), the per-pair stream-fold of sorted observation runs
/// into a [`PairEvidence`] (`fold`), and the per-pair posterior plus
/// decision (`vote`). With more than one merge worker, `fold_nanos` and
/// `vote_nanos` are **summed across workers** (CPU time, not wall time);
/// the per-worker wall times live in the [`MergeWorkerReport`]s. The
/// fold/vote split is measured with one extra clock read per pair, so for
/// very small pairs the split is clock-granularity coarse even though the
/// sum stays accurate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeTimings {
    /// Nanoseconds spent partitioning shard evidence into per-pair buckets.
    pub collect_nanos: u64,
    /// Nanoseconds spent stream-folding observation runs, summed across all
    /// pairs and workers.
    pub fold_nanos: u64,
    /// Nanoseconds spent on posteriors and decisions, summed across all
    /// pairs and workers.
    pub vote_nanos: u64,
    /// Number of source pairs the merge materialized.
    pub pairs: u64,
    /// Number of source pairs skipped because their merged evidence was
    /// empty (no [`PairEvidence`] was materialized for them).
    pub pruned_pairs: u64,
}

impl MergeTimings {
    /// Sum of the three phase durations (saturating).
    pub fn total_nanos(&self) -> u64 {
        self.collect_nanos.saturating_add(self.fold_nanos).saturating_add(self.vote_nanos)
    }
}

/// One merge worker's share of a parallel cross-shard merge, for round
/// traces and benchmarks. Workers are reported in partition-index order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeWorkerReport {
    /// Source pairs this worker materialized.
    pub pairs: u64,
    /// Source pairs this worker pruned (empty merged evidence).
    pub pruned_pairs: u64,
    /// Nanoseconds this worker spent stream-folding observation runs.
    pub fold_nanos: u64,
    /// Nanoseconds this worker spent on posteriors and decisions.
    pub vote_nanos: u64,
    /// Wall-clock nanoseconds of the worker's whole fold+vote pass.
    pub wall_nanos: u64,
}

fn nanos_of(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Stable partition of a global source pair onto one of `workers` merge
/// workers: FNV-1a over the two dense ids, so the assignment is identical
/// across runs, processes and architectures (it feeds deterministic
/// per-worker accounting, not just load balancing).
fn pair_partition(pair: SourcePair, workers: usize) -> usize {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for index in [pair.first().index(), pair.second().index()] {
        for byte in usize_to_u64(index).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    // `workers` is clamped to [1, MAX_MERGE_PARALLELISM]; the modulus fits
    // usize on every supported target.
    usize::try_from(hash % usize_to_u64(workers)).unwrap_or(0)
}

/// The sorted per-shard observation runs of one pair, in shard order.
type PairRuns = Vec<Vec<SharedItemObservation>>;

/// Folds one observation into the pair's evidence.
#[inline]
fn fold_observation(
    evidence: &mut PairEvidence,
    observation: &SharedItemObservation,
    a_first: f64,
    a_second: f64,
    params: &CopyParams,
) {
    match observation.same_value_probability {
        Some(p) => evidence.add_same_value(p, a_first, a_second, params),
        None => evidence.add_different_value(params),
    }
}

/// Merges two item-sorted runs into one (shards are item-disjoint, so no
/// key ever ties).
fn merge_two_runs(
    a: Vec<SharedItemObservation>,
    b: Vec<SharedItemObservation>,
) -> Vec<SharedItemObservation> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        debug_assert!(a[i].item != b[j].item, "shards must be item-disjoint");
        if a[i].item < b[j].item {
            merged.push(a[i]);
            i += 1;
        } else {
            merged.push(b[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// Stream-folds a pair's sorted runs in ascending global item id without
/// concatenating and re-sorting them: more than two runs are first reduced
/// pairwise (the merged sequence is the unique sorted order, so the
/// reduction strategy cannot change the fold order), then the final one or
/// two runs fold directly.
fn fold_pair_runs(
    mut runs: PairRuns,
    a_first: f64,
    a_second: f64,
    params: &CopyParams,
) -> PairEvidence {
    while runs.len() > 2 {
        let mut reduced = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => reduced.push(merge_two_runs(a, b)),
                None => reduced.push(a),
            }
        }
        runs = reduced;
    }
    let mut evidence = PairEvidence::empty();
    match runs.len() {
        0 => {}
        1 => {
            for observation in &runs[0] {
                fold_observation(&mut evidence, observation, a_first, a_second, params);
            }
        }
        _ => {
            let (a, b) = (&runs[0], &runs[1]);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                debug_assert!(a[i].item != b[j].item, "shards must be item-disjoint");
                if a[i].item < b[j].item {
                    fold_observation(&mut evidence, &a[i], a_first, a_second, params);
                    i += 1;
                } else {
                    fold_observation(&mut evidence, &b[j], a_first, a_second, params);
                    j += 1;
                }
            }
            for observation in &a[i..] {
                fold_observation(&mut evidence, observation, a_first, a_second, params);
            }
            for observation in &b[j..] {
                fold_observation(&mut evidence, observation, a_first, a_second, params);
            }
        }
    }
    evidence
}

/// One worker's partial merge result: per-pair outcomes plus exact counter
/// contributions, combined by the caller through order-insensitive
/// operations only (disjoint map union, integer sums).
#[derive(Debug, Default)]
struct MergePartial {
    outcomes: Vec<(SourcePair, PairOutcome)>,
    score_updates: u64,
    shared_values: u64,
    pruned_pairs: u64,
    fold_nanos: u64,
    vote_nanos: u64,
    wall_nanos: u64,
}

/// Folds every pair of one worker's bucket. The identical per-pair float
/// sequence as the sequential merge; only the set of pairs differs.
fn fold_bucket(
    bucket: HashMap<SourcePair, PairRuns>,
    accuracies: &SourceAccuracies,
    params: &CopyParams,
) -> MergePartial {
    let wall_start = Instant::now();
    let mut partial =
        MergePartial { outcomes: Vec::with_capacity(bucket.len()), ..Default::default() };
    for (pair, runs) in bucket {
        if runs.is_empty() {
            // Every run was empty: prune before materializing evidence.
            partial.pruned_pairs += 1;
            continue;
        }
        let fold_start = Instant::now();
        let a_first = accuracies.get(pair.first());
        let a_second = accuracies.get(pair.second());
        let evidence = fold_pair_runs(runs, a_first, a_second, params);
        partial.score_updates += 2 * usize_to_u64(evidence.shared_items());
        partial.shared_values += usize_to_u64(evidence.shared_values);
        let vote_start = Instant::now();
        partial.fold_nanos = partial.fold_nanos.saturating_add(nanos_of(vote_start - fold_start));
        let posterior = evidence.posterior_independence(params);
        partial.outcomes.push((
            pair,
            PairOutcome {
                decision: CopyDecision::from_posterior(posterior),
                posterior: Some(posterior),
                c_to: evidence.c_to,
                c_from: evidence.c_from,
            },
        ));
        partial.vote_nanos = partial.vote_nanos.saturating_add(nanos_of(vote_start.elapsed()));
    }
    partial.wall_nanos = nanos_of(wall_start.elapsed());
    partial
}

/// The cross-shard merge, fanned out across `parallelism` workers.
///
/// Pairs are partitioned deterministically by a stable hash of the global
/// pair ids ([`pair_partition`]); each worker stream-folds its pairs' sorted
/// per-shard runs in ascending global item id and votes their posteriors.
/// The partial results combine through disjoint map union and exact integer
/// sums, so the returned [`DetectionResult`] is **bit-identical** for every
/// `parallelism` (including 1, the sequential merge) — parallelism changes
/// wall time, never a single bit of the output. `accuracies` are the
/// **global** source accuracies; the computation counters use the same
/// accounting as PAIRWISE (two directional score updates per shared item,
/// one posterior per materialized pair).
///
/// `parallelism` is clamped to `1..=64`; empty partitions are skipped
/// without spawning a thread, and `parallelism == 1` runs inline. The
/// returned [`MergeWorkerReport`]s (one per partition, in partition order)
/// feed the round trace's per-worker merge spans.
pub fn merge_shard_rounds_parallel(
    rounds: Vec<ShardRoundEvidence>,
    accuracies: &SourceAccuracies,
    params: CopyParams,
    parallelism: usize,
) -> (DetectionResult, MergeTimings, Vec<MergeWorkerReport>) {
    let start = Instant::now();
    let workers = parallelism.clamp(1, MAX_MERGE_PARALLELISM);
    let mut result = DetectionResult::new("SHARDED");
    let mut timings = MergeTimings::default();

    // Collect: move every per-shard run (a handle, not its observations)
    // into its pair's bucket. Empty runs are dropped here — but the pair
    // entry is still created, so a pair whose evidence is empty in *every*
    // shard is visible to the fold phase as a prunable entry.
    let mut buckets: Vec<HashMap<SourcePair, PairRuns>> = Vec::new();
    buckets.resize_with(workers, HashMap::new);
    for round in rounds {
        for (pair, observations) in round.pairs {
            let bucket = match buckets.get_mut(pair_partition(pair, workers)) {
                Some(bucket) => bucket,
                None => continue, // unreachable: the partition is < workers
            };
            let runs = bucket.entry(pair).or_default();
            if !observations.is_empty() {
                runs.push(observations);
            }
        }
    }
    timings.collect_nanos = nanos_of(start.elapsed());

    // Fold + vote: one worker per non-empty partition.
    let mut partials: Vec<MergePartial> = Vec::with_capacity(workers);
    partials.resize_with(workers, MergePartial::default);
    if workers == 1 {
        if let (Some(slot), Some(bucket)) = (partials.get_mut(0), buckets.pop()) {
            *slot = fold_bucket(bucket, accuracies, &params);
        }
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .enumerate()
                .filter(|(_, bucket)| !bucket.is_empty())
                .map(|(index, bucket)| {
                    (index, scope.spawn(move || fold_bucket(bucket, accuracies, &params)))
                })
                .collect();
            for (index, handle) in handles {
                if let (Ok(partial), Some(slot)) = (handle.join(), partials.get_mut(index)) {
                    *slot = partial;
                }
            }
        });
    }

    let mut reports = Vec::with_capacity(workers);
    for partial in partials {
        reports.push(MergeWorkerReport {
            pairs: usize_to_u64(partial.outcomes.len()),
            pruned_pairs: partial.pruned_pairs,
            fold_nanos: partial.fold_nanos,
            vote_nanos: partial.vote_nanos,
            wall_nanos: partial.wall_nanos,
        });
        timings.fold_nanos = timings.fold_nanos.saturating_add(partial.fold_nanos);
        timings.vote_nanos = timings.vote_nanos.saturating_add(partial.vote_nanos);
        timings.pairs += usize_to_u64(partial.outcomes.len());
        timings.pruned_pairs += partial.pruned_pairs;
        result.counter.score_updates += partial.score_updates;
        result.counter.pair_finalizations += usize_to_u64(partial.outcomes.len());
        result.pairs_considered += partial.outcomes.len();
        result.shared_values_examined += partial.shared_values;
        result.outcomes.extend(partial.outcomes);
    }
    result.detection_time = start.elapsed();
    (result, timings, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::pairwise_detection;
    use copydet_bayes::ValueProbabilities;
    use copydet_model::{Dataset, DatasetBuilder};

    const CLAIMS: &[(&str, &str, &str)] = &[
        ("S0", "D0", "x"),
        ("S1", "D0", "x"),
        ("S2", "D0", "y"),
        ("S0", "D1", "a"),
        ("S1", "D1", "a"),
        ("S0", "D2", "q"),
        ("S1", "D2", "r"),
        ("S2", "D3", "z"),
        ("S0", "D3", "z"),
    ];

    fn dataset(claims: &[(&str, &str, &str)]) -> Dataset {
        let mut b = DatasetBuilder::new();
        for (s, d, v) in claims {
            b.add_claim(s, d, v);
        }
        b.build()
    }

    /// Splitting the items of a dataset into shards (each rebuilt from its
    /// own claim subsequence, with shard-local ids) and merging reproduces
    /// the PAIRWISE baseline bit for bit.
    #[test]
    fn two_item_shards_merge_to_the_pairwise_baseline() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&global, 0.4).unwrap();
        let baseline =
            pairwise_detection(&RoundInput::new(&global, &accuracies, &probabilities, params));

        // Partition items by parity of their id.
        let mut rounds = Vec::new();
        for parity in 0..2u32 {
            let shard_claims: Vec<_> = CLAIMS
                .iter()
                .filter(|(_, d, _)| global.item_by_name(d).unwrap().raw() % 2 == parity)
                .copied()
                .collect();
            let shard = dataset(&shard_claims);
            let map = ShardIdMap {
                sources: shard
                    .sources()
                    .map(|s| global.source_by_name(shard.source_name(s)).unwrap())
                    .collect(),
                items: shard
                    .items()
                    .map(|d| global.item_by_name(shard.item_name(d)).unwrap())
                    .collect(),
            };
            // Shard-local probabilities: look the uniform default up through
            // the global table so the values agree bitwise.
            let shard_probs = ValueProbabilities::uniform_over_dataset(&shard, 0.4).unwrap();
            let shard_accs = SourceAccuracies::uniform(shard.num_sources(), 0.8).unwrap();
            let counts = SharedItemCounts::build(&shard);
            let input = RoundInput::new(&shard, &shard_accs, &shard_probs, params);
            rounds.push(collect_shard_evidence(&input, &counts, &map).expect("consistent counts"));
        }

        let (merged, _, _) = merge_shard_rounds_parallel(rounds, &accuracies, params, 1);
        assert_eq!(merged.algorithm, "SHARDED");
        assert_eq!(merged.outcomes.len(), baseline.outcomes.len());
        for (pair, expected) in &baseline.outcomes {
            let got = merged.outcomes.get(pair).expect("pair must be materialized");
            assert_eq!(got, expected, "pair {pair} diverged from PAIRWISE");
        }
        assert_eq!(merged.counter.score_updates, baseline.counter.score_updates);
        assert_eq!(merged.counter.pair_finalizations, baseline.counter.pair_finalizations);
        assert_eq!(merged.shared_values_examined, baseline.shared_values_examined);
    }

    /// A single shard covering everything degenerates to PAIRWISE exactly.
    #[test]
    fn single_shard_is_pairwise() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&global, 0.4).unwrap();
        let input = RoundInput::new(&global, &accuracies, &probabilities, params);
        let baseline = pairwise_detection(&input);
        let map =
            ShardIdMap { sources: global.sources().collect(), items: global.items().collect() };
        let counts = SharedItemCounts::build(&global);
        let evidence = collect_shard_evidence(&input, &counts, &map).expect("consistent counts");
        let (merged, _, _) = merge_shard_rounds_parallel(vec![evidence], &accuracies, params, 1);
        assert_eq!(merged.outcomes, baseline.outcomes);
    }

    /// Every parallelism produces the identical result, and the per-worker
    /// reports account for every pair exactly once.
    #[test]
    fn parallel_merge_is_bit_identical_for_every_worker_count() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&global, 0.4).unwrap();
        let input = RoundInput::new(&global, &accuracies, &probabilities, params);
        let map =
            ShardIdMap { sources: global.sources().collect(), items: global.items().collect() };
        let counts = SharedItemCounts::build(&global);
        let evidence = collect_shard_evidence(&input, &counts, &map).expect("consistent counts");
        let (sequential, seq_timings, _) =
            merge_shard_rounds_parallel(vec![evidence.clone()], &accuracies, params, 1);
        assert_eq!(seq_timings.pairs, usize_to_u64(sequential.pairs_considered));
        for workers in [2usize, 3, 8, 0, usize::MAX] {
            let (parallel, timings, reports) =
                merge_shard_rounds_parallel(vec![evidence.clone()], &accuracies, params, workers);
            assert_eq!(parallel.outcomes, sequential.outcomes, "{workers} workers");
            assert_eq!(parallel.counter.score_updates, sequential.counter.score_updates);
            assert_eq!(parallel.counter.pair_finalizations, sequential.counter.pair_finalizations);
            assert_eq!(parallel.shared_values_examined, sequential.shared_values_examined);
            assert_eq!(timings.pairs, seq_timings.pairs);
            let reported: u64 = reports.iter().map(|r| r.pairs).sum();
            assert_eq!(reported, timings.pairs, "{workers} workers");
        }
    }

    /// Pairs whose merged evidence is empty are pruned (no outcome, no
    /// counter contribution) identically at every parallelism.
    #[test]
    fn empty_evidence_pairs_are_pruned() {
        let accuracies = SourceAccuracies::uniform(4, 0.8).unwrap();
        let params = CopyParams::paper_defaults();
        let empty_pair = SourcePair::new(SourceId::from_index(0), SourceId::from_index(3));
        let mut round = ShardRoundEvidence::default();
        round.pairs.insert(empty_pair, Vec::new());
        let mut other = ShardRoundEvidence::default();
        other.pairs.insert(empty_pair, Vec::new());
        for workers in [1usize, 4] {
            let (result, timings, reports) = merge_shard_rounds_parallel(
                vec![round.clone(), other.clone()],
                &accuracies,
                params,
                workers,
            );
            assert!(result.outcomes.is_empty(), "{workers} workers");
            assert_eq!(result.pairs_considered, 0);
            assert_eq!(result.counter.pair_finalizations, 0);
            assert_eq!(timings.pairs, 0);
            assert_eq!(timings.pruned_pairs, 1, "{workers} workers");
            let pruned: u64 = reports.iter().map(|r| r.pruned_pairs).sum();
            assert_eq!(pruned, 1);
        }
    }

    /// Counts that disagree with the snapshot are a typed error, not a dead
    /// round thread.
    #[test]
    fn mismatched_counts_are_a_typed_error() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&global, 0.4).unwrap();
        let input = RoundInput::new(&global, &accuracies, &probabilities, params);
        let map =
            ShardIdMap { sources: global.sources().collect(), items: global.items().collect() };
        // Counts captured from a *smaller* snapshot: S0/S1 share one item
        // fewer than the dataset in `input` says.
        let stale = dataset(&CLAIMS[..CLAIMS.len() - 4]);
        let counts = SharedItemCounts::build(&stale);
        let err = collect_shard_evidence(&input, &counts, &map)
            .expect_err("racy counts/snapshot capture must surface as a typed error");
        match err {
            DetectError::ShardEvidenceMismatch { counted, observed, .. } => {
                assert_ne!(counted, observed);
            }
            other => panic!("expected ShardEvidenceMismatch, got {other:?}"),
        }
    }

    /// The pair partition is stable (pinned values) and total.
    #[test]
    fn pair_partition_is_stable_and_total() {
        let pair = SourcePair::new(SourceId::from_index(0), SourceId::from_index(1));
        for workers in 1..=9 {
            assert!(pair_partition(pair, workers) < workers);
        }
        assert_eq!(pair_partition(pair, 1), 0);
        // Pinned: the partition feeds deterministic per-worker accounting.
        let other = SourcePair::new(SourceId::from_index(2), SourceId::from_index(5));
        assert_eq!(pair_partition(pair, 8), pair_partition(pair, 8));
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|i| {
                pair_partition(
                    SourcePair::new(SourceId::from_index(i), SourceId::from_index(i + 1)),
                    8,
                )
            })
            .collect();
        assert!(spread.len() > 1, "the hash spreads pairs over workers");
        let _ = other;
    }

    #[test]
    fn empty_rounds_merge_to_an_empty_result() {
        let accuracies = SourceAccuracies::uniform(3, 0.8).unwrap();
        let (merged, _, _) = merge_shard_rounds_parallel(
            vec![ShardRoundEvidence::default()],
            &accuracies,
            CopyParams::paper_defaults(),
            1,
        );
        assert!(merged.outcomes.is_empty());
        assert_eq!(merged.pairs_considered, 0);
    }
}
