//! Cross-shard detection: per-shard pair partials and the merge that turns
//! them into global pairwise decisions.
//!
//! `copydet-serve` hash-partitions **data items** across shards, each an
//! independent claim store with its own dense id space. Because the shards
//! are item-disjoint, a pair of sources' evidence decomposes exactly: every
//! shared item lives in precisely one shard, so the global scores of Eq. 2
//! are the sums of per-shard sums — no cross-shard interaction terms exist.
//!
//! Each shard scores its own pairs ([`collect_shard_partials_for`]) with a
//! **row scan**: each source walks its own claims into a per-neighbour
//! accumulator, scoring a claim's shared value (Eq. 6) once for all the
//! neighbours that share it, and emits one [`PairEvidence`] partial per
//! neighbour, keyed — and oriented — by the **global** pair. The scan
//! cross-checks every pair and the number of pairs against the shard's
//! [`SharedItemCounts`]. [`PairEvidence`] sums are exact fixed-point
//! integers, so adding the partials in any order
//! ([`merge_shard_partials`]) gives the bits one pass of
//! `ScoringContext::score_pair` over a single store gives. The merge is
//! **bit-identical** to `pairwise_detection` without replaying any item
//! order.
//!
//! The merge runs on the calling thread: a counting sort groups all the
//! shards' partials by the pair's first source, each group is added up
//! through a scratch indexed by the second source, and each pair's
//! posterior is voted. The output is
//! bit-identical for every shard order and every order of the partials
//! (property-tested in `copydet-serve`'s `shard_equivalence` suite).
//!
//! Pairs whose merged evidence is empty are **pruned** before voting (a
//! shard scan never emits one, since it only visits pairs that share an
//! item, but hand-assembled input can carry them).
//!
//! The per-value truth probabilities the scan reads are order-free too:
//! `copydet_fusion::value_probabilities` depends on each item's set of value
//! groups, not on their (shard-local) order, so a shard driver votes its own
//! snapshot and gets the bits a single store would — see `copydet-serve`.
//!
//! [`collect_shard_evidence`] and [`merge_shard_rounds_parallel`] keep the
//! older observation-shipping shape — one [`SharedItemObservation`] per
//! shared item — for benchmark replays. The serving path uses neither.

use crate::api::RoundInput;
use crate::error::DetectError;
use crate::result::{DetectionResult, PairOutcome};
use copydet_bayes::{CopyDecision, CopyParams, PairEvidence, SameValueScore, SourceAccuracies};
use copydet_index::SharedItemCounts;
use copydet_model::codec::{u32_to_usize, usize_to_u64};
use copydet_model::{SourceId, SourcePair};
use std::collections::HashMap;
use std::time::Instant;

/// Translation from one shard's dense source ids to the global source id
/// space — the only global id space: items and values keep shard-local ids,
/// since no pair's evidence depends on them.
///
/// Index `i` holds the global id of the shard's local source `i`. The map
/// is built by the shard router, which interns every source globally in
/// arrival order, so a fresh store fed the same claim stream assigns the
/// same ids.
#[derive(Debug, Clone, Default)]
pub struct ShardIdMap {
    /// Global source id of each local source id.
    pub sources: Vec<SourceId>,
}

impl ShardIdMap {
    fn source(&self, local: SourceId) -> Result<SourceId, DetectError> {
        self.sources.get(local.index()).copied().ok_or(DetectError::ShardIdMapMismatch {
            local: local.index(),
            mapped: self.sources.len(),
        })
    }

    /// The global pair of a local pair.
    fn pair(&self, local: SourcePair) -> Result<SourcePair, DetectError> {
        Ok(SourcePair::new(self.source(local.first())?, self.source(local.second())?))
    }
}

/// One shard's part of the evidence of every pair it scanned: `(global
/// pair, partial)`, each partial oriented by the global pair (`C→` is "the
/// pair's first source copies from its second").
pub type ShardPartials = Vec<(SourcePair, PairEvidence)>;

/// Scores one shard's pairs: for every pair that shares an item in this
/// shard and — when `target` is set — contains `target`, the pair's partial
/// evidence over the shard's items.
///
/// The scan walks **rows**, not pairs. The full round takes every local
/// source `s` as a row; a top-k query takes only the target's local id (a
/// shard that never saw the target contributes nothing). For each claim
/// `(d, v)` of `s` the row visits the providers `t` of every value group of
/// `d` — only `t > s` in the full round, so each pair is scanned once, and
/// every `t ≠ s` in a top-k row — and accumulates into an O(sources)
/// scratch indexed by `t`: a same-value provider gets the claim's rounded
/// [`SameValueScore`] (Eq. 6), every provider a shared-item count. The
/// score is computed once per claim and reused while the neighbours'
/// accuracy bits repeat (always at the bootstrap's uniform accuracy), so a
/// round evaluates Eq. 6 at most once per claim instead of once per shared
/// value per pair. After each row, every touched `t` yields one partial:
/// the different-value items (shared minus same-value) are added in one
/// exact multiply (Eq. 8), as `ScoringContext::score_pair` does, and the
/// partial — accumulated with `s` first — is oriented by the **global**
/// pair, `C→` and `C←` trading places when the global ids order the two
/// sources the other way round. Integer sums make it bit-identical to
/// `score_pair` over the same state.
///
/// `input` carries the shard-local accuracies and probabilities. `partials`
/// is reserved at its expected length, the count of sharing pairs
/// [`SharedItemCounts`] lists (O(1) for the full round).
///
/// # Errors
/// The scan cross-checks `counts`, which are only consistent with the
/// snapshot in `input` when captured together under one store lock; on the
/// serving path a mismatch is a recoverable request failure, not a dead
/// round thread.
/// [`DetectError::ShardEvidenceMismatch`] if a scanned pair's shared-item
/// count differs from its count in `counts` — including a pair the snapshot
/// shares but `counts` lacks or does not cover.
/// [`DetectError::ShardPairCountMismatch`] if the scan emits a different
/// number of pairs than `counts` lists (all sharing pairs, or the target's
/// in a top-k row) — a counted pair the snapshot does not share.
/// [`DetectError::ShardIdMapMismatch`] if `map` does not cover a scanned
/// source.
pub fn collect_shard_partials_for(
    input: &RoundInput<'_>,
    counts: &SharedItemCounts,
    map: &ShardIdMap,
    target: Option<SourceId>,
) -> Result<ShardPartials, DetectError> {
    let (rows, counted) = match target {
        None => (input.dataset.sources().collect(), counts.num_sharing_pairs()),
        Some(target) => {
            let Some(row) =
                input.dataset.sources().find(|&s| map.sources.get(s.index()) == Some(&target))
            else {
                return Ok(Vec::new());
            };
            (vec![row], sharing_pairs_of(counts, row))
        }
    };
    let mut scan = RowScan::new(input, counts, map, counted);
    for row in rows {
        scan.row(row, target.is_none())?;
    }
    let scanned = scan.partials.len();
    if scanned == counted {
        Ok(scan.partials)
    } else {
        Err(DetectError::ShardPairCountMismatch { counted, scanned })
    }
}

/// The scratch of one shard's row scan, indexed by local source id.
struct RowScan<'a> {
    input: &'a RoundInput<'a>,
    counts: &'a SharedItemCounts,
    map: &'a ShardIdMap,
    /// Per neighbour `t` of the current row: same-value evidence (the row's
    /// source first) and the number of items shared with it.
    neighbours: Vec<(PairEvidence, u32)>,
    /// The neighbours the current row touched, in first-touch order.
    touched: Vec<SourceId>,
    partials: ShardPartials,
}

impl<'a> RowScan<'a> {
    fn new(
        input: &'a RoundInput<'a>,
        counts: &'a SharedItemCounts,
        map: &'a ShardIdMap,
        expected: usize,
    ) -> Self {
        Self {
            input,
            counts,
            map,
            neighbours: vec![(PairEvidence::empty(), 0); input.dataset.num_sources()],
            touched: Vec::new(),
            partials: Vec::with_capacity(expected),
        }
    }

    /// Scans row `s` against the providers above it (`only_higher`) or
    /// against every other provider, then emits its partials.
    fn row(&mut self, s: SourceId, only_higher: bool) -> Result<(), DetectError> {
        let RoundInput { dataset, accuracies, probabilities, params, .. } = *self.input;
        let a_s = accuracies.get(s);
        for &(d, v) in dataset.claims_of(s) {
            // The claim's score, and the neighbour accuracy it was scored at.
            let mut cached: Option<(u64, SameValueScore)> = None;
            for group in dataset.values_of_item(d) {
                let skip =
                    if only_higher { group.providers.partition_point(|&t| t <= s) } else { 0 };
                let same = group.value == v;
                for &t in group.providers.get(skip..).unwrap_or_default() {
                    if t == s {
                        continue;
                    }
                    let Some((evidence, shared)) = self.neighbours.get_mut(t.index()) else {
                        continue;
                    };
                    if *shared == 0 {
                        self.touched.push(t);
                    }
                    *shared += 1;
                    if same {
                        let a_t = accuracies.get(t).to_bits();
                        let score = match cached {
                            Some((bits, score)) if bits == a_t => score,
                            _ => {
                                let p = probabilities.get(d, v);
                                let score =
                                    SameValueScore::new(p, a_s, f64::from_bits(a_t), &params);
                                cached = Some((a_t, score));
                                score
                            }
                        };
                        evidence.add_same_value_score(score);
                    }
                }
            }
        }
        self.emit(s, &params)
    }

    /// One partial per neighbour the row `s` touched; resets the scratch.
    fn emit(&mut self, s: SourceId, params: &CopyParams) -> Result<(), DetectError> {
        if self.touched.is_empty() {
            return Ok(());
        }
        let global_s = self.map.source(s)?;
        for t in self.touched.drain(..) {
            let Some(slot) = self.neighbours.get_mut(t.index()) else { continue };
            let (mut evidence, shared) = std::mem::take(slot);
            let shared = u32_to_usize(shared);
            evidence.add_different_values(shared.saturating_sub(evidence.shared_values), params);
            let global_t = self.map.source(t)?;
            let global = SourcePair::new(global_s, global_t);
            check_count(global, counted(self.counts, SourcePair::new(s, t)), shared)?;
            self.partials
                .push((global, if global_s > global_t { evidence.swapped() } else { evidence }));
        }
        Ok(())
    }
}

/// The shared-item count of a local pair; 0 for a pair `counts` does not
/// cover (so the scan reports it as a mismatch instead of indexing past
/// the table).
fn counted(counts: &SharedItemCounts, pair: SourcePair) -> u32 {
    if pair.second().index() < counts.num_sources() {
        counts.get(pair)
    } else {
        0
    }
}

/// Number of pairs containing `s` that `counts` lists as sharing an item.
fn sharing_pairs_of(counts: &SharedItemCounts, s: SourceId) -> usize {
    (0..counts.num_sources())
        .map(SourceId::from_index)
        .filter(|&t| t != s && counted(counts, SourcePair::new(s, t)) > 0)
        .count()
}

fn check_count(pair: SourcePair, counted: u32, observed: usize) -> Result<(), DetectError> {
    let counted = u32_to_usize(counted);
    if observed == counted {
        Ok(())
    } else {
        Err(DetectError::ShardEvidenceMismatch { pair, counted, observed })
    }
}

/// One shared data item observed for a pair of sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedItemObservation {
    /// `Some(p)` when both sources provide the same value for the item,
    /// where `p` is that value's truth probability; `None` when their
    /// values differ.
    pub same_value_probability: Option<f64>,
}

/// The overlap evidence one shard contributes to a detection round, as
/// observations: for every pair of sources that shares at least one item
/// *within the shard*, the per-item observations, keyed by the **global**
/// source pair. Benchmark replays use this shape; the serving path ships
/// [`ShardPartials`] instead.
#[derive(Debug, Clone, Default)]
pub struct ShardRoundEvidence {
    /// Per-pair shared-item observations, in the shard's local item order.
    pub pairs: HashMap<SourcePair, Vec<SharedItemObservation>>,
}

impl ShardRoundEvidence {
    /// Total number of shared-item observations across all pairs.
    pub fn num_observations(&self) -> usize {
        self.pairs.values().map(Vec::len).sum()
    }
}

/// Collects one shard's overlap evidence as observations: the pairs
/// [`collect_shard_partials_for`] visits, with each shared item left
/// unscored as a [`SharedItemObservation`] carrying the truth probability of
/// the agreed value, keyed by the global pair `map` translates.
///
/// # Errors
/// As [`collect_shard_partials_for`].
pub fn collect_shard_evidence(
    input: &RoundInput<'_>,
    counts: &SharedItemCounts,
    map: &ShardIdMap,
) -> Result<ShardRoundEvidence, DetectError> {
    let mut evidence = ShardRoundEvidence::default();
    for (local, count) in counts.iter_nonzero() {
        let global = map.pair(local)?;
        let mut observations = Vec::with_capacity(u32_to_usize(count));
        for (d, v1, v2) in input.dataset.shared_claims(local.first(), local.second()) {
            observations.push(SharedItemObservation {
                same_value_probability: (v1 == v2).then(|| input.probabilities.get(d, v1)),
            });
        }
        check_count(global, count, observations.len())?;
        evidence.pairs.insert(global, observations);
    }
    Ok(evidence)
}

/// Wall-time decomposition of one cross-shard merge.
///
/// The three phase durations are consecutive wall intervals that partition
/// the merge's own work: grouping the shards' partials by the pair's first
/// source (`collect`), adding each pair's partials into one
/// [`PairEvidence`] (`fold`), and the per-pair posterior plus decision
/// (`vote`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeTimings {
    /// Nanoseconds spent grouping the shards' partials.
    pub collect_nanos: u64,
    /// Nanoseconds spent adding each pair's partials.
    pub fold_nanos: u64,
    /// Nanoseconds spent on posteriors and decisions.
    pub vote_nanos: u64,
    /// Number of source pairs the merge materialized.
    pub pairs: u64,
    /// Number of source pairs skipped because their merged evidence was
    /// empty (no outcome was materialized for them).
    pub pruned_pairs: u64,
}

impl MergeTimings {
    /// Sum of the three phase durations (saturating).
    pub fn total_nanos(&self) -> u64 {
        self.collect_nanos.saturating_add(self.fold_nanos).saturating_add(self.vote_nanos)
    }
}

fn nanos_of(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Every shard's partials grouped by the pair's first source with a
/// counting sort, O(partials + sources): `starts[f]..starts[f + 1]` is
/// first source `f`'s group in `partials`.
struct Grouped<'a> {
    /// One past the largest source id any pair names.
    sources: usize,
    starts: Vec<usize>,
    partials: Vec<Option<&'a (SourcePair, PairEvidence)>>,
}

impl<'a> Grouped<'a> {
    fn new(shards: &'a [ShardPartials]) -> Self {
        let all = || shards.iter().flatten();
        let sources = all().map(|(pair, _)| pair.second().index() + 1).max().unwrap_or(0);
        let mut starts = vec![0usize; sources + 1];
        for (pair, _) in all() {
            if let Some(count) = starts.get_mut(pair.first().index() + 1) {
                *count += 1;
            }
        }
        let mut total = 0;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        let mut cursors = starts.clone();
        let mut partials = vec![None; total];
        for partial in all() {
            if let Some(cursor) = cursors.get_mut(partial.0.first().index()) {
                if let Some(slot) = partials.get_mut(*cursor) {
                    *slot = Some(partial);
                }
                *cursor += 1;
            }
        }
        Self { sources, starts, partials }
    }

    /// Adds up each pair's partials with no comparison sort: within a
    /// group, a scratch indexed by the second source points at the pair's
    /// running sum — the row scan's accumulator, over global ids. One sum
    /// per pair, in group order.
    fn fold(&self) -> ShardPartials {
        let mut sum_at: Vec<Option<usize>> = vec![None; self.sources];
        let mut folded: ShardPartials = Vec::with_capacity(self.partials.len());
        for bounds in self.starts.windows(2) {
            let group_start = folded.len();
            let &[start, end] = bounds else { continue };
            let group = self.partials.get(start..end).unwrap_or_default();
            for &&(pair, evidence) in group.iter().flatten() {
                let Some(slot) = sum_at.get_mut(pair.second().index()) else { continue };
                if let Some((_, sum)) = slot.and_then(|at| folded.get_mut(at)) {
                    sum.merge(&evidence);
                } else {
                    *slot = Some(folded.len());
                    folded.push((pair, evidence));
                }
            }
            for (pair, _) in folded.get(group_start..).unwrap_or_default() {
                if let Some(slot) = sum_at.get_mut(pair.second().index()) {
                    *slot = None;
                }
            }
        }
        folded
    }
}

/// The cross-shard merge: adds each pair's per-shard partials
/// ([`PairEvidence::merge`], exact) and votes its posterior.
///
/// Three phases run on the calling thread: `collect` groups all the
/// shards' partials by the pair's first source, `fold` adds each pair's
/// partials into one sum, and `vote` scores each pair. Integer sums make
/// the returned [`DetectionResult`] **bit-identical** for every shard order
/// and every order of partials within a shard. The computation counters use the same
/// accounting as PAIRWISE (two directional score updates per shared item,
/// one posterior per materialized pair).
pub fn merge_shard_partials(
    shards: Vec<ShardPartials>,
    params: CopyParams,
) -> (DetectionResult, MergeTimings) {
    let start = Instant::now();
    let mut result = DetectionResult::new("SHARDED");
    let mut timings = MergeTimings::default();

    let grouped = Grouped::new(&shards);
    let fold_start = Instant::now();
    timings.collect_nanos = nanos_of(fold_start - start);

    let folded = grouped.fold();
    let vote_start = Instant::now();
    timings.fold_nanos = nanos_of(vote_start - fold_start);

    result.outcomes.reserve(folded.len());
    for (pair, evidence) in folded {
        if evidence.shared_items() == 0 {
            timings.pruned_pairs += 1;
            continue;
        }
        result.counter.score_updates += 2 * usize_to_u64(evidence.shared_items());
        result.shared_values_examined += usize_to_u64(evidence.shared_values);
        let posterior = evidence.posterior_independence(&params);
        result.outcomes.insert(
            pair,
            PairOutcome {
                decision: CopyDecision::from_posterior(posterior),
                posterior: Some(posterior),
                c_to: evidence.c_to(),
                c_from: evidence.c_from(),
            },
        );
    }
    let pairs = result.outcomes.len();
    result.pairs_considered = pairs;
    result.counter.pair_finalizations = usize_to_u64(pairs);
    timings.pairs = usize_to_u64(pairs);
    timings.vote_nanos = nanos_of(vote_start.elapsed());
    result.detection_time = start.elapsed();
    (result, timings)
}

/// Replay-only adapter for the observation shape of
/// [`collect_shard_evidence`]: scores each shard's observations of a pair
/// into one partial with the **global** `accuracies`, then runs
/// [`merge_shard_partials`]. Exact sums make the result the serving merge's,
/// bit for bit. The scoring time is added to
/// [`MergeTimings::fold_nanos`]. The serving path does not call this.
///
/// `_parallelism` is ignored and the third element is `()`: the merge has
/// no workers, and both stay only until the benchmark replay stops passing
/// and destructuring them.
pub fn merge_shard_rounds_parallel(
    rounds: Vec<ShardRoundEvidence>,
    accuracies: &SourceAccuracies,
    params: CopyParams,
    _parallelism: usize,
) -> (DetectionResult, MergeTimings, ()) {
    let start = Instant::now();
    let shards: Vec<ShardPartials> = rounds
        .into_iter()
        .map(|round| {
            round
                .pairs
                .into_iter()
                .map(|(pair, observations)| {
                    let mut evidence = PairEvidence::empty();
                    for observation in &observations {
                        match observation.same_value_probability {
                            Some(p) => evidence.add_same_value(
                                p,
                                accuracies.get(pair.first()),
                                accuracies.get(pair.second()),
                                &params,
                            ),
                            None => evidence.add_different_value(&params),
                        }
                    }
                    (pair, evidence)
                })
                .collect()
        })
        .collect();
    let scoring_nanos = nanos_of(start.elapsed());
    let (mut result, mut timings) = merge_shard_partials(shards, params);
    timings.fold_nanos = timings.fold_nanos.saturating_add(scoring_nanos);
    result.detection_time = start.elapsed();
    (result, timings, ())
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

    /// One shard of `CLAIMS`: the items of the given id parity, rebuilt with
    /// shard-local ids — in reverse source order when `reverse_sources` —
    /// plus its id map and the global `accuracies` carried to local ids.
    struct Shard {
        dataset: Dataset,
        map: ShardIdMap,
        accuracies: SourceAccuracies,
        probabilities: ValueProbabilities,
    }

    fn shard(
        global: &Dataset,
        accuracies: &SourceAccuracies,
        parity: u32,
        reverse_sources: bool,
    ) -> Shard {
        let keep = |d: &str| global.item_by_name(d).unwrap().raw() % 2 == parity;
        shard_of(global, accuracies, &keep, reverse_sources)
    }

    /// The shard of `CLAIMS` holding the items `keep` accepts.
    fn shard_of(
        global: &Dataset,
        accuracies: &SourceAccuracies,
        keep: &dyn Fn(&str) -> bool,
        reverse_sources: bool,
    ) -> Shard {
        let mut claims: Vec<_> = CLAIMS.iter().filter(|(_, d, _)| keep(d)).copied().collect();
        if reverse_sources {
            // Local ids follow first appearance: highest global source first.
            claims.sort_by_key(|(s, _, _)| std::cmp::Reverse(global.source_by_name(s).unwrap()));
        }
        let dataset = dataset(&claims);
        let map = ShardIdMap {
            sources: dataset
                .sources()
                .map(|s| global.source_by_name(dataset.source_name(s)).unwrap())
                .collect(),
        };
        let local_accuracies =
            SourceAccuracies::from_vec(map.sources.iter().map(|&g| accuracies.get(g)).collect())
                .unwrap();
        // The uniform default agrees bitwise with the global table's.
        let probabilities = ValueProbabilities::uniform_over_dataset(&dataset, 0.4).unwrap();
        Shard { dataset, map, accuracies: local_accuracies, probabilities }
    }

    impl Shard {
        fn input(&self) -> RoundInput<'_> {
            RoundInput::new(
                &self.dataset,
                &self.accuracies,
                &self.probabilities,
                CopyParams::paper_defaults(),
            )
        }

        fn partials(&self) -> ShardPartials {
            let counts = SharedItemCounts::build(&self.dataset);
            collect_shard_partials_for(&self.input(), &counts, &self.map, None)
                .expect("consistent counts")
        }

        fn observations(&self) -> ShardRoundEvidence {
            let counts = SharedItemCounts::build(&self.dataset);
            collect_shard_evidence(&self.input(), &counts, &self.map).expect("consistent counts")
        }
    }

    fn baseline(global: &Dataset, accuracies: &SourceAccuracies) -> DetectionResult {
        let probabilities = ValueProbabilities::uniform_over_dataset(global, 0.4).unwrap();
        let params = CopyParams::paper_defaults();
        pairwise_detection(&RoundInput::new(global, accuracies, &probabilities, params))
    }

    fn assert_bit_identical(merged: &DetectionResult, baseline: &DetectionResult) {
        assert_eq!(merged.algorithm, "SHARDED");
        assert_eq!(merged.outcomes.len(), baseline.outcomes.len());
        for (pair, expected) in &baseline.outcomes {
            let got = merged.outcomes.get(pair).expect("pair must be materialized");
            assert_eq!(got, expected, "pair {pair} diverged from PAIRWISE");
            assert_eq!(got.c_to.to_bits(), expected.c_to.to_bits());
            assert_eq!(got.c_from.to_bits(), expected.c_from.to_bits());
        }
        assert_eq!(merged.counter.score_updates, baseline.counter.score_updates);
        assert_eq!(merged.counter.pair_finalizations, baseline.counter.pair_finalizations);
        assert_eq!(merged.shared_values_examined, baseline.shared_values_examined);
    }

    /// Splitting the items of a dataset into shards (each rebuilt from its
    /// own claim subsequence, with shard-local ids) and merging reproduces
    /// the PAIRWISE baseline bit for bit — through partials and through the
    /// observation adapter alike, in either shard order.
    #[test]
    fn two_item_shards_merge_to_the_pairwise_baseline() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let expected = baseline(&global, &accuracies);
        let shards: Vec<Shard> =
            (0..2).map(|parity| shard(&global, &accuracies, parity, false)).collect();

        let partials: Vec<ShardPartials> = shards.iter().map(Shard::partials).collect();
        let (merged, timings) = merge_shard_partials(partials.clone(), params);
        assert_bit_identical(&merged, &expected);
        assert_eq!(timings.pairs, usize_to_u64(merged.pairs_considered));
        let reversed: Vec<ShardPartials> = partials.into_iter().rev().collect();
        let (merged, _) = merge_shard_partials(reversed, params);
        assert_bit_identical(&merged, &expected);

        let rounds = shards.iter().map(Shard::observations).collect();
        let (merged, _, _) = merge_shard_rounds_parallel(rounds, &accuracies, params, 1);
        assert_bit_identical(&merged, &expected);
    }

    /// The replay adapter still takes a worker count; every value yields the
    /// serving merge's result bit for bit, with every pair timed once.
    #[test]
    fn parallel_merge_is_bit_identical_for_every_worker_count() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let shards: Vec<Shard> =
            (0..2).map(|parity| shard(&global, &accuracies, parity, parity == 0)).collect();
        let (sequential, seq_timings) =
            merge_shard_partials(shards.iter().map(Shard::partials).collect(), params);
        assert_eq!(seq_timings.pairs, usize_to_u64(sequential.pairs_considered));
        for workers in [0usize, 1, 2, 3, 8] {
            let rounds = shards.iter().map(Shard::observations).collect();
            let (parallel, timings, ()) =
                merge_shard_rounds_parallel(rounds, &accuracies, params, workers);
            assert_bit_identical(&parallel, &sequential);
            assert_eq!(parallel.outcomes, sequential.outcomes, "{workers} workers");
            assert_eq!(timings.pairs, seq_timings.pairs, "{workers} workers");
            assert_eq!(timings.pruned_pairs, seq_timings.pruned_pairs);
        }
    }

    /// A shard whose local source order is the reverse of the global one,
    /// with non-uniform accuracies (so `C→ ≠ C←`): its partials must be
    /// re-oriented by the global pair. Without the swap in
    /// [`collect_shard_partials_for`] the merged scores come out mirrored.
    #[test]
    fn reversed_shard_partials_are_oriented_by_the_global_pair() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::from_vec(vec![0.9, 0.3, 0.6]).unwrap();
        let expected = baseline(&global, &accuracies);
        assert!(
            expected.outcomes.values().any(|o| o.c_to != o.c_from),
            "the fixture must tell the two directions apart"
        );
        let reversed = shard(&global, &accuracies, 0, true);
        assert_eq!(
            reversed.map.sources,
            vec![SourceId::new(2), SourceId::new(1), SourceId::new(0)]
        );
        let natural = shard(&global, &accuracies, 1, false);
        let (merged, _) =
            merge_shard_partials(vec![reversed.partials(), natural.partials()], params);
        assert_bit_identical(&merged, &expected);
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
        let map = ShardIdMap { sources: global.sources().collect() };
        let counts = SharedItemCounts::build(&global);
        let partials =
            collect_shard_partials_for(&input, &counts, &map, None).expect("consistent counts");
        let (merged, _) = merge_shard_partials(vec![partials], params);
        assert_eq!(merged.outcomes, baseline.outcomes);
    }

    /// Pairs whose merged evidence is empty are pruned (no outcome, no
    /// counter contribution), counted once however many shards carry them.
    #[test]
    fn empty_evidence_pairs_are_pruned() {
        let accuracies = SourceAccuracies::uniform(4, 0.8).unwrap();
        let params = CopyParams::paper_defaults();
        let empty_pair = SourcePair::new(SourceId::from_index(0), SourceId::from_index(3));
        let mut round = ShardRoundEvidence::default();
        round.pairs.insert(empty_pair, Vec::new());
        let (result, timings, ()) =
            merge_shard_rounds_parallel(vec![round.clone(), round], &accuracies, params, 1);
        assert!(result.outcomes.is_empty());
        assert_eq!(result.pairs_considered, 0);
        assert_eq!(result.counter.pair_finalizations, 0);
        assert_eq!(timings.pairs, 0);
        assert_eq!(timings.pruned_pairs, 1);
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
        let map = ShardIdMap { sources: global.sources().collect() };
        // Counts captured from a *smaller* snapshot: S0/S1 share one item
        // fewer than the dataset in `input` says.
        let stale = dataset(&CLAIMS[..CLAIMS.len() - 4]);
        let counts = SharedItemCounts::build(&stale);
        let errors = [
            collect_shard_partials_for(&input, &counts, &map, None).map(|_| ()),
            collect_shard_evidence(&input, &counts, &map).map(|_| ()),
        ];
        for err in errors {
            match err {
                Err(DetectError::ShardEvidenceMismatch { counted, observed, .. }) => {
                    assert_ne!(counted, observed);
                }
                other => panic!("expected ShardEvidenceMismatch, got {other:?}"),
            }
        }
    }

    /// A map too short for the snapshot's ids is a typed error, not an
    /// out-of-bounds panic on the scan thread.
    #[test]
    fn short_id_map_is_a_typed_error() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&global, 0.4).unwrap();
        let input = RoundInput::new(&global, &accuracies, &probabilities, params);
        let counts = SharedItemCounts::build(&global);
        let short_sources = ShardIdMap { sources: global.sources().take(1).collect() };
        let err = collect_shard_partials_for(&input, &counts, &short_sources, None)
            .expect_err("a short source map must fail the scan");
        assert_eq!(err, DetectError::ShardIdMapMismatch { local: 1, mapped: 1 });
    }

    /// Uniform bootstrap state and the identity id map of a single-shard
    /// dataset.
    fn whole(global: &Dataset) -> (SourceAccuracies, ValueProbabilities, ShardIdMap) {
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(global, 0.4).unwrap();
        let map = ShardIdMap { sources: global.sources().collect() };
        (accuracies, probabilities, map)
    }

    /// A pair the snapshot shares but the counts lack is a typed error, not
    /// a pair silently left out of the round.
    #[test]
    fn a_shared_pair_the_counts_lack_is_a_typed_error() {
        let claims = [("A", "D0", "x"), ("B", "D0", "x"), ("C", "D1", "y"), ("A", "D1", "y")];
        let snapshot = dataset(&claims);
        let (accuracies, probabilities, map) = whole(&snapshot);
        let params = CopyParams::paper_defaults();
        let input = RoundInput::new(&snapshot, &accuracies, &probabilities, params);
        // Captured before A claimed D1: same sources, but (A, C) shares nothing.
        let counts = SharedItemCounts::build(&dataset(&claims[..3]));
        let a_c = SourcePair::new(SourceId::new(0), SourceId::new(2));
        assert_eq!(counts.get(a_c), 0);
        for target in [None, Some(SourceId::new(0)), Some(SourceId::new(2))] {
            let err = collect_shard_partials_for(&input, &counts, &map, target)
                .expect_err("an uncounted shared pair must fail the scan");
            assert_eq!(
                err,
                DetectError::ShardEvidenceMismatch { pair: a_c, counted: 0, observed: 1 },
                "target {target:?}"
            );
        }
        // The pair of B and C shares nothing either way: a top-k row of B
        // only meets its counted pair.
        assert!(collect_shard_partials_for(&input, &counts, &map, Some(SourceId::new(1))).is_ok());
    }

    /// A pair the counts list but the snapshot does not share is a typed
    /// error, in the full round and in the row of either of its sources.
    #[test]
    fn a_counted_pair_the_snapshot_lacks_is_a_typed_error() {
        let mut claims = CLAIMS.to_vec();
        claims.push(("S3", "D9", "k"));
        let snapshot = dataset(&claims);
        let (accuracies, probabilities, map) = whole(&snapshot);
        let input =
            RoundInput::new(&snapshot, &accuracies, &probabilities, CopyParams::paper_defaults());
        let mut counts = SharedItemCounts::build(&snapshot);
        let consistent = collect_shard_partials_for(&input, &counts, &map, None).unwrap();
        assert_eq!(consistent.len(), 3);
        counts.increment(SourcePair::new(SourceId::new(1), SourceId::new(3)), 1);
        let err = collect_shard_partials_for(&input, &counts, &map, None).unwrap_err();
        assert_eq!(err, DetectError::ShardPairCountMismatch { counted: 4, scanned: 3 });
        let err =
            collect_shard_partials_for(&input, &counts, &map, Some(SourceId::new(3))).unwrap_err();
        assert_eq!(err, DetectError::ShardPairCountMismatch { counted: 1, scanned: 0 });
        let err =
            collect_shard_partials_for(&input, &counts, &map, Some(SourceId::new(1))).unwrap_err();
        assert_eq!(err, DetectError::ShardPairCountMismatch { counted: 3, scanned: 2 });
    }

    /// Counts covering fewer sources than the snapshot are a typed error,
    /// never an index past the counts table.
    #[test]
    fn counts_over_fewer_sources_are_a_typed_error() {
        let snapshot = dataset(CLAIMS);
        let (accuracies, probabilities, map) = whole(&snapshot);
        let input =
            RoundInput::new(&snapshot, &accuracies, &probabilities, CopyParams::paper_defaults());
        // Two sources only: S2 is beyond the table.
        let counts = SharedItemCounts::build(&dataset(&CLAIMS[..2]));
        assert_eq!(counts.num_sources(), 2);
        for target in [None, Some(SourceId::new(2))] {
            let err = collect_shard_partials_for(&input, &counts, &map, target).unwrap_err();
            assert!(
                matches!(err, DetectError::ShardEvidenceMismatch { .. }),
                "target {target:?}: {err:?}"
            );
        }
        let err =
            collect_shard_partials_for(&input, &counts, &map, Some(SourceId::new(2))).unwrap_err();
        let s0_s2 = SourcePair::new(SourceId::new(0), SourceId::new(2));
        assert_eq!(
            err,
            DetectError::ShardEvidenceMismatch { pair: s0_s2, counted: 0, observed: 2 }
        );
    }

    /// A shard that never saw the target contributes no partials; one that
    /// did contributes exactly the full scan's partials of the target's
    /// pairs.
    #[test]
    fn a_target_absent_from_the_shard_yields_no_partials() {
        let global = dataset(CLAIMS);
        let accuracies = SourceAccuracies::from_vec(vec![0.9, 0.3, 0.6]).unwrap();
        // S2 claims D0 and D3 only.
        let s2 = global.source_by_name("S2").unwrap();
        let without = shard_of(&global, &accuracies, &|d| d == "D1" || d == "D2", true);
        assert!(!without.map.sources.contains(&s2));
        let with = shard_of(&global, &accuracies, &|d| d == "D0" || d == "D3", true);
        let counts = SharedItemCounts::build(&without.dataset);
        let partials =
            collect_shard_partials_for(&without.input(), &counts, &without.map, Some(s2)).unwrap();
        assert!(partials.is_empty());
        // A global id beyond every shard's map is absent too.
        let ghost = Some(SourceId::new(7));
        assert!(collect_shard_partials_for(&without.input(), &counts, &without.map, ghost)
            .unwrap()
            .is_empty());
        for sh in [&without, &with] {
            let counts = SharedItemCounts::build(&sh.dataset);
            for target in global.sources() {
                let mut rows =
                    collect_shard_partials_for(&sh.input(), &counts, &sh.map, Some(target))
                        .unwrap();
                let mut full: ShardPartials =
                    sh.partials().into_iter().filter(|(pair, _)| pair.contains(target)).collect();
                rows.sort_unstable_by_key(|(pair, _)| *pair);
                full.sort_unstable_by_key(|(pair, _)| *pair);
                assert_eq!(rows, full, "target {target}");
            }
        }
    }

    #[test]
    fn empty_rounds_merge_to_an_empty_result() {
        let (merged, _) = merge_shard_partials(vec![Vec::new()], CopyParams::paper_defaults());
        assert!(merged.outcomes.is_empty());
        assert_eq!(merged.pairs_considered, 0);
    }
}
