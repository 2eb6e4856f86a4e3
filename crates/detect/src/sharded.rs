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
//! **row scan** over an item-flat layout: one provider list per item,
//! sorted by local source id, each entry tagged with its value group. Each
//! source, in ascending order, walks the entries after its own in the lists
//! of the items it claims into a per-neighbour accumulator, and emits one
//! [`PairEvidence`] partial per neighbour, keyed by the **global** pair.
//! The scan runs at the round's one accuracy — the paper's bootstrap, the
//! only round the server runs — so a value group's shared-value score
//! (Eq. 6) is computed once for every pair in it, and `C→ = C←`: a partial
//! reads the same in either orientation. The scan checks the snapshot it
//! is handed: a claim whose item lists no entry for it is a typed error.
//! [`PairEvidence`] sums are exact fixed-point integers, so adding the
//! partials in any order
//! ([`merge_shard_partials`]) gives the bits one pass of
//! `ScoringContext::score_pair` over a single store gives at that accuracy.
//! The merge is **bit-identical** to `pairwise_detection` without replaying
//! any item order.
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
//! [`value_probabilities`](crate::value_probabilities) depends on each
//! item's set of value groups, not on their (shard-local) order, so a shard
//! driver votes its own snapshot and gets the bits a single store would —
//! see `copydet-serve`.
//!
//! [`collect_shard_evidence`] and [`merge_shard_rounds_parallel`] keep the
//! older observation-shipping shape — one [`SharedItemObservation`] per
//! shared item — for benchmark replays. The serving path uses neither.

use crate::api::RoundInput;
use crate::error::DetectError;
use crate::result::{DetectionResult, PairOutcome};
use copydet_bayes::{
    CopyDecision, CopyParams, PairEvidence, SameValueScore, SourceAccuracies, ValueProbabilities,
};
use copydet_index::SharedItemCounts;
use copydet_model::codec::{u32_to_usize, usize_to_u64};
use copydet_model::{Dataset, ItemId, ItemValueGroup, SourceId, SourcePair};
use std::collections::HashMap;
use std::time::Instant;

/// Translation from one shard's dense source ids to the global source id
/// space — the only global id space: items and values keep shard-local ids,
/// since no pair's evidence depends on them.
///
/// Index `i` holds the global id of the shard's local source `i`. The map
/// is built by the sharded store, which interns every source globally in
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
/// pair, partial)`. Each partial has `C→ = C←` (the scan runs at one
/// accuracy), so it reads the same in either orientation of the pair.
pub type ShardPartials = Vec<(SourcePair, PairEvidence)>;

/// Scores one shard's pairs at the round's one `accuracy`: for every pair
/// that shares an item in this shard and — when `target` is set — contains
/// `target`, the pair's partial evidence over the shard's items.
///
/// The scan walks **rows**, not pairs. The full round takes every local
/// source `s` as a row, in ascending order; a top-k query takes only the
/// target's local id (a shard that never saw the target contributes
/// nothing). Before the rows, the scan lays out one provider list per item
/// — the item's providers merged across its value groups, sorted by local
/// source id, each entry tagged with its group — over every item in the
/// full round and over the target's items in a top-k row. A claim `(d, v)`
/// of `s` finds its own entry in `d`'s list (in the full round a cursor per
/// item always sits on it, since rows ascend; a top-k row searches for it)
/// and walks the entries after it — every entry but its own in a top-k row —
/// into an O(sources) scratch indexed by the neighbour `t`: every entry
/// counts a shared item, and an entry tagged with the row's own group adds
/// the group's rounded [`SameValueScore`] (Eq. 6). In the full round each
/// shared item of a pair is thus met once, from the pair's lower source's
/// row.
///
/// Every source has `accuracy`, so the score of a value group is the same
/// for every pair in it, and `C→ = C←`: it is computed once per group with
/// at least two providers, and the scratch is three per-neighbour arrays —
/// shared items, same-value items and one integer score sum. After each
/// row, every touched `t` yields one partial, keyed by the **global** pair:
/// the different-value items (shared minus same-value) are added in one
/// exact multiply (Eq. 8), as `ScoringContext::score_pair` does. Integer
/// sums make it bit-identical to `score_pair` over the same state with
/// every source at `accuracy`.
///
/// `probabilities` are the shard-local truth probabilities. `partials` is
/// reserved at the bound the provider lists' lengths k_d give, in O(items):
/// min(C(n, 2), Σ C(k_d, 2)) over n sources in the full round, and
/// min(n − 1, Σ (k_d − 1)) in a top-k row, so it never grows. The provider
/// lists are freed before this returns.
///
/// # Errors
/// On the serving path each is a recoverable request failure, not a dead
/// round thread.
/// [`DetectError::ShardClaimUnlisted`] if a claim's item lists no entry
/// for it (a snapshot whose claim lists and value groups disagree).
/// [`DetectError::ShardIdMapMismatch`] if `map` does not cover a scanned
/// source.
pub fn collect_shard_partials_for(
    dataset: &Dataset,
    probabilities: &ValueProbabilities,
    accuracy: f64,
    params: CopyParams,
    map: &ShardIdMap,
    target: Option<SourceId>,
) -> Result<ShardPartials, DetectError> {
    let row = match target {
        None => None,
        Some(target) => {
            let Some(row) =
                dataset.sources().find(|&s| map.sources.get(s.index()) == Some(&target))
            else {
                return Ok(Vec::new());
            };
            Some(row)
        }
    };
    let lists = ProviderLists::build(dataset, row);
    let reserved = lists.max_pairs(dataset.num_sources(), row);
    let mut out = Emitter { map, params, partials: Vec::with_capacity(reserved) };
    lists.walk(dataset, probabilities, accuracy, row, &mut out)?;
    Ok(out.partials)
}

/// One provider of an item in [`ProviderLists`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    source: SourceId,
    /// Index of the provider's value group in [`ProviderLists::groups`].
    group: u32,
}

/// One shard's providers per item for one scan, in one flat array: the
/// `i`-th listed item's providers — merged across its value groups, sorted
/// by local source id, each tagged with its group — are
/// `entries[starts[i]..starts[i + 1]]`. The full round lists every item
/// (list `i` is item `i`); a top-k row lists the items of its own claims,
/// in claim order.
struct ProviderLists<'a> {
    starts: Vec<usize>,
    entries: Vec<Entry>,
    /// The value groups the entries name, in listing order.
    groups: Vec<&'a ItemValueGroup>,
}

impl<'a> ProviderLists<'a> {
    /// Lists every item of `dataset`, or only the items `row` claims.
    ///
    /// Entries carry a `u32` group index; should a shard ever hold more
    /// groups than that indexes, listing stops, and the scan fails on the
    /// first claim whose item went unlisted
    /// ([`DetectError::ShardClaimUnlisted`]).
    fn build(dataset: &'a Dataset, row: Option<SourceId>) -> Self {
        let items: Box<dyn Iterator<Item = ItemId> + '_> = match row {
            None => Box::new(dataset.items()),
            Some(s) => Box::new(dataset.claims_of(s).iter().map(|&(d, _)| d)),
        };
        let mut lists = Self { starts: vec![0], entries: Vec::new(), groups: Vec::new() };
        if row.is_none() {
            lists.starts.reserve(dataset.num_items());
            lists.entries.reserve(dataset.num_claims());
        }
        for d in items {
            let run = lists.entries.len();
            for group in dataset.values_of_item(d) {
                let Ok(tag) = u32::try_from(lists.groups.len()) else { return lists };
                lists.groups.push(group);
                let tagged = group.providers.iter().map(|&source| Entry { source, group: tag });
                lists.entries.extend(tagged);
            }
            if let Some(run) = lists.entries.get_mut(run..) {
                run.sort_unstable_by_key(|entry| entry.source);
            }
            lists.starts.push(lists.entries.len());
        }
        lists
    }

    /// The `i`-th listed item's providers, or `None` past the last list.
    fn list(&self, i: usize) -> Option<&[Entry]> {
        let (&start, &end) = (self.starts.get(i)?, self.starts.get(i + 1)?);
        self.entries.get(start..end)
    }

    /// The most pairs a scan of these lists over `sources` sources can
    /// emit, from the list lengths k_d alone: min(C(sources, 2),
    /// Σ C(k_d, 2)) for the full round, and min(sources − 1, Σ (k_d − 1))
    /// for the top-k `row`, whose lists each hold its own entry. O(items).
    fn max_pairs(&self, sources: usize, row: Option<SourceId>) -> usize {
        let lengths = self.starts.windows(2).map(|bounds| match *bounds {
            [start, end] => end.saturating_sub(start),
            _ => 0,
        });
        let pairs_of = |k: usize| k.saturating_mul(k.saturating_sub(1)) / 2;
        match row {
            None => lengths.map(pairs_of).fold(0, usize::saturating_add).min(pairs_of(sources)),
            Some(_) => lengths
                .map(|k| k.saturating_sub(1))
                .fold(0, usize::saturating_add)
                .min(sources.saturating_sub(1)),
        }
    }

    /// Walks the rows — every source in ascending order, or `row` alone —
    /// feeding each claim's neighbours to a [`Scratch`] that scores at
    /// `accuracy`, and emitting after each row.
    fn walk(
        &self,
        dataset: &Dataset,
        probabilities: &ValueProbabilities,
        accuracy: f64,
        row: Option<SourceId>,
        out: &mut Emitter<'_>,
    ) -> Result<(), DetectError> {
        let sources = dataset.num_sources();
        let scratch = &mut Scratch::new(self, row, probabilities, accuracy, &out.params, sources);
        let unlisted = |s: SourceId, d: ItemId| DetectError::ShardClaimUnlisted {
            source: s.index(),
            item: d.index(),
        };
        if let Some(s) = row {
            for (i, &(d, _)) in dataset.claims_of(s).iter().enumerate() {
                let list = self.list(i).unwrap_or_default();
                let own = list.binary_search_by_key(&s, |entry| entry.source);
                let split = own.ok().and_then(|own| list.split_at_checked(own));
                let Some((below, [mine, above @ ..])) = split else { return Err(unlisted(s, d)) };
                scratch.claim(mine.group);
                scratch.visit(below);
                scratch.visit(above);
            }
            return scratch.emit(s, out);
        }
        // Rows ascend, so the cursor of an item sits on the current row's
        // entry: every lower provider has moved it one step.
        let mut cursors = self.starts.clone();
        for s in dataset.sources() {
            for &(d, _) in dataset.claims_of(s) {
                let i = d.index();
                let (Some(cursor), Some(&end)) = (cursors.get_mut(i), self.starts.get(i + 1))
                else {
                    return Err(unlisted(s, d));
                };
                let Some([mine, above @ ..]) = self.entries.get(*cursor..end) else {
                    return Err(unlisted(s, d));
                };
                if mine.source != s {
                    return Err(unlisted(s, d));
                }
                *cursor += 1;
                scratch.claim(mine.group);
                scratch.visit(above);
            }
            scratch.emit(s, out)?;
        }
        Ok(())
    }
}

/// A row's per-neighbour scratch: each listed group's score computed once,
/// and per neighbour a shared-item count, a same-value count and an exact
/// score sum in 2⁻⁶⁰ units.
struct Scratch {
    /// [`SameValueScore::uniform_units`] of each listed group a row can
    /// share (0 for a group no pair scores).
    scores: Vec<i128>,
    /// The current claim's group and its score.
    group: u32,
    score: i128,
    shared: Vec<u32>,
    same: Vec<u32>,
    sum: Vec<i128>,
    /// The neighbours the current row touched, in first-touch order.
    touched: Vec<SourceId>,
}

impl Scratch {
    /// Scores every listed group with at least two providers — only the
    /// groups `row` provides, for a top-k row — at `accuracy`, over a shard
    /// of `sources` sources.
    fn new(
        lists: &ProviderLists<'_>,
        row: Option<SourceId>,
        probabilities: &ValueProbabilities,
        accuracy: f64,
        params: &CopyParams,
        sources: usize,
    ) -> Self {
        let scored = |group: &ItemValueGroup| {
            group.support() >= 2 && row.is_none_or(|s| group.providers.binary_search(&s).is_ok())
        };
        let scores = lists
            .groups
            .iter()
            .map(|&group| {
                if scored(group) {
                    let p = probabilities.get(group.item, group.value);
                    SameValueScore::uniform_units(p, accuracy, params)
                } else {
                    0
                }
            })
            .collect();
        Self {
            scores,
            group: 0,
            score: 0,
            shared: vec![0; sources],
            same: vec![0; sources],
            sum: vec![0; sources],
            touched: Vec::new(),
        }
    }

    /// Starts a claim whose own entry is tagged `group`.
    fn claim(&mut self, group: u32) {
        self.group = group;
        self.score = self.scores.get(u32_to_usize(group)).copied().unwrap_or(0);
    }

    /// Adds one shared item with each of `entries`' providers. Kept out of
    /// the walk, so the loop's state stays in registers.
    #[inline(never)]
    fn visit(&mut self, entries: &[Entry]) {
        let Self { group, score, shared, same, sum, touched, .. } = self;
        let (group, score) = (*group, *score);
        // Slices of equal length: one bounds check covers all three.
        let shared = shared.as_mut_slice();
        let n = shared.len();
        let (Some(same), Some(sum)) = (same.get_mut(..n), sum.get_mut(..n)) else { return };
        for entry in entries {
            let t = entry.source.index();
            let (Some(shared), Some(same), Some(sum)) =
                (shared.get_mut(t), same.get_mut(t), sum.get_mut(t))
            else {
                continue;
            };
            if *shared == 0 {
                touched.push(entry.source);
            }
            *shared += 1;
            let equal = entry.group == group;
            *same += u32::from(equal);
            // A mask, not a branch: whether a neighbour shares the value is
            // data, not a pattern. Below 2¹²⁶ units for any u32 count of
            // clamped scores, so a plain add gives the saturating sum's bits.
            *sum += score & -i128::from(equal);
        }
    }

    /// Emits one partial per neighbour row `s` touched, and resets.
    fn emit(&mut self, s: SourceId, out: &mut Emitter<'_>) -> Result<(), DetectError> {
        for t in self.touched.drain(..) {
            let i = t.index();
            let (Some(shared), Some(same), Some(sum)) =
                (self.shared.get_mut(i), self.same.get_mut(i), self.sum.get_mut(i))
            else {
                continue;
            };
            let (shared, same, sum) =
                (std::mem::take(shared), std::mem::take(same), std::mem::take(sum));
            let different = u32_to_usize(shared.saturating_sub(same));
            let evidence =
                PairEvidence::from_uniform_sum(sum, u32_to_usize(same), different, &out.params);
            out.push(SourcePair::new(s, t), evidence)?;
        }
        Ok(())
    }
}

/// Where rows emit: each local pair keyed by its global pair.
struct Emitter<'a> {
    map: &'a ShardIdMap,
    params: CopyParams,
    partials: ShardPartials,
}

impl Emitter<'_> {
    /// The partial of the local pair `local`, keyed by its global pair.
    /// `C→ = C←`, so the global ids' order does not matter.
    fn push(&mut self, local: SourcePair, evidence: PairEvidence) -> Result<(), DetectError> {
        let global = self.map.pair(local)?;
        self.partials.push((global, evidence));
        Ok(())
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

/// Collects one shard's overlap evidence as observations: for each pair
/// `counts` names, every item the two sources share in `input`'s snapshot,
/// left unscored as a [`SharedItemObservation`] carrying the truth
/// probability of the agreed value, keyed by the global pair `map`
/// translates.
///
/// # Errors
/// [`DetectError::ShardIdMapMismatch`] if `map` does not cover a named
/// source.
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

    /// The one accuracy every test round runs at: the served bootstrap's.
    const ACCURACY: f64 = 0.8;

    /// The shard scan of `input`'s snapshot at [`ACCURACY`].
    fn scan(
        input: &RoundInput<'_>,
        map: &ShardIdMap,
        target: Option<SourceId>,
    ) -> Result<ShardPartials, DetectError> {
        let RoundInput { dataset, probabilities, params, .. } = *input;
        collect_shard_partials_for(dataset, probabilities, ACCURACY, params, map, target)
    }

    /// One shard of `CLAIMS`: the items of the given id parity, rebuilt with
    /// shard-local ids — in reverse source order when `reverse_sources` —
    /// plus its id map, at [`ACCURACY`].
    struct Shard {
        dataset: Dataset,
        map: ShardIdMap,
        accuracies: SourceAccuracies,
        probabilities: ValueProbabilities,
    }

    fn shard(global: &Dataset, parity: u32, reverse_sources: bool) -> Shard {
        let keep = |d: &str| global.item_by_name(d).unwrap().raw() % 2 == parity;
        shard_of(global, &keep, reverse_sources)
    }

    /// The shard of `CLAIMS` holding the items `keep` accepts.
    fn shard_of(global: &Dataset, keep: &dyn Fn(&str) -> bool, reverse_sources: bool) -> Shard {
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
        let accuracies = SourceAccuracies::uniform(dataset.num_sources(), ACCURACY).unwrap();
        // The uniform default agrees bitwise with the global table's.
        let probabilities = ValueProbabilities::uniform_over_dataset(&dataset, 0.4).unwrap();
        Shard { dataset, map, accuracies, probabilities }
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
            scan(&self.input(), &self.map, None).expect("consistent snapshot")
        }

        fn observations(&self) -> ShardRoundEvidence {
            let counts = SharedItemCounts::build(&self.dataset);
            collect_shard_evidence(&self.input(), &counts, &self.map).expect("a covering map")
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
        let accuracies = SourceAccuracies::uniform(global.num_sources(), ACCURACY).unwrap();
        let expected = baseline(&global, &accuracies);
        let shards: Vec<Shard> = (0..2).map(|parity| shard(&global, parity, false)).collect();

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
        let accuracies = SourceAccuracies::uniform(global.num_sources(), ACCURACY).unwrap();
        let shards: Vec<Shard> = (0..2).map(|parity| shard(&global, parity, parity == 0)).collect();
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
        let partials = scan(&input, &map, None).expect("consistent snapshot");
        let (merged, _) = merge_shard_partials(vec![partials], params);
        assert_eq!(merged.outcomes, baseline.outcomes);
    }

    /// Pairs whose merged evidence is empty are pruned (no outcome, no
    /// counter contribution), counted once however many shards carry them.
    #[test]
    fn empty_evidence_pairs_are_pruned() {
        let accuracies = SourceAccuracies::uniform(4, ACCURACY).unwrap();
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

    /// A map too short for the snapshot's ids is a typed error, not an
    /// out-of-bounds panic on the scan thread.
    #[test]
    fn short_id_map_is_a_typed_error() {
        let global = dataset(CLAIMS);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(global.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&global, 0.4).unwrap();
        let input = RoundInput::new(&global, &accuracies, &probabilities, params);
        let short_sources = ShardIdMap { sources: global.sources().take(1).collect() };
        let err =
            scan(&input, &short_sources, None).expect_err("a short source map must fail the scan");
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

    /// A shard that never saw the target contributes no partials; one that
    /// did contributes exactly the full scan's partials of the target's
    /// pairs. Every partial has `C→ = C←` bit for bit, so its orientation
    /// does not matter — though both shards order their sources the other
    /// way round from the global ids.
    #[test]
    fn a_target_absent_from_the_shard_yields_no_partials() {
        let global = dataset(CLAIMS);
        // S2 claims D0 and D3 only.
        let s2 = global.source_by_name("S2").unwrap();
        let without = shard_of(&global, &|d| d == "D1" || d == "D2", true);
        assert!(!without.map.sources.contains(&s2));
        let with = shard_of(&global, &|d| d == "D0" || d == "D3", true);
        let partials = scan(&without.input(), &without.map, Some(s2)).unwrap();
        assert!(partials.is_empty());
        // A global id beyond every shard's map is absent too.
        let ghost = Some(SourceId::new(7));
        assert!(scan(&without.input(), &without.map, ghost).unwrap().is_empty());
        for sh in [&without, &with] {
            for target in global.sources() {
                let mut rows = scan(&sh.input(), &sh.map, Some(target)).unwrap();
                let mut full: ShardPartials =
                    sh.partials().into_iter().filter(|(pair, _)| pair.contains(target)).collect();
                rows.sort_unstable_by_key(|(pair, _)| *pair);
                full.sort_unstable_by_key(|(pair, _)| *pair);
                assert_eq!(rows, full, "target {target}");
                for (pair, evidence) in &rows {
                    assert_eq!(evidence.c_to().to_bits(), evidence.c_from().to_bits(), "{pair}");
                }
            }
        }
    }

    /// A claim whose item lists no entry for it fails the walk with a
    /// typed error instead of reading another source's entry: in the full
    /// round (the cursor finds someone else) and in a top-k row (the search
    /// finds nothing).
    #[test]
    fn a_missing_own_entry_is_a_typed_error() {
        let global = dataset(CLAIMS);
        let (accuracies, probabilities, map) = whole(&global);
        let input =
            RoundInput::new(&global, &accuracies, &probabilities, CopyParams::paper_defaults());
        let s0 = global.source_by_name("S0").unwrap();
        for row in [None, Some(s0)] {
            let mut lists = ProviderLists::build(&global, row);
            // Drop S0's entry from the first list (D0 in either layout).
            assert_eq!(lists.entries.first().map(|e| e.source), Some(s0));
            lists.entries.remove(0);
            for start in lists.starts.iter_mut().skip(1) {
                *start -= 1;
            }
            let mut out = Emitter { map: &map, params: input.params, partials: Vec::new() };
            let err = lists.walk(&global, &probabilities, ACCURACY, row, &mut out).unwrap_err();
            assert_eq!(err, DetectError::ShardClaimUnlisted { source: 0, item: 0 });
        }
    }

    /// The reservation bound is never below what a scan emits: in the full
    /// round and in every top-k row of both `CLAIMS` shards. On all of
    /// `CLAIMS`, where every pair of sources shares an item, it is exact.
    #[test]
    fn max_pairs_bounds_the_emitted_partials() {
        let global = dataset(CLAIMS);
        let bound = |sh: &Shard, row: Option<SourceId>| {
            ProviderLists::build(&sh.dataset, row).max_pairs(sh.dataset.num_sources(), row)
        };
        let scanned = |sh: &Shard, row: Option<SourceId>| {
            let target = row.map(|s| sh.map.sources[s.index()]);
            scan(&sh.input(), &sh.map, target).unwrap().len()
        };
        for parity in 0..2 {
            let sh = shard(&global, parity, parity == 1);
            for row in std::iter::once(None).chain(sh.dataset.sources().map(Some)) {
                assert!(scanned(&sh, row) <= bound(&sh, row), "parity {parity}, row {row:?}");
            }
        }
        let everything = shard_of(&global, &|_| true, false);
        for row in std::iter::once(None).chain(everything.dataset.sources().map(Some)) {
            assert_eq!(scanned(&everything, row), bound(&everything, row), "row {row:?}");
        }
    }

    #[test]
    fn empty_rounds_merge_to_an_empty_result() {
        let (merged, _) = merge_shard_partials(vec![Vec::new()], CopyParams::paper_defaults());
        assert!(merged.outcomes.is_empty());
        assert_eq!(merged.pairs_considered, 0);
    }
}
