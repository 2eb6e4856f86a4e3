//! The shard row scan against PAIRWISE: arbitrary claim streams, items
//! split into 1..=4 shards, each with its own shuffled local source order.
//! Merged partials must equal `pairwise_detection` over the whole stream
//! bit for bit — for the full round and for a per-target scan of every
//! source. One proptest draws non-uniform accuracies (so a claim's score is
//! re-evaluated whenever a neighbour's accuracy differs); the other gives
//! every source one accuracy, the served bootstrap's case, where the scan
//! scores each value group once.
//!
//! `COPYDET_SHARD_CASES` scales the case count (default 32).

use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{
    collect_shard_partials_for, merge_shard_partials, pairwise_detection, DetectionResult,
    RoundInput, ShardIdMap, ShardPartials,
};
use copydet_index::SharedItemCounts;
use copydet_model::{Dataset, DatasetBuilder, SourceId};
use proptest::prelude::*;

type Claim = (u8, u8, u8);

fn build(claims: &[Claim]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for (s, d, v) in claims {
        b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
    }
    b.build()
}

/// The truth probability of a value, a function of its names only, so every
/// shard assigns a value the probability the whole stream gives it.
fn probability(item: &str, value: &str) -> f64 {
    let key = item.bytes().chain(value.bytes()).fold(7u64, |h, b| h * 31 + u64::from(b));
    0.02 + 0.9 * ((key % 97) as f64 / 97.0)
}

fn probabilities(ds: &Dataset) -> ValueProbabilities {
    let mut table = ValueProbabilities::new(ds.num_items());
    for group in ds.groups() {
        let p = probability(ds.item_name(group.item), ds.value_str(group.value));
        table.set(group.item, group.value, p).unwrap();
    }
    table
}

/// The accuracy a source gets from the generated per-number table.
fn accuracy_of(name: &str, accuracies: &[f64]) -> f64 {
    name.strip_prefix('S').and_then(|n| n.parse::<usize>().ok()).map_or(0.5, |n| accuracies[n])
}

/// One shard: the claims on the items `keep` accepts, in stream order except
/// that sources appear in the order of `rank` (so local source ids are a
/// permutation of the global ones). The sort is stable, so a source's
/// repeated claims on one item keep their order.
struct Shard {
    dataset: Dataset,
    accuracies: SourceAccuracies,
    probabilities: ValueProbabilities,
    map: ShardIdMap,
}

fn shard(
    global: &Dataset,
    claims: &[Claim],
    accuracies: &[f64],
    keep: &dyn Fn(u8) -> bool,
    rank: &[u32],
) -> Shard {
    let mut local: Vec<Claim> = claims.iter().copied().filter(|&(_, d, _)| keep(d)).collect();
    local.sort_by_key(|&(s, _, _)| rank[usize::from(s)]);
    let dataset = build(&local);
    let map = ShardIdMap {
        sources: dataset
            .sources()
            .map(|s| global.source_by_name(dataset.source_name(s)).unwrap())
            .collect(),
    };
    let accuracies = SourceAccuracies::from_vec(
        dataset.sources().map(|s| accuracy_of(dataset.source_name(s), accuracies)).collect(),
    )
    .unwrap();
    let probabilities = probabilities(&dataset);
    Shard { dataset, accuracies, probabilities, map }
}

fn scan(shards: &[Shard], target: Option<SourceId>) -> Vec<ShardPartials> {
    shards
        .iter()
        .map(|sh| {
            let input = RoundInput::new(
                &sh.dataset,
                &sh.accuracies,
                &sh.probabilities,
                CopyParams::paper_defaults(),
            );
            let counts = SharedItemCounts::build(&sh.dataset);
            collect_shard_partials_for(&input, &counts, &sh.map, target).expect("consistent counts")
        })
        .collect()
}

fn assert_bit_identical(
    merged: &DetectionResult,
    baseline: &DetectionResult,
    target: Option<SourceId>,
) -> Result<(), TestCaseError> {
    let expected: Vec<_> = baseline
        .outcomes
        .iter()
        .filter(|(pair, _)| target.is_none_or(|t| pair.contains(t)))
        .collect();
    prop_assert_eq!(merged.outcomes.len(), expected.len(), "target {:?}", target);
    for (pair, outcome) in expected {
        let got = merged.outcomes.get(pair);
        prop_assert_eq!(got, Some(outcome), "pair {} target {:?}", pair, target);
        if let Some(got) = got {
            prop_assert_eq!(got.c_to.to_bits(), outcome.c_to.to_bits());
            prop_assert_eq!(got.c_from.to_bits(), outcome.c_from.to_bits());
        }
    }
    if target.is_none() {
        prop_assert_eq!(merged.counter.score_updates, baseline.counter.score_updates);
        prop_assert_eq!(merged.counter.pair_finalizations, baseline.counter.pair_finalizations);
        prop_assert_eq!(merged.shared_values_examined, baseline.shared_values_examined);
    }
    Ok(())
}

fn cases() -> u32 {
    std::env::var("COPYDET_SHARD_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(32)
}

/// Per-source accuracies: a shared default mixed with arbitrary values, so
/// rows meet runs of equal neighbours (score reused) and changes (rescored).
fn accuracies_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(prop_oneof![Just(0.8), 0.05f64..0.95], 8)
}

/// Sort keys for the eight source numbers: a shard's claim stream lists
/// its sources by ascending `rank[s]`, ties in stream order.
fn rank_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn shard_row_scans_merge_to_pairwise_bit_for_bit(
        claims in prop::collection::vec((0u8..8, 0u8..12, 0u8..4), 0..120),
        accuracies in accuracies_strategy(),
        num_shards in 1u8..=4,
        item_shards in prop::collection::vec(0u8..4, 12),
        ranks in prop::collection::vec(rank_strategy(), 4),
    ) {
        let global = build(&claims);
        let params = CopyParams::paper_defaults();
        let table = SourceAccuracies::from_vec(
            global.sources().map(|s| accuracy_of(global.source_name(s), &accuracies)).collect(),
        )
        .unwrap();
        let baseline =
            pairwise_detection(&RoundInput::new(&global, &table, &probabilities(&global), params));
        let shards: Vec<Shard> = (0..num_shards)
            .map(|i| {
                let keep = |d: u8| item_shards[usize::from(d)] % num_shards == i;
                shard(&global, &claims, &accuracies, &keep, &ranks[usize::from(i)])
            })
            .collect();

        let (merged, _) = merge_shard_partials(scan(&shards, None), params);
        assert_bit_identical(&merged, &baseline, None)?;
        for target in global.sources() {
            let (merged, _) = merge_shard_partials(scan(&shards, Some(target)), params);
            assert_bit_identical(&merged, &baseline, Some(target))?;
        }
    }

    /// One accuracy shared by every source: the scan takes its uniform
    /// path, one score per value group, and must still give PAIRWISE's
    /// bits.
    #[test]
    fn uniform_accuracies_are_bit_identical(
        claims in prop::collection::vec((0u8..8, 0u8..12, 0u8..4), 0..120),
        accuracy in 0.05f64..0.95,
        num_shards in 1u8..=4,
        item_shards in prop::collection::vec(0u8..4, 12),
        ranks in prop::collection::vec(rank_strategy(), 4),
    ) {
        let accuracies = [accuracy; 8];
        let global = build(&claims);
        let params = CopyParams::paper_defaults();
        let table = SourceAccuracies::from_vec(
            global.sources().map(|s| accuracy_of(global.source_name(s), &accuracies)).collect(),
        )
        .unwrap();
        let baseline =
            pairwise_detection(&RoundInput::new(&global, &table, &probabilities(&global), params));
        let shards: Vec<Shard> = (0..num_shards)
            .map(|i| {
                let keep = |d: u8| item_shards[usize::from(d)] % num_shards == i;
                shard(&global, &claims, &accuracies, &keep, &ranks[usize::from(i)])
            })
            .collect();

        let (merged, _) = merge_shard_partials(scan(&shards, None), params);
        assert_bit_identical(&merged, &baseline, None)?;
        for target in global.sources() {
            let (merged, _) = merge_shard_partials(scan(&shards, Some(target)), params);
            assert_bit_identical(&merged, &baseline, Some(target))?;
        }
    }
}
