//! The shard row scan against PAIRWISE: arbitrary claim streams, items
//! split into 1..=4 shards, each with its own shuffled local source order,
//! and one accuracy for every source — the served bootstrap's 0.8 in part
//! of the cases — at which the scan scores each value group once. Merged
//! partials must equal `pairwise_detection` over the whole stream at that
//! accuracy bit for bit — for the full round and for a per-target scan of
//! every source.
//!
//! `COPYDET_SHARD_CASES` scales the case count (default 32).

use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{
    collect_shard_partials_for, merge_shard_partials, pairwise_detection, DetectionResult,
    RoundInput, ShardIdMap, ShardPartials,
};
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

/// One shard: the claims on the items `keep` accepts, in stream order except
/// that sources appear in the order of `rank` (so local source ids are a
/// permutation of the global ones). The sort is stable, so a source's
/// repeated claims on one item keep their order.
struct Shard {
    dataset: Dataset,
    probabilities: ValueProbabilities,
    map: ShardIdMap,
}

fn shard(global: &Dataset, claims: &[Claim], keep: &dyn Fn(u8) -> bool, rank: &[u32]) -> Shard {
    let mut local: Vec<Claim> = claims.iter().copied().filter(|&(_, d, _)| keep(d)).collect();
    local.sort_by_key(|&(s, _, _)| rank[usize::from(s)]);
    let dataset = build(&local);
    let map = ShardIdMap {
        sources: dataset
            .sources()
            .map(|s| global.source_by_name(dataset.source_name(s)).unwrap())
            .collect(),
    };
    let probabilities = probabilities(&dataset);
    Shard { dataset, probabilities, map }
}

fn scan(shards: &[Shard], accuracy: f64, target: Option<SourceId>) -> Vec<ShardPartials> {
    let params = CopyParams::paper_defaults();
    shards
        .iter()
        .map(|sh| {
            let (ds, p) = (&sh.dataset, &sh.probabilities);
            collect_shard_partials_for(ds, p, accuracy, params, &sh.map, target)
                .expect("consistent snapshot")
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

/// Sort keys for the eight source numbers: a shard's claim stream lists
/// its sources by ascending `rank[s]`, ties in stream order.
fn rank_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// One accuracy shared by every source, the served 0.8 or any other:
    /// one score per value group must still give PAIRWISE's bits.
    #[test]
    fn uniform_accuracies_are_bit_identical(
        claims in prop::collection::vec((0u8..8, 0u8..12, 0u8..4), 0..120),
        accuracy in prop_oneof![Just(0.8), 0.05f64..0.95],
        num_shards in 1u8..=4,
        item_shards in prop::collection::vec(0u8..4, 12),
        ranks in prop::collection::vec(rank_strategy(), 4),
    ) {
        let global = build(&claims);
        let params = CopyParams::paper_defaults();
        let table = SourceAccuracies::uniform(global.num_sources(), accuracy).unwrap();
        let baseline =
            pairwise_detection(&RoundInput::new(&global, &table, &probabilities(&global), params));
        let shards: Vec<Shard> = (0..num_shards)
            .map(|i| {
                let keep = |d: u8| item_shards[usize::from(d)] % num_shards == i;
                shard(&global, &claims, &keep, &ranks[usize::from(i)])
            })
            .collect();

        let (merged, _) = merge_shard_partials(scan(&shards, accuracy, None), params);
        assert_bit_identical(&merged, &baseline, None)?;
        for target in global.sources() {
            let (merged, _) = merge_shard_partials(scan(&shards, accuracy, Some(target)), params);
            assert_bit_identical(&merged, &baseline, Some(target))?;
        }
    }
}
