//! Shard-merge equivalence: for arbitrary claim streams, arbitrary batch
//! splits and 1..=4 shards, a [`ShardedDetector`] round over the
//! [`ShardedStore`] must be **bit-identical** to the exact PAIRWISE
//! baseline over a single `DatasetBuilder` build of the same stream — every
//! materialized pair, every directional score, every posterior, bit for
//! bit.
//!
//! `COPYDET_SHARD_CASES` scales the proptest case count for the dedicated
//! release-mode CI step.

use copydet_bayes::{CopyParams, PairEvidence, SourceAccuracies};
use copydet_detect::{
    collect_shard_partials_for, merge_shard_partials, pairwise_detection, DetectionResult,
    RoundInput, ShardPartials,
};
use copydet_detect::{value_probabilities, VoteConfig};
use copydet_model::{Dataset, DatasetBuilder, SourceId, SourcePair};
use copydet_serve::{ShardedDetector, ShardedStore};
use proptest::prelude::*;

type Op = (u8, u8, u8);

fn claim_strings(op: &Op) -> (String, String, String) {
    (format!("S{}", op.0), format!("D{}", op.1), format!("v{}", op.2))
}

fn builder_dataset(ops: &[Op]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for op in ops {
        let (s, d, v) = claim_strings(op);
        b.add_claim(&s, &d, &v);
    }
    b.build()
}

/// The exact single-store baseline with the live pipeline's bootstrap state
/// (uniform 0.8 accuracies, vote probabilities).
fn baseline(ops: &[Op]) -> DetectionResult {
    let ds = builder_dataset(ops);
    let params = CopyParams::paper_defaults();
    let accuracies = SourceAccuracies::uniform(ds.num_sources(), 0.8).unwrap();
    let probabilities = value_probabilities(&ds, &accuracies, None, &VoteConfig::new(params));
    pairwise_detection(&RoundInput::new(&ds, &accuracies, &probabilities, params))
}

/// Feeds `ops` into a sharded store in batches of the given size
/// (exercising arbitrary batch splits), runs one sharded round, and
/// asserts bit-identity against the baseline.
fn assert_equivalence(ops: &[Op], shards: usize, batch: usize) {
    let store = ShardedStore::new(shards);
    for chunk in ops.chunks(batch.max(1)) {
        let claims: Vec<_> = chunk.iter().map(claim_strings).collect();
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
    }

    let expected = baseline(ops);
    let got = ShardedDetector::new().detect_round(&store).expect("consistent capture");
    assert_eq!(
        got.outcomes.len(),
        expected.outcomes.len(),
        "{shards} shard(s), batch {batch}: pair sets differ"
    );
    for (pair, outcome) in &expected.outcomes {
        assert_eq!(
            got.outcomes.get(pair),
            Some(outcome),
            "{shards} shard(s), batch {batch}: pair {pair} diverged from PAIRWISE bitwise"
        );
    }
    assert_eq!(got.counter.score_updates, expected.counter.score_updates);
    assert_eq!(got.counter.pair_finalizations, expected.counter.pair_finalizations);
    assert_eq!(got.shared_values_examined, expected.shared_values_examined);
}

#[test]
fn fixed_stream_with_overwrites_is_equivalent_across_shard_counts() {
    // Includes overwrites (S0/D0 twice), a value shared across items, and a
    // source appearing on every shard.
    let ops: Vec<Op> = vec![
        (0, 0, 0),
        (1, 0, 0),
        (2, 0, 1),
        (0, 1, 2),
        (1, 1, 2),
        (0, 0, 3), // overwrite
        (3, 2, 0),
        (0, 2, 0),
        (2, 3, 1),
        (3, 3, 1),
        (1, 4, 4),
        (0, 4, 4),
    ];
    for shards in 1..=4 {
        assert_equivalence(&ops, shards, 3);
    }
}

#[test]
fn single_claim_and_empty_streams_are_fine() {
    assert_equivalence(&[], 3, 1);
    assert_equivalence(&[(0, 0, 0)], 3, 1);
}

fn cases() -> u32 {
    std::env::var("COPYDET_SHARD_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary streams, shard counts and batch splits: the sharded round
    /// is bit-identical to the single-store PAIRWISE baseline.
    #[test]
    fn arbitrary_streams_are_bit_identical(
        ops in prop::collection::vec((0u8..8, 0u8..10, 0u8..4), 0..80),
        shards in 1usize..=4,
        batch in 1usize..=16,
    ) {
        assert_equivalence(&ops, shards, batch);
    }

    /// The cross-shard merge is order-free: each shard's partials, merged in
    /// shard order and in reverse (each shard's list reversed too), are
    /// bit-identical to the single-store PAIRWISE baseline — including the
    /// pruning of a hand-injected pair whose merged evidence is empty in
    /// every shard (the one shape `collect_shard_partials_for` itself never
    /// emits).
    #[test]
    fn partials_merge_in_any_order_to_the_pairwise_baseline(
        ops in prop::collection::vec((0u8..8, 0u8..10, 0u8..4), 1..80),
        shards in 1usize..=4,
        inject_empty in any::<bool>(),
    ) {
        let store = ShardedStore::new(shards);
        for op in &ops {
            let (s, d, v) = claim_strings(op);
            store.ingest(&s, &d, &v);
        }
        let (captures, _) = store.capture_shards_traced();
        let maps: Vec<_> = captures.iter().map(|s| store.maps_for(s)).collect();
        let live = copydet_eval::LiveDetector::new();
        let mut partials: Vec<ShardPartials> = Vec::new();
        for (snapshot, map) in captures.iter().zip(&maps) {
            let input = live.prepare(snapshot);
            let (ds, p, params) = (&input.dataset, &input.probabilities, input.params);
            partials.push(
                collect_shard_partials_for(ds, p, 0.8, params, &map.ids, None)
                    .expect("consistent capture"),
            );
        }
        if inject_empty {
            // A pair no real evidence mentions, empty in *every* shard: the
            // merge must prune it.
            let n = store.num_sources();
            let ghost = SourcePair::new(SourceId::from_index(n), SourceId::from_index(n + 1));
            for shard in &mut partials {
                shard.push((ghost, PairEvidence::empty()));
            }
        }

        let expected = baseline(&ops);
        let reversed: Vec<ShardPartials> = partials
            .iter()
            .rev()
            .map(|shard| shard.iter().rev().copied().collect())
            .collect();
        for (order, shards_in_order) in [("shard order", partials), ("reverse", reversed)] {
            let (merged, timings) =
                merge_shard_partials(shards_in_order, CopyParams::paper_defaults());
            prop_assert_eq!(
                &merged.outcomes, &expected.outcomes,
                "{} shard(s), {}: outcomes diverged from PAIRWISE", shards, order
            );
            prop_assert_eq!(merged.counter.score_updates, expected.counter.score_updates);
            prop_assert_eq!(
                merged.counter.pair_finalizations,
                expected.counter.pair_finalizations
            );
            prop_assert_eq!(merged.shared_values_examined, expected.shared_values_examined);
            prop_assert_eq!(merged.pairs_considered, expected.pairs_considered);
            prop_assert_eq!(timings.pruned_pairs, u64::from(inject_empty), "{}", order);
        }
    }

    /// The same through per-claim `ingest` (no batching) with
    /// auto-sealing shard maintenance mixed in.
    #[test]
    fn unbatched_ingest_with_maintenance_is_bit_identical(
        ops in prop::collection::vec((0u8..6, 0u8..8, 0u8..3), 1..48),
        shards in 2usize..=4,
    ) {
        let store = ShardedStore::new(shards);
        for (i, op) in ops.iter().enumerate() {
            let (s, d, v) = claim_strings(op);
            store.ingest(&s, &d, &v);
            if i % 7 == 6 {
                store.maintenance_tick(4, 2);
            }
        }
        let expected = baseline(&ops);
        let got = ShardedDetector::new().detect_round(&store).expect("consistent capture");
        prop_assert_eq!(got.outcomes.len(), expected.outcomes.len());
        for (pair, outcome) in &expected.outcomes {
            prop_assert_eq!(got.outcomes.get(pair), Some(outcome), "pair {} diverged", pair);
        }
    }
}
