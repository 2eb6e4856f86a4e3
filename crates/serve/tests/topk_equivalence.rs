//! Top-k query equivalence: for arbitrary claim streams and 1..=4 shards,
//! [`ShardedDetector::detect_topk`] must return **bit-identical** results
//! to extracting the top-k from a full [`detect_round`] — same pairs, same
//! posterior bits, same order — and its counters must be exact: a
//! per-source query evaluates precisely the full round's pairs containing
//! the source, a fleet-wide query precisely all of them, and nothing is
//! pruned.
//!
//! Every generated corpus plants one universal item claimed identically by
//! at least three sources, so the full round always materializes pairs the
//! per-source query must leave out.
//!
//! `COPYDET_TOPK_CASES` scales the proptest case count for the dedicated
//! release-mode CI step.

use copydet_detect::{DetectionResult, PairOutcome};
use copydet_model::{SourceId, SourcePair};
use copydet_serve::{ShardedDetector, ShardedStore};
use proptest::prelude::*;

type Op = (u8, u8, u8);

/// Ingests `ops` plus the universal shared item that guarantees S0, S1 and
/// S2 exist and every source pair shares at least one item.
fn build_store(ops: &[Op], shards: usize) -> ShardedStore {
    let store = ShardedStore::new(shards);
    let mut claims: Vec<(String, String, String)> = ops
        .iter()
        .map(|op| (format!("S{}", op.0), format!("D{}", op.1), format!("v{}", op.2)))
        .collect();
    let mut sources: Vec<String> = claims.iter().map(|(s, _, _)| s.clone()).collect();
    sources.extend(["S0".to_owned(), "S1".to_owned(), "S2".to_owned()]);
    sources.sort();
    sources.dedup();
    for source in sources {
        claims.push((source, "UNIVERSAL".to_owned(), "shared".to_owned()));
    }
    store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
    store
}

/// The reference ranking: filter the full round's materialized pairs to the
/// target (when per-source), order by ascending posterior (most suspicious
/// first) with ties broken by pair id, truncate to `k`. This is the exact
/// semantics `detect_topk` must reproduce without the full round.
fn extract_topk(
    full: &DetectionResult,
    target: Option<SourceId>,
    k: usize,
) -> Vec<(SourcePair, PairOutcome)> {
    let mut ranked: Vec<(SourcePair, PairOutcome)> = full
        .outcomes
        .iter()
        .filter(|(pair, _)| match target {
            Some(t) => pair.first() == t || pair.second() == t,
            None => true,
        })
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

fn assert_topk_equivalence(ops: &[Op], shards: usize, k: usize) {
    let store = build_store(ops, shards);
    let detector = ShardedDetector::new();
    let full = detector.detect_round(&store).expect("consistent capture");

    // Per-source: top-k copiers of S0, bit-identical to the full round.
    let target = store.global_source_id("S0").expect("S0 is always planted");
    let got = detector.detect_topk(&store, "S0", k).expect("consistent capture");
    let expected = extract_topk(&full, Some(target), k);
    assert_eq!(
        got.ranked, expected,
        "{shards} shard(s), k={k}: per-source ranking diverged from the full round"
    );
    // The query's pair universe is exactly the full round's pairs
    // containing S0, every one of them evaluated.
    let with_target = full.outcomes.keys().filter(|pair| pair.contains(target)).count();
    assert_eq!(got.candidates as usize, with_target, "{shards} shard(s), k={k}");

    // Fleet-wide: same contract against the unfiltered extraction.
    let got = detector.detect_topk_fleet(&store, k).expect("consistent capture");
    let expected = extract_topk(&full, None, k);
    assert_eq!(
        got.ranked, expected,
        "{shards} shard(s), k={k}: fleet-wide ranking diverged from the full round"
    );
    assert_eq!(got.candidates as usize, full.pairs_considered, "{shards} shard(s), k={k}");
}

#[test]
fn fixed_skewed_corpus_matches_across_shard_counts_and_k() {
    // A skewed corpus: S0/S1 agree on false values everywhere (the planted
    // copier pair), the rest mostly disagree.
    let mut ops: Vec<Op> = Vec::new();
    for item in 0..12 {
        ops.push((0, item, 200));
        ops.push((1, item, 200));
        ops.push((2, item, item));
        ops.push((3, item, item));
        ops.push((4, item, 100 + item));
    }
    for shards in 1..=4 {
        for k in [1, 5, usize::MAX] {
            assert_topk_equivalence(&ops, shards, k);
        }
    }
}

fn cases() -> u32 {
    std::env::var("COPYDET_TOPK_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary streams, shard counts and k: the top-k query is
    /// bit-identical to full-round extraction, with exact counters.
    #[test]
    fn arbitrary_streams_match_full_round_extraction(
        ops in prop::collection::vec((0u8..8, 0u8..10, 0u8..4), 0..60),
        shards in 1usize..=4,
        k in prop_oneof![Just(1usize), Just(5usize), Just(usize::MAX)],
    ) {
        assert_topk_equivalence(&ops, shards, k);
    }
}
