//! The acceptance test for delta-driven live detection: after ingesting N
//! claims, sealing, and ingesting a small delta, `snapshot()` + delta-driven
//! incremental detection must produce the same copy decisions as a
//! from-scratch HYBRID run on the full claim set — while the recorded
//! `ComputationCounter` shows strictly fewer pair recomputations.

use copydet_detect::{pairwise_detection, RoundInput};
use copydet_eval::{CopyDetector, HybridDetector, LiveDetector};
use copydet_store::{ClaimStore, DatasetDelta};
use std::collections::BTreeSet;

#[test]
fn delta_round_matches_from_scratch_hybrid_with_fewer_computations() {
    // N initial claims from the Book-CS-shaped preset.
    let synth = copydet_synth::presets::book_cs(0.2, 20260728);
    let mut store = ClaimStore::new();
    for c in synth.dataset.claim_refs() {
        store.ingest(c.source, c.item, c.value);
    }
    let mut live = LiveDetector::new();
    let snap1 = store.snapshot();
    let n = snap1.dataset.num_claims();
    assert!(n > 1000, "workload should be non-trivial, got {n} claims");
    let warmup = live.observe(&snap1);
    store.seal();

    // A small delta: a brand-new source copying part of an existing
    // mid-coverage source, a handful of changed values on mid-coverage
    // sources, and one brand-new item.
    let donor = snap1
        .dataset
        .sources()
        .filter(|&s| snap1.dataset.coverage(s) >= 30)
        .min_by_key(|&s| snap1.dataset.coverage(s))
        .expect("a source with ≥30 claims exists");
    let donor_claims: Vec<(String, String)> = snap1
        .dataset
        .claims_of(donor)
        .iter()
        .take(30)
        .map(|&(d, v)| {
            (snap1.dataset.item_name(d).to_owned(), snap1.dataset.value_str(v).to_owned())
        })
        .collect();
    for (item, value) in &donor_claims {
        store.ingest("live-copier", item, value);
    }
    let changed: Vec<_> = snap1
        .dataset
        .sources()
        .filter(|&s| {
            let c = snap1.dataset.coverage(s);
            (5..30).contains(&c) && s != donor
        })
        .take(8)
        .collect();
    assert!(!changed.is_empty());
    for &source in &changed {
        let &(d, _) = snap1.dataset.claims_of(source).last().unwrap();
        store.ingest(
            snap1.dataset.source_name(source),
            snap1.dataset.item_name(d),
            "freshly-changed-value",
        );
    }
    store.ingest("live-copier", "brand-new-item", "brand-new-value");
    store.ingest(snap1.dataset.source_name(changed[0]), "brand-new-item", "brand-new-value");

    let snap2 = store.snapshot();
    let delta = DatasetDelta::between(&snap1.dataset, &snap2.dataset);
    assert!(delta.len() >= 30, "the delta covers the new claims");
    assert!(
        (delta.len() as f64) < 0.05 * n as f64,
        "the delta must be small relative to the corpus"
    );

    // Delta-driven incremental round.
    let incremental = live.observe(&snap2);
    let stats = live.round_stats().last().copied().expect("delta round records stats");
    assert!(stats.delta_recomputed > 0);
    assert!(
        stats.delta_recomputed < stats.pairs_total,
        "only a fraction of the {} tracked pairs may be recomputed, got {}",
        stats.pairs_total,
        stats.delta_recomputed
    );

    // From-scratch HYBRID (and the exact PAIRWISE baseline) on the identical
    // full claim set and bootstrap state.
    let (accuracies, probabilities) = live.bootstrap_state(&snap2);
    let input = RoundInput::new(&snap2.dataset, &accuracies, &probabilities, live_params());
    let mut hybrid = HybridDetector::new();
    let scratch = hybrid.detect_round(&input, 1);
    let exact = pairwise_detection(&input);

    let incremental_pairs: BTreeSet<_> = incremental.copying_pairs().collect();
    let scratch_pairs: BTreeSet<_> = scratch.copying_pairs().collect();
    let exact_pairs: BTreeSet<_> = exact.copying_pairs().collect();
    // The delta-driven round is *exact*: it must agree with the PAIRWISE
    // baseline on the full claim set. From-scratch HYBRID is allowed its
    // paper-sanctioned bound deviations from exact — but the delta round may
    // not introduce any deviation beyond those, so the disagreement sets
    // must coincide.
    assert_eq!(
        incremental_pairs, exact_pairs,
        "delta-driven detection must agree with the exact baseline on the full claim set"
    );
    assert_eq!(
        incremental_pairs.symmetric_difference(&scratch_pairs).collect::<BTreeSet<_>>(),
        exact_pairs.symmetric_difference(&scratch_pairs).collect::<BTreeSet<_>>(),
        "any disagreement with from-scratch HYBRID must be HYBRID's own bound deviation"
    );
    assert!(!scratch_pairs.is_empty(), "the workload has planted copiers");
    // The new copier is detected.
    let copier = snap2.dataset.source_by_name("live-copier").unwrap();
    assert!(incremental_pairs.iter().any(|p| p.contains(copier)), "the live copier must be caught");

    eprintln!(
        "incremental: {}\nfrom-scratch: {}\nwarm-up: {}",
        incremental.counter, scratch.counter, warmup.counter
    );
    // Strictly fewer pair recomputations and less scoring work than both the
    // from-scratch run and the warm-up.
    assert!(
        incremental.counter.pair_finalizations < scratch.counter.pair_finalizations,
        "pair recomputations: incremental {} vs from-scratch {}",
        incremental.counter.pair_finalizations,
        scratch.counter.pair_finalizations
    );
    assert!(
        incremental.counter.score_updates < scratch.counter.score_updates,
        "score updates: incremental {} vs from-scratch {}",
        incremental.counter.score_updates,
        scratch.counter.score_updates
    );
    assert!(incremental.counter.score_updates < warmup.counter.score_updates);
}

fn live_params() -> copydet_bayes::CopyParams {
    copydet_bayes::CopyParams::paper_defaults()
}

/// Repeated small batches keep agreeing with from-scratch HYBRID (the
/// steady-state serving loop).
#[test]
fn repeated_delta_batches_stay_consistent() {
    let synth = copydet_synth::presets::stock_1day(0.02, 7);
    let claims: Vec<(String, String, String)> = synth
        .dataset
        .claim_refs()
        .map(|c| (c.source.to_owned(), c.item.to_owned(), c.value.to_owned()))
        .collect();
    let (head, tail) = claims.split_at(claims.len() * 9 / 10);

    let mut store = ClaimStore::new();
    let mut live = LiveDetector::new();
    for (s, d, v) in head {
        store.ingest(s, d, v);
    }
    let _ = live.observe(&store.snapshot());

    for batch in tail.chunks(tail.len().div_ceil(3).max(1)) {
        for (s, d, v) in batch {
            store.ingest(s, d, v);
        }
        store.seal();
        let snap = store.snapshot();
        let result = live.observe(&snap);
        let (accuracies, probabilities) = live.bootstrap_state(&snap);
        let exact = pairwise_detection(&RoundInput::new(
            &snap.dataset,
            &accuracies,
            &probabilities,
            live_params(),
        ));
        let got: BTreeSet<_> = result.copying_pairs().collect();
        let expected: BTreeSet<_> = exact.copying_pairs().collect();
        assert_eq!(got, expected, "batch at epoch {} disagrees with exact", snap.epoch);
    }
    assert_eq!(live.rounds(), 4);
}
