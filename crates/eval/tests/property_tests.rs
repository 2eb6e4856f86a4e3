//! Property-based tests across the detection algorithms: decision parity and
//! accounting invariants must hold for arbitrary datasets, not just the
//! motivating example.

use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{pairwise_detection, RoundInput};
use copydet_eval::{bound_detection, hybrid_detection, index_detection};
use copydet_model::{Dataset, DatasetBuilder, SourcePair};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Random claim sets over a small universe so that sharing (and copying-like
/// overlap) is frequent.
fn claims_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..8, 0u8..15, 0u8..4), 1..200)
}

fn build(claims: &[(u8, u8, u8)]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for (s, d, v) in claims {
        b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
    }
    b.build()
}

fn state_for(ds: &Dataset, seed: u64) -> (SourceAccuracies, ValueProbabilities) {
    // Deterministic pseudo-random accuracies and probabilities derived from
    // the seed, spanning honest and unreliable sources.
    let accs: Vec<f64> = (0..ds.num_sources())
        .map(|i| 0.1 + 0.85 * (((i as u64 * 37 + seed * 13) % 100) as f64 / 100.0))
        .collect();
    let accuracies = SourceAccuracies::from_vec(accs).unwrap();
    let mut probabilities = ValueProbabilities::new(ds.num_items());
    for (k, group) in ds.groups().enumerate() {
        let p = 0.02 + 0.9 * (((k as u64 * 53 + seed * 7) % 100) as f64 / 100.0);
        probabilities.set(group.item, group.value, p).unwrap();
    }
    (accuracies, probabilities)
}

fn copying_set(result: &copydet_detect::DetectionResult) -> BTreeSet<SourcePair> {
    result.copying_pairs().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 3.5: INDEX produces exactly the same binary decisions as
    /// PAIRWISE, on any dataset and any accuracy/probability state.
    /// (FAGININPUT's half, under the same name, is in
    /// `fagin_agreement.rs`.)
    #[test]
    fn exact_algorithms_agree_with_pairwise(claims in claims_strategy(), seed in 0u64..500) {
        let ds = build(&claims);
        let (accuracies, probabilities) = state_for(&ds, seed);
        let params = CopyParams::paper_defaults();
        let input = RoundInput::new(&ds, &accuracies, &probabilities, params);

        let expected = copying_set(&pairwise_detection(&input));
        prop_assert_eq!(copying_set(&index_detection(&input)), expected);
    }

    /// The bounded algorithms may deviate from PAIRWISE only in the direction
    /// the paper allows (decisions are "rarely different"); structurally,
    /// every pair they flag as copying must at least share a value, and their
    /// examined-value counts never exceed INDEX's.
    #[test]
    fn bounded_algorithms_structural_invariants(claims in claims_strategy(), seed in 0u64..500) {
        let ds = build(&claims);
        let (accuracies, probabilities) = state_for(&ds, seed);
        let params = CopyParams::paper_defaults();
        let input = RoundInput::new(&ds, &accuracies, &probabilities, params);
        let index_result = index_detection(&input);

        for result in [
            bound_detection(&input, false),
            bound_detection(&input, true),
            hybrid_detection(&input, 16),
        ] {
            prop_assert!(
                result.shared_values_examined <= index_result.shared_values_examined,
                "{} examined more shared values than INDEX",
                result.algorithm
            );
            for pair in result.copying_pairs() {
                prop_assert!(
                    ds.shared_value_count(pair.first(), pair.second()) > 0,
                    "{} flagged {pair} which shares no value",
                    result.algorithm
                );
            }
            // Every pair INDEX considers strong enough to flag shares values;
            // the bounded variant must have an outcome for it (it cannot
            // silently drop materialized copying pairs).
            for pair in index_result.copying_pairs() {
                prop_assert!(
                    result.outcomes.contains_key(&pair),
                    "{} never materialized the copying pair {pair}",
                    result.algorithm
                );
            }
        }
    }

    /// Computation accounting: INDEX never does more scoring work than
    /// PAIRWISE, and HYBRID never examines more shared values than INDEX.
    #[test]
    fn computation_accounting_is_monotone(claims in claims_strategy(), seed in 0u64..500) {
        let ds = build(&claims);
        let (accuracies, probabilities) = state_for(&ds, seed);
        let params = CopyParams::paper_defaults();
        let input = RoundInput::new(&ds, &accuracies, &probabilities, params);
        let pairwise = pairwise_detection(&input);
        let index = index_detection(&input);
        let hybrid = hybrid_detection(&input, 16);
        prop_assert!(index.counter.score_updates <= pairwise.counter.score_updates);
        prop_assert!(hybrid.shared_values_examined <= index.shared_values_examined);
        // Every algorithm reports at least as many outcomes as copying pairs.
        for r in [&pairwise, &index, &hybrid] {
            prop_assert!(r.num_copying_pairs() <= r.outcomes.len());
            prop_assert!(r.pairs_considered >= r.outcomes.len());
        }
    }
}
