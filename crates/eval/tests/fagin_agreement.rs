//! Property-based test of FAGININPUT against PAIRWISE: its aggregate totals
//! are exact, so its decisions must equal the baseline's on arbitrary
//! datasets and accuracy/probability states.

use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{pairwise_detection, RoundInput};
use copydet_eval::{CopyDetector, FaginInputDetector};
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

    /// FAGININPUT produces exactly PAIRWISE's binary decisions. The test
    /// keeps the name of the INDEX-vs-PAIRWISE property in
    /// `property_tests.rs`, so both draw the same 64 cases.
    #[test]
    fn exact_algorithms_agree_with_pairwise(claims in claims_strategy(), seed in 0u64..500) {
        let ds = build(&claims);
        let (accuracies, probabilities) = state_for(&ds, seed);
        let params = CopyParams::paper_defaults();
        let input = RoundInput::new(&ds, &accuracies, &probabilities, params);

        let expected = copying_set(&pairwise_detection(&input));
        let mut fagin = FaginInputDetector::new();
        prop_assert_eq!(copying_set(&fagin.detect_round(&input, 1)), expected);
    }
}
