//! Property-based tests for the inverted index: the structural invariants
//! the detection algorithms rely on (Propositions 3.4 and the Ē soundness
//! argument) must hold for arbitrary datasets.

use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_index::{InvertedIndex, SharedItemCounts};
use copydet_model::{DatasetBuilder, SourceId, SourcePair};
use proptest::prelude::*;
use std::collections::HashSet;

fn claims_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..10, 0u8..12, 0u8..5), 1..150)
}

fn accuracy_vec(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.05 + 0.9 * (i as f64 / n.max(1) as f64)).collect()
}

fn build_index(claims: &[(u8, u8, u8)]) -> (copydet_model::Dataset, InvertedIndex, CopyParams) {
    let mut b = DatasetBuilder::new();
    for (s, d, v) in claims {
        b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
    }
    let ds = b.build();
    let params = CopyParams::paper_defaults();
    let acc = SourceAccuracies::from_vec(accuracy_vec(ds.num_sources())).unwrap();
    let probs = ValueProbabilities::uniform_over_dataset(&ds, 0.3).unwrap();
    let index = InvertedIndex::build(&ds, &acc, &probs, &params);
    (ds, index, params)
}

proptest! {
    /// Every entry has at least two providers, providers are sorted and
    /// disjoint across entries of the same item, and entry scores are
    /// positive and sorted in decreasing order.
    #[test]
    fn entry_structure_invariants(claims in claims_strategy()) {
        let (_, index, _) = build_index(&claims);
        let entries = index.entries();
        prop_assert!(entries.windows(2).all(|w| w[0].score >= w[1].score));
        let mut per_item_providers: std::collections::HashMap<_, HashSet<_>> = Default::default();
        for e in entries {
            prop_assert!(e.num_providers() >= 2);
            prop_assert!(e.score > 0.0);
            prop_assert!(e.providers.windows(2).all(|w| w[0] < w[1]));
            let set = per_item_providers.entry(e.item).or_default();
            for &p in &e.providers {
                prop_assert!(set.insert(p), "provider in two entries of one item");
            }
        }
    }

    /// The index contains exactly the `(item, value)` groups with support
    /// ≥ 2 from the dataset.
    #[test]
    fn index_covers_exactly_shared_groups(claims in claims_strategy()) {
        let (ds, index, _) = build_index(&claims);
        let expected: HashSet<_> = ds
            .groups()
            .filter(|g| g.support() >= 2)
            .map(|g| (g.item, g.value))
            .collect();
        let actual: HashSet<_> = index.entries().iter().map(|e| (e.item, e.value)).collect();
        prop_assert_eq!(expected, actual);
    }

    /// Ē soundness: the total score of the Ē suffix is below θind, so a pair
    /// whose shared values all fall in Ē can never reach the no-copying
    /// threshold, let alone the copying one.
    #[test]
    fn ebar_suffix_total_is_below_theta_ind(claims in claims_strategy()) {
        let (_, index, _) = build_index(&claims);
        let suffix_sum: f64 = index.entries()[index.ebar_start()..].iter().map(|e| e.score).sum();
        prop_assert!(suffix_sum < index.theta_ind());
    }

    /// Proposition 3.4 (third bullet): the entry score upper-bounds the
    /// contribution any pair of its providers can obtain from that item, for
    /// any accuracies the sources actually have.
    #[test]
    fn entry_score_bounds_pair_contributions(claims in claims_strategy()) {
        let (ds, index, params) = build_index(&claims);
        let acc = SourceAccuracies::from_vec(accuracy_vec(ds.num_sources())).unwrap();
        for e in index.entries() {
            for (i, &a) in e.providers.iter().enumerate() {
                for &b in &e.providers[i + 1..] {
                    let (to, from) = copydet_bayes::contribution::same_value_scores_both(
                        e.probability,
                        acc.get(a),
                        acc.get(b),
                        &params,
                    );
                    prop_assert!(to <= e.score + 1e-9);
                    prop_assert!(from <= e.score + 1e-9);
                }
            }
        }
    }

    /// Shared-item counts attached to the index, and counts from one sorted
    /// provider list per item (a claim store's shape), agree with direct
    /// pairwise merging of claim lists.
    #[test]
    fn shared_item_counts_agree_with_dataset(claims in claims_strategy()) {
        let (ds, index, _) = build_index(&claims);
        let lists: Vec<Vec<SourceId>> = ds
            .items()
            .map(|d| {
                let mut providers: Vec<SourceId> =
                    ds.values_of_item(d).iter().flat_map(|g| g.providers.clone()).collect();
                providers.sort_unstable();
                providers
            })
            .collect();
        let from_lists = SharedItemCounts::from_provider_lists(ds.num_sources(), &lists);
        let sources: Vec<_> = ds.sources().collect();
        for (i, &a) in sources.iter().enumerate() {
            for &b in &sources[i + 1..] {
                let pair = SourcePair::new(a, b);
                prop_assert_eq!(index.shared_items(pair) as usize, ds.shared_item_count(a, b));
                prop_assert_eq!(from_lists.get(pair) as usize, ds.shared_item_count(a, b));
            }
        }
        prop_assert_eq!(
            from_lists.num_sharing_pairs(),
            index.shared_item_counts().num_sharing_pairs()
        );
        prop_assert_eq!(from_lists.num_sources(), ds.num_sources());
    }
}
