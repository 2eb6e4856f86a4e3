//! Naive majority voting — the simplest fusion baseline.

use copydet_model::{Dataset, ItemId, ValueId};
use std::collections::HashMap;

/// The outcome of a (weighted or unweighted) vote over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteResult {
    /// The winning value of every item that has at least one claim.
    pub truths: HashMap<ItemId, ValueId>,
    /// The fraction of the item's votes the winning value received.
    pub support: HashMap<ItemId, f64>,
}

impl VoteResult {
    /// The winning value for an item, if any source provided one.
    pub fn truth(&self, item: ItemId) -> Option<ValueId> {
        self.truths.get(&item).copied()
    }
}

/// Naive voting: for every data item, the value provided by the largest
/// number of sources wins (ties broken by smaller value id, so the result is
/// deterministic).
pub fn naive_vote(dataset: &Dataset) -> VoteResult {
    let mut truths = HashMap::new();
    let mut support = HashMap::new();
    for item in dataset.items() {
        let groups = dataset.values_of_item(item);
        if groups.is_empty() {
            continue;
        }
        let total: usize = groups.iter().map(|g| g.support()).sum();
        let winner = groups
            .iter()
            .max_by(|a, b| a.support().cmp(&b.support()).then(b.value.cmp(&a.value)))
            .expect("non-empty groups");
        truths.insert(item, winner.value);
        support.insert(item, winner.support() as f64 / total as f64);
    }
    VoteResult { truths, support }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::DatasetBuilder;
    use copydet_synth::motivating_example;

    #[test]
    fn majority_wins() {
        let mut b = DatasetBuilder::new();
        b.add_claim("S0", "D", "x");
        b.add_claim("S1", "D", "x");
        b.add_claim("S2", "D", "y");
        let ds = b.build();
        let result = naive_vote(&ds);
        let d = ds.item_by_name("D").unwrap();
        assert_eq!(result.truth(d), ds.value_by_str("x"));
        assert!((result.support[&d] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_are_deterministic() {
        let mut b = DatasetBuilder::new();
        b.add_claim("S0", "D", "x");
        b.add_claim("S1", "D", "y");
        let ds = b.build();
        let r1 = naive_vote(&ds);
        let r2 = naive_vote(&ds);
        assert_eq!(r1, r2);
    }

    /// On the motivating example, naive voting is fooled by the copier clique
    /// on New York (NewYork has 3 providers + the independent honest sources
    /// are split), illustrating why copy detection matters.
    #[test]
    fn naive_vote_on_motivating_example() {
        let ex = motivating_example();
        let result = naive_vote(&ex.dataset);
        // NJ: Trenton has 5 providers vs Atlantic 3 and Union 1 → correct.
        let nj = ex.dataset.item_by_name("NJ").unwrap();
        assert_eq!(result.truth(nj), ex.dataset.value_by_str("Trenton"));
        // Every claimed item gets some answer.
        assert_eq!(result.truths.len(), 5);
        // Missing items yield None (the example only has item ids 0..=4).
        assert!(result.truth(copydet_model::ItemId::new(5)).is_none());
    }

    #[test]
    fn empty_dataset_votes_nothing() {
        let ds = DatasetBuilder::new().build();
        let r = naive_vote(&ds);
        assert!(r.truths.is_empty());
    }
}
