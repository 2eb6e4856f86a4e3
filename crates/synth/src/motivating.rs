//! The paper's motivating example (Table I): ten sources describing the
//! capitals of five US states, with known copying between `S2–S4` and
//! between `S6–S8`.
//!
//! The example is used throughout the paper's Sections II–V to illustrate the
//! Bayesian scoring, the inverted index (Table III), early termination
//! (Examples 4.2/4.3), and incremental detection (Table IV, Examples
//! 5.1/5.2). We reproduce the same data here so the corresponding unit tests
//! in the other crates can check the worked numbers.

use copydet_model::{Dataset, DatasetBuilder, ItemId, SourceId, SourcePair, ValueId};
use std::collections::HashMap;

/// The motivating example of the paper: the dataset of Table I together with
/// the auxiliary knowledge used in the worked examples (source accuracies,
/// value probabilities as in Table III, the identity of the true values, and
/// the planted copying relationships).
#[derive(Debug, Clone)]
pub struct MotivatingExample {
    /// The claims of Table I.
    pub dataset: Dataset,
    /// Source accuracy per source, indexed by `SourceId::index()`
    /// (column "Accu" of Table I).
    pub accuracies: Vec<f64>,
    /// Probability of each provided value being true, keyed by
    /// `(item, value)`, as assumed in Table III.
    pub value_probabilities: HashMap<(ItemId, ValueId), f64>,
    /// The true value of every item.
    pub true_values: HashMap<ItemId, ValueId>,
    /// The pairs of sources with a real copying relationship
    /// (within {S2,S3,S4} and within {S6,S7,S8}).
    pub copying_pairs: Vec<SourcePair>,
    /// The a-priori copying probability α used in the examples (0.1).
    pub alpha: f64,
    /// The copying selectivity s used in the examples (0.8).
    pub selectivity: f64,
    /// The number of uniformly-distributed false values n used in the
    /// examples (50).
    pub n_false_values: u32,
}

/// Rows of Table I: (source name, accuracy, [NJ, AZ, NY, FL, TX]), where an
/// empty string denotes a missing value.
const TABLE_I: &[(&str, f64, [&str; 5])] = &[
    ("S0", 0.99, ["Trenton", "Phoenix", "Albany", "", "Austin"]),
    ("S1", 0.99, ["Trenton", "Phoenix", "Albany", "Orlando", "Austin"]),
    ("S2", 0.2, ["Atlantic", "Phoenix", "NewYork", "Miami", "Houston"]),
    ("S3", 0.2, ["Atlantic", "Phoenix", "NewYork", "Miami", "Arlington"]),
    ("S4", 0.4, ["Atlantic", "Phoenix", "NewYork", "Orlando", "Houston"]),
    ("S5", 0.6, ["Union", "Tempe", "Albany", "Orlando", "Austin"]),
    ("S6", 0.01, ["", "Tempe", "Buffalo", "PalmBay", "Dallas"]),
    ("S7", 0.25, ["Trenton", "", "Buffalo", "PalmBay", "Dallas"]),
    ("S8", 0.2, ["Trenton", "Tucson", "Buffalo", "PalmBay", "Dallas"]),
    ("S9", 0.99, ["Trenton", "", "", "Orlando", "Austin"]),
];

const ITEMS: [&str; 5] = ["NJ", "AZ", "NY", "FL", "TX"];
const TRUE_VALUES: [(&str, &str); 5] =
    [("NJ", "Trenton"), ("AZ", "Phoenix"), ("NY", "Albany"), ("FL", "Orlando"), ("TX", "Austin")];

/// The value probabilities assumed when Table III is constructed (the paper
/// lists them in its "Pr" column); values provided by a single source do not
/// appear in the index and are not listed.
const TABLE_III_PROBABILITIES: &[(&str, &str, f64)] = &[
    ("AZ", "Tempe", 0.02),
    ("NJ", "Atlantic", 0.01),
    ("TX", "Houston", 0.02),
    ("NY", "NewYork", 0.02),
    ("TX", "Dallas", 0.02),
    ("NY", "Buffalo", 0.04),
    ("FL", "PalmBay", 0.05),
    ("FL", "Miami", 0.03),
    ("AZ", "Phoenix", 0.95),
    ("NJ", "Trenton", 0.97),
    ("FL", "Orlando", 0.92),
    ("NY", "Albany", 0.94),
    ("TX", "Austin", 0.96),
    // Values provided by a single source; their probabilities are not used by
    // the index but are needed when computing full pairwise scores.
    ("NJ", "Union", 0.01),
    ("AZ", "Tucson", 0.01),
    ("TX", "Arlington", 0.01),
];

/// Builds the motivating example.
pub fn motivating_example() -> MotivatingExample {
    let mut builder = DatasetBuilder::new();
    // Register sources and items in table order so ids match the paper's
    // numbering (S0..S9, NJ..TX).
    for (name, _, _) in TABLE_I {
        builder.source(name);
    }
    for item in ITEMS {
        builder.item(item);
    }
    for (name, _, values) in TABLE_I {
        for (item, value) in ITEMS.iter().zip(values.iter()) {
            if !value.is_empty() {
                builder.add_claim(name, item, value);
            }
        }
    }
    let dataset = builder.build();

    let accuracies = TABLE_I.iter().map(|&(_, a, _)| a).collect();

    let mut value_probabilities = HashMap::new();
    for &(item, value, p) in TABLE_III_PROBABILITIES {
        let d = dataset.item_by_name(item).expect("item exists");
        if let Some(v) = dataset.value_by_str(value) {
            value_probabilities.insert((d, v), p);
        }
    }

    let mut true_values = HashMap::new();
    for (item, value) in TRUE_VALUES {
        let d = dataset.item_by_name(item).expect("item exists");
        let v = dataset.value_by_str(value).expect("true value is provided by someone");
        true_values.insert(d, v);
    }

    let group_a = [2u32, 3, 4];
    let group_b = [6u32, 7, 8];
    let mut copying_pairs = Vec::new();
    for group in [group_a, group_b] {
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                copying_pairs
                    .push(SourcePair::new(SourceId::new(group[i]), SourceId::new(group[j])));
            }
        }
    }

    MotivatingExample {
        dataset,
        accuracies,
        value_probabilities,
        true_values,
        copying_pairs,
        alpha: 0.1,
        selectivity: 0.8,
        n_false_values: 50,
    }
}

impl MotivatingExample {
    /// Probability of value `v` of item `d` being true according to Table III,
    /// defaulting to 0.01 for values not listed there.
    pub fn probability(&self, d: ItemId, v: ValueId) -> f64 {
        self.value_probabilities.get(&(d, v)).copied().unwrap_or(0.01)
    }

    /// Value probabilities as a dense per-item map usable by the scoring
    /// layer: for each item, `(value, probability)` for every provided value.
    pub fn probability_table(&self) -> Vec<Vec<(ValueId, f64)>> {
        let mut table = vec![Vec::new(); self.dataset.num_items()];
        for d in self.dataset.items() {
            for group in self.dataset.values_of_item(d) {
                table[d.index()].push((group.value, self.probability(d, group.value)));
            }
        }
        table
    }

    /// Returns `true` if `pair` is one of the planted copying relationships.
    pub fn is_copying_pair(&self, pair: SourcePair) -> bool {
        self.copying_pairs.contains(&pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_shape() {
        let ex = motivating_example();
        assert_eq!(ex.dataset.num_sources(), 10);
        assert_eq!(ex.dataset.num_items(), 5);
        // S0 misses FL, S6 misses NJ, S7 misses AZ, S9 misses AZ and NY:
        // 10*5 - 5 missing = 45 claims.
        assert_eq!(ex.dataset.num_claims(), 45);
    }

    #[test]
    fn source_ids_match_paper_numbering() {
        let ex = motivating_example();
        for i in 0..10 {
            assert_eq!(ex.dataset.source_name(SourceId::new(i)), format!("S{i}"));
        }
        assert_eq!(ex.dataset.item_name(ItemId::new(0)), "NJ");
        assert_eq!(ex.dataset.item_name(ItemId::new(4)), "TX");
    }

    #[test]
    fn accuracies_match_table_i() {
        let ex = motivating_example();
        assert_eq!(ex.accuracies.len(), 10);
        assert!((ex.accuracies[0] - 0.99).abs() < 1e-12);
        assert!((ex.accuracies[4] - 0.4).abs() < 1e-12);
        assert!((ex.accuracies[6] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn true_values_are_the_capitals() {
        let ex = motivating_example();
        for (item, value) in TRUE_VALUES {
            let d = ex.dataset.item_by_name(item).unwrap();
            let v = ex.dataset.value_by_str(value).unwrap();
            assert_eq!(ex.true_values[&d], v);
        }
    }

    #[test]
    fn copying_pairs_are_the_two_cliques() {
        let ex = motivating_example();
        assert_eq!(ex.copying_pairs.len(), 6);
        assert!(ex.is_copying_pair(SourcePair::new(SourceId::new(2), SourceId::new(3))));
        assert!(ex.is_copying_pair(SourcePair::new(SourceId::new(6), SourceId::new(8))));
        assert!(!ex.is_copying_pair(SourcePair::new(SourceId::new(0), SourceId::new(1))));
    }

    #[test]
    fn shared_values_match_example_2_1() {
        let ex = motivating_example();
        let s2 = SourceId::new(2);
        let s3 = SourceId::new(3);
        // S2 and S3 share 5 items and agree on 4 of them (all but TX).
        assert_eq!(ex.dataset.shared_item_count(s2, s3), 5);
        assert_eq!(ex.dataset.shared_value_count(s2, s3), 4);
        // S0 and S1 share 4 items and agree on all 4 (S0 misses FL).
        let s0 = SourceId::new(0);
        let s1 = SourceId::new(1);
        assert_eq!(ex.dataset.shared_item_count(s0, s1), 4);
        assert_eq!(ex.dataset.shared_value_count(s0, s1), 4);
    }

    #[test]
    fn probability_lookup_defaults() {
        let ex = motivating_example();
        let nj = ex.dataset.item_by_name("NJ").unwrap();
        let atlantic = ex.dataset.value_by_str("Atlantic").unwrap();
        assert!((ex.probability(nj, atlantic) - 0.01).abs() < 1e-12);
        let union = ex.dataset.value_by_str("Union").unwrap();
        assert!((ex.probability(nj, union) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn probability_table_covers_all_groups() {
        let ex = motivating_example();
        let table = ex.probability_table();
        assert_eq!(table.len(), 5);
        let total: usize = table.iter().map(Vec::len).sum();
        let groups: usize = ex.dataset.items().map(|d| ex.dataset.values_of_item(d).len()).sum();
        assert_eq!(total, groups);
        for row in &table {
            for &(_, p) in row {
                assert!(p > 0.0 && p < 1.0);
            }
        }
    }
}
