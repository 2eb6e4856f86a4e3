//! Per-value truthfulness state: `P(D.v)`, the probability that value `v` is
//! the true value of item `D`.

use crate::error::BayesError;
use copydet_model::{Dataset, ItemId, ValueId};

/// The probability of every provided value being true, indexed by
/// `(item, value)`.
///
/// In the iterative fusion loop these probabilities are recomputed each round
/// from the current source accuracies and copy relationships; in single-round
/// uses they can come from prior knowledge (as in the paper's worked
/// examples) or from simple voting.
///
/// Values that were never stored fall back to probability 0.5, mirroring
/// the "we are often not sure which value is true" stance of Section II-A.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueProbabilities {
    /// `per_item[d]` = sorted `(value, probability)` pairs for item `d`.
    per_item: Vec<Vec<(ValueId, f64)>>,
}

/// The probability of a value the table never stored.
const DEFAULT_PROBABILITY: f64 = 0.5;

impl ValueProbabilities {
    /// Creates an empty table covering `num_items` items.
    pub fn new(num_items: usize) -> Self {
        Self { per_item: vec![Vec::new(); num_items] }
    }

    /// Builds a table from a dense per-item list of `(value, probability)`
    /// pairs (e.g. `copydet_synth::MotivatingExample::probability_table`).
    pub fn from_table(table: Vec<Vec<(ValueId, f64)>>) -> Result<Self, BayesError> {
        let mut probs = Self::new(table.len());
        for (d, row) in table.into_iter().enumerate() {
            for (v, p) in row {
                probs.set(ItemId::from_index(d), v, p)?;
            }
        }
        Ok(probs)
    }

    /// Initializes every provided value of `ds` with the same probability.
    pub fn uniform_over_dataset(ds: &Dataset, p: f64) -> Result<Self, BayesError> {
        let mut probs = Self::new(ds.num_items());
        for group in ds.groups() {
            probs.set(group.item, group.value, p)?;
        }
        Ok(probs)
    }

    /// Number of items covered by the table.
    pub fn num_items(&self) -> usize {
        self.per_item.len()
    }

    /// Total number of `(item, value)` probabilities stored.
    pub fn num_entries(&self) -> usize {
        self.per_item.iter().map(Vec::len).sum()
    }

    /// Extends the table to cover `num_items` items, appending empty rows
    /// (which resolve to the default probability). A no-op if the table
    /// already covers at least that many items.
    ///
    /// Used when a dataset delta introduces new items: the old-state snapshot
    /// kept by incremental detection must index safely into the grown item
    /// space.
    pub fn extend_items(&mut self, num_items: usize) {
        if num_items > self.per_item.len() {
            self.per_item.resize(num_items, Vec::new());
        }
    }

    /// Sets `P(d.v)`.
    pub fn set(&mut self, d: ItemId, v: ValueId, p: f64) -> Result<(), BayesError> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(BayesError::InvalidProbability { what: "value probability", value: p });
        }
        let row = &mut self.per_item[d.index()];
        match row.binary_search_by_key(&v, |&(value, _)| value) {
            Ok(i) => row[i].1 = p,
            Err(i) => row.insert(i, (v, p)),
        }
        Ok(())
    }

    /// Returns `P(d.v)` if it has been stored.
    #[inline]
    pub fn lookup(&self, d: ItemId, v: ValueId) -> Option<f64> {
        let row = &self.per_item[d.index()];
        row.binary_search_by_key(&v, |&(value, _)| value).ok().map(|i| row[i].1)
    }

    /// Returns `P(d.v)`, falling back to the default probability 0.5.
    #[inline]
    pub fn get(&self, d: ItemId, v: ValueId) -> f64 {
        self.lookup(d, v).unwrap_or(DEFAULT_PROBABILITY)
    }

    /// Iterates over every stored `(item, value, probability)` triple.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, ValueId, f64)> + '_ {
        self.per_item.iter().enumerate().flat_map(|(d, row)| {
            let d = ItemId::from_index(d);
            row.iter().map(move |&(v, p)| (d, v, p))
        })
    }

    /// Largest absolute probability change against another table with the
    /// same stored entries. Entries present in only one of the tables are
    /// compared against the default probability.
    pub fn max_abs_diff(&self, other: &ValueProbabilities) -> f64 {
        let mut max: f64 = 0.0;
        for (d, v, p) in self.iter() {
            max = max.max((p - other.get(d, v)).abs());
        }
        for (d, v, p) in other.iter() {
            max = max.max((p - self.get(d, v)).abs());
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::DatasetBuilder;

    #[test]
    fn set_get_roundtrip() {
        let mut p = ValueProbabilities::new(2);
        p.set(ItemId::new(0), ValueId::new(3), 0.9).unwrap();
        p.set(ItemId::new(0), ValueId::new(1), 0.1).unwrap();
        assert_eq!(p.lookup(ItemId::new(0), ValueId::new(3)), Some(0.9));
        assert_eq!(p.get(ItemId::new(0), ValueId::new(2)), 0.5);
        assert_eq!(p.num_entries(), 2);
        // overwrite
        p.set(ItemId::new(0), ValueId::new(3), 0.7).unwrap();
        assert_eq!(p.lookup(ItemId::new(0), ValueId::new(3)), Some(0.7));
        assert_eq!(p.num_entries(), 2);
        // rows stay sorted
        let row: Vec<ValueId> = p.iter().map(|(_, v, _)| v).collect();
        assert!(row.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let mut p = ValueProbabilities::new(1);
        assert!(p.set(ItemId::new(0), ValueId::new(0), 1.2).is_err());
        assert!(p.set(ItemId::new(0), ValueId::new(0), -0.1).is_err());
        assert!(p.set(ItemId::new(0), ValueId::new(0), f64::NAN).is_err());
    }

    #[test]
    fn uniform_over_dataset_covers_every_group() {
        let mut b = DatasetBuilder::new();
        b.add_claim("S0", "D0", "x");
        b.add_claim("S1", "D0", "y");
        b.add_claim("S1", "D1", "z");
        let ds = b.build();
        let p = ValueProbabilities::uniform_over_dataset(&ds, 0.3).unwrap();
        assert_eq!(p.num_entries(), 3);
        for g in ds.groups() {
            assert_eq!(p.lookup(g.item, g.value), Some(0.3));
        }
    }

    #[test]
    fn from_table_roundtrip() {
        let table = vec![
            vec![(ValueId::new(0), 0.9), (ValueId::new(1), 0.05)],
            vec![(ValueId::new(2), 0.5)],
        ];
        let p = ValueProbabilities::from_table(table).unwrap();
        assert_eq!(p.num_items(), 2);
        assert_eq!(p.lookup(ItemId::new(0), ValueId::new(1)), Some(0.05));
        assert_eq!(p.lookup(ItemId::new(1), ValueId::new(2)), Some(0.5));
    }

    #[test]
    fn max_abs_diff_is_symmetric() {
        let mut a = ValueProbabilities::new(1);
        let mut b = ValueProbabilities::new(1);
        a.set(ItemId::new(0), ValueId::new(0), 0.9).unwrap();
        b.set(ItemId::new(0), ValueId::new(0), 0.2).unwrap();
        b.set(ItemId::new(0), ValueId::new(1), 0.6).unwrap();
        let d1 = a.max_abs_diff(&b);
        let d2 = b.max_abs_diff(&a);
        assert!((d1 - d2).abs() < 1e-12);
        assert!((d1 - 0.7).abs() < 1e-12);
    }

    #[test]
    fn extend_items_appends_default_rows() {
        let mut p = ValueProbabilities::new(1);
        p.set(ItemId::new(0), ValueId::new(0), 0.9).unwrap();
        p.extend_items(3);
        assert_eq!(p.num_items(), 3);
        assert_eq!(p.lookup(ItemId::new(0), ValueId::new(0)), Some(0.9));
        assert_eq!(p.get(ItemId::new(2), ValueId::new(5)), 0.5);
        // Shrinking is a no-op.
        p.extend_items(1);
        assert_eq!(p.num_items(), 3);
    }
}
