//! A single inverted-index entry (Definition 3.2).

use copydet_model::{ItemId, SourceId, ValueId};

/// One entry of the inverted index: a value `v` of data item `D` that is
/// provided by at least two sources.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// The data item `D_E`.
    pub item: ItemId,
    /// The value `v_E`.
    pub value: ValueId,
    /// `P(E)`: probability of `D_E.v_E` being true at the time the index was
    /// built.
    pub probability: f64,
    /// `C(E) = M̂(D_E.v_E)`: the maximum contribution sharing this value can
    /// make for any pair of its providers (Proposition 3.1).
    pub score: f64,
    /// `S̄(E)`: the sources providing `v_E` on `D_E`, sorted by id.
    pub providers: Vec<SourceId>,
}

impl IndexEntry {
    /// Number of providers of the entry's value.
    pub fn num_providers(&self) -> usize {
        self.providers.len()
    }

    /// Number of distinct source pairs within this entry — the number of
    /// pair updates scanning the entry generates.
    pub fn num_pairs(&self) -> usize {
        let k = self.providers.len();
        k * (k - 1) / 2
    }

    /// Returns `true` if `s` is one of the entry's providers.
    pub fn contains(&self, s: SourceId) -> bool {
        self.providers.binary_search(&s).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(providers: &[u32]) -> IndexEntry {
        IndexEntry {
            item: ItemId::new(0),
            value: ValueId::new(0),
            probability: 0.1,
            score: 2.0,
            providers: providers.iter().map(|&i| SourceId::new(i)).collect(),
        }
    }

    #[test]
    fn pair_counts() {
        assert_eq!(entry(&[1, 2]).num_pairs(), 1);
        assert_eq!(entry(&[1, 2, 3]).num_pairs(), 3);
        assert_eq!(entry(&[1, 2, 3, 4]).num_pairs(), 6);
        assert_eq!(entry(&[1, 2]).num_providers(), 2);
    }

    #[test]
    fn contains_uses_sorted_providers() {
        let e = entry(&[1, 4, 9]);
        assert!(e.contains(SourceId::new(4)));
        assert!(!e.contains(SourceId::new(5)));
    }
}
