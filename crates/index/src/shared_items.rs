//! Shared-item counting: `l(S1, S2)`, the number of data items both sources
//! provide (regardless of whether the values agree).
//!
//! The counts are produced by a single pass over the per-item provider lists
//! (the flattened inverted index on items), the same idea as the
//! count-based set-similarity-join the paper cites: for each item, every
//! pair of its providers gets one increment. For datasets with few sources
//! (the Stock family) a dense triangular matrix is used; for datasets with
//! many, mostly non-overlapping sources (the Book family) a hash map keyed by
//! [`SourcePair`] keeps memory proportional to the number of pairs that
//! actually share something.

use copydet_model::{Dataset, SourceId, SourcePair};
use std::collections::HashMap;

/// Above this number of sources the dense triangular matrix (which needs
/// `n·(n−1)/2` counters) is abandoned in favour of a sparse map.
const DENSE_LIMIT: usize = 4096;

/// The number of shared data items for every pair of sources that shares at
/// least one item.
#[derive(Debug, Clone)]
pub struct SharedItemCounts {
    repr: Repr,
    num_sources: usize,
    /// Pairs with a non-zero count, kept current by every write so
    /// [`SharedItemCounts::num_sharing_pairs`] is O(1).
    sharing_pairs: usize,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Lower-triangular matrix: slot for pair `(i, j)` with `i < j` is
    /// `j·(j−1)/2 + i`.
    Dense(Vec<u32>),
    Sparse(HashMap<SourcePair, u32>),
}

impl SharedItemCounts {
    /// Counts shared items for every pair of sources in `ds`.
    pub fn build(ds: &Dataset) -> Self {
        let n = ds.num_sources();
        let repr = if n <= DENSE_LIMIT {
            Repr::Dense(vec![0u32; n * n.saturating_sub(1) / 2])
        } else {
            Repr::Sparse(HashMap::new())
        };
        let mut counts = Self { repr, num_sources: n, sharing_pairs: 0 };
        // One provider list per item, merged across that item's value groups.
        let mut providers: Vec<SourceId> = Vec::new();
        for d in ds.items() {
            providers.clear();
            for group in ds.values_of_item(d) {
                providers.extend_from_slice(&group.providers);
            }
            providers.sort_unstable();
            let mut rest = providers.as_slice();
            while let Some((&s, later)) = rest.split_first() {
                for &t in later {
                    counts.increment(SourcePair::new(s, t), 1);
                }
                rest = later;
            }
        }
        counts
    }

    /// Grows the table to cover `num_sources` sources (keeping all existing
    /// counts). A no-op if the table already covers at least that many.
    ///
    /// The dense triangular layout (`slot(i, j) = j·(j−1)/2 + i`) is
    /// independent of the source count, so growing is a plain extension; a
    /// grown dense table that crosses the density limit switches to the
    /// sparse map.
    pub fn grow(&mut self, num_sources: usize) {
        if num_sources <= self.num_sources {
            return;
        }
        self.num_sources = num_sources;
        match &mut self.repr {
            Repr::Dense(m) if num_sources <= DENSE_LIMIT => {
                m.resize(num_sources * (num_sources - 1) / 2, 0);
            }
            Repr::Dense(m) => {
                let mut sparse = HashMap::new();
                for (slot, &c) in m.iter().enumerate() {
                    if c > 0 {
                        sparse.insert(dense_unslot(slot), c);
                    }
                }
                self.repr = Repr::Sparse(sparse);
            }
            Repr::Sparse(_) => {}
        }
    }

    /// Adds `by` to the count of `pair`.
    ///
    /// This is the maintenance hook for append-oriented stores: when a new
    /// claim for item `d` arrives from source `s`, the count of `(s, t)` is
    /// incremented for every other provider `t` of `d` — keeping the table
    /// consistent with a from-scratch [`SharedItemCounts::build`] over the
    /// grown dataset without rescanning unchanged items. A pair beyond the
    /// covered sources first grows the table to cover it
    /// ([`SharedItemCounts::grow`]).
    #[inline]
    pub fn increment(&mut self, pair: SourcePair, by: u32) {
        if by == 0 {
            return;
        }
        let covers = pair.second().index() + 1;
        if covers > self.num_sources {
            self.grow(covers);
        }
        let slot = match &mut self.repr {
            // In range once grown: slot(i, j) < j·(j+1)/2 ≤ n·(n−1)/2.
            Repr::Dense(m) => match m.get_mut(dense_slot(pair)) {
                Some(slot) => slot,
                None => return,
            },
            Repr::Sparse(m) => m.entry(pair).or_insert(0),
        };
        // Branch-free: on sparse data a slot often leaves zero (a pair's
        // first shared item), so a branch here would mispredict.
        self.sharing_pairs += usize::from(*slot == 0);
        *slot += by;
    }

    /// Number of items shared by the pair (`l(S1, S2)`), zero if they share
    /// nothing — or if the table does not cover the pair's sources (in
    /// either representation), so a reader never indexes past the table.
    #[inline]
    pub fn get(&self, pair: SourcePair) -> u32 {
        match &self.repr {
            Repr::Dense(m) => m.get(dense_slot(pair)).copied().unwrap_or(0),
            Repr::Sparse(m) => m.get(&pair).copied().unwrap_or(0),
        }
    }

    /// Number of sources the counts were built over.
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of pairs with at least one shared item (O(1): a counter that
    /// [`SharedItemCounts::increment`] keeps current).
    pub fn num_sharing_pairs(&self) -> usize {
        self.sharing_pairs
    }

    /// Iterates over every pair with a non-zero count.
    pub fn iter_nonzero(&self) -> Box<dyn Iterator<Item = (SourcePair, u32)> + '_> {
        match &self.repr {
            Repr::Dense(m) => Box::new(
                m.iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(slot, &c)| (dense_unslot(slot), c)),
            ),
            Repr::Sparse(m) => Box::new(m.iter().map(|(&p, &c)| (p, c))),
        }
    }
}

#[inline]
fn dense_slot(pair: SourcePair) -> usize {
    let i = pair.first().index();
    let j = pair.second().index();
    j * (j - 1) / 2 + i
}

fn dense_unslot(slot: usize) -> SourcePair {
    // Invert j·(j−1)/2 + i: find the largest j with j·(j−1)/2 <= slot.
    let mut j = (((8 * slot + 1) as f64).sqrt() as usize).div_ceil(2);
    while j * (j - 1) / 2 > slot {
        j -= 1;
    }
    while (j + 1) * j / 2 <= slot {
        j += 1;
    }
    let i = slot - j * (j - 1) / 2;
    SourcePair::new(SourceId::from_index(i), SourceId::from_index(j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::{motivating_example, DatasetBuilder};

    #[test]
    fn dense_slot_roundtrip() {
        for j in 1..40u32 {
            for i in 0..j {
                let pair = SourcePair::new(SourceId::new(i), SourceId::new(j));
                assert_eq!(dense_unslot(dense_slot(pair)), pair);
            }
        }
    }

    #[test]
    fn counts_match_pairwise_merge_on_motivating_example() {
        let ex = motivating_example();
        let counts = SharedItemCounts::build(&ex.dataset);
        for a in ex.dataset.sources() {
            for b in ex.dataset.sources() {
                if a >= b {
                    continue;
                }
                let expected = ex.dataset.shared_item_count(a, b) as u32;
                assert_eq!(counts.get(SourcePair::new(a, b)), expected, "pair ({a}, {b})");
            }
        }
    }

    #[test]
    fn example_3_6_pairwise_examines_181_shared_items() {
        // PAIRWISE examines every shared data item of every pair. Counting
        // per item: NJ has 9 providers (36 pairs), AZ 8 (28), NY 9 (36),
        // FL 9 (36), TX 10 (45) — 181 in total. (The paper's Example 3.6
        // quotes 183; the Table I data yields 181 — the two extra appear to
        // be a small counting slip in the paper, and every other quantity in
        // the example is reproduced exactly.)
        let ex = motivating_example();
        let counts = SharedItemCounts::build(&ex.dataset);
        let total: u32 = counts.iter_nonzero().map(|(_, c)| c).sum();
        assert_eq!(total, 181);
    }

    #[test]
    fn motivating_example_every_pair_shares_an_item() {
        // All ten sources provide TX, so every one of the 45 pairs shares at
        // least one *item* (the paper's "18 pairs share nothing" refers to
        // shared values, i.e. co-occurrence in an index entry).
        let ex = motivating_example();
        let counts = SharedItemCounts::build(&ex.dataset);
        assert_eq!(counts.num_sharing_pairs(), 45);
    }

    #[test]
    fn disjoint_sources_have_zero() {
        let mut b = DatasetBuilder::new();
        b.add_claim("A", "D0", "x");
        b.add_claim("B", "D1", "y");
        b.add_claim("C", "D0", "x");
        let ds = b.build();
        let counts = SharedItemCounts::build(&ds);
        let a = ds.source_by_name("A").unwrap();
        let b_ = ds.source_by_name("B").unwrap();
        let c = ds.source_by_name("C").unwrap();
        assert_eq!(counts.get(SourcePair::new(a, b_)), 0);
        assert_eq!(counts.get(SourcePair::new(a, c)), 1);
        assert_eq!(counts.num_sharing_pairs(), 1);
        assert_eq!(counts.num_sources(), 3);
    }

    #[test]
    fn grow_and_increment_match_rebuild() {
        // Build counts over two sources, then append a third source's claims
        // and maintain the counts incrementally.
        let mut b = DatasetBuilder::new();
        b.add_claim("A", "D0", "x");
        b.add_claim("A", "D1", "y");
        b.add_claim("B", "D0", "x");
        let ds_old = b.build();
        let mut counts = SharedItemCounts::build(&ds_old);

        let mut b = DatasetBuilder::new();
        b.add_claim("A", "D0", "x");
        b.add_claim("A", "D1", "y");
        b.add_claim("B", "D0", "x");
        b.add_claim("C", "D0", "z");
        b.add_claim("C", "D1", "y");
        let ds_new = b.build();

        counts.grow(ds_new.num_sources());
        let c = ds_new.source_by_name("C").unwrap();
        for d in ds_new.items() {
            for group in ds_new.values_of_item(d) {
                for &p in &group.providers {
                    if p != c && ds_new.value_of(c, d).is_some() {
                        counts.increment(SourcePair::new(c, p), 1);
                    }
                }
            }
        }
        let rebuilt = SharedItemCounts::build(&ds_new);
        for (pair, n) in rebuilt.iter_nonzero() {
            assert_eq!(counts.get(pair), n, "pair {pair}");
        }
        assert_eq!(counts.num_sharing_pairs(), rebuilt.num_sharing_pairs());
        assert_eq!(counts.num_sources(), 3);
    }

    /// The O(1) sharing-pair counter survives `build`, growth past the
    /// dense limit (the switch to the sparse map) and mixed increments:
    /// it always equals a full walk of the non-zero counts.
    #[test]
    fn sharing_pair_counter_matches_a_full_walk() {
        let walk = |c: &SharedItemCounts| c.iter_nonzero().count();
        let pair =
            |a: usize, b: usize| SourcePair::new(SourceId::from_index(a), SourceId::from_index(b));
        let ex = motivating_example();
        let mut counts = SharedItemCounts::build(&ex.dataset);
        assert_eq!(counts.num_sharing_pairs(), walk(&counts));
        counts.grow(12);
        counts.increment(pair(3, 11), 1);
        counts.increment(pair(3, 11), 2);
        counts.increment(pair(0, 1), 1);
        counts.increment(pair(10, 11), 0);
        assert_eq!(counts.num_sharing_pairs(), 46);
        assert_eq!(counts.num_sharing_pairs(), walk(&counts));
        counts.grow(DENSE_LIMIT + 2);
        assert!(matches!(counts.repr, Repr::Sparse(_)));
        assert_eq!(counts.num_sharing_pairs(), walk(&counts));
        counts.increment(pair(4, DENSE_LIMIT + 1), 1);
        counts.increment(pair(4, DENSE_LIMIT + 1), 1);
        counts.increment(pair(3, 11), 1);
        counts.increment(pair(5, DENSE_LIMIT), 0);
        assert_eq!(counts.num_sharing_pairs(), 47);
        assert_eq!(counts.num_sharing_pairs(), walk(&counts));
    }

    fn pair(a: usize, b: usize) -> SourcePair {
        SourcePair::new(SourceId::from_index(a), SourceId::from_index(b))
    }

    /// An increment beyond the covered sources grows the table — dense or
    /// sparse — instead of indexing past it, and keeps every count.
    #[test]
    fn increment_outside_the_table_grows_it() {
        let mut counts = SharedItemCounts::build(&motivating_example().dataset);
        let before: Vec<_> = counts.iter_nonzero().collect();
        assert!(matches!(counts.repr, Repr::Dense(_)));
        let n = counts.num_sources();
        counts.increment(pair(2, n + 3), 2);
        assert!(matches!(counts.repr, Repr::Dense(_)));
        assert_eq!(counts.num_sources(), n + 4);
        assert_eq!(counts.get(pair(2, n + 3)), 2);
        assert_eq!(counts.num_sharing_pairs(), before.len() + 1);
        for &(p, c) in &before {
            assert_eq!(counts.get(p), c, "pair {p}");
        }
        counts.increment(pair(0, DENSE_LIMIT + 1), 1);
        assert!(matches!(counts.repr, Repr::Sparse(_)));
        assert_eq!(counts.num_sources(), DENSE_LIMIT + 2);
        assert_eq!(counts.get(pair(0, DENSE_LIMIT + 1)), 1);
        assert_eq!(counts.get(pair(2, n + 3)), 2);
        assert_eq!(counts.num_sharing_pairs(), before.len() + 2);
    }

    /// A pair beyond the sources the dense table covers counts 0 instead of
    /// indexing past the table.
    #[test]
    fn dense_get_outside_the_table_is_zero() {
        let counts = SharedItemCounts::build(&motivating_example().dataset);
        assert!(matches!(counts.repr, Repr::Dense(_)));
        let n = counts.num_sources();
        assert!(counts.get(pair(0, n - 1)) > 0);
        assert_eq!(counts.get(pair(0, n)), 0);
        assert_eq!(counts.get(pair(n, n + 7)), 0);
    }

    /// The sparse map answers 0 for a pair beyond its sources, as the dense
    /// table does.
    #[test]
    fn sparse_get_outside_the_table_is_zero() {
        let mut counts = SharedItemCounts::build(&motivating_example().dataset);
        let covered = counts.get(pair(0, 9));
        counts.grow(DENSE_LIMIT + 2);
        assert!(matches!(counts.repr, Repr::Sparse(_)));
        assert_eq!(counts.get(pair(0, 9)), covered);
        assert_eq!(counts.get(pair(0, DENSE_LIMIT + 2)), 0);
        assert_eq!(counts.get(pair(DENSE_LIMIT + 5, DENSE_LIMIT + 9)), 0);
    }

    #[test]
    fn iter_nonzero_matches_get() {
        let ex = motivating_example();
        let counts = SharedItemCounts::build(&ex.dataset);
        for (pair, c) in counts.iter_nonzero() {
            assert_eq!(counts.get(pair), c);
            assert!(c > 0);
        }
    }
}
