//! Entry processing orders (the paper's Figure 3 comparison).

use crate::entry::IndexEntry;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The order in which index entries are scanned by the detection algorithms.
///
/// The index itself always stores entries in decreasing contribution-score
/// order (which also defines the `Ē` suffix); an `EntryOrdering` produces a
/// *processing permutation* over those entries. To keep every algorithm's
/// decisions well-defined regardless of ordering, the permutation never moves
/// an `Ē` entry ahead of a non-`Ē` entry — the paper's Step II/Step III
/// separation — it only permutes the two regions internally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EntryOrdering {
    /// Decreasing contribution score (the paper's proposal, BYCONTRIBUTION).
    #[default]
    ByContribution,
    /// Increasing number of providers (BYPROVIDER).
    ByProvider,
    /// A seeded random shuffle (RANDOM).
    Random {
        /// RNG seed, so experiments are reproducible.
        seed: u64,
    },
}

impl EntryOrdering {
    /// Produces the processing order: a permutation of `0..entries.len()`
    /// where all indices `< ebar_start` (entries outside `Ē`) appear before
    /// all indices `>= ebar_start`.
    pub fn permutation(&self, entries: &[IndexEntry], ebar_start: usize) -> Vec<u32> {
        let mut head: Vec<u32> = (0..ebar_start as u32).collect();
        let mut tail: Vec<u32> = (ebar_start as u32..entries.len() as u32).collect();
        match *self {
            EntryOrdering::ByContribution => {}
            EntryOrdering::ByProvider => {
                head.sort_by_key(|&i| entries[i as usize].num_providers());
                tail.sort_by_key(|&i| entries[i as usize].num_providers());
            }
            EntryOrdering::Random { seed } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                head.shuffle(&mut rng);
                tail.shuffle(&mut rng);
            }
        }
        head.extend_from_slice(&tail);
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::{ItemId, SourceId, ValueId};

    fn entries() -> Vec<IndexEntry> {
        (0..6)
            .map(|i| IndexEntry {
                item: ItemId::new(i),
                value: ValueId::new(i),
                probability: 0.1,
                score: 6.0 - i as f64,
                providers: (0..=(i % 3) + 1).map(SourceId::new).collect(),
            })
            .collect()
    }

    #[test]
    fn by_contribution_is_identity() {
        let e = entries();
        let p = EntryOrdering::ByContribution.permutation(&e, 4);
        assert_eq!(p, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn permutations_respect_ebar_boundary() {
        let e = entries();
        for ordering in [
            EntryOrdering::ByProvider,
            EntryOrdering::Random { seed: 7 },
            EntryOrdering::ByContribution,
        ] {
            let p = ordering.permutation(&e, 4);
            assert_eq!(p.len(), e.len());
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5], "not a permutation: {p:?}");
            assert!(p[..4].iter().all(|&i| i < 4), "Ē entry before the boundary: {p:?}");
            assert!(p[4..].iter().all(|&i| i >= 4));
        }
    }

    #[test]
    fn by_provider_orders_by_provider_count() {
        let e = entries();
        let p = EntryOrdering::ByProvider.permutation(&e, e.len());
        let counts: Vec<usize> = p.iter().map(|&i| e[i as usize].num_providers()).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn random_is_reproducible() {
        let e = entries();
        let a = EntryOrdering::Random { seed: 42 }.permutation(&e, 3);
        let b = EntryOrdering::Random { seed: 42 }.permutation(&e, 3);
        let c = EntryOrdering::Random { seed: 43 }.permutation(&e, 3);
        assert_eq!(a, b);
        assert!(a != c || a == vec![0, 1, 2, 3, 4, 5]);
    }
}
