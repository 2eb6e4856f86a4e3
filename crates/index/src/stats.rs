//! Index summary statistics (the "#Index-entries" column of Table V and the
//! quantities discussed in Section VI-B).

use crate::builder::InvertedIndex;

/// Summary statistics of an [`InvertedIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Number of index entries (shared `(item, value)` combinations).
    pub num_entries: usize,
    /// Number of entries in the low-score suffix `Ē`.
    pub num_ebar_entries: usize,
    /// Number of source pairs that share at least one data item.
    pub num_sharing_pairs: usize,
    /// Number of source pairs that co-occur in at least one index entry,
    /// i.e. share at least one value.
    pub num_value_sharing_pairs: usize,
    /// Total number of provider incidences across entries (the amount of
    /// provider-list data the index holds).
    pub total_providers: usize,
    /// Total number of provider pairs across entries — an upper bound on the
    /// pair updates a full index scan performs.
    pub total_provider_pairs: usize,
    /// Largest provider list of any entry.
    pub max_providers_per_entry: usize,
    /// Highest entry score.
    pub max_score: f64,
    /// Lowest entry score.
    pub min_score: f64,
}

impl IndexStats {
    /// Computes statistics for `index`.
    pub fn compute(index: &InvertedIndex) -> Self {
        let entries = index.entries();
        let mut value_sharing_pairs = std::collections::HashSet::new();
        for e in entries {
            for i in 0..e.providers.len() {
                for j in (i + 1)..e.providers.len() {
                    value_sharing_pairs
                        .insert(copydet_model::SourcePair::new(e.providers[i], e.providers[j]));
                }
            }
        }
        IndexStats {
            num_entries: entries.len(),
            num_ebar_entries: entries.len() - index.ebar_start(),
            num_sharing_pairs: index.shared_item_counts().num_sharing_pairs(),
            num_value_sharing_pairs: value_sharing_pairs.len(),
            total_providers: entries.iter().map(|e| e.num_providers()).sum(),
            total_provider_pairs: entries.iter().map(|e| e.num_pairs()).sum(),
            max_providers_per_entry: entries.iter().map(|e| e.num_providers()).max().unwrap_or(0),
            max_score: entries.first().map(|e| e.score).unwrap_or(0.0),
            min_score: entries.last().map(|e| e.score).unwrap_or(0.0),
        }
    }
}

impl std::fmt::Display for IndexStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "entries:              {}", self.num_entries)?;
        writeln!(f, "entries in Ē:         {}", self.num_ebar_entries)?;
        writeln!(f, "pairs sharing items:  {}", self.num_sharing_pairs)?;
        writeln!(f, "pairs sharing values: {}", self.num_value_sharing_pairs)?;
        writeln!(f, "provider incidences:  {}", self.total_providers)?;
        writeln!(f, "provider pairs:       {}", self.total_provider_pairs)?;
        write!(f, "score range:          [{:.3}, {:.3}]", self.min_score, self.max_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
    use copydet_model::motivating_example;

    #[test]
    fn stats_on_motivating_example() {
        let ex = motivating_example();
        let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probabilities = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let index = InvertedIndex::build(
            &ex.dataset,
            &accuracies,
            &probabilities,
            &CopyParams::paper_defaults(),
        );
        let stats = index.stats();
        assert_eq!(stats.num_entries, 13);
        assert_eq!(stats.num_ebar_entries, 2);
        // Every pair shares at least the TX item; 27 pairs share a value
        // (45 total pairs minus the 18 that share no value, Section II-B).
        assert_eq!(stats.num_sharing_pairs, 45);
        assert_eq!(stats.num_value_sharing_pairs, 27);
        assert!(stats.max_score > stats.min_score);
        assert!((stats.max_score - 4.59).abs() < 0.01);
        assert_eq!(stats.max_providers_per_entry, 5);
        let text = stats.to_string();
        assert!(text.contains("entries:"));
    }
}
