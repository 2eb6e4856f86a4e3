//! Dataset summary statistics (the quantities reported in Table V and
//! Section VI-A of the paper).

use crate::dataset::Dataset;

/// Summary statistics of a [`Dataset`].
///
/// These are the quantities the paper uses to characterize its four
/// evaluation datasets: number of sources, number of data items, number of
/// distinct values, how many values are shared (i.e. would be indexed), the
/// conflict fan-out per item, and the coverage skew across sources.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of sources.
    pub num_sources: usize,
    /// Number of data items.
    pub num_items: usize,
    /// Number of data items with at least one claim.
    pub num_claimed_items: usize,
    /// Total number of claims.
    pub num_claims: usize,
    /// Number of distinct `(item, value)` combinations.
    pub num_distinct_item_values: usize,
    /// Number of `(item, value)` combinations provided by ≥ 2 sources; this
    /// is the number of entries the inverted index will contain.
    pub num_shared_item_values: usize,
    /// Average number of distinct values per claimed item (the paper's
    /// "conflicting values provided for each data item").
    pub avg_values_per_item: f64,
    /// Average fraction of items covered by a source.
    pub avg_source_coverage: f64,
    /// Fraction of sources that cover at most 1% of the items (the paper's
    /// characterization of the Book datasets).
    pub frac_sources_low_coverage: f64,
    /// Fraction of sources that cover at least half of the items (the
    /// paper's characterization of the Stock datasets).
    pub frac_sources_high_coverage: f64,
    /// Maximum number of items covered by any single source.
    pub max_source_coverage: usize,
    /// Minimum number of items covered by any single source (0 if a source
    /// has no claims).
    pub min_source_coverage: usize,
}

impl DatasetStats {
    /// Computes statistics for `ds`.
    pub fn compute(ds: &Dataset) -> Self {
        let num_sources = ds.num_sources();
        let num_items = ds.num_items();
        let num_claims = ds.num_claims();

        let mut num_claimed_items = 0;
        let mut num_distinct_item_values = 0;
        let mut num_shared_item_values = 0;
        for d in ds.items() {
            let groups = ds.values_of_item(d);
            if !groups.is_empty() {
                num_claimed_items += 1;
            }
            num_distinct_item_values += groups.len();
            num_shared_item_values += groups.iter().filter(|g| g.support() >= 2).count();
        }

        let avg_values_per_item = if num_claimed_items > 0 {
            num_distinct_item_values as f64 / num_claimed_items as f64
        } else {
            0.0
        };

        let coverages: Vec<usize> = ds.sources().map(|s| ds.coverage(s)).collect();
        let avg_source_coverage = if num_sources > 0 && num_items > 0 {
            coverages.iter().sum::<usize>() as f64 / (num_sources as f64 * num_items as f64)
        } else {
            0.0
        };
        let low_threshold = (num_items as f64 * 0.01).ceil() as usize;
        let high_threshold = num_items / 2;
        let frac_sources_low_coverage = if num_sources > 0 {
            coverages.iter().filter(|&&c| c <= low_threshold).count() as f64 / num_sources as f64
        } else {
            0.0
        };
        let frac_sources_high_coverage = if num_sources > 0 {
            coverages.iter().filter(|&&c| c >= high_threshold).count() as f64 / num_sources as f64
        } else {
            0.0
        };

        DatasetStats {
            num_sources,
            num_items,
            num_claimed_items,
            num_claims,
            num_distinct_item_values,
            num_shared_item_values,
            avg_values_per_item,
            avg_source_coverage,
            frac_sources_low_coverage,
            frac_sources_high_coverage,
            max_source_coverage: coverages.iter().copied().max().unwrap_or(0),
            min_source_coverage: coverages.iter().copied().min().unwrap_or(0),
        }
    }
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "sources:               {}", self.num_sources)?;
        writeln!(f, "items:                 {}", self.num_items)?;
        writeln!(f, "claims:                {}", self.num_claims)?;
        writeln!(f, "distinct item-values:  {}", self.num_distinct_item_values)?;
        writeln!(f, "shared item-values:    {}", self.num_shared_item_values)?;
        writeln!(f, "avg values per item:   {:.2}", self.avg_values_per_item)?;
        writeln!(f, "avg source coverage:   {:.4}", self.avg_source_coverage)?;
        writeln!(f, "low-coverage sources:  {:.2}%", self.frac_sources_low_coverage * 100.0)?;
        write!(f, "high-coverage sources: {:.2}%", self.frac_sources_high_coverage * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DatasetBuilder;

    #[test]
    fn stats_on_small_dataset() {
        let mut b = DatasetBuilder::new();
        b.add_claim("S0", "D0", "a");
        b.add_claim("S1", "D0", "a");
        b.add_claim("S2", "D0", "b");
        b.add_claim("S0", "D1", "c");
        let ds = b.build();
        let st = ds.stats();
        assert_eq!(st.num_sources, 3);
        assert_eq!(st.num_items, 2);
        assert_eq!(st.num_claims, 4);
        assert_eq!(st.num_claimed_items, 2);
        // D0 has values {a,b}, D1 has {c}
        assert_eq!(st.num_distinct_item_values, 3);
        // only D0.a is provided by >=2 sources
        assert_eq!(st.num_shared_item_values, 1);
        assert!((st.avg_values_per_item - 1.5).abs() < 1e-12);
        assert_eq!(st.max_source_coverage, 2);
        assert_eq!(st.min_source_coverage, 1);
        // coverage fractions: items=2, half = 1, everyone covers >= 1 item
        assert!((st.frac_sources_high_coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_dataset() {
        let ds = DatasetBuilder::new().build();
        let st = ds.stats();
        assert_eq!(st.num_sources, 0);
        assert_eq!(st.num_claims, 0);
        assert_eq!(st.avg_values_per_item, 0.0);
        assert_eq!(st.avg_source_coverage, 0.0);
    }

    #[test]
    fn display_renders() {
        let mut b = DatasetBuilder::new();
        b.add_claim("S0", "D0", "a");
        let text = b.build().stats().to_string();
        assert!(text.contains("sources:"));
        assert!(text.contains("claims:"));
    }
}
