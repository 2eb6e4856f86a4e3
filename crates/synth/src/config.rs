//! Configuration of the synthetic workload generator.

/// How many items each source covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoverageModel {
    /// Every source covers an (independently sampled) fraction of the items
    /// drawn uniformly from `[min_fraction, max_fraction]` — the Stock-like
    /// shape where most sources cover more than half of the items.
    Uniform {
        /// Lower bound of the coverage fraction.
        min_fraction: f64,
        /// Upper bound of the coverage fraction.
        max_fraction: f64,
    },
    /// Coverage follows a Zipf-like rank distribution: the `rank`-th source
    /// covers `max_fraction · rank^(−exponent)` of the items (at least
    /// `min_items`) — the Book-like shape where a handful of aggregators
    /// cover a lot and ~85% of sources cover at most 1% of the items.
    Zipf {
        /// Coverage fraction of the highest-ranked source.
        max_fraction: f64,
        /// Zipf exponent (larger ⇒ steeper drop-off).
        exponent: f64,
        /// Minimum number of items every source covers.
        min_items: usize,
    },
}

/// How per-source accuracies are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccuracyModel {
    /// Accuracies drawn uniformly from `[min, max]`.
    Uniform {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// A fraction of sources is "good" with one accuracy, the rest "bad"
    /// with another — the shape of the paper's motivating example.
    Bimodal {
        /// Accuracy of good sources.
        good: f64,
        /// Accuracy of bad sources.
        bad: f64,
        /// Fraction of sources that are good.
        fraction_good: f64,
    },
}

/// How copier groups are planted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyingConfig {
    /// Number of copier groups. Each group has one original and one or more
    /// copiers.
    pub num_groups: usize,
    /// Minimum number of copiers per group (excluding the original).
    pub min_copiers: usize,
    /// Maximum number of copiers per group (excluding the original).
    pub max_copiers: usize,
    /// Probability that a copier copies the original's value on an item the
    /// original provides (the model's selectivity `s`).
    pub selectivity: f64,
}

impl CopyingConfig {
    /// No copying at all.
    pub fn none() -> Self {
        Self { num_groups: 0, min_copiers: 0, max_copiers: 0, selectivity: 0.0 }
    }
}

/// Full configuration of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Number of sources.
    pub num_sources: usize,
    /// Number of data items.
    pub num_items: usize,
    /// Number of false values in each item's domain.
    pub n_false_values: u32,
    /// Coverage model.
    pub coverage: CoverageModel,
    /// Accuracy model.
    pub accuracy: AccuracyModel,
    /// Copying model.
    pub copying: CopyingConfig,
    /// RNG seed; the generator is fully deterministic for a fixed
    /// configuration.
    pub seed: u64,
}

impl SynthConfig {
    /// A small default configuration useful in tests: 20 sources, 200 items,
    /// mixed accuracies, two copier groups.
    pub fn small(seed: u64) -> Self {
        Self {
            num_sources: 20,
            num_items: 200,
            n_false_values: 20,
            coverage: CoverageModel::Uniform { min_fraction: 0.4, max_fraction: 0.9 },
            accuracy: AccuracyModel::Uniform { min: 0.5, max: 0.95 },
            copying: CopyingConfig {
                num_groups: 2,
                min_copiers: 1,
                max_copiers: 3,
                selectivity: 0.8,
            },
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_well_formed() {
        let c = SynthConfig::small(1);
        assert_eq!(c.num_sources, 20);
        assert!(c.copying.num_groups > 0);
        assert_eq!(CopyingConfig::none().num_groups, 0);
    }
}
