//! Item-sampling strategies (Section VI-A's SAMPLE1/SAMPLE2 baselines and
//! Section VI-E's coverage-aware SCALESAMPLE).
//!
//! All strategies select a subset of *data items*; detection then runs on the
//! dataset projected onto that subset ([`copydet_model::Dataset::project_items`]),
//! with source and item identifiers unchanged so the resulting copy decisions
//! remain comparable pair-by-pair.

use crate::api::CopyDetector;
use copydet_detect::{DetectError, DetectionResult, RoundInput};
use copydet_model::{Dataset, ItemId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// How data items are sampled before detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingStrategy {
    /// SAMPLE1 / BYITEM: keep a uniformly random fraction of the data items.
    ByItem {
        /// Fraction of items to keep, in `(0, 1]`.
        rate: f64,
    },
    /// SAMPLE2 / BYCELL: add random items until the kept claims ("non-empty
    /// cells" of the source × item table) reach this fraction of all claims.
    ByCell {
        /// Fraction of claims to cover, in `(0, 1]`.
        cell_fraction: f64,
    },
    /// SCALESAMPLE: keep a random fraction of the items but guarantee that
    /// every source keeps at least `min_items_per_source` of its own items
    /// (when it has that many), so low-coverage sources are not starved.
    CoverageAware {
        /// Base fraction of items to keep, in `(0, 1]`.
        rate: f64,
        /// Minimum number of items retained per source (the paper uses 4).
        min_items_per_source: usize,
    },
}

impl SamplingStrategy {
    /// The paper's SCALESAMPLE setting: the given rate with at least 4 items
    /// per source.
    pub fn scale_sample(rate: f64) -> Self {
        SamplingStrategy::CoverageAware { rate, min_items_per_source: 4 }
    }

    fn validate(&self) -> Result<(), DetectError> {
        let rate = match *self {
            SamplingStrategy::ByItem { rate } => rate,
            SamplingStrategy::ByCell { cell_fraction } => cell_fraction,
            SamplingStrategy::CoverageAware { rate, .. } => rate,
        };
        if rate > 0.0 && rate <= 1.0 {
            Ok(())
        } else {
            Err(DetectError::InvalidSamplingRate(rate))
        }
    }
}

/// Samples a set of data items from `dataset` according to `strategy`,
/// deterministically for a fixed `seed`.
pub fn sample_items(
    dataset: &Dataset,
    strategy: SamplingStrategy,
    seed: u64,
) -> Result<HashSet<ItemId>, DetectError> {
    strategy.validate()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut items: Vec<ItemId> = dataset.items().collect();
    items.shuffle(&mut rng);

    let selected: HashSet<ItemId> = match strategy {
        SamplingStrategy::ByItem { rate } => {
            let keep = ((dataset.num_items() as f64 * rate).round() as usize).max(1);
            items.into_iter().take(keep.min(dataset.num_items())).collect()
        }
        SamplingStrategy::ByCell { cell_fraction } => {
            let target = (dataset.num_claims() as f64 * cell_fraction).round() as usize;
            let mut covered = 0usize;
            let mut keep = HashSet::new();
            for d in items {
                if covered >= target && !keep.is_empty() {
                    break;
                }
                covered += dataset.item_provider_count(d);
                keep.insert(d);
            }
            keep
        }
        SamplingStrategy::CoverageAware { rate, min_items_per_source } => {
            let keep_count = ((dataset.num_items() as f64 * rate).round() as usize).max(1);
            let mut keep: HashSet<ItemId> =
                items.iter().copied().take(keep_count.min(dataset.num_items())).collect();
            // Guarantee every source keeps at least `min_items_per_source`
            // of the items it actually provides.
            for s in dataset.sources() {
                let claims = dataset.claims_of(s);
                let already = claims.iter().filter(|(d, _)| keep.contains(d)).count();
                if already >= min_items_per_source || claims.is_empty() {
                    continue;
                }
                let mut candidates: Vec<ItemId> =
                    claims.iter().map(|&(d, _)| d).filter(|d| !keep.contains(d)).collect();
                candidates.shuffle(&mut rng);
                let need = (min_items_per_source - already).min(candidates.len());
                keep.extend(candidates.into_iter().take(need));
            }
            keep
        }
    };
    Ok(selected)
}

/// Runs any detector on a sampled projection of the dataset.
///
/// The item sample is drawn once (at the first round) and reused in later
/// rounds, so iterative detection sees a consistent subset. Sampling time is
/// charged to the reported detection time, mirroring how the paper accounts
/// for sampling overhead.
pub struct SampledDetector<D> {
    strategy: SamplingStrategy,
    seed: u64,
    inner: D,
    name: &'static str,
    sample: Option<HashSet<ItemId>>,
}

impl<D: CopyDetector> SampledDetector<D> {
    /// Wraps `inner` so it runs on items sampled with `strategy`.
    pub fn new(strategy: SamplingStrategy, seed: u64, inner: D, name: &'static str) -> Self {
        Self { strategy, seed, inner, name, sample: None }
    }

    /// The paper's SCALESAMPLE method: INCREMENTAL-style inner detection is
    /// typical, but any detector works.
    pub fn scale_sample(rate: f64, seed: u64, inner: D) -> Self {
        Self::new(SamplingStrategy::scale_sample(rate), seed, inner, "SCALESAMPLE")
    }

    /// The sampled item set, if a round has run already.
    pub fn sampled_items(&self) -> Option<&HashSet<ItemId>> {
        self.sample.as_ref()
    }
}

impl<D: CopyDetector> CopyDetector for SampledDetector<D> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn detect_round(&mut self, input: &RoundInput<'_>, round: usize) -> DetectionResult {
        let start = Instant::now();
        if self.sample.is_none() {
            self.sample = Some(
                sample_items(input.dataset, self.strategy, self.seed)
                    .expect("sampling strategy was validated at construction"),
            );
        }
        let sample = self.sample.as_ref().expect("sample drawn above");
        let projected = input.dataset.project_items(sample);
        let sampling_time = start.elapsed();

        let projected_input =
            RoundInput::new(&projected, input.accuracies, input.probabilities, input.params);
        let mut result = self.inner.detect_round(&projected_input, round);
        result.algorithm = self.name.to_string();
        result.detection_time += sampling_time;
        result
    }

    fn reset(&mut self) {
        self.sample = None;
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::PairwiseDetector;
    use crate::scan::IndexDetector;
    use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
    use copydet_model::motivating_example;

    #[test]
    fn by_item_respects_rate() {
        let ex = motivating_example();
        let items = sample_items(&ex.dataset, SamplingStrategy::ByItem { rate: 0.4 }, 1).unwrap();
        assert_eq!(items.len(), 2); // 40% of 5 items
                                    // deterministic
        let again = sample_items(&ex.dataset, SamplingStrategy::ByItem { rate: 0.4 }, 1).unwrap();
        assert_eq!(items, again);
        let other_seed =
            sample_items(&ex.dataset, SamplingStrategy::ByItem { rate: 0.4 }, 2).unwrap();
        assert_eq!(other_seed.len(), 2);
    }

    #[test]
    fn by_cell_reaches_target_fraction() {
        let ex = motivating_example();
        let items =
            sample_items(&ex.dataset, SamplingStrategy::ByCell { cell_fraction: 0.5 }, 3).unwrap();
        let covered: usize = items.iter().map(|&d| ex.dataset.item_provider_count(d)).sum();
        assert!(covered >= (ex.dataset.num_claims() as f64 * 0.5) as usize);
        assert!(items.len() < ex.dataset.num_items());
    }

    #[test]
    fn coverage_aware_guarantees_minimum_per_source() {
        let ex = motivating_example();
        let items = sample_items(
            &ex.dataset,
            SamplingStrategy::CoverageAware { rate: 0.2, min_items_per_source: 3 },
            7,
        )
        .unwrap();
        for s in ex.dataset.sources() {
            let kept = ex.dataset.claims_of(s).iter().filter(|(d, _)| items.contains(d)).count();
            let available = ex.dataset.coverage(s);
            assert!(kept >= 3.min(available), "source {s} kept only {kept} items");
        }
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let ex = motivating_example();
        assert!(sample_items(&ex.dataset, SamplingStrategy::ByItem { rate: 0.0 }, 0).is_err());
        assert!(sample_items(&ex.dataset, SamplingStrategy::ByItem { rate: 1.5 }, 0).is_err());
        assert!(
            sample_items(&ex.dataset, SamplingStrategy::ByCell { cell_fraction: -0.1 }, 0).is_err()
        );
    }

    #[test]
    fn full_rate_keeps_everything() {
        let ex = motivating_example();
        let items = sample_items(&ex.dataset, SamplingStrategy::ByItem { rate: 1.0 }, 0).unwrap();
        assert_eq!(items.len(), ex.dataset.num_items());
    }

    #[test]
    fn sampled_detector_runs_and_caches_sample() {
        let ex = motivating_example();
        let acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let mut d = SampledDetector::new(
            SamplingStrategy::ByItem { rate: 0.6 },
            5,
            PairwiseDetector::new(),
            "SAMPLE1",
        );
        assert!(d.sampled_items().is_none());
        let r1 = d.detect_round(&input, 1);
        assert_eq!(r1.algorithm, "SAMPLE1");
        let sample1 = d.sampled_items().unwrap().clone();
        let _ = d.detect_round(&input, 2);
        assert_eq!(&sample1, d.sampled_items().unwrap(), "sample is reused across rounds");
        d.reset();
        assert!(d.sampled_items().is_none());
    }

    #[test]
    fn full_rate_sampling_reproduces_unsampled_decisions() {
        let ex = motivating_example();
        let acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let mut sampled = SampledDetector::scale_sample(1.0, 9, IndexDetector::new());
        assert_eq!(sampled.name(), "SCALESAMPLE");
        let r = sampled.detect_round(&input, 1);
        let full = crate::scan::index_detection(&input);
        assert_eq!(
            r.copying_pairs().collect::<std::collections::BTreeSet<_>>(),
            full.copying_pairs().collect::<std::collections::BTreeSet<_>>()
        );
    }
}
