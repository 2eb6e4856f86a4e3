//! The iterative ACCUCOPY loop: copy detection → value probabilities →
//! source accuracies, repeated to convergence (Section II-A).

use crate::accu::accuracy_from_probabilities;
use crate::api::CopyDetector;
use crate::error::FusionError;
use crate::pairwise::PairwiseDetector;
use crate::round::{FusionRoundStats, RoundTimings};
use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{DetectionResult, RoundInput};
use copydet_fusion::{value_probabilities, VoteConfig};
use copydet_model::{Dataset, ItemId, ValueId};
use std::collections::HashMap;
use std::time::Instant;

/// Configuration of the iterative fusion process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionConfig {
    /// Model priors (α, n, s) shared with the copy detector.
    pub params: CopyParams,
    /// Accuracy every source starts with ("starting with assuming the same
    /// accuracy for each source"); the paper's implementations use 0.8.
    pub initial_accuracy: f64,
    /// Maximum number of rounds before stopping even without convergence.
    pub max_rounds: usize,
    /// The process stops once the largest accuracy change of a round falls
    /// below this threshold.
    pub accuracy_epsilon: f64,
    /// Whether votes are discounted by detected copying. Disabling this
    /// yields the ACCU baseline (accuracy-weighted fusion without copy
    /// detection).
    pub consider_copying: bool,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self {
            params: CopyParams::paper_defaults(),
            initial_accuracy: 0.8,
            max_rounds: 20,
            accuracy_epsilon: 1e-3,
            consider_copying: true,
        }
    }
}

impl FusionConfig {
    fn validate(&self) -> Result<(), FusionError> {
        if !(self.initial_accuracy > 0.0 && self.initial_accuracy < 1.0) {
            return Err(FusionError::InvalidConfig {
                field: "initial_accuracy",
                message: format!("{} is not in (0, 1)", self.initial_accuracy),
            });
        }
        if self.max_rounds == 0 {
            return Err(FusionError::InvalidConfig {
                field: "max_rounds",
                message: "must be at least 1".into(),
            });
        }
        if self.accuracy_epsilon < 0.0 {
            return Err(FusionError::InvalidConfig {
                field: "accuracy_epsilon",
                message: "must be non-negative".into(),
            });
        }
        Ok(())
    }
}

/// The result of the iterative fusion process.
#[derive(Debug, Clone)]
pub struct FusionOutcome {
    /// The value judged true for every claimed item.
    pub truths: HashMap<ItemId, ValueId>,
    /// Final value probabilities.
    pub probabilities: ValueProbabilities,
    /// Final source accuracies.
    pub accuracies: SourceAccuracies,
    /// The copy-detection result of the final round (`None` when copying was
    /// not considered).
    pub final_detection: Option<DetectionResult>,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Whether the accuracy change fell below the convergence threshold
    /// before the round limit.
    pub converged: bool,
    /// Per-round statistics.
    pub round_stats: Vec<FusionRoundStats>,
}

impl FusionOutcome {
    /// The value judged true for `item`, if any source provided one.
    pub fn truth(&self, item: ItemId) -> Option<ValueId> {
        self.truths.get(&item).copied()
    }

    /// Total copy-detection time across all rounds.
    pub fn total_detection_time(&self) -> std::time::Duration {
        self.round_stats.iter().map(|r| r.timings.copy_detection).sum()
    }

    /// Total number of copy-detection computations across all rounds.
    pub fn total_detection_computations(&self) -> u64 {
        self.round_stats.iter().map(|r| r.detection_computations).sum()
    }
}

/// The iterative truth-finding process with a pluggable copy detector.
pub struct AccuCopy<D> {
    config: FusionConfig,
    detector: D,
}

impl<D: CopyDetector> AccuCopy<D> {
    /// Creates the process with the given configuration and detector.
    pub fn new(config: FusionConfig, detector: D) -> Self {
        Self { config, detector }
    }

    /// Consumes the process and returns the detector (useful to read
    /// detector-specific statistics such as INCREMENTAL's pass counts).
    pub fn into_detector(self) -> D {
        self.detector
    }

    /// A reference to the detector.
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// Runs the iterative process on `dataset`.
    pub fn run(&mut self, dataset: &Dataset) -> Result<FusionOutcome, FusionError> {
        self.config.validate()?;
        if dataset.num_claims() == 0 {
            return Err(FusionError::EmptyDataset);
        }
        let vote_config = VoteConfig::new(self.config.params);
        self.detector.reset();

        let mut accuracies =
            SourceAccuracies::uniform(dataset.num_sources(), self.config.initial_accuracy)
                .expect("initial accuracy was validated");
        // Round 0 bootstrap: probabilities from accuracy-weighted voting with
        // no copy information yet.
        let mut probabilities = value_probabilities(dataset, &accuracies, None, &vote_config);

        let mut round_stats = Vec::new();
        let mut final_detection = None;
        let mut converged = false;
        let mut rounds = 0;

        for round in 1..=self.config.max_rounds {
            rounds = round;
            let mut timings = RoundTimings::default();

            // (1) Copy detection with the current estimates.
            let detection = if self.config.consider_copying {
                let start = Instant::now();
                let input =
                    RoundInput::new(dataset, &accuracies, &probabilities, self.config.params);
                let result = self.detector.detect_round(&input, round);
                timings.copy_detection = start.elapsed();
                Some(result)
            } else {
                None
            };

            // (2) Value probabilities with copy discounting.
            let start = Instant::now();
            let new_probabilities =
                value_probabilities(dataset, &accuracies, detection.as_ref(), &vote_config);
            timings.truth_computation = start.elapsed();

            // (3) Source accuracies.
            let start = Instant::now();
            let new_accuracies = accuracy_from_probabilities(
                dataset,
                &new_probabilities,
                self.config.initial_accuracy,
            );
            timings.accuracy_computation = start.elapsed();

            let max_accuracy_change = new_accuracies.max_abs_diff(&accuracies);
            let max_probability_change = new_probabilities.max_abs_diff(&probabilities);
            round_stats.push(FusionRoundStats {
                round,
                copying_pairs: detection.as_ref().map(|d| d.num_copying_pairs()).unwrap_or(0),
                detection_computations: detection.as_ref().map(|d| d.computations()).unwrap_or(0),
                max_accuracy_change,
                max_probability_change,
                accuracies: new_accuracies.as_slice().to_vec(),
                timings,
            });

            accuracies = new_accuracies;
            probabilities = new_probabilities;
            if let Some(d) = detection {
                final_detection = Some(d);
            }

            if max_accuracy_change < self.config.accuracy_epsilon {
                converged = true;
                break;
            }
        }

        // Truths: the most probable provided value per item.
        let mut truths = HashMap::new();
        for item in dataset.items() {
            let best = dataset
                .values_of_item(item)
                .iter()
                .map(|g| (g.value, probabilities.get(item, g.value)))
                .max_by(|a, b| {
                    a.1.partial_cmp(&b.1).expect("probabilities are never NaN").then(b.0.cmp(&a.0))
                });
            if let Some((value, _)) = best {
                truths.insert(item, value);
            }
        }

        Ok(FusionOutcome {
            truths,
            probabilities,
            accuracies,
            final_detection,
            rounds,
            converged,
            round_stats,
        })
    }
}

/// Accuracy-weighted fusion *without* copy detection (the ACCU baseline):
/// the same iterative loop with the detection step disabled.
pub fn accu_fusion(
    dataset: &Dataset,
    mut config: FusionConfig,
) -> Result<FusionOutcome, FusionError> {
    config.consider_copying = false;
    let mut process = AccuCopy::new(config, PairwiseDetector::new());
    process.run(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HybridDetector, IncrementalDetector, IndexDetector};
    use copydet_model::{motivating_example, SourceId};

    fn run_with<D: CopyDetector>(detector: D) -> FusionOutcome {
        let ex = motivating_example();
        let mut process = AccuCopy::new(FusionConfig::default(), detector);
        process.run(&ex.dataset).unwrap()
    }

    /// With copy detection, fusion recovers every true capital of the
    /// motivating example (naive voting and ACCU get New York wrong because
    /// of the copier clique).
    #[test]
    fn accucopy_finds_all_truths_on_motivating_example() {
        let ex = motivating_example();
        let outcome = run_with(PairwiseDetector::new());
        for (item, value) in &ex.true_values {
            assert_eq!(
                outcome.truth(*item),
                Some(*value),
                "wrong truth for {}",
                ex.dataset.item_name(*item)
            );
        }
        assert!(outcome.rounds >= 2, "iterative process should take several rounds");
        assert!(outcome.converged);
    }

    /// The iterative accuracies separate honest from dishonest sources, as in
    /// Table II: S0/S1/S9 end up highly accurate, the copier cliques low.
    #[test]
    fn accuracies_separate_honest_from_copiers() {
        let outcome = run_with(PairwiseDetector::new());
        for good in [0u32, 1, 9] {
            assert!(
                outcome.accuracies.get(SourceId::new(good)) > 0.85,
                "S{good} should look accurate, got {}",
                outcome.accuracies.get(SourceId::new(good))
            );
        }
        for bad in [2u32, 3, 6, 7, 8] {
            assert!(
                outcome.accuracies.get(SourceId::new(bad)) < 0.5,
                "S{bad} should look inaccurate, got {}",
                outcome.accuracies.get(SourceId::new(bad))
            );
        }
    }

    /// The final round's copy detection flags exactly the planted cliques.
    #[test]
    fn final_detection_flags_planted_cliques() {
        let ex = motivating_example();
        let outcome = run_with(PairwiseDetector::new());
        let detection = outcome.final_detection.as_ref().unwrap();
        let mut copying: Vec<_> = detection.copying_pairs().collect();
        copying.sort();
        let mut expected = ex.copying_pairs.clone();
        expected.sort();
        assert_eq!(copying, expected);
    }

    /// The ACCU baseline (no copy detection) runs the same loop with the
    /// detection step disabled. On this tiny example accuracy weighting alone
    /// happens to recover New York too (the honest sources earn high accuracy
    /// from the other items); the cases where copying genuinely fools ACCU
    /// are exercised at scale in the Table VI experiment. Here we check the
    /// baseline's mechanics: it runs, converges, reports no detection, and
    /// never beats ACCUCOPY on the gold standard.
    #[test]
    fn accu_baseline_mechanics() {
        let ex = motivating_example();
        let accu = accu_fusion(&ex.dataset, FusionConfig::default()).unwrap();
        assert!(accu.final_detection.is_none());
        assert!(accu.converged);
        assert_eq!(accu.total_detection_computations(), 0);
        let accucopy = run_with(PairwiseDetector::new());
        let correct = |o: &FusionOutcome| {
            ex.true_values.iter().filter(|(item, value)| o.truth(**item) == Some(**value)).count()
        };
        assert!(correct(&accu) <= correct(&accucopy));
        assert_eq!(correct(&accucopy), 5);
    }

    /// Plugging in the scalable detectors gives the same truths as PAIRWISE.
    #[test]
    fn scalable_detectors_give_same_truths() {
        let ex = motivating_example();
        let reference = run_with(PairwiseDetector::new());
        let with_index = run_with(IndexDetector::new());
        let with_hybrid = run_with(HybridDetector::new());
        let with_incremental = run_with(IncrementalDetector::new());
        for outcome in [&with_index, &with_hybrid, &with_incremental] {
            for (item, value) in &reference.truths {
                assert_eq!(outcome.truths.get(item), Some(value));
            }
        }
        // INCREMENTAL collected per-round statistics past the warm-up.
        let ex_rounds = reference.rounds;
        assert!(ex_rounds >= 2);
        assert_eq!(ex.dataset.num_items(), 5);
    }

    /// Round statistics are recorded and accuracy changes shrink over time.
    #[test]
    fn round_stats_track_convergence() {
        let outcome = run_with(PairwiseDetector::new());
        assert_eq!(outcome.round_stats.len(), outcome.rounds);
        let first = outcome.round_stats.first().unwrap();
        let last = outcome.round_stats.last().unwrap();
        assert!(last.max_accuracy_change <= first.max_accuracy_change);
        assert!(outcome.total_detection_computations() > 0);
        assert!(first.copying_pairs > 0);
    }

    /// Configuration validation and empty datasets are reported as errors.
    #[test]
    fn invalid_configs_and_empty_data_are_rejected() {
        let bad = FusionConfig { initial_accuracy: 1.5, ..Default::default() };
        let ex = motivating_example();
        assert!(AccuCopy::new(bad, PairwiseDetector::new()).run(&ex.dataset).is_err());
        let bad = FusionConfig { max_rounds: 0, ..Default::default() };
        assert!(AccuCopy::new(bad, PairwiseDetector::new()).run(&ex.dataset).is_err());
        let empty = copydet_model::DatasetBuilder::new().build();
        assert!(matches!(
            AccuCopy::new(FusionConfig::default(), PairwiseDetector::new()).run(&empty),
            Err(FusionError::EmptyDataset)
        ));
    }

    /// The detector can be recovered to inspect algorithm-specific state.
    #[test]
    fn detector_is_recoverable() {
        let ex = motivating_example();
        let mut process = AccuCopy::new(FusionConfig::default(), IncrementalDetector::new());
        let outcome = process.run(&ex.dataset).unwrap();
        assert!(outcome.rounds >= 2);
        let detector = process.into_detector();
        // Incremental statistics exist whenever the loop ran past the warm-up.
        if outcome.rounds > 2 {
            assert!(!detector.round_stats().is_empty());
        }
    }
}
