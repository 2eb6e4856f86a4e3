//! Running a method end-to-end (inside the iterative fusion loop) or for a
//! single detection round, with timing.

use crate::methods::Method;
use crate::{AccuCopy, CopyDetector, FusionConfig, FusionOutcome};
use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{DetectionResult, RoundInput};
use copydet_synth::SyntheticDataset;
use std::time::{Duration, Instant};

/// The outcome of running one method through the full iterative fusion
/// process on one dataset.
pub struct FusionRun {
    /// The method that was run.
    pub method: Method,
    /// Dataset name.
    pub dataset: String,
    /// The fusion outcome (truths, accuracies, per-round stats).
    pub outcome: FusionOutcome,
    /// Total copy-detection time summed over rounds.
    pub detection_time: Duration,
    /// Total copy-detection computations summed over rounds.
    pub detection_computations: u64,
    /// Wall-clock time of the whole fusion run.
    pub total_time: Duration,
}

/// Runs `method` inside the iterative fusion loop on `synth`.
pub fn run_fusion(
    synth: &SyntheticDataset,
    method: Method,
    params: CopyParams,
    seed: u64,
) -> FusionRun {
    let detector = method.build_detector(&synth.name, seed);
    let config = FusionConfig { params, ..FusionConfig::default() };
    let mut process = AccuCopy::new(config, DynDetector(detector));
    let start = Instant::now();
    let outcome = process.run(&synth.dataset).expect("synthetic datasets are non-empty");
    let total_time = start.elapsed();
    FusionRun {
        method,
        dataset: synth.name.clone(),
        detection_time: outcome.total_detection_time(),
        detection_computations: outcome.total_detection_computations(),
        outcome,
        total_time,
    }
}

/// Runs a single detection round of `method` against a fixed accuracy /
/// probability state (uniform accuracies, voting-based probabilities), as
/// the single-round comparisons of Figure 2 / Figure 3 require.
pub fn run_single_round(
    synth: &SyntheticDataset,
    detector: &mut dyn CopyDetector,
    params: CopyParams,
) -> DetectionResult {
    let accuracies = SourceAccuracies::uniform(synth.dataset.num_sources(), 0.8)
        .expect("0.8 is a valid accuracy");
    let probabilities = bootstrap_probabilities(synth, &accuracies, params);
    let input = RoundInput::new(&synth.dataset, &accuracies, &probabilities, params);
    detector.detect_round(&input, 1)
}

/// The bootstrap value probabilities used for single-round experiments:
/// accuracy-weighted voting without copy discounting.
pub fn bootstrap_probabilities(
    synth: &SyntheticDataset,
    accuracies: &SourceAccuracies,
    params: CopyParams,
) -> ValueProbabilities {
    copydet_detect::value_probabilities(
        &synth.dataset,
        accuracies,
        None,
        &copydet_detect::VoteConfig::new(params),
    )
}

/// A boxed detector adapter so `AccuCopy` (generic over `D: CopyDetector`)
/// can drive trait objects produced by [`Method::build_detector`].
struct DynDetector(Box<dyn CopyDetector>);

impl CopyDetector for DynDetector {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn detect_round(&mut self, input: &RoundInput<'_>, round: usize) -> DetectionResult {
        self.0.detect_round(input, round)
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_synth::SynthConfig;

    fn small_dataset() -> SyntheticDataset {
        copydet_synth::generate("small", &SynthConfig::small(3))
    }

    #[test]
    fn run_fusion_produces_truths_and_timing() {
        let synth = small_dataset();
        let run = run_fusion(&synth, Method::Index, CopyParams::paper_defaults(), 1);
        assert_eq!(run.method, Method::Index);
        assert_eq!(run.dataset, "small");
        assert!(!run.outcome.truths.is_empty());
        assert!(run.detection_computations > 0);
        assert!(run.total_time >= run.detection_time);
        // With decent source accuracies the fusion recovers most truths.
        let accuracy = synth.gold.fusion_accuracy(&run.outcome.truths, None);
        assert!(accuracy > 0.6, "fusion accuracy {accuracy} unexpectedly low");
    }

    #[test]
    fn single_round_runner_detects_planted_copying() {
        let synth = small_dataset();
        let mut detector = Method::Hybrid.build_detector(&synth.name, 1);
        let result = run_single_round(&synth, detector.as_mut(), CopyParams::paper_defaults());
        let planted = synth.gold.copying_pairs();
        let found: std::collections::HashSet<_> = result.copying_pairs().collect();
        // At least half of the planted pairs are already visible in a single
        // bootstrap round (the full loop finds them all).
        let hit = planted.iter().filter(|p| found.contains(p)).count();
        assert!(hit * 2 >= planted.len(), "only {hit} of {} planted pairs found", planted.len());
    }
}
