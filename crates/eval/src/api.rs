//! The detector interface the iterative truth-finding loop drives.

use copydet_detect::{DetectionResult, RoundInput};

/// A copy-detection algorithm that can be run once per round of the iterative
/// truth-finding process.
///
/// Detectors may keep state between rounds (INCREMENTAL does); stateless
/// detectors simply ignore the round number.
pub trait CopyDetector {
    /// A short, stable name ("PAIRWISE", "INDEX", …) used in reports.
    fn name(&self) -> &'static str;

    /// Runs copy detection for the given round (1-based) and returns the
    /// per-pair outcomes.
    fn detect_round(&mut self, input: &RoundInput<'_>, round: usize) -> DetectionResult;

    /// Clears any cross-round state, returning the detector to the state it
    /// had before the first round. The default is a no-op, which is correct
    /// for stateless detectors.
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
    use copydet_model::motivating_example;

    struct TrivialDetector;
    impl CopyDetector for TrivialDetector {
        fn name(&self) -> &'static str {
            "TRIVIAL"
        }
        fn detect_round(&mut self, input: &RoundInput<'_>, _round: usize) -> DetectionResult {
            let mut r = DetectionResult::new(self.name());
            r.pairs_considered = input.dataset.num_sources();
            r
        }
    }

    #[test]
    fn trait_object_works() {
        let ex = motivating_example();
        let acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let mut detector: Box<dyn CopyDetector> = Box::new(TrivialDetector);
        let result = detector.detect_round(&input, 1);
        assert_eq!(result.algorithm, "TRIVIAL");
        assert_eq!(result.pairs_considered, 10);
        detector.reset();
    }
}
