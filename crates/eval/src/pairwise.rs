//! PAIRWISE as a [`CopyDetector`]: the exhaustive baseline of
//! [`pairwise_detection`] for the loops and drivers that take any detector.

use crate::api::CopyDetector;
use copydet_detect::{pairwise_detection, DetectionResult, RoundInput};

/// The PAIRWISE baseline as a reusable detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairwiseDetector;

impl PairwiseDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self
    }
}

impl CopyDetector for PairwiseDetector {
    fn name(&self) -> &'static str {
        "PAIRWISE"
    }

    fn detect_round(&mut self, input: &RoundInput<'_>, _round: usize) -> DetectionResult {
        pairwise_detection(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
    use copydet_synth::motivating_example;

    #[test]
    fn detector_trait_roundtrip() {
        let ex = motivating_example();
        let acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let mut d = PairwiseDetector::new();
        assert_eq!(d.name(), "PAIRWISE");
        let r1 = d.detect_round(&input, 1);
        let r2 = d.detect_round(&input, 2);
        assert_eq!(r1.num_copying_pairs(), r2.num_copying_pairs());
    }
}
