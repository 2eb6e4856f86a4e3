//! Per-round statistics of the iterative fusion process.

use std::time::Duration;

/// Wall-clock breakdown of one fusion round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTimings {
    /// Time spent in copy detection (including index building).
    pub copy_detection: Duration,
    /// Time spent recomputing value probabilities.
    pub truth_computation: Duration,
    /// Time spent recomputing source accuracies.
    pub accuracy_computation: Duration,
}

impl RoundTimings {
    /// Total round time.
    pub fn total(&self) -> Duration {
        self.copy_detection + self.truth_computation + self.accuracy_computation
    }
}

/// Statistics of one round of the iterative process — the quantities Table II
/// tracks for the motivating example, plus efficiency accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionRoundStats {
    /// 1-based round number.
    pub round: usize,
    /// Number of pairs the copy detector flagged as copying this round.
    pub copying_pairs: usize,
    /// Number of computations the copy detector performed.
    pub detection_computations: u64,
    /// Largest absolute accuracy change relative to the previous round.
    pub max_accuracy_change: f64,
    /// Largest absolute value-probability change relative to the previous
    /// round.
    pub max_probability_change: f64,
    /// Source accuracies at the end of the round, indexed by source id.
    pub accuracies: Vec<f64>,
    /// Timings of the round.
    pub timings: RoundTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total() {
        let t = RoundTimings {
            copy_detection: Duration::from_millis(5),
            truth_computation: Duration::from_millis(3),
            accuracy_computation: Duration::from_millis(2),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
        assert_eq!(RoundTimings::default().total(), Duration::ZERO);
    }
}
