//! Detection results: per-pair outcomes plus efficiency accounting.

use crate::counters::ComputationCounter;
use copydet_bayes::CopyDecision;
use copydet_model::SourcePair;
use std::collections::HashMap;
use std::time::Duration;

/// The outcome for one pair of sources that the algorithm materialized.
///
/// Pairs that are absent from a [`DetectionResult`] were never considered —
/// they share no value (or only values inside `Ē`) — and are implicitly
/// independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// The binary decision.
    pub decision: CopyDecision,
    /// The posterior probability of independence, when the algorithm
    /// computed it exactly; `None` when the pair was decided early from score
    /// bounds alone.
    pub posterior: Option<f64>,
    /// The accumulated (or bound-derived) score for "first copies from
    /// second".
    pub c_to: f64,
    /// The accumulated (or bound-derived) score for "second copies from
    /// first".
    pub c_from: f64,
}

/// Result of running one copy-detection round.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// Name of the algorithm that produced the result.
    pub algorithm: String,
    /// Per-pair outcomes for every pair the algorithm materialized.
    pub outcomes: HashMap<SourcePair, PairOutcome>,
    /// Computation accounting.
    pub counter: ComputationCounter,
    /// Number of source pairs for which state was maintained.
    pub pairs_considered: usize,
    /// Number of shared values folded into scores across all pairs.
    pub shared_values_examined: u64,
    /// Wall-clock time of the detection proper (excluding index building).
    pub detection_time: Duration,
    /// Wall-clock time spent building the inverted index (zero for
    /// algorithms that do not use one).
    pub index_build_time: Duration,
}

impl DetectionResult {
    /// Creates an empty result shell for `algorithm`.
    pub fn new(algorithm: impl Into<String>) -> Self {
        Self {
            algorithm: algorithm.into(),
            outcomes: HashMap::new(),
            counter: ComputationCounter::new(),
            pairs_considered: 0,
            shared_values_examined: 0,
            detection_time: Duration::ZERO,
            index_build_time: Duration::ZERO,
        }
    }

    /// The decision for a pair; pairs never materialized are independent.
    pub fn decision(&self, pair: SourcePair) -> CopyDecision {
        self.outcomes.get(&pair).map(|o| o.decision).unwrap_or(CopyDecision::NoCopying)
    }

    /// Iterator over the pairs decided as copying.
    pub fn copying_pairs(&self) -> impl Iterator<Item = SourcePair> + '_ {
        self.outcomes.iter().filter(|(_, o)| o.decision.is_copying()).map(|(&p, _)| p)
    }

    /// Number of pairs decided as copying.
    pub fn num_copying_pairs(&self) -> usize {
        self.outcomes.values().filter(|o| o.decision.is_copying()).count()
    }

    /// Total wall-clock time (index building plus detection).
    pub fn total_time(&self) -> Duration {
        self.index_build_time + self.detection_time
    }

    /// Total number of computations performed.
    pub fn computations(&self) -> u64 {
        self.counter.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::SourceId;

    fn pair(a: u32, b: u32) -> SourcePair {
        SourcePair::new(SourceId::new(a), SourceId::new(b))
    }

    #[test]
    fn missing_pairs_are_independent() {
        let mut r = DetectionResult::new("test");
        r.outcomes.insert(
            pair(0, 1),
            PairOutcome {
                decision: CopyDecision::Copying,
                posterior: Some(0.01),
                c_to: 5.0,
                c_from: 5.0,
            },
        );
        assert_eq!(r.decision(pair(0, 1)), CopyDecision::Copying);
        assert_eq!(r.decision(pair(0, 2)), CopyDecision::NoCopying);
        assert_eq!(r.num_copying_pairs(), 1);
        assert_eq!(r.copying_pairs().collect::<Vec<_>>(), vec![pair(0, 1)]);
        assert_eq!(r.algorithm, "test");
    }

    #[test]
    fn totals() {
        let mut r = DetectionResult::new("t");
        r.counter.score_updates = 10;
        r.index_build_time = Duration::from_millis(2);
        r.detection_time = Duration::from_millis(3);
        assert_eq!(r.computations(), 10);
        assert_eq!(r.total_time(), Duration::from_millis(5));
    }
}
