//! PAIRWISE — the exhaustive baseline of Dong et al. (Section II-B).
//!
//! For every pair of sources, every shared data item's contribution is
//! computed and accumulated, then the posterior of Eq. 2 decides copying.
//! Complexity `O(|D|·|S|²)` per round.

use crate::api::RoundInput;
use crate::result::{DetectionResult, PairOutcome};
use copydet_bayes::CopyDecision;
use copydet_model::codec::usize_to_u64;
use copydet_model::SourcePair;
use std::time::Instant;

/// Runs one round of exhaustive pairwise copy detection.
///
/// Pairs that share no data item are not materialized in the result (their
/// posterior is the prior and the decision is always no-copying), matching
/// how the other algorithms report results.
pub fn pairwise_detection(input: &RoundInput<'_>) -> DetectionResult {
    let start = Instant::now();
    let ctx = input.scoring_context();
    let mut result = DetectionResult::new("PAIRWISE");
    let sources: Vec<_> = input.dataset.sources().collect();
    let mut rest = sources.as_slice();
    while let Some((&s1, later)) = rest.split_first() {
        rest = later;
        for &s2 in later {
            let evidence = ctx.score_pair(s1, s2);
            let shared_items = evidence.shared_items();
            if shared_items == 0 {
                continue;
            }
            // Two directional score evaluations per shared item (the paper's
            // "183 × 2" accounting for the motivating example).
            result.counter.score_updates += 2 * usize_to_u64(shared_items);
            result.shared_values_examined += usize_to_u64(evidence.shared_values);
            let posterior = evidence.posterior_independence(&input.params);
            result.counter.pair_finalizations += 1;
            result.pairs_considered += 1;
            result.outcomes.insert(
                SourcePair::new(s1, s2),
                PairOutcome {
                    decision: CopyDecision::from_posterior(posterior),
                    posterior: Some(posterior),
                    c_to: evidence.c_to(),
                    c_from: evidence.c_from(),
                },
            );
        }
    }
    result.detection_time = start.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
    use copydet_model::{motivating_example, SourceId};

    fn run() -> (copydet_model::MotivatingExample, DetectionResult) {
        let ex = motivating_example();
        let acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let result = pairwise_detection(&input);
        (ex, result)
    }

    #[test]
    fn detects_planted_cliques_and_nothing_else() {
        let (ex, result) = run();
        let mut copying: Vec<_> = result.copying_pairs().collect();
        copying.sort();
        let mut expected = ex.copying_pairs.clone();
        expected.sort();
        assert_eq!(copying, expected);
    }

    /// Every one of the 45 pairs shares at least one item (everyone provides
    /// TX), so all of them are materialized, and the computation count is
    /// 2 × 181 shared items + one posterior per pair.
    #[test]
    fn computation_accounting() {
        let (_, result) = run();
        assert_eq!(result.pairs_considered, 45);
        assert_eq!(result.counter.score_updates, 2 * 181);
        assert_eq!(result.counter.pair_finalizations, 45);
        assert_eq!(result.outcomes.len(), 45);
    }

    #[test]
    fn posteriors_match_worked_example() {
        let (_, result) = run();
        let p23 = result.outcomes[&SourcePair::new(SourceId::new(2), SourceId::new(3))];
        assert!(p23.posterior.unwrap() < 1e-4);
        let p01 = result.outcomes[&SourcePair::new(SourceId::new(0), SourceId::new(1))];
        assert!((p01.posterior.unwrap() - 0.79).abs() < 0.02);
    }
}
