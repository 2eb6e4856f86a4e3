//! The input of a detection round.

use copydet_bayes::{CopyParams, ScoringContext, SourceAccuracies, ValueProbabilities};
use copydet_model::{Dataset, DatasetDelta};

/// Everything a detection round needs: the claims, the current estimates of
/// source accuracy and value truthfulness, and the model priors.
///
/// In single-round use the estimates come from prior knowledge or from simple
/// voting; in the iterative loop (`copydet-eval`'s `AccuCopy`) they are the
/// previous round's outputs.
#[derive(Debug, Clone, Copy)]
pub struct RoundInput<'a> {
    /// The dataset of claims.
    pub dataset: &'a Dataset,
    /// Current source accuracies `A(S)`.
    pub accuracies: &'a SourceAccuracies,
    /// Current value probabilities `P(D.v)`.
    pub probabilities: &'a ValueProbabilities,
    /// Model priors (α, n, s).
    pub params: CopyParams,
    /// Claims added or changed since the detector last saw this dataset
    /// (`None` for a fixed dataset, the batch reproduction case).
    ///
    /// Stateful detectors use the delta to maintain their cross-round
    /// bookkeeping instead of rescanning: `copydet-eval`'s
    /// `IncrementalDetector` rebuilds only the index entries of touched items
    /// and re-decides only the pairs the delta can have affected. Stateless
    /// detectors ignore it.
    pub delta: Option<&'a DatasetDelta>,
}

impl<'a> RoundInput<'a> {
    /// Creates a round input over a fixed dataset (no delta).
    pub fn new(
        dataset: &'a Dataset,
        accuracies: &'a SourceAccuracies,
        probabilities: &'a ValueProbabilities,
        params: CopyParams,
    ) -> Self {
        Self { dataset, accuracies, probabilities, params, delta: None }
    }

    /// Attaches the claim delta that grew `dataset` since the previous
    /// detection round.
    pub fn with_delta(mut self, delta: &'a DatasetDelta) -> Self {
        self.delta = Some(delta);
        self
    }

    /// A per-pair scoring context over the same state.
    pub fn scoring_context(&self) -> ScoringContext<'a> {
        ScoringContext::new(self.dataset, self.accuracies, self.probabilities, self.params)
    }
}

/// An owned detection-round input: the same state as [`RoundInput`], but
/// holding the snapshot and estimates by value instead of borrowing them.
///
/// [`Dataset`] is backed by shared immutable storage, so the `dataset` field
/// is a cheap *handle* (reference-count bumps, no claim or string copies).
/// That makes this the hand-off type for concurrent pipelines: prepare the
/// round under a store lock (or on one thread), move it across the
/// lock/thread boundary, and run the detector via
/// [`as_round_input`](OwnedRoundInput::as_round_input) while ingest continues
/// on the live store. `copydet-eval`'s `LiveDetector` assembles one of these
/// per observed snapshot.
#[derive(Debug, Clone)]
pub struct OwnedRoundInput {
    /// The snapshot of claims (a shared-storage handle).
    pub dataset: Dataset,
    /// Source accuracies `A(S)` for the round.
    pub accuracies: SourceAccuracies,
    /// Value probabilities `P(D.v)` for the round.
    pub probabilities: ValueProbabilities,
    /// Model priors (α, n, s).
    pub params: CopyParams,
    /// Claims added or changed since the detector last saw this dataset.
    pub delta: Option<DatasetDelta>,
}

impl OwnedRoundInput {
    /// Borrows the owned state as the [`RoundInput`] every detector consumes.
    pub fn as_round_input(&self) -> RoundInput<'_> {
        RoundInput {
            dataset: &self.dataset,
            accuracies: &self.accuracies,
            probabilities: &self.probabilities,
            params: self.params,
            delta: self.delta.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::CopyDecision;
    use copydet_model::motivating_example;

    #[test]
    fn round_input_exposes_scoring_context() {
        let ex = motivating_example();
        let acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let ctx = input.scoring_context();
        let e = ctx.score_pair(copydet_model::SourceId::new(2), copydet_model::SourceId::new(3));
        assert_eq!(e.decision(&input.params), CopyDecision::Copying);
    }
}
