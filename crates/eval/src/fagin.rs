//! FAGININPUT — the cost of feeding Fagin's NRA algorithm (Section II-B,
//! Table X).
//!
//! The paper considers using NRA top-k aggregation to find the pairs with the
//! highest copy evidence: keep, for every indexed value, a list of the
//! contribution scores of the pairs sharing it (sorted decreasingly), plus
//! one list with the accumulated negative scores of the pairs' differing
//! items; the aggregate score of a pair is the sum across lists. The catch is
//! that *building* those lists already requires computing the contribution
//! of every shared value for every pair — the very work the paper's own
//! algorithms avoid — so the comparison in Table X measures exactly this
//! input-generation step. We also expose the generated lists as ready-to-run
//! [`NoRandomAccess`] instances so the end-to-end pipeline can be exercised.

use crate::CopyDetector;
use copydet_bayes::contribution::same_value_scores_both;
use copydet_bayes::CopyDecision;
use copydet_detect::{DetectionResult, PairOutcome, RoundInput};
use copydet_index::InvertedIndex;
use copydet_model::SourcePair;
use copydet_nra::{NoRandomAccess, SortedList};
use std::collections::HashMap;
use std::time::Instant;

/// The copying direction a list entry refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// `first` copies from `second` (`C→`).
    Forward,
    /// `second` copies from `first` (`C←`).
    Backward,
}

/// A directional pair: the object NRA aggregates over.
pub type DirectedPair = (SourcePair, Direction);

/// The generated NRA input: one sorted list per indexed value plus the
/// difference list.
#[derive(Debug, Clone)]
pub struct FaginInput {
    /// Per-entry lists of `(directed pair, contribution score)`, one per
    /// indexed value, each sorted by decreasing score.
    pub value_lists: Vec<SortedList<DirectedPair>>,
    /// The list of accumulated negative scores from items where the pair
    /// provides different values.
    pub difference_list: SortedList<DirectedPair>,
    /// Exact aggregate scores per directed pair (the sum over all lists) —
    /// produced as a by-product of list generation.
    pub totals: HashMap<DirectedPair, f64>,
}

impl FaginInput {
    /// Generates the NRA input lists for the current round state.
    ///
    /// Returns the input together with the number of computations performed
    /// (two directional score evaluations per pair-entry incidence plus one
    /// difference-list entry per pair and direction).
    pub fn generate(input: &RoundInput<'_>, index: &InvertedIndex) -> (Self, u64) {
        let params = &input.params;
        let accuracies = input.accuracies;
        let mut computations = 0u64;
        let mut totals: HashMap<DirectedPair, f64> = HashMap::new();
        let mut shared_counts: HashMap<SourcePair, u32> = HashMap::new();

        let mut value_lists = Vec::with_capacity(index.len());
        for entry in index.entries() {
            let mut list: Vec<(DirectedPair, f64)> = Vec::with_capacity(entry.num_pairs() * 2);
            for i in 0..entry.providers.len() {
                for j in (i + 1)..entry.providers.len() {
                    let pair = SourcePair::new(entry.providers[i], entry.providers[j]);
                    let (to, from) = same_value_scores_both(
                        entry.probability,
                        accuracies.get(pair.first()),
                        accuracies.get(pair.second()),
                        params,
                    );
                    computations += 2;
                    list.push(((pair, Direction::Forward), to));
                    list.push(((pair, Direction::Backward), from));
                    *totals.entry((pair, Direction::Forward)).or_insert(0.0) += to;
                    *totals.entry((pair, Direction::Backward)).or_insert(0.0) += from;
                    *shared_counts.entry(pair).or_insert(0) += 1;
                }
            }
            value_lists.push(SortedList::from_pairs(list));
        }

        // Difference list: for every pair that shares values, the accumulated
        // negative score of the items on which it disagrees.
        let diff_penalty = params.different_value_score();
        let mut difference: Vec<(DirectedPair, f64)> = Vec::with_capacity(shared_counts.len() * 2);
        for (&pair, &shared_values) in &shared_counts {
            let l = index.shared_items(pair);
            let different = l.saturating_sub(shared_values) as f64;
            let score = different * diff_penalty;
            computations += 1;
            difference.push(((pair, Direction::Forward), score));
            difference.push(((pair, Direction::Backward), score));
            *totals.entry((pair, Direction::Forward)).or_insert(0.0) += score;
            *totals.entry((pair, Direction::Backward)).or_insert(0.0) += score;
        }
        let difference_list = SortedList::from_pairs(difference);

        (Self { value_lists, difference_list, totals }, computations)
    }

    /// Packages the *value* lists as an [`NoRandomAccess`] instance for
    /// top-k queries over directed pairs.
    ///
    /// Only the positive-evidence lists are handed to NRA: the difference
    /// list holds negative scores, which violate NRA's non-negative local
    /// score assumption (an object absent from a list contributes 0, which
    /// would exceed a negative frontier and invalidate the upper bounds).
    /// This is precisely the awkwardness the paper points out when it
    /// dismisses the NRA route — the negative adjustment has to be applied
    /// outside the top-k machinery, by which point the full per-pair scores
    /// have effectively been computed anyway ([`FaginInput::totals`]).
    pub fn into_nra(self) -> NoRandomAccess<DirectedPair> {
        NoRandomAccess::new(self.value_lists)
    }
}

/// FAGININPUT as a detector: generates the NRA input and derives the same
/// decisions INDEX would reach, so its cost and quality can be compared
/// directly with the other methods (Table X).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaginInputDetector;

impl FaginInputDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self
    }
}

impl CopyDetector for FaginInputDetector {
    fn name(&self) -> &'static str {
        "FAGININPUT"
    }

    fn detect_round(&mut self, input: &RoundInput<'_>, _round: usize) -> DetectionResult {
        let build_start = Instant::now();
        let index = InvertedIndex::build(
            input.dataset,
            input.accuracies,
            input.probabilities,
            &input.params,
        );
        let index_build_time = build_start.elapsed();

        let start = Instant::now();
        let (fagin, computations) = FaginInput::generate(input, &index);
        let mut result = DetectionResult::new(self.name());
        result.index_build_time = index_build_time;
        result.counter.auxiliary = computations;

        // Derive decisions from the aggregate scores (the totals are exact,
        // so the decisions equal INDEX's).
        let mut pairs: HashMap<SourcePair, (f64, f64)> = HashMap::new();
        for (&(pair, direction), &score) in &fagin.totals {
            let slot = pairs.entry(pair).or_insert((0.0, 0.0));
            match direction {
                Direction::Forward => slot.0 = score,
                Direction::Backward => slot.1 = score,
            }
        }
        result.pairs_considered = pairs.len();
        for (pair, (c_to, c_from)) in pairs {
            let posterior = copydet_bayes::posterior_independence(c_to, c_from, &input.params);
            result.counter.pair_finalizations += 1;
            result.outcomes.insert(
                pair,
                PairOutcome {
                    decision: CopyDecision::from_posterior(posterior),
                    posterior: Some(posterior),
                    c_to,
                    c_from,
                },
            );
        }
        result.detection_time = start.elapsed();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_detection;
    use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
    use copydet_model::{motivating_example, SourceId};

    fn fixture() -> (copydet_model::MotivatingExample, SourceAccuracies, ValueProbabilities) {
        let ex = motivating_example();
        let acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        (ex, acc, probs)
    }

    #[test]
    fn generates_one_list_per_entry() {
        let (ex, acc, probs) = fixture();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let index = InvertedIndex::build(&ex.dataset, &acc, &probs, &input.params);
        let (fagin, computations) = FaginInput::generate(&input, &index);
        assert_eq!(fagin.value_lists.len(), index.len());
        assert!(computations > 0);
        // Every value list is sorted by decreasing score.
        for list in &fagin.value_lists {
            let scores: Vec<f64> = list.entries().iter().map(|e| e.score).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn totals_match_pairwise_scores_for_value_sharing_pairs() {
        let (ex, acc, probs) = fixture();
        let params = CopyParams::paper_defaults();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, params);
        let index = InvertedIndex::build(&ex.dataset, &acc, &probs, &params);
        let (fagin, _) = FaginInput::generate(&input, &index);
        let ctx = input.scoring_context();
        let pair = SourcePair::new(SourceId::new(2), SourceId::new(3));
        let exact = ctx.score_pair(pair.first(), pair.second());
        let to = fagin.totals[&(pair, Direction::Forward)];
        let from = fagin.totals[&(pair, Direction::Backward)];
        assert!((to - exact.c_to()).abs() < 1e-9);
        assert!((from - exact.c_from()).abs() < 1e-9);
    }

    #[test]
    fn nra_top_pair_is_the_strongest_copier() {
        let (ex, acc, probs) = fixture();
        let params = CopyParams::paper_defaults();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, params);
        let index = InvertedIndex::build(&ex.dataset, &acc, &probs, &params);
        let (fagin, _) = FaginInput::generate(&input, &index);
        // Exact positive-evidence totals (sum over the value lists only),
        // the quantity NRA aggregates.
        let mut positive_totals: HashMap<DirectedPair, f64> = HashMap::new();
        for list in &fagin.value_lists {
            for e in list.entries() {
                *positive_totals.entry(e.key).or_insert(0.0) += e.score;
            }
        }
        let best_by_totals = positive_totals
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(&k, _)| k)
            .unwrap();
        let nra = fagin.into_nra();
        let out = nra.top_k(1);
        assert_eq!(out.top_k[0].key.0, best_by_totals.0);
        // The strongest evidence involves one of the planted copier cliques.
        let p = out.top_k[0].key.0;
        assert!(ex.is_copying_pair(p), "top pair {p} is not a planted copying pair");
    }

    #[test]
    fn detector_decisions_match_index() {
        let (ex, acc, probs) = fixture();
        let input = RoundInput::new(&ex.dataset, &acc, &probs, CopyParams::paper_defaults());
        let mut detector = FaginInputDetector::new();
        assert_eq!(detector.name(), "FAGININPUT");
        let fagin_result = detector.detect_round(&input, 1);
        let index_result = index_detection(&input);
        assert_eq!(
            fagin_result.copying_pairs().collect::<std::collections::BTreeSet<_>>(),
            index_result.copying_pairs().collect::<std::collections::BTreeSet<_>>()
        );
        assert!(fagin_result.counter.auxiliary >= index_result.counter.score_updates);
    }
}
