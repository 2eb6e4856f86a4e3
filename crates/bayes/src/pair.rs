//! Per-pair evidence accumulation and the posterior of Eq. 2.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]

use crate::accuracy::SourceAccuracies;
use crate::contribution::{different_value_score, same_value_score, same_value_scores_both};
use crate::fixed::FixedScore;
use crate::params::{CopyParams, DecisionThresholds};
use crate::truth::ValueProbabilities;
use copydet_model::{Dataset, SourceId};

/// The binary outcome of copy detection for a pair of sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyDecision {
    /// Copying (in at least one direction) is more likely than not.
    Copying,
    /// The two sources are considered independent.
    NoCopying,
}

impl CopyDecision {
    /// Decides from the posterior probability of independence:
    /// `Copying` iff `Pr(S1⊥S2|Φ) ≤ 0.5`.
    pub fn from_posterior(pr_independent: f64) -> Self {
        if pr_independent <= 0.5 {
            CopyDecision::Copying
        } else {
            CopyDecision::NoCopying
        }
    }

    /// Returns `true` for [`CopyDecision::Copying`].
    pub fn is_copying(self) -> bool {
        matches!(self, CopyDecision::Copying)
    }
}

/// Posterior probability of independence from the accumulated directional
/// scores (Eq. 2):
///
/// `Pr(S1⊥S2|Φ) = 1 / (1 + (α/β)(e^{C→} + e^{C←}))`.
///
/// Exponentials are guarded so very large scores saturate at probability 0
/// instead of producing NaN.
pub fn posterior_independence(c_to: f64, c_from: f64, params: &CopyParams) -> f64 {
    let ratio = params.alpha / params.beta();
    // exp(>700) overflows f64; the posterior is 0 for all practical purposes
    // long before that.
    if c_to > 500.0 || c_from > 500.0 {
        return 0.0;
    }
    1.0 / (1.0 + ratio * (c_to.exp() + c_from.exp()))
}

/// The directional scores `(C→(D), C←(D))` of one shared value (Eq. 6),
/// each rounded once to the exact-sum grid of [`PairEvidence`].
///
/// The score depends on the value's truth probability and on the two
/// sources' accuracies only, so a scan can compute it once and add it for
/// every pair whose accuracies are the same: at the bootstrap's uniform
/// accuracy, once per index entry. Adding it with
/// [`PairEvidence::add_same_value_score`] gives the bits
/// [`PairEvidence::add_same_value`] gives for the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SameValueScore {
    to: FixedScore,
    from: FixedScore,
}

impl SameValueScore {
    /// Scores a value with truth probability `p` shared by a pair whose
    /// first and second sources have accuracies `a_first` and `a_second`.
    #[inline]
    pub fn new(p: f64, a_first: f64, a_second: f64, params: &CopyParams) -> Self {
        let (to, from) = same_value_scores_both(p, a_first, a_second, params);
        Self::from_scores(to, from)
    }

    /// Rounds two directional scores the caller already computed.
    #[inline]
    pub fn from_scores(to: f64, from: f64) -> Self {
        Self { to: FixedScore::from_f64(to), from: FixedScore::from_f64(from) }
    }

    /// The score of a value with truth probability `p` shared by two
    /// sources that both have accuracy `a`, as an integer number of 2⁻⁶⁰
    /// units: at equal accuracies `C→ = C←`, so one number is the whole
    /// score. Summing these units and handing the sum to
    /// [`PairEvidence::from_uniform_sum`] gives the bits adding
    /// `SameValueScore::new(p, a, a, params)` once per value gives.
    #[inline]
    pub fn uniform_units(p: f64, a: f64, params: &CopyParams) -> i128 {
        FixedScore::from_f64(same_value_score(p, a, a, params)).units()
    }
}

/// Accumulated evidence about one pair of sources.
///
/// [`c_to`](Self::c_to) is `C→` ("first copies from second") and
/// [`c_from`](Self::c_from) is `C←` ("second copies from first"), where
/// *first*/*second* refer to whatever orientation the caller chose when
/// adding evidence — the posterior of Eq. 2 is symmetric in the two
/// directions.
///
/// The scores are exact sums (`FixedScore`): each per-item score is rounded
/// once to a multiple of 2⁻⁶⁰ and added as an integer. So the evidence does
/// not depend on the order in which items are added, and two partial sums
/// over disjoint items [`merge`](Self::merge) into exactly the evidence of
/// one pass over both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairEvidence {
    /// Accumulated `C→`.
    to: FixedScore,
    /// Accumulated `C←`.
    from: FixedScore,
    /// Number of items contributing to the scores on which the values were
    /// equal.
    pub shared_values: usize,
    /// Number of items contributing on which the values differed.
    pub different_values: usize,
}

impl PairEvidence {
    /// Evidence with no observations yet.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The evidence of a pair of sources with equal accuracies: `same_units`
    /// is the sum of the [`SameValueScore::uniform_units`] of its
    /// `shared_values` same-value items, and `different_values` items
    /// differ (Eq. 8). Bit-identical to adding each score with
    /// [`add_same_value_score`](Self::add_same_value_score) and the
    /// different-value items with
    /// [`add_different_values`](Self::add_different_values): the clamp of
    /// each score keeps a sum over any `u32` count of items below 2¹²⁶
    /// units, so neither path saturates.
    pub fn from_uniform_sum(
        same_units: i128,
        shared_values: usize,
        different_values: usize,
        params: &CopyParams,
    ) -> Self {
        let sum = FixedScore::from_units(same_units);
        let mut evidence = Self { to: sum, from: sum, shared_values, different_values: 0 };
        evidence.add_different_values(different_values, params);
        evidence
    }

    /// Accumulated `C→`, converted to `f64` once.
    pub fn c_to(&self) -> f64 {
        self.to.to_f64()
    }

    /// Accumulated `C←`, converted to `f64` once.
    pub fn c_from(&self) -> f64 {
        self.from.to_f64()
    }

    /// Number of shared items folded into the evidence so far.
    pub fn shared_items(&self) -> usize {
        self.shared_values + self.different_values
    }

    /// Folds in one shared value whose directional scores `(C→(D), C←(D))`
    /// the caller already computed as `f64`s.
    #[inline]
    pub fn add_scores(&mut self, to: f64, from: f64) {
        self.add_same_value_score(SameValueScore::from_scores(to, from));
    }

    /// Folds in one shared value whose rounded score the caller already
    /// holds — the scans that score an index entry or a claim once and add
    /// it for every pair sharing it. Two integer additions, no rounding.
    #[inline]
    pub fn add_same_value_score(&mut self, score: SameValueScore) {
        self.to += score.to;
        self.from += score.from;
        self.shared_values += 1;
    }

    /// Folds in an item on which both sources provide the same value with
    /// truth probability `p`; `a_first`/`a_second` are the accuracies of the
    /// pair's first and second source.
    pub fn add_same_value(&mut self, p: f64, a_first: f64, a_second: f64, params: &CopyParams) {
        self.add_same_value_score(SameValueScore::new(p, a_first, a_second, params));
    }

    /// Folds in an item on which the two sources provide different values.
    pub fn add_different_value(&mut self, params: &CopyParams) {
        self.add_different_values(1, params);
    }

    /// Folds in `count` different-value items at once (the bulk adjustment
    /// the INDEX algorithm applies after scanning): one integer multiply,
    /// identical to `count` single additions.
    pub fn add_different_values(&mut self, count: usize, params: &CopyParams) {
        let s = FixedScore::from_f64(different_value_score(params)).times(count);
        self.to += s;
        self.from += s;
        self.different_values += count;
    }

    /// Adds the evidence of `other`, gathered over items disjoint from this
    /// evidence's (another shard's part of the same pair). Exact: merging
    /// partials in any grouping equals one pass over all their items.
    pub fn merge(&mut self, other: &Self) {
        self.to += other.to;
        self.from += other.from;
        self.shared_values += other.shared_values;
        self.different_values += other.different_values;
    }

    /// The same evidence for the pair taken in the other orientation:
    /// `C→` and `C←` trade places.
    pub fn swapped(self) -> Self {
        Self { to: self.from, from: self.to, ..self }
    }

    /// Posterior probability of independence given the current evidence.
    pub fn posterior_independence(&self, params: &CopyParams) -> f64 {
        posterior_independence(self.c_to(), self.c_from(), params)
    }

    /// Binary decision from the current evidence.
    pub fn decision(&self, params: &CopyParams) -> CopyDecision {
        CopyDecision::from_posterior(self.posterior_independence(params))
    }

    /// Returns `true` if the accumulated scores already guarantee a
    /// no-copying decision under `thresholds` (both directions below
    /// `θind`).
    pub fn implies_no_copying(&self, thresholds: &DecisionThresholds) -> bool {
        self.c_to() < thresholds.theta_ind && self.c_from() < thresholds.theta_ind
    }
}

/// Everything needed to score pairs of sources in one round: the dataset, the
/// current accuracy and truthfulness estimates, and the model parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScoringContext<'a> {
    /// The claims.
    pub dataset: &'a Dataset,
    /// Current source accuracies `A(S)`.
    pub accuracies: &'a SourceAccuracies,
    /// Current value probabilities `P(D.v)`.
    pub probabilities: &'a ValueProbabilities,
    /// Model priors.
    pub params: CopyParams,
}

impl<'a> ScoringContext<'a> {
    /// Creates a scoring context.
    pub fn new(
        dataset: &'a Dataset,
        accuracies: &'a SourceAccuracies,
        probabilities: &'a ValueProbabilities,
        params: CopyParams,
    ) -> Self {
        Self { dataset, accuracies, probabilities, params }
    }

    /// The decision thresholds of the binary policy for these parameters.
    pub fn thresholds(&self) -> DecisionThresholds {
        self.params.thresholds()
    }

    /// Scores one pair of sources exhaustively over their shared items
    /// ([`Dataset::shared_claims`]) — the inner loop of the PAIRWISE
    /// baseline. `C→` is the direction "`s1` copies from `s2`". Every
    /// different-value item scores the same constant, so they are counted
    /// during the walk and added in one exact multiply.
    pub fn score_pair(&self, s1: SourceId, s2: SourceId) -> PairEvidence {
        let mut evidence = PairEvidence::empty();
        let a1 = self.accuracies.get(s1);
        let a2 = self.accuracies.get(s2);
        let mut different = 0;
        for (d, v1, v2) in self.dataset.shared_claims(s1, s2) {
            if v1 == v2 {
                let p = self.probabilities.get(d, v1);
                evidence.add_same_value(p, a1, a2, &self.params);
            } else {
                different += 1;
            }
        }
        evidence.add_different_values(different, &self.params);
        evidence
    }
}

/// Scores a pair and returns `(evidence, posterior, decision)` in one call.
pub fn pairwise_scores(
    ctx: &ScoringContext<'_>,
    s1: SourceId,
    s2: SourceId,
) -> (PairEvidence, f64, CopyDecision) {
    let evidence = ctx.score_pair(s1, s2);
    let posterior = evidence.posterior_independence(&ctx.params);
    (evidence, posterior, CopyDecision::from_posterior(posterior))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_synth::motivating_example;

    fn context_fixture() -> (copydet_synth::MotivatingExample, SourceAccuracies, ValueProbabilities)
    {
        let ex = motivating_example();
        let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probabilities = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        (ex, accuracies, probabilities)
    }

    /// Example 2.1: for (S2, S3), C→ = C← ≈ 11.58 and Pr(⊥) ≈ .00004.
    #[test]
    fn example_2_1_copying_pair() {
        let (ex, accuracies, probabilities) = context_fixture();
        let ctx = ScoringContext::new(
            &ex.dataset,
            &accuracies,
            &probabilities,
            CopyParams::paper_defaults(),
        );
        let (evidence, posterior, decision) =
            pairwise_scores(&ctx, SourceId::new(2), SourceId::new(3));
        assert_eq!(evidence.shared_values, 4);
        assert_eq!(evidence.different_values, 1);
        assert!((evidence.c_to() - 11.58).abs() < 0.05, "C→ = {}", evidence.c_to());
        assert!((evidence.c_from() - 11.58).abs() < 0.05);
        assert!(posterior < 0.0001, "posterior = {posterior}");
        assert_eq!(decision, CopyDecision::Copying);
    }

    /// Example 2.1: for (S0, S1), which share 4 true values,
    /// Pr(⊥) ≈ .79 and copying is unlikely.
    #[test]
    fn example_2_1_independent_pair() {
        let (ex, accuracies, probabilities) = context_fixture();
        let ctx = ScoringContext::new(
            &ex.dataset,
            &accuracies,
            &probabilities,
            CopyParams::paper_defaults(),
        );
        let (evidence, posterior, decision) =
            pairwise_scores(&ctx, SourceId::new(0), SourceId::new(1));
        assert_eq!(evidence.shared_values, 4);
        assert_eq!(evidence.different_values, 0);
        assert!(evidence.c_to() < 0.1 && evidence.c_to() > 0.0);
        assert!((posterior - 0.79).abs() < 0.02, "posterior = {posterior}");
        assert_eq!(decision, CopyDecision::NoCopying);
    }

    /// Scoring is orientation-consistent: swapping the pair swaps the two
    /// directional scores bit for bit and leaves the posterior unchanged.
    #[test]
    fn scoring_is_symmetric_under_swap() {
        let (ex, accuracies, probabilities) = context_fixture();
        let ctx = ScoringContext::new(
            &ex.dataset,
            &accuracies,
            &probabilities,
            CopyParams::paper_defaults(),
        );
        for (a, b) in [(0u32, 5u32), (2, 4), (6, 8), (1, 9)] {
            let e1 = ctx.score_pair(SourceId::new(a), SourceId::new(b));
            let e2 = ctx.score_pair(SourceId::new(b), SourceId::new(a));
            assert_eq!(e1, e2.swapped());
            assert_eq!(
                e1.posterior_independence(&ctx.params).to_bits(),
                e2.posterior_independence(&ctx.params).to_bits()
            );
        }
    }

    /// Pairs that share no item accumulate no evidence and default to
    /// no-copying with the prior posterior β/(β+2α) — for the paper's
    /// parameters 0.8.
    #[test]
    fn disjoint_pair_has_prior_posterior() {
        let (ex, accuracies, probabilities) = context_fixture();
        let ctx = ScoringContext::new(
            &ex.dataset,
            &accuracies,
            &probabilities,
            CopyParams::paper_defaults(),
        );
        // S0 provides NJ, AZ, NY, TX; S6 provides AZ, NY, FL, TX — they do
        // share items, so use a constructed check instead: evidence with no
        // observations.
        let empty = PairEvidence::empty();
        let p = empty.posterior_independence(&ctx.params);
        assert!((p - 0.8).abs() < 1e-12);
        assert_eq!(empty.decision(&ctx.params), CopyDecision::NoCopying);
    }

    /// The planted copier cliques are detected and the honest high-accuracy
    /// sources are not flagged, using full pairwise scoring.
    #[test]
    fn pairwise_decisions_match_planted_truth_for_key_pairs() {
        let (ex, accuracies, probabilities) = context_fixture();
        let ctx = ScoringContext::new(
            &ex.dataset,
            &accuracies,
            &probabilities,
            CopyParams::paper_defaults(),
        );
        let copying = [(2u32, 3u32), (2, 4), (3, 4), (6, 7), (6, 8), (7, 8)];
        for (a, b) in copying {
            let (_, _, decision) = pairwise_scores(&ctx, SourceId::new(a), SourceId::new(b));
            assert_eq!(decision, CopyDecision::Copying, "expected copying for (S{a}, S{b})");
        }
        let independent = [(0u32, 1u32), (0, 9), (1, 9), (0, 5), (1, 5)];
        for (a, b) in independent {
            let (_, _, decision) = pairwise_scores(&ctx, SourceId::new(a), SourceId::new(b));
            assert_eq!(decision, CopyDecision::NoCopying, "expected no-copying for (S{a}, S{b})");
        }
    }

    #[test]
    fn implies_helpers_match_thresholds() {
        let params = CopyParams::paper_defaults();
        let thresholds = params.thresholds();
        let mut e = PairEvidence::empty();
        assert!(e.implies_no_copying(&thresholds));
        let mut above_cp = PairEvidence::empty();
        above_cp.add_scores(thresholds.theta_cp + 0.01, 0.0);
        assert!(!above_cp.implies_no_copying(&thresholds));
        // Above θind but below θcp: no-copying is no longer guaranteed.
        e.add_scores((thresholds.theta_ind + thresholds.theta_cp) / 2.0, 0.0);
        assert!(!e.implies_no_copying(&thresholds));
    }

    #[test]
    fn posterior_saturates_for_huge_scores() {
        let params = CopyParams::paper_defaults();
        let p = posterior_independence(1e6, 0.0, &params);
        assert_eq!(p, 0.0);
        assert!(posterior_independence(0.0, 0.0, &params) > 0.0);
    }

    /// A score computed once and added many times is bit-identical to
    /// scoring the value afresh for every pair, in either orientation.
    #[test]
    fn same_value_score_matches_add_same_value() {
        let params = CopyParams::paper_defaults();
        for (p, a1, a2) in [(0.4, 0.8, 0.8), (0.01, 0.2, 0.9), (0.97, 0.6, 0.3)] {
            let score = SameValueScore::new(p, a1, a2, &params);
            let mut fresh = PairEvidence::empty();
            let mut reused = PairEvidence::empty();
            for _ in 0..5 {
                fresh.add_same_value(p, a1, a2, &params);
                reused.add_same_value_score(score);
            }
            assert_eq!(fresh, reused);
            let mut mirrored = PairEvidence::empty();
            mirrored.add_same_value(p, a2, a1, &params);
            let mut once = PairEvidence::empty();
            once.add_same_value_score(score);
            assert_eq!(mirrored, once.swapped());
        }
    }

    /// Evidence summed at uniform accuracy as integer units is the evidence
    /// of adding each rounded score, bit for bit.
    #[test]
    fn uniform_sum_matches_added_scores() {
        let params = CopyParams::paper_defaults();
        let a = 0.8;
        let mut added = PairEvidence::empty();
        let mut units = 0i128;
        for p in [0.4, 0.01, 0.97, 0.4, 0.5] {
            added.add_same_value_score(SameValueScore::new(p, a, a, &params));
            units += SameValueScore::uniform_units(p, a, &params);
        }
        added.add_different_values(3, &params);
        let summed = PairEvidence::from_uniform_sum(units, 5, 3, &params);
        assert_eq!(summed, added);
        assert_eq!(summed, summed.swapped());
    }

    #[test]
    fn bulk_different_values_matches_repeated_single() {
        let params = CopyParams::paper_defaults();
        let mut a = PairEvidence::empty();
        let mut b = PairEvidence::empty();
        for _ in 0..7 {
            a.add_different_value(&params);
        }
        b.add_different_values(7, &params);
        assert_eq!(a, b);
        assert_eq!(a.shared_items(), 7);
    }
}
