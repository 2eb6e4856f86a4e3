//! Property-based tests for the Bayesian scoring layer: the analytical
//! properties the paper's pruning and ordering strategies rely on must hold
//! over the whole parameter space.

use copydet_bayes::contribution::{different_value_score, same_value_score};
use copydet_bayes::max_contribution::{max_contribution, max_contribution_exhaustive};
use copydet_bayes::{posterior_independence, CopyParams, PairEvidence};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = CopyParams> {
    (0.01f64..0.49, 1u32..200, 0.01f64..0.99)
        .prop_map(|(alpha, n, s)| CopyParams::new(alpha, n, s).expect("ranges are valid"))
}

fn prob_strategy() -> impl Strategy<Value = f64> {
    0.001f64..0.999
}

fn accuracy_strategy() -> impl Strategy<Value = f64> {
    0.001f64..0.999
}

proptest! {
    /// Sharing a value is always (weak or strong) positive evidence for
    /// copying; providing different values is always negative evidence
    /// (proved for the model in Dong et al. and restated in Section II-A).
    #[test]
    fn same_positive_different_negative(
        params in params_strategy(),
        p in prob_strategy(),
        a1 in accuracy_strategy(),
        a2 in accuracy_strategy(),
    ) {
        let same = same_value_score(p, a1, a2, &params);
        prop_assert!(same.is_finite());
        prop_assert!(same > 0.0, "same-value score {same} not positive");
        prop_assert!(different_value_score(&params) < 0.0);
    }

    /// The same-value score is decreasing in the probability of the shared
    /// value being true ("it is larger when the shared value has a lower
    /// P(D.v)") whenever the copier's accuracy exceeds `1/(n+1)` — i.e. the
    /// copier is better than a uniform guess over the `n+1` candidate values.
    /// (Below that accuracy the likelihood ratio can invert; the paper's
    /// model always assumes sources better than random guessing.)
    #[test]
    fn score_monotone_in_probability(
        params in params_strategy(),
        p in 0.001f64..0.99,
        a1 in accuracy_strategy(),
        a2 in accuracy_strategy(),
    ) {
        prop_assume!(a1 > 1.0 / (params.n() + 1.0) + 1e-6);
        let lower = same_value_score(p, a1, a2, &params);
        let higher = same_value_score(p + 0.009, a1, a2, &params);
        prop_assert!(lower >= higher - 1e-12, "score not decreasing: {lower} < {higher}");
    }

    /// The constant-candidate M̂ computation equals the exhaustive maximum
    /// over all ordered provider pairs.
    #[test]
    fn max_contribution_matches_exhaustive(
        params in params_strategy(),
        p in prob_strategy(),
        accs in prop::collection::vec(accuracy_strategy(), 2..12),
    ) {
        let fast = max_contribution(p, &accs, &params);
        let slow = max_contribution_exhaustive(p, &accs, &params);
        prop_assert!((fast - slow).abs() < 1e-9, "{fast} != {slow} for accs {accs:?}");
    }

    /// M̂ upper-bounds the contribution for every concrete pair of providers
    /// (the property the index ordering and Proposition 3.4 rely on).
    #[test]
    fn max_contribution_is_an_upper_bound(
        params in params_strategy(),
        p in prob_strategy(),
        accs in prop::collection::vec(accuracy_strategy(), 2..10),
    ) {
        let m = max_contribution(p, &accs, &params);
        for (i, &a) in accs.iter().enumerate() {
            for (j, &b) in accs.iter().enumerate() {
                if i != j {
                    prop_assert!(same_value_score(p, a, b, &params) <= m + 1e-9);
                }
            }
        }
    }

    /// The posterior of Eq. 2 is a probability, decreases as evidence for
    /// copying accumulates, and crosses the θ thresholds consistently with
    /// the binary decision rule.
    #[test]
    fn posterior_is_probability_and_monotone(
        params in params_strategy(),
        c in -50.0f64..50.0,
        extra in 0.0f64..10.0,
    ) {
        let p1 = posterior_independence(c, c, &params);
        let p2 = posterior_independence(c + extra, c, &params);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!((0.0..=1.0).contains(&p2));
        prop_assert!(p2 <= p1 + 1e-12, "posterior increased with more evidence");
    }

    /// Reaching θcp in one direction forces the copying decision; staying
    /// below θind in both directions forces the no-copying decision
    /// (Section IV-A's termination conditions are sound).
    #[test]
    fn thresholds_are_sound(params in params_strategy(), c_to in -20.0f64..20.0, c_from in -20.0f64..20.0) {
        let t = params.thresholds();
        let posterior = posterior_independence(c_to, c_from, &params);
        if c_to >= t.theta_cp || c_from >= t.theta_cp {
            prop_assert!(posterior <= 0.5 + 1e-12, "θcp reached but posterior {posterior} > .5");
        }
        if c_to < t.theta_ind && c_from < t.theta_ind {
            prop_assert!(posterior > 0.5 - 1e-12, "below θind but posterior {posterior} <= .5");
        }
    }

    /// Accumulating evidence item by item is exact: the order of
    /// same/different additions does not change a single bit of the scores.
    #[test]
    fn evidence_accumulation_is_order_independent(
        params in params_strategy(),
        items in prop::collection::vec(item_strategy(), 0..20),
    ) {
        let forward = fold(&items, &params);
        let reversed: Vec<_> = items.iter().rev().copied().collect();
        let backward = fold(&reversed, &params);
        prop_assert_eq!(forward, backward);
        prop_assert_eq!(forward.c_to().to_bits(), backward.c_to().to_bits());
        prop_assert_eq!(forward.c_from().to_bits(), backward.c_from().to_bits());
    }

    /// Splitting the items at any point (as item-disjoint shards do) and
    /// merging the two partials equals the sequential fold bit for bit.
    #[test]
    fn split_and_merge_equals_sequential_fold(
        params in params_strategy(),
        items in prop::collection::vec(item_strategy(), 0..40),
        split in 0usize..=40,
    ) {
        let sequential = fold(&items, &params);
        let at = split.min(items.len());
        let (head, tail) = items.split_at(at);
        let mut merged = fold(tail, &params);
        merged.merge(&fold(head, &params));
        prop_assert_eq!(merged, sequential);
        prop_assert_eq!(merged.c_to().to_bits(), sequential.c_to().to_bits());
    }

    /// The exact sum of `n` scores stays within `n·2⁻⁶⁰` of their real sum,
    /// plus the one final rounding to `f64`. The reference is a compensated
    /// (Neumaier) `f64` fold, itself within `2ε|S| + 4nε²Σ|x|` of the real
    /// sum, so that much slack is added on top. Rounding is symmetric, so
    /// negated scores sum to the negated result.
    #[test]
    fn exact_sum_error_is_bounded_against_an_f64_fold(
        scores in prop::collection::vec(-20.0f64..20.0, 0..200),
    ) {
        let mut evidence = PairEvidence::empty();
        for &x in &scores {
            evidence.add_scores(x, -x);
        }
        let (sum, abs_sum) = compensated_sum(&scores);
        let n = scores.len() as f64;
        let eps = f64::EPSILON;
        let bound = n * 2f64.powi(-60)
            + eps * sum.abs() // the final rounding of the fixed-point sum
            + 2.0 * eps * sum.abs()
            + 4.0 * n * eps * eps * abs_sum;
        let error = (evidence.c_to() - sum).abs();
        prop_assert!(error <= bound, "error {error:e} above bound {bound:e} for n = {n}");
        prop_assert_eq!(evidence.c_from().to_bits(), (-evidence.c_to()).to_bits());
    }
}

/// One shared item: `(p, a_first, a_second, same value?)`.
type Item = (f64, f64, f64, bool);

fn item_strategy() -> impl Strategy<Value = Item> {
    (prob_strategy(), accuracy_strategy(), accuracy_strategy(), any::<bool>())
}

fn fold(items: &[Item], params: &CopyParams) -> PairEvidence {
    let mut evidence = PairEvidence::empty();
    for &(p, a1, a2, same) in items {
        if same {
            evidence.add_same_value(p, a1, a2, params);
        } else {
            evidence.add_different_value(params);
        }
    }
    evidence
}

/// Neumaier's compensated summation: `(Σx, Σ|x|)`.
fn compensated_sum(scores: &[f64]) -> (f64, f64) {
    let (mut sum, mut compensation, mut abs_sum) = (0.0f64, 0.0f64, 0.0f64);
    for &x in scores {
        let t = sum + x;
        compensation += if sum.abs() >= x.abs() { (sum - t) + x } else { (x - t) + sum };
        sum = t;
        abs_sum += x.abs();
    }
    (sum + compensation, abs_sum)
}

/// The documented saturation: an infinite or huge score clamps to 2³⁴ and a
/// NaN counts as 0, so the posterior saturates instead of turning NaN.
#[test]
fn non_finite_and_huge_scores_saturate() {
    let params = CopyParams::paper_defaults();
    let mut evidence = PairEvidence::empty();
    evidence.add_scores(f64::INFINITY, f64::NAN);
    assert_eq!(evidence.c_to(), 2f64.powi(34));
    assert_eq!(evidence.c_from(), 0.0);
    assert_eq!(evidence.posterior_independence(&params), 0.0);
    let mut huge = PairEvidence::empty();
    huge.add_scores(1e300, f64::NEG_INFINITY);
    assert_eq!(huge.c_to(), 2f64.powi(34));
    assert_eq!(huge.c_from(), -(2f64.powi(34)));
    let mut negative = PairEvidence::empty();
    negative.add_scores(-1e300, -1e300);
    assert_eq!(negative.posterior_independence(&params), 1.0);
}
