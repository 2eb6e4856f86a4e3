//! Accuracy-weighted voting with copy discounting: the "value truthfulness"
//! computation of the iterative loop (Section II-A, following the ACCU /
//! ACCUCOPY formulation of Dong et al. VLDB'09).
//!
//! The served round calls [`value_probabilities`] once per shard with no
//! copy result (the bootstrap vote); the iterative loop that alternates it
//! with copy detection and accuracy recomputation (ACCUCOPY) lives in
//! `copydet-eval`.

use crate::result::DetectionResult;
use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_model::{Dataset, ItemValueGroup, SourceId, SourcePair};

/// Configuration of the voting step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteConfig {
    /// Model priors; `n_false_values` sizes the domain of each item and
    /// `selectivity` scales the copy discount.
    pub params: CopyParams,
    /// Probability of copying assumed for pairs the detector flagged without
    /// reporting an exact posterior (early-terminated pairs carry strong
    /// evidence, so this defaults to 0.99).
    pub default_copy_probability: f64,
}

impl VoteConfig {
    /// The default configuration for the given model priors.
    pub fn new(params: CopyParams) -> Self {
        Self { params, default_copy_probability: 0.99 }
    }

    /// The vote weight of a source: `A'(S) = ln(n·A(S) / (1 − A(S)))`.
    fn vote_weight(&self, accuracy: f64) -> f64 {
        (self.params.n() * accuracy / (1.0 - accuracy)).ln()
    }
}

/// Probability that the pair copies (in either direction), as far as the
/// detector's result can tell: `1 − posterior` when the posterior is known,
/// the configured default for pairs decided early, and 0 for pairs judged
/// independent (or never materialized).
fn copy_probability(result: &DetectionResult, pair: SourcePair, config: &VoteConfig) -> f64 {
    match result.outcomes.get(&pair) {
        Some(outcome) if outcome.decision.is_copying() => {
            outcome.posterior.map(|p| 1.0 - p).unwrap_or(config.default_copy_probability)
        }
        _ => 0.0,
    }
}

/// Computes `P(D.v)` for every provided value from the current source
/// accuracies, discounting votes that were probably copied.
///
/// For each value of each item, providers are counted in decreasing accuracy
/// order; provider `S`'s vote weight is multiplied by
/// `Π (1 − s·Pr(copying))` over the already-counted providers `S'` that the
/// copy-detection result links to `S`; without a copy result every factor
/// is exactly 1, so the product is skipped. Probabilities are normalized
/// over the provided values plus the `n + 1 − k` unprovided candidate
/// values of the item's domain (each carrying vote weight 0), using a
/// log-sum-exp so large vote counts cannot overflow.
///
/// The result depends on each item's *set* of value groups, not on their
/// order: two datasets built from the same claims in different arrival
/// orders (so with different value ids) get the same probability bits for
/// every (item, value) name, which is what lets every shard of a sharded
/// store vote its own snapshot.
pub fn value_probabilities(
    dataset: &Dataset,
    accuracies: &SourceAccuracies,
    copy_result: Option<&DetectionResult>,
    config: &VoteConfig,
) -> ValueProbabilities {
    let mut probabilities = ValueProbabilities::new(dataset.num_items());
    for item in dataset.items() {
        let groups = dataset.values_of_item(item);
        if groups.is_empty() {
            continue;
        }
        let probs = vote_group_probabilities(groups, accuracies, copy_result, config);
        for (group, p) in groups.iter().zip(probs) {
            // `p` is clamped into [1e-9, 1 − 1e-9] and is never NaN (see
            // `vote_group_probabilities`), and `dataset` sized the table.
            #[expect(clippy::expect_used, reason = "the probability is always in range")]
            probabilities
                .set(group.item, group.value, p)
                .expect("probability is clamped into range");
        }
    }
    probabilities
}

/// The vote-based truth probabilities of one item's value groups, one per
/// group, in the order given. All groups must belong to the same item and
/// cover every provided value of it, since the normalization counts the
/// item's unprovided candidate values as `n + 1 − k`.
///
/// The result does not depend on the order of `groups`: the normalizer sums
/// its exp terms in ascending order (`total_cmp`), and a group's vote is a sum
/// over providers sorted by accuracy, whose ties carry equal weights when
/// there is no copy result to discount them.
///
/// Every vote is finite: accuracies are clamped into `[ε, 1 − ε]` and
/// `CopyParams` keeps `n ≥ 1` and `s < 1`, so each weight and each copy
/// discount is finite. The offset is the largest exponent in the
/// normalizer, so that term is exactly 1, the sum is at least 1, and every
/// probability lies in `[0, 1]`.
fn vote_group_probabilities(
    groups: &[ItemValueGroup],
    accuracies: &SourceAccuracies,
    copy_result: Option<&DetectionResult>,
    config: &VoteConfig,
) -> Vec<f64> {
    // Vote count per provided value.
    let mut votes: Vec<f64> = Vec::with_capacity(groups.len());
    for group in groups {
        let mut providers: Vec<SourceId> = group.providers.clone();
        providers.sort_by(|&a, &b| accuracies.get(b).total_cmp(&accuracies.get(a)));
        let mut vote = 0.0;
        for (idx, &s) in providers.iter().enumerate() {
            let weight = config.vote_weight(accuracies.get(s));
            let Some(result) = copy_result else {
                vote += weight;
                continue;
            };
            let mut independence = 1.0;
            for &earlier in providers.iter().take(idx) {
                let p_copy = copy_probability(result, SourcePair::new(s, earlier), config);
                independence *= 1.0 - config.params.selectivity * p_copy;
            }
            vote += weight * independence;
        }
        votes.push(vote);
    }
    // Normalize: provided values have weight e^vote, the remaining
    // (n + 1 − k) candidate values have weight e^0 = 1.
    #[expect(clippy::as_conversions, reason = "usize to f64 has no `From`; it rounds, never wraps")]
    let unseen = (config.params.n() + 1.0 - groups.len() as f64).max(0.0);
    let floor = if unseen > 0.0 { 0.0 } else { f64::NEG_INFINITY };
    let max_vote = votes.iter().copied().fold(floor, f64::max);
    let mut terms: Vec<f64> = votes.iter().map(|v| (v - max_vote).exp()).collect();
    terms.sort_by(f64::total_cmp);
    let denom = terms.iter().sum::<f64>() + unseen * (-max_vote).exp();
    votes.iter().map(|vote| ((vote - max_vote).exp() / denom).clamp(1e-9, 1.0 - 1e-9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pairwise_detection, RoundInput};
    use copydet_synth::motivating_example;

    fn config() -> VoteConfig {
        VoteConfig::new(CopyParams::paper_defaults())
    }

    #[test]
    fn accurate_majorities_get_high_probability() {
        let ex = motivating_example();
        let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probs = value_probabilities(&ex.dataset, &accuracies, None, &config());
        let nj = ex.dataset.item_by_name("NJ").unwrap();
        let trenton = ex.dataset.value_by_str("Trenton").unwrap();
        let atlantic = ex.dataset.value_by_str("Atlantic").unwrap();
        assert!(probs.get(nj, trenton) > 0.9);
        assert!(probs.get(nj, atlantic) < 0.1);
        // Probabilities of an item's values never exceed 1 in total.
        let total: f64 = ex.dataset.values_of_item(nj).iter().map(|g| probs.get(nj, g.value)).sum();
        assert!(total <= 1.0 + 1e-9);
    }

    /// Copy discounting weakens a copier clique: with the copy-detection
    /// result plugged in, the false New York value loses probability
    /// relative to ignoring copying.
    #[test]
    fn copy_discount_weakens_copier_cliques() {
        let ex = motivating_example();
        let accuracies = SourceAccuracies::from_vec(vec![0.8; 10]).unwrap();
        let vote_config = config();
        // With uniform accuracies the NewYork clique (3 providers) beats
        // Albany (3 providers, but one is S5) — at least it is close. Now
        // bring in copy detection computed from the known state.
        let known_acc = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let known_probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let input = RoundInput::new(&ex.dataset, &known_acc, &known_probs, vote_config.params);
        let detection = pairwise_detection(&input);

        let ny = ex.dataset.item_by_name("NY").unwrap();
        let newyork = ex.dataset.value_by_str("NewYork").unwrap();
        let without = value_probabilities(&ex.dataset, &accuracies, None, &vote_config);
        let with = value_probabilities(&ex.dataset, &accuracies, Some(&detection), &vote_config);
        assert!(
            with.get(ny, newyork) < without.get(ny, newyork) + 1e-12,
            "discounted probability should not exceed the undiscounted one"
        );
    }

    /// The same claims arriving in two orders intern their values, and so
    /// order each item's groups, differently; the vote must not notice.
    #[test]
    fn vote_is_independent_of_value_group_order() {
        let mut claims = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for item in 0..60 {
            for source in 0..16 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let value = state >> 61;
                claims.push((format!("S{source}"), format!("D{item}"), format!("v{value}")));
            }
        }
        let build = |claims: &mut dyn Iterator<Item = &(String, String, String)>| {
            let mut b = copydet_model::DatasetBuilder::new();
            for (source, item, value) in claims {
                b.add_claim(source, item, value);
            }
            b.build()
        };
        let forward = build(&mut claims.iter());
        let backward = build(&mut claims.iter().rev());
        assert_ne!(forward.value_by_str("v0"), backward.value_by_str("v0"));
        let accuracies = |ds: &Dataset, uniform: bool| {
            let accs = ds
                .sources()
                .map(|s| {
                    let index: f64 = ds.source_name(s)[1..].parse().unwrap();
                    if uniform {
                        0.8
                    } else {
                        0.5 + 0.45 * (index * 0.618_034).fract()
                    }
                })
                .collect();
            SourceAccuracies::from_vec(accs).unwrap()
        };
        for uniform in [true, false] {
            let a = value_probabilities(&forward, &accuracies(&forward, uniform), None, &config());
            let b =
                value_probabilities(&backward, &accuracies(&backward, uniform), None, &config());
            for item in forward.items() {
                let other = backward.item_by_name(forward.item_name(item)).unwrap();
                for group in forward.values_of_item(item) {
                    let value = backward.value_by_str(forward.value_str(group.value)).unwrap();
                    assert_eq!(
                        a.get(item, group.value).to_bits(),
                        b.get(other, value).to_bits(),
                        "{} / {} (uniform: {uniform})",
                        forward.item_name(item),
                        forward.value_str(group.value),
                    );
                }
            }
        }
    }
}
