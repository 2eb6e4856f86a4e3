//! Top-k copier queries: the ranking applied to a filtered round.
//!
//! The serving question is narrow — "who are the k most likely copiers of
//! source X?" — and the serving path answers it as a detection round whose
//! shard scans keep only the pairs containing X
//! ([`collect_shard_partials_for`](crate::collect_shard_partials_for)),
//! followed by [`rank_topk`]. Each kept pair gets the same per-shard
//! partials as in the full round, and the partials add exactly, so the
//! answer is **bit-identical** to the top-k extracted from a full round by
//! construction.
//!
//! There is no pruning bound: a per-item evidence bound maximised over the
//! vote probability (≈5.3 at accuracy 0.8, against ≈0.18 for a shared true
//! value and θ_ind ≈ 1.39) orders candidates but never excludes one, so
//! every candidate is evaluated.

use crate::result::PairOutcome;
use copydet_model::codec::usize_to_u64;
use copydet_model::SourcePair;

/// A ranked top-k answer plus its candidate count.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// At most `k` pairs, most suspicious first: ascending posterior, ties
    /// broken by ascending pair id — the same order a full round's top-k
    /// extraction yields.
    pub ranked: Vec<(SourcePair, PairOutcome)>,
    /// Pairs the query's filtered round materialized — every pair of the
    /// full round the query can rank, each one evaluated (nothing is
    /// pruned).
    pub candidates: u64,
}

/// Ranks evaluated pairs by ascending posterior of independence (most
/// suspicious first), breaks ties by ascending pair id, and keeps the first
/// `k`. A missing posterior ranks as 1.0 (least suspicious).
pub fn rank_topk(
    outcomes: impl IntoIterator<Item = (SourcePair, PairOutcome)>,
    k: usize,
) -> TopKResult {
    let mut ranked: Vec<(SourcePair, PairOutcome)> = outcomes.into_iter().collect();
    let candidates = usize_to_u64(ranked.len());
    ranked.sort_unstable_by(|a, b| {
        let posterior = |outcome: &PairOutcome| outcome.posterior.unwrap_or(1.0);
        posterior(&a.1).total_cmp(&posterior(&b.1)).then_with(|| a.0.cmp(&b.0))
    });
    ranked.truncate(k);
    TopKResult { ranked, candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::CopyDecision;
    use copydet_model::SourceId;

    fn outcome(posterior: f64) -> PairOutcome {
        PairOutcome {
            decision: CopyDecision::from_posterior(posterior),
            posterior: Some(posterior),
            c_to: 0.0,
            c_from: 0.0,
        }
    }

    fn pair(a: u32, b: u32) -> SourcePair {
        SourcePair::new(SourceId::new(a), SourceId::new(b))
    }

    #[test]
    fn rank_orders_by_posterior_then_pair_id_and_truncates_to_k() {
        let outcomes = [
            (pair(0, 4), outcome(0.5)),
            (pair(0, 2), outcome(0.5)),
            (pair(0, 3), outcome(0.01)),
            (pair(0, 1), outcome(0.5)),
        ];
        let keys = |result: &TopKResult| -> Vec<SourcePair> {
            result.ranked.iter().map(|(pair, _)| *pair).collect()
        };
        // Posterior ties fall back to ascending pair id.
        let top = rank_topk(outcomes, 3);
        assert_eq!(keys(&top), vec![pair(0, 3), pair(0, 1), pair(0, 2)]);
        assert_eq!(top.candidates, 4);
        // k larger than the set returns every pair.
        let all = rank_topk(outcomes, usize::MAX);
        assert_eq!(keys(&all), vec![pair(0, 3), pair(0, 1), pair(0, 2), pair(0, 4)]);
        // k = 0 returns nothing but still counts the candidates.
        let none = rank_topk(outcomes, 0);
        assert!(none.ranked.is_empty());
        assert_eq!(none.candidates, 4);
    }
}
