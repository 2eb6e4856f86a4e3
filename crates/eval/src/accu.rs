//! Source accuracy from value probabilities: the "source accuracy"
//! computation of the iterative loop (Section II-A).

use copydet_bayes::{SourceAccuracies, ValueProbabilities};
use copydet_model::Dataset;

/// Recomputes every source's accuracy as the mean probability of the values
/// it provides (sources with no claims keep the supplied fallback).
pub fn accuracy_from_probabilities(
    dataset: &Dataset,
    probabilities: &ValueProbabilities,
    fallback: f64,
) -> SourceAccuracies {
    let accs: Vec<f64> = dataset
        .sources()
        .map(|s| {
            let claims = dataset.claims_of(s);
            if claims.is_empty() {
                return fallback;
            }
            let sum: f64 = claims.iter().map(|&(d, v)| probabilities.get(d, v)).sum();
            sum / claims.len() as f64
        })
        .collect();
    // audit: allow(no-panic) — every stored probability and the table's
    // default are validated into [0, 1], and a rounded mean of such values
    // stays in [0, 1].
    SourceAccuracies::from_vec(accs).expect("mean probabilities are in [0, 1]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::motivating_example;

    #[test]
    fn accuracy_recomputation_matches_mean_probability() {
        let ex = motivating_example();
        let probs = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let acc = accuracy_from_probabilities(&ex.dataset, &probs, 0.5);
        // S0 provides Trenton (.97), Phoenix (.95), Albany (.94), Austin (.96).
        let expected = (0.97 + 0.95 + 0.94 + 0.96) / 4.0;
        assert!((acc.get(copydet_model::SourceId::new(0)) - expected).abs() < 1e-9);
        // A source with mostly false values ends up with low accuracy.
        assert!(acc.get(copydet_model::SourceId::new(6)) < 0.1);
    }

    #[test]
    fn sources_without_claims_keep_fallback_accuracy() {
        let mut b = copydet_model::DatasetBuilder::new();
        b.add_claim("A", "D", "x");
        b.source("B"); // registered but claims nothing
        let ds = b.build();
        let probs = ValueProbabilities::uniform_over_dataset(&ds, 0.7).unwrap();
        let acc = accuracy_from_probabilities(&ds, &probs, 0.42);
        let b_id = ds.source_by_name("B").unwrap();
        assert!((acc.get(b_id) - 0.42).abs() < 1e-9);
    }
}
