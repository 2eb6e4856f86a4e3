//! Quality metrics: copy-detection precision/recall/F-measure and the
//! truth-finding measures of Section VI-A.

use copydet_bayes::SourceAccuracies;
use copydet_model::{ItemId, SourcePair, ValueId};
use std::collections::{HashMap, HashSet};

/// Precision / recall / F-measure of a set of predicted copying pairs
/// against a reference set.
///
/// The paper measures every scalable method against PAIRWISE: *precision* is
/// the fraction of the method's copying pairs that PAIRWISE also outputs,
/// *recall* the fraction of PAIRWISE's copying pairs the method outputs.
/// The same structure is reused against the planted gold standard of the
/// synthetic workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyDetectionQuality {
    /// Fraction of predicted copying pairs present in the reference.
    pub precision: f64,
    /// Fraction of reference copying pairs that were predicted.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f_measure: f64,
    /// Number of predicted copying pairs.
    pub predicted: usize,
    /// Number of reference copying pairs.
    pub reference: usize,
}

impl CopyDetectionQuality {
    /// Computes the quality of `predicted` against `reference`.
    ///
    /// Edge cases follow the usual conventions: if both sets are empty,
    /// precision = recall = F = 1 (the method is exactly right); if only the
    /// prediction is empty, recall = 0; if only the reference is empty,
    /// precision = 0.
    pub fn compare(predicted: &HashSet<SourcePair>, reference: &HashSet<SourcePair>) -> Self {
        let intersection = predicted.intersection(reference).count();
        let precision = if predicted.is_empty() {
            if reference.is_empty() {
                1.0
            } else {
                0.0
            }
        } else {
            intersection as f64 / predicted.len() as f64
        };
        let recall = if reference.is_empty() {
            if predicted.is_empty() {
                1.0
            } else {
                0.0
            }
        } else {
            intersection as f64 / reference.len() as f64
        };
        let f_measure = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Self {
            precision,
            recall,
            f_measure,
            predicted: predicted.len(),
            reference: reference.len(),
        }
    }
}

/// Fraction of items on which two fusion results disagree (the paper's
/// "fusion difference"), evaluated over the union of items either result
/// answered.
pub fn fusion_difference(a: &HashMap<ItemId, ValueId>, b: &HashMap<ItemId, ValueId>) -> f64 {
    let items: HashSet<ItemId> = a.keys().chain(b.keys()).copied().collect();
    if items.is_empty() {
        return 0.0;
    }
    let different = items.iter().filter(|item| a.get(item) != b.get(item)).count();
    different as f64 / items.len() as f64
}

/// Mean absolute difference between two accuracy tables (the paper's
/// "accuracy variance" between a method's source accuracies and PAIRWISE's).
pub fn accuracy_variance(a: &SourceAccuracies, b: &SourceAccuracies) -> f64 {
    a.mean_abs_diff(b)
}

/// Fraction of gold-standard items on which a fusion result names the true
/// value (the paper's "fusion accuracy").
pub fn fusion_accuracy(
    truths: &HashMap<ItemId, ValueId>,
    gold: &HashMap<ItemId, ValueId>,
    sample: Option<&[ItemId]>,
) -> f64 {
    let items: Vec<ItemId> = match sample {
        Some(items) => items.to_vec(),
        None => gold.keys().copied().collect(),
    };
    if items.is_empty() {
        return 0.0;
    }
    let correct =
        items.iter().filter(|item| truths.get(item).copied() == gold.get(item).copied()).count();
    correct as f64 / items.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::SourceId;

    fn pair(a: u32, b: u32) -> SourcePair {
        SourcePair::new(SourceId::new(a), SourceId::new(b))
    }

    #[test]
    fn precision_recall_f() {
        let reference: HashSet<_> = [pair(0, 1), pair(2, 3), pair(4, 5)].into_iter().collect();
        let predicted: HashSet<_> = [pair(0, 1), pair(2, 3), pair(6, 7)].into_iter().collect();
        let q = CopyDetectionQuality::compare(&predicted, &reference);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.f_measure - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(q.predicted, 3);
        assert_eq!(q.reference, 3);
    }

    #[test]
    fn empty_sets_edge_cases() {
        let empty = HashSet::new();
        let some: HashSet<_> = [pair(0, 1)].into_iter().collect();
        let both_empty = CopyDetectionQuality::compare(&empty, &empty);
        assert_eq!(both_empty.precision, 1.0);
        assert_eq!(both_empty.recall, 1.0);
        let nothing_predicted = CopyDetectionQuality::compare(&empty, &some);
        assert_eq!(nothing_predicted.recall, 0.0);
        assert_eq!(nothing_predicted.f_measure, 0.0);
        let nothing_real = CopyDetectionQuality::compare(&some, &empty);
        assert_eq!(nothing_real.precision, 0.0);
    }

    #[test]
    fn fusion_difference_counts_disagreements() {
        let a: HashMap<_, _> =
            [(ItemId::new(0), ValueId::new(0)), (ItemId::new(1), ValueId::new(1))]
                .into_iter()
                .collect();
        let mut b = a.clone();
        assert_eq!(fusion_difference(&a, &b), 0.0);
        b.insert(ItemId::new(1), ValueId::new(9));
        assert!((fusion_difference(&a, &b) - 0.5).abs() < 1e-12);
        // Items answered by only one side count as disagreements.
        b.insert(ItemId::new(2), ValueId::new(2));
        assert!((fusion_difference(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(fusion_difference(&HashMap::new(), &HashMap::new()), 0.0);
    }

    #[test]
    fn fusion_accuracy_over_sample() {
        let gold: HashMap<_, _> = [
            (ItemId::new(0), ValueId::new(0)),
            (ItemId::new(1), ValueId::new(1)),
            (ItemId::new(2), ValueId::new(2)),
        ]
        .into_iter()
        .collect();
        let truths: HashMap<_, _> =
            [(ItemId::new(0), ValueId::new(0)), (ItemId::new(1), ValueId::new(5))]
                .into_iter()
                .collect();
        assert!((fusion_accuracy(&truths, &gold, None) - 1.0 / 3.0).abs() < 1e-12);
        let sample = [ItemId::new(0), ItemId::new(1)];
        assert!((fusion_accuracy(&truths, &gold, Some(&sample)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_variance_is_mean_abs_diff() {
        let a = SourceAccuracies::from_vec(vec![0.9, 0.5]).unwrap();
        let b = SourceAccuracies::from_vec(vec![0.8, 0.5]).unwrap();
        assert!((accuracy_variance(&a, &b) - 0.05).abs() < 1e-9);
    }
}
