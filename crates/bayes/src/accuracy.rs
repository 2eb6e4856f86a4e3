//! Per-source accuracy state.

use crate::error::BayesError;
use copydet_model::SourceId;

/// The minimum distance an accuracy is kept away from 0 and 1.
///
/// Accuracies of exactly 0 or 1 make the likelihood ratios of Eq. 3–6
/// degenerate (division by zero / infinite log scores), so the container
/// clamps every stored accuracy to `[EPSILON, 1 − EPSILON]`. The paper's own
/// example uses `A(S6) = 0.01`, i.e. the same order of magnitude.
pub const ACCURACY_EPSILON: f64 = 1e-3;

/// The accuracy `A(S)` of every source: the (estimated) fraction of its
/// provided values that are true, interpreted as the probability that the
/// source provides the true value for an item it covers.
///
/// Accuracies are indexed densely by [`SourceId`]. In the iterative fusion
/// loop this table is recomputed every round; in single-round uses it can be
/// supplied from prior knowledge (as in the paper's worked examples).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceAccuracies {
    values: Vec<f64>,
}

impl SourceAccuracies {
    /// Creates a table where every one of `num_sources` sources has the same
    /// accuracy `initial` (the iterative process of the paper starts with all
    /// sources at the same accuracy).
    pub fn uniform(num_sources: usize, initial: f64) -> Result<Self, BayesError> {
        if !(0.0..=1.0).contains(&initial) {
            return Err(BayesError::InvalidProbability {
                what: "initial accuracy",
                value: initial,
            });
        }
        Ok(Self { values: vec![clamp(initial); num_sources] })
    }

    /// Creates a table from explicit per-source accuracies (indexed by
    /// `SourceId::index()`).
    pub fn from_vec(accuracies: Vec<f64>) -> Result<Self, BayesError> {
        for &a in &accuracies {
            if !(0.0..=1.0).contains(&a) || a.is_nan() {
                return Err(BayesError::InvalidProbability { what: "source accuracy", value: a });
            }
        }
        Ok(Self { values: accuracies.into_iter().map(clamp).collect() })
    }

    /// Number of sources in the table.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the table covers no sources.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Accuracy of source `s`.
    #[inline]
    pub fn get(&self, s: SourceId) -> f64 {
        self.values[s.index()]
    }

    /// Sets the accuracy of source `s`, clamping it into
    /// `[EPSILON, 1 − EPSILON]`.
    pub fn set(&mut self, s: SourceId, accuracy: f64) {
        self.values[s.index()] = clamp(accuracy);
    }

    /// Extends the table to cover the sources of `other`, copying the
    /// accuracies of the sources this table does not know yet. Existing
    /// entries are left untouched.
    ///
    /// Used when a dataset delta introduces new sources: the old-state
    /// snapshot kept by incremental detection is padded with the new state's
    /// values, so new sources never register as an accuracy *change*.
    ///
    /// # Panics
    /// Panics if `other` covers fewer sources than `self`.
    pub fn extend_from(&mut self, other: &SourceAccuracies) {
        assert!(other.len() >= self.len(), "cannot extend from a smaller accuracy table");
        self.values.extend_from_slice(&other.values[self.len()..]);
    }

    /// Iterates over `(source, accuracy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, f64)> + '_ {
        self.values.iter().enumerate().map(|(i, &a)| (SourceId::from_index(i), a))
    }

    /// The raw accuracy slice, indexed by `SourceId::index()`.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Largest absolute accuracy difference against another table of the same
    /// size. Used for convergence checks and for the paper's "accuracy
    /// variance" quality measure.
    pub fn max_abs_diff(&self, other: &SourceAccuracies) -> f64 {
        assert_eq!(self.len(), other.len(), "accuracy tables must cover the same sources");
        self.values.iter().zip(&other.values).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Mean absolute accuracy difference against another table.
    pub fn mean_abs_diff(&self, other: &SourceAccuracies) -> f64 {
        assert_eq!(self.len(), other.len(), "accuracy tables must cover the same sources");
        if self.values.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.values.iter().zip(&other.values).map(|(a, b)| (a - b).abs()).sum();
        sum / self.values.len() as f64
    }
}

#[inline]
fn clamp(a: f64) -> f64 {
    a.clamp(ACCURACY_EPSILON, 1.0 - ACCURACY_EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_initialization() {
        let acc = SourceAccuracies::uniform(4, 0.8).unwrap();
        assert_eq!(acc.len(), 4);
        for (_, a) in acc.iter() {
            assert!((a - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn from_vec_and_get_set() {
        let mut acc = SourceAccuracies::from_vec(vec![0.99, 0.2, 0.5]).unwrap();
        assert!((acc.get(SourceId::new(0)) - 0.99).abs() < 1e-12);
        acc.set(SourceId::new(1), 0.7);
        assert!((acc.get(SourceId::new(1)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn extreme_accuracies_are_clamped() {
        let acc = SourceAccuracies::from_vec(vec![0.0, 1.0]).unwrap();
        assert!(acc.get(SourceId::new(0)) >= ACCURACY_EPSILON);
        assert!(acc.get(SourceId::new(1)) <= 1.0 - ACCURACY_EPSILON);
    }

    #[test]
    fn invalid_accuracies_rejected() {
        assert!(SourceAccuracies::from_vec(vec![1.5]).is_err());
        assert!(SourceAccuracies::from_vec(vec![-0.1]).is_err());
        assert!(SourceAccuracies::from_vec(vec![f64::NAN]).is_err());
        assert!(SourceAccuracies::uniform(3, 2.0).is_err());
    }

    #[test]
    fn diffs() {
        let a = SourceAccuracies::from_vec(vec![0.5, 0.5, 0.5]).unwrap();
        let b = SourceAccuracies::from_vec(vec![0.6, 0.5, 0.2]).unwrap();
        assert!((a.max_abs_diff(&b) - 0.3).abs() < 1e-9);
        assert!((a.mean_abs_diff(&b) - (0.1 + 0.0 + 0.3) / 3.0).abs() < 1e-9);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn empty_table() {
        let a = SourceAccuracies::uniform(0, 0.8).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.mean_abs_diff(&a), 0.0);
    }

    #[test]
    fn extend_from_pads_new_sources_only() {
        let mut a = SourceAccuracies::from_vec(vec![0.5, 0.6]).unwrap();
        let b = SourceAccuracies::from_vec(vec![0.9, 0.9, 0.7, 0.8]).unwrap();
        a.extend_from(&b);
        assert_eq!(a.len(), 4);
        // Existing entries untouched, new ones copied from `b`.
        assert_eq!(a.get(SourceId::new(0)), 0.5);
        assert_eq!(a.get(SourceId::new(1)), 0.6);
        assert_eq!(a.get(SourceId::new(2)), 0.7);
        assert_eq!(a.get(SourceId::new(3)), 0.8);
        assert_eq!(a.max_abs_diff(&b), 0.4);
    }

    #[test]
    #[should_panic(expected = "cannot extend from a smaller")]
    fn extend_from_rejects_smaller_tables() {
        let mut a = SourceAccuracies::uniform(3, 0.8).unwrap();
        let b = SourceAccuracies::uniform(1, 0.8).unwrap();
        a.extend_from(&b);
    }
}
