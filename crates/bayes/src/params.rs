//! Prior parameters of the copying model and the derived decision
//! thresholds.

use crate::error::BayesError;

/// The three prior parameters of the copying model (footnote 4 of the paper:
/// "α, n, s are inputs and can be set/refined").
///
/// * `alpha` (α) — the a-priori probability that one source copies from
///   another particular source; `0 < α < 0.5`. The prior probability of
///   independence is `β = 1 − 2α`.
/// * `n_false_values` (n) — the number of uniformly distributed false values
///   assumed to exist in each item's domain; `n ≥ 1`.
/// * `selectivity` (s) — the probability that a copier copies a particular
///   item rather than providing it independently; `0 < s < 1`.
///
/// The paper's running example and experiments use `α = 0.1`, `s = 0.8`,
/// `n = 50` ([`CopyParams::paper_defaults`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyParams {
    /// A-priori probability of copying in one direction (α).
    pub alpha: f64,
    /// Number of false values in each item's domain (n).
    pub n_false_values: u32,
    /// Copying selectivity (s): probability that a copier copies a given item.
    pub selectivity: f64,
}

impl CopyParams {
    /// Creates parameters after validating their ranges.
    pub fn new(alpha: f64, n_false_values: u32, selectivity: f64) -> Result<Self, BayesError> {
        if !(alpha > 0.0 && alpha < 0.5) {
            return Err(BayesError::InvalidParameter {
                name: "alpha",
                value: alpha,
                requirement: "0 < alpha < 0.5",
            });
        }
        if n_false_values == 0 {
            return Err(BayesError::InvalidParameter {
                name: "n_false_values",
                value: 0.0,
                requirement: "n >= 1",
            });
        }
        if !(selectivity > 0.0 && selectivity < 1.0) {
            return Err(BayesError::InvalidParameter {
                name: "selectivity",
                value: selectivity,
                requirement: "0 < s < 1",
            });
        }
        Ok(Self { alpha, n_false_values, selectivity })
    }

    /// The parameter setting used throughout the paper's examples and
    /// experiments: `α = 0.1`, `s = 0.8`, `n = 50`.
    pub fn paper_defaults() -> Self {
        Self { alpha: 0.1, n_false_values: 50, selectivity: 0.8 }
    }

    /// The a-priori probability of independence, `β = 1 − 2α`.
    #[inline]
    pub fn beta(&self) -> f64 {
        1.0 - 2.0 * self.alpha
    }

    /// The number of false values as `f64`, for score arithmetic.
    #[inline]
    pub fn n(&self) -> f64 {
        f64::from(self.n_false_values)
    }

    /// The constant (negative) contribution of an item on which the two
    /// sources provide different values: `ln(1 − s)` (Eq. 8).
    #[inline]
    pub fn different_value_score(&self) -> f64 {
        (1.0 - self.selectivity).ln()
    }

    /// Decision thresholds for the default binary policy
    /// (`Pr(S1⊥S2|Φ) ⋛ 0.5`).
    pub fn thresholds(&self) -> DecisionThresholds {
        self.thresholds_for(DecisionPolicy::Binary)
    }

    /// Decision thresholds for an arbitrary [`DecisionPolicy`].
    ///
    /// For the binary policy the thresholds are the paper's
    /// `θcp = ln(β/α)` and `θind = ln(β/2α)` (Section IV-A). For the
    /// probability-band policy `{lo, hi}` they generalize to
    /// `θcp = ln((β/α)·(1/lo − 1))` and `θind = ln((β/2α)·(1/hi − 1))`:
    /// `Cmin ≥ θcp` in either direction guarantees `Pr(⊥) ≤ lo`, and both
    /// `Cmax < θind` guarantee `Pr(⊥) > hi`.
    pub fn thresholds_for(&self, policy: DecisionPolicy) -> DecisionThresholds {
        let beta = self.beta();
        let (lo, hi) = match policy {
            DecisionPolicy::Binary => (0.5, 0.5),
            DecisionPolicy::ProbabilityBand { lo, hi } => (lo, hi),
        };
        let theta_cp = (beta / self.alpha * (1.0 / lo - 1.0)).ln();
        let theta_ind = (beta / (2.0 * self.alpha) * (1.0 / hi - 1.0)).ln();
        DecisionThresholds { theta_cp, theta_ind }
    }
}

impl Default for CopyParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// How aggressively early decisions may be made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionPolicy {
    /// Decide "copying" when `Pr(S1⊥S2|Φ) ≤ 0.5` and "no copying" otherwise
    /// (the paper's default).
    Binary,
    /// Decide "copying" only when `Pr(⊥) ≤ lo` and "no copying" only when
    /// `Pr(⊥) > hi`; in between, the exact posterior is computed
    /// (Section IV-A's "[.1, .9]" refinement).
    ProbabilityBand {
        /// Posterior independence probability at or below which copying is
        /// concluded.
        lo: f64,
        /// Posterior independence probability above which no-copying is
        /// concluded.
        hi: f64,
    },
}

/// Score thresholds derived from [`CopyParams`] and a [`DecisionPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionThresholds {
    /// If `C→` or `C←` (or a lower bound on them) reaches `theta_cp`,
    /// copying can be concluded.
    pub theta_cp: f64,
    /// If both `C→` and `C←` (or upper bounds on them) stay below
    /// `theta_ind`, no-copying can be concluded.
    pub theta_ind: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match() {
        let p = CopyParams::paper_defaults();
        assert_eq!(p.alpha, 0.1);
        assert_eq!(p.n_false_values, 50);
        assert_eq!(p.selectivity, 0.8);
        assert!((p.beta() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn paper_thresholds_match_example_4_2() {
        // Example 4.2: θcp = ln(.8/.1) = 2.08, θind = ln(.8/.2) = 1.39.
        let t = CopyParams::paper_defaults().thresholds();
        assert!((t.theta_cp - (0.8f64 / 0.1).ln()).abs() < 1e-12);
        assert!((t.theta_ind - (0.8f64 / 0.2).ln()).abs() < 1e-12);
        assert!((t.theta_cp - 2.079).abs() < 1e-3);
        assert!((t.theta_ind - 1.386).abs() < 1e-3);
    }

    #[test]
    fn different_value_score_is_ln_one_minus_s() {
        let p = CopyParams::paper_defaults();
        assert!((p.different_value_score() - (0.2f64).ln()).abs() < 1e-12);
        assert!(p.different_value_score() < 0.0);
    }

    #[test]
    fn band_policy_widens_thresholds() {
        let p = CopyParams::paper_defaults();
        let binary = p.thresholds();
        let band = p.thresholds_for(DecisionPolicy::ProbabilityBand { lo: 0.1, hi: 0.9 });
        // Requiring Pr(⊥) <= .1 for copying needs more evidence than <= .5.
        assert!(band.theta_cp > binary.theta_cp);
        // Requiring Pr(⊥) > .9 for no-copying needs the evidence to be weaker.
        assert!(band.theta_ind < binary.theta_ind);
    }

    #[test]
    fn band_policy_with_half_reduces_to_binary() {
        let p = CopyParams::paper_defaults();
        let a = p.thresholds();
        let b = p.thresholds_for(DecisionPolicy::ProbabilityBand { lo: 0.5, hi: 0.5 });
        assert!((a.theta_cp - b.theta_cp).abs() < 1e-12);
        assert!((a.theta_ind - b.theta_ind).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(CopyParams::new(0.0, 50, 0.8).is_err());
        assert!(CopyParams::new(0.5, 50, 0.8).is_err());
        assert!(CopyParams::new(0.1, 0, 0.8).is_err());
        assert!(CopyParams::new(0.1, 50, 0.0).is_err());
        assert!(CopyParams::new(0.1, 50, 1.0).is_err());
        assert!(CopyParams::new(0.1, 50, 0.8).is_ok());
    }

    #[test]
    fn validation_error_message_names_parameter() {
        let err = CopyParams::new(0.7, 50, 0.8).unwrap_err();
        assert!(err.to_string().contains("alpha"));
    }
}
