//! # copydet-bayes
//!
//! The Bayesian scoring machinery of *Scaling up Copy Detection*
//! (Li et al., ICDE 2015), Section II.
//!
//! Copy detection between two sources `S1` and `S2` is a Bayesian decision
//! over the observation `Φ` of their data. Under the model of Dong et
//! al. (VLDB'09), every data item contributes a log-likelihood-ratio score to
//! the hypotheses "`S1` copies from `S2`" (`C→`) and "`S2` copies from `S1`"
//! (`C←`):
//!
//! * items on which the two sources provide the **same value** contribute a
//!   positive score that grows as the shared value becomes less likely to be
//!   true (Eq. 6),
//! * items on which they provide **different values** contribute the constant
//!   negative score `ln(1 − s)` (Eq. 8).
//!
//! The accumulated scores are turned into the posterior probability of
//! independence by Eq. 2, and binary decisions can be made by comparing the
//! scores against the thresholds `θcp = ln(β/α)` and `θind = ln(β/2α)`
//! (Section IV-A).
//!
//! This crate provides:
//!
//! * [`CopyParams`] — the priors `α`, `n`, `s` and the derived thresholds,
//! * [`SourceAccuracies`] and [`ValueProbabilities`] — the per-source and
//!   per-value state that the iterative fusion loop updates between rounds,
//! * [`contribution`] — the per-item scores of Eq. 3–8,
//! * [`max_contribution`] — `M̂(D.v)` of Proposition 3.1, the score attached
//!   to every inverted-index entry,
//! * [`PairEvidence`] / [`pairwise_scores`] — full per-pair evidence
//!   accumulation (the inner loop of the PAIRWISE baseline), as exact
//!   fixed-point sums that do not depend on the order items are added in;
//!   [`SameValueScore`] is one shared value's score, rounded once and
//!   reusable for every pair with the same accuracies,
//! * [`posterior_independence`] and [`CopyDecision`] — Eq. 2 and the decision
//!   rule.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod accuracy;
pub mod contribution;
mod error;
mod fixed;
pub mod max_contribution;
mod pair;
mod params;
mod truth;

pub use accuracy::SourceAccuracies;
pub use error::BayesError;
pub use pair::{
    pairwise_scores, posterior_independence, CopyDecision, PairEvidence, SameValueScore,
    ScoringContext,
};
pub use params::{CopyParams, DecisionPolicy, DecisionThresholds};
pub use truth::ValueProbabilities;
