//! # copydet-fusion
//!
//! The vote every detection round is scored against: accuracy-weighted
//! value probabilities with copy discounting (Section II-A of *Scaling up
//! Copy Detection*, following Dong et al. VLDB'09).
//!
//! [`value_probabilities`] computes `P(D.v)` for every provided value: every
//! source votes for the values it provides with weight
//! `ln(n·A(S)/(1−A(S)))`, discounted by the probability that the vote was
//! merely copied from an earlier-counted provider. The served round calls it
//! once per shard with no copy result (the bootstrap vote); the iterative
//! truth-finding loop that alternates it with copy detection and accuracy
//! recomputation (ACCUCOPY), and the VOTE and ACCU baselines, live in
//! `copydet-eval`.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

mod accu;

pub use accu::{value_probabilities, VoteConfig};
