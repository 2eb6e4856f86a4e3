//! # copydet-fusion
//!
//! Truth finding (data fusion) with source-accuracy weighting and copy
//! discounting — the iterative process copy detection lives inside
//! (Section II-A of *Scaling up Copy Detection*, following Dong et
//! al. VLDB'09).
//!
//! The loop alternates three computations until the source accuracies
//! stabilize:
//!
//! 1. **copy detection** between every pair of sources, using the current
//!    accuracy and value-probability estimates (any
//!    [`copydet_detect::CopyDetector`] can be plugged in — that is the whole
//!    point of the paper: the faster the detector, the cheaper the loop);
//! 2. **value probability** computation: every source votes for the values
//!    it provides with weight `ln(n·A(S)/(1−A(S)))`, discounted by the
//!    probability that the vote was merely copied from an earlier-counted
//!    provider;
//! 3. **source accuracy** computation: `A(S)` is the mean probability of the
//!    values `S` provides.
//!
//! The crate also provides the non-iterative baselines used to measure
//! fusion quality: naive majority voting ([`naive_vote`]) and
//! accuracy-weighted fusion without copy detection ([`accu_fusion`]).

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod accu;
mod accucopy;
mod error;
mod round;
mod vote;

pub use accu::{accuracy_from_probabilities, value_probabilities, VoteConfig};
pub use accucopy::{accu_fusion, AccuCopy, FusionConfig, FusionOutcome};
pub use error::FusionError;
pub use round::{FusionRoundStats, RoundTimings};
pub use vote::{naive_vote, VoteResult};
