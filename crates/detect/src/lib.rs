//! # copydet-detect
//!
//! The served round, top-k and the PAIRWISE oracle of *Scaling up Copy
//! Detection* (Li et al., ICDE 2015).
//!
//! * [`pairwise_detection`] (PAIRWISE, Section II-B) — every pair, every
//!   shared item: the exact baseline every other detector and the served
//!   round are checked against;
//! * the cross-shard round `copydet-serve` runs — per-shard row scans over
//!   one provider list per item at the round's one accuracy (the
//!   bootstrap's 0.8 for every source), scoring each value group once
//!   ([`collect_shard_partials_for`]), and the merge that adds their exact
//!   partials into global decisions ([`merge_shard_partials`]),
//!   bit-identical to PAIRWISE at that accuracy;
//! * the top-k ranking of a filtered round ([`topk`]).
//!
//! Every detector reports a [`DetectionResult`] with
//! [`ComputationCounter`] statistics under one consistent accounting. The
//! paper's scalable detectors — INDEX, BOUND(+), HYBRID, INCREMENTAL and
//! the sampling wrappers — and the `CopyDetector` trait the iterative loop
//! drives them through live in `copydet-eval`.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

mod api;
mod counters;
mod error;
mod pairwise;
mod result;
mod sharded;
pub mod topk;

pub use api::{OwnedRoundInput, RoundInput};
pub use counters::ComputationCounter;
pub use error::DetectError;
pub use pairwise::pairwise_detection;
pub use result::{DetectionResult, PairOutcome};
pub use sharded::{
    collect_shard_evidence, collect_shard_partials_for, merge_shard_partials,
    merge_shard_rounds_parallel, MergeTimings, ShardIdMap, ShardPartials, ShardRoundEvidence,
    SharedItemObservation,
};
pub use topk::TopKResult;
