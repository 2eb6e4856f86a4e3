//! # copydet-detect
//!
//! The copy-detection algorithms of *Scaling up Copy Detection*
//! (Li et al., ICDE 2015) and every baseline the paper evaluates against.
//!
//! ## Algorithms
//!
//! | Name | Paper section | Type |
//! |------|---------------|------|
//! | [`PairwiseDetector`] (PAIRWISE) | II-B | baseline: every pair, every shared item |
//! | [`IndexDetector`] (INDEX) | III | inverted-index scan, skips pairs that share nothing (or only `Ē` values) |
//! | [`BoundDetector`] (BOUND / BOUND+) | IV-A / IV-B | early termination with per-pair score bounds, optionally with lazy bound recomputation |
//! | [`HybridDetector`] (HYBRID) | IV (end) | INDEX for pairs sharing few items, BOUND+ for the rest |
//! | [`IncrementalDetector`] (INCREMENTAL) | V | refines the previous round's decisions instead of recomputing |
//! | [`SampledDetector`] + [`SamplingStrategy`] (SAMPLE1 / SAMPLE2 / SCALESAMPLE) | VI-A / VI-E | any of the above over a sampled subset of data items |
//!
//! All single-round algorithms implement the [`CopyDetector`] trait so the
//! iterative truth-finding loop in `copydet-fusion` can drive any of them,
//! and all of them report [`ComputationCounter`] statistics using one
//! consistent accounting so the paper's Figure 2 can be regenerated.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod api;
mod counters;
mod error;
mod incremental;
mod pairwise;
mod result;
mod sampling;
mod scan;
mod sharded;
pub mod topk;

pub use api::{CopyDetector, OwnedRoundInput, RoundInput};
pub use counters::ComputationCounter;
pub use error::DetectError;
pub use incremental::{IncrementalConfig, IncrementalDetector, IncrementalRoundStats};
pub use pairwise::{pairwise_detection, PairwiseDetector};
pub use result::{DetectionResult, PairOutcome};
pub use sampling::{sample_items, SampledDetector, SamplingStrategy};
pub use scan::{
    bound_detection, hybrid_detection, index_detection, IndexScanConfig, PairModeRule, ScanOutput,
};
pub use scan::{BoundDetector, HybridDetector, IndexDetector};
pub use sharded::{
    collect_shard_evidence, collect_shard_partials_for, merge_shard_partials,
    merge_shard_rounds_parallel, MergeTimings, ShardIdMap, ShardPartials, ShardRoundEvidence,
    SharedItemObservation,
};
pub use topk::TopKResult;
