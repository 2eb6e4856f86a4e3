//! # copydet-eval
//!
//! The paper's side of the workspace: the detectors and the truth-finding
//! loop of *Scaling up Copy Detection* (Li et al., ICDE 2015), the
//! baselines it compares them with, and one driver per table/figure of its
//! evaluation (Section VI). None of it is linked by the server, which runs
//! only the exact cross-shard round of `copydet-detect`.
//!
//! ## Detectors
//!
//! Every detector implements [`CopyDetector`], the interface the iterative
//! loop drives, and reports the same [`copydet_detect::ComputationCounter`]
//! accounting so the paper's Figure 2 can be regenerated.
//!
//! | Name | Paper section | Type |
//! |------|---------------|------|
//! | [`PairwiseDetector`] (PAIRWISE) | II-B | baseline: every pair, every shared item |
//! | [`IndexDetector`] (INDEX) | III | inverted-index scan, skips pairs that share nothing (or only `Ē` values) |
//! | [`BoundDetector`] (BOUND / BOUND+) | IV-A / IV-B | early termination with per-pair score bounds, optionally with lazy bound recomputation |
//! | [`HybridDetector`] (HYBRID) | IV (end) | INDEX for pairs sharing few items, BOUND+ for the rest |
//! | [`IncrementalDetector`] (INCREMENTAL) | V | refines the previous round's decisions instead of recomputing |
//! | [`SampledDetector`] + [`SamplingStrategy`] (SAMPLE1 / SAMPLE2 / SCALESAMPLE) | VI-A / VI-E | any of the above over a sampled subset of data items |
//! | [`FaginInputDetector`] (FAGININPUT) | II-B | generates the sorted per-value score lists Fagin's NRA would need ([`FaginInput`]), then aggregates them |
//!
//! [`LiveDetector`] runs INCREMENTAL over a stream of store snapshots, with
//! only the first snapshot detected from scratch.
//!
//! ## Truth finding
//!
//! [`AccuCopy`] is the iterative loop of Section II-A: copy detection →
//! value probabilities (`copydet_detect::value_probabilities`) → source
//! accuracies ([`accuracy_from_probabilities`]), repeated until the
//! accuracies stabilize. [`naive_vote`] (VOTE) and [`accu_fusion`] (ACCU,
//! the loop without copy detection) are the fusion-quality baselines.
//!
//! ## Harness
//!
//! * [`Method`] — the named configurations the paper compares (PAIRWISE,
//!   SAMPLE1, SAMPLE2, INDEX, BOUND, BOUND+, HYBRID, INCREMENTAL,
//!   SCALESAMPLE, FAGININPUT), each of which can build a fresh
//!   [`CopyDetector`];
//! * [`metrics`] — copy-detection precision/recall/F-measure against a
//!   reference method (the paper compares against PAIRWISE), fusion
//!   accuracy against a gold standard, fusion difference, and accuracy
//!   variance;
//! * [`experiments`] — one function per table/figure that assembles
//!   workloads from `copydet-synth` presets, runs the relevant methods, and
//!   renders a [`TextTable`] in the same shape as the paper's table.
//!
//! The experiment drivers are also exposed as binaries (`exp_table6_quality`
//! etc., see `src/bin/`) so every reproduced table can be regenerated from
//! the command line.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod accu;
mod accucopy;
mod api;
mod config;
mod error;
pub mod experiments;
mod fagin;
mod incremental;
mod live;
mod methods;
pub mod metrics;
mod ordering;
mod pairwise;
mod round;
mod runner;
mod sampling;
mod scan;
mod table;
mod vote;

pub use accu::accuracy_from_probabilities;
pub use accucopy::{accu_fusion, AccuCopy, FusionConfig, FusionOutcome};
pub use api::CopyDetector;
pub use config::ExperimentConfig;
pub use error::FusionError;
pub use fagin::{FaginInput, FaginInputDetector};
pub use incremental::{IncrementalConfig, IncrementalDetector, IncrementalRoundStats};
pub use live::{LiveConfig, LiveDetector};
pub use methods::Method;
pub use ordering::EntryOrdering;
pub use pairwise::PairwiseDetector;
pub use round::{FusionRoundStats, RoundTimings};
pub use runner::{run_fusion, run_single_round, FusionRun};
pub use sampling::{sample_items, SampledDetector, SamplingStrategy};
pub use scan::{
    bound_detection, hybrid_detection, index_detection, BoundDetector, HybridDetector,
    IndexDetector, IndexScanConfig, PairModeRule, ScanOutput,
};
pub use table::TextTable;
pub use vote::{naive_vote, VoteResult};
