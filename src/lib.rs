//! # copydetect
//!
//! A scalable copy-detection library for structured data sources — a
//! from-scratch Rust reproduction of *Scaling up Copy Detection*
//! (Li, Dong, Lyons, Meng, Srivastava; ICDE 2015).
//!
//! Copying between data sources (web stores, feeds, aggregators) spreads
//! false values and corrupts naive truth-finding. Detecting it requires a
//! Bayesian comparison of every pair of sources — prohibitively expensive
//! when done exhaustively. This crate provides the paper's scalable
//! machinery: a score-ordered inverted index over shared values, pruning
//! with per-pair score bounds, incremental detection across the rounds of an
//! iterative truth-finding loop, and coverage-aware sampling, along with the
//! full truth-finding loop itself and the baselines the paper compares
//! against.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`model`] | `copydet-model` | datasets, sources, items, values, claims |
//! | [`bayes`] | `copydet-bayes` | contribution scores, posteriors, thresholds |
//! | [`index`] | `copydet-index` | the score-ordered inverted index |
//! | [`detect`] | `copydet-detect` | the served round, top-k, the PAIRWISE oracle and the vote |
//! | [`nra`] | `copydet-nra` | Fagin's NRA top-k aggregation |
//! | [`synth`] | `copydet-synth` | synthetic workloads with planted copying, and the paper's Table I |
//! | [`store`] | `copydet-store` | segmented live claim store, snapshots, durability |
//! | [`obs`] | `copydet-obs` | metrics registry, round tracing, text exposition |
//! | [`serve`] | `copydet-serve` | sharded serving engine: item-partitioned stores, fan-out rounds, TCP frontend |
//! | [`eval`] | `copydet-eval` | the paper's detectors, entry orderings, ACCUCOPY, LiveDetector, FAGININPUT and the drivers |
//!
//! ## Quick start
//!
//! ```
//! use copydetect::prelude::*;
//!
//! // Claims from three sources about two data items.
//! let mut builder = DatasetBuilder::new();
//! for (source, item, value) in [
//!     ("alice", "capital/NJ", "Trenton"),
//!     ("bob", "capital/NJ", "Trenton"),
//!     ("mallory", "capital/NJ", "Newark"),
//!     ("alice", "capital/AZ", "Phoenix"),
//!     ("bob", "capital/AZ", "Phoenix"),
//!     ("mallory", "capital/AZ", "Tucson"),
//! ] {
//!     builder.add_claim(source, item, value);
//! }
//! let dataset = builder.build();
//!
//! // Run the iterative truth-finding loop with the scalable HYBRID detector.
//! let mut fusion = AccuCopy::new(FusionConfig::default(), HybridDetector::new());
//! let outcome = fusion.run(&dataset).expect("non-empty dataset");
//!
//! let nj = dataset.item_by_name("capital/NJ").unwrap();
//! assert_eq!(
//!     outcome.truth(nj).map(|v| dataset.value_str(v)),
//!     Some("Trenton")
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub use copydet_bayes as bayes;
pub use copydet_detect as detect;
pub use copydet_eval as eval;
pub use copydet_index as index;
pub use copydet_model as model;
pub use copydet_nra as nra;
pub use copydet_obs as obs;
pub use copydet_serve as serve;
pub use copydet_store as store;
pub use copydet_synth as synth;

/// The most commonly used types, re-exported flat for convenient `use
/// copydetect::prelude::*`.
pub mod prelude {
    pub use copydet_bayes::{
        CopyDecision, CopyParams, PairEvidence, ScoringContext, SourceAccuracies,
        ValueProbabilities,
    };
    pub use copydet_detect::{DetectionResult, OwnedRoundInput, RoundInput};
    pub use copydet_eval::{
        accu_fusion, naive_vote, AccuCopy, BoundDetector, CopyDetector, EntryOrdering,
        FusionConfig, FusionOutcome, HybridDetector, IncrementalDetector, IndexDetector,
        LiveDetector, PairwiseDetector, SampledDetector, SamplingStrategy,
    };
    pub use copydet_index::InvertedIndex;
    pub use copydet_model::{
        Dataset, DatasetBuilder, DatasetDelta, ItemId, SourceId, SourcePair, ValueId,
    };
    pub use copydet_serve::{ShardedDetector, ShardedStore};
    pub use copydet_store::{
        ClaimStore, SharedClaimStore, StoreConfig, StoreIoError, StoreSnapshot,
    };
}
