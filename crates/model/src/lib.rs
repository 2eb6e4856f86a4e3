//! # copydet-model
//!
//! The structured-data model shared by every crate in the `copydetect`
//! workspace.
//!
//! The model follows the formulation of *Scaling up Copy Detection*
//! (Li et al., ICDE 2015): a domain of **data items** (e.g. "the capital of
//! New Jersey", "the closing price of AAPL on 2011-07-07"), a set of **data
//! sources** each providing values for a subset of the items, and the
//! resulting table of **claims** (source, item, value). Schema mapping and
//! entity resolution are assumed to have already been performed, so a data
//! item is identified across sources by name.
//!
//! The central type is [`Dataset`], an immutable, densely-indexed snapshot of
//! all claims that supports the access patterns the detection algorithms
//! need:
//!
//! * per-source claim lists (sorted by item) — used by PAIRWISE,
//! * per-item value groups with their provider lists — used to build the
//!   inverted index,
//! * membership queries (`value_of`, `shares_item`) — used by bound
//!   maintenance.
//!
//! Datasets are constructed through [`DatasetBuilder`] (string-based, order
//! insensitive, duplicate tolerant).
//!
//! ```
//! use copydet_model::DatasetBuilder;
//!
//! let mut b = DatasetBuilder::new();
//! b.add_claim("S1", "NJ", "Trenton");
//! b.add_claim("S2", "NJ", "Atlantic City");
//! b.add_claim("S2", "AZ", "Phoenix");
//! let ds = b.build();
//! assert_eq!(ds.num_sources(), 2);
//! assert_eq!(ds.num_items(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod builder;
pub mod codec;
mod dataset;
mod delta;
mod ids;
mod interner;
mod motivating;
mod names;
mod observation;
mod stats;
pub mod sync;

pub use builder::DatasetBuilder;
pub use dataset::{Dataset, ItemValueGroup};
pub use delta::{ClaimChange, DatasetDelta};
pub use ids::{ItemId, SourceId, SourcePair, ValueId};
pub use interner::Interner;
pub use motivating::{motivating_example, MotivatingExample};
pub use names::NameTable;
pub use observation::{Claim, ClaimRef};
pub use stats::DatasetStats;
