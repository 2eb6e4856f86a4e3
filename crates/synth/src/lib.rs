//! # copydet-synth
//!
//! Synthetic structured-data workloads with planted copying and exact gold
//! standards.
//!
//! The paper evaluates on four crawled datasets (Book-CS, Book-full,
//! Stock-1day, Stock-2wk) that are not redistributable; what the detection
//! algorithms are sensitive to, however, is only the datasets' *shape*: the
//! number of sources and items, the per-source coverage distribution (many
//! low-coverage book stores vs few high-coverage stock feeds), the conflict
//! fan-out per item, the per-source error rates, and the amount and
//! selectivity of copying. This crate generates datasets with a controlled
//! version of exactly those properties (see DESIGN.md §4 for the
//! substitution argument), plus the ground truth the crawled datasets lack:
//!
//! * the true value of every item,
//! * the planted copying relationships (with direction), and
//! * every source's planted accuracy.
//!
//! [`presets`] mirrors the published statistics of the paper's four datasets
//! (Table V / Section VI-A) at configurable scale factors, and
//! [`motivating_example`] is the paper's worked example (Table I) that the
//! unit tests of the other crates check their numbers against.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod config;
mod generator;
mod gold;
mod motivating;
pub mod presets;
mod zipf;

pub use config::{AccuracyModel, CopyingConfig, CoverageModel, SynthConfig};
pub use generator::generate;
pub use gold::{GoldStandard, PlantedCopy, SyntheticDataset};
pub use motivating::{motivating_example, MotivatingExample};
pub use zipf::ZipfSampler;
