//! # copydet-eval
//!
//! The evaluation harness: quality metrics, timing comparisons, paper-style
//! table rendering, and one driver per table/figure of the paper's
//! evaluation (Section VI).
//!
//! The harness is organized around three pieces:
//!
//! * [`Method`] — the named configurations the paper compares (PAIRWISE,
//!   SAMPLE1, SAMPLE2, INDEX, BOUND, BOUND+, HYBRID, INCREMENTAL,
//!   SCALESAMPLE, FAGININPUT), each of which can build a fresh
//!   [`copydet_detect::CopyDetector`];
//! * [`metrics`] — copy-detection precision/recall/F-measure against a
//!   reference method (the paper compares against PAIRWISE), fusion
//!   accuracy against a gold standard, fusion difference, and accuracy
//!   variance;
//! * [`FaginInputDetector`] (FAGININPUT, Section II-B) — the Table X
//!   baseline: generates the sorted per-value score lists Fagin's NRA
//!   would need ([`FaginInput`]), then aggregates them. It lives here, with
//!   its one caller, so the serving crates do not link `copydet-nra`;
//! * [`experiments`] — one function per table/figure that assembles
//!   workloads from `copydet-synth` presets, runs the relevant methods, and
//!   renders a [`TextTable`] in the same shape as the paper's table.
//!
//! The experiment drivers are also exposed as binaries (`exp_table6_quality`
//! etc., see `src/bin/`) so every number in EXPERIMENTS.md can be
//! regenerated from the command line.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod config;
pub mod experiments;
mod fagin;
mod methods;
pub mod metrics;
mod runner;
mod table;

pub use config::ExperimentConfig;
pub use fagin::{FaginInput, FaginInputDetector};
pub use methods::Method;
pub use runner::{run_fusion, run_single_round, FusionRun};
pub use table::TextTable;
