//! # copydet-fusion
//!
//! A compatibility re-export: the accuracy-weighted vote with copy
//! discounting (Section II-A of *Scaling up Copy Detection*) lives in
//! `copydet-detect` as `detect::vote`. This crate only re-exports
//! [`value_probabilities`] and [`VoteConfig`] for the wire-level benchmark,
//! which imports them by this crate's name; every other caller imports them
//! from `copydet-detect`.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub use copydet_detect::{value_probabilities, VoteConfig};
