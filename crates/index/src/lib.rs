//! # copydet-index
//!
//! The score-ordered inverted index of *Scaling up Copy Detection*
//! (Li et al., ICDE 2015), Section III.
//!
//! The index has one entry per `(data item, value)` combination that is
//! provided by **at least two** sources. Every entry carries
//!
//! * the probability `P(D.v)` of the value being true,
//! * the contribution score `C(E) = M̂(D.v)` — the *maximum* contribution
//!   sharing this value can make to the copying likelihood of any pair of
//!   its providers (Proposition 3.1), and
//! * the list of providers.
//!
//! Entries are stored in decreasing score order, so that
//!
//! * strong evidence is encountered first, enabling the early-termination
//!   algorithms of Section IV,
//! * the score of the next unscanned entry upper-bounds the contribution of
//!   every item not yet seen for a pair (Proposition 3.4), and
//! * the low-score suffix `Ē` whose total score cannot push any pair over
//!   the no-copying threshold can be treated specially: pairs that share
//!   values only inside `Ē` are never materialized.
//!
//! The index also carries the number of *items* (not values) shared by every
//! pair of sources that shares at least one item — `l(S1, S2)` in the paper —
//! computed at build time by a set-similarity-join style counting pass
//! ([`SharedItemCounts`]).

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod builder;
mod ebar;
mod entry;
mod shared_items;
mod stats;

pub use builder::InvertedIndex;
pub use entry::IndexEntry;
pub use shared_items::SharedItemCounts;
pub use stats::IndexStats;
