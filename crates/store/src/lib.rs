//! # copydet-store
//!
//! A segmented live claim store with incremental index maintenance — the
//! subsystem that turns the batch reproduction of *Scaling up Copy
//! Detection* (Li et al., ICDE 2015) into an online engine for continuously
//! arriving claims.
//!
//! The paper's machinery assumes an immutable [`Dataset`] snapshot: the
//! inverted index is built once per round and the detectors scan it from
//! scratch. Production sources do not hold still — feeds update prices,
//! aggregators add listings, new sources appear. This crate closes the gap
//! with a design borrowed from search-engine segment stores:
//!
//! * **[`ClaimStore`]** — append-oriented ingest with last-claim-wins
//!   semantics. Writes land in an in-memory **growing segment**
//!   ([`GrowingSegment`]); [`seal`](ClaimStore::seal) freezes it into an
//!   immutable, densely-sorted **sealed segment** ([`SealedSegment`]);
//!   [`compact`](ClaimStore::compact) coalesces sealed segments newest-wins.
//! * **[`snapshot`](ClaimStore::snapshot)** — assembles a [`Dataset`]
//!   *identical* to one `DatasetBuilder` pass over the same claim sequence
//!   (ids in first-seen ingest order), so every existing detector, index
//!   builder and fusion loop runs on it unchanged. A snapshot is its epoch
//!   and its dataset; the change between two snapshots is
//!   [`DatasetDelta::between`] of their datasets. Snapshots are **zero-copy
//!   in the corpus**: name tables and interner are shared `Arc` handles and
//!   consecutive snapshots alias every untouched claim list and value group,
//!   so snapshot cost is O(delta).
//! * **[`SharedClaimStore`]** — a cloneable thread-safe handle: writers
//!   stream claims, a background thread seals/compacts, and a reader
//!   snapshots + detects concurrently (the detection round runs entirely
//!   outside the store lock).
//! * **Durability** — [`ClaimStore::open`] makes the store survive
//!   restarts: every ingest is written ahead to a checksummed log before it
//!   is applied, sealing/compaction commit segment + name-table files via
//!   write-new-then-atomic-rename (fsync'd), and reopening the directory
//!   recovers a store whose `snapshot()` is identical to the pre-crash one.
//!   Torn log tails are dropped cleanly; damaged committed files surface as
//!   a typed [`StoreIoError`] (corruption vs truncation vs version
//!   mismatch), never a panic. See `DESIGN.md` §6 for the on-disk format.
//! * **Incremental index maintenance** — the store maintains the pairwise
//!   shared-item counts `l(S1, S2)` at ingest time, so the served round
//!   cross-checks its scans against them and
//!   [`build_index`](ClaimStore::build_index) skips the counting pass of a
//!   cold build; the diff of two snapshots drives
//!   [`InvertedIndex::apply_claim_delta`](copydet_index::InvertedIndex::apply_claim_delta)
//!   and the delta path of `copydet-eval`'s `IncrementalDetector` and
//!   `LiveDetector`, which re-decide only the pairs the new claims can have
//!   affected.
//!
//! See `DESIGN.md` §5 for the segment lifecycle and the delta-propagation
//! invariants.
//!
//! ```
//! use copydet_store::{ClaimStore, DatasetDelta};
//!
//! let mut store = ClaimStore::new();
//! for (s, d, v) in [
//!     ("alice", "NJ", "Trenton"),
//!     ("bob", "NJ", "Trenton"),
//!     ("carol", "NJ", "Newark"),
//! ] {
//!     store.ingest(s, d, v);
//! }
//! let first = store.snapshot();
//! assert_eq!(first.dataset.num_claims(), 3);
//!
//! // New claims arrive; diffing the two snapshots yields exactly the change.
//! store.ingest("dave", "NJ", "Trenton");
//! let second = store.snapshot();
//! assert_eq!(second.dataset.num_claims(), 4);
//! assert_eq!(DatasetDelta::between(&first.dataset, &second.dataset).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod concurrent;
#[warn(clippy::cast_possible_truncation, clippy::indexing_slicing)]
mod durable;
mod error;
#[warn(clippy::cast_possible_truncation, clippy::indexing_slicing)]
mod format;
mod ioutil;
mod segment;
mod snapshot;
mod stats;
mod store;
#[warn(clippy::cast_possible_truncation, clippy::indexing_slicing)]
mod wal;

pub use concurrent::SharedClaimStore;
pub use error::StoreIoError;
pub use ioutil::{read_bounded, read_bounded_text};
pub use segment::{GrowingSegment, SealedSegment};
pub use snapshot::StoreSnapshot;
pub use stats::StoreStats;
pub use store::{ClaimStore, StoreConfig};
pub use wal::{SyncPoint, WritePermit};

// Re-exported so store users can name the dataset/delta types without a
// direct copydet-model dependency.
pub use copydet_model::{Dataset, DatasetDelta};
