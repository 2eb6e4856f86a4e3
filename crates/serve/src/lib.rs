//! # copydet-serve
//!
//! The sharded serving engine of the copydetect stack: the layer that takes
//! the single-process claim store of `copydet-store` past one mutex and one
//! inverted index, toward the paper's stated goal — copy detection that
//! keeps up with web-scale corpora ("Scaling up Copy Detection", Li et al.,
//! ICDE 2015) — using the standard partition/merge recipe of scaled clone
//! and similarity detectors (SourcererCC and friends): partition the
//! corpus, run per-partition indexes, merge candidate evidence.
//!
//! * **[`ShardedStore`]** — hash-partitions **data items** across N
//!   [`SharedClaimStore`](copydet_store::SharedClaimStore) shards (stable
//!   FNV-1a on the item name, pinned in the durable layout). Every claim
//!   about one item lands on one shard, so shards are item-disjoint; each
//!   has its own mutex, WAL, segments and directory, and recovery is
//!   per-shard. A global source registry reconciles the source ids — the
//!   only global id space; items and values keep shard-local ids.
//!   [`ShardedStore::ingest_batch`] splits a claim batch by item partition
//!   and applies each shard's slice under a single shard-lock acquisition,
//!   so concurrent writers amortize lock traffic instead of convoying.
//! * **[`ShardedDetector`]** — fans a detection round out across shards in
//!   a `std::thread::scope` (snapshot + row scan per shard, which meets
//!   every pair that shares an item in the shard and nothing else) and
//!   merges the per-shard overlap evidence into global pairwise
//!   decisions. Item-disjointness makes the merge *exact*: results are
//!   **bit-identical** to the PAIRWISE baseline on a single store fed the
//!   same stream (property-tested in `tests/shard_equivalence.rs`). A top-k
//!   query is the same round with each shard's scan filtered to the queried
//!   source's pairs.
//! * **[`frontend`]** — a std-only `TcpListener` request loop speaking a
//!   checksummed length-prefixed protocol built on
//!   [`copydet_model::codec`]: INGEST batch / STATS / DETECT round /
//!   DETECT_TOPK top-k query / SHUTDOWN / METRICS exposition /
//!   TRACE (recent round traces) / HEALTH (process health verdict) /
//!   EVENTS (flight-recorder tail), plus the matching blocking
//!   [`Client`](frontend::Client).
//!
//! ```
//! use copydet_serve::{ShardedDetector, ShardedStore};
//!
//! let store = ShardedStore::new(4);
//! store.ingest_batch([
//!     ("alice", "NJ", "Trenton"),
//!     ("bob", "NJ", "Trenton"),
//!     ("carol", "NJ", "Newark"),
//!     ("alice", "AZ", "Phoenix"),
//!     ("bob", "AZ", "Phoenix"),
//! ]);
//! let detector = ShardedDetector::new();
//! let result = detector.detect_round(&store).expect("capture is consistent");
//! assert_eq!(result.algorithm, "SHARDED");
//! ```
//!
//! See `DESIGN.md` §7 for the partitioning invariant, the merge-correctness
//! argument and the wire-protocol frame layout.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]
// Clippy's side of copydet-audit's no-panic and lossy-cast scope, which
// takes in this whole crate.
#![warn(clippy::cast_possible_truncation, clippy::indexing_slicing)]

mod detector;
pub mod frontend;
mod registry_log;
mod shard;

pub use detector::ShardedDetector;
pub use shard::{fnv1a64, partition_of, ShardMaps, ShardedStore};

// Re-exported so serve users can name the store/detect/obs types without
// direct dependencies.
pub use copydet_detect::{DetectionResult, TopKResult};
pub use copydet_obs::{
    Event, FieldValue, HealthReason, HealthReasonCode, HealthVerdict, RoundTrace, Severity,
    TraceStage,
};
pub use copydet_store::{StoreConfig, StoreIoError, StoreStats};
