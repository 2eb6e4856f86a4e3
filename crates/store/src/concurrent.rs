//! Concurrent use of the claim store: a cloneable shared handle so ingest,
//! snapshotting and segment maintenance can run from different threads.
//!
//! The locking story is deliberately simple — one mutex around the store —
//! because the zero-copy snapshot rework makes every critical section short:
//! ingest is O(1) amortized, `snapshot()` is O(delta) and hands out a
//! [`Dataset`] that *aliases* the shared immutable storage. The expensive
//! work (a detection round over a snapshot) happens entirely **outside** the
//! lock, so writers keep streaming into the growing segment while a reader
//! detects against an earlier snapshot, and a background thread can seal and
//! compact in between (sealed segments are immutable and `Arc`-shared, so a
//! snapshot held across a compaction keeps its exact view).
//!
//! ```
//! use copydet_store::SharedClaimStore;
//!
//! let store = SharedClaimStore::new();
//! std::thread::scope(|scope| {
//!     let writer = store.clone();
//!     scope.spawn(move || {
//!         for i in 0..100 {
//!             writer.ingest(&format!("S{}", i % 7), &format!("D{}", i % 13), "x");
//!         }
//!     });
//!     let maintainer = store.clone();
//!     scope.spawn(move || {
//!         maintainer.maintenance_tick(32, 4);
//!     });
//!     let snapshot = store.snapshot(); // O(delta) under the lock
//!     assert!(snapshot.dataset.num_claims() <= 100); // the work on it runs unlocked
//! });
//! ```

use crate::error::StoreIoError;
use crate::snapshot::StoreSnapshot;
use crate::stats::StoreStats;
use crate::store::{ClaimStore, StoreConfig};
use copydet_model::sync::{RankedMutex, RankedMutexGuard};
use copydet_model::Claim;
use copydet_obs::event::field;
use copydet_obs::{emit, slow_op_exceeded, Severity, Span};
use std::path::Path;
use std::sync::Arc;

/// Lock rank of the per-store mutex; see `DESIGN.md` §8. Ranks above this
/// one (the frontend connection registry) may be taken while it is held;
/// the shard registry (rank 10) must already be released.
const CLAIM_STORE_RANK: u32 = 20;

/// A cloneable, thread-safe handle to a [`ClaimStore`].
///
/// Clones share the same underlying store. Each method takes the lock for
/// the duration of one store operation only; anything expensive a caller
/// does with the *result* (detection over a snapshot, index construction)
/// runs unlocked thanks to the snapshot's shared-immutable storage.
#[derive(Debug, Clone)]
pub struct SharedClaimStore {
    // lock-rank: 20 (store.claim_store.shard)
    inner: Arc<RankedMutex<ClaimStore>>,
}

impl Default for SharedClaimStore {
    fn default() -> Self {
        Self::from_store(ClaimStore::default())
    }
}

impl SharedClaimStore {
    /// Creates an empty shared store with manual sealing/compaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty shared store with the given configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        Self::from_store(ClaimStore::with_config(config))
    }

    /// Wraps an existing store (e.g. one pre-loaded single-threaded).
    pub fn from_store(store: ClaimStore) -> Self {
        // lock-rank: 20 (store.claim_store.shard)
        Self {
            inner: Arc::new(RankedMutex::new(CLAIM_STORE_RANK, "store.claim_store.shard", store)),
        }
    }

    /// Opens (creating or recovering) a **durable** shared store in `dir`
    /// with the default configuration; see [`ClaimStore::open`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreIoError> {
        ClaimStore::open(dir).map(Self::from_store)
    }

    /// Opens (creating or recovering) a durable shared store with the given
    /// configuration; see [`ClaimStore::open_with_config`].
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<Self, StoreIoError> {
        ClaimStore::open_with_config(dir, config).map(Self::from_store)
    }

    /// Locks the store for a sequence of operations that must be atomic
    /// (e.g. snapshot + `build_index` against the same epoch; the index
    /// build counts cold, so writers wait for all of it).
    ///
    /// # Panics
    /// Panics if a previous holder panicked while holding the lock, or (in
    /// debug builds) if the acquisition violates the lock-rank order of
    /// `DESIGN.md` §8.
    pub fn lock(&self) -> RankedMutexGuard<'_, ClaimStore> {
        self.inner.lock()
    }

    /// Ingests one claim (see [`ClaimStore::ingest`]).
    pub fn ingest(&self, source: &str, item: &str, value: &str) -> Claim {
        self.lock().ingest(source, item, value)
    }

    /// Takes a consistent snapshot (see [`ClaimStore::snapshot`]). The lock
    /// is held only for the O(delta) patch assembly; the returned snapshot
    /// aliases shared immutable storage and stays valid — and unchanged —
    /// while other threads keep ingesting, sealing or compacting.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.lock().snapshot()
    }

    /// Seals the growing segment (see [`ClaimStore::seal`]).
    pub fn seal(&self) {
        self.lock().seal();
    }

    /// Compacts the sealed segments (see [`ClaimStore::compact`]).
    pub fn compact(&self) {
        self.lock().compact();
    }

    /// One background-maintenance step: seals the growing segment once it
    /// holds at least `seal_at` claims, then compacts once more than
    /// `max_segments` sealed segments exist — and, on a durable store,
    /// fsyncs any write-ahead-log frames still awaiting a flush, so
    /// background sealing doubles as background flushing. Returns `true` if
    /// it did any of the three.
    ///
    /// This is the loop body for a maintenance thread (spawned inside a
    /// [`std::thread::scope`]): writers stream
    /// with a plain manual-mode config while sealing/compaction/fsync cost
    /// is paid off the ingest path. Each tick takes the store lock, so a
    /// maintenance loop should sleep or back off when the tick returns
    /// `false` rather than spin, to avoid contending with writers for
    /// nothing. Snapshots held by readers are unaffected — compaction
    /// builds new segments and never mutates shared ones. A flush failure
    /// is recorded as the store's sticky [`StoreIoError`]; poll
    /// [`io_error`](Self::io_error) to observe it.
    pub fn maintenance_tick(&self, seal_at: usize, max_segments: usize) -> bool {
        let span = Span::start();
        let mut store = self.lock();
        let mut acted = false;
        if store.stats().growing_claims >= seal_at.max(1) {
            store.seal();
            acted = true;
        }
        if store.stats().sealed_segments > max_segments.max(1) {
            store.compact();
            acted = true;
        }
        if store.wal_needs_sync() {
            // The error (if any) is sticky in the store; background
            // maintenance has no channel to report it and does not need one.
            let _ = store.sync();
            acted = true;
        }
        drop(store);
        let nanos = span.elapsed_nanos();
        if acted && slow_op_exceeded(nanos) {
            emit(
                Severity::Warn,
                "store",
                "maintenance.slow_tick",
                vec![field::u64("nanos", nanos)],
            );
        }
        acted
    }

    /// Flushes and fsyncs the write-ahead log (see [`ClaimStore::sync`]).
    pub fn sync(&self) -> Result<(), StoreIoError> {
        self.lock().sync()
    }

    /// The first persistence failure, if any (see
    /// [`ClaimStore::io_error`]).
    pub fn io_error(&self) -> Option<StoreIoError> {
        self.lock().io_error().cloned()
    }

    /// Summary statistics of the store.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats()
    }

    /// Number of distinct live `(source, item)` claims.
    pub fn num_claims(&self) -> usize {
        self.lock().num_claims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_store() {
        let store = SharedClaimStore::new();
        let other = store.clone();
        store.ingest("S0", "D0", "x");
        other.ingest("S1", "D0", "x");
        assert_eq!(store.num_claims(), 2);
        let snap = other.snapshot();
        assert_eq!(snap.dataset.num_sources(), 2);
    }

    #[test]
    fn maintenance_tick_seals_and_compacts() {
        let store = SharedClaimStore::new();
        for i in 0..6 {
            store.ingest(&format!("S{i}"), "D0", "x");
            assert!(store.maintenance_tick(2, 1) || store.stats().growing_claims < 2);
        }
        let stats = store.stats();
        assert!(stats.sealed_segments <= 2, "compaction bounds the segment count");
        assert_eq!(stats.live_claims, 6);
        assert!(!store.maintenance_tick(1000, 1000), "nothing due");
    }

    #[test]
    fn snapshot_survives_concurrent_ingest_and_maintenance() {
        let store = SharedClaimStore::new();
        for i in 0..8 {
            store.ingest(&format!("S{i}"), &format!("D{}", i % 3), &format!("v{i}"));
        }
        let snap = store.snapshot();
        let frozen: Vec<(String, String, String)> = snap
            .dataset
            .claim_refs()
            .map(|c| (c.source.to_owned(), c.item.to_owned(), c.value.to_owned()))
            .collect();
        std::thread::scope(|scope| {
            let writer = store.clone();
            scope.spawn(move || {
                for i in 0..50 {
                    writer.ingest(&format!("W{}", i % 5), &format!("D{}", i % 3), "y");
                }
            });
            let maintainer = store.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    maintainer.maintenance_tick(8, 2);
                }
            });
        });
        let after: Vec<(String, String, String)> = snap
            .dataset
            .claim_refs()
            .map(|c| (c.source.to_owned(), c.item.to_owned(), c.value.to_owned()))
            .collect();
        assert_eq!(frozen, after, "a held snapshot never observes later mutation");
        assert!(store.num_claims() > snap.dataset.num_claims());
    }
}
