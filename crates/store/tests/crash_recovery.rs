//! Crash-injection recovery equivalence.
//!
//! For arbitrary ingest/seal/compact/snapshot interleavings, the store is
//! "killed" at **every physical write boundary** (and torn mid-write at
//! many of them) via an injected `SyncPoint` hook, then recovered from the
//! directory. At every single crash point the recovered `snapshot()` must
//! equal a from-scratch `DatasetBuilder` build over exactly the durable
//! claim prefix — **no phantom claims** (nothing that was not durably
//! logged) **and no lost claims** (everything that was).
//!
//! The durable prefix is computed independently of the store: a claim is
//! durable if and only if its write-ahead-log frame was *fully* written
//! before the crash. The commit ordering (segments → tables → manifest
//! rename → WAL reset, each fsynced) guarantees a claim never leaves the
//! log before a committed segment covers it, so counting full `wal:frame`
//! events is exact at every boundary.
//!
//! `COPYDET_CRASH_CASES` scales the proptest case count for the dedicated
//! release-mode CI stress step.

mod common;

use common::Scratch;
use copydet_index::SharedItemCounts;
use copydet_model::{Dataset, DatasetBuilder};
use copydet_store::{ClaimStore, StoreConfig, SyncPoint, WritePermit};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One observed I/O event: its tag and the bytes it wanted to write.
#[derive(Debug, Clone)]
struct Event {
    tag: String,
    len: usize,
}

/// Hook pass 1: record every event, let everything through.
#[derive(Default)]
struct Recording {
    events: Mutex<Vec<Event>>,
}

impl SyncPoint for Recording {
    fn permit(&self, tag: &str, len: usize) -> WritePermit {
        self.events.lock().unwrap().push(Event { tag: tag.to_owned(), len });
        WritePermit::Full
    }
}

/// Hook pass 2: let events `0..at` through, cut event `at` down to `keep`
/// bytes (the I/O layer enters dead mode at the first cut — later events
/// never reach the hook's decision).
struct KillAt {
    counter: AtomicUsize,
    at: usize,
    keep: usize,
}

impl SyncPoint for KillAt {
    fn permit(&self, _tag: &str, len: usize) -> WritePermit {
        let i = self.counter.fetch_add(1, Ordering::SeqCst);
        if i < self.at {
            WritePermit::Full
        } else if i == self.at {
            WritePermit::Partial(self.keep.min(len))
        } else {
            WritePermit::Die
        }
    }
}

type Op = (u8, u8, u8, u8);

fn claim_strings(op: &Op) -> (String, String, String) {
    (format!("S{}", op.0), format!("D{}", op.1), format!("v{}", op.2))
}

/// Drives the full workload against a durable store opened with `hook`.
fn run_workload(dir: &Path, config: StoreConfig, ops: &[Op], hook: Arc<dyn SyncPoint>) {
    let mut store = ClaimStore::open_with_sync_point(dir, config, hook)
        .expect("a fresh directory always opens");
    for op in ops {
        let (s, d, v) = claim_strings(op);
        store.ingest(&s, &d, &v);
        match op.3 {
            1 => store.seal(),
            2 => {
                store.seal();
                store.compact();
            }
            3 => {
                let _ = store.snapshot();
            }
            _ => {}
        }
    }
    let _ = store.sync();
}

fn builder_dataset(ops: &[Op]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for op in ops {
        let (s, d, v) = claim_strings(op);
        b.add_claim(&s, &d, &v);
    }
    b.build()
}

/// Runs the workload once to enumerate every I/O event, then once per crash
/// point, asserting recovery equals the durable prefix each time.
fn assert_recovery_at_every_boundary(ops: &[Op], config: StoreConfig) -> usize {
    // Pass 1: observe the full event stream.
    let recording = Arc::new(Recording::default());
    let count_dir = Scratch::new("count");
    run_workload(count_dir.path(), config, ops, Arc::clone(&recording) as Arc<dyn SyncPoint>);
    let events = recording.events.lock().unwrap().clone();

    // Pass 2: kill at every boundary. The event stream is deterministic, so
    // the counting run's prefix predicts each killed run's durable state.
    for at in 0..=events.len() {
        // Vary how much of the cut write survives: nothing, half, or all of
        // it (the last models a crash immediately after a complete write).
        let keep = match (at + events.get(at).map_or(0, |e| e.len)) % 3 {
            0 => 0,
            1 => events.get(at).map_or(0, |e| e.len / 2),
            _ => usize::MAX,
        };
        let durable_claims = events
            .iter()
            .enumerate()
            .filter(|(i, e)| e.tag == "wal:frame" && (*i < at || (*i == at && keep >= e.len)))
            .count();

        let crash_dir = Scratch::new("kill");
        run_workload(
            crash_dir.path(),
            config,
            ops,
            Arc::new(KillAt { counter: AtomicUsize::new(0), at, keep }),
        );

        // The "process" died; recover from what reached the disk.
        let mut recovered = ClaimStore::open_with_config(crash_dir.path(), config)
            .unwrap_or_else(|e| panic!("recovery after crash at event {at} failed: {e}"));
        let snapshot = recovered.snapshot();
        let expected = builder_dataset(&ops[..durable_claims]);
        assert_eq!(
            snapshot.dataset,
            expected,
            "crash at event {at} ({:?}, keep {keep}): recovered {} claims, expected the \
             {durable_claims}-claim durable prefix",
            events.get(at).map(|e| e.tag.as_str()).unwrap_or("end"),
            snapshot.dataset.num_claims(),
        );

        // The recovered bookkeeping must be ingest-equivalent, not just the
        // dataset: finish the stream on the recovered store and re-check
        // against the full one-pass build (and the counts over its recovered
        // providers).
        for op in &ops[durable_claims..] {
            let (s, d, v) = claim_strings(op);
            recovered.ingest(&s, &d, &v);
        }
        let final_snapshot = recovered.snapshot();
        assert_eq!(
            final_snapshot.dataset,
            builder_dataset(ops),
            "crash at event {at}: continuing after recovery diverged"
        );
        let cold = SharedItemCounts::build(&final_snapshot.dataset);
        let counts = recovered.shared_item_counts();
        assert_eq!(
            counts.num_sharing_pairs(),
            cold.num_sharing_pairs(),
            "crash at event {at}: counts over the recovered providers diverged"
        );
        for (pair, n) in cold.iter_nonzero() {
            assert_eq!(counts.get(pair), n, "event {at}, pair {pair}");
        }
    }
    events.len()
}

#[test]
fn every_boundary_of_a_fixed_manual_workload() {
    // Ingests with explicit seals, a compaction, a snapshot, and overwrites
    // (S0/D0 written three times) — small enough to enumerate exhaustively.
    let ops: Vec<Op> = vec![
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 1, 1), // seal
        (2, 0, 2, 0),
        (0, 0, 3, 2), // overwrite, then seal + compact
        (3, 2, 0, 3), // snapshot
        (0, 0, 0, 0), // back to the original value
        (2, 2, 4, 1), // seal
        (4, 1, 1, 0),
    ];
    let boundaries = assert_recovery_at_every_boundary(&ops, StoreConfig::default());
    assert!(boundaries > 40, "expected a rich event stream, got {boundaries}");
}

#[test]
fn every_boundary_with_auto_seal_and_per_append_fsync() {
    let ops: Vec<Op> =
        vec![(0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1, 0), (0, 2, 2, 0), (3, 1, 0, 0), (1, 0, 2, 0)];
    let config = StoreConfig {
        seal_threshold: Some(3),
        max_sealed_segments: Some(1),
        wal_fsync_per_append: true,
    };
    assert_recovery_at_every_boundary(&ops, config);
}

fn cases() -> u32 {
    std::env::var("COPYDET_CRASH_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(8)
}

fn workload_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0u8..8, 0u8..4, 0u8..=3), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary interleavings, killed at every write boundary: recovery
    /// reproduces exactly the durable prefix.
    #[test]
    fn arbitrary_interleavings_survive_every_crash_point(ops in workload_strategy()) {
        assert_recovery_at_every_boundary(&ops, StoreConfig::default());
    }

    /// The same under auto-sealing/compaction, where commits fire from
    /// inside ingest.
    #[test]
    fn auto_sealing_interleavings_survive_every_crash_point(ops in workload_strategy()) {
        let config = StoreConfig {
            seal_threshold: Some(4),
            max_sealed_segments: Some(2),
            ..StoreConfig::default()
        };
        assert_recovery_at_every_boundary(&ops, config);
    }
}
