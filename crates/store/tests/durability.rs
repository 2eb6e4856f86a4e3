//! Durability of the claim store: persistence round-trips (open → ingest →
//! reopen recovers the identical dataset, verified against the same
//! `DatasetBuilder` equivalence machinery as the in-memory store) and
//! corruption resilience (a damaged committed file surfaces as the right
//! typed `StoreIoError`, a torn write-ahead-log tail is dropped cleanly —
//! never a panic, never silent bad data).

mod common;

use common::Scratch;
use copydet_index::SharedItemCounts;
use copydet_model::{Dataset, DatasetBuilder};
use copydet_store::{
    ClaimStore, SharedClaimStore, StoreConfig, StoreIoError, SyncPoint, WritePermit,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const CLAIMS: &[(&str, &str, &str)] = &[
    ("S0", "NJ", "Trenton"),
    ("S1", "NJ", "Trenton"),
    ("S2", "NJ", "Newark"),
    ("S0", "AZ", "Phoenix"),
    ("S1", "AZ", "Tempe"),
    ("S2", "AZ", "Phoenix"),
    ("S0", "NJ", "Newark"), // overwrite
    ("S3", "CA", "Sacramento"),
];

fn builder_dataset(claims: &[(&str, &str, &str)]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for (s, d, v) in claims {
        b.add_claim(s, d, v);
    }
    b.build()
}

/// The single file in the directory with the given extension.
fn file_with_ext(dir: &Path, ext: &str) -> PathBuf {
    let mut matches: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    assert_eq!(matches.len(), 1, "expected exactly one .{ext} file");
    matches.pop().unwrap()
}

fn flip_byte(path: &Path, offset_from_end: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let idx = bytes.len() - 1 - offset_from_end;
    bytes[idx] ^= 0x20;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn reopen_recovers_the_identical_dataset() {
    let scratch = Scratch::new("roundtrip");
    {
        let mut store = ClaimStore::open(scratch.path()).unwrap();
        assert!(store.is_durable());
        assert_eq!(store.dir(), Some(scratch.path()));
        for (i, (s, d, v)) in CLAIMS.iter().enumerate() {
            store.ingest(s, d, v);
            if i == 2 {
                store.seal();
            }
            if i == 4 {
                store.seal();
                store.compact();
            }
        }
        store.sync().unwrap();
        assert!(store.stats().durable);
        assert_eq!(store.stats().wal_frames, 3, "claims since the last seal");
    } // dropped without any clean-shutdown step — recovery needs none

    let mut recovered = ClaimStore::recover(scratch.path()).unwrap();
    let snap = recovered.snapshot();
    assert_eq!(snap.dataset, builder_dataset(CLAIMS));
    assert_eq!(recovered.num_claims(), 7);
    assert_eq!(recovered.stats().sealed_segments, 1, "compacted state was recovered as-is");

    // The recovered bookkeeping (providers) must be the ingest-time one:
    // continue ingesting and compare the counts over the recovered providers
    // against a cold build over the snapshot.
    recovered.ingest("S3", "NJ", "Trenton");
    recovered.ingest("S4", "AZ", "Phoenix");
    let snap = recovered.snapshot();
    let mut all: Vec<(&str, &str, &str)> = CLAIMS.to_vec();
    all.extend([("S3", "NJ", "Trenton"), ("S4", "AZ", "Phoenix")]);
    assert_eq!(snap.dataset, builder_dataset(&all));
    let cold = SharedItemCounts::build(&snap.dataset);
    let counts = recovered.shared_item_counts();
    assert_eq!(counts.num_sharing_pairs(), cold.num_sharing_pairs());
    for (pair, n) in cold.iter_nonzero() {
        assert_eq!(counts.get(pair), n, "pair {pair}");
    }
}

#[test]
fn wal_only_and_segments_only_recovery() {
    // Everything in the WAL (no seal ever happened).
    let scratch = Scratch::new("walonly");
    {
        let mut store = ClaimStore::open(scratch.path()).unwrap();
        for (s, d, v) in CLAIMS {
            store.ingest(s, d, v);
        }
    }
    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    assert_eq!(recovered.snapshot().dataset, builder_dataset(CLAIMS));
    assert_eq!(recovered.stats().sealed_segments, 0);

    // Everything in committed segments (WAL empty after the final seal).
    let scratch = Scratch::new("segonly");
    {
        let mut store = ClaimStore::open(scratch.path()).unwrap();
        for (s, d, v) in CLAIMS {
            store.ingest(s, d, v);
        }
        store.seal();
        assert_eq!(store.stats().wal_frames, 0, "seal resets the log");
    }
    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    assert_eq!(recovered.snapshot().dataset, builder_dataset(CLAIMS));
    assert_eq!(recovered.stats().sealed_segments, 1);
}

#[test]
fn bare_interning_is_durable() {
    let scratch = Scratch::new("defs");
    {
        let mut store = ClaimStore::open(scratch.path()).unwrap();
        store.source("lonely-source");
        store.item("lonely-item");
        store.value("lonely-value");
        store.ingest("S0", "D0", "x");
    }
    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    let mut b = DatasetBuilder::new();
    b.source("lonely-source");
    b.item("lonely-item");
    b.value("lonely-value");
    b.add_claim("S0", "D0", "x");
    assert_eq!(recovered.snapshot().dataset, b.build());
    assert_eq!(recovered.num_values(), 2);
}

#[test]
fn recover_requires_existing_state() {
    let scratch = Scratch::new("strict");
    let err = ClaimStore::recover(scratch.path()).unwrap_err();
    assert!(matches!(err, StoreIoError::Io { .. }), "unexpected {err:?}");
    assert!(err.to_string().contains("no durable store state"));

    // open() creates; recover() then succeeds.
    drop(ClaimStore::open(scratch.path()).unwrap());
    assert!(ClaimStore::recover(scratch.path()).is_ok());
}

#[test]
fn truncated_wal_tail_is_dropped_cleanly() {
    let scratch = Scratch::new("torntail");
    {
        let mut store = ClaimStore::open(scratch.path()).unwrap();
        for (s, d, v) in CLAIMS {
            store.ingest(s, d, v);
        }
    }
    let wal = scratch.path().join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

    // The torn final frame (the last ingest) is dropped; everything before
    // it survives, and the log is usable again after recovery.
    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    assert_eq!(
        recovered.snapshot().dataset,
        builder_dataset(&CLAIMS[..CLAIMS.len() - 1]),
        "recovery keeps exactly the durable prefix"
    );
    recovered.ingest("S9", "NJ", "Trenton");
    drop(recovered);
    let mut reopened = ClaimStore::open(scratch.path()).unwrap();
    let mut expected: Vec<(&str, &str, &str)> = CLAIMS[..CLAIMS.len() - 1].to_vec();
    expected.push(("S9", "NJ", "Trenton"));
    assert_eq!(reopened.snapshot().dataset, builder_dataset(&expected));
}

/// Prepares a directory with both committed files and WAL frames.
fn populated_store(label: &str) -> Scratch {
    let scratch = Scratch::new(label);
    let mut store = ClaimStore::open(scratch.path()).unwrap();
    for (s, d, v) in &CLAIMS[..5] {
        store.ingest(s, d, v);
    }
    store.seal();
    for (s, d, v) in &CLAIMS[5..] {
        store.ingest(s, d, v);
    }
    drop(store);
    scratch
}

#[test]
fn bit_flipped_segment_body_is_corrupt_not_a_panic() {
    let scratch = populated_store("segflip");
    let seg = file_with_ext(scratch.path(), "seg");
    flip_byte(&seg, 6); // inside the claim payload / checksum region
    match ClaimStore::open(scratch.path()) {
        Err(StoreIoError::Corrupt { path, detail }) => {
            assert_eq!(path, seg);
            assert!(detail.contains("checksum"), "unexpected detail: {detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn bit_flipped_segment_header_is_corrupt() {
    let scratch = populated_store("hdrflip");
    let seg = file_with_ext(scratch.path(), "seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[0] ^= 0xFF; // magic
    std::fs::write(&seg, bytes).unwrap();
    assert!(matches!(ClaimStore::open(scratch.path()), Err(StoreIoError::Corrupt { .. })));
}

#[test]
fn foreign_version_is_a_version_mismatch() {
    let scratch = populated_store("version");
    let seg = file_with_ext(scratch.path(), "seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&seg, bytes).unwrap();
    match ClaimStore::open(scratch.path()) {
        Err(StoreIoError::VersionMismatch { found, expected, .. }) => {
            assert_eq!(found, 7);
            assert_eq!(expected, 2, "format version 2: delta-table chains");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_segment_file_is_truncated_error() {
    let scratch = populated_store("segtrunc");
    let seg = file_with_ext(scratch.path(), "seg");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(ClaimStore::open(scratch.path()), Err(StoreIoError::Truncated { .. })));
}

#[test]
fn bit_flip_in_a_complete_wal_frame_is_corrupt_not_truncation() {
    let scratch = populated_store("walflip");
    let wal = scratch.path().join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    // Flip inside the *first* frame's payload (offset 8 is the frame header,
    // +6 lands in the record body) while later frames stay intact — this
    // must be corruption, not a silently dropped tail.
    bytes[8 + 6] ^= 0x08;
    std::fs::write(&wal, bytes).unwrap();
    match ClaimStore::open(scratch.path()) {
        Err(StoreIoError::Corrupt { path, .. }) => assert_eq!(path, wal),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn corrupt_manifest_and_tables_are_detected() {
    let scratch = populated_store("manifest");
    let manifest = scratch.path().join("MANIFEST");
    flip_byte(&manifest, 2);
    assert!(matches!(ClaimStore::open(scratch.path()), Err(StoreIoError::Corrupt { .. })));

    let scratch = populated_store("tables");
    let tables = file_with_ext(scratch.path(), "tbl");
    flip_byte(&tables, 5);
    match ClaimStore::open(scratch.path()) {
        Err(StoreIoError::Corrupt { path, .. }) => assert_eq!(path, tables),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn a_second_open_of_a_live_store_is_refused() {
    let scratch = Scratch::new("lock");
    let mut store = ClaimStore::open(scratch.path()).unwrap();
    store.ingest("S0", "D0", "x");
    // A concurrent second open would share the WAL and GC the first
    // store's files — the advisory directory lock refuses it.
    let err = ClaimStore::open(scratch.path()).unwrap_err();
    assert!(matches!(err, StoreIoError::Io { .. }), "unexpected {err:?}");
    assert!(err.to_string().contains("already open"), "unexpected message: {err}");
    // Releasing the store (clean or by process death) frees the lock.
    drop(store);
    let mut reopened = ClaimStore::open(scratch.path()).unwrap();
    assert_eq!(reopened.snapshot().dataset, builder_dataset(&[("S0", "D0", "x")]));
}

#[test]
fn a_missing_manifest_never_costs_committed_segment_files() {
    // A crashed *first* commit legitimately leaves a segment file with no
    // manifest (its claims still live in the WAL) — but so does an
    // operator-deleted manifest, where the segment is the only copy. Open
    // must not garbage-collect data files it has no manifest to judge.
    let scratch = populated_store("nomanifest");
    let seg = file_with_ext(scratch.path(), "seg");
    std::fs::remove_file(scratch.path().join("MANIFEST")).unwrap();
    // Without the manifest the name tables are gone, so the WAL's
    // id-based claims no longer resolve: open surfaces the interference
    // as a typed error instead of silently recovering a subset…
    let err = ClaimStore::open(scratch.path()).unwrap_err();
    assert!(matches!(err, StoreIoError::Corrupt { .. }), "unexpected {err:?}");
    // …and the committed segment file is preserved for repair, not
    // garbage-collected as an "orphan".
    assert!(seg.exists(), "an unreferenced segment survives a manifest-less open");
}

#[test]
#[should_panic(expected = "on-disk string limit")]
fn oversized_strings_are_rejected_loudly_not_poisoning_persistence() {
    let scratch = Scratch::new("hugestr");
    let mut store = ClaimStore::open(scratch.path()).unwrap();
    let huge = "x".repeat((1 << 20) + 1);
    store.ingest("S0", "D0", &huge);
}

#[test]
fn clone_is_an_in_memory_fork() {
    let scratch = Scratch::new("clone");
    let mut store = ClaimStore::open(scratch.path()).unwrap();
    store.ingest("S0", "D0", "x");
    let mut fork = store.clone();
    assert!(!fork.is_durable());
    fork.ingest("S1", "D0", "y");
    fork.seal();
    drop(store);
    drop(fork);
    // Only the original's claim is on disk.
    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    assert_eq!(recovered.snapshot().dataset, builder_dataset(&[("S0", "D0", "x")]));
}

#[test]
fn shared_store_maintenance_doubles_as_flushing() {
    let scratch = Scratch::new("shared");
    let store = SharedClaimStore::open_with_config(scratch.path(), StoreConfig::default()).unwrap();
    store.ingest("S0", "D0", "x");
    store.ingest("S1", "D0", "x");
    assert!(store.maintenance_tick(1000, 1000), "pending WAL frames make the tick act");
    assert!(!store.maintenance_tick(1000, 1000), "flushed: nothing left to do");
    assert!(store.io_error().is_none());
    store.sync().unwrap();
    let stats = store.stats();
    assert!(stats.durable);
    assert_eq!(stats.wal_frames, 2);
    drop(store);
    let recovered = SharedClaimStore::open(scratch.path()).unwrap();
    assert_eq!(recovered.num_claims(), 2);
}

#[test]
fn auto_seal_config_is_durable_and_transparent() {
    let scratch = Scratch::new("autoseal");
    let config = StoreConfig {
        seal_threshold: Some(3),
        max_sealed_segments: Some(2),
        wal_fsync_per_append: true,
    };
    {
        let mut store = ClaimStore::open_with_config(scratch.path(), config).unwrap();
        for (s, d, v) in CLAIMS {
            store.ingest(s, d, v);
        }
        assert!(store.stats().sealed_segments >= 1, "auto-seal fired");
    }
    // Recovery under the same config (auto-sealing a recovered growing
    // segment past the threshold is allowed and committed).
    let mut recovered = ClaimStore::open_with_config(scratch.path(), config).unwrap();
    assert_eq!(recovered.snapshot().dataset, builder_dataset(CLAIMS));
}

/// Counts files with the given extension in a store directory.
fn count_ext(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some(ext))
        .count()
}

#[test]
fn seals_append_delta_tables_and_compaction_collapses_the_chain() {
    let scratch = Scratch::new("deltachain");
    let mut store = ClaimStore::open(scratch.path()).unwrap();
    // Three seals, each interning new names: the chain grows one delta file
    // per seal instead of rewriting the vocabulary (byte sizes prove it:
    // each link carries only its window's names).
    let mut sizes = Vec::new();
    for batch in 0..3 {
        for i in 0..4 {
            store.ingest(&format!("S{batch}-{i}"), &format!("D{batch}-{i}"), "x");
        }
        store.seal();
        assert_eq!(count_ext(scratch.path(), "tbl"), batch + 1, "one delta link per seal");
        let total: u64 = std::fs::read_dir(scratch.path())
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tbl"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        sizes.push(total);
    }
    // Each seal added roughly the same number of bytes — the chain grows
    // linearly in new names, not quadratically as full rewrites would.
    let first = sizes[0];
    let growth1 = sizes[1] - sizes[0];
    let growth2 = sizes[2] - sizes[1];
    assert!(
        growth1 <= first + 16 && growth2 <= first + 16,
        "delta links stay O(new names): {sizes:?}"
    );

    // A seal that interns nothing new appends no link.
    store.ingest("S0-0", "D0-0", "x");
    store.seal();
    assert_eq!(count_ext(scratch.path(), "tbl"), 3, "no new names, no new link");

    // Recovery concatenates the chain.
    drop(store);
    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    let mut b = DatasetBuilder::new();
    for batch in 0..3 {
        for i in 0..4 {
            b.add_claim(&format!("S{batch}-{i}"), &format!("D{batch}-{i}"), "x");
        }
    }
    assert_eq!(recovered.snapshot().dataset, b.build());

    // Compaction collapses the chain into a single full tables file and the
    // dataset still recovers identically.
    recovered.compact();
    assert_eq!(count_ext(scratch.path(), "tbl"), 1, "compaction collapses the chain");
    drop(recovered);
    let mut again = ClaimStore::open(scratch.path()).unwrap();
    let mut b = DatasetBuilder::new();
    for batch in 0..3 {
        for i in 0..4 {
            b.add_claim(&format!("S{batch}-{i}"), &format!("D{batch}-{i}"), "x");
        }
    }
    assert_eq!(again.snapshot().dataset, b.build());
}

/// Hook that records every physical I/O event and lets it through.
#[derive(Default)]
struct Recording {
    events: Mutex<Vec<(String, usize)>>,
}

impl SyncPoint for Recording {
    fn permit(&self, tag: &str, len: usize) -> WritePermit {
        self.events.lock().unwrap().push((tag.to_owned(), len));
        WritePermit::Full
    }
}

#[test]
fn dropping_a_store_flushes_unsynced_wal_frames() {
    let scratch = Scratch::new("dropsync");
    let hook = Arc::new(Recording::default());
    {
        let mut store = ClaimStore::open_with_sync_point(
            scratch.path(),
            StoreConfig::default(),
            Arc::clone(&hook) as Arc<dyn SyncPoint>,
        )
        .unwrap();
        for (s, d, v) in &CLAIMS[..3] {
            store.ingest(s, d, v);
        }
        assert!(store.stats().wal_frames == 3);
        // No explicit sync: the frames are appended but not yet fsynced.
    } // drop must fsync them before the handle disappears
    let events = hook.events.lock().unwrap();
    let last = events.last().expect("events were recorded");
    assert_eq!(last.0, "wal:fsync", "drop ends with the final WAL flush, got {events:?}");
    drop(events);

    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    assert_eq!(recovered.snapshot().dataset, builder_dataset(&CLAIMS[..3]));
}

#[test]
fn dropping_a_shared_store_mid_maintenance_loses_no_acknowledged_frame() {
    let scratch = Scratch::new("droptick");
    let hook = Arc::new(Recording::default());
    let store = ClaimStore::open_with_sync_point(
        scratch.path(),
        StoreConfig::default(),
        Arc::clone(&hook) as Arc<dyn SyncPoint>,
    )
    .unwrap();
    let shared = SharedClaimStore::from_store(store);
    // Writers and a maintenance thread race; the scope ends with frames
    // potentially appended after the last tick's fsync.
    std::thread::scope(|scope| {
        let writer = shared.clone();
        scope.spawn(move || {
            for (s, d, v) in CLAIMS {
                writer.ingest(s, d, v);
            }
        });
        let maintainer = shared.clone();
        scope.spawn(move || {
            for _ in 0..4 {
                maintainer.maintenance_tick(1000, 1000);
                std::thread::yield_now();
            }
        });
    });
    drop(shared); // the last handle: drop must flush whatever the ticks missed
    let mut recovered = ClaimStore::open(scratch.path()).unwrap();
    assert_eq!(
        recovered.snapshot().dataset,
        builder_dataset(CLAIMS),
        "every acknowledged ingest survives an orderly shutdown mid-maintenance"
    );
    // The event stream ends with a WAL fsync (from the drop or the final
    // tick) — never with an unflushed frame append.
    let events = hook.events.lock().unwrap();
    assert_eq!(
        events.iter().rev().find(|(tag, _)| tag.starts_with("wal:")).map(|(t, _)| t.as_str()),
        Some("wal:fsync"),
        "the last WAL event must be a flush: {events:?}"
    );
}

fn workload_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..8, 0u8..10, 0u8..5, 0u8..=3), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of ingest/seal/compact/snapshot against a durable
    /// store — dropped without clean shutdown and reopened, twice — recovers
    /// a snapshot identical to the one-pass `DatasetBuilder` build. This is
    /// the PR-2 equivalence machinery extended across process "restarts".
    #[test]
    fn durable_interleavings_recover_builder_identical(claims in workload_strategy()) {
        let scratch = Scratch::new("prop");
        let split = claims.len() / 2;
        {
            let mut store = ClaimStore::open(scratch.path()).unwrap();
            for (s, d, v, op) in &claims[..split] {
                store.ingest(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
                match op {
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
        }
        // First restart: recover, verify, continue the stream.
        {
            let mut store = ClaimStore::open(scratch.path()).unwrap();
            prop_assert_eq!(&store.snapshot().dataset, &batch_dataset(&claims[..split]));
            for (s, d, v, op) in &claims[split..] {
                store.ingest(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
                match op {
                    1 => store.seal(),
                    2 => {
                        store.seal();
                        store.compact();
                    }
                    _ => {}
                }
            }
        }
        // Second restart: the full stream must have survived.
        let mut store = ClaimStore::open(scratch.path()).unwrap();
        let snap = store.snapshot();
        prop_assert_eq!(&snap.dataset, &batch_dataset(&claims));
        let cold = SharedItemCounts::build(&snap.dataset);
        let counts = store.shared_item_counts();
        prop_assert_eq!(counts.num_sharing_pairs(), cold.num_sharing_pairs());
        for (pair, n) in cold.iter_nonzero() {
            prop_assert_eq!(counts.get(pair), n);
        }
    }
}

fn batch_dataset(claims: &[(u8, u8, u8, u8)]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for (s, d, v, _) in claims {
        b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
    }
    b.build()
}

#[test]
fn oversized_manifest_is_a_typed_error_not_a_slurp() {
    let scratch = populated_store("bigmanifest");
    // Grow MANIFEST past its 1 MiB control-file bound: open must refuse it
    // up front (without reading the whole thing) as typed corruption.
    std::fs::write(scratch.path().join("MANIFEST"), vec![0u8; (1 << 20) + 1]).unwrap();
    match ClaimStore::open(scratch.path()) {
        Err(StoreIoError::Corrupt { path, detail }) => {
            assert_eq!(path, scratch.path().join("MANIFEST"));
            assert!(detail.contains("-byte bound"), "unexpected detail: {detail}");
        }
        other => panic!("expected Corrupt for an oversized manifest, got {other:?}"),
    }
}
