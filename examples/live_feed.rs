//! A live claim feed over a **durable** store: claims stream into the
//! segmented claim store in batches; after every batch the detector diffs a
//! fresh snapshot against the one it observed last and feeds that delta to
//! incremental copy detection, so only the pairs affected by the new claims
//! are re-decided.
//!
//! The store is driven through its concurrent handle: batches are ingested
//! by writer threads while a background maintenance thread seals, compacts
//! and flushes the write-ahead log off the ingest path, and each detection
//! round runs entirely outside the store lock on a zero-copy snapshot.
//!
//! Mid-stream the process "restarts": the store handle is dropped without
//! ceremony and the directory is reopened. Recovery rebuilds the store from
//! the committed segments plus the write-ahead log — **no claim is
//! re-ingested** — and the feed carries on where it left off, catching a
//! freshly injected copier within one batch of its arrival.
//!
//! Run with: `cargo run --release --example live_feed`

use copydetect::prelude::*;
use copydetect::synth;
use std::sync::atomic::{AtomicBool, Ordering};

fn observe(
    live: &mut LiveDetector,
    store: &SharedClaimStore,
    label: &str,
) -> (StoreSnapshot, DetectionResult) {
    let segments = store.stats().sealed_segments;
    let snapshot = store.snapshot();
    let result = live.observe(&snapshot);
    let redone = live
        .round_stats()
        .last()
        .map(|s| s.delta_recomputed.to_string())
        .unwrap_or_else(|| "scratch".to_owned());
    println!(
        "{:>5}  {:>7}  {:>9}  {:>7}  {:>9}  {:>8}  {:>7}",
        label,
        snapshot.dataset.num_claims(),
        result.pairs_considered,
        redone,
        result.computations(),
        result.num_copying_pairs(),
        segments,
    );
    (snapshot, result)
}

/// Sets the stop flag when dropped, so the maintenance thread exits (and
/// the scope can join) even if the body panics mid-stream.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `body` with a background seal/compact/flush thread attached to the
/// store, stopping the maintainer when the body returns (or panics).
fn with_maintenance<R>(store: &SharedClaimStore, body: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let maintainer = store.clone();
        let stop = &stop;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if !maintainer.maintenance_tick(512, 4) {
                    // Nothing was due: back off instead of contending with
                    // the writers for the store lock.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        });
        let _stop_guard = StopOnDrop(stop);
        body()
    })
}

fn main() {
    let workload = synth::presets::book_cs(0.2, 20_260_728);
    let claims: Vec<(String, String, String)> = workload
        .dataset
        .claim_refs()
        .map(|c| (c.source.to_owned(), c.item.to_owned(), c.value.to_owned()))
        .collect();
    println!(
        "Live feed workload: {} ({} claims from {} sources, {} planted copier groups)",
        workload.name,
        claims.len(),
        workload.dataset.num_sources(),
        workload.gold.copies.len(),
    );

    let dir = std::env::temp_dir().join(format!("copydet_live_feed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("Durable store directory: {}", dir.display());

    // Stream: 60% of the claims up front, then the rest in batches, with a
    // restart after batch 3 and a fresh copier injected right after it.
    let (head, tail) = claims.split_at(claims.len() * 6 / 10);
    let num_batches = 6usize;
    let batch_len = tail.len().div_ceil(num_batches).max(1);
    let batches: Vec<&[(String, String, String)]> = tail.chunks(batch_len).collect();
    let restart_after = 3usize;

    println!(
        "\n{:>5}  {:>7}  {:>9}  {:>7}  {:>9}  {:>8}  {:>7}",
        "batch", "claims", "pairs", "redone", "computns", "copying", "segs"
    );

    // ---- Phase 1: open the durable store and stream the first batches ----
    let store = SharedClaimStore::open(&dir).expect("open durable store");
    let mut live = LiveDetector::new();
    let donor_claims: Vec<(String, String)> = with_maintenance(&store, || {
        for (s, d, v) in head {
            store.ingest(s, d, v);
        }
        let (snap0, first) = observe(&mut live, &store, "0");
        let donor =
            first.copying_pairs().next().map(|p| p.first()).unwrap_or_else(|| SourceId::new(0));
        println!("        ... donor to be mirrored later: {}", snap0.dataset.source_name(donor));
        let donor_claims = snap0
            .dataset
            .claims_of(donor)
            .iter()
            .take(40)
            .map(|&(d, v)| {
                (snap0.dataset.item_name(d).to_owned(), snap0.dataset.value_str(v).to_owned())
            })
            .collect();

        for (i, batch) in batches.iter().take(restart_after).enumerate() {
            let writer = store.clone();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for (s, d, v) in *batch {
                        writer.ingest(s, d, v);
                    }
                });
            });
            let _ = observe(&mut live, &store, &format!("{}", i + 1));
        }
        donor_claims
    });
    let claims_before_restart = store.num_claims();
    store.sync().expect("flush the write-ahead log");
    drop(store);
    drop(live);

    // ---- Restart: reopen the directory; nothing is re-ingested ----------
    println!("        ... process restart: reopening {}", dir.display());
    let store = SharedClaimStore::open(&dir).expect("recover durable store");
    let stats = store.stats();
    assert_eq!(stats.live_claims, claims_before_restart);
    println!(
        "        ... recovered {} claims from {} sealed segment(s) + {} WAL frame(s), \
         0 claims re-ingested",
        stats.live_claims, stats.sealed_segments, stats.wal_frames
    );
    let mut live = LiveDetector::new();

    // ---- Phase 2: continue the stream where the old process stopped ------
    with_maintenance(&store, || {
        // The first post-restart round is from scratch (detector state is
        // in-memory), over a store that was *not* re-fed.
        let _ = observe(&mut live, &store, "rec");
        for (i, batch) in batches.iter().enumerate().skip(restart_after) {
            let writer = store.clone();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for (s, d, v) in *batch {
                        writer.ingest(s, d, v);
                    }
                });
            });
            if i == restart_after {
                // A brand-new source starts republishing the donor's values.
                for (item, value) in &donor_claims {
                    store.ingest("rogue-mirror", item, value);
                }
                println!("        ... rogue-mirror starts copying ({} claims)", donor_claims.len());
            }
            let (snapshot, result) = observe(&mut live, &store, &format!("{}", i + 1));
            if let Some(rogue) = snapshot.dataset.source_by_name("rogue-mirror") {
                if result.copying_pairs().any(|p| p.contains(rogue)) {
                    println!("        ... rogue-mirror caught copying");
                }
            }
        }
    });

    store.compact();
    store.sync().expect("final flush");
    println!("\nFinal store state: {}", store.stats());
    let total_redone: usize = live.round_stats().iter().map(|s| s.delta_recomputed).sum();
    println!(
        "Across {} post-restart rounds, {} pair recomputations total — a from-scratch \
         rescan would have re-decided every tracked pair every batch.",
        live.round_stats().len(),
        total_redone
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
