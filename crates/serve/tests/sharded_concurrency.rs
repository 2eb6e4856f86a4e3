//! Ingest-while-detecting stress over the sharded store, mirroring the
//! single-store suite in `tests/concurrency.rs`.
//!
//! N writer threads stream deterministic claim sets (one planted copier
//! pair per writer) through [`ShardedStore::ingest_batch`] while a detector
//! loops fan-out rounds on the live fleet and a maintenance thread seals
//! and compacts every shard. Each round runs over an explicit capture
//! ([`ShardedStore::capture_shards`]) so the exact PAIRWISE baseline can be
//! computed over a `DatasetBuilder` rebuild of the *same* frozen state —
//! the item-disjoint union of per-shard consistent snapshots is itself a
//! dataset some valid interleaving of the stream produces, so the baseline
//! is well-defined for whatever timing the scheduler gives us. Decisions
//! are compared by source-name pairs (the rebuild has its own id space).

use copydet_bayes::CopyParams;
use copydet_detect::{pairwise_detection, RoundInput};
use copydet_fusion::{value_probabilities, VoteConfig};
use copydet_index::SharedItemCounts;
use copydet_model::{DatasetBuilder, SourceId};
use copydet_serve::{ShardedDetector, ShardedStore};
use copydet_store::StoreSnapshot;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SHARDS: usize = 4;
const WRITERS: usize = 4;
const SOURCES_PER_WRITER: usize = 6;
const ITEMS: usize = 40;
const CLAIMS_PER_WRITER: usize = 600;
const BATCH: usize = 32;

type Capture = (StoreSnapshot, Arc<SharedItemCounts>);
type NamePairs = BTreeSet<(String, String)>;

/// Writer `w`'s deterministic claim stream (same layout as the single-store
/// stress test): writer-local sources, global items, one planted copier
/// pair per writer (sources 0 and 5 share writer-specific false values).
fn claim_stream(w: usize) -> Vec<(String, String, String)> {
    (0..CLAIMS_PER_WRITER)
        .map(|i| {
            let k = i % SOURCES_PER_WRITER;
            let j = (i / SOURCES_PER_WRITER) % ITEMS;
            let value = match k {
                0 | 5 => format!("f{w}-{j}"),
                4 => format!("n{w}-{k}-{j}"),
                _ => format!("t{j}"),
            };
            (format!("w{w}-S{k}"), format!("D{j}"), value)
        })
        .collect()
}

fn ordered(a: String, b: String) -> (String, String) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The exact from-scratch baseline over a capture's union dataset.
fn baseline_decisions(captures: &[Capture]) -> (NamePairs, usize) {
    let mut b = DatasetBuilder::new();
    let mut claims = 0usize;
    for (snapshot, _) in captures {
        for c in snapshot.dataset.claim_refs() {
            b.add_claim(c.source, c.item, c.value);
            claims += 1;
        }
    }
    let ds = b.build();
    let params = CopyParams::paper_defaults();
    let accuracies = copydet_bayes::SourceAccuracies::uniform(ds.num_sources(), 0.8).unwrap();
    let probabilities = value_probabilities(&ds, &accuracies, None, &VoteConfig::new(params));
    let exact = pairwise_detection(&RoundInput::new(&ds, &accuracies, &probabilities, params));
    let pairs = exact
        .copying_pairs()
        .map(|p| {
            ordered(ds.source_name(p.first()).to_owned(), ds.source_name(p.second()).to_owned())
        })
        .collect();
    (pairs, claims)
}

/// Global-id → source-name resolution for a capture.
fn source_names(store: &ShardedStore, captures: &[Capture]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (snapshot, _) in captures {
        let maps = store.maps_for(snapshot);
        for (local, global) in maps.ids.sources.iter().enumerate() {
            let idx = global.index();
            if idx >= names.len() {
                names.resize(idx + 1, String::new());
            }
            if names[idx].is_empty() {
                names[idx] = snapshot.dataset.source_name(SourceId::from_index(local)).to_owned();
            }
        }
    }
    names
}

#[test]
fn ingest_while_detecting_matches_from_scratch_baselines() {
    let store = ShardedStore::new(SHARDS);
    let stop_maintenance = AtomicBool::new(false);
    let mut observed: Vec<(Vec<Capture>, NamePairs)> = Vec::new();

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let handle = store.clone();
                scope.spawn(move || {
                    let stream = claim_stream(w);
                    for chunk in stream.chunks(BATCH) {
                        handle.ingest_batch(
                            chunk.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())),
                        );
                    }
                })
            })
            .collect();
        let maintainer = store.clone();
        let stop = &stop_maintenance;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                maintainer.maintenance_tick(256, 3);
                std::thread::yield_now();
            }
        });

        // The detector loop: capture the fleet, run the fan-out round over
        // that capture (entirely outside the shard locks, so writers keep
        // streaming), and remember the capture for the baseline comparison.
        let detector = ShardedDetector::new();
        loop {
            let writers_done = writers.iter().all(|h| h.is_finished());
            let captures = store.capture_shards();
            let result = detector.detect_captured(&store, &captures).expect("consistent capture");
            assert_eq!(result.algorithm, "SHARDED");
            let names = source_names(&store, &captures);
            let pairs = result
                .copying_pairs()
                .map(|p| {
                    ordered(names[p.first().index()].clone(), names[p.second().index()].clone())
                })
                .collect();
            observed.push((captures, pairs));
            if writers_done {
                break;
            }
        }
        stop_maintenance.store(true, Ordering::Relaxed);
    });

    // The final capture covers every distinct (source, item) slot.
    let (last_captures, final_pairs) = observed.last().expect("at least one round ran");
    let total: usize = last_captures.iter().map(|(s, _)| s.dataset.num_claims()).sum();
    assert_eq!(total, WRITERS * SOURCES_PER_WRITER * ITEMS);

    // Every round's decisions equal the exact from-scratch baseline over
    // that round's own capture — regardless of interleaving.
    for (round, (captures, pairs)) in observed.iter().enumerate() {
        let (expected, claims) = baseline_decisions(captures);
        assert_eq!(
            pairs, &expected,
            "round {round} ({claims} claims) diverged from the from-scratch baseline"
        );
    }

    // Every writer's planted copier pair is caught in the final round.
    for w in 0..WRITERS {
        let pair = (format!("w{w}-S0"), format!("w{w}-S5"));
        assert!(final_pairs.contains(&pair), "writer {w}'s planted pair must be detected");
    }
}

/// Mid-stream rounds over a store that keeps moving: each round is
/// self-consistent (every reported pair resolves to known sources) and the
/// fleet's claim accounting adds up afterwards.
#[test]
fn concurrent_rounds_are_self_consistent() {
    let store = ShardedStore::new(3);
    std::thread::scope(|scope| {
        let writer = store.clone();
        scope.spawn(move || {
            for (s, d, v) in claim_stream(0) {
                writer.ingest(&s, &d, &v);
            }
        });
        let detector = ShardedDetector::new();
        for _ in 0..5 {
            let result = detector.detect_round(&store).expect("consistent capture");
            let num_sources = store.num_sources();
            for pair in result.outcomes.keys() {
                assert!(pair.second().index() < num_sources, "pair ids stay in the registry");
            }
        }
    });
    assert_eq!(store.num_claims(), SOURCES_PER_WRITER * ITEMS);
    let stats = store.stats();
    assert_eq!(stats.live_claims, SOURCES_PER_WRITER * ITEMS);
}

/// All three ranked locks of `DESIGN.md` §8 under one stress run: the
/// global registry (rank 10) and shard stores (rank 20) via concurrent
/// batched ingest, maintenance and fan-out detection, plus the frontend
/// connection registry (rank 30) via TCP clients hammering the same fleet.
///
/// In debug builds (which is how `cargo test` runs) every
/// `RankedMutex`/`RankedRwLock` acquisition is checked against the
/// thread's held-rank stack and panics on an ordering violation — so this
/// test's assertion is largely that it *finishes*: any interleaving that
/// acquires out of rank order aborts the run.
#[test]
fn lock_ranks_hold_under_stress() {
    use copydet_serve::frontend::{self, Client};

    let store = ShardedStore::new(SHARDS);
    let server = frontend::serve(store.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    std::thread::scope(|scope| {
        // TCP writers: registry + shard + connection locks from the
        // frontend's connection threads.
        for w in 0..2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let stream = claim_stream(w);
                for chunk in stream.chunks(BATCH) {
                    let batch: Vec<(&str, &str, &str)> = chunk
                        .iter()
                        .map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str()))
                        .collect();
                    client.ingest(&batch).expect("ingest batch");
                }
                let _ = client.stats().expect("stats");
            });
        }
        // Direct writers + maintenance + detection on the same fleet.
        let direct = store.clone();
        scope.spawn(move || {
            for (s, d, v) in claim_stream(2) {
                direct.ingest(&s, &d, &v);
            }
        });
        let maintainer = store.clone();
        scope.spawn(move || {
            for _ in 0..200 {
                maintainer.maintenance_tick(128, 3);
                std::thread::yield_now();
            }
        });
        let detector = ShardedDetector::new();
        for _ in 0..4 {
            let result = detector.detect_round(&store).expect("consistent capture");
            assert_eq!(result.algorithm, "SHARDED");
        }
    });

    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    server.shutdown();

    // Every lock taken during the run was released in rank order; this
    // thread ends the test holding none.
    assert_eq!(copydet_model::sync::max_held_rank(), None);
    assert_eq!(store.num_claims(), 3 * SOURCES_PER_WRITER * ITEMS);
}
