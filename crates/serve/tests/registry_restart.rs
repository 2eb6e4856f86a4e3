//! Bit-stable fleet restarts: the `REGISTRY` arrival-order log gives a
//! reopened fleet the exact global id assignment of the original process,
//! so detection output — every posterior, down to the last ulp — and the
//! DETECT wire responses built from it are byte-identical across restarts.

use copydet_serve::frontend::{self, Client};
use copydet_serve::{ShardedDetector, ShardedStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "copydet_registry_restart_{label}_{}_{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A planted-copier corpus (S0 and S3 share distinctive false values) whose
/// *arrival order* is deliberately scrambled: names first appear in an
/// order no shard-major recovery walk reproduces, so this stream
/// distinguishes arrival-order replay from the PR 5 shard-major rebuild.
fn scrambled_corpus() -> Vec<(String, String, String)> {
    let mut claims = Vec::new();
    for j in 0..12 {
        for k in 0..5 {
            let value = if k == 0 || k == 3 { format!("false-{j}") } else { format!("true-{j}") };
            claims.push((format!("S{k}"), format!("D{j}"), value));
        }
    }
    // A fixed permutation with stride 7 (coprime to 60): sources, items and
    // values all first appear "out of order" relative to any per-shard walk.
    let n = claims.len();
    (0..n).map(|i| claims[(i * 7) % n].clone()).collect()
}

fn ingest_in_batches(store: &ShardedStore, claims: &[(String, String, String)]) {
    for batch in claims.chunks(7) {
        store.ingest_batch(batch.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
    }
}

/// The bits that must survive a restart unchanged: every outcome's decision
/// and the raw bit patterns of its three floats, keyed by the pair's global
/// ids (which themselves only match if the registry order was preserved).
fn outcome_bits(result: &copydet_serve::DetectionResult) -> Vec<(String, String, u64, u64, u64)> {
    let mut rows: Vec<_> = result
        .outcomes
        .iter()
        .map(|(pair, o)| {
            (
                pair.to_string(),
                format!("{:?}", o.decision),
                o.posterior.unwrap_or(0.0).to_bits(),
                o.c_to.to_bits(),
                o.c_from.to_bits(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn restart_replays_arrival_order_and_detection_is_bit_identical() {
    let scratch = Scratch::new("bits");
    let claims = scrambled_corpus();

    let (names_before, bits_before) = {
        let store = ShardedStore::open(&scratch.0, 3).expect("open fresh");
        ingest_in_batches(&store, &claims);
        store.sync().expect("flush every shard's WAL");
        assert!(store.io_error().is_none(), "registry log and shards are healthy");
        let result = ShardedDetector::new().detect_round(&store).expect("consistent capture");
        assert!(result.num_copying_pairs() >= 1, "the planted pair is caught");
        (store.global_source_names(), outcome_bits(&result))
    };
    assert!(scratch.0.join("REGISTRY").exists(), "the arrival-order log was written");

    let recovered = ShardedStore::open(&scratch.0, 3).expect("reopen");
    assert_eq!(
        recovered.global_source_names(),
        names_before,
        "the registry replays in arrival order, not shard-major"
    );
    let result = ShardedDetector::new().detect_round(&recovered).expect("consistent capture");
    assert_eq!(
        outcome_bits(&result),
        bits_before,
        "every posterior and score survives the restart bit for bit"
    );

    // And again: a second restart replays the log the first one wrote.
    drop(recovered);
    let again = ShardedStore::open(&scratch.0, 3).expect("second reopen");
    assert_eq!(again.global_source_names(), names_before);
}

/// Only sources have global ids: a batch whose sources are all known but
/// whose items and values are new appends nothing to `REGISTRY`, and a
/// restart still reproduces DETECT bit for bit.
#[test]
fn known_sources_with_new_items_and_values_leave_the_log_untouched() {
    let scratch = Scratch::new("sources_only");
    let registry_len = || std::fs::metadata(scratch.0.join("REGISTRY")).expect("stat log").len();
    let (names_before, bits_before) = {
        let store = ShardedStore::open(&scratch.0, 3).expect("open fresh");
        ingest_in_batches(&store, &scrambled_corpus());
        let logged = registry_len();
        let fresh: Vec<_> = (12..20)
            .flat_map(|j| {
                (0..5).map(move |k| (format!("S{k}"), format!("D{j}"), format!("v{j}-{}", k % 2)))
            })
            .collect();
        ingest_in_batches(&store, &fresh);
        store.sync().expect("flush every shard's WAL");
        assert!(store.io_error().is_none(), "registry log and shards are healthy");
        assert_eq!(registry_len(), logged, "new items and values are not logged");
        let result = ShardedDetector::new().detect_round(&store).expect("consistent capture");
        (store.global_source_names(), outcome_bits(&result))
    };

    let recovered = ShardedStore::open(&scratch.0, 3).expect("reopen");
    assert_eq!(recovered.global_source_names(), names_before);
    let result = ShardedDetector::new().detect_round(&recovered).expect("consistent capture");
    assert_eq!(outcome_bits(&result), bits_before, "DETECT survives the restart bit for bit");
}

/// A root from before the log existed (simulated by deleting `REGISTRY`)
/// still opens: the rebuild falls back to the deterministic shard-major
/// order — which genuinely differs from arrival order for this stream —
/// and *appends it to the log*, so every restart after the first is
/// bit-stable again.
#[test]
fn legacy_root_without_registry_log_is_repaired_on_open() {
    let scratch = Scratch::new("legacy");
    let claims = scrambled_corpus();
    let arrival = {
        let store = ShardedStore::open(&scratch.0, 3).expect("open fresh");
        ingest_in_batches(&store, &claims);
        store.sync().expect("flush");
        store.global_source_names()
    };
    std::fs::remove_file(scratch.0.join("REGISTRY")).expect("simulate a pre-log root");

    let repaired = {
        let store = ShardedStore::open(&scratch.0, 3).expect("legacy roots still open");
        assert!(store.io_error().is_none(), "the repair append succeeded");
        store.global_source_names()
    };
    // Shard-major recovery is a *different* order for this scrambled stream
    // — which is exactly why the arrival-order log exists.
    assert_ne!(repaired, arrival, "this stream distinguishes the two recovery orders");
    assert!(scratch.0.join("REGISTRY").exists(), "the log was rewritten");

    // From here on restarts are bit-stable again: the repaired order
    // replays identically.
    let store = ShardedStore::open(&scratch.0, 3).expect("reopen repaired root");
    assert_eq!(store.global_source_names(), repaired);
}

#[test]
fn detect_wire_responses_are_byte_identical_across_restarts() {
    let scratch = Scratch::new("wire");
    let claims = scrambled_corpus();

    let first = {
        let store = ShardedStore::open(&scratch.0, 3).expect("open fresh");
        ingest_in_batches(&store, &claims);
        store.sync().expect("flush");
        let server = frontend::serve(store, "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let detection = client.detect().expect("detect");
        client.shutdown().expect("shutdown");
        server.shutdown();
        detection
    };
    assert!(!first.copying.is_empty(), "the planted pair comes back over the wire");

    let store = ShardedStore::open(&scratch.0, 3).expect("reopen");
    let server = frontend::serve(store, "127.0.0.1:0").expect("rebind");
    let mut client = Client::connect(server.addr()).expect("reconnect");
    let second = client.detect().expect("detect after restart");
    client.shutdown().expect("shutdown");
    server.shutdown();

    // Field-for-field equality, with posteriors compared as raw bits: the
    // DETECT payload is a deterministic encoding of exactly these fields,
    // so this is byte-identity of the response.
    assert_eq!(second.pairs_considered, first.pairs_considered);
    assert_eq!(second.copying.len(), first.copying.len());
    for (a, b) in first.copying.iter().zip(&second.copying) {
        assert_eq!((a.first.as_str(), a.second.as_str()), (b.first.as_str(), b.second.as_str()));
        assert_eq!(a.posterior.to_bits(), b.posterior.to_bits(), "pair {}→{}", a.first, a.second);
    }
}
