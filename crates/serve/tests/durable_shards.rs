//! Durability of the sharded store: per-shard directories recover
//! independently, the shard count is pinned, and a recovered fleet detects
//! the same copiers.

use copydet_serve::{ShardedDetector, ShardedStore, StoreIoError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "copydet_serve_test_{label}_{}_{}",
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

fn corpus() -> Vec<(String, String, String)> {
    let mut claims = Vec::new();
    for j in 0..12 {
        for k in 0..5 {
            let value = if k == 0 || k == 3 { format!("false-{j}") } else { format!("true-{j}") };
            claims.push((format!("S{k}"), format!("D{j}"), value));
        }
    }
    claims
}

#[test]
fn restart_recovers_every_shard_and_detection_agrees() {
    let scratch = Scratch::new("restart");
    let claims = corpus();
    let before = {
        let store = ShardedStore::open(&scratch.0, 3).expect("open fresh");
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
        store.sync().expect("flush every shard's WAL");
        assert!(store.stats().durable);
        assert!(store.io_error().is_none());
        let result = ShardedDetector::new().detect_round(&store).expect("consistent capture");
        assert!(result.num_copying_pairs() >= 1);
        (store.num_claims(), result.num_copying_pairs())
    }; // all shard handles dropped: directory locks release, WALs flush

    // Shard directories exist, one per shard, each a self-contained store.
    for i in 0..3 {
        assert!(scratch.0.join(format!("shard-{i:03}")).join("wal.log").exists());
    }

    let recovered = ShardedStore::open(&scratch.0, 3).expect("reopen");
    assert_eq!(recovered.num_claims(), before.0);
    // Reopening reads the shards' name tables; the first DETECT takes the
    // first snapshot.
    assert!(recovered.shards().iter().all(|shard| shard.stats().epoch == 0));
    let result = ShardedDetector::new().detect_round(&recovered).expect("consistent capture");
    assert_eq!(
        result.num_copying_pairs(),
        before.1,
        "a recovered fleet reaches the same decisions"
    );
}

#[test]
fn shard_count_is_pinned() {
    let scratch = Scratch::new("pin");
    drop(ShardedStore::open(&scratch.0, 2).expect("create with 2"));
    match ShardedStore::open(&scratch.0, 4) {
        Err(StoreIoError::Corrupt { detail, .. }) => {
            assert!(detail.contains("2 shard(s)"), "unexpected detail: {detail}");
        }
        other => panic!("expected a shard-count mismatch, got {other:?}"),
    }
    // The original count still opens.
    drop(ShardedStore::open(&scratch.0, 2).expect("reopen with 2"));
}

#[test]
fn one_shard_directory_recovers_alone() {
    // Restarting a single shard's directory (as the serve_demo does) is
    // just a SharedClaimStore recovery — prove the layout supports it by
    // reopening one shard dir directly while the others stay untouched.
    let scratch = Scratch::new("singleshard");
    let claims = corpus();
    {
        let store = ShardedStore::open(&scratch.0, 2).expect("open fresh");
        store.ingest_batch(claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())));
        store.sync().expect("flush");
    }
    let shard0 = copydet_store::SharedClaimStore::open(scratch.0.join("shard-000"))
        .expect("a shard dir is a self-contained store");
    assert!(shard0.num_claims() > 0, "the hash spreads 12 items over 2 shards");
}

#[test]
fn oversized_or_binary_shards_pin_is_a_typed_error() {
    let scratch = Scratch::new("badpin");
    drop(ShardedStore::open(&scratch.0, 2).expect("create with 2"));

    // A pin grown past its 64-byte control-file bound is rejected before
    // it is slurped or parsed.
    std::fs::write(scratch.0.join("SHARDS"), vec![b'9'; 4096]).expect("overwrite pin");
    match ShardedStore::open(&scratch.0, 2) {
        Err(StoreIoError::Corrupt { path, detail }) => {
            assert!(path.ends_with("SHARDS"), "blames the pin: {}", path.display());
            assert!(detail.contains("64-byte bound"), "unexpected detail: {detail}");
        }
        other => panic!("expected Corrupt for an oversized pin, got {other:?}"),
    }

    // A non-UTF-8 pin is corruption too, not a panic in the parser.
    std::fs::write(scratch.0.join("SHARDS"), [0xFF, 0xFE, 0xFD]).expect("overwrite pin");
    match ShardedStore::open(&scratch.0, 2) {
        Err(StoreIoError::Corrupt { detail, .. }) => {
            assert!(detail.contains("not UTF-8"), "unexpected detail: {detail}");
        }
        other => panic!("expected Corrupt for a binary pin, got {other:?}"),
    }

    // Restoring a sane pin makes the fleet open again.
    std::fs::write(scratch.0.join("SHARDS"), "2\n").expect("restore pin");
    drop(ShardedStore::open(&scratch.0, 2).expect("reopen with a repaired pin"));
}
