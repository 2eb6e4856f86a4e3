//! Flight-recorder acceptance over the wire: slow rounds land in `EVENTS`
//! with their stage breakdown, lock-contention gauges reach `METRICS`
//! under concurrent load, `HEALTH` flips from ok to degraded once a shard
//! store records a sticky I/O error, and `INGEST` stops acknowledging
//! batches from then on.

use copydet_serve::frontend::{self, Client};
use copydet_serve::{HealthReasonCode, Severity, ShardedStore, StoreConfig};
use std::time::Duration;

const SOURCES: usize = 48;
const ITEMS: usize = 256;

/// Every source claims every item, so all `48·47/2` pairs share all 256
/// items — a round heavy enough to be measurably slow. Sources 0 and 1
/// share distinctive values (a planted copier pair).
fn heavy_corpus() -> Vec<(String, String, String)> {
    let mut claims = Vec::with_capacity(SOURCES * ITEMS);
    for s in 0..SOURCES {
        for j in 0..ITEMS {
            let value = match s {
                0 | 1 => format!("planted-{j}"),
                _ => format!("v{}", (s + j) % 7),
            };
            claims.push((format!("S{s}"), format!("D{j}"), value));
        }
    }
    claims
}

fn ingest_all(client: &mut Client, claims: &[(String, String, String)]) {
    for batch in claims.chunks(4096) {
        let borrowed: Vec<(&str, &str, &str)> =
            batch.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())).collect();
        client.ingest(&borrowed).expect("ingest");
    }
}

/// With the slow-op threshold at zero every operation is "slow": the DETECT
/// round must surface in `EVENTS` as a `Warn`-severity `round.slow` record
/// carrying the round's full per-stage breakdown, and the request itself as
/// a `request.slow` record naming the verb.
#[test]
fn slow_round_lands_in_events_with_stage_breakdown() {
    let store = ShardedStore::new(1);
    copydet_obs::set_slow_op_threshold(Some(Duration::ZERO));
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    ingest_all(&mut client, &heavy_corpus());
    client.detect().expect("detect");

    let detect_events = client.events(0, Severity::Warn, "detect").expect("events");
    let slow = detect_events
        .iter()
        .find(|e| e.name == "round.slow")
        .expect("a zero threshold promotes the round to a slow-op event");
    assert_eq!(slow.severity, Severity::Warn);
    assert!(slow.field("total_nanos").is_some(), "slow event carries the wall time: {slow:?}");
    for stage in ["stage.shard0.scan", "stage.merge."] {
        assert!(
            slow.fields.iter().any(|(k, _)| k.starts_with(stage)),
            "slow event carries the {stage}* breakdown: {slow:?}"
        );
    }

    let serve_events = client.events(0, Severity::Warn, "serve").expect("events");
    assert!(
        serve_events.iter().any(|e| e.name == "request.slow"
            && matches!(e.field("verb"), Some(v) if v.to_string() == "DETECT")),
        "the DETECT request itself is over the zero threshold: {serve_events:?}"
    );

    // The filters are honored on the server side. (Checked per event, not
    // by comparing counts: the event ring is process-wide, and the other
    // tests in this binary record Error events concurrently.)
    assert!(detect_events.iter().all(|e| e.component == "detect" && e.severity >= Severity::Warn));
    let errors = client.events(0, Severity::Error, "").expect("events");
    assert!(errors.iter().all(|e| e.severity == Severity::Error), "{errors:?}");
    let one = client.events(1, Severity::Debug, "").expect("events");
    assert_eq!(one.len(), 1, "n=1 returns exactly the newest event");

    client.shutdown().expect("shutdown");
    server.shutdown();
}

/// Concurrent ingest across connections exercises the registry (rank 10),
/// shard-store (rank 20) and connection-registry (rank 30) locks; the
/// contention probes must surface as labelled gauges in `METRICS`.
#[test]
fn lock_metrics_cover_the_serving_ranks_under_contention() {
    let store = ShardedStore::new(2);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    std::thread::scope(|scope| {
        for t in 0..4 {
            let addr = server.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..50 {
                    let source = format!("T{t}-S{i}");
                    let item = format!("D{}", i % 16);
                    let batch = [(source.as_str(), item.as_str(), "x")];
                    client.ingest(&batch).expect("ingest");
                }
            });
        }
    });

    let mut client = Client::connect(server.addr()).expect("connect");
    let metrics = client.metrics().expect("metrics");
    for rank in ["10", "20", "30"] {
        for gauge in
            ["copydet_lock_acquisitions", "copydet_lock_contended", "copydet_lock_wait_nanos"]
        {
            let needle = format!("{gauge}{{rank=\"{rank}\"");
            assert!(metrics.contains(&needle), "{needle} missing from exposition:\n{metrics}");
        }
    }

    client.shutdown().expect("shutdown");
    server.shutdown();
}

/// A healthy durable fleet answers `HEALTH` ok; after its shard directory
/// is destroyed under it, the next commit records a sticky store error and
/// the verdict flips to degraded with a `sticky_store_error` reason. The
/// saturation rule is then tripped through its environment knob.
#[test]
fn health_flips_from_ok_to_degraded() {
    // Hermetic budgets: a slow CI fsync must not degrade the ok phase.
    std::env::set_var("COPYDET_WAL_FSYNC_BUDGET_MS", "600000");
    std::env::remove_var("COPYDET_CONN_LIMIT");

    let root = std::env::temp_dir().join(format!("copydet_flight_rec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = StoreConfig { seal_threshold: Some(32), ..StoreConfig::default() };
    let store = ShardedStore::open_with_config(&root, 1, config).expect("open durable fleet");
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    let batch = [("S0", "D0", "x")];
    client.ingest(&batch).expect("ingest");
    let verdict = client.health().expect("health");
    assert!(verdict.ok, "fresh fleet is healthy, got {:?}", verdict.reasons);

    // Replace the shard directory with a regular file: the WAL handle stays
    // writable (the fd survives the unlink), but the next seal commit has to
    // create segment files inside `shard-000` and fails with ENOTDIR — a
    // sticky error even when the test runs as root, which ignores plain
    // permission bits.
    let shard_dir = root.join("shard-000");
    std::fs::remove_dir_all(&shard_dir).expect("remove shard dir");
    std::fs::write(&shard_dir, b"not a directory").expect("plant file");

    // Cross the seal threshold; ingest keeps succeeding or starts erroring
    // depending on where the commit lands, so outcomes are not asserted.
    for i in 0..64 {
        let source = format!("S{i}");
        let batch = [(source.as_str(), "D1", "y")];
        let _ = client.ingest(&batch);
    }

    let verdict = client.health().expect("health");
    assert!(!verdict.ok, "a sticky store error must degrade the verdict");
    assert!(
        verdict.reasons.iter().any(|r| r.code == HealthReasonCode::StickyStoreError),
        "degradation is typed sticky_store_error: {:?}",
        verdict.reasons
    );
    assert!(
        !verdict.reasons.first().expect("nonempty").detail.is_empty(),
        "the reason carries the error detail"
    );

    // Saturation through the env knob: with a limit of 1 this very client
    // already saturates the frontend.
    std::env::set_var("COPYDET_CONN_LIMIT", "1");
    let saturated = client.health().expect("health");
    assert!(
        saturated.reasons.iter().any(|r| r.code == HealthReasonCode::ConnectionSaturation),
        "a limit of one live connection saturates: {:?}",
        saturated.reasons
    );
    std::env::remove_var("COPYDET_CONN_LIMIT");

    client.shutdown().expect("shutdown");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Once a shard store has stopped persisting, `INGEST` answers a typed ERR
/// frame instead of an accepted count — for the batch that hit the failure
/// and every batch after it — while the same connection keeps serving.
#[test]
fn ingest_is_not_acknowledged_once_persistence_breaks() {
    let root = std::env::temp_dir().join(format!("copydet_not_persisted_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = StoreConfig { seal_threshold: Some(32), ..StoreConfig::default() };
    let store = ShardedStore::open_with_config(&root, 1, config).expect("open durable fleet");
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.ingest(&[("S0", "D0", "x")]).expect("healthy fleet acknowledges"), 1);

    // The same trick as the HEALTH test: the next seal commit fails with
    // ENOTDIR and the shard records a sticky error.
    let shard_dir = root.join("shard-000");
    std::fs::remove_dir_all(&shard_dir).expect("remove shard dir");
    std::fs::write(&shard_dir, b"not a directory").expect("plant file");

    let outcomes: Vec<std::io::Result<u64>> = (0..64)
        .map(|i| {
            let source = format!("S{i}");
            client.ingest(&[(source.as_str(), "D1", "y")])
        })
        .collect();
    let first_refusal = outcomes
        .iter()
        .position(Result::is_err)
        .expect("crossing the seal threshold breaks persistence");
    assert!(outcomes[first_refusal..].iter().all(Result::is_err), "the refusal is sticky");
    let message = outcomes[first_refusal].as_ref().expect_err("refused").to_string();
    assert!(message.contains("INGEST not acknowledged"), "typed refusal: {message}");

    let stats = client.stats().expect("the connection survives the ERR frames");
    assert_eq!(stats.requests.get(frontend::REQ_INGEST), 65);
    assert_eq!(stats.shards[0].live_claims, 65, "refused batches were applied in memory");

    client.shutdown().expect("shutdown");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
