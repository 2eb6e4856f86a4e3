//! Observability acceptance over the wire: METRICS carries the store-layer
//! and incremental-detector instrumentation.
//!
//! A binary of its own: the durable fleet here fsyncs its WAL into the
//! process-global fsync histogram, which HEALTH reads, so it must not share
//! a process with the tests that assert a healthy fleet.

use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::RoundInput;
use copydet_eval::{CopyDetector, IncrementalDetector};
use copydet_model::DatasetBuilder;
use copydet_serve::frontend::{self, Client};
use copydet_serve::ShardedStore;

fn ingest_all(client: &mut Client, claims: &[(String, String, String)]) {
    for batch in claims.chunks(4096) {
        let borrowed: Vec<(&str, &str, &str)> =
            batch.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())).collect();
        client.ingest(&borrowed).expect("ingest");
    }
}

/// First value of metric `name` in a text exposition (skipping `# TYPE`
/// lines, which never start with the bare metric name).
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|line| line.starts_with(name))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
}

/// A durable fleet's WAL appends and an in-process incremental detector
/// both land in the process-global registry the METRICS verb exposes.
#[test]
fn metrics_include_wal_and_incremental_instrumentation() {
    let root = std::env::temp_dir().join(format!("copydet_obs_acceptance_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ShardedStore::open(&root, 1).expect("open durable fleet");
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let claims: Vec<(String, String, String)> = (0..200)
        .map(|i| (format!("S{}", i % 4), format!("D{}", i / 4), format!("v{}", i % 3)))
        .collect();
    ingest_all(&mut client, &claims);

    // Incremental rounds run in-process (sharded serving rounds are always
    // exact); the pass counters land in the same process-global registry.
    let mut b = DatasetBuilder::new();
    for j in 0..12 {
        for s in 0..4 {
            let value = if s < 2 { format!("shared-{j}") } else { format!("own-{s}-{j}") };
            b.add_claim(&format!("I{s}"), &format!("item-{j}"), &value);
        }
    }
    let ds = b.build();
    let accuracies = SourceAccuracies::uniform(ds.num_sources(), 0.8).expect("probability");
    let probabilities = ValueProbabilities::uniform_over_dataset(&ds, 0.4).expect("probability");
    let params = CopyParams::paper_defaults();
    let input = RoundInput::new(&ds, &accuracies, &probabilities, params);
    let mut incremental = IncrementalDetector::new();
    let _ = incremental.detect_round(&input, 1);
    let _ = incremental.detect_round(&input, 2);
    // Round 3 is past warm-up: the incremental maintenance runs and counts.
    let _ = incremental.detect_round(&input, 3);

    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("# TYPE copydet_store_wal_append_nanos histogram"),
        "WAL append latency histogram missing:\n{metrics}"
    );
    assert!(metric_value(&metrics, "copydet_store_wal_append_nanos_count") >= 1);
    let considered = metric_value(&metrics, "copydet_incremental_pairs_considered_total");
    let recomputed = metric_value(&metrics, "copydet_incremental_pairs_recomputed_total");
    assert!(considered >= 1, "the incremental round maintained at least one pair");
    assert!(recomputed <= considered, "recomputed pairs are a subset of considered pairs");

    client.shutdown().expect("shutdown");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
