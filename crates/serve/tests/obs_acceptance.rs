//! Observability acceptance over the wire: a TCP-driven detection round's
//! TRACE decomposes its wall time, and a top-k query's trace records the
//! round's stages and leaves the fleet healthy. (The METRICS check runs in
//! its own binary, `obs_metrics`: it fsyncs a durable WAL into the
//! process-global fsync histogram, and one slow fsync there would turn
//! HEALTH's verdict here.)

use copydet_serve::frontend::{self, Client};
use copydet_serve::ShardedStore;
use std::sync::{Mutex, PoisonError};

const SOURCES: usize = 48;
const ITEMS: usize = 256;

/// Held by the two heavy-round tests so they run one at a time: on a 2-core
/// host a concurrent round steals the cores whose wall time is being
/// decomposed (the glue outside the stages then exceeds 10%).
static HEAVY_ROUND: Mutex<()> = Mutex::new(());

/// Every source claims every item, so all `48·47/2` pairs share all 256
/// items — a round heavy enough that the evidence scan and the merge, not
/// the bookkeeping around them, dominate the wall time. Sources 0 and 1
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

/// On a 1-shard fleet the per-shard stages (capture + evidence scan) and
/// the merge stages tile the round: their TRACE durations must account for
/// at least 90% of the round's wall time (the bookkeeping between stages
/// gets the rest).
#[test]
fn tcp_round_trace_decomposes_wall_time() {
    let _serial = HEAVY_ROUND.lock().unwrap_or_else(PoisonError::into_inner);
    let store = ShardedStore::new(1);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    ingest_all(&mut client, &heavy_corpus());
    client.detect().expect("detect");

    let traces = client.trace(1).expect("trace");
    let trace = traces.first().expect("the DETECT round left a trace");
    assert_eq!(trace.label, "sharded_round");
    assert!(trace.stage_nanos("shard0.scan").is_some(), "per-shard scan stage recorded");
    let shard = trace.stage_sum_nanos("shard0.");
    let merge = trace.stage_sum_nanos("merge.");
    let sum = shard.saturating_add(merge);
    assert!(sum <= trace.total_nanos, "disjoint sub-intervals cannot exceed the round");
    let ratio = sum as f64 / trace.total_nanos as f64;
    assert!(
        ratio >= 0.9,
        "shard + merge stages = {sum} ns are only {:.1}% of the {} ns round; stages: {:?}",
        100.0 * ratio,
        trace.total_nanos,
        trace.stages
    );

    client.shutdown().expect("shutdown");
    server.shutdown();
}

/// A TCP top-k query is a filtered round: its `topk_query` trace carries
/// the round's own scan and merge stages as disjoint wall intervals, and
/// the query does not count as a round for HEALTH's merge-starvation rule.
#[test]
fn tcp_topk_trace_records_the_round_stages() {
    let _serial = HEAVY_ROUND.lock().unwrap_or_else(PoisonError::into_inner);
    let store = ShardedStore::new(1);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    ingest_all(&mut client, &heavy_corpus());
    let topk = client.detect_topk(Some("S0"), 5).expect("detect_topk");
    assert_eq!(topk.ranked.len(), 5);

    // Other tests in this binary push traces too: pick the query's by label.
    let traces = client.trace(0).expect("trace");
    let trace = traces
        .iter()
        .find(|t| t.label == "topk_query")
        .expect("the DETECT_TOPK query left a trace");
    assert!(trace.stage_nanos("shard0.scan").is_some(), "per-shard scan stage recorded");
    assert!(trace.stage_nanos("merge.fold_vote").is_some(), "merge stage recorded");
    let sum = trace.stage_sum_nanos("shard0.").saturating_add(trace.stage_sum_nanos("merge."));
    assert!(sum <= trace.total_nanos, "disjoint sub-intervals cannot exceed the query");

    let verdict = client.health().expect("health");
    assert!(verdict.ok, "a top-k query leaves the fleet healthy, got {:?}", verdict.reasons);

    client.shutdown().expect("shutdown");
    server.shutdown();
}
