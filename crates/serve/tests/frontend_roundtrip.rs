//! Frontend round-trips: a real server on a loopback socket, driven by the
//! codec client — batch ingest, stats, a detection round, concurrent
//! clients, protocol errors, and shutdown.

use copydet_serve::frontend::{self, Client};
use copydet_serve::{ShardedDetector, ShardedStore};
use std::io::Write;
use std::net::TcpStream;

/// A small corpus with one obvious copier pair (mirror/shadow share false
/// values on every item).
fn corpus() -> Vec<(String, String, String)> {
    let mut claims = Vec::new();
    for j in 0..10 {
        for name in ["alice", "bob", "carol"] {
            claims.push((name.to_owned(), format!("D{j}"), format!("true-{j}")));
        }
        for name in ["mirror", "shadow"] {
            claims.push((name.to_owned(), format!("D{j}"), format!("false-{j}")));
        }
    }
    claims
}

#[test]
fn ingest_stats_detect_shutdown_roundtrip() {
    let store = ShardedStore::new(3);
    let server = frontend::serve(store.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connect");
    let claims = corpus();
    let borrowed: Vec<(&str, &str, &str)> =
        claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())).collect();
    let total = client.ingest(&borrowed).expect("ingest");
    assert_eq!(total, claims.len() as u64, "every (source, item) slot is distinct");
    assert_eq!(store.num_claims(), claims.len());

    // Stats reflect the fleet: three shards, items spread across them, and
    // the request accounting covers the traffic so far (one INGEST, one
    // STATS — the in-flight request counts itself).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.len(), 3);
    let live: u64 = stats.shards.iter().map(|s| s.live_claims).sum();
    assert_eq!(live, claims.len() as u64);
    assert!(stats.shards.iter().all(|s| !s.durable), "in-memory fleet");
    assert_eq!(stats.requests.get(frontend::REQ_INGEST), 1);
    assert_eq!(stats.requests.get(frontend::REQ_STATS), 1);
    assert_eq!(stats.requests.get(frontend::REQ_DETECT), 0);

    // A detection round over the wire equals an in-process sharded round.
    let detection = client.detect().expect("detect");
    let expected = ShardedDetector::new().detect_round(&store).expect("consistent capture");
    assert_eq!(detection.pairs_considered, expected.pairs_considered as u64);
    assert_eq!(detection.copying.len(), expected.num_copying_pairs());
    let planted = detection
        .copying
        .iter()
        .find(|p| (p.first.as_str(), p.second.as_str()) == ("mirror", "shadow"))
        .expect("the planted copier pair comes back by name");
    assert!(planted.posterior < 1e-6, "shared distinctive false values are decisive");
    assert!(detection.copying.iter().all(|p| p.posterior <= 0.5));

    client.shutdown().expect("shutdown");
    server.shutdown();
    assert!(
        Client::connect(addr).is_err() || {
            // The OS may accept a queued connection briefly; a request on it
            // must fail either way once the server is down.
            let mut late = Client::connect(addr).unwrap();
            late.stats().is_err()
        }
    );
}

#[test]
fn concurrent_clients_amortize_into_one_consistent_store() {
    let store = ShardedStore::new(4);
    let server = frontend::serve(store.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    const CLIENTS: usize = 4;
    const ITEMS: usize = 25;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Two batches per client, interleaving with the others.
                for half in 0..2 {
                    let claims: Vec<(String, String, String)> = (0..ITEMS)
                        .filter(|j| j % 2 == half)
                        .map(|j| (format!("client{c}"), format!("D{j}"), format!("v{j}")))
                        .collect();
                    let borrowed: Vec<(&str, &str, &str)> = claims
                        .iter()
                        .map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str()))
                        .collect();
                    client.ingest(&borrowed).expect("ingest");
                }
            });
        }
    });
    assert_eq!(store.num_claims(), CLIENTS * ITEMS);
    assert_eq!(store.num_sources(), CLIENTS);
    assert_eq!(store.num_items(), ITEMS);

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.shutdown();
}

/// Reads one checksummed frame straight off a raw socket (what the typed
/// [`Client`] does internally), returning `(kind, payload)`.
fn read_raw_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    use copydet_model::codec;
    use std::io::Read;
    let mut header = [0u8; codec::WIRE_HEADER_LEN];
    stream.read_exact(&mut header).expect("frame header");
    let body_len = codec::wire_frame_body_len(&header).expect("sane header");
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body).expect("frame body");
    let (kind, payload) = codec::decode_wire_parts(&header, &body).expect("checksummed frame");
    (kind, payload.to_vec())
}

fn error_message(payload: &[u8]) -> String {
    copydet_model::codec::Reader::new(payload).string().expect("error response carries a string")
}

#[test]
fn metrics_and_trace_roundtrip() {
    let store = ShardedStore::new(2);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let claims = corpus();
    let borrowed: Vec<(&str, &str, &str)> =
        claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())).collect();
    client.ingest(&borrowed).expect("ingest");
    client.detect().expect("detect");

    // METRICS: the text exposition covers the round that just ran and the
    // frontend's own per-verb accounting (the registry is process-global,
    // so only presence and shape are asserted, never exact values).
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("# TYPE copydet_serve_round_nanos histogram"), "got:\n{metrics}");
    assert!(metrics.contains("copydet_serve_rounds_total"), "got:\n{metrics}");
    assert!(
        metrics.contains("copydet_frontend_requests_total{verb=\"DETECT\"}"),
        "got:\n{metrics}"
    );
    assert!(metrics.contains("copydet_frontend_connections_live"), "got:\n{metrics}");

    // TRACE: the DETECT round pushed a trace whose stages decompose it.
    let traces = client.trace(1).expect("trace");
    assert_eq!(traces.len(), 1);
    let trace = traces.first().expect("one trace");
    assert_eq!(trace.label, "sharded_round");
    assert!(trace.sequence >= 1, "ring-assigned sequence");
    assert!(trace.total_nanos > 0);
    assert!(trace.stage_nanos("capture").is_some(), "stages: {:?}", trace.stages);
    assert!(trace.stage_nanos("shard0.scan").is_some(), "stages: {:?}", trace.stages);
    assert!(trace.stage_nanos("merge.fold_vote").is_some(), "stages: {:?}", trace.stages);

    client.shutdown().expect("shutdown");
    server.shutdown();
}

#[test]
fn malformed_trace_request_is_a_typed_error_not_fatal() {
    let store = ShardedStore::new(2);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    // A TRACE payload with bytes after the declared count is refused with a
    // typed error naming the request — and the connection keeps serving.
    let mut bad = Vec::new();
    copydet_model::codec::put_u32(&mut bad, 1);
    bad.push(0xAB);
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(
        &copydet_model::codec::encode_wire_frame(frontend::REQ_TRACE, &bad).expect("tiny frame"),
    )
    .unwrap();
    let (kind, payload) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_ERR);
    let message = error_message(&payload);
    assert!(message.contains("TRACE"), "names the request: {message}");
    assert!(message.contains("trailing"), "names the defect: {message}");
    // The same connection still serves a well-formed TRACE.
    raw.write_all(
        &copydet_model::codec::encode_wire_frame(frontend::REQ_TRACE, &{
            let mut ok = Vec::new();
            copydet_model::codec::put_u32(&mut ok, 0);
            ok
        })
        .expect("tiny frame"),
    )
    .unwrap();
    let (kind, _) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_OK, "connection survives the malformed frame");

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.shutdown();
}

#[test]
fn topk_roundtrip_matches_in_process_query_bitwise() {
    let store = ShardedStore::new(3);
    let server = frontend::serve(store.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let claims = corpus();
    let borrowed: Vec<(&str, &str, &str)> =
        claims.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())).collect();
    client.ingest(&borrowed).expect("ingest");

    // Per-source: the two most likely copiers of "mirror".
    let topk = client.detect_topk(Some("mirror"), 2).expect("detect_topk");
    let expected = ShardedDetector::new().detect_topk(&store, "mirror", 2).expect("in-process");
    assert_eq!(topk.candidates, expected.stats.candidates);
    assert_eq!(topk.evaluated, expected.stats.evaluated);
    assert_eq!(topk.pruned, expected.stats.pruned);
    assert_eq!(topk.pruned, 0);
    assert_eq!(topk.evaluated, topk.candidates);
    assert_eq!(topk.ranked.len(), expected.ranked.len());
    for (wire, (pair, outcome)) in topk.ranked.iter().zip(&expected.ranked) {
        // Posteriors cross the wire as raw bits: bit-identical, not close.
        assert_eq!(wire.posterior.to_bits(), outcome.posterior.unwrap().to_bits());
        let _ = pair;
    }
    let best = topk.ranked.first().expect("mirror has copiers");
    assert_eq!((best.first.as_str(), best.second.as_str()), ("mirror", "shadow"));
    assert!(best.posterior < 1e-6, "planted pair is decisive");
    // The per-source candidate set is a strict subset of the fleet's pairs.
    let full = client.detect().expect("detect");
    assert!(topk.candidates < full.pairs_considered, "query keeps only the source's pairs");

    // Fleet-wide: the most suspicious pair overall is the planted one.
    let fleet = client.detect_topk(None, 1).expect("fleet detect_topk");
    let best = fleet.ranked.first().expect("fleet has a most suspicious pair");
    assert_eq!((best.first.as_str(), best.second.as_str()), ("mirror", "shadow"));

    // The new verb is accounted in STATS like every other.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests.get(frontend::REQ_DETECT_TOPK), 2);
    assert_eq!(stats.requests.get(frontend::REQ_DETECT), 1);

    client.shutdown().expect("shutdown");
    server.shutdown();
}

#[test]
fn malformed_topk_and_detect_requests_are_typed_errors_not_fatal() {
    let store = ShardedStore::new(2);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest(&[("alice", "D0", "v"), ("bob", "D0", "v")]).expect("ingest");

    // An unknown source name comes back as a typed error naming the source,
    // not as an empty result.
    let err = client.detect_topk(Some("nobody"), 3).expect_err("unknown source");
    let message = err.to_string();
    assert!(message.contains("unknown source name"), "names the defect: {message}");
    assert!(message.contains("nobody"), "names the source: {message}");
    // The same connection keeps serving.
    let ok = client.detect_topk(Some("alice"), 3).expect("known source after the error");
    assert_eq!(ok.ranked.len(), 1, "alice shares D0 with bob only");

    // A mode byte outside the protocol is refused by name.
    let mut bad = Vec::new();
    copydet_model::codec::put_u8(&mut bad, 9);
    copydet_model::codec::put_u32(&mut bad, 1);
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(
        &copydet_model::codec::encode_wire_frame(frontend::REQ_DETECT_TOPK, &bad)
            .expect("tiny frame"),
    )
    .unwrap();
    let (kind, payload) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_ERR);
    let message = error_message(&payload);
    assert!(message.contains("DETECT_TOPK mode"), "names the defect: {message}");

    // Trailing bytes after a well-formed DETECT_TOPK payload are refused.
    let mut bad = Vec::new();
    copydet_model::codec::put_u8(&mut bad, 1);
    copydet_model::codec::put_u32(&mut bad, 1);
    bad.push(0xCD);
    raw.write_all(
        &copydet_model::codec::encode_wire_frame(frontend::REQ_DETECT_TOPK, &bad)
            .expect("tiny frame"),
    )
    .unwrap();
    let (kind, payload) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_ERR);
    let message = error_message(&payload);
    assert!(message.contains("DETECT_TOPK"), "names the request: {message}");
    assert!(message.contains("trailing"), "names the defect: {message}");

    // DETECT declares an empty payload; stray bytes are refused, and the
    // connection keeps serving afterwards.
    raw.write_all(
        &copydet_model::codec::encode_wire_frame(frontend::REQ_DETECT, &[0xEF])
            .expect("tiny frame"),
    )
    .unwrap();
    let (kind, payload) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_ERR);
    let message = error_message(&payload);
    assert!(message.contains("DETECT"), "names the request: {message}");
    assert!(message.contains("trailing"), "names the defect: {message}");
    raw.write_all(
        &copydet_model::codec::encode_wire_frame(frontend::REQ_STATS, &[]).expect("tiny frame"),
    )
    .unwrap();
    let (kind, _) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_OK, "connection survives the malformed frames");

    // Every empty-request verb refuses a stray byte the same way — SHUTDOWN
    // included, which must not stop the server.
    for (verb, name) in [
        (frontend::REQ_STATS, "STATS"),
        (frontend::REQ_METRICS, "METRICS"),
        (frontend::REQ_SHUTDOWN, "SHUTDOWN"),
    ] {
        raw.write_all(&copydet_model::codec::encode_wire_frame(verb, &[0xEF]).expect("tiny frame"))
            .unwrap();
        let (kind, payload) = read_raw_frame(&mut raw);
        assert_eq!(kind, frontend::RESP_ERR, "{name} with a stray byte");
        let message = error_message(&payload);
        assert!(message.contains(name), "names the request: {message}");
        assert!(message.contains("trailing"), "names the defect: {message}");
        raw.write_all(
            &copydet_model::codec::encode_wire_frame(frontend::REQ_STATS, &[]).expect("tiny frame"),
        )
        .unwrap();
        let (kind, _) = read_raw_frame(&mut raw);
        assert_eq!(kind, frontend::RESP_OK, "connection survives a stray byte on {name}");
    }
    assert!(!server.is_stopped(), "a refused SHUTDOWN does not stop the server");
    let stats = client.stats().expect("the server is still serving");
    assert_eq!(stats.requests.get(frontend::REQ_SHUTDOWN), 1, "refused, but counted");

    client.shutdown().expect("shutdown");
    server.shutdown();
}

/// One request of every verb, SHUTDOWN last: each is counted once in the
/// server's STATS trailer and exposed as its own `verb` series in METRICS.
#[test]
fn every_verb_is_counted_and_exposed() {
    use copydet_serve::Severity;
    let store = ShardedStore::new(2);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ingest(&[("alice", "D0", "v"), ("bob", "D0", "v")]).expect("ingest");
    client.detect().expect("detect");
    client.detect_topk(None, 1).expect("detect_topk");
    client.trace(1).expect("trace");
    client.health().expect("health");
    client.events(1, Severity::Info, "").expect("events");
    let exposition = client.metrics().expect("metrics");
    let stats = client.stats().expect("stats");

    let verbs = [
        (frontend::REQ_INGEST, "INGEST"),
        (frontend::REQ_STATS, "STATS"),
        (frontend::REQ_DETECT, "DETECT"),
        (frontend::REQ_SHUTDOWN, "SHUTDOWN"),
        (frontend::REQ_METRICS, "METRICS"),
        (frontend::REQ_TRACE, "TRACE"),
        (frontend::REQ_DETECT_TOPK, "DETECT_TOPK"),
        (frontend::REQ_HEALTH, "HEALTH"),
        (frontend::REQ_EVENTS, "EVENTS"),
    ];
    for (kind, name) in verbs {
        // SHUTDOWN has not been sent yet.
        let expected = u64::from(kind != frontend::REQ_SHUTDOWN);
        assert_eq!(stats.requests.get(kind), expected, "{name}");
        let series = format!("copydet_frontend_requests_total{{verb=\"{name}\"}}");
        assert!(exposition.contains(&series), "METRICS exposes {series}");
    }
    assert_eq!(stats.requests.get(0x7F), 0, "no count for a kind outside the protocol");

    client.shutdown().expect("shutdown");
    assert!(server.is_stopped());
    server.shutdown();
}

#[test]
fn idle_connection_is_reaped_while_server_keeps_serving() {
    use std::io::Read;
    use std::time::Duration;
    let store = ShardedStore::new(2);
    let config = frontend::FrontendConfig { idle_timeout: Some(Duration::from_millis(300)) };
    let server = frontend::serve_with_config(store, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.addr();

    // A client that connects and goes silent: its handler observes the idle
    // timeout and closes the connection cleanly (the pre-fix behavior
    // pinned a handler thread forever).
    let mut silent = TcpStream::connect(addr).expect("silent connect");
    silent.set_read_timeout(Some(Duration::from_secs(30))).expect("client-side guard");
    let mut buf = [0u8; 1];
    let n = silent.read(&mut buf).expect("server closes the idle connection cleanly");
    assert_eq!(n, 0, "clean close (FIN), not a torn frame");

    // The server is still accepting and serving after the reap.
    let mut client = Client::connect(addr).expect("connect after the reap");
    let stats = client.stats().expect("stats after the reap");
    assert_eq!(stats.shards.len(), 2);
    client.shutdown().expect("shutdown");
    server.shutdown();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let store = ShardedStore::new(2);
    let server = frontend::serve(store, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    // An unknown request kind gets a typed error response naming the kind,
    // and the connection keeps serving.
    let mut client = Client::connect(addr).expect("connect");
    {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&copydet_model::codec::encode_wire_frame(0x7F, &[]).expect("tiny frame"))
            .unwrap();
        let (kind, payload) = read_raw_frame(&mut raw);
        assert_eq!(kind, frontend::RESP_ERR);
        let message = error_message(&payload);
        assert!(message.contains("unknown request kind"), "got: {message}");
        assert!(message.contains("0x7f"), "names the offending kind: {message}");
    }
    // A malformed INGEST payload (declared two claims, carries none) comes
    // back as a typed decode error — on a connection that then keeps
    // serving well-formed requests.
    let mut bad = Vec::new();
    copydet_model::codec::put_u32(&mut bad, 2);
    let raw_frame =
        copydet_model::codec::encode_wire_frame(frontend::REQ_INGEST, &bad).expect("tiny frame");
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(&raw_frame).unwrap();
    let (kind, payload) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_ERR);
    let message = error_message(&payload);
    assert!(message.contains("INGEST"), "names the request: {message}");
    // The same malformed-frame connection still serves a valid request.
    raw.write_all(
        &copydet_model::codec::encode_wire_frame(frontend::REQ_STATS, &[]).expect("tiny frame"),
    )
    .unwrap();
    let (kind, _) = read_raw_frame(&mut raw);
    assert_eq!(kind, frontend::RESP_OK, "connection survives the malformed frame");
    // And so does every other connection.
    let stats = client.stats().expect("stats still served");
    assert_eq!(stats.shards.len(), 2);

    client.shutdown().expect("shutdown");
    server.shutdown();
}
