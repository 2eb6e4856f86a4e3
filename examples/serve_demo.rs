//! Serving demo: a durable sharded store behind the TCP frontend.
//!
//! Spawns the server on a loopback port, drives it with the codec client
//! (batch ingest → stats → a detection round), then simulates an operator
//! restart: the server stops, every shard recovers from its own directory
//! (WAL + committed segments), and a fresh server reaches the same
//! decisions without re-ingesting anything.
//!
//! Run with: `cargo run --example serve_demo`

use copydetect::serve::frontend::{self, Client};
use copydetect::serve::{Severity, ShardedStore};

const SHARDS: usize = 3;

/// A feed with one planted copier: `mirror` republishes `alpha` verbatim,
/// errors included, while the honest sources make independent mistakes.
fn feed() -> Vec<(String, String, String)> {
    let mut claims = Vec::new();
    for j in 0..30 {
        let item = format!("price/stock-{j}");
        let truth = format!("{}.00", 100 + j);
        // Honest sources agree on the truth but each fumbles its own
        // disjoint slice of the feed — independent errors, not shared ones.
        for (k, honest) in ["beta", "gamma", "delta"].into_iter().enumerate() {
            let value = if j % 5 == k { format!("{}.{}1", 100 + j, k + 1) } else { truth.clone() };
            claims.push((honest.to_owned(), item.clone(), value));
        }
        // alpha gets every tenth price wrong; mirror copies alpha wholesale.
        let alpha_value = if j % 10 == 0 { format!("{}.99", 100 + j) } else { truth };
        claims.push(("alpha".to_owned(), item.clone(), alpha_value.clone()));
        claims.push(("mirror".to_owned(), item, alpha_value));
    }
    claims
}

fn drive_round(addr: std::net::SocketAddr) -> std::io::Result<Vec<(String, String)>> {
    let mut client = Client::connect(addr)?;
    let stats = client.stats()?;
    let live: u64 = stats.shards.iter().map(|s| s.live_claims).sum();
    println!(
        "  fleet: {} shard(s), {live} live claims, items per shard: {:?} (up {} µs, {} request(s) \
         served)",
        stats.shards.len(),
        stats.shards.iter().map(|s| s.num_items).collect::<Vec<_>>(),
        stats.uptime_micros,
        stats.requests.ingest + stats.requests.stats + stats.requests.detect,
    );
    let detection = client.detect()?;
    println!("  detection considered {} pair(s):", detection.pairs_considered);
    for pair in &detection.copying {
        println!("    {} <-> {} (posterior {:.2e})", pair.first, pair.second, pair.posterior);
    }
    // The point query: who copies alpha? A round filtered to alpha's pairs,
    // so the answer matches the full round's ranking bit for bit.
    let top = client.detect_topk(Some("alpha"), 1)?;
    let best = top.ranked.first().expect("alpha shares items with every source");
    println!(
        "  top copier of alpha: {} <-> {} (posterior {:.2e}; ranked {} of alpha's pair(s))",
        best.first, best.second, best.posterior, top.evaluated,
    );
    assert_eq!((best.first.as_str(), best.second.as_str()), ("alpha", "mirror"));
    // The operator surface: a health verdict plus the flight recorder's
    // most recent notable events.
    let health = client.health()?;
    if health.ok {
        println!("  health: ok");
    } else {
        for reason in &health.reasons {
            println!("  health: degraded — {reason}");
        }
    }
    for event in client.events(3, Severity::Info, "")?.iter().rev() {
        println!("  event #{}: [{}] {}.{}", event.seq, event.severity, event.component, event.name);
    }
    client.shutdown()?;
    Ok(detection.copying.iter().map(|p| (p.first.clone(), p.second.clone())).collect())
}

fn main() -> std::io::Result<()> {
    let root = std::env::temp_dir().join(format!("copydet_serve_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // --- First life: ingest over the wire, detect, shut down. -------------
    println!("opening a durable {SHARDS}-shard store under {}", root.display());
    let store = ShardedStore::open(&root, SHARDS).expect("open sharded store");
    let server = frontend::serve(store.clone(), "127.0.0.1:0")?;
    let addr = server.addr();
    println!("serving on {addr}");

    let claims = feed();
    let mut client = Client::connect(addr)?;
    for batch in claims.chunks(32) {
        let borrowed: Vec<(&str, &str, &str)> =
            batch.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())).collect();
        client.ingest(&borrowed)?;
    }
    drop(client);
    println!("ingested {} claims over the wire", claims.len());
    let copiers = drive_round(addr)?;
    server.shutdown();
    store.sync().expect("flush shard WALs");
    drop(store); // every shard directory is now at rest

    // --- Restart: every shard recovers from its own directory. ------------
    println!("\nrestarting: recovering every shard from disk (no re-ingest)");
    let recovered = ShardedStore::open(&root, SHARDS).expect("recover sharded store");
    println!(
        "  recovered {} claims across {} shard(s)",
        recovered.num_claims(),
        recovered.num_shards()
    );
    assert_eq!(recovered.num_claims(), claims.len());
    let server = frontend::serve(recovered, "127.0.0.1:0")?;
    let copiers_after = drive_round(server.addr())?;
    server.shutdown();
    assert_eq!(copiers, copiers_after, "a recovered fleet reaches the same decisions");
    println!("\nsame copier pairs before and after the restart — recovery is transparent");

    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
