//! Served answers as a golden file: two seeded claim streams go through the
//! real frontend (a loopback server and the blocking [`Client`], in
//! 256-claim INGEST frames) at 1 and at 4 shards, and the DETECT, fleet
//! DETECT_TOPK and per-source DETECT_TOPK responses are rendered losslessly
//! — names and counts as text, every `f64` as its `to_bits()` hex — and
//! compared with `tests/golden/served.txt`. Both shard counts must render
//! the same bytes.
//!
//! On a mismatch the actual rendering is written under the test target's
//! scratch directory and the test fails naming it; re-blessing means
//! copying that file over the golden.

use copydet_model::SourceId;
use copydet_serve::frontend::{self, Client, FrontendConfig, WireCopyingPair};
use copydet_serve::ShardedStore;
use copydet_synth::{presets, SyntheticDataset};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

const SEED: u64 = 20150301;
const FRAME: usize = 256;
const TOPK: u32 = 10;
const SHARD_COUNTS: [usize; 2] = [1, 4];

type NamedClaim = (String, String, String);

/// One stream to serve: its label, its claims in arrival order, and the
/// sources whose DETECT_TOPK answers the golden pins.
struct Stream {
    label: &'static str,
    claims: Vec<NamedClaim>,
    targets: Vec<String>,
}

/// SplitMix64, so the stream order is a pure function of the seed.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates over `items` with a SplitMix64 stream seeded by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (split_mix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The preset's claims, source by source, optionally shuffled, cut to
/// `limit`, plus the eight top-k targets: the source with the most claims
/// in the cut stream, the first planted original/copier pair that both
/// appear in it, and five sources at a fixed stride of the name-sorted
/// remainder.
fn stream(label: &'static str, synth: SyntheticDataset, shuffled: bool, limit: usize) -> Stream {
    let ds = &synth.dataset;
    let name = |s: SourceId| ds.source_name(s).to_owned();
    let mut claims: Vec<NamedClaim> = ds
        .sources()
        .flat_map(|s| {
            ds.claims_of(s).iter().map(move |&(d, v)| {
                (
                    ds.source_name(s).to_owned(),
                    ds.item_name(d).to_owned(),
                    ds.value_str(v).to_owned(),
                )
            })
        })
        .collect();
    if shuffled {
        shuffle(&mut claims, SEED);
    }
    claims.truncate(limit);

    let mut per_source: HashMap<&str, usize> = HashMap::new();
    for (source, _, _) in &claims {
        *per_source.entry(source.as_str()).or_default() += 1;
    }
    let mut sources: Vec<(&str, usize)> = per_source.into_iter().collect();
    sources.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut targets = vec![sources[0].0.to_owned()];
    let planted = synth
        .gold
        .copies
        .iter()
        .map(|copy| (name(copy.original), name(copy.copier)))
        .find(|(original, copier)| {
            sources.iter().any(|s| s.0 == original) && sources.iter().any(|s| s.0 == copier)
        })
        .expect("a planted copy survives the cut");
    targets.extend([planted.0, planted.1]);
    let mut rest: Vec<&str> =
        sources.iter().map(|s| s.0).filter(|s| !targets.iter().any(|t| t == s)).collect();
    rest.sort_unstable();
    let stride = rest.len() / 5;
    targets.extend((0..5).map(|i| rest[i * stride].to_owned()));
    Stream { label, claims, targets }
}

fn render_pairs(out: &mut String, pairs: &[WireCopyingPair]) {
    for pair in pairs {
        writeln!(out, "  {} {} {:016x}", pair.first, pair.second, pair.posterior.to_bits())
            .unwrap();
    }
}

/// Serves `stream` on a fresh `shards`-shard fleet and renders its answers.
fn render(stream: &Stream, shards: usize) -> String {
    let server = frontend::serve_with_config(
        ShardedStore::new(shards),
        "127.0.0.1:0",
        FrontendConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    for frame in stream.claims.chunks(FRAME) {
        let borrowed: Vec<(&str, &str, &str)> =
            frame.iter().map(|(s, d, v)| (s.as_str(), d.as_str(), v.as_str())).collect();
        client.ingest(&borrowed).expect("ingest");
    }

    let mut out = String::new();
    writeln!(out, "# {} claims={}", stream.label, stream.claims.len()).unwrap();
    let detection = client.detect().expect("detect");
    writeln!(
        out,
        "DETECT pairs_considered={} copying={}",
        detection.pairs_considered,
        detection.copying.len()
    )
    .unwrap();
    render_pairs(&mut out, &detection.copying);
    let targets = std::iter::once(None).chain(stream.targets.iter().map(|t| Some(t.as_str())));
    for target in targets {
        let topk = client.detect_topk(target, TOPK).expect("detect_topk");
        writeln!(
            out,
            "DETECT_TOPK source={} k={TOPK} candidates={} evaluated={} pruned={} ranked={}",
            target.unwrap_or("*"),
            topk.candidates,
            topk.evaluated,
            topk.pruned,
            topk.ranked.len()
        )
        .unwrap();
        render_pairs(&mut out, &topk.ranked);
    }

    client.shutdown().expect("shutdown");
    server.shutdown();
    out
}

#[test]
fn served_answers_match_the_golden() {
    let streams = [
        stream("stock_1day(0.02) shuffled", presets::stock_1day(0.02, SEED), true, 10_000),
        stream("book_cs(0.1)", presets::book_cs(0.1, SEED), false, 1_000),
    ];
    let mut actual = String::new();
    for stream in &streams {
        let renderings: Vec<String> = SHARD_COUNTS.iter().map(|&n| render(stream, n)).collect();
        for (n, rendering) in SHARD_COUNTS.iter().zip(&renderings).skip(1) {
            assert!(
                *rendering == renderings[0],
                "{}: {n} shards answer differently from {} shard",
                stream.label,
                SHARD_COUNTS[0]
            );
        }
        actual.push_str(&renderings[0]);
    }

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/served.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual != expected {
        let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("served.txt");
        std::fs::write(&written, &actual).expect("write the actual rendering");
        panic!(
            "served answers differ from {}; the actual rendering is in {}",
            golden.display(),
            written.display()
        );
    }
}
