//! Workload generators: a `copydet-synth` preset turned into a seeded claim
//! stream, seeded churn frames and a seeded top-k target list.
//!
//! Everything here is a pure function of the seed; the server child only
//! ever sees the generated claims, over the wire.

use crate::rng::SplitMix64;
use copydet_model::{ItemId, SourceId, ValueId};
use copydet_synth::{presets, SyntheticDataset};

/// Claims per INGEST frame, on every workload (the unit `ingest_*_ms` is
/// defined over).
pub const FRAME_CLAIMS: usize = 256;

/// `k` of every DETECT_TOPK query.
pub const TOPK_K: u32 = 5;

/// One claim of the stream, as ids into the corpus's dataset.
pub type ClaimIds = (SourceId, ItemId, ValueId);

/// The corpus shapes the workloads run on (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `stock_1day`: 55 dense feeds, every pair shares thousands of items.
    Dense(f64),
    /// `book_cs`: thousands of sparse, Zipf-covered sources, tens of
    /// thousands of pairs sharing a handful of items each.
    Zipf(f64),
    /// `stock_2wk`: the dense shape over ten times the items.
    DenseLong(f64),
}

/// A generated corpus: the preset's names and gold standard, and the
/// claims the workload uses, in a seeded arrival order.
pub struct Corpus {
    pub synth: SyntheticDataset,
    /// The live corpus: every `(source, item)` appears once.
    pub stream: Vec<ClaimIds>,
    /// The values of each item's live claims, one entry per claim.
    item_values: Vec<Vec<ValueId>>,
}

impl Corpus {
    /// Generates the preset for `shape`, shuffles its claims into a seeded
    /// arrival order (a preset lists claims source by source; a feed does
    /// not arrive that way, and arrival order fixes the server's ids) and
    /// keeps the first `claims` of them.
    ///
    /// A preset draws each source's coverage at random, so its claim count
    /// — and, squared, the pair overlaps a round walks — moves by several
    /// percent from seed to seed. Callers ask the preset for somewhat more
    /// than `claims` and let this cut the corpus to size: a uniform thinning
    /// that keeps the shape and makes runs on different seeds comparable.
    pub fn generate(shape: Shape, seed: u64, claims: usize) -> Self {
        let synth = match shape {
            Shape::Dense(scale) => presets::stock_1day(scale, seed),
            Shape::Zipf(scale) => presets::book_cs(scale, seed),
            Shape::DenseLong(scale) => presets::stock_2wk(scale, seed),
        };
        let ds = &synth.dataset;
        let mut stream: Vec<ClaimIds> = ds
            .sources()
            .flat_map(|s| ds.claims_of(s).iter().map(move |&(d, v)| (s, d, v)))
            .collect();
        SplitMix64::new(seed ^ 0x5EED_0A44).shuffle(&mut stream);
        stream.truncate(claims);
        let mut item_values = vec![Vec::new(); ds.num_items()];
        for &(_, d, v) in &stream {
            item_values[d.index()].push(v);
        }
        Self { synth, stream, item_values }
    }

    /// The wire form of one claim.
    pub fn names(&self, (s, d, v): ClaimIds) -> (&str, &str, &str) {
        let ds = &self.synth.dataset;
        (ds.source_name(s), ds.item_name(d), ds.value_str(v))
    }

    /// The wire form of a frame.
    pub fn frame_names<'a>(&'a self, frame: &[ClaimIds]) -> Vec<(&'a str, &'a str, &'a str)> {
        frame.iter().map(|&c| self.names(c)).collect()
    }

    /// Σ (len(source) + len(item) + len(value)) over `claims`: the user
    /// bytes `stored_bytes_per_user_byte` divides by.
    pub fn user_bytes(&self, claims: &[ClaimIds]) -> u64 {
        claims
            .iter()
            .map(|&c| {
                let (s, d, v) = self.names(c);
                (s.len() + d.len() + v.len()) as u64
            })
            .sum()
    }

    /// Live claims per source.
    pub fn coverage(&self) -> Vec<usize> {
        let mut coverage = vec![0; self.synth.dataset.num_sources()];
        for &(s, _, _) in &self.stream {
            coverage[s.index()] += 1;
        }
        coverage
    }

    /// Eight seeded DETECT_TOPK targets. Candidate count, hence query cost,
    /// depends on the target, so the list mixes the extremes: the largest
    /// aggregator, a planted original, a planted copier, and five sources
    /// drawn uniformly (on a Zipf corpus those are almost surely tail
    /// sources).
    pub fn topk_targets(&self, seed: u64) -> Vec<SourceId> {
        let ds = &self.synth.dataset;
        let mut rng = SplitMix64::new(seed ^ 0x07A2_6E75);
        let coverage = self.coverage();
        // Only sources the fleet will have seen: a query for a source whose
        // every claim was cut away is an error, not a workload.
        let live: Vec<SourceId> = ds.sources().filter(|s| coverage[s.index()] > 0).collect();
        let largest = live.iter().copied().max_by_key(|&s| (coverage[s.index()], s));
        let mut targets = vec![largest.expect("a source with a claim")];
        let planted: Vec<_> = (self.synth.gold.copies.iter())
            .filter(|c| coverage[c.original.index()] > 0 && coverage[c.copier.index()] > 0)
            .collect();
        if !planted.is_empty() {
            let planted = planted[rng.below(planted.len())];
            targets.push(planted.original);
            targets.push(planted.copier);
        }
        while targets.len() < 8 {
            targets.push(live[rng.below(live.len())]);
        }
        targets
    }
}

/// Seeded churn: overwrites of existing `(source, item)` pairs.
///
/// The new value is the value of one of the item's claims in the generated
/// corpus, drawn uniformly, so every value keeps its share of the item's
/// claims in expectation: live claims, vocabulary, pair overlaps and the
/// disagreement rate all stay stationary however long a run churns, and
/// a sample late in the run measures the same corpus as an early one.
pub struct Churn(SplitMix64);

impl Churn {
    pub fn new(seed: u64) -> Self {
        Self(SplitMix64::new(seed ^ 0x00C4_0121))
    }

    /// The next frame of [`FRAME_CLAIMS`] overwrites of `corpus`.
    pub fn frame(&mut self, corpus: &Corpus) -> Vec<ClaimIds> {
        (0..FRAME_CLAIMS)
            .map(|_| {
                let (s, d, _) = corpus.stream[self.0.below(corpus.stream.len())];
                let values = &corpus.item_values[d.index()];
                (s, d, values[self.0.below(values.len())])
            })
            .collect()
    }
}

/// FNV-1a over a claim sequence by name: the determinism fingerprint of a
/// generated stream.
#[cfg(test)]
pub fn stream_hash(corpus: &Corpus, claims: &[ClaimIds]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &c in claims {
        let (s, d, v) = corpus.names(c);
        for part in [s, d, v] {
            for &b in part.as_bytes().iter().chain(&[0u8]) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fingerprint(seed: u64) -> (u64, u64, Vec<SourceId>) {
        let corpus = Corpus::generate(Shape::Zipf(0.1), seed, 1_000);
        let mut churn = Churn::new(seed);
        let frames: Vec<ClaimIds> = (0..4).flat_map(|_| churn.frame(&corpus)).collect();
        (
            stream_hash(&corpus, &corpus.stream),
            stream_hash(&corpus, &frames),
            corpus.topk_targets(seed),
        )
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(fingerprint(11), fingerprint(11));
        let (a, b) = (fingerprint(11), fingerprint(12));
        assert_ne!(a.0, b.0, "corpus stream");
        assert_ne!(a.1, b.1, "churn frames");
    }

    #[test]
    fn churn_keeps_the_corpus_stationary() {
        let corpus = Corpus::generate(Shape::Dense(0.02), 3, 5_000);
        assert_eq!(corpus.stream.len(), 5_000, "cut to size");
        let mut live: HashMap<(SourceId, ItemId), ValueId> =
            corpus.stream.iter().map(|&(s, d, v)| ((s, d), v)).collect();
        let before = live.len();
        let mut churn = Churn::new(3);
        for _ in 0..20 {
            for (s, d, v) in churn.frame(&corpus) {
                assert!(
                    corpus.stream.iter().any(|&(_, item, value)| item == d && value == v),
                    "a churned value is one the live corpus claims for the item"
                );
                live.insert((s, d), v);
            }
        }
        assert_eq!(live.len(), before, "overwrites never add or remove a live claim");
    }

    #[test]
    fn targets_cover_the_extremes() {
        let corpus = Corpus::generate(Shape::Zipf(0.2), 5, usize::MAX);
        let ds = &corpus.synth.dataset;
        let targets = corpus.topk_targets(5);
        assert_eq!(targets.len(), 8);
        let widest = ds.sources().map(|s| ds.coverage(s)).max().unwrap();
        assert_eq!(ds.coverage(targets[0]), widest);
        assert_eq!(corpus.coverage().iter().sum::<usize>(), corpus.stream.len());
        let gold = &corpus.synth.gold.copies;
        assert!(gold.iter().any(|c| c.original == targets[1] && c.copier == targets[2]));
    }
}
