//! The output oracle: what a correct server must answer.
//!
//! The reference is the single-store PAIRWISE baseline, built exactly as
//! `crates/serve/tests/shard_equivalence.rs` builds it (one `DatasetBuilder`
//! pass over the same claim stream, uniform 0.8 accuracies, vote
//! probabilities, `pairwise_detection`) — an implementation that shares no
//! code with the sharded serving path beyond the per-pair arithmetic.
//! Every mismatch is returned as a line of text; the caller counts each
//! into the failed operations and fails the command.

use crate::workload::{ClaimIds, Corpus};
use copydet_bayes::{CopyParams, SourceAccuracies};
use copydet_detect::{pairwise_detection, RoundInput};
use copydet_fusion::{value_probabilities, VoteConfig};
use copydet_model::DatasetBuilder;
use copydet_serve::frontend::{WireCopyingPair, WireDetection, WireTopK};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Accuracy the serving path's vote bootstrap assumes
/// (`LiveConfig::default().initial_accuracy`).
pub const INITIAL_ACCURACY: f64 = 0.8;

/// What DETECT must answer for a claim stream.
pub struct Reference {
    /// The expected response: copying pairs by name in global pair-id
    /// order (a single writer's arrival order is the builder's id order).
    pub detection: WireDetection,
    /// Distinct `(source, item)` pairs in the stream: the live claims
    /// STATS must report.
    pub live_claims: u64,
    /// Wall time of `pairwise_detection` alone (`detect.pairwise_ms`).
    pub pairwise_time: Duration,
}

/// Builds the reference for `claims` in arrival order.
pub fn reference(corpus: &Corpus, claims: impl IntoIterator<Item = ClaimIds>) -> Reference {
    let mut builder = DatasetBuilder::new();
    for c in claims {
        let (s, d, v) = corpus.names(c);
        builder.add_claim(s, d, v);
    }
    let ds = builder.build();
    let params = CopyParams::paper_defaults();
    let accuracies = SourceAccuracies::uniform(ds.num_sources(), INITIAL_ACCURACY)
        .expect("0.8 is a probability");
    let probabilities = value_probabilities(&ds, &accuracies, None, &VoteConfig::new(params));
    let start = Instant::now();
    let result = pairwise_detection(&RoundInput::new(&ds, &accuracies, &probabilities, params));
    let pairwise_time = start.elapsed();
    let mut copying: Vec<_> =
        result.outcomes.iter().filter(|(_, o)| o.decision.is_copying()).collect();
    copying.sort_by_key(|(pair, _)| **pair);
    let copying = copying
        .into_iter()
        .map(|(pair, outcome)| WireCopyingPair {
            first: ds.source_name(pair.first()).to_owned(),
            second: ds.source_name(pair.second()).to_owned(),
            posterior: outcome.posterior.unwrap_or(0.0),
        })
        .collect();
    Reference {
        detection: WireDetection { pairs_considered: result.pairs_considered as u64, copying },
        live_claims: ds.num_claims() as u64,
        pairwise_time,
    }
}

/// Single-writer check: the same pairs by name, in the same order, with the
/// same posterior bits.
pub fn check_detect_exact(what: &str, got: &WireDetection, want: &WireDetection) -> Vec<String> {
    let mut failures = Vec::new();
    if got.pairs_considered != want.pairs_considered {
        failures.push(format!(
            "{what}: considered {} pairs, the reference {}",
            got.pairs_considered, want.pairs_considered
        ));
    }
    if got.copying.len() != want.copying.len() {
        failures.push(format!(
            "{what}: {} copying pairs, the reference {}",
            got.copying.len(),
            want.copying.len()
        ));
    }
    for (g, w) in got.copying.iter().zip(&want.copying) {
        if (&g.first, &g.second) != (&w.first, &w.second) {
            failures.push(format!(
                "{what}: pair ({}, {}) where the reference has ({}, {})",
                g.first, g.second, w.first, w.second
            ));
        } else if g.posterior.to_bits() != w.posterior.to_bits() {
            failures.push(format!(
                "{what}: pair ({}, {}) posterior {:e} differs from the reference {:e} bitwise",
                g.first, g.second, g.posterior, w.posterior
            ));
        }
    }
    failures
}

/// Relative tolerance of [`check_detect_by_name`].
pub const POSTERIOR_TOLERANCE: f64 = 1e-9;

/// Multi-writer check: two writers' arrival order permutes the global ids,
/// hence the pair order, which name of a pair comes first, and the order
/// floating-point sums fold in — so pairs are matched by unordered name
/// pair and posteriors to [`POSTERIOR_TOLERANCE`] relative.
pub fn check_detect_by_name(what: &str, got: &WireDetection, want: &WireDetection) -> Vec<String> {
    let key = |p: &WireCopyingPair| {
        if p.first <= p.second {
            (p.first.clone(), p.second.clone())
        } else {
            (p.second.clone(), p.first.clone())
        }
    };
    let mut failures = Vec::new();
    if got.pairs_considered != want.pairs_considered {
        failures.push(format!(
            "{what}: considered {} pairs, the reference {}",
            got.pairs_considered, want.pairs_considered
        ));
    }
    let mut expected: HashMap<_, f64> =
        want.copying.iter().map(|p| (key(p), p.posterior)).collect();
    for p in &got.copying {
        match expected.remove(&key(p)) {
            None => failures.push(format!(
                "{what}: pair ({}, {}) is not copying in the reference",
                p.first, p.second
            )),
            Some(w) => {
                let scale = w.abs().max(f64::MIN_POSITIVE);
                if ((p.posterior - w) / scale).abs() > POSTERIOR_TOLERANCE {
                    failures.push(format!(
                        "{what}: pair ({}, {}) posterior {:e}, the reference {:e}",
                        p.first, p.second, p.posterior, w
                    ));
                }
            }
        }
    }
    for (first, second) in expected.into_keys() {
        failures.push(format!("{what}: reference pair ({first}, {second}) is missing"));
    }
    failures
}

/// A per-source DETECT_TOPK answer against the DETECT of the same fleet
/// state: ranked ascending by posterior, every pair contains the target,
/// pairs the two answers share carry identical posterior bits, and no
/// copying pair of the target that ranks strictly above the last returned
/// one is missing.
pub fn check_topk_consistent(
    what: &str,
    topk: &WireTopK,
    detect: &WireDetection,
    target: &str,
    k: u32,
) -> Vec<String> {
    let mut failures = Vec::new();
    if topk.ranked.len() > k as usize {
        failures.push(format!("{what}: {} pairs for k = {k}", topk.ranked.len()));
    }
    if topk.evaluated + topk.pruned != topk.candidates {
        failures.push(format!(
            "{what}: evaluated {} + pruned {} != candidates {}",
            topk.evaluated, topk.pruned, topk.candidates
        ));
    }
    if topk.ranked.windows(2).any(|w| w[0].posterior > w[1].posterior) {
        failures.push(format!("{what}: not ranked by ascending posterior"));
    }
    let copying: HashMap<(&str, &str), f64> = detect
        .copying
        .iter()
        .filter(|p| p.first == target || p.second == target)
        .map(|p| ((p.first.as_str(), p.second.as_str()), p.posterior))
        .collect();
    let mut returned = HashSet::new();
    for p in &topk.ranked {
        let key = (p.first.as_str(), p.second.as_str());
        returned.insert(key);
        if p.first != target && p.second != target {
            failures.push(format!("{what}: pair ({}, {}) lacks the target", p.first, p.second));
        }
        if copying.get(&key).is_some_and(|w| w.to_bits() != p.posterior.to_bits()) {
            failures.push(format!(
                "{what}: pair ({}, {}) posterior differs from the round's bitwise",
                p.first, p.second
            ));
        }
    }
    // With fewer than k pairs returned the candidates are exhausted, so
    // every copying pair of the target must be among them.
    let cutoff = match topk.ranked.last() {
        Some(last) if topk.ranked.len() == k as usize => last.posterior,
        _ => f64::INFINITY,
    };
    for (key, posterior) in copying {
        if posterior < cutoff && !returned.contains(&key) {
            failures.push(format!(
                "{what}: copying pair ({}, {}) ranks above the last returned pair but is missing",
                key.0, key.1
            ));
        }
    }
    failures
}

/// Planted-copier recall and precision of a detection against the
/// generator's gold standard (undirected pairs, by name).
pub fn gold_quality(corpus: &Corpus, detection: &WireDetection) -> (f64, f64) {
    let ds = &corpus.synth.dataset;
    let ordered = |a: &str, b: &str| {
        if a <= b {
            (a.to_owned(), b.to_owned())
        } else {
            (b.to_owned(), a.to_owned())
        }
    };
    let gold: HashSet<(String, String)> = corpus
        .synth
        .gold
        .copies
        .iter()
        .map(|c| ordered(ds.source_name(c.copier), ds.source_name(c.original)))
        .collect();
    let found: HashSet<(String, String)> =
        detection.copying.iter().map(|p| ordered(&p.first, &p.second)).collect();
    let hits = found.intersection(&gold).count() as f64;
    let ratio = |den: usize| if den == 0 { 1.0 } else { hits / den as f64 };
    (ratio(gold.len()), ratio(found.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Shape;

    fn pair(first: &str, second: &str, posterior: f64) -> WireCopyingPair {
        WireCopyingPair { first: first.into(), second: second.into(), posterior }
    }

    fn small_reference() -> (Corpus, Reference) {
        let corpus = Corpus::generate(Shape::Dense(0.02), 9, 10_000);
        let reference = reference(&corpus, corpus.stream.iter().copied());
        (corpus, reference)
    }

    #[test]
    fn the_reference_matches_itself_and_finds_the_planted_copiers() {
        let (corpus, reference) = small_reference();
        assert_eq!(reference.live_claims, corpus.stream.len() as u64);
        assert!(!reference.detection.copying.is_empty());
        assert!(check_detect_exact("self", &reference.detection, &reference.detection).is_empty());
        assert!(check_detect_by_name("self", &reference.detection, &reference.detection).is_empty());
        let (recall, precision) = gold_quality(&corpus, &reference.detection);
        assert!(recall > 0.5, "recall {recall}");
        assert!(precision > 0.5, "precision {precision}");
    }

    /// The acceptance demonstration: one flipped posterior bit is a failed
    /// check (and, through `failed`, a non-zero exit of the command).
    #[test]
    fn a_corrupted_posterior_fails_both_checks() {
        let (_, reference) = small_reference();
        let mut corrupted = reference.detection.clone();
        let p = &mut corrupted.copying[0].posterior;
        *p = f64::from_bits(p.to_bits() ^ 1);
        let exact = check_detect_exact("corrupted", &corrupted, &reference.detection);
        assert_eq!(exact.len(), 1, "{exact:?}");
        assert!(exact[0].contains("bitwise"));
        // One ulp is inside the multi-writer tolerance; a 1e-6 error is not.
        assert!(check_detect_by_name("ulp", &corrupted, &reference.detection).is_empty());
        corrupted.copying[0].posterior *= 1.0 + 1e-6;
        let by_name = check_detect_by_name("corrupted", &corrupted, &reference.detection);
        assert_eq!(by_name.len(), 1, "{by_name:?}");
    }

    #[test]
    fn missing_extra_and_reordered_pairs_are_failures() {
        let want = WireDetection {
            pairs_considered: 3,
            copying: vec![pair("a", "b", 0.1), pair("a", "c", 0.2)],
        };
        let missing = WireDetection { pairs_considered: 3, copying: vec![pair("a", "b", 0.1)] };
        assert!(!check_detect_exact("missing", &missing, &want).is_empty());
        assert!(!check_detect_by_name("missing", &missing, &want).is_empty());
        let swapped = WireDetection {
            pairs_considered: 3,
            copying: vec![pair("c", "a", 0.2), pair("b", "a", 0.1)],
        };
        assert!(!check_detect_exact("swapped", &swapped, &want).is_empty());
        assert!(check_detect_by_name("swapped", &swapped, &want).is_empty());
    }

    #[test]
    fn topk_consistency_rules() {
        let detect = WireDetection {
            pairs_considered: 9,
            copying: vec![pair("t", "x", 0.01), pair("t", "y", 0.02), pair("u", "v", 0.001)],
        };
        let good = WireTopK {
            candidates: 4,
            evaluated: 4,
            pruned: 0,
            ranked: vec![pair("t", "x", 0.01), pair("t", "y", 0.02)],
        };
        assert!(check_topk_consistent("good", &good, &detect, "t", 2).is_empty());
        // k larger than the candidate set: still complete.
        assert!(check_topk_consistent("good", &good, &detect, "t", 5).is_empty());

        let mut missing = good.clone();
        missing.ranked = vec![pair("t", "y", 0.02), pair("t", "z", 0.9)];
        assert!(check_topk_consistent("missing", &missing, &detect, "t", 2)
            .iter()
            .any(|f| f.contains("missing")));

        let mut bits = good.clone();
        bits.ranked[0].posterior = 0.010000001;
        assert!(check_topk_consistent("bits", &bits, &detect, "t", 2)
            .iter()
            .any(|f| f.contains("bitwise")));

        let mut unsorted = good.clone();
        unsorted.ranked.reverse();
        assert!(!check_topk_consistent("unsorted", &unsorted, &detect, "t", 2).is_empty());

        let mut stranger = good.clone();
        stranger.ranked[1] = pair("u", "v", 0.5);
        assert!(check_topk_consistent("stranger", &stranger, &detect, "t", 2)
            .iter()
            .any(|f| f.contains("lacks the target")));
    }
}
