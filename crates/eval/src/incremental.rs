//! INCREMENTAL — iterative copy detection that refines the previous round's
//! decisions instead of recomputing them (Section V).
//!
//! After the second round of the truth-finding loop, value probabilities and
//! source accuracies change only slightly, and so do the copy decisions. The
//! incremental detector therefore:
//!
//! 1. runs HYBRID from scratch for the warm-up rounds (the paper uses the
//!    first two rounds) while recording, for every materialized pair, the
//!    starting scores `Ĉ→ / Ĉ←`, the decision, the decision point, and the
//!    number of shared values before/after it (the "preparation step");
//! 2. in later rounds it
//!    * recomputes pairs involving a source whose accuracy changed a lot,
//!    * classifies index entries into big/small score changes (computing the
//!      new entry score with the new probability but the old accuracies, as
//!      the paper prescribes, so probability changes are isolated from
//!      accuracy changes),
//!    * applies the *big* per-entry score changes to each affected pair's
//!      `Ĉ` exactly, and bounds the effect of all *small* changes by the
//!      largest small change `Δρ` times the number of shared values
//!      (the paper's Step 1/Step 2 estimates),
//!    * keeps the previous decision whenever the estimate already clears the
//!      relevant threshold (`θcp` for copying pairs, `θind` for no-copying
//!      pairs) — this is the "pass 1" in which the vast majority of pairs
//!      terminate (Table VIII) —
//!    * and otherwise recomputes the pair's scores exactly and re-decides
//!      (the paper's compensation Steps 2–5 collapsed into one exact
//!      recomputation; the set of pairs reaching this stage is small, so the
//!      asymptotic behaviour matches while the implementation stays
//!      verifiable — see DESIGN.md §4).
//!
//! Beyond the paper, the detector also supports **growing datasets**: when a
//! [`RoundInput`] carries a [`DatasetDelta`](copydet_model::DatasetDelta)
//! (claims added or changed since the previous round, produced by the
//! `copydet-store` claim store), the stored index is patched in place
//! (entries of touched items rebuilt, shared-item counts updated) and only
//! the pairs involving a source with new/changed claims are re-decided
//! exactly; every other pair — including pairs that merely saw a touched
//! item's probabilities move — flows through the usual pass-1/2/3
//! maintenance. See DESIGN.md §5.
//!
//! The detector records per-round pass statistics ([`IncrementalRoundStats`])
//! so the Table VIII experiment can be regenerated.

use crate::api::CopyDetector;
use crate::scan::{index_scan, IndexScanConfig, PairScanRecord, ScanRecords};
use copydet_bayes::contribution::same_value_scores_both;
use copydet_bayes::max_contribution::max_contribution;
use copydet_bayes::{CopyDecision, SourceAccuracies, ValueProbabilities};
use copydet_detect::{DetectionResult, PairOutcome, RoundInput};
use copydet_index::InvertedIndex;
use copydet_model::codec::usize_to_u64;
use copydet_model::SourcePair;
use copydet_obs::{registry, Counter};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Pairs the incremental maintenance looked at, summed over all incremental
/// rounds in the process (`pairs_total` of each round's stats).
fn pairs_considered_total() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_incremental_pairs_considered_total"))
}

/// Pairs that needed an exact recomputation (passes 2/3 plus the accuracy-
/// and delta-triggered recomputes), summed over all incremental rounds.
fn pairs_recomputed_total() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_incremental_pairs_recomputed_total"))
}

/// Configuration of the incremental detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalConfig {
    /// Threshold on an entry's contribution-score change above which the
    /// change counts as "big" (the paper sets 1.0 for value probability).
    pub rho_entry_score: f64,
    /// Threshold on a source's accuracy change above which every pair
    /// containing the source is recomputed from scratch (the paper sets
    /// 0.2).
    pub rho_accuracy: f64,
    /// Shared-item threshold handed to the underlying HYBRID runs.
    pub hybrid_threshold: u32,
    /// Number of initial rounds detected from scratch with HYBRID before
    /// switching to incremental updates (the paper uses 2).
    pub warmup_rounds: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self { rho_entry_score: 1.0, rho_accuracy: 0.2, hybrid_threshold: 16, warmup_rounds: 2 }
    }
}

/// Which pass of the incremental update each pair terminated in, per round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalRoundStats {
    /// The (1-based) fusion round these statistics belong to.
    pub round: usize,
    /// Pairs tracked by this round's bookkeeping: those carried over from
    /// the previous round plus any first materialized by this round's
    /// dataset delta (so `pass1 + pass2 + pass3 + accuracy_recomputed +
    /// delta_recomputed == pairs_total`).
    pub pairs_total: usize,
    /// Pairs whose previous decision was confirmed by the big-change update
    /// plus the `Δρ` estimate alone (the paper's pass 1).
    pub pass1: usize,
    /// Pairs that needed an exact recomputation but kept their decision
    /// (pass 2).
    pub pass2: usize,
    /// Pairs that needed an exact recomputation and changed their decision
    /// (pass 3).
    pub pass3: usize,
    /// Pairs recomputed because one of their sources had a big accuracy
    /// change.
    pub accuracy_recomputed: usize,
    /// Pairs recomputed because the round's dataset delta touched them
    /// (new/changed claims of one of their sources, or co-occurrence in a
    /// rebuilt index entry). Includes pairs materialized for the first time.
    pub delta_recomputed: usize,
}

struct IncrementalState {
    index: InvertedIndex,
    old_accuracies: SourceAccuracies,
    old_probabilities: ValueProbabilities,
    /// Entry scores consistent with the `old_*` snapshots, indexed like
    /// `index.entries()`.
    old_entry_scores: Vec<f64>,
    records: HashMap<SourcePair, PairScanRecord>,
}

/// The INCREMENTAL detector (HYBRID for warm-up rounds, incremental
/// refinement afterwards).
pub struct IncrementalDetector {
    config: IncrementalConfig,
    state: Option<IncrementalState>,
    stats: Vec<IncrementalRoundStats>,
}

impl IncrementalDetector {
    /// Creates the detector with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(IncrementalConfig::default())
    }

    /// Creates the detector with a custom configuration.
    pub fn with_config(config: IncrementalConfig) -> Self {
        Self { config, state: None, stats: Vec::new() }
    }

    /// Per-round pass statistics collected so far (empty until the first
    /// incremental round).
    pub fn round_stats(&self) -> &[IncrementalRoundStats] {
        &self.stats
    }

    /// The detector configuration.
    pub fn config(&self) -> IncrementalConfig {
        self.config
    }

    fn warmup_round(&mut self, input: &RoundInput<'_>) -> DetectionResult {
        let build_start = Instant::now();
        let index = InvertedIndex::build(
            input.dataset,
            input.accuracies,
            input.probabilities,
            &input.params,
        );
        let build_time = build_start.elapsed();
        let config = IndexScanConfig {
            track_records: true,
            ..IndexScanConfig::hybrid(self.config.hybrid_threshold)
        };
        let mut out = index_scan(input, &index, &config, "INCREMENTAL");
        out.result.index_build_time = build_time;
        let ScanRecords { pairs, .. } = out.records.expect("records were requested");
        let old_entry_scores = index.entries().iter().map(|e| e.score).collect();
        self.state = Some(IncrementalState {
            index,
            old_accuracies: input.accuracies.clone(),
            old_probabilities: input.probabilities.clone(),
            old_entry_scores,
            records: pairs,
        });
        out.result
    }

    fn incremental_round(&mut self, input: &RoundInput<'_>, round: usize) -> DetectionResult {
        let start = Instant::now();
        let state = self.state.as_mut().expect("incremental rounds follow a warm-up round");
        let params = &input.params;
        let thresholds = params.thresholds();
        let ctx = input.scoring_context();

        let mut result = DetectionResult::new("INCREMENTAL");
        let mut stats = IncrementalRoundStats { round, ..Default::default() };

        // Dataset-delta maintenance: patch the stored index for added/changed
        // claims and re-decide exactly the pairs the delta can have affected.
        // Everything else flows through the ordinary pass-1/2/3 machinery
        // below.
        let mut delta_pairs: HashSet<SourcePair> = HashSet::new();
        if input.delta.is_some() {
            // Pad the old-state snapshots over the grown id space so new
            // sources/items never register as accuracy/probability changes
            // (their pairs are all delta pairs and recomputed exactly). This
            // must happen even for an *empty* delta: the id space can grow
            // without a claim change (e.g. a source interned before its
            // first claim arrives).
            state.old_accuracies.extend_from(input.accuracies);
            state.old_probabilities.extend_items(input.dataset.num_items());
        }
        if let Some(delta) = input.delta.filter(|d| !d.is_empty()) {
            // Rebuild the entries of touched items against the grown
            // dataset, scored with the *old* state: provider membership is
            // refreshed, while the old-state score baseline stays intact so
            // the classification below sees the probability movement of
            // touched items as ordinary entry-score deltas.
            let rebuilt = state.index.apply_claim_delta(
                input.dataset,
                &state.old_accuracies,
                &state.old_probabilities,
                params,
                delta,
                &mut state.old_entry_scores,
            );

            // Affected pairs: exactly those involving a source with
            // new/changed claims — their shared-item counts, shared-value
            // sets and different-value adjustments moved, which the
            // score-delta machinery cannot express. Pairs of *unchanged*
            // sources co-occurring in a rebuilt entry only experience
            // probability movement and flow through pass 1/2/3 below. New
            // co-occurrences can only appear in rebuilt entries, so scanning
            // those plus the existing records finds every affected pair.
            for &idx in &rebuilt {
                let entry = &state.index.entries()[idx];
                result.counter.auxiliary += 1;
                for i in 0..entry.providers.len() {
                    for j in (i + 1)..entry.providers.len() {
                        let (s1, s2) = (entry.providers[i], entry.providers[j]);
                        if delta.touches_source(s1) || delta.touches_source(s2) {
                            delta_pairs.insert(SourcePair::new(s1, s2));
                        }
                    }
                }
            }
            for &pair in state.records.keys() {
                if delta.touches_source(pair.first()) || delta.touches_source(pair.second()) {
                    delta_pairs.insert(pair);
                }
            }

            // Exact recomputation on the grown dataset; pairs co-occurring
            // for the first time get a record here.
            for &pair in &delta_pairs {
                let evidence = ctx.score_pair(pair.first(), pair.second());
                result.counter.score_updates += 2 * evidence.shared_items() as u64;
                result.shared_values_examined += evidence.shared_values as u64;
                let posterior = evidence.posterior_independence(params);
                result.counter.pair_finalizations += 1;
                let decision = CopyDecision::from_posterior(posterior);
                stats.delta_recomputed += 1;
                state.records.insert(
                    pair,
                    PairScanRecord {
                        decision,
                        posterior: Some(posterior),
                        c_hat_to: evidence.c_to(),
                        c_hat_from: evidence.c_from(),
                        decision_pos: u32::MAX,
                        shared_before_decision: evidence.shared_values as u32,
                        shared_after_decision: 0,
                        shared_items: evidence.shared_items() as u32,
                        decided_by_bounds: false,
                    },
                );
                result.pairs_considered += 1;
                result.outcomes.insert(
                    pair,
                    PairOutcome {
                        decision,
                        posterior: Some(posterior),
                        c_to: evidence.c_to(),
                        c_from: evidence.c_from(),
                    },
                );
            }
        }

        // Sources whose accuracy changed a lot: their pairs are recomputed.
        let big_accuracy_sources: HashSet<usize> = input
            .dataset
            .sources()
            .filter(|&s| {
                (input.accuracies.get(s) - state.old_accuracies.get(s)).abs()
                    >= self.config.rho_accuracy
            })
            .map(|s| s.index())
            .collect();

        // Classify entries by how much their contribution score changed when
        // the value probabilities moved (accuracies held at the old
        // snapshot, per the paper).
        let entries = state.index.entries();
        let mut new_entry_scores = Vec::with_capacity(entries.len());
        let mut provider_accs: Vec<f64> = Vec::new();
        let mut big_entries: Vec<usize> = Vec::new();
        let mut delta_rho_decrease = 0.0f64;
        let mut delta_rho_increase = 0.0f64;
        for (idx, entry) in entries.iter().enumerate() {
            provider_accs.clear();
            provider_accs.extend(entry.providers.iter().map(|&s| state.old_accuracies.get(s)));
            let new_p = input.probabilities.get(entry.item, entry.value);
            let new_score = max_contribution(new_p, &provider_accs, params);
            result.counter.auxiliary += 1;
            let delta = new_score - state.old_entry_scores[idx];
            if delta.abs() >= self.config.rho_entry_score {
                big_entries.push(idx);
            } else if delta < 0.0 {
                delta_rho_decrease = delta_rho_decrease.max(-delta);
            } else {
                delta_rho_increase = delta_rho_increase.max(delta);
            }
            new_entry_scores.push(new_score);
        }

        // Pass 1 scan: exact per-pair score changes from the big-change
        // entries only.
        #[derive(Default, Clone, Copy)]
        struct PairDelta {
            to: f64,
            from: f64,
            big_shared: u32,
        }
        let mut deltas: HashMap<SourcePair, PairDelta> = HashMap::new();
        for &idx in &big_entries {
            let entry = &entries[idx];
            for i in 0..entry.providers.len() {
                for j in (i + 1)..entry.providers.len() {
                    let s1 = entry.providers[i];
                    let s2 = entry.providers[j];
                    if big_accuracy_sources.contains(&s1.index())
                        || big_accuracy_sources.contains(&s2.index())
                    {
                        continue;
                    }
                    let pair = SourcePair::new(s1, s2);
                    if !state.records.contains_key(&pair) || delta_pairs.contains(&pair) {
                        continue;
                    }
                    let old_p = state.old_probabilities.get(entry.item, entry.value);
                    let new_p = input.probabilities.get(entry.item, entry.value);
                    let (old_to, old_from) = same_value_scores_both(
                        old_p,
                        state.old_accuracies.get(pair.first()),
                        state.old_accuracies.get(pair.second()),
                        params,
                    );
                    let (new_to, new_from) = same_value_scores_both(
                        new_p,
                        input.accuracies.get(pair.first()),
                        input.accuracies.get(pair.second()),
                        params,
                    );
                    result.counter.score_updates += 4;
                    let slot = deltas.entry(pair).or_default();
                    slot.to += new_to - old_to;
                    slot.from += new_from - old_from;
                    slot.big_shared += 1;
                }
            }
        }

        // Per-pair decision maintenance.
        stats.pairs_total = state.records.len();
        for (pair, record) in state.records.iter_mut() {
            // Delta-affected pairs were already recomputed above.
            if delta_pairs.contains(pair) {
                continue;
            }
            let needs_accuracy_recompute = big_accuracy_sources.contains(&pair.first().index())
                || big_accuracy_sources.contains(&pair.second().index());
            let delta = deltas.get(pair).copied().unwrap_or_default();
            let shared_values = record.shared_before_decision + record.shared_after_decision;
            let small_shared = shared_values.saturating_sub(delta.big_shared) as f64;

            let mut decided_in_pass1 = false;
            if !needs_accuracy_recompute {
                match record.decision {
                    CopyDecision::Copying => {
                        // Conservative estimate: apply the big changes
                        // exactly and assume every small change is the worst
                        // observed decrease. If even then the score clears
                        // θcp, the copying decision certainly stands.
                        let est_to = record.c_hat_to + delta.to - delta_rho_decrease * small_shared;
                        let est_from =
                            record.c_hat_from + delta.from - delta_rho_decrease * small_shared;
                        result.counter.bound_computations += 1;
                        if est_to >= thresholds.theta_cp || est_from >= thresholds.theta_cp {
                            decided_in_pass1 = true;
                        }
                    }
                    CopyDecision::NoCopying => {
                        // Mirror image: assume every small change is the
                        // worst observed increase; if the score still stays
                        // below θind in both directions, no-copying stands.
                        let est_to = record.c_hat_to + delta.to + delta_rho_increase * small_shared;
                        let est_from =
                            record.c_hat_from + delta.from + delta_rho_increase * small_shared;
                        result.counter.bound_computations += 1;
                        if est_to < thresholds.theta_ind && est_from < thresholds.theta_ind {
                            decided_in_pass1 = true;
                        }
                    }
                }
            }

            if decided_in_pass1 {
                stats.pass1 += 1;
                record.c_hat_to += delta.to;
                record.c_hat_from += delta.from;
                result.pairs_considered += 1;
                result.shared_values_examined += delta.big_shared as u64;
                result.outcomes.insert(
                    *pair,
                    PairOutcome {
                        decision: record.decision,
                        posterior: record.posterior,
                        c_to: record.c_hat_to,
                        c_from: record.c_hat_from,
                    },
                );
                continue;
            }

            // Exact recomputation (the collapsed Steps 2–5 / the big-accuracy
            // case).
            let evidence = ctx.score_pair(pair.first(), pair.second());
            result.counter.score_updates += 2 * evidence.shared_items() as u64;
            result.shared_values_examined += evidence.shared_values as u64;
            let posterior = evidence.posterior_independence(params);
            result.counter.pair_finalizations += 1;
            let decision = CopyDecision::from_posterior(posterior);
            if needs_accuracy_recompute {
                stats.accuracy_recomputed += 1;
            } else if decision == record.decision {
                stats.pass2 += 1;
            } else {
                stats.pass3 += 1;
            }
            record.decision = decision;
            record.posterior = Some(posterior);
            record.c_hat_to = evidence.c_to();
            record.c_hat_from = evidence.c_from();
            record.decision_pos = u32::MAX;
            record.shared_before_decision = evidence.shared_values as u32;
            record.shared_after_decision = 0;
            record.decided_by_bounds = false;
            result.pairs_considered += 1;
            result.outcomes.insert(
                *pair,
                PairOutcome {
                    decision,
                    posterior: Some(posterior),
                    c_to: evidence.c_to(),
                    c_from: evidence.c_from(),
                },
            );
        }

        // Refresh the snapshots so the next round's deltas are measured
        // against this round's state.
        let mut refreshed_scores = Vec::with_capacity(entries.len());
        for entry in entries.iter() {
            provider_accs.clear();
            provider_accs.extend(entry.providers.iter().map(|&s| input.accuracies.get(s)));
            let p = input.probabilities.get(entry.item, entry.value);
            refreshed_scores.push(max_contribution(p, &provider_accs, params));
            result.counter.auxiliary += 1;
        }
        state.old_entry_scores = refreshed_scores;
        state.old_accuracies = input.accuracies.clone();
        state.old_probabilities = input.probabilities.clone();

        pairs_considered_total().add(usize_to_u64(stats.pairs_total));
        pairs_recomputed_total().add(usize_to_u64(
            stats.pass2 + stats.pass3 + stats.accuracy_recomputed + stats.delta_recomputed,
        ));
        self.stats.push(stats);
        result.detection_time = start.elapsed();
        result
    }
}

impl Default for IncrementalDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl CopyDetector for IncrementalDetector {
    fn name(&self) -> &'static str {
        "INCREMENTAL"
    }

    fn detect_round(&mut self, input: &RoundInput<'_>, round: usize) -> DetectionResult {
        if round <= self.config.warmup_rounds || self.state.is_none() {
            self.warmup_round(input)
        } else {
            self.incremental_round(input, round)
        }
    }

    fn reset(&mut self) {
        self.state = None;
        self.stats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::CopyParams;
    use copydet_detect::pairwise_detection;
    use copydet_model::{motivating_example, ItemId, SourceId, ValueId};

    struct Fixture {
        ex: copydet_model::MotivatingExample,
        accuracies: SourceAccuracies,
        probabilities: ValueProbabilities,
        params: CopyParams,
    }

    impl Fixture {
        fn new() -> Self {
            let ex = motivating_example();
            let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
            let probabilities = ValueProbabilities::from_table(ex.probability_table()).unwrap();
            Self { ex, accuracies, probabilities, params: CopyParams::paper_defaults() }
        }

        fn input(&self) -> RoundInput<'_> {
            RoundInput::new(&self.ex.dataset, &self.accuracies, &self.probabilities, self.params)
        }
    }

    /// With unchanged probabilities and accuracies, every pair terminates in
    /// pass 1 and the decisions are identical to the warm-up round —
    /// mirroring Example 5.4's "0 computations in the final round".
    #[test]
    fn steady_state_rounds_keep_all_decisions_in_pass_1() {
        let f = Fixture::new();
        let mut detector = IncrementalDetector::new();
        let warmup1 = detector.detect_round(&f.input(), 1);
        let warmup2 = detector.detect_round(&f.input(), 2);
        assert_eq!(warmup1.num_copying_pairs(), warmup2.num_copying_pairs());
        let round3 = detector.detect_round(&f.input(), 3);
        let stats = detector.round_stats().last().copied().unwrap();
        assert_eq!(stats.round, 3);
        assert_eq!(stats.pass3, 0, "no decision should flip when nothing changed");
        assert_eq!(stats.accuracy_recomputed, 0);
        assert!(stats.pass1 > 0);
        // Most pairs terminate in pass 1; only near-boundary (posterior)
        // pairs are recomputed.
        assert!(stats.pass1 >= stats.pass2);
        assert_eq!(
            round3.copying_pairs().collect::<std::collections::BTreeSet<_>>(),
            warmup2.copying_pairs().collect::<std::collections::BTreeSet<_>>()
        );
        // Incremental rounds do far less scoring work than the warm-up.
        assert!(round3.counter.score_updates < warmup2.counter.score_updates);
    }

    /// When value probabilities swing hard (the paper's Round-3 example,
    /// Table IV: NY.Albany and NY.NewYork flip), the affected decisions are
    /// re-examined and end up matching a from-scratch PAIRWISE run on the new
    /// state.
    #[test]
    fn big_probability_changes_are_tracked() {
        let f = Fixture::new();
        let mut detector = IncrementalDetector::new();
        let _ = detector.detect_round(&f.input(), 1);
        let _ = detector.detect_round(&f.input(), 2);

        // Flip the New York probabilities, as in Table IV:
        // NY.Albany .07 → .77 and NY.NewYork .84 → .16 (relative to an
        // earlier round); here we simply move them to the new values.
        let mut new_probs = f.probabilities.clone();
        let ny = f.ex.dataset.item_by_name("NY").unwrap();
        let albany = f.ex.dataset.value_by_str("Albany").unwrap();
        let newyork = f.ex.dataset.value_by_str("NewYork").unwrap();
        new_probs.set(ny, albany, 0.94).unwrap();
        new_probs.set(ny, newyork, 0.02).unwrap();
        // And make the Albany probability *drop* for a different scenario:
        // use a fresh detector state below for the flip test.
        let input3 = RoundInput::new(&f.ex.dataset, &f.accuracies, &new_probs, f.params);
        let round3 = detector.detect_round(&input3, 3);
        let pairwise = pairwise_detection(&input3);
        // Decisions match the exhaustive baseline on the new state for every
        // pair INCREMENTAL tracks.
        for (pair, outcome) in &round3.outcomes {
            assert_eq!(
                outcome.decision,
                pairwise.decision(*pair),
                "pair {pair} disagrees with PAIRWISE after the probability change"
            );
        }
    }

    /// Example 5.1's flip: in the early rounds S0's accuracy is still low
    /// (0.75 in Table II) and NY.Albany looks false (probability .07), so
    /// (S0, S1) is judged copying; once the probabilities correct themselves
    /// (Albany .94, the Table III state) the incremental round flips the
    /// pair back to independent.
    #[test]
    fn decisions_can_flip_when_probabilities_move() {
        let f = Fixture::new();
        // Round-2-like state: S0 accuracy .75, S1 accuracy .98, Albany
        // believed false, NewYork believed true.
        let mut warmup_accs = f.ex.accuracies.clone();
        warmup_accs[0] = 0.75;
        warmup_accs[1] = 0.98;
        let warmup_accuracies = SourceAccuracies::from_vec(warmup_accs).unwrap();
        let mut warped = f.probabilities.clone();
        let ny = f.ex.dataset.item_by_name("NY").unwrap();
        let albany = f.ex.dataset.value_by_str("Albany").unwrap();
        let newyork = f.ex.dataset.value_by_str("NewYork").unwrap();
        warped.set(ny, albany, 0.07).unwrap();
        warped.set(ny, newyork, 0.84).unwrap();
        let warped_input = RoundInput::new(&f.ex.dataset, &warmup_accuracies, &warped, f.params);

        // Raise the accuracy-change threshold so the flip is driven by the
        // probability passes rather than the big-accuracy-change fallback.
        let mut detector = IncrementalDetector::with_config(IncrementalConfig {
            rho_accuracy: 0.5,
            ..IncrementalConfig::default()
        });
        let r1 = detector.detect_round(&warped_input, 1);
        let _r2 = detector.detect_round(&warped_input, 2);
        let s0s1 = SourcePair::new(SourceId::new(0), SourceId::new(1));
        assert!(
            r1.decision(s0s1).is_copying(),
            "with Albany considered false and S0 at accuracy .75, S0/S1 look like copiers \
             (the paper computes Pr(S0⊥S1) = .32 in this state)"
        );

        // Round 3 sees the corrected probabilities and accuracies
        // (the Table III state).
        let corrected_input = f.input();
        let r3 = detector.detect_round(&corrected_input, 3);
        assert!(
            !r3.decision(s0s1).is_copying(),
            "incremental round should flip (S0, S1) back to independent"
        );
        let pairwise = pairwise_detection(&corrected_input);
        for (pair, outcome) in &r3.outcomes {
            assert_eq!(outcome.decision, pairwise.decision(*pair), "pair {pair}");
        }
        let stats = detector.round_stats().last().unwrap();
        assert!(stats.pass3 > 0, "at least one decision flipped in pass 3");
    }

    /// A big accuracy change forces recomputation of the affected pairs.
    #[test]
    fn big_accuracy_change_triggers_recompute() {
        let f = Fixture::new();
        let mut detector = IncrementalDetector::new();
        let _ = detector.detect_round(&f.input(), 1);
        let _ = detector.detect_round(&f.input(), 2);
        let mut new_acc = f.accuracies.clone();
        new_acc.set(SourceId::new(2), 0.9); // was 0.2
        let input = RoundInput::new(&f.ex.dataset, &new_acc, &f.probabilities, f.params);
        let _ = detector.detect_round(&input, 3);
        let stats = detector.round_stats().last().unwrap();
        assert!(stats.accuracy_recomputed > 0);
    }

    /// A dataset delta (new source, new item, changed value) is absorbed by
    /// patching the stored index and recomputing only the affected pairs;
    /// the decisions match a from-scratch PAIRWISE run on the grown dataset.
    #[test]
    fn dataset_delta_round_matches_pairwise_on_grown_dataset() {
        use copydet_model::{Dataset, DatasetBuilder, DatasetDelta};
        // A deterministic probability for each (item, value) group, stable
        // across the old and the grown snapshot so untouched items keep
        // identical probabilities (isolating the dataset delta itself).
        fn probs_for(ds: &Dataset) -> ValueProbabilities {
            let mut p = ValueProbabilities::new(ds.num_items());
            for g in ds.groups() {
                let x = 0.05 + 0.06 * ((g.item.index() * 7 + g.value.index() * 3) % 15) as f64;
                p.set(g.item, g.value, x).unwrap();
            }
            p
        }
        let ex = motivating_example();
        let replay = |extra: &[(&str, &str, &str)]| {
            let mut b = DatasetBuilder::new();
            for c in ex.dataset.claim_refs() {
                b.add_claim(c.source, c.item, c.value);
            }
            for (s, d, v) in extra {
                b.add_claim(s, d, v);
            }
            b.build()
        };
        let old_ds = replay(&[]);
        // Grow: a new copier of S0, a brand-new item, and a changed claim.
        let new_ds = replay(&[
            ("S10", "NJ", "Trenton"),
            ("S10", "AZ", "Tempe"),
            ("S10", "NY", "Albany"),
            ("S10", "WA", "Olympia"),
            ("S0", "WA", "Olympia"),
            ("S6", "TX", "Austin"),
        ]);
        let delta = DatasetDelta::between(&old_ds, &new_ds);
        assert!(delta.len() >= 6);

        let params = CopyParams::paper_defaults();
        let old_accuracies = SourceAccuracies::uniform(old_ds.num_sources(), 0.8).unwrap();
        let old_probs = probs_for(&old_ds);
        let mut detector = IncrementalDetector::new();
        let old_input = RoundInput::new(&old_ds, &old_accuracies, &old_probs, params);
        let _ = detector.detect_round(&old_input, 1);
        let _ = detector.detect_round(&old_input, 2);

        let accuracies = SourceAccuracies::uniform(new_ds.num_sources(), 0.8).unwrap();
        let probabilities = probs_for(&new_ds);
        let input =
            RoundInput::new(&new_ds, &accuracies, &probabilities, params).with_delta(&delta);
        let round3 = detector.detect_round(&input, 3);
        let stats = detector.round_stats().last().copied().unwrap();
        assert!(stats.delta_recomputed > 0, "delta pairs must be recomputed");
        // (On this dense toy dataset nearly every pair shares a touched item;
        // the savings on realistic workloads are asserted by the store's
        // integration tests.)

        let pairwise = pairwise_detection(&input);
        for (pair, outcome) in &round3.outcomes {
            assert_eq!(
                outcome.decision,
                pairwise.decision(*pair),
                "pair {pair} disagrees with PAIRWISE after the delta"
            );
        }
        // The new source's pairs are materialized without a full rescan.
        let s10 = new_ds.source_by_name("S10").unwrap();
        assert!(
            round3.outcomes.keys().any(|p| p.contains(s10)),
            "pairs of the new source must be materialized"
        );
    }

    /// Reset clears all cross-round state and statistics.
    #[test]
    fn reset_clears_state() {
        let f = Fixture::new();
        let mut detector = IncrementalDetector::new();
        let _ = detector.detect_round(&f.input(), 1);
        let _ = detector.detect_round(&f.input(), 2);
        let _ = detector.detect_round(&f.input(), 3);
        assert!(!detector.round_stats().is_empty());
        detector.reset();
        assert!(detector.round_stats().is_empty());
        // After a reset the next call is a warm-up again.
        let r = detector.detect_round(&f.input(), 3);
        assert_eq!(r.algorithm, "INCREMENTAL");
        assert!(detector.round_stats().is_empty());
    }

    /// The configuration accessors behave.
    #[test]
    fn config_accessors() {
        let config = IncrementalConfig { rho_entry_score: 0.5, ..Default::default() };
        let detector = IncrementalDetector::with_config(config);
        assert_eq!(detector.config().rho_entry_score, 0.5);
        assert_eq!(detector.config().warmup_rounds, 2);
        assert_eq!(IncrementalDetector::default().config().hybrid_threshold, 16);
        // silence unused warnings for ids used in docs
        let _ = (ItemId::new(0), ValueId::new(0));
    }
}
