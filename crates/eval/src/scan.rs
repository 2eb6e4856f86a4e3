//! The unified inverted-index scan behind INDEX, BOUND, BOUND+ and HYBRID.
//!
//! All four single-round algorithms of Sections III–IV share the same outer
//! structure: scan the index entries (strong evidence first), maintain state
//! for every pair of sources that co-occurs in an entry outside `Ē`, and
//! finalize whatever is still undecided after the scan. They differ only in
//! *how each pair is treated while scanning*:
//!
//! * **exhaustive** pairs (INDEX, and HYBRID's small pairs) just accumulate
//!   contribution scores and are finalized after the scan;
//! * **bounded** pairs (BOUND/BOUND+, and HYBRID's large pairs) additionally
//!   maintain the lower/upper bounds of Eq. 9–10 and terminate as soon as a
//!   bound crosses `θcp` or `θind`; BOUND+ re-evaluates the bounds lazily
//!   using the `Tmin`/`Tmax` timers of Section IV-B.
//!
//! [`index_scan`] implements this once; [`index_detection`],
//! [`bound_detection`] and [`hybrid_detection`] are thin configurations of
//! it. The scan can also record the per-pair bookkeeping INCREMENTAL needs
//! for later rounds ([`ScanRecords`]).

use crate::api::CopyDetector;
use crate::ordering::EntryOrdering;
use copydet_bayes::{CopyDecision, PairEvidence, SameValueScore};
use copydet_detect::{DetectionResult, PairOutcome, RoundInput};
use copydet_index::InvertedIndex;
use copydet_model::{ItemId, SourcePair, ValueId};
use std::collections::HashMap;
use std::time::Instant;

/// How the scan decides which pairs get bound maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairModeRule {
    /// Every pair accumulates scores exhaustively (INDEX).
    AllExhaustive,
    /// Every pair maintains bounds and may terminate early (BOUND / BOUND+).
    AllBounded,
    /// Pairs sharing at most this many items are exhaustive, the rest are
    /// bounded (HYBRID; the paper uses 16).
    HybridThreshold(u32),
}

/// Configuration of one index scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexScanConfig {
    /// Order in which entries are processed.
    pub ordering: EntryOrdering,
    /// Which pairs are bounded.
    pub mode_rule: PairModeRule,
    /// Re-evaluate bounds lazily with the `Tmin`/`Tmax` timers (BOUND+)
    /// instead of on every update (BOUND). Ignored for exhaustive pairs.
    pub lazy_bounds: bool,
    /// Record the per-pair bookkeeping INCREMENTAL needs.
    pub track_records: bool,
}

impl IndexScanConfig {
    /// INDEX: exhaustive accumulation for every pair.
    pub fn index() -> Self {
        Self {
            ordering: EntryOrdering::ByContribution,
            mode_rule: PairModeRule::AllExhaustive,
            lazy_bounds: false,
            track_records: false,
        }
    }

    /// BOUND (`lazy = false`) or BOUND+ (`lazy = true`).
    pub fn bound(lazy: bool) -> Self {
        Self {
            ordering: EntryOrdering::ByContribution,
            mode_rule: PairModeRule::AllBounded,
            lazy_bounds: lazy,
            track_records: false,
        }
    }

    /// HYBRID with the given shared-item switch threshold (the paper uses
    /// 16).
    pub fn hybrid(threshold: u32) -> Self {
        Self {
            ordering: EntryOrdering::ByContribution,
            mode_rule: PairModeRule::HybridThreshold(threshold),
            lazy_bounds: true,
            track_records: false,
        }
    }
}

/// Per-pair bookkeeping recorded for INCREMENTAL (Section V's "preparation
/// step").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairScanRecord {
    /// The decision reached this round.
    pub decision: CopyDecision,
    /// Exact posterior, when one was computed.
    pub posterior: Option<f64>,
    /// Starting score `Ĉ→` for the next round.
    pub c_hat_to: f64,
    /// Starting score `Ĉ←` for the next round.
    pub c_hat_from: f64,
    /// Position in the processing order after which the pair was decided
    /// (`u32::MAX` when it was only decided at finalization).
    pub decision_pos: u32,
    /// Shared values observed before (and at) the decision point.
    pub shared_before_decision: u32,
    /// Shared values observed after the decision point (`|Ē₁|`).
    pub shared_after_decision: u32,
    /// Number of items the pair shares (`l(S1, S2)`).
    pub shared_items: u32,
    /// Whether the pair was decided from bounds (`true`) or from exact
    /// accumulated scores (`false`).
    pub decided_by_bounds: bool,
}

/// The bookkeeping of one scan, consumed by INCREMENTAL.
#[derive(Debug, Clone)]
pub struct ScanRecords {
    /// Per-pair records.
    pub pairs: HashMap<SourcePair, PairScanRecord>,
    /// The processing order, as `(item, value)` entry keys.
    pub order_keys: Vec<(ItemId, ValueId)>,
}

/// Result of an index scan: the detection result plus optional bookkeeping.
#[derive(Debug, Clone)]
pub struct ScanOutput {
    /// The per-pair outcomes and efficiency accounting.
    pub result: DetectionResult,
    /// Bookkeeping for INCREMENTAL, when requested.
    pub records: Option<ScanRecords>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PairMode {
    Exhaustive,
    Bounded,
}

#[derive(Debug, Clone)]
struct PairState {
    mode: PairMode,
    evidence: PairEvidence,
    shared_items: u32,
    concluded: Option<CopyDecision>,
    decision_pos: u32,
    c_dec_to: f64,
    c_dec_from: f64,
    shared_after_decision: u32,
    // BOUND+ timers
    next_min_check: u32,
    next_max_n1: u32,
    next_max_n2: u32,
}

impl PairState {
    fn new(mode: PairMode, shared_items: u32) -> Self {
        Self {
            mode,
            evidence: PairEvidence::empty(),
            shared_items,
            concluded: None,
            decision_pos: u32::MAX,
            c_dec_to: 0.0,
            c_dec_from: 0.0,
            shared_after_decision: 0,
            next_min_check: 0,
            next_max_n1: 0,
            next_max_n2: 0,
        }
    }
}

/// Runs the unified scan over a pre-built index.
///
/// The index must have been built from the same dataset and the same
/// accuracy / probability state as `input`.
pub fn index_scan(
    input: &RoundInput<'_>,
    index: &InvertedIndex,
    config: &IndexScanConfig,
    algorithm_name: &str,
) -> ScanOutput {
    let start = Instant::now();
    let params = &input.params;
    let thresholds = params.thresholds();
    let diff_penalty = params.different_value_score();
    let dataset = input.dataset;
    let accuracies = input.accuracies;

    let order = config.ordering.permutation(index.entries(), index.ebar_start());
    let suffix_max = index.suffix_max_scores(&order);
    let coverage: Vec<u32> = dataset.sources().map(|s| dataset.coverage(s) as u32).collect();
    let mut n_seen: Vec<u32> = vec![0; dataset.num_sources()];

    let mut result = DetectionResult::new(algorithm_name);
    let mut states: HashMap<SourcePair, PairState> = HashMap::new();

    for (pos, &entry_idx) in order.iter().enumerate() {
        let entry = &index.entries()[entry_idx as usize];
        let in_ebar = index.in_ebar(entry_idx as usize);
        let m_next = suffix_max[pos + 1];

        for &s in &entry.providers {
            n_seen[s.index()] += 1;
        }
        // The entry's score, and the pair accuracies it was scored at: reused
        // while they repeat (every pair at a uniform accuracy).
        let mut cached: Option<((u64, u64), SameValueScore)> = None;

        for i in 0..entry.providers.len() {
            for j in (i + 1)..entry.providers.len() {
                let s1 = entry.providers[i];
                let s2 = entry.providers[j];
                let pair = SourcePair::new(s1, s2);

                let state = match states.get_mut(&pair) {
                    Some(state) => state,
                    None => {
                        if in_ebar {
                            // Step III only touches pairs encountered before.
                            continue;
                        }
                        let shared_items = index.shared_items(pair);
                        let mode = match config.mode_rule {
                            PairModeRule::AllExhaustive => PairMode::Exhaustive,
                            PairModeRule::AllBounded => PairMode::Bounded,
                            PairModeRule::HybridThreshold(t) => {
                                if shared_items <= t {
                                    PairMode::Exhaustive
                                } else {
                                    PairMode::Bounded
                                }
                            }
                        };
                        states.entry(pair).or_insert_with(|| PairState::new(mode, shared_items))
                    }
                };

                if state.concluded.is_some() {
                    if config.track_records {
                        state.shared_after_decision += 1;
                    }
                    continue;
                }

                // Fold the shared value into both directional scores.
                let (a1, a2) = (accuracies.get(pair.first()), accuracies.get(pair.second()));
                let bits = (a1.to_bits(), a2.to_bits());
                let score = match cached {
                    Some((cached_bits, score)) if cached_bits == bits => score,
                    _ => {
                        let score = SameValueScore::new(entry.probability, a1, a2, params);
                        cached = Some((bits, score));
                        score
                    }
                };
                state.evidence.add_same_value_score(score);
                result.counter.score_updates += 2;

                if state.mode != PairMode::Bounded {
                    continue;
                }

                let n0 = state.evidence.shared_values as u32;
                let l = state.shared_items;
                let first_observation = n0 == 1;

                // Lower bounds (Eq. 9): assume every remaining shared item
                // disagrees.
                let check_min =
                    !config.lazy_bounds || first_observation || n0 >= state.next_min_check;
                if check_min {
                    let remaining = (l - n0) as f64;
                    let cmin_to = state.evidence.c_to() + remaining * diff_penalty;
                    let cmin_from = state.evidence.c_from() + remaining * diff_penalty;
                    result.counter.bound_computations += 1;
                    if cmin_to >= thresholds.theta_cp || cmin_from >= thresholds.theta_cp {
                        state.concluded = Some(CopyDecision::Copying);
                        state.decision_pos = pos as u32;
                        state.c_dec_to = cmin_to;
                        state.c_dec_from = cmin_from;
                        continue;
                    }
                    if config.lazy_bounds {
                        let gap = thresholds.theta_cp - cmin_to.max(cmin_from);
                        let per_value = m_next - diff_penalty;
                        let t_min = (gap / per_value).ceil().max(1.0) as u32;
                        state.next_min_check = n0 + t_min;
                    }
                }

                // Upper bounds (Eq. 10): estimate how many scanned items the
                // two sources must already disagree on, assume every unseen
                // shared item scores the best remaining entry score.
                let cov1 = coverage[pair.first().index()].max(1) as f64;
                let cov2 = coverage[pair.second().index()].max(1) as f64;
                let seen1 = n_seen[pair.first().index()] as f64;
                let seen2 = n_seen[pair.second().index()] as f64;
                let check_max = !config.lazy_bounds
                    || first_observation
                    || seen1 as u32 >= state.next_max_n1
                    || seen2 as u32 >= state.next_max_n2;
                if check_max {
                    let l_f = l as f64;
                    let h_est = (seen1 * l_f / cov1).max(seen2 * l_f / cov2);
                    let h = h_est.max(n0 as f64).min(l_f);
                    let cmax_to =
                        state.evidence.c_to() + (h - n0 as f64) * diff_penalty + (l_f - h) * m_next;
                    let cmax_from = state.evidence.c_from()
                        + (h - n0 as f64) * diff_penalty
                        + (l_f - h) * m_next;
                    result.counter.bound_computations += 1;
                    if cmax_to < thresholds.theta_ind && cmax_from < thresholds.theta_ind {
                        state.concluded = Some(CopyDecision::NoCopying);
                        state.decision_pos = pos as u32;
                        state.c_dec_to = cmax_to;
                        state.c_dec_from = cmax_from;
                        continue;
                    }
                    if config.lazy_bounds {
                        let per_value = m_next - diff_penalty;
                        let t_max0 = ((cmax_to.max(cmax_from) - thresholds.theta_ind) / per_value)
                            .ceil()
                            .max(1.0);
                        let needed = t_max0 + (h - n0 as f64);
                        state.next_max_n1 = (needed * cov1 / l_f).ceil() as u32;
                        state.next_max_n2 = (needed * cov2 / l_f).ceil() as u32;
                    }
                }
            }
        }
    }

    // Finalization (Step IV / INDEX step 3).
    let mut records = config.track_records.then(|| ScanRecords {
        pairs: HashMap::with_capacity(states.len()),
        order_keys: order
            .iter()
            .map(|&i| {
                let e = &index.entries()[i as usize];
                (e.item, e.value)
            })
            .collect(),
    });

    result.pairs_considered = states.len();
    for (pair, mut state) in states {
        result.shared_values_examined += state.evidence.shared_values as u64;
        let outcome = match state.concluded {
            Some(decision) => PairOutcome {
                decision,
                posterior: None,
                c_to: state.c_dec_to,
                c_from: state.c_dec_from,
            },
            None => {
                let n0 = state.evidence.shared_values as u32;
                let different = state.shared_items.saturating_sub(n0);
                state.evidence.add_different_values(different as usize, params);
                result.counter.pair_finalizations += 1;
                state.decision_pos = u32::MAX;
                state.c_dec_to = state.evidence.c_to();
                state.c_dec_from = state.evidence.c_from();
                if state.mode == PairMode::Bounded && state.evidence.implies_no_copying(&thresholds)
                {
                    PairOutcome {
                        decision: CopyDecision::NoCopying,
                        posterior: None,
                        c_to: state.c_dec_to,
                        c_from: state.c_dec_from,
                    }
                } else {
                    let posterior = state.evidence.posterior_independence(params);
                    result.counter.pair_finalizations += 1;
                    PairOutcome {
                        decision: CopyDecision::from_posterior(posterior),
                        posterior: Some(posterior),
                        c_to: state.c_dec_to,
                        c_from: state.c_dec_from,
                    }
                }
            }
        };
        result.outcomes.insert(pair, outcome);

        if let Some(records) = records.as_mut() {
            let decided_by_bounds = state.decision_pos != u32::MAX;
            // Ĉ for copying pairs removes the pessimistic penalty that Cmin
            // charged for the shared values observed after the decision
            // point; for everything else Ĉ is the recorded score itself.
            let (c_hat_to, c_hat_from) =
                if decided_by_bounds && outcome.decision == CopyDecision::Copying {
                    let lift = state.shared_after_decision as f64 * params.different_value_score();
                    (state.c_dec_to - lift, state.c_dec_from - lift)
                } else {
                    (state.c_dec_to, state.c_dec_from)
                };
            records.pairs.insert(
                pair,
                PairScanRecord {
                    decision: outcome.decision,
                    posterior: outcome.posterior,
                    c_hat_to,
                    c_hat_from,
                    decision_pos: state.decision_pos,
                    shared_before_decision: state.evidence.shared_values as u32,
                    shared_after_decision: state.shared_after_decision,
                    shared_items: state.shared_items,
                    decided_by_bounds,
                },
            );
        }
    }

    result.detection_time = start.elapsed();
    ScanOutput { result, records }
}

fn build_index(input: &RoundInput<'_>) -> (InvertedIndex, std::time::Duration) {
    let start = Instant::now();
    let index =
        InvertedIndex::build(input.dataset, input.accuracies, input.probabilities, &input.params);
    (index, start.elapsed())
}

/// The INDEX algorithm of Section III: build the inverted index, scan it in
/// decreasing score order, accumulate exact scores for every pair that
/// co-occurs outside `Ē`, finalize with the bulk different-value adjustment.
///
/// Produces the same binary decisions as PAIRWISE (Proposition 3.5).
pub fn index_detection(input: &RoundInput<'_>) -> DetectionResult {
    let (index, build_time) = build_index(input);
    let mut out = index_scan(input, &index, &IndexScanConfig::index(), "INDEX");
    out.result.index_build_time = build_time;
    out.result
}

/// The BOUND (`lazy = false`) / BOUND+ (`lazy = true`) algorithms of
/// Section IV.
pub fn bound_detection(input: &RoundInput<'_>, lazy: bool) -> DetectionResult {
    let (index, build_time) = build_index(input);
    let name = if lazy { "BOUND+" } else { "BOUND" };
    let mut out = index_scan(input, &index, &IndexScanConfig::bound(lazy), name);
    out.result.index_build_time = build_time;
    out.result
}

/// The HYBRID algorithm (end of Section IV): INDEX-style handling for pairs
/// sharing at most `threshold` items, BOUND+ for the rest.
pub fn hybrid_detection(input: &RoundInput<'_>, threshold: u32) -> DetectionResult {
    let (index, build_time) = build_index(input);
    let mut out = index_scan(input, &index, &IndexScanConfig::hybrid(threshold), "HYBRID");
    out.result.index_build_time = build_time;
    out.result
}

/// INDEX as a reusable detector.
#[derive(Debug, Clone, Copy)]
pub struct IndexDetector {
    /// Entry processing order (ByContribution unless overridden for the
    /// Figure 3 ordering experiments).
    pub ordering: EntryOrdering,
}

impl Default for IndexDetector {
    fn default() -> Self {
        Self { ordering: EntryOrdering::ByContribution }
    }
}

impl IndexDetector {
    /// Creates the detector with the default (by-contribution) ordering.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CopyDetector for IndexDetector {
    fn name(&self) -> &'static str {
        "INDEX"
    }

    fn detect_round(&mut self, input: &RoundInput<'_>, _round: usize) -> DetectionResult {
        let (index, build_time) = build_index(input);
        let config = IndexScanConfig { ordering: self.ordering, ..IndexScanConfig::index() };
        let mut out = index_scan(input, &index, &config, "INDEX");
        out.result.index_build_time = build_time;
        out.result
    }
}

/// BOUND / BOUND+ as a reusable detector.
#[derive(Debug, Clone, Copy)]
pub struct BoundDetector {
    /// Use the lazy `Tmin`/`Tmax` timers of Section IV-B (BOUND+).
    pub lazy: bool,
    /// Entry processing order.
    pub ordering: EntryOrdering,
}

impl BoundDetector {
    /// BOUND: bounds re-evaluated on every update.
    pub fn eager() -> Self {
        Self { lazy: false, ordering: EntryOrdering::ByContribution }
    }

    /// BOUND+: bounds re-evaluated lazily.
    pub fn lazy() -> Self {
        Self { lazy: true, ordering: EntryOrdering::ByContribution }
    }
}

impl CopyDetector for BoundDetector {
    fn name(&self) -> &'static str {
        if self.lazy {
            "BOUND+"
        } else {
            "BOUND"
        }
    }

    fn detect_round(&mut self, input: &RoundInput<'_>, _round: usize) -> DetectionResult {
        let (index, build_time) = build_index(input);
        let config =
            IndexScanConfig { ordering: self.ordering, ..IndexScanConfig::bound(self.lazy) };
        let mut out = index_scan(input, &index, &config, self.name());
        out.result.index_build_time = build_time;
        out.result
    }
}

/// HYBRID as a reusable detector.
#[derive(Debug, Clone, Copy)]
pub struct HybridDetector {
    /// Pairs sharing at most this many items are handled INDEX-style
    /// (the paper uses 16).
    pub switch_threshold: u32,
    /// Entry processing order.
    pub ordering: EntryOrdering,
}

impl Default for HybridDetector {
    fn default() -> Self {
        Self { switch_threshold: 16, ordering: EntryOrdering::ByContribution }
    }
}

impl HybridDetector {
    /// Creates the detector with the paper's switch threshold of 16 shared
    /// items.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the detector with a custom switch threshold.
    pub fn with_threshold(switch_threshold: u32) -> Self {
        Self { switch_threshold, ordering: EntryOrdering::ByContribution }
    }
}

impl CopyDetector for HybridDetector {
    fn name(&self) -> &'static str {
        "HYBRID"
    }

    fn detect_round(&mut self, input: &RoundInput<'_>, _round: usize) -> DetectionResult {
        let (index, build_time) = build_index(input);
        let config = IndexScanConfig {
            ordering: self.ordering,
            ..IndexScanConfig::hybrid(self.switch_threshold)
        };
        let mut out = index_scan(input, &index, &config, "HYBRID");
        out.result.index_build_time = build_time;
        out.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
    use copydet_detect::pairwise_detection;
    use copydet_model::SourceId;
    use copydet_synth::motivating_example;

    struct Fixture {
        ex: copydet_synth::MotivatingExample,
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

    fn pair(a: u32, b: u32) -> SourcePair {
        SourcePair::new(SourceId::new(a), SourceId::new(b))
    }

    /// Proposition 3.5: INDEX obtains the same binary results as PAIRWISE.
    #[test]
    fn index_matches_pairwise_decisions() {
        let f = Fixture::new();
        let pairwise = pairwise_detection(&f.input());
        let index = index_detection(&f.input());
        let mut a: Vec<_> = pairwise.copying_pairs().collect();
        let mut b: Vec<_> = index.copying_pairs().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Every planted copying pair is found.
        for &p in &f.ex.copying_pairs {
            assert!(index.decision(p).is_copying());
        }
    }

    /// Example 3.6: INDEX considers 26 pairs, examines 51 shared values and
    /// performs 51·2 + 26·2 = 154 computations, versus PAIRWISE's
    /// 181·2 = 362 score computations on this data.
    #[test]
    fn example_3_6_computation_counts() {
        let f = Fixture::new();
        let result = index_detection(&f.input());
        assert_eq!(result.pairs_considered, 26);
        assert_eq!(result.shared_values_examined, 51);
        assert_eq!(result.counter.score_updates, 51 * 2);
        assert_eq!(result.counter.pair_finalizations, 26 * 2);
        assert_eq!(result.computations(), 154);
        let pairwise = pairwise_detection(&f.input());
        assert!(result.computations() < pairwise.computations());
    }

    /// Example 4.2: BOUND concludes copying for (S2, S3) after observing only
    /// 2 of their 4 shared values, and concludes no-copying for (S0, S1)
    /// after 3 of 4.
    #[test]
    fn example_4_2_early_termination() {
        let f = Fixture::new();
        let (index, _) = build_index(&f.input());
        let out = index_scan(
            &f.input(),
            &index,
            &IndexScanConfig { track_records: true, ..IndexScanConfig::bound(false) },
            "BOUND",
        );
        let records = out.records.unwrap();
        let r23 = records.pairs[&pair(2, 3)];
        assert_eq!(r23.decision, CopyDecision::Copying);
        assert!(r23.decided_by_bounds);
        assert_eq!(r23.shared_before_decision, 2, "copying concluded after 2 shared values");
        let r01 = records.pairs[&pair(0, 1)];
        assert_eq!(r01.decision, CopyDecision::NoCopying);
        assert!(r01.decided_by_bounds);
        assert_eq!(r01.shared_before_decision, 3, "no-copying concluded after 3 shared values");
        // BOUND examines fewer shared values than INDEX overall
        // (the paper reports 33 vs 51).
        let index_result = index_detection(&f.input());
        assert!(out.result.shared_values_examined < index_result.shared_values_examined);
        assert_eq!(out.result.pairs_considered, 26);
    }

    /// BOUND / BOUND+ / HYBRID agree with PAIRWISE on the motivating example
    /// (the paper accepts small deviations in general; here there are none).
    #[test]
    fn bounded_variants_match_pairwise_here() {
        let f = Fixture::new();
        let expected: std::collections::BTreeSet<_> =
            pairwise_detection(&f.input()).copying_pairs().collect();
        for result in [
            bound_detection(&f.input(), false),
            bound_detection(&f.input(), true),
            hybrid_detection(&f.input(), 16),
            hybrid_detection(&f.input(), 0),
            hybrid_detection(&f.input(), u32::MAX),
        ] {
            let got: std::collections::BTreeSet<_> = result.copying_pairs().collect();
            assert_eq!(got, expected, "{} disagrees with PAIRWISE", result.algorithm);
        }
    }

    /// BOUND+ performs at most as many bound evaluations as BOUND.
    #[test]
    fn lazy_bounds_reduce_bound_computations() {
        let f = Fixture::new();
        let eager = bound_detection(&f.input(), false);
        let lazy = bound_detection(&f.input(), true);
        assert!(lazy.counter.bound_computations <= eager.counter.bound_computations);
        assert_eq!(
            eager.copying_pairs().collect::<std::collections::BTreeSet<_>>(),
            lazy.copying_pairs().collect::<std::collections::BTreeSet<_>>()
        );
    }

    /// HYBRID with threshold u32::MAX degenerates to INDEX and with 0 to
    /// BOUND+, computation-wise.
    #[test]
    fn hybrid_extremes_match_components() {
        let f = Fixture::new();
        let as_index = hybrid_detection(&f.input(), u32::MAX);
        let index = index_detection(&f.input());
        assert_eq!(as_index.counter.score_updates, index.counter.score_updates);
        assert_eq!(as_index.counter.bound_computations, 0);
        let as_bound = hybrid_detection(&f.input(), 0);
        let bound_plus = bound_detection(&f.input(), true);
        assert_eq!(as_bound.counter.score_updates, bound_plus.counter.score_updates);
        assert_eq!(as_bound.counter.bound_computations, bound_plus.counter.bound_computations);
    }

    /// All entry orderings produce the same INDEX decisions (they only change
    /// how fast evidence accumulates), and the detectors expose them.
    #[test]
    fn orderings_do_not_change_index_decisions() {
        let f = Fixture::new();
        let expected: std::collections::BTreeSet<_> =
            index_detection(&f.input()).copying_pairs().collect();
        for ordering in [
            EntryOrdering::ByProvider,
            EntryOrdering::Random { seed: 11 },
            EntryOrdering::Random { seed: 99 },
        ] {
            let mut detector = IndexDetector { ordering };
            let result = detector.detect_round(&f.input(), 1);
            let got: std::collections::BTreeSet<_> = result.copying_pairs().collect();
            assert_eq!(got, expected, "ordering {ordering:?}");
        }
    }

    /// The detector wrappers report their names and run.
    #[test]
    fn detector_wrappers() {
        let f = Fixture::new();
        let input = f.input();
        let mut detectors: Vec<Box<dyn CopyDetector>> = vec![
            Box::new(IndexDetector::new()),
            Box::new(BoundDetector::eager()),
            Box::new(BoundDetector::lazy()),
            Box::new(HybridDetector::new()),
            Box::new(HybridDetector::with_threshold(4)),
        ];
        let names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["INDEX", "BOUND", "BOUND+", "HYBRID", "HYBRID"]);
        for d in detectors.iter_mut() {
            let r = d.detect_round(&input, 1);
            assert_eq!(r.num_copying_pairs(), 6, "{} finds the 6 planted pairs", d.name());
            assert!(r.index_build_time > std::time::Duration::ZERO);
        }
    }

    /// Scan records carry the preparation-step bookkeeping INCREMENTAL needs:
    /// Ĉ lies between Cmin at decision and the exact score.
    #[test]
    fn records_chat_between_cmin_and_exact() {
        let f = Fixture::new();
        let (index, _) = build_index(&f.input());
        let out = index_scan(
            &f.input(),
            &index,
            &IndexScanConfig { track_records: true, ..IndexScanConfig::hybrid(0) },
            "HYBRID",
        );
        let records = out.records.unwrap();
        assert_eq!(records.order_keys.len(), index.len());
        let ctx = f.input().scoring_context();
        for (&p, rec) in &records.pairs {
            if rec.decision == CopyDecision::Copying && rec.decided_by_bounds {
                let exact = ctx.score_pair(p.first(), p.second());
                assert!(rec.c_hat_to <= exact.c_to() + 1e-9, "Ĉ→ exceeds exact C→ for {p}");
                assert!(rec.c_hat_from <= exact.c_from() + 1e-9);
                // Ĉ is at least Cmin at decision (the lift removes a
                // negative penalty).
                assert!(rec.shared_before_decision + rec.shared_after_decision <= rec.shared_items);
            }
        }
    }
}
