//! Construction of the inverted index (Definition 3.2) and its query
//! surface.

use crate::ebar::ebar_start;
use crate::entry::IndexEntry;
use crate::shared_items::SharedItemCounts;
use crate::stats::IndexStats;
use copydet_bayes::max_contribution::max_contribution;
use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_model::{Dataset, DatasetDelta, ItemId, ItemValueGroup, SourceId, SourcePair};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The inverted index over shared values (Definition 3.2), stored in
/// decreasing contribution-score order, together with the per-pair
/// shared-item counts `l(S1, S2)` gathered at build time.
///
/// The counts table sits behind a shared [`Arc`] handle: a cloned index
/// aliases the `O(|S|²)` matrix instead of copying it, and
/// [`apply_claim_delta`](InvertedIndex::apply_claim_delta) updates it
/// copy-on-write so every other holder's handle stays frozen.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    entries: Vec<IndexEntry>,
    ebar_start: usize,
    shared: Arc<SharedItemCounts>,
    theta_ind: f64,
}

impl InvertedIndex {
    /// Builds the index for the current round's accuracy and truthfulness
    /// estimates.
    ///
    /// Index building is `O(|S|·|D|)` plus the shared-item counting pass; the
    /// paper reports it at a small fraction (≈1%) of PAIRWISE's cost.
    pub fn build(
        dataset: &Dataset,
        accuracies: &SourceAccuracies,
        probabilities: &ValueProbabilities,
        params: &CopyParams,
    ) -> Self {
        let shared = Arc::new(SharedItemCounts::build(dataset));
        Self::build_from_groups(dataset.groups(), shared, accuracies, probabilities, params)
    }

    /// Builds the index from an explicit stream of `(item, value)` groups and
    /// pre-computed shared-item counts.
    ///
    /// A caller that already holds the counts skips the `O(Σ providers²)`
    /// counting pass that dominates [`InvertedIndex::build`] on
    /// provider-dense datasets. The counts arrive as a shared handle —
    /// aliased, not copied; a later mutation on either side detaches
    /// copy-on-write. Groups with fewer than two providers are skipped,
    /// exactly as in `build`.
    pub fn build_from_groups<'a>(
        groups: impl IntoIterator<Item = &'a ItemValueGroup>,
        shared: Arc<SharedItemCounts>,
        accuracies: &SourceAccuracies,
        probabilities: &ValueProbabilities,
        params: &CopyParams,
    ) -> Self {
        let mut entries = Vec::new();
        let mut provider_accs: Vec<f64> = Vec::new();
        for group in groups {
            if group.support() < 2 {
                continue;
            }
            provider_accs.clear();
            provider_accs.extend(group.providers.iter().map(|&s| accuracies.get(s)));
            let p = probabilities.get(group.item, group.value);
            let score = max_contribution(p, &provider_accs, params);
            entries.push(IndexEntry {
                item: group.item,
                value: group.value,
                probability: p,
                score,
                providers: group.providers.clone(),
            });
        }
        sort_entries(&mut entries);
        let theta_ind = params.thresholds().theta_ind;
        let scores: Vec<f64> = entries.iter().map(|e| e.score).collect();
        let ebar_start = ebar_start(&scores, theta_ind);
        Self { entries, ebar_start, shared, theta_ind }
    }

    /// Applies a claim delta to a live index: the entries of every touched
    /// item are rebuilt against the grown `dataset` — refreshing provider
    /// membership — scored with the caller-chosen accuracy/probability state
    /// (incremental detection passes its *old-state* snapshot, so that the
    /// probability movement of touched items later registers as an ordinary
    /// entry-score delta); the shared-item counts are updated for the added
    /// claims, and the `Ē` boundary is recomputed.
    ///
    /// `aligned_scores` is a caller-owned array parallel to
    /// [`InvertedIndex::entries`] (incremental detection keeps the previous
    /// round's entry scores there); it is permuted alongside the entries, and
    /// the slots of rebuilt entries are set to the freshly computed score so
    /// rebuilt entries never register as a *score* change — their pairs are
    /// re-examined through the returned index list instead.
    ///
    /// Returns the positions (into the updated `entries()`) of every rebuilt
    /// entry, i.e. every entry whose item the delta touched.
    ///
    /// # Panics
    /// Panics if `aligned_scores` is not entry-aligned.
    pub fn apply_claim_delta(
        &mut self,
        dataset: &Dataset,
        accuracies: &SourceAccuracies,
        probabilities: &ValueProbabilities,
        params: &CopyParams,
        delta: &DatasetDelta,
        aligned_scores: &mut Vec<f64>,
    ) -> Vec<usize> {
        assert_eq!(
            aligned_scores.len(),
            self.entries.len(),
            "aligned_scores must parallel the index entries"
        );
        // Keep untouched entries (with their aligned scores); rebuild the
        // rest from the grown dataset.
        let mut kept: Vec<(IndexEntry, f64)> = std::mem::take(&mut self.entries)
            .into_iter()
            .zip(aligned_scores.drain(..))
            .filter(|(e, _)| !delta.touches_item(e.item))
            .collect();
        let mut provider_accs: Vec<f64> = Vec::new();
        for &d in delta.touched_items() {
            for group in dataset.values_of_item(d) {
                if group.support() < 2 {
                    continue;
                }
                provider_accs.clear();
                provider_accs.extend(group.providers.iter().map(|&s| accuracies.get(s)));
                let p = probabilities.get(group.item, group.value);
                let score = max_contribution(p, &provider_accs, params);
                let entry = IndexEntry {
                    item: group.item,
                    value: group.value,
                    probability: p,
                    score,
                    providers: group.providers.clone(),
                };
                kept.push((entry, score));
            }
        }
        kept.sort_unstable_by(|(a, _), (b, _)| entry_order(a, b));
        let mut rebuilt = Vec::new();
        self.entries = Vec::with_capacity(kept.len());
        aligned_scores.reserve(kept.len());
        for (idx, (entry, aligned)) in kept.into_iter().enumerate() {
            if delta.touches_item(entry.item) {
                rebuilt.push(idx);
            }
            self.entries.push(entry);
            aligned_scores.push(aligned);
        }
        let scores: Vec<f64> = self.entries.iter().map(|e| e.score).collect();
        self.ebar_start = ebar_start(&scores, self.theta_ind);

        // Shared-item counts: every *added* claim (source, item) shares its
        // item with every other provider of that item in the grown dataset.
        // Copy-on-write: every other holder of the handle (a clone of this
        // index) keeps its frozen table.
        let shared = Arc::make_mut(&mut self.shared);
        shared.grow(dataset.num_sources());
        let mut added_by_item: BTreeMap<ItemId, BTreeSet<SourceId>> = BTreeMap::new();
        for change in delta.additions() {
            added_by_item.entry(change.item).or_default().insert(change.source);
        }
        for (&d, added) in &added_by_item {
            for group in dataset.values_of_item(d) {
                for &t in &group.providers {
                    for &s in added {
                        if t == s || (added.contains(&t) && t < s) {
                            continue;
                        }
                        shared.increment(SourcePair::new(s, t), 1);
                    }
                }
            }
        }
        rebuilt
    }

    /// The index entries in decreasing contribution-score order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position at which the low-score suffix `Ē` begins.
    pub fn ebar_start(&self) -> usize {
        self.ebar_start
    }

    /// Returns `true` if the entry at `idx` belongs to `Ē`.
    pub fn in_ebar(&self, idx: usize) -> bool {
        idx >= self.ebar_start
    }

    /// The `θind` threshold the `Ē` suffix was computed against.
    pub fn theta_ind(&self) -> f64 {
        self.theta_ind
    }

    /// `l(S1, S2)`: the number of items shared by the pair.
    pub fn shared_items(&self, pair: SourcePair) -> u32 {
        self.shared.get(pair)
    }

    /// The shared-item counts table.
    pub fn shared_item_counts(&self) -> &SharedItemCounts {
        &self.shared
    }

    /// For a processing order, the maximum entry score among positions
    /// `i..` for every `i` (plus a trailing 0.0 for "nothing left"). Used by
    /// the bound-maintaining algorithms as `M`, the best score any unscanned
    /// entry can still have.
    ///
    /// For the by-contribution order this equals the next entry's score.
    pub fn suffix_max_scores(&self, order: &[u32]) -> Vec<f64> {
        let mut suffix = vec![0.0f64; order.len() + 1];
        for i in (0..order.len()).rev() {
            suffix[i] = suffix[i + 1].max(self.entries[order[i] as usize].score);
        }
        suffix
    }

    /// Summary statistics of the index.
    pub fn stats(&self) -> IndexStats {
        IndexStats::compute(self)
    }
}

/// The index storage order: decreasing score, ties broken by `(item, value)`
/// for determinism. Every (re)sort of the entries must use this single
/// comparator — the store/batch bit-identity guarantees depend on it.
fn entry_order(a: &IndexEntry, b: &IndexEntry) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("contribution scores are never NaN")
        .then(a.item.cmp(&b.item))
        .then(a.value.cmp(&b.value))
}

fn sort_entries(entries: &mut [IndexEntry]) {
    entries.sort_unstable_by(entry_order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_synth::motivating_example;

    fn build_motivating() -> (copydet_synth::MotivatingExample, InvertedIndex) {
        let ex = motivating_example();
        let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probabilities = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let params = CopyParams::paper_defaults();
        let index = InvertedIndex::build(&ex.dataset, &accuracies, &probabilities, &params);
        (ex, index)
    }

    /// Table III: the index for the motivating example has 13 entries
    /// (values provided by a single source — NJ.Union, AZ.Tucson,
    /// TX.Arlington — are not indexed).
    #[test]
    fn table_iii_entry_count() {
        let (_, index) = build_motivating();
        assert_eq!(index.len(), 13);
        assert!(!index.is_empty());
    }

    /// Table III: entries are ordered by decreasing score, AZ.Tempe (4.59)
    /// first, and the last two entries (score .43 each: NY.Albany and
    /// TX.Austin) form Ē.
    #[test]
    fn table_iii_order_scores_and_ebar() {
        let (ex, index) = build_motivating();
        let entries = index.entries();
        // ordered by decreasing score
        assert!(entries.windows(2).all(|w| w[0].score >= w[1].score));
        // top entry is AZ.Tempe with score 4.59
        let az = ex.dataset.item_by_name("AZ").unwrap();
        let tempe = ex.dataset.value_by_str("Tempe").unwrap();
        assert_eq!(entries[0].item, az);
        assert_eq!(entries[0].value, tempe);
        assert!((entries[0].score - 4.59).abs() < 0.01);
        // second entry NJ.Atlantic with 4.12
        let nj = ex.dataset.item_by_name("NJ").unwrap();
        let atlantic = ex.dataset.value_by_str("Atlantic").unwrap();
        assert_eq!(entries[1].item, nj);
        assert_eq!(entries[1].value, atlantic);
        assert!((entries[1].score - 4.12).abs() < 0.01);
        // Ē contains the last two entries (NY.Albany, TX.Austin; .43 each)
        assert_eq!(index.ebar_start(), 11);
        assert!(index.in_ebar(11) && index.in_ebar(12));
        assert!(!index.in_ebar(10));
        for e in &entries[11..] {
            assert!((e.score - 0.43).abs() < 0.01);
        }
    }

    /// Table III: provider sets of a few entries.
    #[test]
    fn table_iii_providers() {
        let (ex, index) = build_motivating();
        let find = |item: &str, value: &str| {
            let d = ex.dataset.item_by_name(item).unwrap();
            let v = ex.dataset.value_by_str(value).unwrap();
            index
                .entries()
                .iter()
                .find(|e| e.item == d && e.value == v)
                .unwrap_or_else(|| panic!("no entry for {item}.{value}"))
        };
        let atlantic = find("NJ", "Atlantic");
        assert_eq!(atlantic.providers, vec![SourceId::new(2), SourceId::new(3), SourceId::new(4)]);
        let trenton = find("NJ", "Trenton");
        assert_eq!(
            trenton.providers,
            vec![
                SourceId::new(0),
                SourceId::new(1),
                SourceId::new(7),
                SourceId::new(8),
                SourceId::new(9)
            ]
        );
        let dallas = find("TX", "Dallas");
        assert_eq!(dallas.providers, vec![SourceId::new(6), SourceId::new(7), SourceId::new(8)]);
        // Un-shared values have no entry.
        let nj = ex.dataset.item_by_name("NJ").unwrap();
        let union = ex.dataset.value_by_str("Union").unwrap();
        assert!(!index.entries().iter().any(|e| e.item == nj && e.value == union));
    }

    /// Example 3.6: 51 shared values are indexed in total (sum over entries
    /// of the number of pairs sharing each value... the paper counts the
    /// total number of provider-pair incidences it must examine as 51).
    #[test]
    fn example_3_6_shared_value_incidences() {
        let (_, index) = build_motivating();
        // The paper's "51 shared values" counts, for each pair of sources
        // occurring in an entry outside Ē and each entry containing both,
        // one shared value; equivalently the sum over non-Ē entries of the
        // number of provider pairs, restricted to the 26 pairs considered.
        // All pairs occurring outside Ē are exactly those 26, so this is the
        // plain sum of C(k,2) over non-Ē entries plus the shared values those
        // same pairs have inside Ē.
        let non_ebar_pairs: usize =
            index.entries()[..index.ebar_start()].iter().map(IndexEntry::num_pairs).sum();
        // Pairs outside Ē
        let mut pairs = std::collections::HashSet::new();
        for e in &index.entries()[..index.ebar_start()] {
            for i in 0..e.providers.len() {
                for j in (i + 1)..e.providers.len() {
                    pairs.insert(SourcePair::new(e.providers[i], e.providers[j]));
                }
            }
        }
        assert_eq!(pairs.len(), 26, "Example 3.6: 26 pairs occur outside Ē");
        let ebar_pairs_already_seen: usize = index.entries()[index.ebar_start()..]
            .iter()
            .map(|e| {
                let mut count = 0;
                for i in 0..e.providers.len() {
                    for j in (i + 1)..e.providers.len() {
                        if pairs.contains(&SourcePair::new(e.providers[i], e.providers[j])) {
                            count += 1;
                        }
                    }
                }
                count
            })
            .sum();
        assert_eq!(
            non_ebar_pairs + ebar_pairs_already_seen,
            51,
            "Example 3.6: INDEX examines 51 shared values"
        );
    }

    /// The shared-item counts attached to the index agree with the dataset.
    #[test]
    fn shared_item_counts_attached() {
        let (ex, index) = build_motivating();
        let s2 = SourceId::new(2);
        let s3 = SourceId::new(3);
        assert_eq!(index.shared_items(SourcePair::new(s2, s3)), 5);
        assert_eq!(
            index.shared_items(SourcePair::new(SourceId::new(0), SourceId::new(1))),
            ex.dataset.shared_item_count(SourceId::new(0), SourceId::new(1)) as u32
        );
    }

    /// Suffix maxima for the by-contribution order are the next entry's
    /// score.
    #[test]
    fn suffix_max_by_contribution() {
        let (_, index) = build_motivating();
        let order: Vec<u32> = (0..index.len() as u32).collect();
        let suffix = index.suffix_max_scores(&order);
        assert_eq!(suffix.len(), index.len() + 1);
        for (i, &oi) in order.iter().enumerate() {
            assert!((suffix[i] - index.entries()[oi as usize].score).abs() < 1e-12);
        }
        assert_eq!(suffix[index.len()], 0.0);
    }

    /// Suffix maxima for an arbitrary order (here the odd positions, then
    /// the even ones) really are suffix maxima.
    #[test]
    fn suffix_max_random_order() {
        let (_, index) = build_motivating();
        let n = index.len() as u32;
        let order: Vec<u32> = (1..n).step_by(2).chain((0..n).step_by(2)).collect();
        let suffix = index.suffix_max_scores(&order);
        for i in 0..order.len() {
            let expected = order[i..]
                .iter()
                .map(|&oi| index.entries()[oi as usize].score)
                .fold(0.0f64, f64::max);
            assert!((suffix[i] - expected).abs() < 1e-12);
        }
    }

    /// `build_from_groups` with the dataset's own groups and counts is
    /// exactly `build`.
    #[test]
    fn build_from_groups_matches_build() {
        let ex = motivating_example();
        let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probabilities = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let params = CopyParams::paper_defaults();
        let direct = InvertedIndex::build(&ex.dataset, &accuracies, &probabilities, &params);
        let from_groups = InvertedIndex::build_from_groups(
            ex.dataset.groups(),
            Arc::new(SharedItemCounts::build(&ex.dataset)),
            &accuracies,
            &probabilities,
            &params,
        );
        assert_eq!(direct.entries(), from_groups.entries());
        assert_eq!(direct.ebar_start(), from_groups.ebar_start());
        for (pair, n) in direct.shared_item_counts().iter_nonzero() {
            assert_eq!(from_groups.shared_items(pair), n);
        }
    }

    /// Applying a claim delta to a live index yields the same entries, `Ē`
    /// boundary and shared counts as rebuilding from scratch on the grown
    /// dataset (with the same accuracy/probability state).
    #[test]
    fn apply_claim_delta_matches_rebuild() {
        use copydet_model::{DatasetBuilder, DatasetDelta};
        let old_claims: Vec<(&str, &str, &str)> = vec![
            ("S0", "NJ", "Trenton"),
            ("S1", "NJ", "Trenton"),
            ("S2", "NJ", "Newark"),
            ("S0", "AZ", "Phoenix"),
            ("S1", "AZ", "Phoenix"),
            ("S2", "AZ", "Tempe"),
            ("S0", "CA", "Sacramento"), // never touched by the delta
            ("S1", "CA", "Sacramento"),
        ];
        let mut extra = old_claims.clone();
        extra.extend([
            ("S2", "NJ", "Trenton"), // changed value
            ("S3", "AZ", "Phoenix"), // new source
            ("S0", "NY", "Albany"),  // new item
            ("S3", "NY", "Albany"),
        ]);
        let build_ds = |claims: &[(&str, &str, &str)]| {
            let mut b = DatasetBuilder::new();
            for (s, d, v) in claims {
                b.add_claim(s, d, v);
            }
            b.build()
        };
        let old_ds = build_ds(&old_claims);
        let new_ds = build_ds(&extra);
        let delta = DatasetDelta::between(&old_ds, &new_ds);
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(new_ds.num_sources(), 0.8).unwrap();
        let mut probabilities = ValueProbabilities::new(new_ds.num_items());
        for (i, g) in new_ds.groups().enumerate() {
            probabilities.set(g.item, g.value, 0.15 + 0.1 * (i % 8) as f64).unwrap();
        }

        let mut live = InvertedIndex::build(&old_ds, &accuracies, &probabilities, &params);
        let mut aligned: Vec<f64> = live.entries().iter().map(|e| e.score).collect();
        let rebuilt_idx = live.apply_claim_delta(
            &new_ds,
            &accuracies,
            &probabilities,
            &params,
            &delta,
            &mut aligned,
        );
        let scratch = InvertedIndex::build(&new_ds, &accuracies, &probabilities, &params);

        assert_eq!(live.entries(), scratch.entries());
        assert_eq!(live.ebar_start(), scratch.ebar_start());
        assert_eq!(aligned.len(), live.len());
        for (pair, n) in scratch.shared_item_counts().iter_nonzero() {
            assert_eq!(live.shared_items(pair), n, "shared count for {pair}");
        }
        // Every rebuilt position is a touched item; every touched item's
        // entry is reported as rebuilt.
        for (idx, e) in live.entries().iter().enumerate() {
            assert_eq!(rebuilt_idx.contains(&idx), delta.touches_item(e.item), "entry {idx}");
        }
        // Aligned scores of rebuilt entries equal the fresh scores; untouched
        // entries keep theirs.
        for &idx in &rebuilt_idx {
            assert!((aligned[idx] - live.entries()[idx].score).abs() < 1e-12);
        }
    }

    /// An empty delta leaves the index untouched.
    #[test]
    fn apply_empty_delta_is_noop() {
        let (ex, mut index) = build_motivating();
        let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).unwrap();
        let probabilities = ValueProbabilities::from_table(ex.probability_table()).unwrap();
        let params = CopyParams::paper_defaults();
        let before = index.entries().to_vec();
        let mut aligned: Vec<f64> = before.iter().map(|e| e.score).collect();
        let rebuilt = index.apply_claim_delta(
            &ex.dataset,
            &accuracies,
            &probabilities,
            &params,
            &copydet_model::DatasetDelta::default(),
            &mut aligned,
        );
        assert!(rebuilt.is_empty());
        assert_eq!(index.entries(), before.as_slice());
    }

    /// An index built over an empty dataset is empty and harmless.
    #[test]
    fn empty_dataset_index() {
        let ds = copydet_model::DatasetBuilder::new().build();
        let acc = SourceAccuracies::uniform(0, 0.8).unwrap();
        let probs = ValueProbabilities::new(0);
        let index = InvertedIndex::build(&ds, &acc, &probs, &CopyParams::paper_defaults());
        assert!(index.is_empty());
        assert_eq!(index.ebar_start(), 0);
        assert_eq!(index.suffix_max_scores(&[]), vec![0.0]);
    }
}
