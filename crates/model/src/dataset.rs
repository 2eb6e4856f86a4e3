//! The immutable [`Dataset`] snapshot and its access paths.

use crate::ids::{ItemId, SourceId, ValueId};
use crate::interner::Interner;
use crate::observation::{Claim, ClaimRef};
use crate::stats::DatasetStats;
use std::collections::HashSet;
use std::sync::Arc;

/// One distinct value of one data item together with the sources that provide
/// it.
///
/// This is the unit from which the inverted index is built: an index entry
/// exists for every group with at least two providers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemValueGroup {
    /// The data item.
    pub item: ItemId,
    /// The distinct value.
    pub value: ValueId,
    /// Sources providing `value` for `item`, sorted by id.
    pub providers: Vec<SourceId>,
}

impl ItemValueGroup {
    /// Number of sources that provide this value.
    pub fn support(&self) -> usize {
        self.providers.len()
    }
}

/// An immutable snapshot of all claims made by a set of sources over a set of
/// data items.
///
/// The dataset owns three mutually consistent representations of the claims:
///
/// 1. per-source claim lists sorted by item (`claims_of`),
/// 2. per-item groups of distinct values with their providers
///    (`values_of_item` / `groups`),
/// 3. name/id maps for sources, items and values.
///
/// A source provides **at most one** value per item (duplicate insertions in
/// the builder keep the last value), so within one item's groups the provider
/// sets are disjoint — the property the paper relies on when building the
/// inverted index ("the presence of a source in an index entry guarantees its
/// absence in all entries that correspond to other values for the same data
/// item").
///
/// ## Shared, immutable storage
///
/// Every representation lives behind [`Arc`] handles: the name tables and the
/// value interner as whole-table handles, the claim lists per source and the
/// value groups per item. Cloning a dataset is therefore a handful of
/// reference-count bumps plus two pointer-sized copies per source/item — no
/// string, claim or provider list is ever duplicated. Claim stores exploit
/// this through [`Dataset::with_patches`], which derives the next snapshot
/// from the previous one in time proportional to the *changed* entities while
/// aliasing everything untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pub(crate) source_names: Arc<Vec<String>>,
    pub(crate) item_names: Arc<Vec<String>>,
    pub(crate) values: Interner,
    /// `claims[s]` = claims of source `s`, sorted by item id.
    pub(crate) claims: Vec<Arc<Vec<(ItemId, ValueId)>>>,
    /// `item_groups[d]` = distinct values of item `d` with their providers.
    pub(crate) item_groups: Vec<Arc<Vec<ItemValueGroup>>>,
    /// Total number of claims.
    pub(crate) num_claims: usize,
}

impl Dataset {
    /// Assembles a snapshot directly from id-space claim lists, bypassing
    /// string interning.
    ///
    /// The per-item value groups are derived here with exactly the same
    /// normalization as [`DatasetBuilder::build`](crate::DatasetBuilder::build),
    /// so a snapshot assembled this way is indistinguishable from one built
    /// by a single builder pass over the same claims.
    ///
    /// # Panics
    /// Panics if a claim list is not strictly sorted by item, or if any id is
    /// out of range for the provided name tables.
    pub fn from_sorted_claims(
        source_names: Vec<String>,
        item_names: Vec<String>,
        values: Interner,
        claims: Vec<Vec<(ItemId, ValueId)>>,
    ) -> Dataset {
        assert_eq!(claims.len(), source_names.len(), "one claim list per source");
        for list in &claims {
            assert!(
                list.windows(2).all(|w| w[0].0 < w[1].0),
                "claim lists must be strictly sorted by item"
            );
            for &(d, v) in list {
                assert!(d.index() < item_names.len(), "unknown item id {d}");
                assert!(v.index() < values.len(), "unknown value id {v}");
            }
        }
        let item_groups =
            group_claims(&claims, item_names.len()).into_iter().map(Arc::new).collect();
        let num_claims = claims.iter().map(Vec::len).sum();
        let claims = claims.into_iter().map(Arc::new).collect();
        Dataset {
            source_names: Arc::new(source_names),
            item_names: Arc::new(item_names),
            values,
            claims,
            item_groups,
            num_claims,
        }
    }

    /// Derives the next snapshot from this one by replacing the claim lists
    /// of the given sources and the value groups of the given items, aliasing
    /// every untouched entity.
    ///
    /// This is the O(delta) snapshot path of segmented claim stores: cost is
    /// proportional to the replaced lists (plus one pointer copy per
    /// source/item), never to the corpus vocabulary. The name tables may
    /// extend this snapshot's (new sources/items/values); sources and items
    /// beyond this snapshot's range start with empty claim lists/groups
    /// unless patched.
    ///
    /// The caller is responsible for delta-completeness (every source whose
    /// claims changed and every item whose groups changed must be patched)
    /// and for the builder normalization of the replacements: claim lists
    /// strictly sorted by item, groups sorted by value with providers sorted
    /// by id. Structural invariants are `debug_assert`ed; equivalence with a
    /// from-scratch build is property-tested in `copydet-store`.
    ///
    /// # Panics
    /// Panics if the new name tables are shorter than this snapshot's, or if
    /// a patched source/item id is out of range. At most one patch per
    /// source/item may be supplied.
    pub fn with_patches(
        &self,
        source_names: Arc<Vec<String>>,
        item_names: Arc<Vec<String>>,
        values: Interner,
        patched_sources: Vec<(SourceId, Vec<(ItemId, ValueId)>)>,
        patched_items: Vec<(ItemId, Vec<ItemValueGroup>)>,
    ) -> Dataset {
        assert!(
            source_names.len() >= self.source_names.len()
                && item_names.len() >= self.item_names.len()
                && values.len() >= self.values.len(),
            "the new name tables must extend the snapshot's id space"
        );
        let mut claims = self.claims.clone();
        claims.resize_with(source_names.len(), Default::default);
        let mut item_groups = self.item_groups.clone();
        item_groups.resize_with(item_names.len(), Default::default);
        let mut num_claims = self.num_claims;
        for (s, list) in patched_sources {
            assert!(s.index() < claims.len(), "unknown source id {s}");
            debug_assert!(
                list.windows(2).all(|w| w[0].0 < w[1].0),
                "claim lists must be strictly sorted by item"
            );
            debug_assert!(
                list.iter().all(|&(d, v)| d.index() < item_names.len() && v.index() < values.len()),
                "patched claims must stay inside the id space"
            );
            num_claims = num_claims - claims[s.index()].len() + list.len();
            claims[s.index()] = Arc::new(list);
        }
        for (d, groups) in patched_items {
            assert!(d.index() < item_groups.len(), "unknown item id {d}");
            debug_assert!(
                groups.windows(2).all(|w| w[0].value < w[1].value),
                "groups must be sorted by value"
            );
            debug_assert!(
                groups.iter().all(|g| g.item == d && g.providers.windows(2).all(|w| w[0] < w[1])),
                "groups must carry their item id and sorted providers"
            );
            item_groups[d.index()] = Arc::new(groups);
        }
        Dataset { source_names, item_names, values, claims, item_groups, num_claims }
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.source_names.len()
    }

    /// Number of data items.
    pub fn num_items(&self) -> usize {
        self.item_names.len()
    }

    /// Total number of `(source, item, value)` claims.
    pub fn num_claims(&self) -> usize {
        self.num_claims
    }

    /// Iterator over all source ids.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        (0..self.num_sources()).map(SourceId::from_index)
    }

    /// Iterator over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.num_items()).map(ItemId::from_index)
    }

    /// Name of a source.
    pub fn source_name(&self, s: SourceId) -> &str {
        &self.source_names[s.index()]
    }

    /// Name of a data item.
    pub fn item_name(&self, d: ItemId) -> &str {
        &self.item_names[d.index()]
    }

    /// String of a value.
    pub fn value_str(&self, v: ValueId) -> &str {
        self.values.resolve(v)
    }

    /// Looks up a source by name.
    pub fn source_by_name(&self, name: &str) -> Option<SourceId> {
        self.source_names.iter().position(|n| n == name).map(SourceId::from_index)
    }

    /// Looks up an item by name.
    pub fn item_by_name(&self, name: &str) -> Option<ItemId> {
        self.item_names.iter().position(|n| n == name).map(ItemId::from_index)
    }

    /// Looks up a value id by string.
    pub fn value_by_str(&self, s: &str) -> Option<ValueId> {
        self.values.get(s)
    }

    /// The claims of source `s`, sorted by item id.
    pub fn claims_of(&self, s: SourceId) -> &[(ItemId, ValueId)] {
        &self.claims[s.index()]
    }

    /// Number of items covered by source `s`.
    pub fn coverage(&self, s: SourceId) -> usize {
        self.claims[s.index()].len()
    }

    /// The value that source `s` provides for item `d`, if any.
    pub fn value_of(&self, s: SourceId, d: ItemId) -> Option<ValueId> {
        let claims = &self.claims[s.index()];
        claims.binary_search_by_key(&d, |&(item, _)| item).ok().map(|i| claims[i].1)
    }

    /// Returns `true` if both sources provide *some* value for item `d`.
    pub fn shares_item(&self, a: SourceId, b: SourceId, d: ItemId) -> bool {
        self.value_of(a, d).is_some() && self.value_of(b, d).is_some()
    }

    /// Distinct values of item `d`, each with its providers.
    pub fn values_of_item(&self, d: ItemId) -> &[ItemValueGroup] {
        &self.item_groups[d.index()]
    }

    /// Sources providing value `v` for item `d` (empty if none).
    pub fn providers_of(&self, d: ItemId, v: ValueId) -> &[SourceId] {
        self.item_groups[d.index()]
            .iter()
            .find(|g| g.value == v)
            .map(|g| g.providers.as_slice())
            .unwrap_or(&[])
    }

    /// Number of sources that provide *any* value for item `d`.
    pub fn item_provider_count(&self, d: ItemId) -> usize {
        self.item_groups[d.index()].iter().map(|g| g.providers.len()).sum()
    }

    /// Iterator over every `(item, value)` group in the dataset, in item
    /// order.
    pub fn groups(&self) -> impl Iterator<Item = &ItemValueGroup> + '_ {
        self.item_groups.iter().flat_map(|g| g.iter())
    }

    /// Iterator over all claims as id triples, grouped by source.
    pub fn claims_iter(&self) -> impl Iterator<Item = Claim> + '_ {
        self.claims.iter().enumerate().flat_map(|(s, list)| {
            let s = SourceId::from_index(s);
            list.iter().map(move |&(item, value)| Claim { source: s, item, value })
        })
    }

    /// Iterator over all claims with names resolved.
    pub fn claim_refs(&self) -> impl Iterator<Item = ClaimRef<'_>> + '_ {
        self.claims_iter().map(move |c| ClaimRef {
            source: self.source_name(c.source),
            item: self.item_name(c.item),
            value: self.value_str(c.value),
        })
    }

    /// The shared handle to the index-ordered source-name table.
    ///
    /// Exposed so aliasing can be *observed*: two snapshots whose handles are
    /// [`Arc::ptr_eq`] provably share storage (the zero-copy snapshot
    /// regression tests assert exactly this).
    pub fn shared_source_names(&self) -> &Arc<Vec<String>> {
        &self.source_names
    }

    /// The shared handle to the index-ordered item-name table (see
    /// [`Dataset::shared_source_names`]).
    pub fn shared_item_names(&self) -> &Arc<Vec<String>> {
        &self.item_names
    }

    /// The value interner (cheaply cloneable; see
    /// [`Interner::shared_strings`]).
    pub fn values_interner(&self) -> &Interner {
        &self.values
    }

    /// The shared handle to source `s`'s claim list (see
    /// [`Dataset::shared_source_names`] for the aliasing contract).
    pub fn shared_claims_of(&self, s: SourceId) -> &Arc<Vec<(ItemId, ValueId)>> {
        &self.claims[s.index()]
    }

    /// The shared handle to item `d`'s value groups (see
    /// [`Dataset::shared_source_names`] for the aliasing contract).
    pub fn shared_groups_of(&self, d: ItemId) -> &Arc<Vec<ItemValueGroup>> {
        &self.item_groups[d.index()]
    }

    /// The items both sources claim, as `(item, value of a, value of b)` in
    /// ascending item order, found by merging the two sorted claim lists.
    ///
    /// This is the one pairwise claim walk: PAIRWISE scoring, the per-shard
    /// evidence scan and the per-pair counts below all fold over it, so
    /// every fold visits shared items in the same (item) order.
    pub fn shared_claims(
        &self,
        a: SourceId,
        b: SourceId,
    ) -> impl Iterator<Item = (ItemId, ValueId, ValueId)> + '_ {
        let (ca, cb) = (self.claims_of(a), self.claims_of(b));
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            while let (Some(&(da, va)), Some(&(db, vb))) = (ca.get(i), cb.get(j)) {
                // Step past the smaller item; on a shared item, past both.
                i += usize::from(da <= db);
                j += usize::from(db <= da);
                if da == db {
                    return Some((da, va, vb));
                }
            }
            None
        })
    }

    /// Number of data items shared by two sources (both provide some value).
    ///
    /// The detection algorithms use the bulk variant in `copydet-index`
    /// (shared-item counting over the whole dataset); this per-pair query is
    /// mostly useful for tests and diagnostics.
    pub fn shared_item_count(&self, a: SourceId, b: SourceId) -> usize {
        self.shared_claims(a, b).count()
    }

    /// Number of data items on which two sources provide the *same* value.
    pub fn shared_value_count(&self, a: SourceId, b: SourceId) -> usize {
        self.shared_claims(a, b).filter(|(_, va, vb)| va == vb).count()
    }

    /// Computes summary statistics for the dataset.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::compute(self)
    }

    /// Projects the dataset onto a subset of data items, keeping source and
    /// item identifiers (and names) stable.
    ///
    /// Claims for items outside `keep` are dropped; everything else —
    /// including sources that end up with zero claims — is preserved, so copy
    /// decisions on the projection can be compared pair-by-pair with
    /// decisions on the full dataset. This is the substrate for the sampling
    /// strategies (SAMPLE1/SAMPLE2/SCALESAMPLE). The name tables and the
    /// groups of kept items are aliased, not copied.
    pub fn project_items(&self, keep: &HashSet<ItemId>) -> Dataset {
        let claims: Vec<Arc<Vec<(ItemId, ValueId)>>> = self
            .claims
            .iter()
            .map(|list| Arc::new(list.iter().copied().filter(|(d, _)| keep.contains(d)).collect()))
            .collect();
        let item_groups: Vec<Arc<Vec<ItemValueGroup>>> = self
            .item_groups
            .iter()
            .enumerate()
            .map(|(d, groups)| {
                if keep.contains(&ItemId::from_index(d)) {
                    Arc::clone(groups)
                } else {
                    Arc::default()
                }
            })
            .collect();
        let num_claims = claims.iter().map(|l| l.len()).sum();
        Dataset {
            source_names: Arc::clone(&self.source_names),
            item_names: Arc::clone(&self.item_names),
            values: self.values.clone(),
            claims,
            item_groups,
            num_claims,
        }
    }
}

/// Derives the per-item value groups from per-source sorted claim lists —
/// the normalization shared by [`DatasetBuilder::build`](crate::DatasetBuilder)
/// and [`Dataset::from_sorted_claims`]: providers sorted by id within each
/// group, groups sorted by value within each item.
pub(crate) fn group_claims(
    claims: &[Vec<(ItemId, ValueId)>],
    num_items: usize,
) -> Vec<Vec<ItemValueGroup>> {
    let mut per_item: Vec<std::collections::HashMap<ValueId, Vec<SourceId>>> =
        vec![std::collections::HashMap::new(); num_items];
    for (s, list) in claims.iter().enumerate() {
        let s = SourceId::from_index(s);
        for &(d, v) in list {
            per_item[d.index()].entry(v).or_default().push(s);
        }
    }
    per_item
        .into_iter()
        .enumerate()
        .map(|(d, map)| {
            let item = ItemId::from_index(d);
            let mut groups: Vec<ItemValueGroup> = map
                .into_iter()
                .map(|(value, mut providers)| {
                    providers.sort_unstable();
                    ItemValueGroup { item, value, providers }
                })
                .collect();
            groups.sort_unstable_by_key(|g| g.value);
            groups
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_claim("S0", "NJ", "Trenton");
        b.add_claim("S0", "AZ", "Phoenix");
        b.add_claim("S1", "NJ", "Trenton");
        b.add_claim("S1", "AZ", "Tempe");
        b.add_claim("S2", "NJ", "Atlantic");
        b.build()
    }

    #[test]
    fn basic_counts() {
        let ds = sample();
        assert_eq!(ds.num_sources(), 3);
        assert_eq!(ds.num_items(), 2);
        assert_eq!(ds.num_claims(), 5);
    }

    #[test]
    fn name_lookups_roundtrip() {
        let ds = sample();
        let s1 = ds.source_by_name("S1").unwrap();
        assert_eq!(ds.source_name(s1), "S1");
        let nj = ds.item_by_name("NJ").unwrap();
        assert_eq!(ds.item_name(nj), "NJ");
        let v = ds.value_by_str("Tempe").unwrap();
        assert_eq!(ds.value_str(v), "Tempe");
        assert!(ds.source_by_name("nope").is_none());
        assert!(ds.item_by_name("nope").is_none());
        assert!(ds.value_by_str("nope").is_none());
    }

    #[test]
    fn value_of_and_sharing() {
        let ds = sample();
        let s0 = ds.source_by_name("S0").unwrap();
        let s1 = ds.source_by_name("S1").unwrap();
        let s2 = ds.source_by_name("S2").unwrap();
        let nj = ds.item_by_name("NJ").unwrap();
        let az = ds.item_by_name("AZ").unwrap();

        assert_eq!(ds.value_of(s0, nj), ds.value_by_str("Trenton"));
        assert_eq!(ds.value_of(s2, az), None);
        assert!(ds.shares_item(s0, s1, nj));
        assert!(!ds.shares_item(s0, s2, az));

        assert_eq!(ds.shared_item_count(s0, s1), 2);
        assert_eq!(ds.shared_value_count(s0, s1), 1);
        assert_eq!(ds.shared_item_count(s0, s2), 1);
        assert_eq!(ds.shared_value_count(s0, s2), 0);
    }

    #[test]
    fn shared_claims_yields_common_items_in_item_order() {
        let ds = sample();
        let [s0, s1, s2] = ["S0", "S1", "S2"].map(|s| ds.source_by_name(s).unwrap());
        let [nj, az] = ["NJ", "AZ"].map(|d| ds.item_by_name(d).unwrap());
        let v = |s| ds.value_by_str(s).unwrap();
        let walk = |a, b| ds.shared_claims(a, b).collect::<Vec<_>>();
        assert_eq!(
            walk(s0, s1),
            [(nj, v("Trenton"), v("Trenton")), (az, v("Phoenix"), v("Tempe"))]
        );
        assert_eq!(walk(s2, s0), [(nj, v("Atlantic"), v("Trenton"))], "values in argument order");
    }

    #[test]
    fn provider_groups_are_disjoint_per_item() {
        let ds = sample();
        let nj = ds.item_by_name("NJ").unwrap();
        let groups = ds.values_of_item(nj);
        assert_eq!(groups.len(), 2);
        let mut all: Vec<SourceId> = groups.iter().flat_map(|g| g.providers.clone()).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(before, all.len(), "a source appears in two groups of one item");
        assert_eq!(ds.item_provider_count(nj), 3);
    }

    #[test]
    fn providers_of_specific_value() {
        let ds = sample();
        let nj = ds.item_by_name("NJ").unwrap();
        let trenton = ds.value_by_str("Trenton").unwrap();
        let provs = ds.providers_of(nj, trenton);
        assert_eq!(provs.len(), 2);
        let tempe = ds.value_by_str("Tempe").unwrap();
        assert!(ds.providers_of(nj, tempe).is_empty());
    }

    #[test]
    fn claims_iterators_are_consistent() {
        let ds = sample();
        assert_eq!(ds.claims_iter().count(), ds.num_claims());
        assert_eq!(ds.claim_refs().count(), ds.num_claims());
        let any = ds.claim_refs().any(|c| c.source == "S1" && c.item == "AZ" && c.value == "Tempe");
        assert!(any);
    }

    #[test]
    fn project_items_keeps_ids_stable() {
        let ds = sample();
        let nj = ds.item_by_name("NJ").unwrap();
        let az = ds.item_by_name("AZ").unwrap();
        let keep: HashSet<ItemId> = [nj].into_iter().collect();
        let proj = ds.project_items(&keep);
        assert_eq!(proj.num_sources(), ds.num_sources());
        assert_eq!(proj.num_items(), ds.num_items());
        assert_eq!(proj.num_claims(), 3);
        assert!(proj.values_of_item(az).is_empty());
        let s0 = proj.source_by_name("S0").unwrap();
        assert_eq!(proj.value_of(s0, az), None);
        assert_eq!(proj.value_of(s0, nj), ds.value_of(s0, nj));
    }

    #[test]
    fn project_items_aliases_names_and_kept_groups() {
        let ds = sample();
        let nj = ds.item_by_name("NJ").unwrap();
        let keep: HashSet<ItemId> = [nj].into_iter().collect();
        let proj = ds.project_items(&keep);
        assert!(Arc::ptr_eq(proj.shared_source_names(), ds.shared_source_names()));
        assert!(Arc::ptr_eq(proj.shared_item_names(), ds.shared_item_names()));
        assert!(proj.values_interner().ptr_eq(ds.values_interner()));
        assert!(Arc::ptr_eq(proj.shared_groups_of(nj), ds.shared_groups_of(nj)));
    }

    #[test]
    fn from_sorted_claims_matches_builder() {
        let ds = sample();
        let claims: Vec<Vec<(ItemId, ValueId)>> =
            ds.sources().map(|s| ds.claims_of(s).to_vec()).collect();
        let assembled = Dataset::from_sorted_claims(
            (*ds.source_names).clone(),
            (*ds.item_names).clone(),
            ds.values.clone(),
            claims,
        );
        assert_eq!(assembled, ds, "assembled snapshot must equal the builder-built one");
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn from_sorted_claims_rejects_unsorted_lists() {
        let ds = sample();
        let _ = Dataset::from_sorted_claims(
            vec!["S".into()],
            (*ds.item_names).clone(),
            ds.values.clone(),
            vec![vec![(ItemId::new(1), ValueId::new(0)), (ItemId::new(0), ValueId::new(0))]],
        );
    }

    #[test]
    fn with_patches_replaces_only_the_patched_entities() {
        let ds = sample();
        let s2 = ds.source_by_name("S2").unwrap();
        let s0 = ds.source_by_name("S0").unwrap();
        let az = ds.item_by_name("AZ").unwrap();
        let nj = ds.item_by_name("NJ").unwrap();
        let phoenix = ds.value_by_str("Phoenix").unwrap();

        // S2 gains an AZ claim (Phoenix): patch S2's list and AZ's groups.
        let mut s2_claims = ds.claims_of(s2).to_vec();
        s2_claims.push((az, phoenix));
        s2_claims.sort_unstable_by_key(|&(d, _)| d);
        let mut az_groups = ds.values_of_item(az).to_vec();
        az_groups
            .iter_mut()
            .find(|g| g.value == phoenix)
            .expect("Phoenix group exists")
            .providers
            .push(s2);
        let patched = ds.with_patches(
            Arc::clone(&ds.source_names),
            Arc::clone(&ds.item_names),
            ds.values.clone(),
            vec![(s2, s2_claims)],
            vec![(az, az_groups)],
        );

        assert_eq!(patched.num_claims(), ds.num_claims() + 1);
        assert_eq!(patched.value_of(s2, az), Some(phoenix));
        assert_eq!(patched.providers_of(az, phoenix).len(), 2);
        // Untouched entities alias the previous snapshot's storage.
        assert!(Arc::ptr_eq(patched.shared_claims_of(s0), ds.shared_claims_of(s0)));
        assert!(Arc::ptr_eq(patched.shared_groups_of(nj), ds.shared_groups_of(nj)));
        assert!(Arc::ptr_eq(patched.shared_source_names(), ds.shared_source_names()));
        // The patched entities do not.
        assert!(!Arc::ptr_eq(patched.shared_claims_of(s2), ds.shared_claims_of(s2)));
        assert!(!Arc::ptr_eq(patched.shared_groups_of(az), ds.shared_groups_of(az)));
        // The previous snapshot is untouched.
        assert_eq!(ds.value_of(s2, az), None);
    }

    #[test]
    fn with_patches_extends_the_id_space() {
        let ds = sample();
        let mut source_names = (*ds.source_names).clone();
        source_names.push("S3".to_owned());
        let patched = ds.with_patches(
            Arc::new(source_names),
            Arc::clone(&ds.item_names),
            ds.values.clone(),
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(patched.num_sources(), 4);
        assert_eq!(patched.num_claims(), ds.num_claims());
        let s3 = patched.source_by_name("S3").unwrap();
        assert!(patched.claims_of(s3).is_empty());
    }

    #[test]
    #[should_panic(expected = "extend the snapshot's id space")]
    fn with_patches_rejects_shrunken_tables() {
        let ds = sample();
        let _ = ds.with_patches(
            Arc::new(vec!["S0".to_owned()]),
            Arc::clone(&ds.item_names),
            ds.values.clone(),
            Vec::new(),
            Vec::new(),
        );
    }

    #[test]
    fn group_support() {
        let ds = sample();
        let nj = ds.item_by_name("NJ").unwrap();
        let trenton = ds.value_by_str("Trenton").unwrap();
        let g = ds.values_of_item(nj).iter().find(|g| g.value == trenton).unwrap();
        assert_eq!(g.support(), 2);
    }
}
