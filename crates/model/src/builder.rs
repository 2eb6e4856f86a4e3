//! Incremental construction of [`Dataset`]s from string claims.

use crate::dataset::Dataset;
use crate::ids::{ItemId, SourceId, ValueId};
use crate::interner::Interner;
use crate::names::NameTable;
use std::collections::HashMap;

/// Builds a [`Dataset`] from `(source, item, value)` claims given as strings.
///
/// * Sources, items and values are assigned dense ids in first-seen order, so
///   construction is deterministic for a fixed insertion order.
/// * A source may claim each item at most once; re-adding a claim for the
///   same `(source, item)` overwrites the previous value.
/// * Empty value strings are accepted and treated like any other value; a
///   *missing* value is expressed by simply not adding a claim.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    sources: NameTable,
    items: NameTable,
    values: Interner,
    /// claim map per source: item -> value
    claims: Vec<HashMap<ItemId, ValueId>>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or retrieves) a source by name.
    pub fn source(&mut self, name: &str) -> SourceId {
        let idx = self.sources.intern(name);
        if idx == self.claims.len() {
            self.claims.push(HashMap::new());
        }
        SourceId::from_index(idx)
    }

    /// Interns (or retrieves) a data item by name.
    pub fn item(&mut self, name: &str) -> ItemId {
        ItemId::from_index(self.items.intern(name))
    }

    /// Interns (or retrieves) a value string.
    pub fn value(&mut self, s: &str) -> ValueId {
        self.values.intern(s)
    }

    /// Adds the claim "source provides `value` for `item`", interning all
    /// three strings. Returns the claim as dense ids.
    pub fn add_claim(
        &mut self,
        source: &str,
        item: &str,
        value: &str,
    ) -> (SourceId, ItemId, ValueId) {
        let s = self.source(source);
        let d = self.item(item);
        let v = self.value(value);
        self.add_claim_ids(s, d, v);
        (s, d, v)
    }

    /// Adds a claim using already-interned identifiers.
    ///
    /// # Panics
    /// Panics if any id was not produced by this builder.
    pub fn add_claim_ids(&mut self, source: SourceId, item: ItemId, value: ValueId) {
        assert!(source.index() < self.sources.len(), "unknown source id {source}");
        assert!(item.index() < self.items.len(), "unknown item id {item}");
        assert!(value.index() < self.values.len(), "unknown value id {value}");
        self.claims[source.index()].insert(item, value);
    }

    /// Number of sources registered so far.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of items registered so far.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Number of claims registered so far.
    pub fn num_claims(&self) -> usize {
        self.claims.iter().map(HashMap::len).sum()
    }

    /// Finalizes the builder into an immutable [`Dataset`].
    pub fn build(self) -> Dataset {
        // Per-source sorted claim lists.
        let mut claims: Vec<Vec<(ItemId, ValueId)>> = Vec::with_capacity(self.claims.len());
        for map in &self.claims {
            let mut list: Vec<(ItemId, ValueId)> = map.iter().map(|(&d, &v)| (d, v)).collect();
            list.sort_unstable_by_key(|&(d, _)| d);
            claims.push(list);
        }
        Dataset::from_sorted_claims(
            self.sources.into_names(),
            self.items.into_names(),
            self.values,
            claims,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_first_seen_order() {
        let mut b = DatasetBuilder::new();
        let s0 = b.source("alpha");
        let s1 = b.source("beta");
        assert_eq!(s0, SourceId::new(0));
        assert_eq!(s1, SourceId::new(1));
        assert_eq!(b.source("alpha"), s0);
        let d0 = b.item("x");
        assert_eq!(d0, ItemId::new(0));
        assert_eq!(b.item("x"), d0);
    }

    #[test]
    fn duplicate_claims_overwrite() {
        let mut b = DatasetBuilder::new();
        b.add_claim("S", "D", "v1");
        b.add_claim("S", "D", "v2");
        assert_eq!(b.num_claims(), 1);
        let ds = b.build();
        assert_eq!(ds.num_claims(), 1);
        let s = ds.source_by_name("S").unwrap();
        let d = ds.item_by_name("D").unwrap();
        assert_eq!(ds.value_of(s, d), ds.value_by_str("v2"));
    }

    #[test]
    fn build_produces_sorted_structures() {
        let mut b = DatasetBuilder::new();
        // Insert out of item order on purpose.
        b.add_claim("S0", "D2", "b");
        b.add_claim("S0", "D0", "a");
        b.add_claim("S0", "D1", "c");
        b.add_claim("S1", "D1", "c");
        let ds = b.build();
        let s0 = ds.source_by_name("S0").unwrap();
        let items: Vec<_> = ds.claims_of(s0).iter().map(|&(d, _)| d.index()).collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(items, sorted);
        // providers sorted
        let d1 = ds.item_by_name("D1").unwrap();
        for g in ds.values_of_item(d1) {
            let mut p = g.providers.clone();
            p.sort_unstable();
            assert_eq!(p, g.providers);
        }
    }

    #[test]
    fn counts_before_build() {
        let mut b = DatasetBuilder::new();
        b.add_claim("S0", "D0", "x");
        b.add_claim("S1", "D0", "x");
        b.add_claim("S1", "D1", "y");
        assert_eq!(b.num_sources(), 2);
        assert_eq!(b.num_items(), 2);
        assert_eq!(b.num_claims(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown source id")]
    fn add_claim_ids_validates() {
        let mut b = DatasetBuilder::new();
        let d = b.item("D");
        let v = b.value("x");
        b.add_claim_ids(SourceId::new(5), d, v);
    }

    #[test]
    fn empty_build_is_allowed() {
        let ds = DatasetBuilder::new().build();
        assert_eq!(ds.num_sources(), 0);
        assert_eq!(ds.num_items(), 0);
        assert_eq!(ds.num_claims(), 0);
    }
}
