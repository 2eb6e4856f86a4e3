//! The two segment kinds of the claim store: in-memory **growing** segments
//! that absorb ingest, and immutable **sealed** segments frozen into the
//! dense sorted representation the detection algorithms consume.
//!
//! The design follows the growing/sealed split of search-engine segment
//! stores: writes always land in the single growing segment (hash-map
//! backed, duplicate/update tolerant); sealing freezes it into sorted
//! per-source claim lists; compaction merges sealed segments newest-wins.
//! Claims are never deleted — re-claiming an item overwrites the value.

// A panic-free `merge_sorted` measured 15–20% slower on equal-size lists, so
// the sorted-list merges and per-source lookups keep their bounds-checked
// indexing until that rewrite is a change of its own.
#![expect(clippy::indexing_slicing, reason = "sorted-list merges index within checked bounds")]

use copydet_model::{ItemId, SourceId, ValueId};
use std::collections::HashMap;
use std::sync::Arc;

/// The mutable ingest segment: a per-source `item → value` map.
///
/// Duplicate claims for the same `(source, item)` overwrite in place (the
/// count is tracked), exactly like
/// [`DatasetBuilder`](copydet_model::DatasetBuilder) ingest.
#[derive(Debug, Default, Clone)]
pub struct GrowingSegment {
    /// `claims[s]` = claims of source `s` since this segment was opened.
    /// Indexed by the store's global dense source ids; sources that have not
    /// written into this segment have empty maps.
    claims: Vec<HashMap<ItemId, ValueId>>,
    num_claims: usize,
    overwrites: usize,
}

impl GrowingSegment {
    /// Opens an empty growing segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or overwrites) a claim, returning the value it replaced
    /// *within this segment*, if any.
    pub fn insert(&mut self, source: SourceId, item: ItemId, value: ValueId) -> Option<ValueId> {
        if source.index() >= self.claims.len() {
            self.claims.resize_with(source.index() + 1, HashMap::new);
        }
        let old = self.claims[source.index()].insert(item, value);
        match old {
            Some(_) => self.overwrites += 1,
            None => self.num_claims += 1,
        }
        old
    }

    /// The value this segment holds for `(source, item)`, if any.
    pub fn get(&self, source: SourceId, item: ItemId) -> Option<ValueId> {
        self.claims.get(source.index())?.get(&item).copied()
    }

    /// Number of distinct `(source, item)` claims in the segment.
    pub fn num_claims(&self) -> usize {
        self.num_claims
    }

    /// Number of in-segment overwrites absorbed so far.
    pub fn overwrites(&self) -> usize {
        self.overwrites
    }

    /// Returns `true` if nothing has been ingested since the segment opened.
    pub fn is_empty(&self) -> bool {
        self.num_claims == 0
    }

    /// The segment's claims of `source`, sorted by item (empty if the source
    /// has not written into this segment). Used by the O(delta) snapshot path
    /// to re-merge a single touched source without freezing the whole
    /// segment.
    pub fn sorted_claims_of(&self, source: SourceId) -> Vec<(ItemId, ValueId)> {
        self.claims.get(source.index()).map(sorted_list).unwrap_or_default()
    }

    /// Freezes the segment into an immutable [`SealedSegment`].
    pub fn freeze(self) -> SealedSegment {
        let claims: Vec<(SourceId, Vec<(ItemId, ValueId)>)> = self
            .claims
            .iter()
            .enumerate()
            .filter(|(_, map)| !map.is_empty())
            .map(|(s, map)| (SourceId::from_index(s), sorted_list(map)))
            .collect();
        SealedSegment::from_parts(claims, self.num_claims)
    }
}

/// The single map → item-sorted-claim-list normalization shared by
/// [`GrowingSegment::freeze`] and [`GrowingSegment::sorted_claims_of`].
fn sorted_list(map: &HashMap<ItemId, ValueId>) -> Vec<(ItemId, ValueId)> {
    let mut list: Vec<(ItemId, ValueId)> = map.iter().map(|(&d, &v)| (d, v)).collect();
    list.sort_unstable_by_key(|&(d, _)| d);
    list
}

/// An immutable segment: per-source claim lists sorted by item, listed in
/// increasing source id (only sources with claims appear).
///
/// The claim storage sits behind a shared [`Arc`]: cloning a sealed segment
/// is a reference-count bump, so store snapshots (and store clones) alias
/// sealed data instead of materializing it. Compaction builds *new* merged
/// segments and never mutates existing ones — a handle taken before a
/// compaction keeps observing exactly the claims it was taken over.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    inner: Arc<SealedInner>,
}

#[derive(Debug)]
struct SealedInner {
    claims: Vec<(SourceId, Vec<(ItemId, ValueId)>)>,
    num_claims: usize,
}

impl SealedSegment {
    /// Assembles a segment from validated parts (sources strictly increasing,
    /// items strictly increasing per source). Crate-internal: used by
    /// [`GrowingSegment::freeze`], segment merging, and the on-disk decoder.
    pub(crate) fn from_parts(
        claims: Vec<(SourceId, Vec<(ItemId, ValueId)>)>,
        num_claims: usize,
    ) -> Self {
        Self { inner: Arc::new(SealedInner { claims, num_claims }) }
    }

    /// Number of claims in the segment.
    pub fn num_claims(&self) -> usize {
        self.inner.num_claims
    }

    /// Number of sources with at least one claim in the segment.
    pub fn num_sources(&self) -> usize {
        self.inner.claims.len()
    }

    /// Returns `true` if both handles alias the same sealed storage.
    pub fn ptr_eq(&self, other: &SealedSegment) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The segment's claim list for `source`, sorted by item.
    pub fn claims_of(&self, source: SourceId) -> &[(ItemId, ValueId)] {
        self.inner
            .claims
            .binary_search_by_key(&source, |&(s, _)| s)
            .map(|i| self.inner.claims[i].1.as_slice())
            .unwrap_or(&[])
    }

    /// The value this segment holds for `(source, item)`, if any.
    pub fn get(&self, source: SourceId, item: ItemId) -> Option<ValueId> {
        let list = self.claims_of(source);
        list.binary_search_by_key(&item, |&(d, _)| d).ok().map(|i| list[i].1)
    }

    /// Iterates over `(source, claims)` in increasing source id.
    pub fn per_source(&self) -> impl Iterator<Item = (SourceId, &[(ItemId, ValueId)])> + '_ {
        self.inner.claims.iter().map(|(s, list)| (*s, list.as_slice()))
    }

    /// Merges two sealed segments into one; where both hold a claim for the
    /// same `(source, item)`, `newer` wins. The inputs are untouched (any
    /// snapshot aliasing them keeps its view).
    pub fn merge(older: &SealedSegment, newer: &SealedSegment) -> SealedSegment {
        let (oc, nc) = (&older.inner.claims, &newer.inner.claims);
        let mut claims: Vec<(SourceId, Vec<(ItemId, ValueId)>)> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < oc.len() || j < nc.len() {
            let take_older = match (oc.get(i), nc.get(j)) {
                (Some((a, _)), Some((b, _))) => a < b,
                (Some(_), None) => true,
                _ => false,
            };
            if take_older {
                claims.push(oc[i].clone());
                i += 1;
            } else if i < oc.len() && oc[i].0 == nc[j].0 {
                claims.push((nc[j].0, merge_sorted(&oc[i].1, &nc[j].1)));
                i += 1;
                j += 1;
            } else {
                claims.push(nc[j].clone());
                j += 1;
            }
        }
        let num_claims = claims.iter().map(|(_, l)| l.len()).sum();
        SealedSegment::from_parts(claims, num_claims)
    }
}

/// Merges two item-sorted claim lists; entries of `newer` win on collision.
pub(crate) fn merge_sorted(
    older: &[(ItemId, ValueId)],
    newer: &[(ItemId, ValueId)],
) -> Vec<(ItemId, ValueId)> {
    let mut out = Vec::with_capacity(older.len() + newer.len());
    let (mut i, mut j) = (0, 0);
    while i < older.len() && j < newer.len() {
        match older[i].0.cmp(&newer[j].0) {
            std::cmp::Ordering::Less => {
                out.push(older[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(newer[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(newer[j]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&older[i..]);
    out.extend_from_slice(&newer[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SourceId {
        SourceId::new(i)
    }
    fn d(i: u32) -> ItemId {
        ItemId::new(i)
    }
    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    #[test]
    fn growing_insert_overwrite_and_freeze() {
        let mut g = GrowingSegment::new();
        assert!(g.is_empty());
        assert_eq!(g.insert(s(1), d(2), v(0)), None);
        assert_eq!(g.insert(s(1), d(0), v(1)), None);
        assert_eq!(g.insert(s(1), d(2), v(2)), Some(v(0)));
        assert_eq!(g.insert(s(3), d(1), v(1)), None);
        assert_eq!(g.num_claims(), 3);
        assert_eq!(g.overwrites(), 1);
        assert_eq!(g.get(s(1), d(2)), Some(v(2)));
        assert_eq!(g.get(s(0), d(0)), None);
        assert_eq!(g.get(s(9), d(0)), None);

        let sealed = g.freeze();
        assert_eq!(sealed.num_claims(), 3);
        assert_eq!(sealed.num_sources(), 2);
        assert_eq!(sealed.claims_of(s(1)), &[(d(0), v(1)), (d(2), v(2))]);
        assert_eq!(sealed.get(s(3), d(1)), Some(v(1)));
        assert_eq!(sealed.get(s(0), d(0)), None);
        assert_eq!(sealed.get(s(1), d(1)), None);
    }

    #[test]
    fn sealed_merge_is_newest_wins() {
        let mut a = GrowingSegment::new();
        a.insert(s(0), d(0), v(0));
        a.insert(s(0), d(1), v(1));
        a.insert(s(2), d(0), v(2));
        let mut b = GrowingSegment::new();
        b.insert(s(0), d(1), v(3)); // overwrites a's claim
        b.insert(s(1), d(0), v(4)); // new source in between
        b.insert(s(2), d(2), v(5)); // extends s2
        let merged = SealedSegment::merge(&a.freeze(), &b.freeze());
        assert_eq!(merged.num_claims(), 5);
        assert_eq!(merged.get(s(0), d(1)), Some(v(3)), "newer value wins");
        assert_eq!(merged.get(s(0), d(0)), Some(v(0)));
        assert_eq!(merged.get(s(1), d(0)), Some(v(4)));
        assert_eq!(merged.claims_of(s(2)), &[(d(0), v(2)), (d(2), v(5))]);
        let order: Vec<SourceId> = merged.per_source().map(|(s, _)| s).collect();
        assert_eq!(order, vec![s(0), s(1), s(2)]);
    }

    #[test]
    fn sealed_clones_alias_storage() {
        let mut g = GrowingSegment::new();
        g.insert(s(0), d(0), v(0));
        g.insert(s(1), d(1), v(1));
        let sealed = g.freeze();
        let alias = sealed.clone();
        assert!(alias.ptr_eq(&sealed), "cloning a sealed segment copies no claims");
        // Merging produces a fresh segment; the inputs keep their identity.
        let merged = SealedSegment::merge(&sealed, &alias);
        assert!(!merged.ptr_eq(&sealed));
        assert_eq!(merged.num_claims(), 2);
        assert_eq!(sealed.num_claims(), 2);
    }

    #[test]
    fn growing_sorted_claims_of_single_source() {
        let mut g = GrowingSegment::new();
        g.insert(s(1), d(2), v(0));
        g.insert(s(1), d(0), v(1));
        g.insert(s(3), d(1), v(2));
        assert_eq!(g.sorted_claims_of(s(1)), vec![(d(0), v(1)), (d(2), v(0))]);
        assert_eq!(g.sorted_claims_of(s(3)), vec![(d(1), v(2))]);
        assert!(g.sorted_claims_of(s(0)).is_empty());
        assert!(g.sorted_claims_of(s(9)).is_empty(), "beyond the segment's source range");
    }

    #[test]
    fn merge_sorted_handles_disjoint_and_overlap() {
        let older = vec![(d(0), v(0)), (d(2), v(1))];
        let newer = vec![(d(1), v(2)), (d(2), v(3)), (d(4), v(4))];
        let m = merge_sorted(&older, &newer);
        assert_eq!(m, vec![(d(0), v(0)), (d(1), v(2)), (d(2), v(3)), (d(4), v(4))]);
        assert_eq!(merge_sorted(&[], &newer), newer);
        assert_eq!(merge_sorted(&older, &[]), older);
    }
}
