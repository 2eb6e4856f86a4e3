//! Claim-level deltas between two dataset snapshots.
//!
//! A [`DatasetDelta`] records which claims were added or changed between an
//! older and a newer [`Dataset`] over the *same identifier space* (the newer
//! snapshot may introduce additional sources, items and values, but ids that
//! exist in both snapshots must mean the same thing — exactly the guarantee
//! the `copydet-store` claim store provides between consecutive snapshots).
//!
//! Deltas drive incremental index maintenance and delta-driven copy
//! detection: only the pairs whose evidence can have moved — pairs involving
//! a touched source, or pairs co-occurring in a value group of a touched
//! item — need to be re-examined (see `DESIGN.md` §5).

use crate::dataset::Dataset;
use crate::ids::{ItemId, SourceId, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// One claim that was added or changed between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimChange {
    /// The source whose claim changed.
    pub source: SourceId,
    /// The item the claim is about.
    pub item: ItemId,
    /// The value in the older snapshot (`None` when the claim is new).
    pub old: Option<ValueId>,
    /// The value in the newer snapshot.
    pub new: ValueId,
}

impl ClaimChange {
    /// Returns `true` if the claim did not exist in the older snapshot.
    pub fn is_addition(&self) -> bool {
        self.old.is_none()
    }
}

/// The set of claims added or changed between an older and a newer
/// [`Dataset`] snapshot, with per-source and per-item views.
///
/// Claims are never removed between snapshots (stores are append-oriented;
/// re-claiming an item overwrites the value), so a delta consists purely of
/// additions and in-place value changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetDelta {
    /// All changes, sorted by `(source, item)`.
    changes: Vec<ClaimChange>,
    /// Sources with at least one added/changed claim.
    sources: BTreeSet<SourceId>,
    /// Items with at least one added/changed claim.
    items: BTreeSet<ItemId>,
    /// `(item, value)` groups whose provider membership changed (the new
    /// value's group gained the source; the old value's group, if any, lost
    /// it). These are exactly the index entries whose contribution score can
    /// have moved through membership rather than probability.
    groups: BTreeSet<(ItemId, ValueId)>,
}

impl DatasetDelta {
    /// Builds a delta from an explicit list of changes.
    ///
    /// Changes are de-duplicated by `(source, item)` keeping the last entry
    /// (and its earliest recorded `old` value), mirroring last-claim-wins
    /// ingest semantics. No-op changes (`old == Some(new)`) are dropped.
    pub fn from_changes(changes: impl IntoIterator<Item = ClaimChange>) -> Self {
        let mut merged: BTreeMap<(SourceId, ItemId), ClaimChange> = BTreeMap::new();
        for c in changes {
            merged
                .entry((c.source, c.item))
                .and_modify(|existing| existing.new = c.new)
                .or_insert(c);
        }
        let mut delta = DatasetDelta::default();
        for (_, c) in merged {
            if c.old == Some(c.new) {
                continue;
            }
            delta.sources.insert(c.source);
            delta.items.insert(c.item);
            delta.groups.insert((c.item, c.new));
            if let Some(old) = c.old {
                delta.groups.insert((c.item, old));
            }
            delta.changes.push(c);
        }
        delta
    }

    /// Diffs two snapshots over the same identifier space.
    ///
    /// # Panics
    /// Panics if `new` drops a claim that `old` had (snapshots are
    /// append-oriented: values may change, claims may appear, but never
    /// disappear).
    pub fn between(old: &Dataset, new: &Dataset) -> Self {
        assert!(
            new.num_sources() >= old.num_sources() && new.num_items() >= old.num_items(),
            "the newer snapshot must extend the older snapshot's id space"
        );
        let mut changes = Vec::new();
        for s in new.sources() {
            let old_claims: &[(ItemId, ValueId)] =
                if s.index() < old.num_sources() { old.claims_of(s) } else { &[] };
            let mut oi = 0;
            for &(d, v) in new.claims_of(s) {
                assert!(
                    oi >= old_claims.len() || old_claims[oi].0 >= d,
                    "claim ({s}, {}) present in the old snapshot is missing from the new one",
                    old_claims[oi].0
                );
                let old_value = if oi < old_claims.len() && old_claims[oi].0 == d {
                    oi += 1;
                    Some(old_claims[oi - 1].1)
                } else {
                    None
                };
                if old_value != Some(v) {
                    changes.push(ClaimChange { source: s, item: d, old: old_value, new: v });
                }
            }
            assert!(
                oi == old_claims.len(),
                "source {s} lost {} claim(s) between snapshots",
                old_claims.len() - oi
            );
        }
        Self::from_changes(changes)
    }

    /// Returns `true` if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of added/changed claims.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// All changes, sorted by `(source, item)`.
    pub fn changes(&self) -> &[ClaimChange] {
        &self.changes
    }

    /// Sources with at least one added/changed claim.
    pub fn touched_sources(&self) -> &BTreeSet<SourceId> {
        &self.sources
    }

    /// Items with at least one added/changed claim.
    pub fn touched_items(&self) -> &BTreeSet<ItemId> {
        &self.items
    }

    /// `(item, value)` groups whose provider membership changed.
    pub fn touched_groups(&self) -> &BTreeSet<(ItemId, ValueId)> {
        &self.groups
    }

    /// Returns `true` if `s` has added/changed claims in this delta.
    pub fn touches_source(&self, s: SourceId) -> bool {
        self.sources.contains(&s)
    }

    /// Returns `true` if `d` has added/changed claims in this delta.
    pub fn touches_item(&self, d: ItemId) -> bool {
        self.items.contains(&d)
    }

    /// Iterator over the purely-new claims (no previous value).
    pub fn additions(&self) -> impl Iterator<Item = &ClaimChange> + '_ {
        self.changes.iter().filter(|c| c.is_addition())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;

    fn build(claims: &[(&str, &str, &str)]) -> Dataset {
        let mut b = DatasetBuilder::new();
        for (s, d, v) in claims {
            b.add_claim(s, d, v);
        }
        b.build()
    }

    #[test]
    fn between_detects_additions_and_changes() {
        let old = build(&[("S0", "NJ", "Trenton"), ("S1", "NJ", "Newark")]);
        let new = build(&[
            ("S0", "NJ", "Trenton"),
            ("S1", "NJ", "Trenton"), // changed
            ("S2", "NJ", "Trenton"), // new source
            ("S0", "AZ", "Phoenix"), // new item
        ]);
        let delta = DatasetDelta::between(&old, &new);
        assert_eq!(delta.len(), 3);
        assert!(!delta.is_empty());
        let nj = new.item_by_name("NJ").unwrap();
        let az = new.item_by_name("AZ").unwrap();
        let s0 = new.source_by_name("S0").unwrap();
        let s1 = new.source_by_name("S1").unwrap();
        let s2 = new.source_by_name("S2").unwrap();
        assert!(delta.touches_source(s0), "S0 gained the AZ claim");
        assert!(delta.touches_source(s1));
        assert!(delta.touches_source(s2));
        assert!(delta.touches_item(nj) && delta.touches_item(az));
        // S1's change records the old value.
        let change = delta.changes().iter().find(|c| c.source == s1).unwrap();
        assert_eq!(change.old, old.value_of(s1, nj));
        assert!(!change.is_addition());
        // The old and new groups of the changed claim are both touched.
        assert!(delta.touched_groups().contains(&(nj, change.new)));
        assert!(delta.touched_groups().contains(&(nj, change.old.unwrap())));
        assert_eq!(delta.additions().count(), 2);
    }

    #[test]
    fn between_identical_snapshots_is_empty() {
        let ds = build(&[("S0", "NJ", "Trenton"), ("S1", "AZ", "Phoenix")]);
        let delta = DatasetDelta::between(&ds, &ds.clone());
        assert!(delta.is_empty());
        assert_eq!(delta.len(), 0);
        assert!(delta.touched_sources().is_empty());
        assert!(delta.touched_items().is_empty());
        assert!(delta.touched_groups().is_empty());
    }

    #[test]
    fn from_changes_dedups_by_source_item() {
        let s = SourceId::new(0);
        let d = ItemId::new(0);
        let delta = DatasetDelta::from_changes(vec![
            ClaimChange { source: s, item: d, old: None, new: ValueId::new(1) },
            ClaimChange { source: s, item: d, old: Some(ValueId::new(1)), new: ValueId::new(2) },
        ]);
        // Merged into a single addition whose final value is V2.
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.changes()[0].new, ValueId::new(2));
        assert!(delta.changes()[0].is_addition());
    }

    #[test]
    fn from_changes_drops_noop_roundtrips() {
        let s = SourceId::new(0);
        let d = ItemId::new(0);
        let v = ValueId::new(1);
        let delta = DatasetDelta::from_changes(vec![
            ClaimChange { source: s, item: d, old: Some(v), new: ValueId::new(2) },
            ClaimChange { source: s, item: d, old: Some(ValueId::new(2)), new: v },
        ]);
        assert!(delta.is_empty(), "a value changed back to its snapshot state is a no-op");
    }

    #[test]
    #[should_panic(expected = "lost 1 claim(s)")]
    fn between_rejects_dropped_claims() {
        let old = build(&[("S0", "NJ", "Trenton"), ("S0", "AZ", "Phoenix")]);
        let new = build(&[("S0", "NJ", "Trenton"), ("S1", "AZ", "Phoenix")]);
        let _ = DatasetDelta::between(&old, &new);
    }
}
