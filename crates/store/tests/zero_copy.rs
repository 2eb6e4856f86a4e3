//! Snapshot-cost regression: `snapshot()` must not copy per-name data.
//!
//! On a synthetic corpus with ~100k distinct strings, zero-copy behaviour is
//! proven structurally — by pointer equality ([`Arc::ptr_eq`]) and reference
//! counts ([`Arc::strong_count`]) on the shared tables — rather than by
//! timing, so the assertions are deterministic in CI. If `snapshot()`
//! regressed to cloning the name tables, the interner or untouched claim
//! lists, these pointer identities would break immediately.

use copydet_store::ClaimStore;
use std::sync::Arc;

const SOURCES: usize = 4;
const ITEMS: usize = 25_000;
// Distinct strings: 4 source names + 25k item names + ~4×25k mostly-distinct
// values ≈ 100k.

fn populated_store() -> ClaimStore {
    let mut store = ClaimStore::new();
    for j in 0..ITEMS {
        for s in 0..SOURCES {
            // Source 0 and 1 agree; 2 and 3 provide distinct values, so the
            // vocabulary carries three values per item.
            let value = if s <= 1 { format!("v-{j}-shared") } else { format!("v-{j}-{s}") };
            store.ingest(&format!("S{s}"), &format!("item-{j}"), &value);
        }
    }
    store
}

#[test]
fn snapshot_allocates_no_per_name_copies() {
    let mut store = populated_store();
    assert!(
        store.num_items() + store.num_values() + store.num_sources() >= 100_000,
        "the corpus must carry ~100k distinct strings, got {}",
        store.num_items() + store.num_values() + store.num_sources()
    );
    store.seal();

    let snap1 = store.snapshot();
    // A small delta over *existing* names only: one value flip re-using an
    // interned string. No table may be copied for the next snapshot.
    store.ingest("S2", "item-7", "v-7-shared");
    let snap2 = store.snapshot();

    // The name tables and the value interner of both snapshots are the very
    // same allocations — zero per-name copies across snapshots.
    assert!(Arc::ptr_eq(snap1.dataset.shared_source_names(), snap2.dataset.shared_source_names()));
    assert!(Arc::ptr_eq(snap1.dataset.shared_item_names(), snap2.dataset.shared_item_names()));
    assert!(snap1.dataset.values_interner().ptr_eq(snap2.dataset.values_interner()));

    // Reference counts prove the store and the held snapshots share one
    // table: store + snap1 + snap2 + the store's cached last snapshot all
    // point at the same item-name allocation.
    assert!(
        Arc::strong_count(snap2.dataset.shared_item_names()) >= 4,
        "expected the store and every live snapshot to alias one table, got {}",
        Arc::strong_count(snap2.dataset.shared_item_names())
    );

    // Per-source claim lists: only the touched source was rebuilt.
    let touched = snap2.dataset.source_by_name("S2").unwrap();
    for s in snap2.dataset.sources() {
        let aliased =
            Arc::ptr_eq(snap1.dataset.shared_claims_of(s), snap2.dataset.shared_claims_of(s));
        assert_eq!(aliased, s != touched, "claim list of source {s}");
    }
    // Per-item groups: only the touched item was rebuilt.
    let touched_item = snap2.dataset.item_by_name("item-7").unwrap();
    for d in [0usize, 1, 12_345, 24_999] {
        let d = copydet_model::ItemId::from_index(d);
        let aliased =
            Arc::ptr_eq(snap1.dataset.shared_groups_of(d), snap2.dataset.shared_groups_of(d));
        assert_eq!(aliased, d != touched_item, "groups of item {d}");
    }

    // A no-change snapshot aliases *everything*.
    let snap3 = store.snapshot();
    assert!(Arc::ptr_eq(snap2.dataset.shared_item_names(), snap3.dataset.shared_item_names()));
    for s in snap3.dataset.sources() {
        assert!(Arc::ptr_eq(snap2.dataset.shared_claims_of(s), snap3.dataset.shared_claims_of(s)));
    }

    // Later interning of a *new* name detaches copy-on-write without
    // disturbing the held snapshots.
    store.ingest("brand-new-source", "item-0", "v-0-shared");
    let snap4 = store.snapshot();
    assert!(!Arc::ptr_eq(snap3.dataset.shared_source_names(), snap4.dataset.shared_source_names()));
    assert!(
        Arc::ptr_eq(snap3.dataset.shared_item_names(), snap4.dataset.shared_item_names()),
        "no new item was interned, so the item table still aliases"
    );
    assert_eq!(snap3.dataset.num_sources() + 1, snap4.dataset.num_sources());
}
