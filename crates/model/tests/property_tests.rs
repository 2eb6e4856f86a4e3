//! Property-based tests for the dataset model: the invariants that every
//! downstream algorithm relies on must hold for arbitrary claim sets.

use copydet_model::{DatasetBuilder, ItemId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Strategy producing arbitrary claim triples over small name universes so
/// collisions (shared items, conflicting values, duplicate claims) are
/// frequent.
fn claims_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..12, 0u8..10, 0u8..6), 0..120)
}

proptest! {
    /// A source never appears in two value groups of the same item, and the
    /// union of the groups' providers equals the set of sources claiming the
    /// item.
    #[test]
    fn provider_groups_partition_item_providers(claims in claims_strategy()) {
        let mut b = DatasetBuilder::new();
        for (s, d, v) in &claims {
            b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
        }
        let ds = b.build();
        for d in ds.items() {
            let mut seen = HashSet::new();
            for group in ds.values_of_item(d) {
                for &p in &group.providers {
                    prop_assert!(seen.insert(p), "source {p} appears in two groups of item {d}");
                }
            }
            let claiming: HashSet<_> = ds
                .sources()
                .filter(|&s| ds.value_of(s, d).is_some())
                .collect();
            prop_assert_eq!(seen, claiming);
        }
    }

    /// The last claim wins: after building, a source's value for an item is
    /// the value of the last inserted claim for that (source, item).
    #[test]
    fn last_claim_wins(claims in claims_strategy()) {
        let mut b = DatasetBuilder::new();
        let mut expected: HashMap<(String, String), String> = HashMap::new();
        for (s, d, v) in &claims {
            let (s, d, v) = (format!("S{s}"), format!("D{d}"), format!("v{v}"));
            b.add_claim(&s, &d, &v);
            expected.insert((s, d), v);
        }
        let ds = b.build();
        prop_assert_eq!(ds.num_claims(), expected.len());
        for ((s, d), v) in &expected {
            let sid = ds.source_by_name(s).unwrap();
            let did = ds.item_by_name(d).unwrap();
            let vid = ds.value_of(sid, did).unwrap();
            prop_assert_eq!(ds.value_str(vid), v.as_str());
        }
    }

    /// Shared item / shared value counts are symmetric and consistent:
    /// shared values ≤ shared items ≤ min coverage.
    #[test]
    fn sharing_counts_are_consistent(claims in claims_strategy()) {
        let mut b = DatasetBuilder::new();
        for (s, d, v) in &claims {
            b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
        }
        let ds = b.build();
        let sources: Vec<_> = ds.sources().collect();
        for (i, &a) in sources.iter().enumerate() {
            for &b_ in &sources[i + 1..] {
                let items = ds.shared_item_count(a, b_);
                let values = ds.shared_value_count(a, b_);
                prop_assert_eq!(items, ds.shared_item_count(b_, a));
                prop_assert_eq!(values, ds.shared_value_count(b_, a));
                prop_assert!(values <= items);
                prop_assert!(items <= ds.coverage(a).min(ds.coverage(b_)));
            }
        }
    }

    /// `decode(encode(x)) == x` for the binary claim codec over arbitrary
    /// ids, and for strings over an alphabet heavy in non-ASCII.
    #[test]
    fn codec_roundtrip(
        ids in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..20),
        strings in prop::collection::vec(
            prop::collection::vec(0u8..8, 0..10),
            0..10,
        )
    ) {
        use copydet_model::codec;
        const ALPHABET: [char; 8] = ['a', '\t', '#', 'é', 'ß', '雪', '\u{1F600}', '\u{0}'];
        let strings: Vec<String> = strings
            .into_iter()
            .map(|cs| cs.into_iter().map(|i| ALPHABET[i as usize]).collect())
            .collect();

        let mut out = Vec::new();
        for &(s, d, v) in &ids {
            codec::put_claim(&mut out, &copydet_model::Claim::new(
                copydet_model::SourceId::new(s),
                copydet_model::ItemId::new(d),
                copydet_model::ValueId::new(v),
            ));
        }
        for s in &strings {
            codec::put_str(&mut out, s).unwrap();
        }
        let mut r = codec::Reader::new(&out);
        for &(s, d, v) in &ids {
            let c = r.claim().unwrap();
            prop_assert_eq!((c.source.raw(), c.item.raw(), c.value.raw()), (s, d, v));
        }
        for s in &strings {
            prop_assert_eq!(r.str_ref().unwrap(), s.as_str());
        }
        prop_assert!(r.is_empty());
    }

    /// The codec reader never panics on arbitrary bytes (`encode(decode(x))
    /// == x` in the other direction: whatever *does* decode re-encodes to
    /// the bytes it was decoded from).
    #[test]
    fn codec_reader_tolerates_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        use copydet_model::codec;
        let mut r = codec::Reader::new(&bytes);
        let _ = r.u8();
        let _ = r.u32();
        let _ = r.u64();
        if let Ok(s) = codec::Reader::new(&bytes).str_ref() {
            // Re-encoding a decoded string reproduces the consumed bytes.
            let mut out = Vec::new();
            codec::put_str(&mut out, s).unwrap();
            prop_assert_eq!(&out[..], &bytes[..out.len()]);
        }
        if let Ok(c) = codec::Reader::new(&bytes).claim() {
            let mut out = Vec::new();
            codec::put_claim(&mut out, &c);
            prop_assert_eq!(&out[..], &bytes[..12]);
        }
    }

    /// Projection onto a random item subset keeps exactly the claims of those
    /// items and keeps identifiers stable.
    #[test]
    fn projection_is_exact(claims in claims_strategy(), keep_mask in prop::collection::vec(any::<bool>(), 10)) {
        let mut b = DatasetBuilder::new();
        for (s, d, v) in &claims {
            b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
        }
        let ds = b.build();
        let keep: HashSet<ItemId> = ds
            .items()
            .filter(|d| keep_mask.get(d.index()).copied().unwrap_or(false))
            .collect();
        let proj = ds.project_items(&keep);
        prop_assert_eq!(proj.num_sources(), ds.num_sources());
        prop_assert_eq!(proj.num_items(), ds.num_items());
        let expected: usize = ds
            .claims_iter()
            .filter(|c| keep.contains(&c.item))
            .count();
        prop_assert_eq!(proj.num_claims(), expected);
        for s in ds.sources() {
            for d in ds.items() {
                let expected = if keep.contains(&d) { ds.value_of(s, d) } else { None };
                prop_assert_eq!(proj.value_of(s, d), expected);
            }
        }
    }
}
