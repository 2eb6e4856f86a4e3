//! Dense, newtyped identifiers for sources, data items and values.
//!
//! All identifiers are allocated densely starting from zero by
//! [`DatasetBuilder`](crate::DatasetBuilder), so per-source / per-item state
//! can live in plain `Vec`s indexed by `id.index()` on hot paths instead of
//! hash maps.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a dense index.
            #[inline]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Creates an identifier from a `usize` index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflows u32"))
            }

            /// Returns the dense index as `usize`, suitable for `Vec` indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

define_id!(
    /// Identifier of a data source (a website, a book store, a feed, …).
    SourceId,
    "S"
);
define_id!(
    /// Identifier of a data item (one attribute of one real-world entity).
    ItemId,
    "D"
);
define_id!(
    /// Identifier of a distinct (interned) value string.
    ValueId,
    "V"
);

/// An unordered pair of distinct sources, stored in canonical order
/// (`first < second`).
///
/// Copy detection reasons about pairs of sources; using a canonical
/// representation lets pair state be keyed consistently regardless of the
/// order in which the two sources were encountered. Note that the *copying
/// direction* (`S1 → S2` vs `S1 ← S2`) is tracked separately by the
/// detection algorithms: `SourcePair` only identifies which two sources are
/// being compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourcePair {
    first: SourceId,
    second: SourceId,
}

impl SourcePair {
    /// Creates a canonical pair from two distinct sources.
    ///
    /// # Panics
    /// Panics if `a == b`; a source is never compared with itself.
    #[inline]
    pub fn new(a: SourceId, b: SourceId) -> Self {
        assert_ne!(a, b, "a source cannot form a pair with itself");
        if a < b {
            Self { first: a, second: b }
        } else {
            Self { first: b, second: a }
        }
    }

    /// The smaller of the two source identifiers.
    #[inline]
    pub const fn first(self) -> SourceId {
        self.first
    }

    /// The larger of the two source identifiers.
    #[inline]
    pub const fn second(self) -> SourceId {
        self.second
    }

    /// Returns the pair as a `(first, second)` tuple.
    #[inline]
    pub const fn as_tuple(self) -> (SourceId, SourceId) {
        (self.first, self.second)
    }

    /// Returns the member of the pair that is not `s`.
    ///
    /// # Panics
    /// Panics if `s` is not a member of the pair.
    #[inline]
    pub fn other(self, s: SourceId) -> SourceId {
        if s == self.first {
            self.second
        } else if s == self.second {
            self.first
        } else {
            panic!("{s} is not a member of {self}")
        }
    }

    /// Returns `true` if `s` is one of the two sources.
    #[inline]
    pub fn contains(self, s: SourceId) -> bool {
        s == self.first || s == self.second
    }
}

impl fmt::Display for SourcePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.first, self.second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_and_display() {
        let s = SourceId::new(7);
        assert_eq!(s.index(), 7);
        assert_eq!(s.raw(), 7);
        assert_eq!(s.to_string(), "S7");
        assert_eq!(SourceId::from_index(7), s);
        assert_eq!(ItemId::new(3).to_string(), "D3");
        assert_eq!(ValueId::new(12).to_string(), "V12");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(SourceId::new(1) < SourceId::new(2));
        assert!(ItemId::new(0) < ItemId::new(10));
    }

    #[test]
    fn source_pair_is_canonical() {
        let a = SourceId::new(4);
        let b = SourceId::new(1);
        let p = SourcePair::new(a, b);
        assert_eq!(p.first(), b);
        assert_eq!(p.second(), a);
        assert_eq!(p, SourcePair::new(b, a));
        assert_eq!(p.as_tuple(), (b, a));
        assert_eq!(p.to_string(), "(S1, S4)");
    }

    #[test]
    fn source_pair_other_and_contains() {
        let p = SourcePair::new(SourceId::new(2), SourceId::new(9));
        assert_eq!(p.other(SourceId::new(2)), SourceId::new(9));
        assert_eq!(p.other(SourceId::new(9)), SourceId::new(2));
        assert!(p.contains(SourceId::new(2)));
        assert!(!p.contains(SourceId::new(3)));
    }

    #[test]
    #[should_panic(expected = "cannot form a pair with itself")]
    fn source_pair_rejects_self_pair() {
        let _ = SourcePair::new(SourceId::new(3), SourceId::new(3));
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn source_pair_other_rejects_non_member() {
        let p = SourcePair::new(SourceId::new(0), SourceId::new(1));
        let _ = p.other(SourceId::new(2));
    }
}
