//! A simple string interner mapping value strings to dense [`ValueId`]s.

use crate::ids::ValueId;
use std::collections::HashMap;
use std::sync::Arc;

/// Interns value strings so the rest of the system can work with dense
/// `u32`-backed [`ValueId`]s.
///
/// Interning is append-only: once a string has been assigned an id, the id is
/// stable for the lifetime of the interner. Lookup is `O(1)` expected in both
/// directions.
///
/// Both the id-ordered string list and the reverse-lookup map live behind
/// shared [`Arc`] handles: [`Interner::clone`] is two reference-count bumps
/// regardless of vocabulary size, and [`intern`](Interner::intern) appends
/// copy-on-write — storage is only deep-copied when a new string arrives
/// while an older clone is still alive. This is what keeps
/// `ClaimStore::snapshot()` free of per-value string copies.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Arc<Vec<String>>,
    lookup: Arc<HashMap<String, ValueId>>,
}

impl PartialEq for Interner {
    /// Two interners are equal when they intern the same strings with the
    /// same ids; the derived reverse-lookup table is ignored (it may be
    /// empty right after deserialization).
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.strings, &other.strings) || self.strings == other.strings
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id. Returns the existing id if `s` has been
    /// interned before.
    pub fn intern(&mut self, s: &str) -> ValueId {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = ValueId::from_index(self.strings.len());
        Arc::make_mut(&mut self.strings).push(s.to_owned());
        Arc::make_mut(&mut self.lookup).insert(s.to_owned(), id);
        id
    }

    /// Returns the id of `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<ValueId> {
        self.lookup.get(s).copied()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: ValueId) -> &str {
        &self.strings[id.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (ValueId::from_index(i), s.as_str()))
    }

    /// A zero-copy handle to the id-ordered string list.
    ///
    /// The handle aliases the interner's storage: no string is copied. A
    /// later [`intern`](Interner::intern) of a *new* string clones the list
    /// copy-on-write, so the handle stays frozen at its snapshot state.
    pub fn shared_strings(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.strings)
    }

    /// Returns `true` if both interners alias the same underlying string
    /// storage (clone without intervening new-string interns).
    pub fn ptr_eq(&self, other: &Interner) -> bool {
        Arc::ptr_eq(&self.strings, &other.strings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Trenton");
        let b = i.intern("Phoenix");
        let a2 = i.intern("Trenton");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "Trenton");
        assert_eq!(i.resolve(b), "Phoenix");
    }

    #[test]
    fn get_returns_none_for_unknown() {
        let mut i = Interner::new();
        i.intern("x");
        assert!(i.get("y").is_none());
        assert_eq!(i.get("x"), Some(ValueId::new(0)));
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        let collected: Vec<_> = i.iter().collect();
        assert_eq!(collected.len(), 3);
        for (k, (id, s)) in collected.iter().enumerate() {
            assert_eq!(*id, ids[k]);
            assert_eq!(*s, ["a", "b", "c"][k]);
        }
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn clones_alias_until_a_new_string_arrives() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let snapshot = i.clone();
        assert!(snapshot.ptr_eq(&i), "a clone aliases the same storage");

        i.intern("a"); // existing string: no append, still aliased
        assert!(snapshot.ptr_eq(&i));

        i.intern("c"); // new string: copy-on-write detaches the live interner
        assert!(!snapshot.ptr_eq(&i));
        assert_eq!(snapshot.len(), 2, "the clone keeps its frozen view");
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(ValueId::new(2)), "c");
        assert!(snapshot.get("c").is_none());
    }
}
