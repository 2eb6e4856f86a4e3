//! Claim types: a single `(source, item, value)` observation.

use crate::ids::{ItemId, SourceId, ValueId};

/// An owned claim in terms of dense identifiers: source `source` provides
/// value `value` for data item `item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Claim {
    /// The providing source.
    pub source: SourceId,
    /// The data item the claim is about.
    pub item: ItemId,
    /// The provided value.
    pub value: ValueId,
}

impl Claim {
    /// Creates a new claim.
    pub fn new(source: SourceId, item: ItemId, value: ValueId) -> Self {
        Self { source, item, value }
    }
}

/// A borrowed, string-resolved view of a claim, convenient for display and
/// for exporting datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimRef<'a> {
    /// Name of the providing source.
    pub source: &'a str,
    /// Name of the data item.
    pub item: &'a str,
    /// The provided value string.
    pub value: &'a str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_construction() {
        let c = Claim::new(SourceId::new(1), ItemId::new(2), ValueId::new(3));
        assert_eq!(c.source, SourceId::new(1));
        assert_eq!(c.item, ItemId::new(2));
        assert_eq!(c.value, ValueId::new(3));
    }
}
