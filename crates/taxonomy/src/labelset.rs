//! Compact multi-label attack-type sets.
//!
//! §6.2: "13 % (831) of the annotated calls to harassment contained more than
//! one attack type" — so a call to harassment carries a *set* of labels, not
//! a single one. [`LabelSet`] packs the 29 labels (28 subcategories + the
//! generic parent) into a `u32` bitset with set-algebra helpers used by the
//! co-occurrence analyses.

use crate::attack::{AttackType, Subcategory};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of [`Subcategory`] labels, stored as a 29-bit bitset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct LabelSet(u32);

impl LabelSet {
    /// The empty label set.
    pub const EMPTY: LabelSet = LabelSet(0);

    /// Bit mask covering every valid label.
    const FULL_MASK: u32 = (1 << Subcategory::COUNT) - 1;

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set containing a single label.
    pub fn single(sub: Subcategory) -> Self {
        LabelSet(1 << sub.index())
    }

    /// Inserts a label; returns `true` if it was newly added.
    pub fn insert(&mut self, sub: Subcategory) -> bool {
        let bit = 1 << sub.index();
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Removes a label; returns `true` if it was present.
    pub fn remove(&mut self, sub: Subcategory) -> bool {
        let bit = 1 << sub.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether the label is present.
    pub fn contains(self, sub: Subcategory) -> bool {
        self.0 & (1 << sub.index()) != 0
    }

    /// Whether any label under the given parent is present.
    pub fn contains_parent(self, parent: AttackType) -> bool {
        self.parents().any(|p| p == parent)
    }

    /// Number of labels in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates labels in Table 11 order.
    pub fn iter(self) -> impl Iterator<Item = Subcategory> {
        Subcategory::ALL
            .into_iter()
            .filter(move |s| self.contains(*s))
    }

    /// Iterates the *distinct* parent attack types present, in Table 5 order.
    pub fn parents(self) -> impl Iterator<Item = AttackType> {
        let mut mask = 0u16;
        for sub in self.iter() {
            let idx = AttackType::ALL
                .iter()
                .position(|p| *p == sub.parent())
                .unwrap();
            mask |= 1 << idx;
        }
        AttackType::ALL
            .into_iter()
            .enumerate()
            .filter(move |(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| p)
    }

    /// Number of distinct parent attack types.
    pub fn parent_count(self) -> usize {
        self.parents().count()
    }

    /// Raw bit representation (for hashing/serialization diagnostics).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Rebuilds a set from raw bits, masking out invalid positions.
    pub fn from_bits(bits: u32) -> LabelSet {
        LabelSet(bits & Self::FULL_MASK)
    }
}

impl FromIterator<Subcategory> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Subcategory>>(iter: I) -> Self {
        let mut set = Self::new();
        for sub in iter {
            set.insert(sub);
        }
        set
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for sub in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{sub}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Subcategory::*;

    #[test]
    fn insert_contains_remove() {
        let mut set = LabelSet::new();
        assert!(set.is_empty());
        assert!(set.insert(MassFlagging));
        assert!(!set.insert(MassFlagging));
        assert!(set.contains(MassFlagging));
        assert_eq!(set.len(), 1);
        assert!(set.remove(MassFlagging));
        assert!(!set.remove(MassFlagging));
        assert!(set.is_empty());
    }

    #[test]
    fn parents_deduplicate() {
        // Two reporting subcategories → one Reporting parent.
        let set = LabelSet::from_iter([MassFlagging, FalseReportingToAuthorities, Raiding]);
        let parents: Vec<_> = set.parents().collect();
        assert_eq!(
            parents,
            vec![AttackType::Overloading, AttackType::Reporting]
        );
        assert_eq!(set.parent_count(), 2);
    }

    #[test]
    fn contains_parent() {
        let set = LabelSet::single(HateSpeech);
        assert!(set.contains_parent(AttackType::ToxicContent));
        assert!(!set.contains_parent(AttackType::Reporting));
    }

    #[test]
    fn full_set_roundtrips_through_bits() {
        let all = LabelSet::from_iter(Subcategory::ALL);
        assert_eq!(all.len(), Subcategory::COUNT);
        assert_eq!(LabelSet::from_bits(all.bits()), all);
        // Out-of-range bits are masked.
        assert_eq!(LabelSet::from_bits(u32::MAX).len(), Subcategory::COUNT);
    }

    #[test]
    fn iter_is_sorted_in_table_order() {
        let set = LabelSet::from_iter([GenericCall, Doxing, Raiding]);
        let items: Vec<_> = set.iter().collect();
        assert_eq!(items, vec![Doxing, Raiding, GenericCall]);
    }

    #[test]
    fn generic_parent_via_generic_call() {
        let set = LabelSet::single(GenericCall);
        assert!(set.contains_parent(AttackType::Generic));
    }
}
