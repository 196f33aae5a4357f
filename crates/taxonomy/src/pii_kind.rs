//! The PII families extracted by the paper's 12 regular expressions (§5.6).
//!
//! Table 6 reports prevalence for nine families; the "12 regular expressions"
//! count of §5.6 arises because credit cards use one expression per card
//! network and social profiles use both a URL form and a `site: handle` form.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A family of personally identifiable information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PiiKind {
    /// US street address.
    Address,
    /// Credit card number (any issuer; Luhn-validated).
    CreditCard,
    /// Email address.
    Email,
    /// Facebook profile (URL or `fb: handle`).
    Facebook,
    /// Instagram profile.
    Instagram,
    /// US phone number.
    Phone,
    /// US Social Security Number.
    Ssn,
    /// Twitter handle or profile URL.
    Twitter,
    /// YouTube channel.
    YouTube,
}

impl PiiKind {
    /// All kinds, in Table 6 row order.
    pub const ALL: [PiiKind; 9] = [
        PiiKind::Address,
        PiiKind::CreditCard,
        PiiKind::Email,
        PiiKind::Facebook,
        PiiKind::Instagram,
        PiiKind::Phone,
        PiiKind::Ssn,
        PiiKind::Twitter,
        PiiKind::YouTube,
    ];

    /// Whether this family is an online-social-network profile.
    pub fn is_osn_profile(self) -> bool {
        matches!(
            self,
            PiiKind::Facebook | PiiKind::Instagram | PiiKind::Twitter | PiiKind::YouTube
        )
    }

    /// Stable lowercase identifier.
    pub fn slug(self) -> &'static str {
        match self {
            PiiKind::Address => "address",
            PiiKind::CreditCard => "credit_card",
            PiiKind::Email => "email",
            PiiKind::Facebook => "facebook",
            PiiKind::Instagram => "instagram",
            PiiKind::Phone => "phone",
            PiiKind::Ssn => "ssn",
            PiiKind::Twitter => "twitter",
            PiiKind::YouTube => "youtube",
        }
    }

    /// Table 6 row label.
    fn table_label(self) -> &'static str {
        match self {
            PiiKind::Address => "Addresses",
            PiiKind::CreditCard => "Cards",
            PiiKind::Email => "Emails",
            PiiKind::Facebook => "Facebook",
            PiiKind::Instagram => "Instagram",
            PiiKind::Phone => "Phones",
            PiiKind::Ssn => "SSN",
            PiiKind::Twitter => "Twitter",
            PiiKind::YouTube => "YouTube",
        }
    }
}

impl fmt::Display for PiiKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.table_label())
    }
}

/// A compact set of [`PiiKind`]s, used to summarize which families a dox
/// contains (feeds the harm-risk assignment of §7.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PiiSet(u16);

impl PiiSet {
    /// The empty set.
    pub const EMPTY: PiiSet = PiiSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    fn bit(kind: PiiKind) -> u16 {
        1 << PiiKind::ALL.iter().position(|k| *k == kind).unwrap()
    }

    /// Inserts a kind; returns `true` if newly added.
    pub fn insert(&mut self, kind: PiiKind) -> bool {
        let b = Self::bit(kind);
        let added = self.0 & b == 0;
        self.0 |= b;
        added
    }

    /// Whether the kind is present.
    pub fn contains(self, kind: PiiKind) -> bool {
        self.0 & Self::bit(kind) != 0
    }

    /// Number of distinct kinds.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates kinds in Table 6 order.
    pub fn iter(self) -> impl Iterator<Item = PiiKind> {
        PiiKind::ALL.into_iter().filter(move |k| self.contains(*k))
    }
}

impl FromIterator<PiiKind> for PiiSet {
    fn from_iter<I: IntoIterator<Item = PiiKind>>(iter: I) -> Self {
        let mut set = PiiSet::new();
        for k in iter {
            set.insert(k);
        }
        set
    }
}

impl fmt::Debug for PiiSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 6 fixes nine families. The match has no wildcard arm, so a
    /// new variant stops this test building until the count is revisited.
    #[test]
    fn nine_kinds() {
        let row = |kind| match kind {
            PiiKind::Address => 0,
            PiiKind::CreditCard => 1,
            PiiKind::Email => 2,
            PiiKind::Facebook => 3,
            PiiKind::Instagram => 4,
            PiiKind::Phone => 5,
            PiiKind::Ssn => 6,
            PiiKind::Twitter => 7,
            PiiKind::YouTube => 8,
        };
        for (i, kind) in PiiKind::ALL.into_iter().enumerate() {
            assert_eq!(row(kind), i, "{kind} is out of Table 6 order");
        }
        assert_eq!(PiiKind::ALL.len(), 9);
    }

    #[test]
    fn osn_profiles() {
        let osn: Vec<_> = PiiKind::ALL.iter().filter(|k| k.is_osn_profile()).collect();
        assert_eq!(
            osn,
            vec![
                &PiiKind::Facebook,
                &PiiKind::Instagram,
                &PiiKind::Twitter,
                &PiiKind::YouTube
            ]
        );
    }

    #[test]
    fn set_operations() {
        let mut set = PiiSet::new();
        assert!(set.insert(PiiKind::Email));
        assert!(!set.insert(PiiKind::Email));
        assert!(set.contains(PiiKind::Email));
        assert!(!set.contains(PiiKind::Phone));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn iter_in_table_order() {
        let set: PiiSet = [PiiKind::YouTube, PiiKind::Address].into_iter().collect();
        let kinds: Vec<_> = set.iter().collect();
        assert_eq!(kinds, vec![PiiKind::Address, PiiKind::YouTube]);
    }

    #[test]
    fn slugs_unique() {
        let mut slugs: Vec<_> = PiiKind::ALL.iter().map(|k| k.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 9);
    }
}
