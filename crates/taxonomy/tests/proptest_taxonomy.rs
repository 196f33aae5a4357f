//! Model-based property tests: the bitset types against `HashSet` models.

use incite_taxonomy::harm::RiskSet;
use incite_taxonomy::pii_kind::PiiSet;
use incite_taxonomy::{HarmRisk, LabelSet, PiiKind, Subcategory};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_subcategory() -> impl Strategy<Value = Subcategory> {
    (0..Subcategory::COUNT).prop_map(|i| Subcategory::ALL[i])
}

fn arb_pii_kind() -> impl Strategy<Value = PiiKind> {
    (0..PiiKind::ALL.len()).prop_map(|i| PiiKind::ALL[i])
}

proptest! {
    #[test]
    fn labelset_behaves_like_hashset(ops in prop::collection::vec((arb_subcategory(), any::<bool>()), 0..100)) {
        let mut set = LabelSet::new();
        let mut model: HashSet<Subcategory> = HashSet::new();
        for (sub, insert) in ops {
            if insert {
                prop_assert_eq!(set.insert(sub), model.insert(sub));
            } else {
                prop_assert_eq!(set.remove(sub), model.remove(&sub));
            }
            prop_assert_eq!(set.len(), model.len());
            for s in Subcategory::ALL {
                prop_assert_eq!(set.contains(s), model.contains(&s));
            }
        }
        // Iteration yields exactly the model's contents, in table order.
        let from_iter: HashSet<Subcategory> = set.iter().collect();
        prop_assert_eq!(from_iter, model);
    }

    #[test]
    fn labelset_bits_roundtrip(subs in prop::collection::vec(arb_subcategory(), 0..29)) {
        let set: LabelSet = subs.into_iter().collect();
        prop_assert_eq!(LabelSet::from_bits(set.bits()), set);
    }

    #[test]
    fn parent_count_never_exceeds_label_count(subs in prop::collection::vec(arb_subcategory(), 0..29)) {
        let set: LabelSet = subs.into_iter().collect();
        prop_assert!(set.parent_count() <= set.len());
        for parent in set.parents() {
            prop_assert!(set.iter().any(|s| s.parent() == parent));
        }
    }

    #[test]
    fn piiset_roundtrip_and_counts(kinds in prop::collection::vec(arb_pii_kind(), 0..20)) {
        let set: PiiSet = kinds.iter().copied().collect();
        let model: HashSet<PiiKind> = kinds.into_iter().collect();
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.iter().collect::<HashSet<_>>(), model);
    }

    #[test]
    fn riskset_from_pii_is_monotone(kinds in prop::collection::vec(arb_pii_kind(), 0..9), extra in arb_pii_kind()) {
        // Adding PII can only add risks, never remove them.
        let base: PiiSet = kinds.iter().copied().collect();
        let mut bigger = base;
        bigger.insert(extra);
        let r1 = RiskSet::from_pii(base, false);
        let r2 = RiskSet::from_pii(bigger, false);
        for risk in HarmRisk::ALL {
            prop_assert!(!r1.contains(risk) || r2.contains(risk));
        }
    }

    #[test]
    fn riskset_reputation_flag_is_independent(kinds in prop::collection::vec(arb_pii_kind(), 0..9)) {
        let pii: PiiSet = kinds.into_iter().collect();
        let without = RiskSet::from_pii(pii, false);
        let with = RiskSet::from_pii(pii, true);
        prop_assert!(!without.contains(HarmRisk::Reputation));
        prop_assert!(with.contains(HarmRisk::Reputation));
        for risk in [HarmRisk::Online, HarmRisk::Physical, HarmRisk::EconomicIdentity] {
            prop_assert_eq!(without.contains(risk), with.contains(risk));
        }
    }
}
