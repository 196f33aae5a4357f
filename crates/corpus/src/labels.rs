//! Calibrated sampling of attack labels, genders and PII profiles.
//!
//! Planted positives should *look like* the paper's annotated sets: labels
//! are drawn from the Table 11 per-data-set distributions, gender is drawn
//! conditional on the primary label from Table 10, multi-label incidence
//! follows §6.2 (13 % carry ≥ 2 attack types, with the surveillance ↔
//! content-leakage and impersonation ↔ public-opinion pairings), and dox PII
//! profiles follow the Table 6 per-data-set prevalence.

use incite_taxonomy::calibration::{self, Table10Row, Table11Row};
use incite_taxonomy::pii_kind::PiiSet;
use incite_taxonomy::{AttackType, DataSet, Gender, LabelSet, PiiKind, Subcategory};
use rand::rngs::StdRng;
use rand::Rng;

/// Samples an index from unnormalized weights. Returns 0 when all weights
/// are zero.
fn weighted_index(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

fn table11_weights(ds: DataSet) -> Vec<f64> {
    calibration::TABLE11
        .iter()
        .map(|row: &Table11Row| row.count(ds).unwrap_or(0) as f64)
        .collect()
}

/// Samples one subcategory from the Table 11 distribution for a data set.
fn sample_subcategory(ds: DataSet, rng: &mut StdRng) -> Subcategory {
    let weights = table11_weights(ds);
    calibration::TABLE11[weighted_index(&weights, rng)].subcategory
}

/// Samples a full label set for one call to harassment (§6.2 co-occurrence
/// structure).
pub fn sample_label_set(ds: DataSet, rng: &mut StdRng) -> LabelSet {
    let primary = sample_subcategory(ds, rng);
    let mut set = LabelSet::single(primary);

    // §6.2 documented pairings apply to the category as a whole: 64 % of
    // *all* surveillance CTH are also content leakage; 30 % of *all*
    // impersonation CTH are also public-opinion manipulation. These
    // categories are < 2 % of documents, so the global multi-label rate
    // barely moves.
    match primary.parent() {
        AttackType::Surveillance if rng.gen_bool(0.64) => {
            set.insert(Subcategory::Doxing);
        }
        AttackType::Impersonation if rng.gen_bool(0.30) => {
            set.insert(Subcategory::PublicOpinionManipulationMisc);
        }
        _ => {}
    }

    // §6.2: 831/6254 multi-label; of those 767 two, 54 three, 10 four+.
    let multi = rng.gen_bool(831.0 / 6254.0);
    if multi {
        let extra_labels = {
            let r: f64 = rng.gen();
            if r < 767.0 / 831.0 {
                1
            } else if r < (767.0 + 54.0) / 831.0 {
                2
            } else {
                3
            }
        };
        let mut guard = 0;
        while set.len() < 1 + extra_labels && guard < 50 {
            set.insert(sample_subcategory(ds, rng));
            guard += 1;
        }
    }
    set
}

/// Samples a target gender conditioned on the primary label, using the
/// Table 10 row for that label.
pub fn sample_gender(primary: Subcategory, rng: &mut StdRng) -> Gender {
    let row: &Table10Row = calibration::TABLE10
        .iter()
        .find(|r| r.subcategory == primary)
        .expect("every subcategory has a Table 10 row");
    let weights = [row.unknown as f64, row.female as f64, row.male as f64];
    match weighted_index(&weights, rng) {
        0 => Gender::Unknown,
        1 => Gender::Female,
        _ => Gender::Male,
    }
}

/// Samples the PII profile of a dox for a data set from the Table 6
/// prevalence, with the documented Facebook → email/phone/address
/// enrichment (§7.1). Guarantees at least one PII kind (a dox with no PII
/// is not a dox).
pub fn sample_pii_profile(ds: DataSet, rng: &mut StdRng) -> PiiSet {
    let size = calibration::DOX_SIZE
        .iter()
        .find(|(d, _)| *d == ds)
        .map(|(_, n)| *n as f64)
        .unwrap_or(1_000.0);
    let mut set = PiiSet::new();
    let mut facebook = false;
    for row in &calibration::TABLE6 {
        let count = row.count(ds).unwrap_or(0) as f64;
        let p = (count / size).clamp(0.0, 1.0);
        if rng.gen_bool(p) {
            set.insert(row.kind);
            if row.kind == PiiKind::Facebook {
                facebook = true;
            }
        }
    }
    // Facebook-bearing doxes are enriched with contact PII (§7.1: emails
    // 39 %, phones 25 %, addresses 24 % co-occurrence).
    if facebook {
        if !set.contains(PiiKind::Email) && rng.gen_bool(0.25) {
            set.insert(PiiKind::Email);
        }
        if !set.contains(PiiKind::Phone) && rng.gen_bool(0.15) {
            set.insert(PiiKind::Phone);
        }
    }
    if set.is_empty() {
        // Fall back to the data set's most common kind.
        let weights: Vec<f64> = calibration::TABLE6
            .iter()
            .map(|row| row.count(ds).unwrap_or(0) as f64)
            .collect();
        set.insert(calibration::TABLE6[weighted_index(&weights, rng)].kind);
    }
    set
}

/// Samples the manual "reputation risk" flag (§7.2; ≈ 42.7 % of doxes
/// carry family/employer information, with Telegram-heavy chat skew).
/// The flag correlates with how complete the dox is — richer PII profiles
/// come from more thorough doxers who also dig up family/employer details
/// (Figure 2: 11.5 % of doxes carry all four risks, 73 % of them on pastes).
pub fn sample_reputation_flag(ds: DataSet, pii: PiiSet, rng: &mut StdRng) -> bool {
    let base = match ds {
        DataSet::Chat => 0.45,
        DataSet::Pastes => 0.35,
        DataSet::Boards => 0.30,
        DataSet::Gab => 0.28,
        DataSet::Blogs => 0.70,
    };
    let p = (base + 0.08 * pii.len() as f64).clamp(0.0, 0.95);
    rng.gen_bool(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn subcategory_distribution_tracks_table11() {
        let mut r = rng();
        let n = 20_000;
        let mut reporting = 0;
        for _ in 0..n {
            let s = sample_subcategory(DataSet::Boards, &mut r);
            if s.parent() == AttackType::Reporting {
                reporting += 1;
            }
        }
        // Boards reporting share of label slots: 1,152 of the 2,483 label
        // occurrences in the boards column of Table 11 ≈ 0.464.
        let frac = reporting as f64 / n as f64;
        assert!((frac - 0.464).abs() < 0.02, "reporting fraction = {frac}");
    }

    #[test]
    fn gab_never_samples_lockout() {
        // Table 11 has zero lockout counts for Gab.
        let mut r = rng();
        for _ in 0..5_000 {
            let s = sample_subcategory(DataSet::Gab, &mut r);
            assert_ne!(s.parent(), AttackType::LockoutAndControl);
        }
    }

    #[test]
    fn multi_label_rate_matches_section_6_2() {
        let mut r = rng();
        let n = 20_000;
        let multi = (0..n)
            .filter(|_| sample_label_set(DataSet::Chat, &mut r).len() > 1)
            .count();
        let frac = multi as f64 / n as f64;
        assert!((frac - 0.133).abs() < 0.02, "multi-label fraction = {frac}");
    }

    #[test]
    fn label_sets_are_never_empty() {
        let mut r = rng();
        for ds in [DataSet::Boards, DataSet::Chat, DataSet::Gab] {
            for _ in 0..500 {
                assert!(!sample_label_set(ds, &mut r).is_empty());
            }
        }
    }

    #[test]
    fn gender_conditioning_follows_table10() {
        let mut r = rng();
        // Mass flagging skews heavily to unknown (818) and male (532) over
        // female (145).
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            match sample_gender(Subcategory::MassFlagging, &mut r) {
                Gender::Unknown => counts[0] += 1,
                Gender::Female => counts[1] += 1,
                Gender::Male => counts[2] += 1,
            }
        }
        assert!(counts[0] > counts[2], "{counts:?}");
        assert!(counts[2] > counts[1] * 2, "{counts:?}");
    }

    #[test]
    fn pii_profiles_track_table6() {
        let mut r = rng();
        let n = 10_000;
        let mut with_address = 0;
        let mut with_card = 0;
        for _ in 0..n {
            let p = sample_pii_profile(DataSet::Pastes, &mut r);
            assert!(!p.is_empty());
            if p.contains(PiiKind::Address) {
                with_address += 1;
            }
            if p.contains(PiiKind::CreditCard) {
                with_card += 1;
            }
        }
        // Pastes: addresses 45.7 %, cards 4.9 % (Table 6).
        let addr_frac = with_address as f64 / n as f64;
        let card_frac = with_card as f64 / n as f64;
        assert!(
            (addr_frac - 0.457).abs() < 0.03,
            "address fraction = {addr_frac}"
        );
        assert!(
            (card_frac - 0.049).abs() < 0.02,
            "card fraction = {card_frac}"
        );
    }

    #[test]
    fn gab_doxes_never_have_cards() {
        // Table 6: Gab card count is 0.
        let mut r = rng();
        for _ in 0..3_000 {
            assert!(!sample_pii_profile(DataSet::Gab, &mut r).contains(PiiKind::CreditCard));
        }
    }

    #[test]
    fn reputation_flag_rates_are_plausible() {
        let mut r = rng();
        let n = 5_000;
        let pii: PiiSet = [PiiKind::Email].into_iter().collect();
        let chat = (0..n)
            .filter(|_| sample_reputation_flag(DataSet::Chat, pii, &mut r))
            .count();
        let gab = (0..n)
            .filter(|_| sample_reputation_flag(DataSet::Gab, pii, &mut r))
            .count();
        assert!(chat > gab, "chat {chat} vs gab {gab}");
        // Richer PII profiles raise the flag rate (Figure 2 correlation).
        let rich: PiiSet = PiiKind::ALL.into_iter().collect();
        let rich_rate = (0..n)
            .filter(|_| sample_reputation_flag(DataSet::Gab, rich, &mut r))
            .count();
        assert!(rich_rate > gab, "rich {rich_rate} vs sparse {gab}");
    }
}
