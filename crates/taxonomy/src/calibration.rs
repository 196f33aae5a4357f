//! The paper's published measurements, as typed constants.
//!
//! These serve two purposes:
//!
//! 1. **Generator calibration** — `incite-corpus` plants synthetic calls to
//!    harassment and doxes whose attack-type / PII / gender distributions are
//!    drawn from these tables, so the pipeline has a known ground truth whose
//!    *shape* matches the paper.
//! 2. **Reference columns** — the `repro` binary prints paper-vs-measured for
//!    every experiment; the "paper" column comes from here.
//!
//! Counts are transcribed exactly as printed in the paper (IMC '21, Tables
//! 1–11 and the in-text statistics). Where the paper prints both a percentage
//! and a count we store the count.

use crate::attack::Subcategory;
use crate::pii_kind::PiiKind;
use crate::platform::DataSet;

/// Table 1: raw data set sizes and date ranges.
#[derive(Debug, Clone, Copy)]
pub struct RawDataSet {
    pub data_set: DataSet,
    pub posts: u64,
    /// Minimum post date, `YYYY-MM-DD`.
    pub min_date: &'static str,
    /// Maximum post date, `YYYY-MM-DD`.
    pub max_date: &'static str,
}

/// Table 1 rows.
pub const TABLE1: [RawDataSet; 5] = [
    RawDataSet {
        data_set: DataSet::Boards,
        posts: 405_943_342,
        min_date: "2001-06-14",
        max_date: "2020-08-01",
    },
    RawDataSet {
        data_set: DataSet::Blogs,
        posts: 115_052,
        min_date: "1999-04-23",
        max_date: "2020-08-14",
    },
    RawDataSet {
        data_set: DataSet::Chat,
        posts: 70_273_973,
        min_date: "2015-09-21",
        max_date: "2020-08-01",
    },
    RawDataSet {
        data_set: DataSet::Gab,
        posts: 50_165_961,
        min_date: "2016-08-10",
        max_date: "2020-08-01",
    },
    RawDataSet {
        data_set: DataSet::Pastes,
        posts: 32_555_682,
        min_date: "2008-03-22",
        max_date: "2020-08-01",
    },
];

/// Table 4: threshold-selection outcomes per platform per task.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdRow {
    /// Display label used by the paper ("Discord⋄", etc. — we store plain).
    pub platform: &'static str,
    pub threshold: f64,
    pub above_threshold: u32,
    pub annotated: u32,
    pub true_positive: u32,
    /// `true` where every document above the threshold was annotated.
    pub exhaustive: bool,
}

/// Table 4, doxing pipeline.
pub const TABLE4_DOX: [ThresholdRow; 5] = [
    ThresholdRow {
        platform: "boards",
        threshold: 0.9,
        above_threshold: 14_675,
        annotated: 3_300,
        true_positive: 2_549,
        exhaustive: false,
    },
    ThresholdRow {
        platform: "discord",
        threshold: 0.5,
        above_threshold: 197,
        annotated: 197,
        true_positive: 153,
        exhaustive: true,
    },
    ThresholdRow {
        platform: "gab",
        threshold: 0.8,
        above_threshold: 1_905,
        annotated: 1_905,
        true_positive: 1_657,
        exhaustive: true,
    },
    ThresholdRow {
        platform: "pastes",
        threshold: 0.5,
        above_threshold: 52_849,
        annotated: 3_241,
        true_positive: 3_118,
        exhaustive: false,
    },
    ThresholdRow {
        platform: "telegram",
        threshold: 0.6,
        above_threshold: 1_194,
        annotated: 1_194,
        true_positive: 948,
        exhaustive: true,
    },
];

/// Table 4, call-to-harassment pipeline.
pub const TABLE4_CTH: [ThresholdRow; 4] = [
    ThresholdRow {
        platform: "boards",
        threshold: 0.935,
        above_threshold: 30_685,
        annotated: 3_016,
        true_positive: 2_045,
        exhaustive: false,
    },
    ThresholdRow {
        platform: "gab",
        threshold: 0.935,
        above_threshold: 2_141,
        annotated: 2_141,
        true_positive: 1_335,
        exhaustive: true,
    },
    ThresholdRow {
        platform: "discord",
        threshold: 0.5,
        above_threshold: 1_093,
        annotated: 1_093,
        true_positive: 510,
        exhaustive: true,
    },
    ThresholdRow {
        platform: "telegram",
        threshold: 0.7,
        above_threshold: 4_166,
        annotated: 4_166,
        true_positive: 2_364,
        exhaustive: true,
    },
];

/// Annotated CTH sizes per data set used by Tables 5 and 11
/// (boards 2,045; chat 2,874 = Discord 510 + Telegram 2,364; Gab 1,335).
pub const CTH_SIZE: [(DataSet, u32); 3] = [
    (DataSet::Boards, 2_045),
    (DataSet::Chat, 2_874),
    (DataSet::Gab, 1_335),
];

/// Annotated dox sizes per data set used by Table 6
/// (boards 2,549; chat 1,101 = Discord 153 + Telegram 948; Gab 1,657; pastes 3,118).
pub const DOX_SIZE: [(DataSet, u32); 4] = [
    (DataSet::Boards, 2_549),
    (DataSet::Chat, 1_101),
    (DataSet::Gab, 1_657),
    (DataSet::Pastes, 3_118),
];

/// One subcategory row of Table 11: counts per (boards, chat, gab).
#[derive(Debug, Clone, Copy)]
pub struct Table11Row {
    pub subcategory: Subcategory,
    pub boards: u32,
    pub chat: u32,
    pub gab: u32,
}

impl Table11Row {
    /// Count for a data set (only the three CTH data sets are valid).
    pub fn count(&self, ds: DataSet) -> Option<u32> {
        match ds {
            DataSet::Boards => Some(self.boards),
            DataSet::Chat => Some(self.chat),
            DataSet::Gab => Some(self.gab),
            _ => None,
        }
    }
}

/// Table 11: complete subcategory taxonomy counts per data set.
pub const TABLE11: [Table11Row; 29] = [
    Table11Row {
        subcategory: Subcategory::Doxing,
        boards: 357,
        chat: 358,
        gab: 278,
    },
    Table11Row {
        subcategory: Subcategory::LeakedChatsProfile,
        boards: 18,
        chat: 3,
        gab: 6,
    },
    Table11Row {
        subcategory: Subcategory::NonConsensualMediaExposure,
        boards: 104,
        chat: 69,
        gab: 23,
    },
    Table11Row {
        subcategory: Subcategory::OutingDeadnaming,
        boards: 4,
        chat: 2,
        gab: 0,
    },
    Table11Row {
        subcategory: Subcategory::DoxPropagation,
        boards: 29,
        chat: 166,
        gab: 8,
    },
    Table11Row {
        subcategory: Subcategory::ContentLeakageMisc,
        boards: 11,
        chat: 8,
        gab: 1,
    },
    Table11Row {
        subcategory: Subcategory::ImpersonatedProfiles,
        boards: 45,
        chat: 38,
        gab: 13,
    },
    Table11Row {
        subcategory: Subcategory::SyntheticPornography,
        boards: 9,
        chat: 1,
        gab: 1,
    },
    Table11Row {
        subcategory: Subcategory::ImpersonationMisc,
        boards: 6,
        chat: 2,
        gab: 2,
    },
    Table11Row {
        subcategory: Subcategory::AccountLockout,
        boards: 2,
        chat: 3,
        gab: 0,
    },
    Table11Row {
        subcategory: Subcategory::LockoutMisc,
        boards: 3,
        chat: 2,
        gab: 0,
    },
    Table11Row {
        subcategory: Subcategory::NegativeRatingsReviews,
        boards: 5,
        chat: 9,
        gab: 5,
    },
    Table11Row {
        subcategory: Subcategory::Raiding,
        boards: 89,
        chat: 370,
        gab: 244,
    },
    Table11Row {
        subcategory: Subcategory::Spamming,
        boards: 18,
        chat: 22,
        gab: 16,
    },
    Table11Row {
        subcategory: Subcategory::OverloadingMisc,
        boards: 12,
        chat: 15,
        gab: 0,
    },
    Table11Row {
        subcategory: Subcategory::HashtagHijacking,
        boards: 16,
        chat: 40,
        gab: 22,
    },
    Table11Row {
        subcategory: Subcategory::PublicOpinionManipulationMisc,
        boards: 126,
        chat: 50,
        gab: 1,
    },
    Table11Row {
        subcategory: Subcategory::FalseReportingToAuthorities,
        boards: 409,
        chat: 311,
        gab: 157,
    },
    Table11Row {
        subcategory: Subcategory::MassFlagging,
        boards: 417,
        chat: 909,
        gab: 169,
    },
    Table11Row {
        subcategory: Subcategory::ReportingMisc,
        boards: 326,
        chat: 289,
        gab: 219,
    },
    Table11Row {
        subcategory: Subcategory::ReputationalHarmPrivate,
        boards: 64,
        chat: 128,
        gab: 24,
    },
    Table11Row {
        subcategory: Subcategory::ReputationalHarmPublic,
        boards: 40,
        chat: 240,
        gab: 118,
    },
    Table11Row {
        subcategory: Subcategory::ReputationalHarmMisc,
        boards: 56,
        chat: 2,
        gab: 1,
    },
    Table11Row {
        subcategory: Subcategory::StalkingOrTracking,
        boards: 10,
        chat: 14,
        gab: 4,
    },
    Table11Row {
        subcategory: Subcategory::SurveillanceMisc,
        boards: 5,
        chat: 0,
        gab: 1,
    },
    Table11Row {
        subcategory: Subcategory::HateSpeech,
        boards: 79,
        chat: 57,
        gab: 59,
    },
    Table11Row {
        subcategory: Subcategory::UnwantedExplicitContent,
        boards: 45,
        chat: 9,
        gab: 2,
    },
    Table11Row {
        subcategory: Subcategory::ToxicContentMisc,
        boards: 32,
        chat: 7,
        gab: 0,
    },
    Table11Row {
        subcategory: Subcategory::GenericCall,
        boards: 146,
        chat: 161,
        gab: 61,
    },
];

/// One subcategory row of Table 10: counts per inferred gender.
#[derive(Debug, Clone, Copy)]
pub struct Table10Row {
    pub subcategory: Subcategory,
    pub unknown: u32,
    pub female: u32,
    pub male: u32,
}

/// Table 10: complete subcategory taxonomy counts per inferred gender.
pub const TABLE10: [Table10Row; 29] = [
    Table10Row {
        subcategory: Subcategory::Doxing,
        unknown: 297,
        female: 215,
        male: 481,
    },
    Table10Row {
        subcategory: Subcategory::LeakedChatsProfile,
        unknown: 4,
        female: 13,
        male: 10,
    },
    Table10Row {
        subcategory: Subcategory::NonConsensualMediaExposure,
        unknown: 73,
        female: 75,
        male: 48,
    },
    Table10Row {
        subcategory: Subcategory::OutingDeadnaming,
        unknown: 1,
        female: 2,
        male: 3,
    },
    Table10Row {
        subcategory: Subcategory::DoxPropagation,
        unknown: 57,
        female: 19,
        male: 127,
    },
    Table10Row {
        subcategory: Subcategory::ContentLeakageMisc,
        unknown: 5,
        female: 4,
        male: 11,
    },
    Table10Row {
        subcategory: Subcategory::ImpersonatedProfiles,
        unknown: 65,
        female: 15,
        male: 16,
    },
    Table10Row {
        subcategory: Subcategory::SyntheticPornography,
        unknown: 2,
        female: 7,
        male: 2,
    },
    Table10Row {
        subcategory: Subcategory::ImpersonationMisc,
        unknown: 5,
        female: 3,
        male: 2,
    },
    Table10Row {
        subcategory: Subcategory::AccountLockout,
        unknown: 2,
        female: 0,
        male: 3,
    },
    Table10Row {
        subcategory: Subcategory::LockoutMisc,
        unknown: 0,
        female: 1,
        male: 4,
    },
    Table10Row {
        subcategory: Subcategory::NegativeRatingsReviews,
        unknown: 9,
        female: 1,
        male: 9,
    },
    Table10Row {
        subcategory: Subcategory::Raiding,
        unknown: 283,
        female: 184,
        male: 236,
    },
    Table10Row {
        subcategory: Subcategory::Spamming,
        unknown: 23,
        female: 7,
        male: 26,
    },
    Table10Row {
        subcategory: Subcategory::OverloadingMisc,
        unknown: 2,
        female: 3,
        male: 22,
    },
    Table10Row {
        subcategory: Subcategory::HashtagHijacking,
        unknown: 69,
        female: 1,
        male: 8,
    },
    Table10Row {
        subcategory: Subcategory::PublicOpinionManipulationMisc,
        unknown: 112,
        female: 24,
        male: 41,
    },
    Table10Row {
        subcategory: Subcategory::FalseReportingToAuthorities,
        unknown: 371,
        female: 169,
        male: 337,
    },
    Table10Row {
        subcategory: Subcategory::MassFlagging,
        unknown: 818,
        female: 145,
        male: 532,
    },
    Table10Row {
        subcategory: Subcategory::ReportingMisc,
        unknown: 427,
        female: 108,
        male: 299,
    },
    Table10Row {
        subcategory: Subcategory::ReputationalHarmPrivate,
        unknown: 58,
        female: 87,
        male: 71,
    },
    Table10Row {
        subcategory: Subcategory::ReputationalHarmPublic,
        unknown: 202,
        female: 54,
        male: 142,
    },
    Table10Row {
        subcategory: Subcategory::ReputationalHarmMisc,
        unknown: 18,
        female: 17,
        male: 24,
    },
    Table10Row {
        subcategory: Subcategory::StalkingOrTracking,
        unknown: 11,
        female: 7,
        male: 10,
    },
    Table10Row {
        subcategory: Subcategory::SurveillanceMisc,
        unknown: 4,
        female: 2,
        male: 0,
    },
    Table10Row {
        subcategory: Subcategory::HateSpeech,
        unknown: 60,
        female: 40,
        male: 95,
    },
    Table10Row {
        subcategory: Subcategory::UnwantedExplicitContent,
        unknown: 10,
        female: 28,
        male: 18,
    },
    Table10Row {
        subcategory: Subcategory::ToxicContentMisc,
        unknown: 4,
        female: 5,
        male: 30,
    },
    Table10Row {
        subcategory: Subcategory::GenericCall,
        unknown: 114,
        female: 99,
        male: 155,
    },
];

/// One PII row of Table 6: counts per (boards, chat, gab, pastes).
#[derive(Debug, Clone, Copy)]
pub struct Table6Row {
    pub kind: PiiKind,
    pub boards: u32,
    pub chat: u32,
    pub gab: u32,
    pub pastes: u32,
}

impl Table6Row {
    /// Count for a data set (only the four dox data sets are valid).
    pub fn count(&self, ds: DataSet) -> Option<u32> {
        match ds {
            DataSet::Boards => Some(self.boards),
            DataSet::Chat => Some(self.chat),
            DataSet::Gab => Some(self.gab),
            DataSet::Pastes => Some(self.pastes),
            DataSet::Blogs => None,
        }
    }
}

/// Table 6: PII included in doxes per data set.
pub const TABLE6: [Table6Row; 9] = [
    Table6Row {
        kind: PiiKind::Address,
        boards: 748,
        chat: 326,
        gab: 299,
        pastes: 1_424,
    },
    Table6Row {
        kind: PiiKind::CreditCard,
        boards: 4,
        chat: 47,
        gab: 0,
        pastes: 154,
    },
    Table6Row {
        kind: PiiKind::Email,
        boards: 379,
        chat: 162,
        gab: 332,
        pastes: 1_414,
    },
    Table6Row {
        kind: PiiKind::Facebook,
        boards: 317,
        chat: 70,
        gab: 100,
        pastes: 1_226,
    },
    Table6Row {
        kind: PiiKind::Instagram,
        boards: 107,
        chat: 36,
        gab: 10,
        pastes: 311,
    },
    Table6Row {
        kind: PiiKind::Phone,
        boards: 565,
        chat: 297,
        gab: 501,
        pastes: 1_419,
    },
    Table6Row {
        kind: PiiKind::Ssn,
        boards: 18,
        chat: 15,
        gab: 7,
        pastes: 124,
    },
    Table6Row {
        kind: PiiKind::Twitter,
        boards: 237,
        chat: 38,
        gab: 104,
        pastes: 425,
    },
    Table6Row {
        kind: PiiKind::YouTube,
        boards: 210,
        chat: 22,
        gab: 18,
        pastes: 368,
    },
];

/// §5.3 crowdsourced annotation statistics.
pub mod annotation {
    /// Fraction of raw documents on which two crowd annotators disagreed.
    pub const DOX_DISAGREEMENT: f64 = 0.0394;
    pub const CTH_DISAGREEMENT: f64 = 0.1866;
    /// Cohen's kappa over initial crowd annotations.
    pub const DOX_CROWD_KAPPA: f64 = 0.519;
    pub const CTH_CROWD_KAPPA: f64 = 0.350;
}

/// §8 blog-analysis statistics (Table 8).
pub mod blogs {
    pub struct BlogRow {
        pub name: &'static str,
        pub total_posts: u32,
        pub relevant: u32,
        pub actual_doxes: u32,
    }
    pub const TABLE8: [BlogRow; 3] = [
        BlogRow {
            name: "Daily Stormer",
            total_posts: 36_851,
            relevant: 3_072,
            actual_doxes: 90,
        },
        BlogRow {
            name: "NoBlogs",
            total_posts: 78_108,
            relevant: 668,
            actual_doxes: 66,
        },
        BlogRow {
            name: "The Torch",
            total_posts: 93,
            relevant: 38,
            actual_doxes: 23,
        },
    ];
}

/// Sums a Table 11 column; used to sanity-check transcription against the
/// paper's printed totals.
pub fn table11_parent_total(ds: DataSet, parent: crate::AttackType) -> u32 {
    TABLE11
        .iter()
        .filter(|row| row.subcategory.parent() == parent)
        .filter_map(|row| row.count(ds))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackType;

    #[test]
    fn table1_totals() {
        let total: u64 = TABLE1.iter().map(|r| r.posts).sum();
        // ~559 M raw documents across the five data sets.
        assert_eq!(total, 559_054_010);
    }

    #[test]
    fn table4_totals_match_paper() {
        let dox_above: u32 = TABLE4_DOX.iter().map(|r| r.above_threshold).sum();
        let dox_ann: u32 = TABLE4_DOX.iter().map(|r| r.annotated).sum();
        let dox_tp: u32 = TABLE4_DOX.iter().map(|r| r.true_positive).sum();
        assert_eq!(dox_above, 70_820); // paper prints 70,823 in Fig 1 and 70,820 in §7.3
        assert_eq!(dox_ann, 9_837);
        assert_eq!(dox_tp, 8_425);

        let cth_above: u32 = TABLE4_CTH.iter().map(|r| r.above_threshold).sum();
        let cth_ann: u32 = TABLE4_CTH.iter().map(|r| r.annotated).sum();
        let cth_tp: u32 = TABLE4_CTH.iter().map(|r| r.true_positive).sum();
        assert_eq!(cth_above, 38_085);
        assert_eq!(cth_ann, 10_416);
        assert_eq!(cth_tp, 6_254);
    }

    #[test]
    fn headline_total() {
        // Abstract: 14,679 detected incitement documents, the annotated
        // CTH and dox sizes together.
        let cth: u32 = CTH_SIZE.iter().map(|(_, n)| n).sum();
        let dox: u32 = DOX_SIZE.iter().map(|(_, n)| n).sum();
        assert_eq!(cth + dox, 14_679);
    }

    #[test]
    fn cth_sizes_sum_to_true_positives() {
        let total: u32 = CTH_SIZE.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 6_254);
    }

    #[test]
    fn dox_sizes_sum_to_true_positives() {
        let total: u32 = DOX_SIZE.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 8_425);
    }

    #[test]
    fn table11_has_every_label_once() {
        let mut subs: Vec<_> = TABLE11.iter().map(|r| r.subcategory).collect();
        subs.sort();
        subs.dedup();
        assert_eq!(subs.len(), Subcategory::COUNT);
    }

    #[test]
    fn table11_parent_totals_match_table5() {
        // Spot-check the printed Table 5 parent totals.
        assert_eq!(
            table11_parent_total(DataSet::Boards, AttackType::Reporting),
            1_152
        );
        assert_eq!(
            table11_parent_total(DataSet::Chat, AttackType::Reporting),
            1_509
        );
        assert_eq!(
            table11_parent_total(DataSet::Gab, AttackType::Reporting),
            545
        );
        assert_eq!(
            table11_parent_total(DataSet::Boards, AttackType::ContentLeakage),
            523
        );
        assert_eq!(
            table11_parent_total(DataSet::Chat, AttackType::ContentLeakage),
            606
        );
        assert_eq!(
            table11_parent_total(DataSet::Gab, AttackType::ContentLeakage),
            316
        );
        assert_eq!(
            table11_parent_total(DataSet::Boards, AttackType::Overloading),
            124
        );
        assert_eq!(
            table11_parent_total(DataSet::Chat, AttackType::Overloading),
            416
        );
        assert_eq!(
            table11_parent_total(DataSet::Gab, AttackType::Overloading),
            265
        );
        assert_eq!(
            table11_parent_total(DataSet::Boards, AttackType::Generic),
            146
        );
    }

    #[test]
    fn reporting_over_half_of_total() {
        // Abstract: > 50 % of CTH included reporting calls (3,193 incl. blogs' analysis; Table 5 sums to 3,206 in text).
        let reporting: u32 = [DataSet::Boards, DataSet::Chat, DataSet::Gab]
            .iter()
            .map(|ds| table11_parent_total(*ds, AttackType::Reporting))
            .sum();
        assert!(reporting * 2 > 6_254, "reporting = {reporting}");
    }

    #[test]
    fn table10_has_every_label_once() {
        let mut subs: Vec<_> = TABLE10.iter().map(|r| r.subcategory).collect();
        subs.sort();
        subs.dedup();
        assert_eq!(subs.len(), Subcategory::COUNT);
    }

    #[test]
    fn table6_counts_bounded_by_sizes() {
        for row in TABLE6 {
            for (ds, size) in DOX_SIZE {
                let count = row.count(ds).unwrap();
                assert!(count <= size, "{:?} {} exceeds data-set size", row.kind, ds);
            }
        }
    }

    #[test]
    fn blog_table_rows() {
        assert_eq!(blogs::TABLE8.len(), 3);
        assert_eq!(blogs::TABLE8[0].actual_doxes, 90);
        assert!(
            blogs::TABLE8[2].actual_doxes * 10 > blogs::TABLE8[2].relevant * 6,
            "Torch dox yield should be ~60% of relevant"
        );
    }
}
