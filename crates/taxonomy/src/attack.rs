//! The call-to-harassment attack-type taxonomy of §6.1.
//!
//! The paper starts from the SoK taxonomy of Thomas et al. and adapts it:
//! "public opinion manipulation" is added, "purposeful embarrassment" is
//! promoted to a "reputational harm" parent with public/private variants,
//! "raiding" and "dogpiling" are merged, a "generic" parent and per-parent
//! "miscellaneous" subcategories are introduced. The result is **10 parent
//! attack types** (Table 5) and **28 subcategories** (Table 11; `Generic`
//! has no subcategories and is counted at the parent level).

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the ten parent attack types (paper §6.1.1, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackType {
    /// Intentional leaking of personal information, media, or other PII
    /// (includes doxing).
    ContentLeakage,
    /// A call to harass without an explicit tactic ("bully", "blackmail").
    Generic,
    /// Pretending to represent a third party to do harm (fake profiles,
    /// synthetic pornography).
    Impersonation,
    /// Hacking or gaining unauthorized access to the target's accounts.
    LockoutAndControl,
    /// Flooding the target with notifications/messages/calls (raiding,
    /// spamming, review bombing).
    Overloading,
    /// Spreading admittedly false narratives to manipulate public perception.
    PublicOpinionManipulation,
    /// Deceiving a reporting system or institutional authority (mass
    /// flagging, SWATing, false reports).
    Reporting,
    /// Harassing the target's family/employer/neighbours to damage their
    /// reputation, publicly or privately.
    ReputationalHarm,
    /// Following or monitoring a target and exposing private behaviour.
    Surveillance,
    /// Hate speech, unwanted explicit content, or other inflammatory content.
    ToxicContent,
}

impl AttackType {
    /// All parents, in Table 5 row order.
    pub const ALL: [AttackType; 10] = [
        AttackType::ContentLeakage,
        AttackType::Generic,
        AttackType::Impersonation,
        AttackType::LockoutAndControl,
        AttackType::Overloading,
        AttackType::PublicOpinionManipulation,
        AttackType::Reporting,
        AttackType::ReputationalHarm,
        AttackType::Surveillance,
        AttackType::ToxicContent,
    ];

    /// The subcategories belonging to this parent (empty for `Generic`).
    pub fn subcategories(self) -> &'static [Subcategory] {
        use Subcategory::*;
        match self {
            AttackType::ContentLeakage => &[
                Doxing,
                LeakedChatsProfile,
                NonConsensualMediaExposure,
                OutingDeadnaming,
                DoxPropagation,
                ContentLeakageMisc,
            ],
            AttackType::Generic => &[],
            AttackType::Impersonation => &[
                ImpersonatedProfiles,
                SyntheticPornography,
                ImpersonationMisc,
            ],
            AttackType::LockoutAndControl => &[AccountLockout, LockoutMisc],
            AttackType::Overloading => {
                &[NegativeRatingsReviews, Raiding, Spamming, OverloadingMisc]
            }
            AttackType::PublicOpinionManipulation => {
                &[HashtagHijacking, PublicOpinionManipulationMisc]
            }
            AttackType::Reporting => &[FalseReportingToAuthorities, MassFlagging, ReportingMisc],
            AttackType::ReputationalHarm => &[
                ReputationalHarmPrivate,
                ReputationalHarmPublic,
                ReputationalHarmMisc,
            ],
            AttackType::Surveillance => &[StalkingOrTracking, SurveillanceMisc],
            AttackType::ToxicContent => &[HateSpeech, UnwantedExplicitContent, ToxicContentMisc],
        }
    }

    /// Stable lowercase identifier.
    pub fn slug(self) -> &'static str {
        match self {
            AttackType::ContentLeakage => "content_leakage",
            AttackType::Generic => "generic",
            AttackType::Impersonation => "impersonation",
            AttackType::LockoutAndControl => "lockout_and_control",
            AttackType::Overloading => "overloading",
            AttackType::PublicOpinionManipulation => "public_opinion_manipulation",
            AttackType::Reporting => "reporting",
            AttackType::ReputationalHarm => "reputational_harm",
            AttackType::Surveillance => "surveillance",
            AttackType::ToxicContent => "toxic_content",
        }
    }
}

impl fmt::Display for AttackType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AttackType::ContentLeakage => "Content Leakage",
            AttackType::Generic => "Generic",
            AttackType::Impersonation => "Impersonation",
            AttackType::LockoutAndControl => "Lockout And Control",
            AttackType::Overloading => "Overloading",
            AttackType::PublicOpinionManipulation => "Public Opinion Manip.",
            AttackType::Reporting => "Reporting",
            AttackType::ReputationalHarm => "Reputation Harm",
            AttackType::Surveillance => "Surveillance",
            AttackType::ToxicContent => "Toxic Content",
        };
        f.write_str(name)
    }
}

/// One of the 28 subcategory attack types (paper Table 11), plus
/// [`Subcategory::GenericCall`] representing the parent-only "Generic" label
/// so that a [`crate::LabelSet`] can encode every Table 11 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Subcategory {
    // Content Leakage
    Doxing = 0,
    LeakedChatsProfile = 1,
    NonConsensualMediaExposure = 2,
    OutingDeadnaming = 3,
    DoxPropagation = 4,
    ContentLeakageMisc = 5,
    // Impersonation
    ImpersonatedProfiles = 6,
    SyntheticPornography = 7,
    ImpersonationMisc = 8,
    // Lockout And Control
    AccountLockout = 9,
    LockoutMisc = 10,
    // Overloading
    NegativeRatingsReviews = 11,
    Raiding = 12,
    Spamming = 13,
    OverloadingMisc = 14,
    // Public Opinion Manipulation
    HashtagHijacking = 15,
    PublicOpinionManipulationMisc = 16,
    // Reporting
    FalseReportingToAuthorities = 17,
    MassFlagging = 18,
    ReportingMisc = 19,
    // Reputational Harm
    ReputationalHarmPrivate = 20,
    ReputationalHarmPublic = 21,
    ReputationalHarmMisc = 22,
    // Surveillance
    StalkingOrTracking = 23,
    SurveillanceMisc = 24,
    // Toxic Content
    HateSpeech = 25,
    UnwantedExplicitContent = 26,
    ToxicContentMisc = 27,
    // Generic (parent-level label; Table 11 bottom row)
    GenericCall = 28,
}

impl Subcategory {
    /// Number of distinct labels (28 subcategories + the generic parent).
    pub const COUNT: usize = 29;

    /// All labels in Table 11 order.
    pub const ALL: [Subcategory; Self::COUNT] = [
        Subcategory::Doxing,
        Subcategory::LeakedChatsProfile,
        Subcategory::NonConsensualMediaExposure,
        Subcategory::OutingDeadnaming,
        Subcategory::DoxPropagation,
        Subcategory::ContentLeakageMisc,
        Subcategory::ImpersonatedProfiles,
        Subcategory::SyntheticPornography,
        Subcategory::ImpersonationMisc,
        Subcategory::AccountLockout,
        Subcategory::LockoutMisc,
        Subcategory::NegativeRatingsReviews,
        Subcategory::Raiding,
        Subcategory::Spamming,
        Subcategory::OverloadingMisc,
        Subcategory::HashtagHijacking,
        Subcategory::PublicOpinionManipulationMisc,
        Subcategory::FalseReportingToAuthorities,
        Subcategory::MassFlagging,
        Subcategory::ReportingMisc,
        Subcategory::ReputationalHarmPrivate,
        Subcategory::ReputationalHarmPublic,
        Subcategory::ReputationalHarmMisc,
        Subcategory::StalkingOrTracking,
        Subcategory::SurveillanceMisc,
        Subcategory::HateSpeech,
        Subcategory::UnwantedExplicitContent,
        Subcategory::ToxicContentMisc,
        Subcategory::GenericCall,
    ];

    /// Bit index for [`crate::LabelSet`] encoding.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The parent attack type.
    pub fn parent(self) -> AttackType {
        use Subcategory::*;
        match self {
            Doxing
            | LeakedChatsProfile
            | NonConsensualMediaExposure
            | OutingDeadnaming
            | DoxPropagation
            | ContentLeakageMisc => AttackType::ContentLeakage,
            ImpersonatedProfiles | SyntheticPornography | ImpersonationMisc => {
                AttackType::Impersonation
            }
            AccountLockout | LockoutMisc => AttackType::LockoutAndControl,
            NegativeRatingsReviews | Raiding | Spamming | OverloadingMisc => {
                AttackType::Overloading
            }
            HashtagHijacking | PublicOpinionManipulationMisc => {
                AttackType::PublicOpinionManipulation
            }
            FalseReportingToAuthorities | MassFlagging | ReportingMisc => AttackType::Reporting,
            ReputationalHarmPrivate | ReputationalHarmPublic | ReputationalHarmMisc => {
                AttackType::ReputationalHarm
            }
            StalkingOrTracking | SurveillanceMisc => AttackType::Surveillance,
            HateSpeech | UnwantedExplicitContent | ToxicContentMisc => AttackType::ToxicContent,
            GenericCall => AttackType::Generic,
        }
    }

    /// Stable lowercase identifier.
    pub fn slug(self) -> &'static str {
        use Subcategory::*;
        match self {
            Doxing => "doxing",
            LeakedChatsProfile => "leaked_chats_profile",
            NonConsensualMediaExposure => "non_consensual_media_exposure",
            OutingDeadnaming => "outing_deadnaming",
            DoxPropagation => "dox_propagation",
            ContentLeakageMisc => "content_leakage_misc",
            ImpersonatedProfiles => "impersonated_profiles",
            SyntheticPornography => "synthetic_pornography",
            ImpersonationMisc => "impersonation_misc",
            AccountLockout => "account_lockout",
            LockoutMisc => "lockout_misc",
            NegativeRatingsReviews => "negative_ratings_reviews",
            Raiding => "raiding",
            Spamming => "spamming",
            OverloadingMisc => "overloading_misc",
            HashtagHijacking => "hashtag_hijacking",
            PublicOpinionManipulationMisc => "public_opinion_manipulation_misc",
            FalseReportingToAuthorities => "false_reporting_to_authorities",
            MassFlagging => "mass_flagging",
            ReportingMisc => "reporting_misc",
            ReputationalHarmPrivate => "reputational_harm_private",
            ReputationalHarmPublic => "reputational_harm_public",
            ReputationalHarmMisc => "reputational_harm_misc",
            StalkingOrTracking => "stalking_or_tracking",
            SurveillanceMisc => "surveillance_misc",
            HateSpeech => "hate_speech",
            UnwantedExplicitContent => "unwanted_explicit_content",
            ToxicContentMisc => "toxic_content_misc",
            GenericCall => "generic",
        }
    }
}

impl fmt::Display for Subcategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Subcategory::*;
        let name = match self {
            Doxing => "Doxing",
            LeakedChatsProfile => "Leaked Chats Profile",
            NonConsensualMediaExposure => "Non-Consensual Media Exposure",
            OutingDeadnaming => "Outing/Deadnaming",
            DoxPropagation => "Dox Propagation",
            ContentLeakageMisc => "Content Leakage (Misc.)",
            ImpersonatedProfiles => "Impersonated Profiles",
            SyntheticPornography => "Synthetic Pornography",
            ImpersonationMisc => "Impersonation (Misc.)",
            AccountLockout => "Account Lockout",
            LockoutMisc => "Lockout And Control (Misc.)",
            NegativeRatingsReviews => "Negative Ratings/Reviews",
            Raiding => "Raiding",
            Spamming => "Spamming",
            OverloadingMisc => "Overloading (Misc.)",
            HashtagHijacking => "Hashtag Hijacking",
            PublicOpinionManipulationMisc => "Public Opinion Manipulation (Misc.)",
            FalseReportingToAuthorities => "False Reporting to Authorities",
            MassFlagging => "Mass Flagging",
            ReportingMisc => "Reporting (Misc.)",
            ReputationalHarmPrivate => "Reputational Harm: Private",
            ReputationalHarmPublic => "Reputational Harm: Public",
            ReputationalHarmMisc => "Reputational Harm (Misc.)",
            StalkingOrTracking => "Stalking or Tracking",
            SurveillanceMisc => "Surveillance (Misc.)",
            HateSpeech => "Hate Speech",
            UnwantedExplicitContent => "Unwanted Explicit Content",
            ToxicContentMisc => "Toxic Content (Misc.)",
            GenericCall => "Generic",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 5 fixes ten parents. The match has no wildcard arm, so a new
    /// variant stops this test building until the count is revisited.
    #[test]
    fn ten_parents() {
        let row = |parent| match parent {
            AttackType::ContentLeakage => 0,
            AttackType::Generic => 1,
            AttackType::Impersonation => 2,
            AttackType::LockoutAndControl => 3,
            AttackType::Overloading => 4,
            AttackType::PublicOpinionManipulation => 5,
            AttackType::Reporting => 6,
            AttackType::ReputationalHarm => 7,
            AttackType::Surveillance => 8,
            AttackType::ToxicContent => 9,
        };
        for (i, parent) in AttackType::ALL.into_iter().enumerate() {
            assert_eq!(row(parent), i, "{parent} is out of Table 5 order");
        }
        assert_eq!(AttackType::ALL.len(), 10);
    }

    /// Table 11 defines 28 subcategories; GenericCall is the 29th label.
    /// The match has no wildcard arm, so a new variant stops this test
    /// building until the count is revisited.
    #[test]
    fn twenty_eight_subcategories_plus_generic() {
        use Subcategory::*;
        let row = |sub| match sub {
            Doxing => 0,
            LeakedChatsProfile => 1,
            NonConsensualMediaExposure => 2,
            OutingDeadnaming => 3,
            DoxPropagation => 4,
            ContentLeakageMisc => 5,
            ImpersonatedProfiles => 6,
            SyntheticPornography => 7,
            ImpersonationMisc => 8,
            AccountLockout => 9,
            LockoutMisc => 10,
            NegativeRatingsReviews => 11,
            Raiding => 12,
            Spamming => 13,
            OverloadingMisc => 14,
            HashtagHijacking => 15,
            PublicOpinionManipulationMisc => 16,
            FalseReportingToAuthorities => 17,
            MassFlagging => 18,
            ReportingMisc => 19,
            ReputationalHarmPrivate => 20,
            ReputationalHarmPublic => 21,
            ReputationalHarmMisc => 22,
            StalkingOrTracking => 23,
            SurveillanceMisc => 24,
            HateSpeech => 25,
            UnwantedExplicitContent => 26,
            ToxicContentMisc => 27,
            GenericCall => 28,
        };
        for (i, sub) in Subcategory::ALL.into_iter().enumerate() {
            assert_eq!(row(sub), i, "{sub} is out of Table 11 order");
        }
        assert_eq!(Subcategory::COUNT, 29);
        let non_generic = Subcategory::ALL
            .iter()
            .filter(|s| **s != Subcategory::GenericCall)
            .count();
        assert_eq!(non_generic, 28);
    }

    #[test]
    fn index_roundtrip() {
        for (i, sub) in Subcategory::ALL.iter().enumerate() {
            assert_eq!(sub.index(), i);
            assert_eq!(Subcategory::ALL[sub.index()], *sub);
        }
    }

    #[test]
    fn parent_subcategory_closure() {
        // Every subcategory listed under a parent maps back to it.
        for parent in AttackType::ALL {
            for sub in parent.subcategories() {
                assert_eq!(sub.parent(), parent, "{sub} should belong to {parent}");
            }
        }
    }

    #[test]
    fn parents_partition_subcategories() {
        let mut count = 0;
        for parent in AttackType::ALL {
            count += parent.subcategories().len();
        }
        // Generic has no subcategories; GenericCall is its parent-level label.
        assert_eq!(count, 28);
    }

    #[test]
    fn generic_has_no_subcategories() {
        assert!(AttackType::Generic.subcategories().is_empty());
        assert_eq!(Subcategory::GenericCall.parent(), AttackType::Generic);
    }

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<_> = Subcategory::ALL.iter().map(|s| s.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), Subcategory::COUNT);
    }
}
