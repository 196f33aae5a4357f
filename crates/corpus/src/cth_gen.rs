//! Call-to-harassment text generation.
//!
//! Produces mobilizing posts whose phrasing follows the paper's taxonomy
//! examples (§6.1.1): a mobilizing clause ("we need to", "lets", …), a
//! gendered target reference, and one attack-specific clause per label in
//! the planted [`LabelSet`]. The mobilizing and target vocabulary overlaps
//! with the Figure 4 bootstrap query so the keyword stage can find a seed
//! set, exactly as in the paper.

use crate::pii_gen::Identity;
use incite_taxonomy::{Gender, LabelSet, PiiKind, Subcategory};
use rand::rngs::StdRng;
use rand::Rng;

/// Mobilizing openers (mirrors the Figure 4 first clause).
const MOBILIZERS: &[&str] = &[
    "we need to",
    "we should",
    "lets",
    "we have to",
    "we will",
    "everyone needs to",
    "we",
];

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

fn pronouns(gender: Gender) -> (&'static str, &'static str, &'static str) {
    // (subject, object, possessive)
    match gender {
        Gender::Male => ("he", "him", "his"),
        Gender::Female => ("she", "her", "her"),
        Gender::Unknown => ("they", "them", "their"),
    }
}

/// One attack-specific clause for a subcategory.
fn clause(sub: Subcategory, gender: Gender, rng: &mut StdRng) -> String {
    let (subj, obj, poss) = pronouns(gender);
    use Subcategory::*;
    let options: Vec<String> = match sub {
        Doxing => vec![
            format!("dig up {poss} phone number and address and post it here"),
            format!("dox {obj}, full name and workplace, drop everything"),
            format!("find where {subj} lives and share {poss} info"),
        ],
        LeakedChatsProfile => vec![
            format!("match {obj} against the leaked chat logs and post the profile"),
            format!("{poss} username is all over the leaked server logs, connect the dots"),
        ],
        NonConsensualMediaExposure => vec![
            format!("leak {poss} private pictures to everyone {subj} knows"),
            format!("send {poss} private videos to {poss} family"),
        ],
        OutingDeadnaming => vec![format!(
            "post {poss} old name everywhere so people know who {subj} really is"
        )],
        DoxPropagation => vec![
            format!("the dox is already out there, spread {poss} info to every channel"),
            format!("repost the dox of {obj} before it gets taken down"),
        ],
        ContentLeakageMisc => vec![format!("leak everything you can find about {obj}")],
        ImpersonatedProfiles => vec![
            format!("make fake accounts in {poss} name and post garbage"),
            format!("set up a parody profile pretending to be {obj}"),
        ],
        SyntheticPornography => vec![format!(
            "make deep fakes of {obj} and send them to {poss} friends and family"
        )],
        ImpersonationMisc => vec![format!("pretend to be {obj} online and ruin {poss} name")],
        AccountLockout => vec![
            format!("phish {poss} email and lock {obj} out of everything"),
            format!("get into {poss} account and change the password"),
        ],
        LockoutMisc => vec![format!("take over {poss} accounts however you can")],
        NegativeRatingsReviews => vec![
            format!("one star {poss} business page until the rating tanks"),
            format!("flood {poss} shop with bad reviews"),
        ],
        Raiding => vec![
            format!("raid {poss} stream tonight, bring everyone"),
            format!("brigade the comments on {poss} channel until {subj} quits"),
            format!("zoombomb {poss} call, the link is public"),
        ],
        Spamming => vec![
            format!("spam {poss} inbox with hate until {subj} logs off"),
            format!("post {poss} accounts so we can spam {obj} nonstop"),
        ],
        OverloadingMisc => vec![format!("flood {obj} with notifications on every app")],
        HashtagHijacking => vec![
            format!("hijack {poss} hashtag and derail it, use our tags on every post"),
            "push our tag onto their hashtag until the message drowns".to_string(),
        ],
        PublicOpinionManipulationMisc => vec![
            format!("keep pushing the story about {obj} until people believe it"),
            "spread the narrative everywhere, repetition makes it real".to_string(),
        ],
        FalseReportingToAuthorities => vec![
            format!("report {obj} to immigration, {subj} will have a bad week"),
            format!("call {poss} employer and report {obj} for things hr cannot ignore"),
            format!("swat {obj}, you know the address"),
            format!("report {obj} to the police for stuff {subj} never did"),
        ],
        MassFlagging => vec![
            format!("mass report {poss} twitter and youtube until the accounts are gone"),
            format!("everyone flag {poss} videos for policy violations"),
            format!("mass flag {poss} channel, the platform will fold"),
        ],
        ReportingMisc => vec![format!("report {obj} everywhere {subj} holds an account")],
        ReputationalHarmPrivate => vec![
            format!("message {poss} family and employer about what {subj} posted"),
            format!("email {poss} boss the screenshots"),
        ],
        ReputationalHarmPublic => vec![
            format!("tell {poss} neighbours what {subj} believes, flyers work"),
            format!("post about {obj} publicly so the whole town knows"),
        ],
        ReputationalHarmMisc => vec![format!("make sure {poss} reputation never recovers")],
        StalkingOrTracking => vec![
            format!("follow {obj} and post where {subj} goes, stick trackers if you can"),
            format!("watch {poss} house and report back"),
        ],
        SurveillanceMisc => vec![format!("keep tabs on {obj} around the clock")],
        HateSpeech => vec![
            format!("message {obj} slurs off platform until {subj} breaks"),
            format!("fill {poss} mentions with the worst you have"),
        ],
        UnwantedExplicitContent => {
            vec![format!("send {obj} explicit images {subj} never asked for")]
        }
        ToxicContentMisc => vec![format!("make every reply {subj} gets a nightmare")],
        GenericCall => vec![
            format!("bully {obj} until {subj} leaves the internet"),
            format!("blackmail {obj}, use whatever leverage you find"),
            format!("make {poss} life miserable, all of us together"),
        ],
    };
    options[rng.gen_range(0..options.len())].clone()
}

/// Fraction of calls to harassment that are obfuscated: harassment
/// communities evade keyword filters with creative spellings and
/// camouflage, which is exactly why the paper needed a trained classifier
/// over a keyword query.
const OBFUSCATION_RATE: f64 = 0.25;

/// Leetspeak / evasive-spelling substitutions applied to attack verbs.
const LEET: &[(&str, &str)] = &[
    ("report", "rep0rt"),
    ("raid", "r4id"),
    ("dox", "d0x"),
    ("flag", "fl4g"),
    ("spam", "sp4m"),
    ("mass", "m4ss"),
    ("stream", "str3am"),
];

/// Camouflage sentences wrapped around obfuscated calls.
const CAMOUFLAGE: &[&str] = &[
    "anyway back to the game thread after this",
    "mods asleep, perfect timing",
    "you all know the drill from last time",
    "keep it off the main channel",
];

/// Applies one evasion transform to a call-to-harassment body.
fn obfuscate(text: String, rng: &mut StdRng) -> String {
    match rng.gen_range(0..3u8) {
        // Leetspeak on one attack verb.
        0 => {
            let mut out = text;
            let (from, to) = LEET[rng.gen_range(0..LEET.len())];
            if out.contains(from) {
                out = out.replacen(from, to, 1);
            }
            out
        }
        // Drop the mobilizing preamble: the call is implicit.
        1 => match text.split_once(' ') {
            Some((first, rest)) if MOBILIZERS.iter().any(|m| m.starts_with(first)) => {
                rest.to_string()
            }
            _ => text,
        },
        // Bury the call in benign camouflage.
        _ => {
            let camo = CAMOUFLAGE[rng.gen_range(0..CAMOUFLAGE.len())];
            if rng.gen_bool(0.5) {
                format!("{camo}. {text}")
            } else {
                format!("{text}. {camo}")
            }
        }
    }
}

/// Generates a call-to-harassment body for a label set and target gender.
/// When `identity` is provided, the target's PII (one kind per listed
/// [`PiiKind`]) is embedded — producing the CTH ∩ dox overlap documents.
/// A quarter of calls are obfuscated (leetspeak, implicit phrasing, or
/// camouflage) per `OBFUSCATION_RATE`.
pub fn cth_text(
    labels: LabelSet,
    gender: Gender,
    identity: Option<(&Identity, &[PiiKind])>,
    rng: &mut StdRng,
) -> String {
    let mobilizer = pick(rng, MOBILIZERS);
    let mut parts: Vec<String> = Vec::new();
    for (i, sub) in labels.iter().enumerate() {
        let c = clause(sub, gender, rng);
        if i == 0 {
            parts.push(format!("{mobilizer} {c}"));
        } else {
            let joiner = pick(rng, &["and then", "also", "after that", "plus"]);
            parts.push(format!("{joiner} {c}"));
        }
    }
    let mut text = parts.join(", ");
    if rng.gen_bool(OBFUSCATION_RATE) {
        text = obfuscate(text, rng);
    }
    if let Some((id, kinds)) = identity {
        let mut lines = vec![text];
        lines.push(format!("target: {} {}", id.first_name, id.last_name));
        for (i, kind) in kinds.iter().enumerate() {
            lines.push(id.pii_text(*kind, i));
        }
        text = lines.join("\n");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pii_gen::identity;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    #[test]
    fn every_subcategory_produces_text() {
        let mut r = rng();
        for sub in Subcategory::ALL {
            let text = cth_text(LabelSet::single(sub), Gender::Male, None, &mut r);
            assert!(!text.is_empty(), "{sub}");
        }
    }

    #[test]
    fn mobilizing_language_usually_present() {
        let mut r = rng();
        let with_mobilizer = (0..200)
            .filter(|_| {
                let text = cth_text(
                    LabelSet::single(Subcategory::MassFlagging),
                    Gender::Unknown,
                    None,
                    &mut r,
                );
                MOBILIZERS.iter().any(|m| text.contains(m))
            })
            .count();
        // ~75 % plain + camouflaged/leet variants that keep the mobilizer;
        // only the "implicit" obfuscation removes it.
        assert!(
            with_mobilizer > 140,
            "only {with_mobilizer}/200 kept a mobilizer"
        );
        assert!(with_mobilizer < 200, "obfuscation never fired");
    }

    #[test]
    fn obfuscation_produces_leetspeak_sometimes() {
        let mut r = rng();
        let leet_seen = (0..400).any(|_| {
            let text = cth_text(
                LabelSet::single(Subcategory::MassFlagging),
                Gender::Unknown,
                None,
                &mut r,
            );
            text.contains("rep0rt") || text.contains("fl4g") || text.contains("m4ss")
        });
        assert!(leet_seen, "no leetspeak variant in 400 draws");
    }

    #[test]
    fn gendered_pronouns_match_target() {
        let mut r = rng();
        let male = cth_text(
            LabelSet::single(Subcategory::Doxing),
            Gender::Male,
            None,
            &mut r,
        );
        assert!(
            male.contains("his") || male.contains("him") || male.contains("he"),
            "{male}"
        );
        let female = cth_text(
            LabelSet::single(Subcategory::Doxing),
            Gender::Female,
            None,
            &mut r,
        );
        assert!(female.contains("her") || female.contains("she"), "{female}");
    }

    #[test]
    fn multi_label_produces_multiple_clauses() {
        let mut r = rng();
        let labels = LabelSet::from_iter([Subcategory::MassFlagging, Subcategory::Raiding]);
        let text = cth_text(labels, Gender::Unknown, None, &mut r);
        // Two clauses joined with a connective.
        assert!(text.contains(','), "{text}");
        assert!(text.len() > 40);
    }

    #[test]
    fn embedded_identity_adds_pii_lines() {
        let mut r = rng();
        let id = identity(&mut r);
        let text = cth_text(
            LabelSet::single(Subcategory::Doxing),
            Gender::Male,
            Some((&id, &[PiiKind::Phone, PiiKind::Address])),
            &mut r,
        );
        assert!(text.contains("555-01"), "{text}");
        assert!(text.contains(&id.first_name), "{text}");
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn texts_vary_across_draws() {
        let mut r = rng();
        let texts: std::collections::HashSet<String> = (0..60)
            .map(|_| {
                cth_text(
                    LabelSet::single(Subcategory::FalseReportingToAuthorities),
                    Gender::Male,
                    None,
                    &mut r,
                )
            })
            .collect();
        assert!(texts.len() > 10, "only {} variants", texts.len());
    }
}
