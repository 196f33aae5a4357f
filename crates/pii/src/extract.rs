//! The twelve PII extractors.

use crate::luhn::luhn_valid;
use incite_regex::Regex;
use incite_taxonomy::pii_kind::PiiSet;
use incite_taxonomy::PiiKind;

/// Failure to compile one of the extractor patterns.
///
/// Unreachable through [`PiiExtractor::new`] / [`PiiExtractor::try_new`]
/// today (the builtin patterns are constants exercised by the test suite);
/// the type exists so the fallible constructor can keep its contract if the
/// pattern set ever becomes configurable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiiError {
    /// The pattern that failed to compile.
    pub pattern: String,
    /// The underlying compilation error.
    pub source: incite_regex::Error,
}

impl std::fmt::Display for PiiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PII pattern `{}` failed to compile: {}",
            self.pattern, self.source
        )
    }
}

impl std::error::Error for PiiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One extracted PII span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiiMatch {
    pub kind: PiiKind,
    /// The matched text.
    pub text: String,
    /// Byte offsets into the source document.
    pub start: usize,
    pub end: usize,
}

/// Reserved path segments that look like profile URLs but are site
/// functionality (the paper's "stopwords … reserved for site
/// functionalities").
const FACEBOOK_STOPWORDS: &[&str] = &[
    "pages",
    "groups",
    "events",
    "marketplace",
    "watch",
    "gaming",
    "help",
    "login",
    "sharer",
];
const INSTAGRAM_STOPWORDS: &[&str] = &["p", "explore", "reels", "stories", "accounts", "about"];
const TWITTER_STOPWORDS: &[&str] = &[
    "home",
    "search",
    "hashtag",
    "i",
    "explore",
    "settings",
    "intent",
    "share",
    "notifications",
];
const YOUTUBE_STOPWORDS: &[&str] = &[
    "watch", "results", "feed", "playlist", "embed", "shorts", "about", "t",
];

/// Stopwords for the inline `site: handle` form: URL scheme/domain tokens
/// that the pattern would otherwise capture from lines like
/// `"Twitter: https://twitter.com/user"`.
const INLINE_STOPWORDS: &[&str] = &[
    "https",
    "http",
    "www",
    "com",
    "twitter",
    "facebook",
    "instagram",
    "youtube",
    "fb",
    "ig",
    "channel",
    "user",
];

/// The compiled extractor set.
///
/// ```
/// use incite_pii::PiiExtractor;
/// use incite_taxonomy::PiiKind;
///
/// let extractor = PiiExtractor::new();
/// let pii = extractor.pii_set("call (212) 555-0187 or mail a@example.com");
/// assert!(pii.contains(PiiKind::Phone));
/// assert!(pii.contains(PiiKind::Email));
/// ```
#[derive(Debug)]
pub struct PiiExtractor {
    email: Regex,
    phone: Regex,
    ssn: Regex,
    address: Regex,
    cards: Vec<(Regex, &'static str)>,
    facebook_url: Regex,
    facebook_inline: Regex,
    instagram_url: Regex,
    instagram_inline: Regex,
    twitter_url: Regex,
    twitter_inline: Regex,
    youtube_url: Regex,
    youtube_inline: Regex,
}

impl Default for PiiExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl PiiExtractor {
    /// Compiles the builtin patterns, infallibly: they are constants covered
    /// by tests, so the only failure mode is programmer error. Callers that
    /// want to decide for themselves should use [`Self::try_new`].
    // The expect is unreachable: every builtin pattern is compile-tested
    // by `builtin_patterns_compile`.
    #[allow(clippy::expect_used)]
    pub fn new() -> Self {
        Self::try_new().expect("builtin PII patterns compile")
    }

    /// Compiles all patterns, surfacing a compilation failure as a
    /// [`PiiError`] instead of panicking.
    pub fn try_new() -> Result<Self, PiiError> {
        let ci = |p: &str| {
            Regex::case_insensitive(p).map_err(|source| PiiError {
                pattern: p.to_string(),
                source,
            })
        };
        Ok(PiiExtractor {
            email: ci(r"\b[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z][a-z]+\b")?,
            // US phone: optional +1/1 prefix, optional parens, common
            // separators. The 555-01XX fictional exchange also matches.
            phone: ci(r"(\+?1[-. ])?\(?\d{3}\)?[-. ]\d{3}[-. ]?\d{4}\b")?,
            ssn: ci(r"\b\d{3}-\d{2}-\d{4}\b")?,
            // US street address: house number, street name words, suffix,
            // optionally a city/state/zip tail.
            address: ci(
                r"\b\d{1,5} [a-z][a-z ]* (ave|avenue|st|street|rd|road|blvd|boulevard|ln|lane|dr|drive|ct|court|way)\b(, [a-z][a-z ]*, [a-z][a-z] \d{5})?",
            )?,
            cards: vec![
                (ci(r"\b4\d{3}[- ]?\d{4}[- ]?\d{4}[- ]?\d{4}\b")?, "visa"),
                (
                    ci(r"\b5[1-5]\d{2}[- ]?\d{4}[- ]?\d{4}[- ]?\d{4}\b")?,
                    "mastercard",
                ),
                (ci(r"\b3[47]\d{2}[- ]?\d{6}[- ]?\d{5}\b")?, "amex"),
                (ci(r"\b6011[- ]?\d{4}[- ]?\d{4}[- ]?\d{4}\b")?, "discover"),
            ],
            // The inline forms tolerate a doubled label prefix
            // ("Facebook: fb: handle"), common in structured dox drops.
            facebook_url: ci(r"(https?://)?(www\.)?facebook\.com/([a-z0-9.]+)")?,
            facebook_inline: ci(
                r"\b(facebook|fb)\s*:\s*(?:(?:facebook|fb)\s*:\s*)?@?([a-z0-9._-]+)",
            )?,
            instagram_url: ci(r"(https?://)?(www\.)?instagram\.com/([a-z0-9._]+)")?,
            instagram_inline: ci(
                r"\b(instagram|ig)\s*:\s*(?:(?:instagram|ig)\s*:\s*)?@?([a-z0-9._]+)",
            )?,
            twitter_url: ci(r"(https?://)?(www\.)?twitter\.com/([a-z0-9_]+)")?,
            twitter_inline: ci(r"\btwitter\s*:\s*(?:twitter\s*:\s*)?@?([a-z0-9_]+)")?,
            youtube_url: ci(
                r"(https?://)?(www\.)?youtube\.com/((channel|c|user)/|@)?([a-z0-9_-]+)",
            )?,
            youtube_inline: ci(r"\byoutube\s*:\s*(?:youtube\s*:\s*)?@?([a-z0-9_-]+)")?,
        })
    }

    /// Extracts all PII spans from a document.
    ///
    /// Cheap literal gates skip pattern families that cannot possibly match
    /// (no digit → no phone/SSN/card/address; no `@` → no email; no platform
    /// name → no profile), which makes scanning the overwhelmingly benign
    /// bulk of a corpus much faster without changing results.
    pub fn extract(&self, text: &str) -> Vec<PiiMatch> {
        let mut out = Vec::new();
        let lower = text.to_lowercase();
        let has_digit = text.bytes().any(|b| b.is_ascii_digit());

        if lower.contains('@') {
            self.find_simple(&self.email, PiiKind::Email, text, &mut out);
        }
        if has_digit {
            self.find_simple(&self.phone, PiiKind::Phone, text, &mut out);
            self.find_simple(&self.ssn, PiiKind::Ssn, text, &mut out);
            self.find_simple(&self.address, PiiKind::Address, text, &mut out);
            for (re, _network) in &self.cards {
                for m in re.find_iter(text) {
                    if luhn_valid(m.as_str()) {
                        out.push(PiiMatch {
                            kind: PiiKind::CreditCard,
                            text: m.as_str().to_string(),
                            start: m.start,
                            end: m.end,
                        });
                    }
                }
            }
        }
        if lower.contains("facebook") || lower.contains("fb") {
            self.find_profile(
                &self.facebook_url,
                3,
                FACEBOOK_STOPWORDS,
                PiiKind::Facebook,
                text,
                &mut out,
            );
            self.find_profile(
                &self.facebook_inline,
                2,
                INLINE_STOPWORDS,
                PiiKind::Facebook,
                text,
                &mut out,
            );
        }
        if lower.contains("instagram") || lower.contains("ig") {
            self.find_profile(
                &self.instagram_url,
                3,
                INSTAGRAM_STOPWORDS,
                PiiKind::Instagram,
                text,
                &mut out,
            );
            self.find_profile(
                &self.instagram_inline,
                2,
                INLINE_STOPWORDS,
                PiiKind::Instagram,
                text,
                &mut out,
            );
        }
        if lower.contains("twitter") {
            self.find_profile(
                &self.twitter_url,
                3,
                TWITTER_STOPWORDS,
                PiiKind::Twitter,
                text,
                &mut out,
            );
            self.find_profile(
                &self.twitter_inline,
                1,
                INLINE_STOPWORDS,
                PiiKind::Twitter,
                text,
                &mut out,
            );
        }
        if lower.contains("youtube") {
            self.find_profile(
                &self.youtube_url,
                5,
                YOUTUBE_STOPWORDS,
                PiiKind::YouTube,
                text,
                &mut out,
            );
            self.find_profile(
                &self.youtube_inline,
                1,
                INLINE_STOPWORDS,
                PiiKind::YouTube,
                text,
                &mut out,
            );
        }

        // Phone numbers may shadow SSN-like shapes and vice versa; dedup
        // exact duplicate spans per kind, then sort by position.
        out.sort_by_key(|m| (m.start, m.end, m.kind));
        out.dedup_by(|a, b| a.start == b.start && a.end == b.end && a.kind == b.kind);
        out
    }

    /// The set of distinct PII kinds present.
    pub fn pii_set(&self, text: &str) -> PiiSet {
        self.extract(text).into_iter().map(|m| m.kind).collect()
    }

    /// Extracted OSN handles, normalized to lowercase `platform:handle`
    /// keys — the linking identity used by the repeated-dox analysis (§7.3).
    pub fn osn_handles(&self, text: &str) -> Vec<String> {
        let mut handles: Vec<String> = self
            .extract(text)
            .into_iter()
            .filter(|m| m.kind.is_osn_profile())
            .map(|m| {
                let handle = m
                    .text
                    .rsplit(['/', ':', ' ', '@'])
                    .next()
                    .unwrap_or(&m.text)
                    .to_lowercase();
                format!("{}:{}", m.kind.slug(), handle)
            })
            .collect();
        handles.sort();
        handles.dedup();
        handles
    }

    fn find_simple(&self, re: &Regex, kind: PiiKind, text: &str, out: &mut Vec<PiiMatch>) {
        for m in re.find_iter(text) {
            out.push(PiiMatch {
                kind,
                text: m.as_str().to_string(),
                start: m.start,
                end: m.end,
            });
        }
    }

    fn find_profile(
        &self,
        re: &Regex,
        handle_group: usize,
        stopwords: &[&str],
        kind: PiiKind,
        text: &str,
        out: &mut Vec<PiiMatch>,
    ) {
        for caps in re.captures_iter(text) {
            // Group 0 is always present in a match; skip defensively rather
            // than panic if the VM ever returns malformed slots.
            let Some(whole) = caps.get(0) else {
                continue;
            };
            let Some(handle) = caps.get(handle_group) else {
                continue;
            };
            let handle_lc = handle.as_str().to_lowercase();
            if handle_lc.len() < 2 {
                continue;
            }
            if stopwords.iter().any(|s| *s == handle_lc) {
                continue;
            }
            out.push(PiiMatch {
                kind,
                text: whole.as_str().to_string(),
                start: whole.start,
                end: whole.end,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex() -> PiiExtractor {
        PiiExtractor::new()
    }

    fn kinds(text: &str) -> Vec<PiiKind> {
        ex().pii_set(text).iter().collect()
    }

    #[test]
    fn builtin_patterns_compile() {
        // `PiiExtractor::new` leans on this: it proves the builtin pattern
        // set compiles, so the infallible wrapper cannot actually panic.
        assert!(PiiExtractor::try_new().is_ok());
    }

    /// §5.6 fixes twelve expressions, and the card family matches four
    /// networks. The destructure names every field with no `..`, so a new
    /// field stops this test building until the count is revisited.
    #[test]
    fn twelve_expressions_and_four_card_networks() {
        let PiiExtractor {
            email,
            phone,
            ssn,
            address,
            cards,
            facebook_url,
            facebook_inline,
            instagram_url,
            instagram_inline,
            twitter_url,
            twitter_inline,
            youtube_url,
            youtube_inline,
        } = ex();
        let expressions: [&Regex; 12] = [
            &email,
            &phone,
            &ssn,
            &address,
            &facebook_url,
            &facebook_inline,
            &instagram_url,
            &instagram_inline,
            &twitter_url,
            &twitter_inline,
            &youtube_url,
            &youtube_inline,
        ];
        let mut patterns: Vec<&str> = expressions.iter().map(|re| re.pattern()).collect();
        patterns.sort_unstable();
        patterns.dedup();
        assert_eq!(patterns.len(), 12, "the twelve expressions must differ");
        let networks: Vec<&str> = cards.iter().map(|(_, network)| *network).collect();
        assert_eq!(networks, ["visa", "mastercard", "amex", "discover"]);
    }

    #[test]
    fn extracts_emails() {
        assert_eq!(
            kinds("reach me at jane.doe42@example.com ok"),
            vec![PiiKind::Email]
        );
        assert!(kinds("no at sign here").is_empty());
    }

    #[test]
    fn extracts_us_phones_in_common_formats() {
        for t in [
            "call (212) 555-0187",
            "call 212-555-0187",
            "call 212.555.0187",
            "call 1-212-555-0187",
            "call +1 212 555 0187",
        ] {
            assert!(kinds(t).contains(&PiiKind::Phone), "{t}");
        }
        assert!(!kinds("in the year 2125550").contains(&PiiKind::Phone));
    }

    #[test]
    fn extracts_ssns() {
        assert!(kinds("ssn: 000-12-3456").contains(&PiiKind::Ssn));
        assert!(!kinds("date 2020-08-01").contains(&PiiKind::Ssn));
    }

    #[test]
    fn extracts_addresses() {
        assert!(kinds("lives at 12345 Maplewood Ave, Springfield, NY 10001")
            .contains(&PiiKind::Address));
        assert!(kinds("22 Hollow Creek Rd is the spot").contains(&PiiKind::Address));
        assert!(!kinds("the 5 best streets in town").contains(&PiiKind::Address));
    }

    #[test]
    fn cards_require_luhn() {
        assert!(kinds("card 4111111111111111 exp 09/27").contains(&PiiKind::CreditCard));
        // Same shape, bad checksum.
        assert!(!kinds("card 4111111111111112 exp 09/27").contains(&PiiKind::CreditCard));
        // Amex test number.
        assert!(kinds("amex 378282246310005").contains(&PiiKind::CreditCard));
    }

    #[test]
    fn profile_urls_are_extracted() {
        assert!(kinds("https://facebook.com/some.person.12").contains(&PiiKind::Facebook));
        assert!(kinds("instagram.com/some_person_9").contains(&PiiKind::Instagram));
        assert!(kinds("find him at twitter.com/someperson99").contains(&PiiKind::Twitter));
        assert!(kinds("youtube.com/channel/UCabc123def").contains(&PiiKind::YouTube));
        assert!(kinds("https://www.youtube.com/@somecreator").contains(&PiiKind::YouTube));
    }

    #[test]
    fn inline_site_handle_forms_are_extracted() {
        assert!(kinds("fb: jane.doe.77").contains(&PiiKind::Facebook));
        assert!(kinds("Facebook: jane.doe.77").contains(&PiiKind::Facebook));
        assert!(kinds("ig: jane_doe_77").contains(&PiiKind::Instagram));
        assert!(kinds("twitter: @janedoe77").contains(&PiiKind::Twitter));
        assert!(kinds("youtube: janedoech9").contains(&PiiKind::YouTube));
    }

    #[test]
    fn stopwords_suppress_functionality_urls() {
        assert!(!kinds("see facebook.com/pages for info").contains(&PiiKind::Facebook));
        assert!(!kinds("twitter.com/search is down").contains(&PiiKind::Twitter));
        assert!(!kinds("youtube.com/watch fails to load").contains(&PiiKind::YouTube));
        assert!(!kinds("instagram.com/explore trending").contains(&PiiKind::Instagram));
    }

    #[test]
    fn multiple_kinds_in_one_document() {
        let text = "Name: pat q\nPhone: (212) 555-0101\nEmail: pat@example.net\n\
                    Twitter: @patq1\nAddress: 900 Larkspur Ave, Fairview, OH 44111";
        let set = ex().pii_set(text);
        assert!(set.contains(PiiKind::Phone));
        assert!(set.contains(PiiKind::Email));
        assert!(set.contains(PiiKind::Twitter));
        assert!(set.contains(PiiKind::Address));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn match_offsets_index_source() {
        let text = "mail: someone@example.com and cell 212-555-0144";
        for m in ex().extract(text) {
            assert_eq!(&text[m.start..m.end], m.text, "{m:?}");
        }
    }

    #[test]
    fn osn_handles_are_normalized_keys() {
        let handles = ex().osn_handles("twitter.com/JaneDoe77 and later twitter: @janedoe77");
        assert_eq!(handles, vec!["twitter:janedoe77".to_string()]);
    }

    #[test]
    fn benign_text_yields_nothing() {
        assert!(ex()
            .extract("we talked about the game for hours")
            .is_empty());
        assert!(ex().extract("").is_empty());
    }

    #[test]
    fn extraction_survives_weird_input() {
        let weird = "@@@:::///...---000";
        let _ = ex().extract(weird); // must not panic
        let unicode = "héllo wörld ünïcode 500 Ämber Ave";
        let _ = ex().extract(unicode);
    }
}
