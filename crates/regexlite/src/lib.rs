//! # incite-regex
//!
//! A self-contained regular-expression engine built for the PII extractors
//! of §5.6. The paper's extraction layer is a set of 12 regular expressions
//! derived from the `CommonRegex` Python library; no regex crate is on this
//! project's approved dependency list, so the engine is implemented from
//! scratch as a substrate.
//!
//! Design: a recursive-descent [`parser`] produces an [`ast`], which the
//! [`compile`] pass lowers to a Thompson NFA bytecode program executed by a
//! Pike [`vm`] — linear time in the input, no backtracking, no pathological
//! cases. Supported syntax covers what the PII patterns need:
//!
//! * literals, `.`, escapes (`\d \w \s \D \W \S \. \\ \- …`)
//! * character classes `[a-z0-9_]`, negation `[^…]`, ranges and escapes
//! * alternation `a|b`, capturing `(…)` and non-capturing `(?:…)` groups
//! * quantifiers `* + ?` and counted `{m} {m,} {m,n}` (greedy, plus lazy
//!   `*? +? ??`)
//! * anchors `^ $` and word boundaries `\b \B`
//! * an engine-level case-insensitivity flag ([`Regex::case_insensitive`])
//!
//! Matching semantics are leftmost-first with greedy quantifier priority —
//! the semantics the original Python patterns assume.

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]

pub mod ast;
pub mod compile;
mod dfa;
pub mod error;
pub mod parser;
pub mod vm;

pub use error::Error;

use compile::Program;
use dfa::{Dfa, Scan};

/// A compiled regular expression.
///
/// ```
/// use incite_regex::Regex;
///
/// let re = Regex::new(r"(\w+)@(\w+)\.com").unwrap();
/// let caps = re.captures("mail someone@example.com today").unwrap();
/// assert_eq!(caps.get(0).unwrap().as_str(), "someone@example.com");
/// assert_eq!(caps.get(1).unwrap().as_str(), "someone");
///
/// let re = Regex::case_insensitive("twitter").unwrap();
/// assert!(re.is_match("check TWITTER now"));
/// ```
#[derive(Debug)]
pub struct Regex {
    program: Program,
    pattern: String,
    /// Lazy existence-prefilter DFA (`None` when the program exceeds the
    /// DFA's caps — matching then always runs the Pike VM alone).
    dfa: Option<Dfa>,
}

impl Clone for Regex {
    fn clone(&self) -> Regex {
        // The DFA's state cache is derived data; a clone starts cold.
        Regex {
            program: self.program.clone(),
            pattern: self.pattern.clone(),
            dfa: Dfa::build(&self.program),
        }
    }
}

/// A single match: byte offsets into the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match<'t> {
    haystack: &'t str,
    /// Byte offset of the match start.
    pub start: usize,
    /// Byte offset one past the match end.
    pub end: usize,
}

impl<'t> Match<'t> {
    /// The matched text.
    pub fn as_str(&self) -> &'t str {
        &self.haystack[self.start..self.end]
    }

    /// Match length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Capture groups for one match. Group 0 is the whole match.
#[derive(Debug, Clone)]
pub struct Captures<'t> {
    haystack: &'t str,
    slots: Vec<Option<usize>>,
}

impl<'t> Captures<'t> {
    /// The text of group `i`, if it participated in the match.
    pub fn get(&self, i: usize) -> Option<Match<'t>> {
        let start = self.slots.get(2 * i).copied().flatten()?;
        let end = self.slots.get(2 * i + 1).copied().flatten()?;
        Some(Match {
            haystack: self.haystack,
            start,
            end,
        })
    }

    /// Number of groups (including group 0).
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// Always false: group 0 is always present.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Regex {
    /// Compiles a pattern with default (case-sensitive) options.
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        Self::with_options(pattern, false)
    }

    /// Compiles a case-insensitive pattern.
    pub fn case_insensitive(pattern: &str) -> Result<Regex, Error> {
        Self::with_options(pattern, true)
    }

    fn with_options(pattern: &str, ci: bool) -> Result<Regex, Error> {
        let ast = parser::parse(pattern)?;
        let program = compile::compile(&ast, ci)?;
        let dfa = Dfa::build(&program);
        Ok(Regex {
            program,
            pattern: pattern.to_string(),
            dfa,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Whether the pattern matches anywhere in `text`.
    ///
    /// Existence needs no span, so the DFA prefilter can answer both ways
    /// on its own; only a DFA bail (cache overflow / contention) runs the
    /// Pike VM here.
    pub fn is_match(&self, text: &str) -> bool {
        match self.prefilter(text, 0) {
            Scan::NoMatch => false,
            Scan::MatchExists => true,
            Scan::GaveUp => self.find(text).is_some(),
        }
    }

    /// Finds the leftmost match.
    pub fn find<'t>(&self, text: &'t str) -> Option<Match<'t>> {
        self.find_at(text, 0)
    }

    /// Finds the leftmost match starting at or after byte offset `start`.
    ///
    /// The DFA prefilter screens out the no-match case (the common one for
    /// PII extraction); any hit falls through to the unchanged Pike VM,
    /// which reports the exact leftmost-first span.
    pub fn find_at<'t>(&self, text: &'t str, start: usize) -> Option<Match<'t>> {
        if self.prefilter(text, start) == Scan::NoMatch {
            return None;
        }
        let (s, e) = vm::search(&self.program, text, start)?;
        Some(Match {
            haystack: text,
            start: s,
            end: e,
        })
    }

    /// Runs the DFA existence scan, or `GaveUp` when no DFA was built.
    fn prefilter(&self, text: &str, start: usize) -> Scan {
        match &self.dfa {
            Some(dfa) => dfa.scan(&self.program, text, start),
            None => Scan::GaveUp,
        }
    }

    /// Iterates all non-overlapping matches, leftmost-first.
    pub fn find_iter<'r, 't>(&'r self, text: &'t str) -> Matches<'r, 't> {
        Matches {
            regex: self,
            text,
            pos: 0,
        }
    }

    /// Returns capture groups for the leftmost match.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Captures<'t>> {
        self.captures_at(text, 0)
    }

    /// Returns capture groups for the leftmost match at or after `start`.
    ///
    /// Captures always come from the Pike VM (the DFA tracks no slots);
    /// the prefilter only saves the VM run when no match exists at all.
    pub fn captures_at<'t>(&self, text: &'t str, start: usize) -> Option<Captures<'t>> {
        if self.prefilter(text, start) == Scan::NoMatch {
            return None;
        }
        let slots = vm::search_captures(&self.program, text, start)?;
        Some(Captures {
            haystack: text,
            slots,
        })
    }

    /// Iterates captures of all non-overlapping matches.
    pub fn captures_iter<'r, 't>(&'r self, text: &'t str) -> CaptureMatches<'r, 't> {
        CaptureMatches {
            regex: self,
            text,
            pos: 0,
        }
    }
}

/// Iterator over non-overlapping matches.
pub struct Matches<'r, 't> {
    regex: &'r Regex,
    text: &'t str,
    pos: usize,
}

impl<'t> Iterator for Matches<'_, 't> {
    type Item = Match<'t>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos > self.text.len() {
            return None;
        }
        let m = self.regex.find_at(self.text, self.pos)?;
        self.pos = if m.end == m.start {
            next_char_boundary(self.text, m.end)
        } else {
            m.end
        };
        Some(m)
    }
}

/// Iterator over captures of non-overlapping matches.
pub struct CaptureMatches<'r, 't> {
    regex: &'r Regex,
    text: &'t str,
    pos: usize,
}

impl<'t> Iterator for CaptureMatches<'_, 't> {
    type Item = Captures<'t>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos > self.text.len() {
            return None;
        }
        let caps = self.regex.captures_at(self.text, self.pos)?;
        // Group 0 is always present in a match; a miss would mean the VM
        // returned malformed slots, which ends iteration rather than panics.
        let whole = caps.get(0)?;
        self.pos = if whole.end == whole.start {
            next_char_boundary(self.text, whole.end)
        } else {
            whole.end
        };
        Some(caps)
    }
}

fn next_char_boundary(s: &str, mut i: usize) -> usize {
    i += 1;
    while i < s.len() && !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> Option<(usize, usize)> {
        Regex::new(pat)
            .unwrap()
            .find(text)
            .map(|m| (m.start, m.end))
    }

    #[test]
    fn literal_match() {
        assert_eq!(m("dox", "please dox him"), Some((7, 10)));
        assert_eq!(m("dox", "nothing here"), None);
    }

    #[test]
    fn leftmost_first_semantics() {
        assert_eq!(m("a+", "baaab"), Some((1, 4)));
        // Alternation prefers the first branch even when shorter.
        assert_eq!(m("a|ab", "ab"), Some((0, 1)));
    }

    #[test]
    fn greedy_and_lazy_quantifiers() {
        assert_eq!(m("<.*>", "<a><b>"), Some((0, 6)));
        assert_eq!(m("<.*?>", "<a><b>"), Some((0, 3)));
        assert_eq!(m("a??", "a"), Some((0, 0)));
    }

    #[test]
    fn counted_repetition() {
        assert_eq!(m(r"\d{3}", "ab 1234"), Some((3, 6)));
        assert_eq!(m(r"\d{2,3}", "a 12345"), Some((2, 5)));
        assert_eq!(m(r"\d{5,}", "1234"), None);
        assert_eq!(m(r"\d{5,}", "1234567"), Some((0, 7)));
    }

    #[test]
    fn character_classes() {
        assert_eq!(m("[a-c]+", "zzabcz"), Some((2, 5)));
        assert_eq!(m("[^a-z ]+", "ab 123 cd"), Some((3, 6)));
        assert_eq!(m(r"[\d-]+", "a 55-66"), Some((2, 7)));
    }

    #[test]
    fn anchors() {
        assert_eq!(m("^abc", "abcdef"), Some((0, 3)));
        assert_eq!(m("^abc", "xabc"), None);
        assert_eq!(m("def$", "abcdef"), Some((3, 6)));
        assert_eq!(m("def$", "defabc"), None);
        assert_eq!(m("^$", ""), Some((0, 0)));
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(m(r"\bcat\b", "the cat sat"), Some((4, 7)));
        assert_eq!(m(r"\bcat\b", "concatenate"), None);
        assert_eq!(m(r"\Bcat\B", "concatenate"), Some((3, 6)));
    }

    #[test]
    fn captures_basic() {
        let re = Regex::new(r"(\w+)@(\w+)\.com").unwrap();
        let caps = re.captures("mail me at someone@example.com now").unwrap();
        assert_eq!(caps.get(0).unwrap().as_str(), "someone@example.com");
        assert_eq!(caps.get(1).unwrap().as_str(), "someone");
        assert_eq!(caps.get(2).unwrap().as_str(), "example");
        assert_eq!(caps.len(), 3);
    }

    #[test]
    fn non_capturing_groups() {
        let re = Regex::new(r"(?:ab)+(c)").unwrap();
        let caps = re.captures("ababc").unwrap();
        assert_eq!(caps.get(0).unwrap().as_str(), "ababc");
        assert_eq!(caps.get(1).unwrap().as_str(), "c");
        assert_eq!(caps.len(), 2);
    }

    #[test]
    fn optional_group_absent() {
        let re = Regex::new(r"a(b)?c").unwrap();
        let caps = re.captures("ac").unwrap();
        assert!(caps.get(1).is_none());
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let all: Vec<&str> = re
            .find_iter("12 and 345 and 6")
            .map(|m| m.as_str())
            .collect();
        assert_eq!(all, vec!["12", "345", "6"]);
    }

    #[test]
    fn find_iter_handles_empty_matches() {
        let re = Regex::new(r"a*").unwrap();
        let all: Vec<(usize, usize)> = re
            .find_iter("ba")
            .map(|m| (m.start, m.end))
            .take(5)
            .collect();
        // Must terminate and advance through the string.
        assert!(all.len() <= 3, "{all:?}");
        assert!(all.contains(&(1, 2)));
    }

    #[test]
    fn case_insensitive_matching() {
        let re = Regex::case_insensitive("twitter").unwrap();
        assert!(re.is_match("check his TWITTER account"));
        assert!(re.is_match("Twitter"));
        let re2 = Regex::case_insensitive("[a-z]+").unwrap();
        assert_eq!(re2.find("ABC").unwrap().as_str(), "ABC");
    }

    #[test]
    fn dot_excludes_newline() {
        assert_eq!(m("a.c", "abc"), Some((0, 3)));
        assert_eq!(m("a.c", "a\nc"), None);
    }

    #[test]
    fn escapes() {
        assert_eq!(m(r"\.", "a.b"), Some((1, 2)));
        assert_eq!(m(r"\\", r"a\b"), Some((1, 2)));
        assert_eq!(m(r"\w+", "héllo!"), Some((0, 6)));
        assert_eq!(m(r"\s+", "a \t b"), Some((1, 4)));
        assert_eq!(m(r"\D+", "12ab34"), Some((2, 4)));
    }

    #[test]
    fn unicode_input() {
        assert_eq!(m("ö+", "grün öö"), Some((6, 10)));
        let re = Regex::new(".").unwrap();
        assert_eq!(re.find("é").unwrap().len(), 2); // full char, not a byte
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("a)").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"a{3,2}").is_err());
        assert!(Regex::new(r"\q").is_err());
    }

    #[test]
    fn phone_number_shape() {
        // The kind of pattern the PII layer builds.
        let re = Regex::new(r"\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{4}").unwrap();
        assert!(re.is_match("call (212) 555-0187 today"));
        assert!(re.is_match("212.555.0187"));
        assert!(re.is_match("2125550187"));
        assert!(!re.is_match("call 555-018 today"));
    }

    #[test]
    fn no_pathological_blowup() {
        // Classic catastrophic-backtracking input; the Pike VM must stay
        // linear. Checked deterministically via the VM's step counter —
        // doubling the input must no more than double the work (plus a
        // constant) — instead of a wall-clock guard, so the test cannot
        // flake on a loaded machine and never reads the clock.
        let re = Regex::new("(a+)+$").unwrap();
        let steps = |n: usize| {
            let text = "a".repeat(n) + "b";
            let budget = vm::fuel_for(&re.program, text.len());
            let (found, fuel) = vm::search_fueled(&re.program, &text, 0, budget);
            assert_eq!(found, None);
            assert!(!fuel.exhausted(), "linear-time VM ran out of fuel");
            fuel.used()
        };
        let s40 = steps(40);
        let s80 = steps(80);
        assert!(s80 <= 2 * s40 + 64, "superlinear growth: {s40} -> {s80}");
    }

    #[test]
    fn captures_iter_collects_all() {
        let re = Regex::new(r"(\w+):(\d+)").unwrap();
        let pairs: Vec<(String, String)> = re
            .captures_iter("a:1 b:22 c:333")
            .map(|c| {
                (
                    c.get(1).unwrap().as_str().to_string(),
                    c.get(2).unwrap().as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[2], ("c".to_string(), "333".to_string()));
    }
}
