//! Differential sweep: the DFA-prefiltered public API vs the raw Pike VM.
//!
//! The lazy DFA in front of `Regex::{is_match, find_at, captures_at}` must
//! never change an answer — only skip Pike VM runs that would have found
//! nothing. This sweep drives both engines over (a) the library's own test
//! corpus of patterns and (b) seeded pseudo-random patterns and haystacks,
//! asserting identical matches, identical spans, identical capture slots,
//! and identical fuel-exhaustion refusals.

use incite_regex::compile::{compile, Program};
use incite_regex::parser::parse;
use incite_regex::{vm, Regex};

/// Deterministic SplitMix64 — the sweep must be reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The Pike-only reference: same parse + compile, searched via `vm::`.
fn reference(pattern: &str, ci: bool) -> Program {
    compile(&parse(pattern).expect(pattern), ci).expect(pattern)
}

/// Asserts the public (DFA-prefiltered) API agrees with the raw VM on
/// `text`: existence, leftmost span, capture slots, and iteration.
fn assert_agreement(re: &Regex, prog: &Program, text: &str) {
    let pat = re.pattern();
    // Existence.
    let vm_found = vm::search(prog, text, 0);
    assert_eq!(
        re.is_match(text),
        vm_found.is_some(),
        "is_match diverged: {pat:?} over {text:?}"
    );
    // Leftmost span.
    assert_eq!(
        re.find(text).map(|m| (m.start, m.end)),
        vm_found,
        "find diverged: {pat:?} over {text:?}"
    );
    // Spans from every start offset (exercises offset context: \b, ^).
    for start in 0..=text.len().min(12) {
        if !text.is_char_boundary(start) {
            continue;
        }
        assert_eq!(
            re.find_at(text, start).map(|m| (m.start, m.end)),
            vm::search(prog, text, start),
            "find_at({start}) diverged: {pat:?} over {text:?}"
        );
    }
    // Capture slots.
    let vm_caps = vm::search_captures(prog, text, 0);
    let re_caps = re.captures(text);
    match (&re_caps, &vm_caps) {
        (None, None) => {}
        (Some(got), Some(want)) => {
            for g in 0..prog.n_groups {
                let got_span = got.get(g).map(|m| (m.start, m.end));
                let want_span = want
                    .get(2 * g)
                    .copied()
                    .flatten()
                    .zip(want.get(2 * g + 1).copied().flatten());
                assert_eq!(
                    got_span, want_span,
                    "group {g} diverged: {pat:?} over {text:?}"
                );
            }
        }
        _ => panic!(
            "captures presence diverged: {pat:?} over {text:?}: {:?} vs {:?}",
            re_caps.is_some(),
            vm_caps.is_some()
        ),
    }
    // Non-overlapping iteration (drives find_at repeatedly through the
    // shared DFA cache).
    let mut pos = 0;
    let mut vm_iter: Vec<(usize, usize)> = Vec::new();
    while pos <= text.len() {
        match vm::search(prog, text, pos) {
            Some((s, e)) => {
                vm_iter.push((s, e));
                pos = if s == e {
                    let mut i = e + 1;
                    while i < text.len() && !text.is_char_boundary(i) {
                        i += 1;
                    }
                    i
                } else {
                    e
                };
            }
            None => break,
        }
    }
    let re_iter: Vec<(usize, usize)> = re.find_iter(text).map(|m| (m.start, m.end)).collect();
    assert_eq!(
        re_iter, vm_iter,
        "find_iter diverged: {pat:?} over {text:?}"
    );
}

/// The library's own test corpus of patterns (lib.rs + PII shapes).
const CORPUS_PATTERNS: &[&str] = &[
    "dox",
    "a+",
    "a|ab",
    "<.*>",
    "<.*?>",
    "a??",
    r"\d{3}",
    r"\d{2,3}",
    r"\d{5,}",
    "[a-c]+",
    "[^a-z ]+",
    r"[\d-]+",
    "^abc",
    "def$",
    "^$",
    r"\bcat\b",
    r"\Bcat\B",
    r"(\w+)@(\w+)\.com",
    r"(?:ab)+(c)",
    r"a(b)?c",
    r"\d+",
    "a*",
    "a.c",
    r"\.",
    r"\\",
    r"\w+",
    r"\s+",
    r"\D+",
    "ö+",
    r"\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{4}",
    r"(\w+):(\d+)",
    "(a+)+$",
    "x*",
    "é",
];

const CORPUS_HAYSTACKS: &[&str] = &[
    "",
    "please dox him",
    "nothing here",
    "baaab",
    "ab",
    "<a><b>",
    "ab 1234",
    "a 12345",
    "zzabcz",
    "ab 123 cd",
    "abcdef",
    "xabc",
    "defabc",
    "the cat sat",
    "concatenate",
    "mail me at someone@example.com now",
    "ababc",
    "ac",
    "12 and 345 and 6",
    "ba",
    "a\nc",
    "héllo!",
    "a \t b",
    "12ab34",
    "grün öö",
    "é",
    "call (212) 555-0187 today",
    "212.555.0187",
    "2125550187",
    "call 555-018 today",
    "a:1 b:22 c:333",
    "café déjà",
    "aaaaaaaaab",
    "x",
];

#[test]
fn corpus_patterns_agree_everywhere() {
    for pat in CORPUS_PATTERNS {
        let re = Regex::new(pat).unwrap();
        let prog = reference(pat, false);
        for text in CORPUS_HAYSTACKS {
            assert_agreement(&re, &prog, text);
        }
    }
}

#[test]
fn case_insensitive_patterns_agree() {
    for pat in ["twitter", "[a-z]+", r"\bCAT\b", "aBc{2,3}"] {
        let re = Regex::case_insensitive(pat).unwrap();
        let prog = reference(pat, true);
        for text in [
            "check his TWITTER account",
            "Twitter",
            "ABC",
            "the CaT sat",
            "xxaBCCcc",
            "",
        ] {
            assert_agreement(&re, &prog, text);
        }
    }
}

/// Grows a random pattern from a tiny grammar; every production parses.
fn random_pattern(rng: &mut Rng, depth: usize) -> String {
    const ATOMS: &[&str] = &[
        "a", "b", "c", "x", "1", " ", ".", r"\d", r"\w", r"\s", r"\D", "[abc]", "[^ab]",
        "[a-c1-3]", "é",
    ];
    if depth == 0 {
        return (*rng.pick(ATOMS)).to_string();
    }
    match rng.below(10) {
        0 => format!(
            "{}|{}",
            random_pattern(rng, depth - 1),
            random_pattern(rng, depth - 1)
        ),
        1 => format!("({})", random_pattern(rng, depth - 1)),
        2 => format!("(?:{})", random_pattern(rng, depth - 1)),
        3 => {
            let q = *rng.pick(&["*", "+", "?", "*?", "+?", "{2}", "{1,3}", "{2,}"]);
            format!("(?:{}){q}", random_pattern(rng, depth - 1))
        }
        4 => format!(
            "{}{}",
            random_pattern(rng, depth - 1),
            random_pattern(rng, depth - 1)
        ),
        5 => format!(r"\b{}", random_pattern(rng, depth - 1)),
        6 => format!("^{}", random_pattern(rng, depth - 1)),
        7 => format!("{}$", random_pattern(rng, depth - 1)),
        _ => (*rng.pick(ATOMS)).to_string(),
    }
}

fn random_haystack(rng: &mut Rng) -> String {
    const CHARS: &[char] = &['a', 'b', 'c', 'x', '1', '2', ' ', '.', 'é', '\n', '_'];
    let len = rng.below(40);
    (0..len).map(|_| *rng.pick(CHARS)).collect()
}

#[test]
fn seeded_random_sweep_agrees() {
    let mut rng = Rng(0x1ce_d0f5);
    for _ in 0..150 {
        let pat = random_pattern(&mut rng, 3);
        let re = Regex::new(&pat).unwrap();
        let prog = reference(&pat, false);
        for _ in 0..12 {
            let text = random_haystack(&mut rng);
            assert_agreement(&re, &prog, &text);
        }
    }
}

#[test]
fn fuel_exhaustion_refusals_are_unchanged() {
    // The fueled search API is pure Pike — the DFA must not alter its
    // deterministic refusal behavior or step counts.
    let prog = reference("a+b", false);
    let text = "aaaaaaaaab";
    let (found, fuel) = vm::search_fueled(&prog, text, 0, 3);
    assert_eq!(found, None);
    assert!(fuel.exhausted());
    let (found2, fuel2) = vm::search_fueled(&prog, text, 0, 3);
    assert_eq!(found2, None);
    assert_eq!(fuel.used(), fuel2.used());
    // With an adequate budget the fueled result matches the public API.
    let budget = vm::fuel_for(&prog, text.len());
    let (found3, fuel3) = vm::search_fueled(&prog, text, 0, budget);
    assert!(!fuel3.exhausted());
    let re = Regex::new("a+b").unwrap();
    assert_eq!(re.find(text).map(|m| (m.start, m.end)), found3);
}
