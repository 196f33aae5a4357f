//! Combinatorial lexer regression sweep: every pairing of literal kinds
//! (plain/raw/byte strings, hashed raw strings, line/nested block
//! comments, char literals) interleaved with code must mask the literal
//! contents, keep the code, and preserve the line layout. These are the
//! interactions the item parser depends on; single-construct cases live
//! in the `lexer` unit tests.

use incite_lint::lexer::MaskedFile;

#[test]
fn doc_comment_code_fences_stay_masked() {
    // The fenced examples quote an unwrap and a lock; none of it is code,
    // so none of it may survive masking or reach the item parser.
    let source = "\
//! Module docs.
//!
//! ```
//! let value = maybe.unwrap();
//! let guard = pair.a.lock();
//! ```

/// Scores one document.
///
/// ```
/// let score = engine.score(text).expect(\"scored\");
/// ```
pub fn score(x: u32) -> u32 {
    x + 1
}
";
    let masked = MaskedFile::new(source);
    assert!(
        !masked.masked.contains("unwrap") && !masked.masked.contains("expect"),
        "doc-comment contents leaked into the masked text:\n{}",
        masked.masked
    );
    assert_eq!(
        masked.masked.matches('\n').count(),
        source.matches('\n').count(),
        "masking must preserve line structure"
    );
    assert!(
        masked.masked.contains("pub fn score"),
        "masking ate the real code:\n{}",
        masked.masked
    );
}

#[test]
fn nested_raw_strings_close_on_the_matching_delimiter() {
    // The outer r##"…"## contains a complete r#"…"# literal; a lexer
    // that closed on the first `"#` would leave `.unwrap()` live.
    let source = r####"
pub fn template() -> &'static str {
    let inner = r##"outer text r#"inner .unwrap() text"# more outer"##;
    inner
}

pub fn after(x: u32) -> u32 {
    x + 2
}
"####;
    let masked = MaskedFile::new(source);
    assert!(
        !masked.masked.contains("unwrap"),
        "nested raw-string contents leaked:\n{}",
        masked.masked
    );
    assert_eq!(
        masked.masked.matches('\n').count(),
        source.matches('\n').count(),
        "masking must preserve line structure"
    );
    // The code after the literal is still live: its tokens survive.
    assert!(
        masked.masked.contains("pub fn after"),
        "masking ate code after the raw string:\n{}",
        masked.masked
    );
}

#[test]
fn combos_never_leak_and_preserve_lines() {
    // Literal fragments whose *contents* must never survive masking.
    // (text, contains_ghost)
    let literals: &[&str] = &[
        "\"ghost()\"",
        "\"g\\\"host()\"",
        "r\"ghost()\"",
        "r#\"ghost()\"#",
        "r##\"gh \"# ost()\"##",
        "br#\"ghost()\"#",
        "b\"ghost()\"",
        "// ghost()\n",
        "/* ghost() */",
        "/* a /* ghost() */ b */",
        "/*/ ghost() */",
        "'g'",
        "b'g'",
        "'\\''",
        "r#\"multi\nline ghost()\nend\"#",
        "/* multi\nline ghost() */",
    ];
    // Code fragments that must survive masking verbatim (sans literals).
    let codes: &[&str] = &["alpha();", "beta::<'a>(x);", "let mut v = 1;", "m[i] = j;"];

    let mut case = 0usize;
    for &a in literals {
        for &b in literals {
            for &c1 in codes {
                for &c2 in codes {
                    let src = format!("{c1} {a} {c2} {b}\n");
                    let m = MaskedFile::new(&src);
                    case += 1;
                    assert!(
                        !m.masked.contains("ghost"),
                        "case {case}: leak from {src:?} -> {:?}",
                        m.masked
                    );
                    assert_eq!(
                        m.masked.lines().count(),
                        src.lines().count(),
                        "case {case}: line drift for {src:?} -> {:?}",
                        m.masked
                    );
                    // Code before the first literal must survive.
                    assert!(
                        m.masked.contains(c1),
                        "case {case}: lost leading code in {src:?} -> {:?}",
                        m.masked
                    );
                    // Code between the literals must survive unless the first
                    // literal is a line comment (which eats to end of line —
                    // but all line-comment fragments here end with \n).
                    assert!(
                        m.masked.contains(c2),
                        "case {case}: lost middle code in {src:?} -> {:?}",
                        m.masked
                    );
                }
            }
        }
    }
    assert!(case > 4000, "expected a real sweep, got {case}");
}
