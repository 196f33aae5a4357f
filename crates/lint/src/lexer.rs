//! Code masking: strips comments, strings, and char literals from
//! Rust source so rule patterns match real code only.
//!
//! The masked text has exactly the same byte layout as the input — every
//! masked character is replaced by a space (newlines are preserved) — so
//! `file:line` positions computed on the masked text are valid for the
//! original. String and character literal *delimiters* are kept so the
//! expression shape survives (`x == "a"` masks to `x == " "`), while
//! comment delimiters are masked away entirely.
//!
//! The lexer also collects `// incite-lint: allow(RULE)` suppression
//! pragmas and the line ranges of `#[cfg(test)]` items, both of which the
//! rule engine consumes.

/// A source file after masking, with the side tables rules need.
#[derive(Clone)]
pub struct MaskedFile {
    /// Source with comment/string/char-literal contents blanked.
    pub masked: String,
    /// `(line, rule)` pairs: findings for `rule` on `line` are suppressed.
    /// Lines are 1-based.
    pub suppressions: Vec<(usize, String)>,
    /// 1-based inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Format-string interpolation captures: `(masked byte offset, ident)`
    /// for every `{ident}` / `{ident:spec}` inside a string literal.
    /// Masking blanks the literal, so these are the only record of which
    /// locals a `format!`-family call reads — the taint pass needs them.
    pub captures: Vec<(usize, String)>,
}

impl MaskedFile {
    /// Masks `source` and extracts pragmas and test regions.
    pub fn new(source: &str) -> MaskedFile {
        let (masked, comments, captures) = mask(source);
        let suppressions = parse_suppressions(&masked, &comments);
        let test_regions = find_test_regions(&masked);
        MaskedFile {
            masked,
            suppressions,
            test_regions,
            captures,
        }
    }

    /// Whether a 1-based line falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether findings for `rule` are suppressed on a 1-based line.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|(l, r)| *l == line && r == rule)
    }
}

/// A line comment captured during masking: line number and its text.
struct Comment {
    /// 1-based line the comment starts on.
    line: usize,
    /// Comment text without the leading `//`.
    text: String,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested block comments carry their depth.
    BlockComment(u32),
    Str,
    /// Raw strings remember their `#` count so `"##` only closes `r##"`.
    RawStr(u32),
    CharLit,
}

/// Masks `source`, returning the masked text plus captured line comments
/// and format-string interpolation captures.
fn mask(source: &str) -> (String, Vec<Comment>, Vec<(usize, String)>) {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments = Vec::new();
    let mut captures = Vec::new();
    // An in-progress `{ident…` capture inside a string literal: the
    // masked offset of its `{` plus the ident accumulated so far.
    let mut capture: Option<(usize, String)> = None;
    let mut state = State::Code;
    let mut line = 1usize;
    let mut current_comment = String::new();
    let mut comment_start_line = 0usize;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            line += 1;
        }
        if matches!(state, State::Str | State::RawStr(_)) {
            match &mut capture {
                Some((off, ident)) => match c {
                    _ if is_ident_char(c) => ident.push(c),
                    // `}` ends the capture; `:` starts a format spec —
                    // either way the ident is complete.
                    '}' | ':' => {
                        if ident
                            .chars()
                            .next()
                            .is_some_and(|f| f.is_alphabetic() || f == '_')
                        {
                            captures.push((*off, ident.clone()));
                        }
                        capture = None;
                    }
                    // Anything else (`{{`, `{0}`, `{x.y}`…) is not a plain
                    // ident capture.
                    _ => capture = None,
                },
                None if c == '{' => capture = Some((out.len(), String::new())),
                None => {}
            }
        } else {
            capture = None;
        }
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    comment_start_line = line;
                    current_comment.clear();
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                }
                'r' | 'b' => {
                    // Raw / byte-string openers: r", r#", br"", b"...
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_ident_continuation = i > 0 && is_ident_char(chars[i - 1]);
                    if chars.get(j) == Some(&'"')
                        && !is_ident_continuation
                        && (c == 'r'
                            || chars.get(i + 1) == Some(&'"')
                            || chars.get(i + 1) == Some(&'r'))
                    {
                        out.extend(&chars[i..=j]);
                        state = if c == 'b' && chars.get(i + 1) != Some(&'r') && hashes == 0 {
                            State::Str // plain byte string b"..."
                        } else {
                            State::RawStr(hashes)
                        };
                        i = j + 1;
                        continue;
                    }
                    // Raw identifiers (`r#fn`, `r#type`): mask the whole
                    // token, or the keyword-shaped name would leak into the
                    // masked stream and spoof the item parser. `r#ident` is
                    // never the std API its name resembles, so blanking it is
                    // sound for every pattern rule too.
                    if c == 'r'
                        && hashes == 1
                        && !is_ident_continuation
                        && chars.get(j).is_some_and(|&n| is_ident_char(n))
                    {
                        out.push_str("  ");
                        let mut k = j;
                        while chars.get(k).is_some_and(|&n| is_ident_char(n)) {
                            out.push(' ');
                            k += 1;
                        }
                        i = k;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: 'x' / '\n' are literals,
                    // 'a in `<'a>` is a lifetime.
                    let is_literal = match next {
                        Some('\\') => true,
                        Some(n) if is_ident_char(n) => chars.get(i + 2) == Some(&'\''),
                        Some(_) => true, // e.g. '(' — punctuation char literal
                        None => false,
                    };
                    if is_literal {
                        state = State::CharLit;
                    }
                    out.push('\'');
                }
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    comments.push(Comment {
                        line: comment_start_line,
                        text: current_comment.clone(),
                    });
                    state = State::Code;
                    out.push('\n');
                } else {
                    current_comment.push(c);
                    out.push(' ');
                }
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            State::Str => match c {
                '\\' => {
                    // Mask the escape pair so `\"` cannot close the string.
                    out.push(' ');
                    if let Some(n) = next {
                        out.push(if n == '\n' { '\n' } else { ' ' });
                        if n == '\n' {
                            line += 1;
                        }
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    state = State::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            State::CharLit => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                }
                '\'' => {
                    state = State::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    if state == State::LineComment {
        comments.push(Comment {
            line: comment_start_line,
            text: current_comment,
        });
    }
    (out, comments, captures)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extracts `incite-lint: allow(RULE[, RULE...])` pragmas from comments.
/// A pragma on a line with code applies to that line; a pragma on its own
/// line applies to the following line.
fn parse_suppressions(masked: &str, comments: &[Comment]) -> Vec<(usize, String)> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut out = Vec::new();
    for comment in comments {
        let Some(rest) = comment.text.trim().strip_prefix("incite-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|s| s.strip_suffix(')'))
        else {
            continue;
        };
        let has_code = lines
            .get(comment.line - 1)
            .is_some_and(|l| !l.trim().is_empty());
        let target = if has_code {
            comment.line
        } else {
            comment.line + 1
        };
        for rule in inner.split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push((target, rule.to_string()));
            }
        }
    }
    out
}

/// Finds line ranges of items annotated `#[cfg(test)]` — typically
/// `mod tests { ... }` — by brace matching on the masked text.
fn find_test_regions(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut regions = Vec::new();
    let mut search_from = 0;
    while let Some(rel) = masked[search_from..].find("#[cfg(test)]") {
        let attr_at = search_from + rel;
        let start_line = line_of(bytes, attr_at);
        let after = attr_at + "#[cfg(test)]".len();
        // The annotated item ends either at a `;` (e.g. `#[cfg(test)] use ...;`)
        // or at the matching close of its first `{`.
        let mut end = None;
        let mut j = after;
        let rest = bytes;
        while j < rest.len() {
            match rest[j] {
                b';' => {
                    end = Some(j);
                    break;
                }
                b'{' => {
                    end = matching_brace(rest, j);
                    break;
                }
                _ => j += 1,
            }
        }
        match end {
            Some(e) => {
                regions.push((start_line, line_of(bytes, e)));
                search_from = e + 1;
            }
            None => {
                // Unbalanced input: treat the rest of the file as the region.
                regions.push((start_line, line_of(bytes, bytes.len().saturating_sub(1))));
                break;
            }
        }
    }
    regions
}

/// Index of the `}` matching the `{` at `open`, on masked text.
pub(crate) fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (off, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// 1-based line number of byte offset `at`.
fn line_of(bytes: &[u8], at: usize) -> usize {
    1 + bytes[..at.min(bytes.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let m = MaskedFile::new("let x = 1; // unwrap() here\nlet y = 2;\n");
        assert!(!m.masked.contains("unwrap"));
        assert!(m.masked.contains("let x = 1;"));
        assert_eq!(m.masked.lines().count(), 2);
    }

    #[test]
    fn block_comments_nest_and_preserve_lines() {
        let src = "a /* one /* two */ still */ b\n/* multi\nline */ c\n";
        let m = MaskedFile::new(src);
        assert!(!m.masked.contains("one"));
        assert!(!m.masked.contains("still"));
        assert!(m.masked.contains('a'));
        assert!(m.masked.contains('b'));
        assert!(m.masked.contains('c'));
        assert_eq!(m.masked.lines().count(), src.lines().count());
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_kept() {
        let m = MaskedFile::new(r#"call("x.unwrap()", other);"#);
        assert!(!m.masked.contains("unwrap"));
        assert!(m.masked.contains(r#"call(""#));
        assert!(m.masked.contains("other);"));
    }

    #[test]
    fn escaped_quotes_do_not_close_strings() {
        let m = MaskedFile::new(r#"let s = "a\"b.unwrap()"; done();"#);
        assert!(!m.masked.contains("unwrap"));
        assert!(m.masked.contains("done();"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let m = MaskedFile::new(r##"let r = r#"panic!("inside")"#; after();"##);
        assert!(!m.masked.contains("panic"));
        assert!(m.masked.contains("after();"));
    }

    #[test]
    fn multi_hash_raw_strings_close_on_matching_hash_count() {
        // `"#` inside an `r##` string must not close it.
        let m = MaskedFile::new("let s = r##\"has \"# inside\"##; z.unwrap();\n");
        assert!(!m.masked.contains("inside"));
        assert!(m.masked.contains("z.unwrap()"));
        // Closer followed by more hashes in code.
        let m = MaskedFile::new("let s = r#\"x\"#; tail.unwrap();\n");
        assert!(m.masked.contains("tail.unwrap()"));
    }

    #[test]
    fn raw_byte_strings_with_hashes() {
        let m = MaskedFile::new("let p = br#\"panic!(\"no\")\"#; ok();\n");
        assert!(!m.masked.contains("panic"));
        assert!(m.masked.contains("ok();"));
    }

    #[test]
    fn raw_strings_do_not_process_escapes() {
        // In a raw string, `\` is content, not an escape: `r"\"` is closed.
        let m = MaskedFile::new("let s = r\"\\\"; after.unwrap();\n");
        assert!(m.masked.contains("after.unwrap()"));
    }

    #[test]
    fn multiline_raw_strings_preserve_layout_and_hide_items() {
        let src = "let s = r#\"a\nfn ghost() {\nb\"#;\nreal();\n";
        let m = MaskedFile::new(src);
        assert!(!m.masked.contains("ghost"));
        assert_eq!(m.masked.lines().count(), 4);
        assert!(m.masked.contains("real();"));
    }

    #[test]
    fn raw_identifiers_are_fully_masked() {
        // `r#fn` must not leak a keyword-shaped token into the masked
        // stream (it would spoof the item parser), and `x.r#unwrap()` is
        // not `x.unwrap()`.
        let m = MaskedFile::new("let r#fn = 1; x.r#unwrap(); r#type.go();\n");
        assert!(!m.masked.contains("fn"), "{:?}", m.masked);
        assert!(!m.masked.contains("unwrap"), "{:?}", m.masked);
        assert!(!m.masked.contains("type"), "{:?}", m.masked);
        assert!(m.masked.contains(".go();"), "{:?}", m.masked);
        assert_eq!(
            m.masked.len(),
            "let r#fn = 1; x.r#unwrap(); r#type.go();\n".len()
        );
    }

    #[test]
    fn nested_comment_close_is_not_the_outer_close() {
        // A non-nesting lexer would leak `hidden` after the first `*/`.
        let m = MaskedFile::new("/* /* */ hidden */ live();\n");
        assert!(!m.masked.contains("hidden"));
        assert!(m.masked.contains("live();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let m = MaskedFile::new("fn f<'a>(x: &'a str) { let c = '{'; let q = '\\''; g(x) }");
        // The brace char literal must not confuse brace matching.
        assert!(!m.masked.contains("'{'"));
        assert!(m.masked.contains("<'a>"));
        assert!(m.masked.contains("&'a str"));
        assert!(m.masked.contains("g(x)"));
    }

    #[test]
    fn suppression_on_code_line() {
        let src = "let a = x.unwrap(); // incite-lint: allow(INC009)\n";
        let m = MaskedFile::new(src);
        assert!(m.is_suppressed("INC009", 1));
        assert!(!m.is_suppressed("INC011", 1));
    }

    #[test]
    fn suppression_on_own_line_covers_next() {
        let src = "// incite-lint: allow(INC011)\nlet t = now();\n";
        let m = MaskedFile::new(src);
        assert!(m.is_suppressed("INC011", 2));
        assert!(!m.is_suppressed("INC011", 1));
    }

    #[test]
    fn suppression_multiple_rules() {
        let src = "x(); // incite-lint: allow(INC009, INC014)\n";
        let m = MaskedFile::new(src);
        assert!(m.is_suppressed("INC009", 1));
        assert!(m.is_suppressed("INC014", 1));
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let m = MaskedFile::new(src);
        assert_eq!(m.test_regions, vec![(2, 5)]);
        assert!(!m.in_test_region(1));
        assert!(m.in_test_region(4));
        assert!(!m.in_test_region(6));
    }

    #[test]
    fn cfg_test_on_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse crate::helper;\nfn live() {}\n";
        let m = MaskedFile::new(src);
        assert_eq!(m.test_regions, vec![(1, 2)]);
        assert!(!m.in_test_region(3));
    }

    #[test]
    fn braces_inside_strings_do_not_break_regions() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn t() {}\n}\nfn real() {}\n";
        let m = MaskedFile::new(src);
        assert_eq!(m.test_regions, vec![(1, 5)]);
        assert!(!m.in_test_region(6));
    }

    #[test]
    fn format_captures_are_recorded_with_offsets() {
        let src = r#"let m = format!("bad {line}: {e:?} {} {{x}} {0}", v);"#;
        let m = MaskedFile::new(src);
        let names: Vec<&str> = m.captures.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["line", "e"]);
        // Offsets fall inside the masked literal and map to the `{`.
        for (off, _) in &m.captures {
            let open = src.find('"').unwrap();
            let close = src.rfind('"').unwrap();
            assert!((open..close).contains(off), "capture offset {off}");
        }
        assert!(!m.masked.contains("line"), "literal content must mask");
    }

    #[test]
    fn captures_outside_strings_are_not_recorded() {
        let m = MaskedFile::new("fn f() { let x = 1; if y { z(); } }");
        assert!(m.captures.is_empty());
    }

    #[test]
    fn masking_preserves_byte_layout_line_count() {
        let src = "a\n\"two\nline string\"\n/* c */ x\n";
        let m = MaskedFile::new(src);
        assert_eq!(m.masked.lines().count(), src.lines().count());
    }
}
