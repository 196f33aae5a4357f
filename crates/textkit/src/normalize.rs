//! Text normalization.
//!
//! Platform documents arrive with mixed case, stray control characters and
//! irregular whitespace. Normalization happens before tokenization so that
//! the classifier, the bootstrap keyword queries (paper Figure 4 lowercases
//! with `LOWER(body)`), and the PII extractors see canonical text.

/// Lowercases, strips control characters (except `\n` which becomes a
/// space), and collapses runs of whitespace into single spaces. Leading and
/// trailing whitespace is removed.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    normalize_into(text, &mut out);
    out
}

/// [`normalize`] into a caller-held buffer, which is cleared first — the
/// featurize kernel reuses one buffer for a whole chunk of documents.
pub fn normalize_into(text: &str, out: &mut String) {
    out.clear();
    out.reserve(text.len());
    let mut pending_space = false;
    for ch in text.chars() {
        // ASCII fast path: in that range White_Space ∪ Cc is exactly
        // 0x00..=0x20 plus DEL, and lowercasing is the single-byte fold —
        // the Unicode tables are only consulted for non-ASCII input.
        if ch.is_ascii() {
            let b = ch as u8;
            if b <= b' ' || b == 0x7f {
                if !out.is_empty() {
                    pending_space = true;
                }
                continue;
            }
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.push(b.to_ascii_lowercase() as char);
            continue;
        }
        if ch.is_whitespace() || ch.is_control() {
            if !out.is_empty() {
                pending_space = true;
            }
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        for lc in ch.to_lowercase() {
            out.push(lc);
        }
    }
}

/// Lowercases without altering whitespace — used where byte offsets must be
/// preserved (PII extraction reports match spans against the original text).
pub fn lowercase_preserving_layout(text: &str) -> String {
    // `char::to_lowercase` can expand some characters (e.g. 'İ'); for
    // offset-preserving use we only fold characters whose lowercase form has
    // the same UTF-8 length, leaving the rest untouched.
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        let mut lower = ch.to_lowercase();
        let lc = lower.next().unwrap_or(ch);
        if lower.next().is_none() && lc.len_utf8() == ch.len_utf8() {
            out.push(lc);
        } else {
            out.push(ch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_collapses() {
        assert_eq!(
            normalize("We  Need\tTo\n\nREPORT him"),
            "we need to report him"
        );
    }

    #[test]
    fn strips_control_characters() {
        assert_eq!(normalize("a\u{0}b\u{7}c"), "a b c");
    }

    #[test]
    fn trims_edges() {
        assert_eq!(normalize("  hello  "), "hello");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize(" \t\n "), "");
    }

    #[test]
    fn unicode_lowercase() {
        assert_eq!(normalize("ÜBER Österreich"), "über österreich");
    }

    #[test]
    fn layout_preserving_keeps_length() {
        let input = "Call 555-0001 NOW\nplease";
        let out = lowercase_preserving_layout(input);
        assert_eq!(out.len(), input.len());
        assert_eq!(out, "call 555-0001 now\nplease");
    }

    #[test]
    fn layout_preserving_skips_expanding_chars() {
        // 'İ' lowercases to "i̇" (two chars); it must be left as-is.
        let input = "İstanbul";
        let out = lowercase_preserving_layout(input);
        assert_eq!(out.len(), input.len());
        assert!(out.starts_with('İ'));
    }
}
