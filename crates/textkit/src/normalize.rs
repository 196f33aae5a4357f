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
}
