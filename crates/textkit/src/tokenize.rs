//! Punctuation-splitting tokenizer.
//!
//! The paper tokenizes documents "using both punctuation splitting and the
//! WordPiece sub-word segmentation algorithm" (§5.2). This module implements
//! the first stage: splitting on whitespace and breaking punctuation into
//! standalone tokens, in the style of BERT's `BasicTokenizer`. The output
//! feeds [`crate::wordpiece`].

use std::fmt;

/// The coarse class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word (may include combining marks).
    Word,
    /// Digit run.
    Number,
    /// Single punctuation or symbol character.
    Punct,
}

/// A token with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text (a slice of the input).
    pub text: &'a str,
    /// Byte offset of the token start in the input.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
    /// Coarse token class.
    pub kind: TokenKind,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

fn is_punct(ch: char) -> bool {
    ch.is_ascii_punctuation() || (!ch.is_alphanumeric() && !ch.is_whitespace())
}

/// Extends a `Word` run starting at byte `i`: ASCII letters advance in a
/// tight byte loop, non-ASCII alphanumerics (which can never be ASCII
/// digits) continue the run after a single char decode. Returns the byte
/// offset one past the run.
fn word_run_end(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    loop {
        while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] >= 0x80 {
            if let Some(ch) = text[i..].chars().next() {
                if ch.is_alphanumeric() {
                    i += ch.len_utf8();
                    continue;
                }
            }
        }
        break;
    }
    i
}

/// Tokenizes text into words, numbers and punctuation.
///
/// Rules:
/// * whitespace separates tokens and is discarded;
/// * every punctuation/symbol character becomes its own token;
/// * maximal runs of alphabetic characters become `Word` tokens;
/// * maximal runs of digits become `Number` tokens;
/// * a case change does not split (callers normalize first if desired).
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    tokens(text).collect()
}

/// [`tokenize`] as a lazy iterator: the same tokens in the same order,
/// with no `Vec` — the form the featurize kernel walks.
pub fn tokens(text: &str) -> Tokens<'_> {
    Tokens { text, i: 0 }
}

/// The iterator behind [`tokens`].
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    text: &'a str,
    /// Byte offset of the next unscanned input.
    i: usize,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let text = self.text;
        let bytes = text.as_bytes();
        while self.i < bytes.len() {
            let i = self.i;
            let b = bytes[i];
            // ASCII fast path: classification in that range needs no Unicode
            // tables (whitespace is 0x09..=0x0D and space; everything that is
            // neither alphanumeric nor whitespace — punctuation, symbols,
            // control characters — is a one-byte Punct token).
            let (end, kind) = if b < 0x80 {
                if b == b' ' || (0x09..=0x0d).contains(&b) {
                    self.i += 1;
                    continue;
                }
                if b.is_ascii_alphabetic() {
                    (word_run_end(text, i + 1), TokenKind::Word)
                } else if b.is_ascii_digit() {
                    let mut end = i + 1;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                    (end, TokenKind::Number)
                } else {
                    (i + 1, TokenKind::Punct)
                }
            } else {
                let ch = text[i..].chars().next()?;
                if ch.is_whitespace() {
                    self.i += ch.len_utf8();
                    continue;
                }
                if is_punct(ch) {
                    (i + ch.len_utf8(), TokenKind::Punct)
                } else {
                    // Non-ASCII alphanumeric (never an ASCII digit): a Word run.
                    (word_run_end(text, i + ch.len_utf8()), TokenKind::Word)
                }
            };
            self.i = end;
            return Some(Token {
                text: &text[i..end],
                start: i,
                end,
                kind,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts<'a>(tokens: &[Token<'a>]) -> Vec<&'a str> {
        tokens.iter().map(|t| t.text).collect()
    }

    #[test]
    fn splits_punctuation() {
        let toks = tokenize("let's mass-report his twitter!");
        assert_eq!(
            texts(&toks),
            vec!["let", "'", "s", "mass", "-", "report", "his", "twitter", "!"]
        );
    }

    #[test]
    fn numbers_are_separate_tokens() {
        let toks = tokenize("call 555 0001 now");
        assert_eq!(texts(&toks), vec!["call", "555", "0001", "now"]);
        assert_eq!(toks[1].kind, TokenKind::Number);
        assert_eq!(toks[0].kind, TokenKind::Word);
    }

    #[test]
    fn mixed_alnum_splits_digits_from_letters() {
        let toks = tokenize("user123name");
        assert_eq!(texts(&toks), vec!["user", "123", "name"]);
    }

    #[test]
    fn spans_index_into_source() {
        let text = "dox: me@example.com";
        for tok in tokenize(text) {
            assert_eq!(&text[tok.start..tok.end], tok.text);
        }
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }

    #[test]
    fn unicode_words_kept_whole() {
        let toks = tokenize("gehört über");
        assert_eq!(texts(&toks), vec!["gehört", "über"]);
    }

    #[test]
    fn symbols_are_punct() {
        let toks = tokenize("a@b #tag");
        assert_eq!(texts(&toks), vec!["a", "@", "b", "#", "tag"]);
        assert_eq!(toks[1].kind, TokenKind::Punct);
        assert_eq!(toks[3].kind, TokenKind::Punct);
    }
}
