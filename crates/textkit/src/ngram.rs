//! Character n-gram extraction.
//!
//! The linear classifier substitutes distilBERT's learned representations
//! with hashed n-gram features (see DESIGN.md §2). Character n-grams give
//! subword robustness against the creative spellings common in harassment
//! communities. The featurizer hashes them in place (`hash`); these string
//! grams are the reference that path is checked against.

/// Yields contiguous character n-grams of a string (over `char`s, not
/// bytes). Whitespace participates, which lets grams span word boundaries.
pub fn char_ngrams(text: &str, n: usize) -> Vec<String> {
    if n == 0 {
        return Vec::new();
    }
    let chars: Vec<char> = text.chars().collect();
    if chars.len() < n {
        return Vec::new();
    }
    chars.windows(n).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_ngrams_over_chars_not_bytes() {
        let grams = char_ngrams("héy", 2);
        assert_eq!(grams, vec!["hé", "éy"]);
    }

    #[test]
    fn char_ngrams_cross_word_boundaries() {
        let grams = char_ngrams("a b", 3);
        assert_eq!(grams, vec!["a b"]);
    }

    #[test]
    fn char_ngrams_empty_cases() {
        assert!(char_ngrams("", 3).is_empty());
        assert!(char_ngrams("ab", 3).is_empty());
        assert!(char_ngrams("ab", 0).is_empty());
    }
}
