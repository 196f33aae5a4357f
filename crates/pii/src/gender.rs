//! Pronoun-based target-gender inference (§5.6).
//!
//! Counts "he/him/his" vs "she/her/hers" pronoun groups and picks the more
//! frequent one, exactly as the paper describes. The paper's manual
//! evaluation found 94.3 % agreement; the same caveats apply (misgendering,
//! third parties mentioned in the text).

use incite_taxonomy::Gender;

const MASCULINE: [&str; 3] = ["he", "him", "his"];
const FEMININE: [&str; 3] = ["she", "her", "hers"];

/// Counts pronoun-group occurrences as standalone lowercase word tokens.
fn pronoun_counts(text: &str) -> (usize, usize) {
    let mut masculine = 0;
    let mut feminine = 0;
    let mut word = String::new();
    let mut flush = |w: &mut String| {
        if MASCULINE.contains(&w.as_str()) {
            masculine += 1;
        } else if FEMININE.contains(&w.as_str()) {
            feminine += 1;
        }
        w.clear();
    };
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '\'' {
            for lc in ch.to_lowercase() {
                word.push(lc);
            }
        } else if !word.is_empty() {
            flush(&mut word);
        }
    }
    if !word.is_empty() {
        flush(&mut word);
    }
    (masculine, feminine)
}

/// Infers the likely target gender from pronoun counts.
pub fn infer_gender(text: &str) -> Gender {
    let (m, f) = pronoun_counts(text);
    Gender::from_pronoun_counts(m, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masculine_majority() {
        assert_eq!(
            infer_gender("he posted it, then his friends spread it, report him"),
            Gender::Male
        );
    }

    #[test]
    fn feminine_majority() {
        assert_eq!(
            infer_gender("she runs the channel, her posts, flag her"),
            Gender::Female
        );
    }

    #[test]
    fn absence_is_unknown() {
        assert_eq!(
            infer_gender("report this account to the platform"),
            Gender::Unknown
        );
        assert_eq!(infer_gender(""), Gender::Unknown);
    }

    #[test]
    fn tie_is_unknown() {
        assert_eq!(infer_gender("he said, she said"), Gender::Unknown);
    }

    #[test]
    fn pronouns_must_be_standalone_words() {
        // "theme", "shelter", "history" must not count.
        let (m, f) = pronoun_counts("the theme of the shelter's history");
        assert_eq!((m, f), (0, 0));
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(infer_gender("HE did it. HIS account."), Gender::Male);
    }

    #[test]
    fn counts_are_exact() {
        let (m, f) = pronoun_counts("he him his she her hers hers");
        assert_eq!(m, 3);
        assert_eq!(f, 4);
    }
}
