//! A small seeded bigram Markov text generator.
//!
//! The template pools in [`crate::textgen`] give the benign corpus its
//! platform register; this Markov layer adds lexical diversity so the
//! classifiers cannot simply memorize templates. The chain is trained on a
//! built-in seed corpus of innocuous sentences and generates by sampling
//! successor words until a sentence terminator or length cap.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Built-in seed corpus: innocuous, platform-flavored chatter.
const SEED_SENTENCES: &[&str] = &[
    "the new update finally fixed the audio bug that annoyed everyone for weeks",
    "i spent the whole weekend repainting the kitchen and it looks great now",
    "the trailer dropped last night and the soundtrack alone is worth a watch",
    "my sourdough starter died again so i am back to store bought bread",
    "the meetup moved to thursday because the venue double booked the room",
    "someone finally archived the old wiki before the host shut down",
    "the patch notes mention a rework of the crafting system coming next season",
    "we watched the finale together and argued about the ending for an hour",
    "the library extended its hours during exams which saved my schedule",
    "a stray cat adopted our porch and now owns the entire street",
    "the marathon route changes this year so the finish line is by the river",
    "i rebuilt the shed door twice because the first hinge set was garbage",
    "the podcast episode about deep sea cables was surprisingly gripping",
    "our team lost the quiz night by one point on a question about rivers",
    "the garden tomatoes came in early and the salsa was worth the wait",
    "the train was delayed again so i finished two chapters on the platform",
    "the speedrun record fell twice in one night during the charity event",
    "grandma's recipe calls for twice the butter and honestly she is right",
    "the telescope club meets on the hill when the sky is clear enough",
    "the duck pond froze over and the whole park came out to look",
];

/// A trained bigram chain.
#[derive(Debug, Clone)]
pub struct MarkovChain {
    /// word → list of successors (with repetition for frequency weighting).
    successors: HashMap<String, Vec<String>>,
    /// Sentence-starting words.
    starters: Vec<String>,
}

impl Default for MarkovChain {
    fn default() -> Self {
        Self::from_sentences(SEED_SENTENCES.iter().copied())
    }
}

impl MarkovChain {
    /// Trains a chain from sentences (whitespace-tokenized).
    fn from_sentences<'a, I: IntoIterator<Item = &'a str>>(sentences: I) -> Self {
        let mut successors: HashMap<String, Vec<String>> = HashMap::new();
        let mut starters = Vec::new();
        for sentence in sentences {
            let words: Vec<&str> = sentence.split_whitespace().collect();
            if let Some(first) = words.first() {
                starters.push(first.to_string());
            }
            for pair in words.windows(2) {
                successors
                    .entry(pair[0].to_string())
                    .or_default()
                    .push(pair[1].to_string());
            }
        }
        MarkovChain {
            successors,
            starters,
        }
    }

    /// Generates one sentence of at most `max_words` words.
    pub fn sentence(&self, max_words: usize, rng: &mut StdRng) -> String {
        if self.starters.is_empty() {
            return String::new();
        }
        let mut word = self.starters[rng.gen_range(0..self.starters.len())].clone();
        let mut out = vec![word.clone()];
        for _ in 1..max_words {
            let Some(next_options) = self.successors.get(&word) else {
                break;
            };
            if next_options.is_empty() {
                break;
            }
            word = next_options[rng.gen_range(0..next_options.len())].clone();
            out.push(word.clone());
        }
        out.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn default_chain_has_vocabulary() {
        let chain = MarkovChain::default();
        let contexts = chain.successors.len();
        assert!(contexts > 100, "contexts {contexts}");
    }

    #[test]
    fn sentences_are_bounded_and_nonempty() {
        let chain = MarkovChain::default();
        let mut r = rng();
        for _ in 0..100 {
            let s = chain.sentence(20, &mut r);
            assert!(!s.is_empty());
            assert!(s.split_whitespace().count() <= 20);
        }
    }

    #[test]
    fn every_bigram_comes_from_training_data() {
        let chain = MarkovChain::from_sentences(["a b c", "b d", "a c"]);
        let mut r = rng();
        let valid: std::collections::HashSet<(&str, &str)> =
            [("a", "b"), ("b", "c"), ("b", "d"), ("a", "c")]
                .into_iter()
                .collect();
        for _ in 0..200 {
            let s = chain.sentence(10, &mut r);
            let words: Vec<&str> = s.split_whitespace().collect();
            for w in words.windows(2) {
                assert!(valid.contains(&(w[0], w[1])), "invalid bigram {w:?}");
            }
        }
    }

    #[test]
    fn generation_is_diverse() {
        let chain = MarkovChain::default();
        let mut r = rng();
        let unique: std::collections::HashSet<String> =
            (0..200).map(|_| chain.sentence(12, &mut r)).collect();
        assert!(unique.len() > 100, "only {} unique sentences", unique.len());
    }

    #[test]
    fn empty_chain_is_safe() {
        let chain = MarkovChain::from_sentences(std::iter::empty::<&str>());
        let mut r = rng();
        assert_eq!(chain.sentence(5, &mut r), "");
    }
}
