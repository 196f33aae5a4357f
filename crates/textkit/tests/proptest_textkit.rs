//! Property tests on the text substrate.

use incite_textkit::{
    char_ngrams, normalize, sample_spans, tokenize, FeatureHasher, SpanStrategy, SplitMix64,
    TokenKind, WordPieceEncoder, WordPieceTrainer,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn normalize_is_idempotent(text in ".{0,200}") {
        let once = normalize(&text);
        let twice = normalize(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn normalize_output_has_no_doubled_spaces(text in ".{0,200}") {
        let out = normalize(&text);
        prop_assert!(!out.contains("  "));
        prop_assert!(!out.starts_with(' ') && !out.ends_with(' '));
        prop_assert!(out.chars().all(|c| !c.is_control()));
    }

    #[test]
    fn tokens_tile_their_spans(text in ".{0,200}") {
        let toks = tokenize(&text);
        for t in &toks {
            prop_assert_eq!(&text[t.start..t.end], t.text);
            prop_assert!(t.start < t.end);
        }
        // Tokens are ordered and non-overlapping.
        for w in toks.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn punct_tokens_are_single_chars(text in ".{0,200}") {
        for t in tokenize(&text) {
            if t.kind == TokenKind::Punct {
                prop_assert_eq!(t.text.chars().count(), 1);
            }
        }
    }

    #[test]
    fn span_sampling_respects_budgets(
        text in ".{0,2000}",
        max_len in 1usize..600,
        max_spans in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        for strategy in SpanStrategy::ablation_set() {
            let spans = sample_spans(&text, max_len, max_spans, strategy, &mut rng);
            if text.len() <= max_len {
                prop_assert_eq!(spans.len(), 1);
                continue;
            }
            prop_assert!(spans.len() <= max_spans.max(2), "{strategy:?}");
            for s in &spans {
                // Snapping to char boundaries can only shrink spans.
                prop_assert!(s.len() <= max_len + 4, "{strategy:?}: span {}", s.len());
            }
        }
    }

    #[test]
    fn wordpiece_roundtrips_trained_words(words in prop::collection::vec("[a-z]{1,10}", 1..20)) {
        let trainer = WordPieceTrainer { vocab_size: 512, min_pair_frequency: 1 };
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let enc = WordPieceEncoder::new(trainer.train(refs.iter().copied()));
        for w in &refs {
            let ids = enc.encode_word(w);
            prop_assert_eq!(enc.decode(&ids), *w, "word {:?}", w);
        }
    }

    #[test]
    fn hashing_is_bounded_and_deterministic(
        features in prop::collection::vec(".{0,20}", 0..50),
        bits in 4u32..20,
    ) {
        let h = FeatureHasher::new(bits);
        let refs: Vec<&str> = features.iter().map(|s| s.as_str()).collect();
        let v1 = h.hash_features(refs.iter().copied(), true);
        let v2 = h.hash_features(refs.iter().copied(), true);
        prop_assert_eq!(&v1, &v2);
        for (i, _) in &v1 {
            prop_assert!((*i as usize) < h.dimensions());
        }
        // Sorted unique indices.
        for w in v1.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn char_ngrams_preserve_length(text in ".{0,50}", n in 1usize..5) {
        for g in char_ngrams(&text, n) {
            prop_assert_eq!(g.chars().count(), n);
        }
    }

    #[test]
    fn splitmix_range_is_in_bounds(seed in any::<u64>(), lo in 0usize..100, span in 0usize..100) {
        let mut rng = SplitMix64::new(seed);
        let hi = lo + span;
        let x = rng.range(lo, hi);
        if span == 0 {
            prop_assert_eq!(x, lo);
        } else {
            prop_assert!((lo..hi).contains(&x));
        }
    }
}
