//! Corpus-wide structural invariants, checked across seeds and scales.

use incite_corpus::{generate, CorpusConfig};
use incite_taxonomy::{Platform, Subcategory};
use proptest::prelude::*;
use std::collections::HashSet;

fn check_invariants(config: &CorpusConfig) {
    let corpus = generate(config);
    assert!(!corpus.is_empty());

    // Unique ids and non-empty text.
    let mut ids = HashSet::new();
    for d in &corpus.documents {
        assert!(ids.insert(d.id), "duplicate id {:?}", d.id);
        assert!(!d.text.trim().is_empty(), "empty document");
        assert!(!d.channel.is_empty());
        // A CTH flag implies at least one attack-type label.
        if d.truth.is_cth {
            assert!(!d.truth.labels.is_empty());
        }
        // Soft doxes (empty PII) only exist on Discord.
        if d.truth.is_dox && d.truth.pii.is_empty() {
            assert_eq!(d.platform, Platform::Discord, "{:?}", d.id);
        }
    }

    // Threads are dense and consistent.
    for (_, posts) in corpus.threads() {
        let len = posts[0].thread.unwrap().thread_len;
        assert_eq!(posts.len() as u32, len);
        for (i, p) in posts.iter().enumerate() {
            let t = p.thread.unwrap();
            assert_eq!(t.position, i as u32);
            assert_eq!(t.thread_len, len);
        }
    }

    // Label sets only contain valid subcategories.
    for d in corpus.documents.iter().filter(|d| d.truth.is_cth) {
        for sub in d.truth.labels.iter() {
            assert!(Subcategory::ALL.contains(&sub));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn invariants_hold_across_seeds(seed in 0u64..1_000_000) {
        check_invariants(&CorpusConfig::tiny(seed));
    }
}

#[test]
fn invariants_hold_at_small_scale() {
    check_invariants(&CorpusConfig::small(77));
}

#[test]
fn zero_positive_corpus_is_valid() {
    let config = CorpusConfig {
        positive_scale: 0.0,
        ..CorpusConfig::tiny(5)
    };
    let corpus = generate(&config);
    // Blog doxes have a floor of 5 per blog; everything else has none.
    let non_blog_positives = corpus
        .documents
        .iter()
        .filter(|d| d.platform != Platform::Blogs)
        .filter(|d| d.truth.is_cth || d.truth.is_dox)
        .count();
    assert_eq!(non_blog_positives, 0);
    check_invariants(&config);
}
