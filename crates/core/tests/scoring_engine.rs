//! Integration tests for the featurize-once scoring engine: the
//! determinism contract across thread counts, panic containment, and
//! cache coherence across retrains.

use incite_core::parallel::{map_indexed, ScoreError};
use incite_core::{score_corpus, ScoringEngine, Task, FEATURIZE_CHUNK};
use incite_corpus::{generate, CorpusConfig, Document};
use incite_ml::{Dataset, Featurizer, FeaturizerConfig, TextClassifier, TrainConfig};
use incite_textkit::MEMO_WORDS;

/// An odd-sized document slice (not a multiple of the executor's block
/// size) so the tail block is exercised.
fn corpus_slice(corpus: &incite_corpus::Corpus, n: usize) -> Vec<&Document> {
    let docs: Vec<&Document> = corpus.documents.iter().take(n).collect();
    assert_eq!(docs.len(), n, "corpus smaller than requested slice");
    docs
}

fn trained_classifier(docs: &[&Document]) -> TextClassifier {
    let labeled: Vec<(&str, bool)> = docs
        .iter()
        .take(600)
        .map(|d| (d.text.as_str(), Task::Dox.truth(d)))
        .collect();
    TextClassifier::train(labeled, FeaturizerConfig::default(), TrainConfig::default())
}

#[test]
fn scores_are_byte_identical_across_thread_counts() {
    let corpus = generate(&CorpusConfig::tiny(11));
    let docs = corpus_slice(&corpus, 1013);
    let classifier = trained_classifier(&docs);

    let reference = score_corpus(&classifier, &docs, 1).expect("serial scoring");
    for threads in [2usize, 3, 8] {
        let parallel = score_corpus(&classifier, &docs, threads).expect("parallel scoring");
        assert_eq!(reference.len(), parallel.len());
        for ((id_a, score_a), (id_b, score_b)) in reference.iter().zip(&parallel) {
            assert_eq!(id_a, id_b, "document order must be preserved");
            assert_eq!(
                score_a.to_bits(),
                score_b.to_bits(),
                "score for {id_a:?} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn worker_panic_surfaces_as_score_error() {
    // A panic deep inside one parallel task must come back as a typed
    // error, not abort the process or poison the other workers.
    let result: Result<Vec<usize>, ScoreError> = map_indexed(1000, 4, |i| {
        if i == 617 {
            panic!("injected failure at {i}");
        }
        i
    });
    let err = result.expect_err("the injected panic must surface");
    let ScoreError::WorkerPanic(message) = err;
    // Formatted payloads may interpolate worker inputs, so only their
    // shape survives: the error is typed and descriptive, but the
    // payload text itself is redacted to a length + digest.
    assert!(
        message.contains("redacted") && message.contains("fnv64"),
        "panic must surface as a redacted shape, got: {message}"
    );
    assert!(
        !message.contains("injected failure"),
        "panic payload leaked: {message}"
    );
}

#[test]
fn cached_scores_track_retrained_model() {
    let corpus = generate(&CorpusConfig::tiny(12));
    let docs = corpus_slice(&corpus, 700);
    let mut classifier = trained_classifier(&docs);

    let mut engine = ScoringEngine::build(classifier.featurizer(), &docs, 2).expect("build");

    // Retrain with flipped labels: the arena must keep serving scores that
    // match fresh per-document scoring of the *new* model.
    let mut flipped = Dataset::new();
    for d in docs.iter().take(600) {
        flipped.push(
            classifier.featurizer().features(&d.text),
            !Task::Dox.truth(d),
        );
    }
    classifier.retrain_features(&flipped, TrainConfig::default());

    let cached = engine.score_all(classifier.model(), 2).expect("score");
    assert_eq!(cached.len(), docs.len());
    for (doc, (id, score)) in docs.iter().zip(&cached) {
        assert_eq!(doc.id, *id);
        assert_eq!(
            score.to_bits(),
            classifier.score(&doc.text).to_bits(),
            "cached score for {id:?} diverged from fresh scoring after retrain"
        );
    }
    assert_eq!(engine.stats().featurize_passes, 1);
    assert_eq!(engine.stats().score_passes, 1);
}

#[test]
fn chunked_rows_and_scores_match_per_document_features_at_any_thread_count() {
    let corpus = generate(&CorpusConfig::tiny(13));
    let largest = 2 * FEATURIZE_CHUNK + 1;
    // The tiny corpus is smaller than two chunks; cycling it also makes
    // later chunks meet words their own memo has not seen yet.
    let docs: Vec<&Document> = corpus.documents.iter().cycle().take(largest).collect();
    let classifier = trained_classifier(&docs);
    let featurizer = classifier.featurizer();
    let rows: Vec<_> = docs.iter().map(|d| featurizer.features(&d.text)).collect();
    let scores: Vec<u32> = docs
        .iter()
        .map(|d| classifier.score(&d.text).to_bits())
        .collect();
    for n in [
        0,
        1,
        FEATURIZE_CHUNK - 1,
        FEATURIZE_CHUNK,
        FEATURIZE_CHUNK + 1,
        largest,
    ] {
        let mut memo = None;
        for threads in [1usize, 2, 8] {
            let mut engine = ScoringEngine::build(featurizer, &docs[..n], threads).expect("build");
            assert_eq!(engine.len(), n);
            for (i, row) in rows[..n].iter().enumerate() {
                let (indices, values) = engine.matrix().row(i);
                let got: Vec<(u32, u32)> = indices
                    .iter()
                    .zip(values)
                    .map(|(&i, v)| (i, v.to_bits()))
                    .collect();
                let want: Vec<(u32, u32)> = row.iter().map(|&(i, v)| (i, v.to_bits())).collect();
                assert_eq!(got, want, "row {i} of {n} at {threads} threads");
            }
            let engine_scores: Vec<u32> = engine
                .score_all(classifier.model(), threads)
                .expect("score")
                .iter()
                .map(|(_, s)| s.to_bits())
                .collect();
            assert_eq!(engine_scores, scores[..n], "{n} docs at {threads} threads");
            let stats = engine.memo_stats();
            assert_eq!(
                *memo.get_or_insert(stats),
                stats,
                "{n} docs at {threads} threads"
            );
            assert!(n < 2 || stats.hits > 0, "{n} docs: {stats:?}");
        }
    }
}

#[test]
fn score_texts_matches_the_engine_across_batch_sizes() {
    let corpus = generate(&CorpusConfig::tiny(14));
    let docs = corpus_slice(&corpus, 600);
    let classifier = trained_classifier(&docs);
    let texts: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
    let mut engine = ScoringEngine::build(classifier.featurizer(), &docs, 2).expect("build");
    let offline: Vec<u32> = engine
        .score_all(classifier.model(), 2)
        .expect("score")
        .iter()
        .map(|(_, s)| s.to_bits())
        .collect();
    for batch in [1usize, 255, 257, 600] {
        for threads in [1usize, 3] {
            let mut online = Vec::new();
            for chunk in texts.chunks(batch) {
                let scores =
                    ScoringEngine::score_texts(&classifier, chunk, threads).expect("score");
                online.extend(scores.iter().map(|s| s.to_bits()));
            }
            assert_eq!(online, offline, "batch {batch} at {threads} threads");
        }
    }
}

#[test]
fn a_full_memo_encodes_later_words_without_changing_rows() {
    // 4,096 one-chunk documents, each naming six words no other document
    // uses, twice: 24,576 distinct words, more than the memo holds.
    let word = |n: usize| -> String {
        let mut w = String::from("q");
        let mut n = n;
        loop {
            w.push((b'a' + (n % 26) as u8) as char);
            n /= 26;
            if n == 0 {
                return w;
            }
        }
    };
    let texts: Vec<String> = (0..FEATURIZE_CHUNK)
        .map(|d| {
            let words: Vec<String> = (0..6).map(|k| word(6 * d + k)).collect();
            format!("{} {}", words.join(" "), words.join(" "))
        })
        .collect();
    let corpus = generate(&CorpusConfig::tiny(15));
    let mut docs: Vec<Document> = corpus.documents[..texts.len()].to_vec();
    for (doc, text) in docs.iter_mut().zip(&texts) {
        doc.text = text.clone();
    }
    let docs: Vec<&Document> = docs.iter().collect();
    let featurizer = Featurizer::fit(
        FeaturizerConfig::default(),
        ["the quick brown fox jumps over a lazy dog"],
    );
    let mut memo = None;
    for threads in [1usize, 8] {
        let engine = ScoringEngine::build(&featurizer, &docs, threads).expect("build");
        for (i, text) in texts.iter().enumerate() {
            let (indices, values) = engine.matrix().row(i);
            let row: Vec<(u32, f32)> = indices
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            assert_eq!(
                row,
                featurizer.features(text),
                "doc {i} at {threads} threads"
            );
        }
        let stats = engine.memo_stats();
        assert_eq!(*memo.get_or_insert(stats), stats, "at {threads} threads");
        // Only the first MEMO_WORDS distinct words are kept, so only
        // their repeats hit.
        assert_eq!(stats.word_tokens, 12 * texts.len() as u64);
        assert_eq!(stats.hits, MEMO_WORDS as u64);
    }
}
