//! Differential sweep: the featurize kernel vs the string-allocating
//! reference.
//!
//! `Featurizer::features_into` (memoized WordPiece, piece-gram table, one
//! sort per document, rows appended to the caller's sink) and the
//! memo-less `features()` wrapper must produce exactly the rows of
//! `features_legacy`, bit for bit, in every feature mode and span
//! strategy. This sweep drives all three over (a) a fixed set of edge
//! cases, (b) seeded pseudo-random documents: multi-span documents
//! longer than `max_len`, non-ASCII text, words over 100 chars (which
//! encode to `[UNK]`), punctuation-only and empty text, and (c) every
//! document of a generated tiny corpus at the default configuration.

use incite_corpus::{generate, CorpusConfig};
use incite_ml::persist::save_model_bin;
use incite_ml::{
    FeatureMatrix, FeatureMode, FeaturizeScratch, Featurizer, FeaturizerConfig, SparseVec,
    TextClassifier, TrainConfig,
};
use incite_textkit::{fnv1a, SpanStrategy, SplitMix64};
use proptest::prelude::*;
use std::sync::OnceLock;

const TRAINING: [&str; 8] = [
    "we need to report him to the platform",
    "lets mass flag her account right now, spread the word",
    "post his address and phone number: 555-0147 — dox incoming",
    "RAID the stream tonight!!! bring everyone",
    "報告 このアカウント héllo wörld über straße",
    "reporting reported reporter raids raiding flagged",
    "lovely weather for a picnic in the park",
    "the new patch notes look good to me",
];

/// Word pool of the seeded documents: ASCII, non-ASCII (including a
/// lowercase-expanding `İ`), digits and punctuation runs.
const WORDS: [&str; 24] = [
    "report",
    "him",
    "raid",
    "the",
    "stream",
    "reporting",
    "flag",
    "her",
    "account",
    "über",
    "報告",
    "アカウント",
    "héllo",
    "İstanbul",
    "straße",
    "555",
    "0147",
    "!!!",
    ",",
    "—",
    "@",
    "#tag",
    "...",
    "ǅemal",
];

/// Every mode under every span strategy, with a `max_len` short enough
/// that most seeded documents span several windows.
fn featurizers() -> &'static [Featurizer] {
    static FITTED: OnceLock<Vec<Featurizer>> = OnceLock::new();
    FITTED.get_or_init(|| {
        let mut out = Vec::new();
        for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
            for strategy in SpanStrategy::ablation_set() {
                let config = FeaturizerConfig {
                    mode,
                    strategy,
                    max_len: 40,
                    max_spans: 3,
                    hash_bits: 14,
                    vocab_size: 256,
                    ..Default::default()
                };
                out.push(Featurizer::fit(config, TRAINING));
            }
        }
        out
    })
}

fn bits(row: &[(u32, f32)]) -> Vec<(u32, u32)> {
    row.iter().map(|&(i, v)| (i, v.to_bits())).collect()
}

fn matrix_row(m: &FeatureMatrix, i: usize) -> SparseVec {
    let (indices, values) = m.row(i);
    indices
        .iter()
        .copied()
        .zip(values.iter().copied())
        .collect()
}

/// Asserts that `features()`, a reused memo-less scratch and a memoized
/// chunk scratch writing into a matrix all give the reference rows for
/// `docs`.
fn assert_agreement(f: &Featurizer, docs: &[String]) {
    let references: Vec<_> = docs
        .iter()
        .map(|doc| bits(&f.features_legacy(doc)))
        .collect();
    let mut plain = FeaturizeScratch::default();
    let mut memo = FeaturizeScratch::for_docs(docs.len());
    let mut matrix = FeatureMatrix::new(f.dimensions());
    for (doc, reference) in docs.iter().zip(&references) {
        assert_eq!(&bits(&f.features(doc)), reference, "features(): {doc:?}");
        let row = f.features_into(doc, &mut plain);
        assert_eq!(&bits(row), reference, "reused scratch: {doc:?}");
        matrix.push_row(f.features_into(doc, &mut memo));
    }
    assert_eq!(matrix.len(), docs.len());
    for (i, (doc, reference)) in docs.iter().zip(&references).enumerate() {
        assert_eq!(&bits(&matrix_row(&matrix, i)), reference, "memo: {doc:?}");
    }
}

fn edge_cases() -> Vec<String> {
    let long_word: String = "harass".repeat(20);
    let exactly_100: String = "a".repeat(100);
    vec![
        String::new(),
        "   \n\t ".to_string(),
        "!!! ... ,,, — @#$%^&*()".to_string(),
        "a".to_string(),
        "report".to_string(),
        "we need to report him right now ".repeat(12),
        format!("post {long_word} now {long_word} then {exactly_100} end"),
        "報告 このアカウント héllo wörld İstanbul ǅemal straße ".repeat(6),
        "flag flag flag flag flag flag flag flag flag flag".to_string(),
        "555-0147 call 555 0147 now!".to_string(),
    ]
}

#[test]
fn edge_cases_agree_in_every_mode_and_strategy() {
    let docs = edge_cases();
    for f in featurizers() {
        assert_agreement(f, &docs);
    }
}

/// One seeded document: empty, punctuation-only, or a word sequence
/// drawn from the pool with occasional over-long words, up to several
/// `max_len` windows long.
fn seeded_doc(rng: &mut SplitMix64) -> String {
    match rng.range(0, 10) {
        0 => String::new(),
        1 => "!?.,;:—@#".chars().take(rng.range(1, 10)).collect(),
        _ => {
            let words = rng.range(1, 41);
            let mut doc = String::new();
            for _ in 0..words {
                if rng.range(0, 25) == 0 {
                    doc.push_str(&"x".repeat(rng.range(95, 110)));
                } else {
                    doc.push_str(WORDS[rng.range(0, WORDS.len())]);
                }
                doc.push_str(if rng.range(0, 8) == 0 { "\n" } else { " " });
            }
            doc
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn seeded_documents_agree(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let docs: Vec<String> = (0..16).map(|_| seeded_doc(&mut rng)).collect();
        for f in featurizers() {
            assert_agreement(f, &docs);
        }
    }
}

/// Generator text at the default configuration (`max_len` 512, real
/// vocabulary), which the short-window sweeps above never reach. The
/// Subword vocabulary is fit on the first 512 documents.
#[test]
fn generated_corpus_documents_agree_at_the_default_config() {
    let corpus = generate(&CorpusConfig::tiny(0x1c17e5));
    let docs: Vec<String> = corpus.documents.into_iter().map(|d| d.text).collect();
    for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
        let config = FeaturizerConfig {
            mode,
            ..Default::default()
        };
        let f = Featurizer::fit(config, docs.iter().take(512).map(String::as_str));
        assert_agreement(&f, &docs);
    }
}

/// FNV-1a of `save_model_bin` for the fixed Subword fit below, taken on
/// the commit before the piece-gram table existed: the table is derived
/// on load and must never reach the model file.
const SUBWORD_MODEL_FNV: u64 = 0x83fd_8162_cbc6_9ed1;

#[test]
fn subword_model_bytes_are_unchanged() {
    let labeled: Vec<(&str, bool)> = TRAINING
        .iter()
        .enumerate()
        .map(|(i, t)| (*t, i < 6))
        .collect();
    let config = FeaturizerConfig {
        hash_bits: 12,
        vocab_size: 256,
        ..Default::default()
    };
    let clf = TextClassifier::train(labeled.iter().copied(), config, TrainConfig::default());
    let mut bytes = Vec::new();
    save_model_bin(&mut bytes, &clf).expect("save");
    assert_eq!(
        fnv1a(&bytes, 0),
        SUBWORD_MODEL_FNV,
        "model file bytes changed ({} bytes)",
        bytes.len()
    );
    let loaded = incite_ml::load_model_bin(bytes.as_slice()).expect("load");
    for doc in TRAINING.iter().chain(["reporting raids über"].iter()) {
        assert_eq!(
            bits(&loaded.featurizer().features(doc)),
            bits(&clf.featurizer().features(doc))
        );
    }
}
