//! Document → sparse-feature pipeline.
//!
//! Mirrors the paper's preprocessing (§5.2): normalize, reduce long
//! documents with a span-sampling strategy against the max-length
//! hyperparameter, tokenize with punctuation splitting, segment into
//! WordPiece subwords (or plain words / char n-grams for the feature-space
//! ablation), extract n-grams, and hash into a fixed-dimensional space.
//!
//! [`Featurizer::features_into`] is the one kernel: it builds a row in a
//! caller-held [`FeaturizeScratch`] and lends it out as a slice, so a
//! chunk of documents reuses one set of buffers and one word memo, and
//! the caller copies each row once, to wherever it belongs.

use crate::sparse::{merge, SparseVec};
use incite_textkit::{
    char_ngrams, fits_whole, fnv1a, normalize, normalize_into, sample_spans, tokenize, tokens,
    EncodeScratch, FeatureHasher, MemoStats, SpanStrategy, SplitMix64, TokenKind, UnitGrams,
    WordMemo, WordPieceEncoder, WordPieceTrainer, WordPieceVocab, MEMO_WORDS,
};

/// Which token stream feeds the n-gram extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMode {
    /// Plain word unigrams + bigrams.
    Word,
    /// WordPiece subword unigrams + bigrams (the pipeline default,
    /// mirroring the paper's tokenization).
    Subword,
    /// Character 3–5-grams.
    Char,
}

/// The most spans a document may be sampled into. The `RandomLength`
/// strategy samples `max_spans` spans of every over-long document,
/// whatever its length, so an unbounded `max_spans` read from a model file
/// could make every score arbitrarily slow. [`Featurizer::fit`] clamps
/// [`FeaturizerConfig::max_spans`] to it and
/// [`crate::TextClassifier::from_parts`] refuses a value above it. No
/// shipped configuration uses more than 4.
pub const SPAN_CAP: usize = 64;

/// Featurizer configuration.
#[derive(Debug, Clone)]
pub struct FeaturizerConfig {
    /// Max text length in characters — the Table 3 hyperparameter
    /// (128 for CTH, 512 for dox).
    pub max_len: usize,
    /// Maximum number of spans sampled per document. A fitted featurizer
    /// holds it clamped to [`SPAN_CAP`].
    pub max_spans: usize,
    /// Long-document strategy (§5.2); random non-overlapping by default.
    pub strategy: SpanStrategy,
    /// Token stream choice.
    pub mode: FeatureMode,
    /// Feature-hash dimensionality in bits (2^bits slots). A fitted
    /// featurizer holds it clamped to `1..=30`.
    pub hash_bits: u32,
    /// WordPiece vocabulary size (only used in `Subword` mode).
    pub vocab_size: usize,
    /// Seed for span sampling.
    pub seed: u64,
}

impl Default for FeaturizerConfig {
    fn default() -> Self {
        FeaturizerConfig {
            max_len: 512,
            max_spans: 4,
            strategy: SpanStrategy::RandomNonOverlapping,
            mode: FeatureMode::Subword,
            hash_bits: 18,
            vocab_size: 4096,
            seed: 0x1ce_bee5,
        }
    }
}

/// The fitted token stream: the `Subword` variant *owns* its trained
/// WordPiece encoder, so "subword mode without an encoder" is
/// unrepresentable and the featurizer needs no runtime absence check.
#[derive(Debug, Clone)]
enum TokenStream {
    /// Plain word unigrams + bigrams.
    Word,
    /// WordPiece subwords with the vocabulary trained at fit time, boxed
    /// because the vocabulary's two indexes make it the largest variant.
    Subword(Box<SubwordStream>),
    /// Character 3–5-grams.
    Char,
}

/// The trained encoder plus its piece-gram table. The table is derived
/// from the vocabulary alone, the way `WordPieceVocab` derives its
/// indexes, so a model file keeps neither.
#[derive(Debug, Clone)]
struct SubwordStream {
    encoder: WordPieceEncoder,
    /// Indexed by piece id.
    grams: Vec<PieceGram>,
}

impl SubwordStream {
    fn new(vocab: WordPieceVocab) -> Box<Self> {
        let pieces = vocab.len() as u32;
        let grams = (0..pieces).map(PieceGram::new).collect();
        Box::new(SubwordStream {
            encoder: WordPieceEncoder::new(vocab),
            grams,
        })
    }

    /// Appends the unigram and bigram slots of one span's piece ids.
    fn hash(&self, hasher: &FeatureHasher, ids: &[u32], pairs: &mut Vec<(u32, f32)>) {
        pairs.reserve(2 * ids.len());
        for &id in ids {
            pairs.push(hasher.finish(self.grams[id as usize].grams.unigram()));
        }
        for pair in ids.windows(2) {
            let right = self.grams[pair[1] as usize].unit();
            pairs.push(hasher.finish(self.grams[pair[0] as usize].grams.bigram(right)));
        }
    }
}

/// One piece's n-gram hash states. Piece `id`'s unit text is `p{id}`, so
/// its [`UnitGrams`] follow from the id alone; a bigram then needs only
/// the right piece's `p{id}` bytes, kept beside them.
#[derive(Debug, Clone, Copy)]
struct PieceGram {
    grams: UnitGrams,
    /// `p{id}` is `unit[..len]`: a `p` and at most ten digits.
    unit: [u8; 11],
    len: u8,
}

impl PieceGram {
    fn new(id: u32) -> Self {
        let text = format!("p{id}");
        let mut unit = [0u8; 11];
        unit[..text.len()].copy_from_slice(text.as_bytes());
        PieceGram {
            grams: UnitGrams::new(text.as_bytes()),
            unit,
            len: text.len() as u8,
        }
    }

    fn unit(&self) -> &[u8] {
        &self.unit[..self.len as usize]
    }
}

/// Working storage for [`Featurizer::features_into`], reused across the
/// documents of one chunk: the normalized text, the document's hashed
/// pairs, the span's piece ids and, in `Subword` mode, a word memo. The
/// default scratch has no memo.
#[derive(Debug, Default)]
pub struct FeaturizeScratch {
    norm: String,
    pairs: Vec<(u32, f32)>,
    ids: Vec<u32>,
    encode: EncodeScratch,
    memo: WordMemo,
}

impl FeaturizeScratch {
    /// Scratch for a chunk of `docs` documents. A single document gets no
    /// memo: a memo pays off when words repeat across documents.
    pub fn for_docs(docs: usize) -> Self {
        let cap = if docs > 1 { MEMO_WORDS } else { 0 };
        FeaturizeScratch {
            memo: WordMemo::new(cap),
            ..FeaturizeScratch::default()
        }
    }

    /// Word tokens encoded so far, and how many the memo served.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }
}

/// A fitted featurizer. In `Subword` mode it owns a trained WordPiece
/// encoder; `Word`/`Char` modes are stateless.
#[derive(Debug, Clone)]
pub struct Featurizer {
    config: FeaturizerConfig,
    hasher: FeatureHasher,
    stream: TokenStream,
}

impl Featurizer {
    /// Fits a featurizer. `corpus_sample` trains the WordPiece vocabulary in
    /// `Subword` mode and is ignored otherwise.
    pub fn fit<'a, I>(mut config: FeaturizerConfig, corpus_sample: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        config.hash_bits = config.hash_bits.clamp(1, 30);
        config.max_spans = config.max_spans.min(SPAN_CAP);
        let hasher = FeatureHasher::new(config.hash_bits);
        let stream = match config.mode {
            FeatureMode::Word => TokenStream::Word,
            FeatureMode::Char => TokenStream::Char,
            FeatureMode::Subword => {
                let trainer = WordPieceTrainer::new(config.vocab_size);
                let mut words: Vec<String> = Vec::new();
                for doc in corpus_sample {
                    let norm = normalize(doc);
                    for tok in tokenize(&norm) {
                        if tok.kind != TokenKind::Punct {
                            words.push(tok.text.to_string());
                        }
                    }
                }
                TokenStream::Subword(SubwordStream::new(
                    trainer.train(words.iter().map(|s| s.as_str())),
                ))
            }
        };
        Featurizer {
            config,
            hasher,
            stream,
        }
    }

    /// The featurizer of `config` over `vocab`, rebuilding the hasher and
    /// the piece-gram table; `None` unless `vocab` is present exactly in
    /// `Subword` mode. `config.hash_bits` must be in `1..=30`.
    pub(crate) fn with_vocab(
        config: FeaturizerConfig,
        vocab: Option<WordPieceVocab>,
    ) -> Option<Self> {
        let stream = match (config.mode, vocab) {
            (FeatureMode::Word, None) => TokenStream::Word,
            (FeatureMode::Char, None) => TokenStream::Char,
            (FeatureMode::Subword, Some(vocab)) => TokenStream::Subword(SubwordStream::new(vocab)),
            _ => return None,
        };
        Some(Featurizer {
            hasher: FeatureHasher::new(config.hash_bits),
            config,
            stream,
        })
    }

    /// Configuration access.
    pub fn config(&self) -> &FeaturizerConfig {
        &self.config
    }

    /// The WordPiece vocabulary, in `Subword` mode.
    pub fn vocab(&self) -> Option<&WordPieceVocab> {
        match &self.stream {
            TokenStream::Subword(stream) => Some(stream.encoder.vocab()),
            TokenStream::Word | TokenStream::Char => None,
        }
    }

    /// Number of feature dimensions.
    pub fn dimensions(&self) -> usize {
        self.hasher.dimensions()
    }

    /// Featurizes one document. Deterministic: the span-sampling RNG is
    /// seeded from the config seed and a hash of the document.
    ///
    /// [`Featurizer::features_into`] with a fresh memo-less scratch.
    /// Byte-identical to [`Featurizer::features_legacy`] (enforced by
    /// tests).
    pub fn features(&self, text: &str) -> SparseVec {
        self.features_into(text, &mut FeaturizeScratch::default())
            .to_vec()
    }

    /// Featurizes one document into `scratch` and returns its row, which
    /// lives until the next call with the same scratch.
    ///
    /// Grams are hashed straight from token bytes (in `Subword` mode, from
    /// the piece-gram table), never materialized as `String`s. The pairs
    /// of every span go into one buffer that is sorted once: duplicates
    /// are summed, exact zeros dropped, then the row is L2-normalized.
    /// Every pre-L2 value is a sum of ±1 counts, which f32 holds exactly,
    /// so this equals finalizing each span and merging them.
    pub fn features_into<'s>(
        &self,
        text: &str,
        scratch: &'s mut FeaturizeScratch,
    ) -> &'s [(u32, f32)] {
        let mut norm = std::mem::take(&mut scratch.norm);
        normalize_into(text, &mut norm);
        scratch.pairs.clear();
        let c = &self.config;
        if fits_whole(&norm, c.max_len, c.max_spans) {
            // A whole document draws nothing from the RNG, so its seed
            // need not be hashed.
            self.span_pairs(&norm, scratch);
        } else {
            let mut rng = SplitMix64::new(c.seed ^ fnv1a(norm.as_bytes(), 0));
            for span in sample_spans(&norm, c.max_len, c.max_spans, c.strategy, &mut rng) {
                self.span_pairs(span, scratch);
            }
        }
        scratch.norm = norm;

        let pairs = &mut scratch.pairs;
        pairs.sort_unstable_by_key(|&(index, _)| index);
        pairs.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        pairs.retain(|&(_, v)| v != 0.0);
        // L2 normalize so documents of different span counts are comparable.
        let n: f32 = pairs.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
        if n > 0.0 {
            for (_, v) in pairs.iter_mut() {
                *v /= n;
            }
        }
        pairs
    }

    /// Appends one span's hashed (unmerged) n-gram pairs to the scratch.
    /// Bigrams never cross a span boundary.
    fn span_pairs(&self, span: &str, scratch: &mut FeaturizeScratch) {
        match &self.stream {
            TokenStream::Word => {
                let words: Vec<&[u8]> = tokens(span)
                    .filter(|t| t.kind != TokenKind::Punct)
                    .map(|t| t.text.as_bytes())
                    .collect();
                self.hasher.hash_ngrams_rolling(&words, &mut scratch.pairs);
            }
            TokenStream::Subword(stream) => {
                scratch.ids.clear();
                for tok in tokens(span) {
                    if tok.kind != TokenKind::Punct {
                        scratch.memo.encode(
                            &stream.encoder,
                            tok.text,
                            &mut scratch.ids,
                            &mut scratch.encode,
                        );
                    }
                }
                stream.hash(&self.hasher, &scratch.ids, &mut scratch.pairs);
            }
            TokenStream::Char => {
                self.hasher
                    .hash_char_ngrams_rolling(span, 3, 5, &mut scratch.pairs);
            }
        }
    }

    /// The original string-allocating featurize path, kept as the reference
    /// implementation for the kernel's byte-identity tests.
    pub fn features_legacy(&self, text: &str) -> SparseVec {
        let norm = normalize(text);
        let doc_hash = fnv1a(norm.as_bytes(), 0);
        let mut rng = SplitMix64::new(self.config.seed ^ doc_hash);
        let spans = sample_spans(
            &norm,
            self.config.max_len,
            self.config.max_spans,
            self.config.strategy,
            &mut rng,
        );
        let mut acc: SparseVec = Vec::new();
        for span in spans {
            let span_feats = self.span_features_legacy(span);
            // `merge(&[], &b)` copies `b` verbatim; taking it directly is
            // bit-identical and skips the copy for the common 1-span doc.
            acc = if acc.is_empty() {
                span_feats
            } else {
                merge(&acc, &span_feats)
            };
        }
        // L2 normalize the combined vector so documents of different span
        // counts are comparable.
        let n: f32 = acc.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
        if n > 0.0 {
            for (_, v) in &mut acc {
                *v /= n;
            }
        }
        acc
    }

    fn span_features_legacy(&self, span: &str) -> SparseVec {
        let mut grams: Vec<String> = Vec::new();
        match &self.stream {
            TokenStream::Word => {
                let words: Vec<String> = tokenize(span)
                    .into_iter()
                    .filter(|t| t.kind != TokenKind::Punct)
                    .map(|t| t.text.to_string())
                    .collect();
                push_ngrams(&mut grams, &words);
            }
            TokenStream::Subword(stream) => {
                let mut pieces: Vec<String> = Vec::new();
                for tok in tokenize(span) {
                    if tok.kind == TokenKind::Punct {
                        continue;
                    }
                    for id in stream.encoder.encode_word(tok.text) {
                        pieces.push(format!("p{id}"));
                    }
                }
                push_ngrams(&mut grams, &pieces);
            }
            TokenStream::Char => {
                for n in 3..=5 {
                    for g in char_ngrams(span, n) {
                        grams.push(format!("c{n}|{g}"));
                    }
                }
            }
        }
        self.hasher
            .hash_features(grams.iter().map(|s| s.as_str()), false)
    }
}

fn push_ngrams(grams: &mut Vec<String>, units: &[String]) {
    for u in units {
        grams.push(format!("1|{u}"));
    }
    for w in units.windows(2) {
        grams.push(format!("2|{} {}", w[0], w[1]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<&'static str> {
        vec![
            "we need to report him to the platform",
            "lets mass flag her account",
            "post his address and phone number",
            "raid the stream tonight",
        ]
    }

    fn fit(mode: FeatureMode) -> Featurizer {
        let config = FeaturizerConfig {
            mode,
            hash_bits: 14,
            vocab_size: 512,
            ..Default::default()
        };
        Featurizer::fit(config, sample_corpus())
    }

    #[test]
    fn features_are_deterministic() {
        let f = fit(FeatureMode::Subword);
        let text = "we need to report him right now, spread the word";
        assert_eq!(f.features(text), f.features(text));
    }

    #[test]
    fn features_are_l2_normalized() {
        let f = fit(FeatureMode::Word);
        let v = f.features("report report report flag flag");
        let norm: f32 = v.iter().map(|(_, x)| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn different_documents_differ() {
        let f = fit(FeatureMode::Word);
        assert_ne!(f.features("report him"), f.features("ignore her"));
    }

    #[test]
    fn empty_document_is_empty_vector() {
        for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
            let f = fit(mode);
            assert!(f.features("").is_empty(), "{mode:?}");
            assert!(f.features("   \n\t ").is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn indices_within_dimensions() {
        let f = fit(FeatureMode::Char);
        let v = f.features("mass flagging campaign against the account");
        assert!(!v.is_empty());
        for (i, _) in v {
            assert!((i as usize) < f.dimensions());
        }
    }

    #[test]
    fn long_documents_are_reduced_not_dropped() {
        let f = fit(FeatureMode::Word);
        let long = "we need to report him ".repeat(500);
        let v = f.features(&long);
        assert!(!v.is_empty());
    }

    #[test]
    fn case_is_normalized_away() {
        let f = fit(FeatureMode::Word);
        assert_eq!(f.features("REPORT Him"), f.features("report him"));
    }

    #[test]
    fn subword_mode_generalizes_to_unseen_forms() {
        let f = fit(FeatureMode::Subword);
        // "reporting" unseen; shares subword pieces with "report".
        let a = f.features("reporting");
        assert!(!a.is_empty());
    }

    #[test]
    fn rolling_path_is_byte_identical_to_legacy() {
        let docs = [
            "we need to report him to the platform",
            "lets mass flag her account right now, spread the word",
            "post his address and phone number: 555-0147 — dox incoming",
            "RAID the stream tonight!!! bring everyone",
            "报告 この アカウント héllo wörld",
            "",
            "   \n\t ",
            "a",
            "short",
        ];
        let long = "we need to report him right now ".repeat(300);
        for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
            let f = fit(mode);
            for doc in docs.iter().copied().chain(std::iter::once(long.as_str())) {
                let rolling = f.features(doc);
                let legacy = f.features_legacy(doc);
                assert_eq!(rolling.len(), legacy.len(), "{mode:?}: {doc:?}");
                for (r, l) in rolling.iter().zip(legacy.iter()) {
                    assert_eq!(r.0, l.0, "{mode:?}: {doc:?}");
                    assert_eq!(r.1.to_bits(), l.1.to_bits(), "{mode:?}: {doc:?}");
                }
            }
        }
    }
}
