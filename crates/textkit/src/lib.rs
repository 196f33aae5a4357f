//! # incite-textkit
//!
//! Text-processing substrate for the `incite` reproduction: everything the
//! classification pipeline needs to turn raw platform documents into sparse
//! feature vectors, mirroring §5.2 of the paper.
//!
//! * [`mod@normalize`] — lowercasing and whitespace canonicalization.
//! * [`mod@tokenize`] — punctuation-splitting tokenizer (the paper tokenizes
//!   "using both punctuation splitting and the WordPiece sub-word
//!   segmentation algorithm").
//! * [`wordpiece`] — a trainable WordPiece-style subword vocabulary
//!   (greedy longest-match encoding with `##` continuations and `[UNK]`).
//! * [`span`] — the long-document handling strategies of §5.2: random
//!   non-overlapping spans (the paper's winner), head+tail spans,
//!   overlapping spans, and random-length spans, all against a fixed
//!   max-sequence budget.
//! * [`ngram`] — character n-gram extraction.
//! * [`hash`] — feature hashing into a fixed-dimensional sparse space.
//! * [`rng`] — a tiny deterministic SplitMix64 PRNG so span sampling is
//!   reproducible without external dependencies.

pub mod hash;
pub mod ngram;
pub mod normalize;
pub mod rng;
pub mod span;
pub mod tokenize;
pub mod wordpiece;

pub use hash::{fnv1a, FeatureHasher, RollingSlot, UnitGrams};
pub use ngram::char_ngrams;
pub use normalize::{normalize, normalize_into};
pub use rng::SplitMix64;
pub use span::{fits_whole, sample_spans, SpanStrategy};
pub use tokenize::{tokenize, tokens, Token, TokenKind, Tokens};
pub use wordpiece::{
    EncodeScratch, MemoStats, WordMemo, WordPieceEncoder, WordPieceTrainer, WordPieceVocab,
    MEMO_WORDS,
};
