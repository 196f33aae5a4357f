//! Trainable WordPiece-style subword segmentation.
//!
//! DistilBERT's tokenizer segments each word into subword units from a fixed
//! vocabulary, using greedy longest-match-first with `##`-prefixed
//! continuation pieces and an `[UNK]` fallback. This module provides:
//!
//! * [`WordPieceTrainer`] — learns a vocabulary from a corpus by iterative
//!   pair merging (BPE-style frequency merges, which is the practical
//!   procedure behind WordPiece vocabularies);
//! * [`WordPieceVocab`] — the learned vocabulary;
//! * [`WordPieceEncoder`] — greedy longest-match encoding of words into
//!   subword ids.

use std::collections::HashMap;

/// Id of the unknown token, always present at index 0.
const UNK_ID: u32 = 0;
/// Text of the unknown token.
const UNK_TOKEN: &str = "[UNK]";

/// A learned subword vocabulary.
///
/// Pieces that begin a word are stored verbatim; continuation pieces carry
/// the `##` prefix, exactly as in BERT vocabularies.
///
/// Serializes as its piece list; the id index is rebuilt on load.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
#[serde(from = "Vec<String>", into = "Vec<String>")]
pub struct WordPieceVocab {
    pieces: Vec<String>,
    index: HashMap<String, u32>,
    /// Continuation pieces indexed by their text *without* the `##`
    /// prefix, so the encoder can look up a candidate as a plain slice of
    /// the word instead of assembling a `##`-prefixed string per probe.
    /// Derived from `index`; rebuilt on deserialize like it.
    continuations: HashMap<String, u32>,
}

impl WordPieceVocab {
    /// Builds a vocabulary from a piece list. `[UNK]` is inserted at id 0 if
    /// absent. Duplicate pieces keep their first id.
    fn from_pieces<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut pieces = Vec::new();
        let mut index = HashMap::new();
        let mut continuations = HashMap::new();
        index.insert(UNK_TOKEN.to_string(), UNK_ID);
        pieces.push(UNK_TOKEN.to_string());
        for piece in iter {
            if piece == UNK_TOKEN {
                continue;
            }
            if !index.contains_key(&piece) {
                let id = pieces.len() as u32;
                if let Some(core) = piece.strip_prefix("##") {
                    continuations.insert(core.to_string(), id);
                }
                index.insert(piece.clone(), id);
                pieces.push(piece);
            }
        }
        WordPieceVocab {
            pieces,
            index,
            continuations,
        }
    }

    /// Number of pieces, including `[UNK]`.
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Whether only `[UNK]` is present.
    pub fn is_empty(&self) -> bool {
        self.pieces.len() <= 1
    }

    /// Looks up a piece id.
    pub fn id(&self, piece: &str) -> Option<u32> {
        self.index.get(piece).copied()
    }

    /// Looks up a continuation piece by its text without the `##` prefix:
    /// `id_continuation("port") == id("##port")`, with no string assembly
    /// on the caller's side.
    fn id_continuation(&self, core: &str) -> Option<u32> {
        self.continuations.get(core).copied()
    }

    /// Looks up the piece text for an id.
    pub fn piece(&self, id: u32) -> Option<&str> {
        self.pieces.get(id as usize).map(|s| s.as_str())
    }

    /// Iterates all pieces.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.pieces.iter().map(|s| s.as_str())
    }
}

/// Learns a WordPiece vocabulary by frequency-based pair merging.
#[derive(Debug, Clone)]
pub struct WordPieceTrainer {
    /// Target vocabulary size (including `[UNK]` and single characters).
    pub vocab_size: usize,
    /// Minimum frequency for a merge to be performed.
    pub min_pair_frequency: usize,
}

impl Default for WordPieceTrainer {
    fn default() -> Self {
        WordPieceTrainer {
            vocab_size: 8_192,
            min_pair_frequency: 2,
        }
    }
}

impl WordPieceTrainer {
    /// Creates a trainer with a target vocabulary size.
    pub fn new(vocab_size: usize) -> Self {
        WordPieceTrainer {
            vocab_size,
            ..Default::default()
        }
    }

    /// Trains a vocabulary from an iterator of words (typically the
    /// non-punctuation tokens of the normalized corpus).
    pub fn train<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> WordPieceVocab {
        // Count word frequencies.
        let mut word_freq: HashMap<&str, usize> = HashMap::new();
        for w in words {
            if !w.is_empty() {
                *word_freq.entry(w).or_default() += 1;
            }
        }

        // Represent each word as a sequence of pieces, starting from single
        // characters; continuations carry the ## prefix.
        let mut sequences: Vec<(Vec<String>, usize)> = word_freq
            .iter()
            .map(|(w, f)| {
                let pieces: Vec<String> = w
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i == 0 {
                            c.to_string()
                        } else {
                            format!("##{c}")
                        }
                    })
                    .collect();
                (pieces, *f)
            })
            .collect();
        // Deterministic iteration order regardless of HashMap hashing.
        sequences.sort_by(|a, b| a.0.cmp(&b.0));

        // Seed vocabulary: all single-character pieces.
        let mut vocab: Vec<String> = Vec::new();
        let mut seen: HashMap<String, ()> = HashMap::new();
        for (pieces, _) in &sequences {
            for p in pieces {
                if seen.insert(p.clone(), ()).is_none() {
                    vocab.push(p.clone());
                }
            }
        }
        vocab.sort();

        // Iteratively merge the most frequent adjacent pair.
        while vocab.len() + 1 < self.vocab_size {
            let mut pair_freq: HashMap<(String, String), usize> = HashMap::new();
            for (pieces, f) in &sequences {
                for pair in pieces.windows(2) {
                    *pair_freq
                        .entry((pair[0].clone(), pair[1].clone()))
                        .or_default() += f;
                }
            }
            // Deterministic best pair: max frequency, ties by lexicographic order.
            let best = pair_freq
                .into_iter()
                .filter(|(_, f)| *f >= self.min_pair_frequency)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((left, right), _)) = best else {
                break;
            };

            let merged = merge_pieces(&left, &right);
            for (pieces, _) in &mut sequences {
                let mut i = 0;
                while i + 1 < pieces.len() {
                    if pieces[i] == left && pieces[i + 1] == right {
                        pieces[i] = merged.clone();
                        pieces.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            vocab.push(merged);
        }

        WordPieceVocab::from_pieces(vocab)
    }
}

/// Concatenates two pieces, keeping the `##` continuation marker semantics:
/// `("re", "##port") -> "report"`, `("##re", "##port") -> "##report"`.
fn merge_pieces(left: &str, right: &str) -> String {
    let right_core = right.strip_prefix("##").unwrap_or(right);
    format!("{left}{right_core}")
}

impl From<Vec<String>> for WordPieceVocab {
    fn from(pieces: Vec<String>) -> Self {
        WordPieceVocab::from_pieces(pieces)
    }
}

impl From<WordPieceVocab> for Vec<String> {
    fn from(vocab: WordPieceVocab) -> Self {
        vocab.pieces
    }
}

/// Reusable working storage for `WordPieceEncoder::encode_word_into`.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Byte offsets of the word's char starts, plus an end sentinel —
    /// every match candidate is `&word[offsets[i]..offsets[j]]`.
    offsets: Vec<usize>,
}

/// Greedy longest-match-first WordPiece encoder.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WordPieceEncoder {
    vocab: WordPieceVocab,
    /// Words longer than this many characters encode to `[UNK]` directly
    /// (matches BERT's `max_input_chars_per_word`, default 100).
    pub max_word_chars: usize,
}

impl WordPieceEncoder {
    /// Wraps a vocabulary in an encoder.
    pub fn new(vocab: WordPieceVocab) -> Self {
        WordPieceEncoder {
            vocab,
            max_word_chars: 100,
        }
    }

    /// Access to the underlying vocabulary.
    pub fn vocab(&self) -> &WordPieceVocab {
        &self.vocab
    }

    /// Encodes one word into piece ids. If any position fails to match, the
    /// whole word becomes a single `[UNK]` (BERT semantics).
    pub fn encode_word(&self, word: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        let mut scratch = EncodeScratch::default();
        self.encode_word_into(word, &mut ids, &mut scratch);
        ids
    }

    /// `encode_word` appending into `ids`, with all working storage drawn
    /// from a caller-held [`EncodeScratch`] — the hot-loop variant used by
    /// the featurizer so a corpus sweep does zero per-word allocation.
    /// Candidates are probed as plain slices of `word` (continuations via
    /// [`WordPieceVocab::id_continuation`]), never assembled into strings.
    fn encode_word_into(&self, word: &str, ids: &mut Vec<u32>, scratch: &mut EncodeScratch) {
        let offsets = &mut scratch.offsets;
        offsets.clear();
        offsets.extend(word.char_indices().map(|(i, _)| i));
        if offsets.is_empty() {
            return;
        }
        offsets.push(word.len());
        let n = offsets.len() - 1;
        if n > self.max_word_chars {
            ids.push(UNK_ID);
            return;
        }
        let first_piece = ids.len();
        let mut start = 0;
        while start < n {
            let mut end = n;
            let mut matched = None;
            while end > start {
                let candidate = &word[offsets[start]..offsets[end]];
                let id = if start == 0 {
                    self.vocab.id(candidate)
                } else {
                    self.vocab.id_continuation(candidate)
                };
                if let Some(id) = id {
                    matched = Some((id, end));
                    break;
                }
                end -= 1;
            }
            match matched {
                Some((id, e)) => {
                    ids.push(id);
                    start = e;
                }
                None => {
                    ids.truncate(first_piece);
                    ids.push(UNK_ID);
                    return;
                }
            }
        }
    }

    /// Decodes piece ids back into a readable string (for diagnostics).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            let piece = self.vocab.piece(id).unwrap_or(UNK_TOKEN);
            if let Some(cont) = piece.strip_prefix("##") {
                out.push_str(cont);
            } else {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(piece);
            }
        }
        out
    }
}

/// Words a chunk's [`WordMemo`] holds at most; later words are encoded
/// without being inserted.
pub const MEMO_WORDS: usize = 16_384;

/// Word-token and hit counts of a [`WordMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Words encoded through the memo.
    pub word_tokens: u64,
    /// Of those, words whose ids came from the memo.
    pub hits: u64,
}

impl std::ops::Add for MemoStats {
    type Output = MemoStats;

    fn add(self, other: MemoStats) -> MemoStats {
        MemoStats {
            word_tokens: self.word_tokens + other.word_tokens,
            hits: self.hits + other.hits,
        }
    }
}

/// A word → piece-ids memo in front of
/// `WordPieceEncoder::encode_word_into`.
///
/// FNV-1a open addressing with linear probing over a power-of-two slot
/// table, kept at most half full. (A `HashMap` would put `RandomState`
/// on the scoring path.) The table starts at 16 slots on the first
/// insert and doubles as it fills. Past `cap` words, misses are encoded without
/// being inserted; `cap` is at most [`MEMO_WORDS`]. A hit replays the ids
/// the encoder produced for the same word, so memoized output equals the
/// encoder's. The default memo has `cap == 0`: it never hashes, and only
/// counts words.
#[derive(Debug, Clone, Default)]
pub struct WordMemo {
    /// 0 = empty; otherwise 1 + an index into `entries`.
    slots: Vec<u32>,
    entries: Vec<MemoEntry>,
    /// Word bytes of every entry, back to back.
    words: Vec<u8>,
    /// Piece ids of every entry, back to back.
    ids: Vec<u32>,
    cap: usize,
    stats: MemoStats,
}

/// One memoized word: its hash, and its `words` and `ids` ranges.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    hash: u64,
    word: (usize, usize),
    ids: (usize, usize),
}

impl WordMemo {
    /// A memo of at most `cap` words (clamped to [`MEMO_WORDS`]).
    pub fn new(cap: usize) -> Self {
        WordMemo {
            cap: cap.min(MEMO_WORDS),
            ..WordMemo::default()
        }
    }

    /// Word-token and hit counts so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Appends `word`'s piece ids to `ids`, exactly as
    /// `WordPieceEncoder::encode_word_into` would.
    pub fn encode(
        &mut self,
        encoder: &WordPieceEncoder,
        word: &str,
        ids: &mut Vec<u32>,
        scratch: &mut EncodeScratch,
    ) {
        self.stats.word_tokens += 1;
        if self.cap == 0 {
            encoder.encode_word_into(word, ids, scratch);
            return;
        }
        let hash = crate::hash::fnv1a(word.as_bytes(), 0);
        if let Some(entry) = self.find(hash, word.as_bytes()) {
            self.stats.hits += 1;
            ids.extend_from_slice(&self.ids[entry.ids.0..entry.ids.1]);
            return;
        }
        let first = ids.len();
        encoder.encode_word_into(word, ids, scratch);
        if self.entries.len() < self.cap {
            self.insert(hash, word.as_bytes(), &ids[first..]);
        }
    }

    fn find(&self, hash: u64, word: &[u8]) -> Option<MemoEntry> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut pos = hash as usize & mask;
        loop {
            // Slot 0 is empty: `checked_sub` ends the probe there.
            let entry = self.entries[self.slots[pos].checked_sub(1)? as usize];
            if entry.hash == hash && &self.words[entry.word.0..entry.word.1] == word {
                return Some(entry);
            }
            pos = (pos + 1) & mask;
        }
    }

    fn insert(&mut self, hash: u64, word: &[u8], ids: &[u32]) {
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        self.entries.push(MemoEntry {
            hash,
            word: (self.words.len(), self.words.len() + word.len()),
            ids: (self.ids.len(), self.ids.len() + ids.len()),
        });
        self.words.extend_from_slice(word);
        self.ids.extend_from_slice(ids);
        // At most MEMO_WORDS entries, so the slot value fits.
        self.place(hash, self.entries.len() as u32);
    }

    fn place(&mut self, hash: u64, slot: u32) {
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        while self.slots[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.slots[pos] = slot;
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = vec![0; len];
        for e in 0..self.entries.len() {
            self.place(self.entries[e].hash, e as u32 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_on(words: &[&str], vocab_size: usize) -> WordPieceEncoder {
        let trainer = WordPieceTrainer {
            vocab_size,
            min_pair_frequency: 2,
        };
        let repeated: Vec<&str> = words
            .iter()
            .cycle()
            .take(words.len() * 5)
            .copied()
            .collect();
        WordPieceEncoder::new(trainer.train(repeated))
    }

    #[test]
    fn merge_pieces_handles_continuations() {
        assert_eq!(merge_pieces("re", "##port"), "report");
        assert_eq!(merge_pieces("##re", "##port"), "##report");
        assert_eq!(merge_pieces("a", "b"), "ab");
    }

    #[test]
    fn vocab_always_contains_unk_at_zero() {
        let vocab = WordPieceVocab::from_pieces(vec!["a".into(), "b".into()]);
        assert_eq!(vocab.id(UNK_TOKEN), Some(UNK_ID));
        assert_eq!(vocab.piece(UNK_ID), Some(UNK_TOKEN));
        assert_eq!(vocab.len(), 3);
    }

    #[test]
    fn duplicate_pieces_are_ignored() {
        let vocab = WordPieceVocab::from_pieces(vec!["a".into(), "a".into(), "[UNK]".into()]);
        assert_eq!(vocab.len(), 2);
    }

    #[test]
    fn trained_vocab_encodes_training_words_without_unk() {
        let enc = train_on(&["report", "reporting", "reported"], 64);
        for w in ["report", "reporting", "reported"] {
            let ids = enc.encode_word(w);
            assert!(!ids.contains(&UNK_ID), "{w} should encode cleanly: {ids:?}");
            assert_eq!(enc.decode(&ids), w);
        }
    }

    #[test]
    fn shared_stems_get_merged() {
        let enc = train_on(&["report", "reporting", "reporter", "reported"], 128);
        // After enough merges, "report" should be a single piece.
        let ids = enc.encode_word("report");
        assert_eq!(ids.len(), 1, "expected single piece, got {:?}", ids);
    }

    #[test]
    fn unknown_characters_become_unk() {
        let enc = train_on(&["abc"], 16);
        assert_eq!(enc.encode_word("xyz"), vec![UNK_ID]);
    }

    #[test]
    fn novel_words_decompose_into_subwords() {
        let enc = train_on(&["report", "harass", "harassment"], 256);
        // "reportment" is unseen but decomposable from learned pieces.
        let ids = enc.encode_word("reportment");
        assert!(ids.len() >= 2);
        assert!(!ids.contains(&UNK_ID));
        assert_eq!(enc.decode(&ids), "reportment");
    }

    #[test]
    fn empty_word_encodes_to_nothing() {
        let enc = train_on(&["abc"], 16);
        assert!(enc.encode_word("").is_empty());
    }

    #[test]
    fn overlong_word_is_unk() {
        let enc = train_on(&["abc"], 16);
        let long: String = std::iter::repeat_n('a', 200).collect();
        assert_eq!(enc.encode_word(&long), vec![UNK_ID]);
    }

    #[test]
    fn memo_replays_the_encoder_past_its_cap_and_growth() {
        let enc = train_on(&["report", "reporting", "harass", "harassment"], 128);
        let mut words: Vec<String> = [
            "report",
            "reportment",
            "xyz",
            "",
            "harass",
            "report",
            "reporting",
            "xyz",
        ]
        .map(String::from)
        .to_vec();
        // Twenty more distinct words take the uncapped memo past its first
        // 16-slot table twice.
        words.extend((0..20).map(|i| format!("harass{i}")));
        let distinct = 6 + 20;
        // cap 0 = off; cap 3 = full after three inserts.
        for cap in [0, 3, MEMO_WORDS] {
            let mut memo = WordMemo::new(cap);
            let mut scratch = EncodeScratch::default();
            for round in 0..3 {
                for w in &words {
                    let mut ids = vec![7];
                    memo.encode(&enc, w, &mut ids, &mut scratch);
                    let mut direct = vec![7];
                    direct.extend(enc.encode_word(w));
                    assert_eq!(ids, direct, "cap {cap}, round {round}: {w:?}");
                }
            }
            let stats = memo.stats();
            assert_eq!(stats.word_tokens, 3 * words.len() as u64);
            let expected_hits = match cap {
                0 => 0,
                // The first three words enter; round one hits "report" and
                // "xyz" again, each later round hits five of the eight
                // named words.
                3 => 2 + 5 + 5,
                _ => 3 * words.len() as u64 - distinct,
            };
            assert_eq!(stats.hits, expected_hits, "cap {cap}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let words = ["raid", "raiding", "report", "reporting", "dox", "doxing"];
        let t = WordPieceTrainer {
            vocab_size: 64,
            min_pair_frequency: 2,
        };
        let v1 = t.train(words.iter().copied());
        let v2 = t.train(words.iter().copied());
        let p1: Vec<_> = v1.iter().collect();
        let p2: Vec<_> = v2.iter().collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn vocab_size_is_respected() {
        let words = ["abcdefgh", "ijklmnop", "qrstuvwx"];
        let t = WordPieceTrainer {
            vocab_size: 30,
            min_pair_frequency: 1,
        };
        let v = t.train(words.iter().copied().cycle().take(30));
        assert!(v.len() <= 30, "vocab has {} pieces", v.len());
    }
}
