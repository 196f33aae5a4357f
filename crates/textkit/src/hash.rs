//! Feature hashing ("the hashing trick").
//!
//! Maps arbitrary string features into a fixed-dimensional sparse vector
//! space without a dictionary, which keeps the classifier's memory footprint
//! constant over a half-billion-document corpus — the same engineering
//! pressure (§5.2: "models with a small memory footprint that can process
//! large amounts of data") that pushed the paper to distilBERT.
//!
//! Uses FNV-1a for the index hash and a second independent hash bit for the
//! sign, which debiases collisions (Weinberger et al., 2009).

/// A hasher mapping string features into indices `[0, 2^bits)` with ±1 signs.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct FeatureHasher {
    bits: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Seed for the independent sign hash (Weinberger et al., 2009).
const SIGN_SEED: u64 = 0x5bd1_e995;

/// Seeded FNV-1a over raw bytes. Public because a 64-bit digest is the
/// workspace's standard content-free stand-in for text in diagnostics
/// (a registered sanitizer in the incite-lint taint model).
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = FNV_OFFSET ^ seed;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The paired index/sign FNV-1a states of one feature, fed byte chunks
/// incrementally. FNV-1a folds one byte at a time, so hashing a feature
/// from chunks (`"2|"`, `"mass"`, `" "`, `"flag"`) is bit-identical to
/// hashing the concatenated string — that equivalence is what lets the
/// rolling n-gram path skip materializing gram `String`s entirely.
#[derive(Debug, Clone, Copy)]
pub struct RollingSlot {
    index_state: u64,
    sign_state: u64,
}

impl RollingSlot {
    /// Starts both states and absorbs a feature prefix (e.g. `b"1|"`).
    #[inline]
    fn with_prefix(prefix: &[u8]) -> Self {
        let mut slot = RollingSlot {
            index_state: FNV_OFFSET,
            sign_state: FNV_OFFSET ^ SIGN_SEED,
        };
        slot.update(prefix);
        slot
    }

    /// Absorbs more feature bytes into both states in one fused pass.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hi = self.index_state;
        let mut hs = self.sign_state;
        for &b in bytes {
            hi = (hi ^ b as u64).wrapping_mul(FNV_PRIME);
            hs = (hs ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.index_state = hi;
        self.sign_state = hs;
    }
}

/// One unit's states in the word-style n-gram format: the unigram
/// `1|{unit}` and the bigram `2|{unit} {right}`. The format is written
/// here alone: [`FeatureHasher::hash_ngrams_rolling`] builds these per
/// token, and a caller whose units come from a fixed set (the subword
/// featurizer's pieces) can build them once per unit and keep them.
#[derive(Debug, Clone, Copy)]
pub struct UnitGrams {
    /// State after `1|{unit}`.
    unigram: RollingSlot,
    /// State after `2|{unit} `.
    bigram_left: RollingSlot,
}

impl UnitGrams {
    /// Both states of `unit`.
    #[inline]
    pub fn new(unit: &[u8]) -> Self {
        let mut unigram = RollingSlot::with_prefix(b"1|");
        unigram.update(unit);
        let mut bigram_left = RollingSlot::with_prefix(b"2|");
        bigram_left.update(unit);
        bigram_left.update(b" ");
        UnitGrams {
            unigram,
            bigram_left,
        }
    }

    /// The unigram `1|{unit}`, ready for [`FeatureHasher::finish`].
    #[inline]
    pub fn unigram(&self) -> RollingSlot {
        self.unigram
    }

    /// The bigram `2|{unit} {right}`, ready for [`FeatureHasher::finish`].
    #[inline]
    pub fn bigram(&self, right: &[u8]) -> RollingSlot {
        let mut slot = self.bigram_left;
        slot.update(right);
        slot
    }
}

impl FeatureHasher {
    /// Creates a hasher with `2^bits` output dimensions. `bits` is clamped
    /// to `[1, 30]`.
    pub fn new(bits: u32) -> Self {
        FeatureHasher {
            bits: bits.clamp(1, 30),
        }
    }

    /// Output dimensionality.
    pub fn dimensions(&self) -> usize {
        1usize << self.bits
    }

    /// Hashes one feature to `(index, sign)` with `sign ∈ {+1.0, -1.0}`.
    pub fn slot(&self, feature: &str) -> (u32, f32) {
        let h = fnv1a(feature.as_bytes(), 0);
        let index = (h & ((1u64 << self.bits) - 1)) as u32;
        let sign_bit = fnv1a(feature.as_bytes(), 0x5bd1_e995) & 1;
        let sign = if sign_bit == 0 { 1.0 } else { -1.0 };
        (index, sign)
    }

    /// Finishes a rolling feature: `(index, sign)` with `sign ∈ {+1.0, -1.0}`,
    /// identical to `slot` over the concatenated feature string.
    #[inline]
    pub fn finish(&self, slot: RollingSlot) -> (u32, f32) {
        let index = (slot.index_state & ((1u64 << self.bits) - 1)) as u32;
        let sign = if slot.sign_state & 1 == 0 { 1.0 } else { -1.0 };
        (index, sign)
    }

    /// Hashes a bag of features into a sparse vector: sorted unique indices
    /// with summed signed counts, L2-normalized if requested.
    pub fn hash_features<'a, I>(&self, features: I, l2_normalize: bool) -> Vec<(u32, f32)>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let pairs: Vec<(u32, f32)> = features.into_iter().map(|f| self.slot(f)).collect();
        self.finalize_hashed(pairs, l2_normalize)
    }

    /// Hashes order-prefixed word-style unigrams (`"1|{u}"`) and bigrams
    /// (`"2|{a} {b}"`) straight from unit byte slices into `pairs` — zero
    /// intermediate `String`s. Once summed by index, byte-identical to
    /// formatting each gram and calling [`FeatureHasher::slot`], because
    /// FNV-1a is byte-sequential. Each unit's [`UnitGrams`] are built
    /// once and serve its unigram and its bigram with the next unit.
    pub fn hash_ngrams_rolling(&self, units: &[&[u8]], pairs: &mut Vec<(u32, f32)>) {
        pairs.reserve(units.len().saturating_mul(2));
        let mut left: Option<UnitGrams> = None;
        for unit in units {
            if let Some(left) = left {
                pairs.push(self.finish(left.bigram(unit)));
            }
            let grams = UnitGrams::new(unit);
            pairs.push(self.finish(grams.unigram()));
            left = Some(grams);
        }
    }

    /// Hashes order-prefixed character n-grams (`"c{n}|{gram}"`) for every
    /// `n` in `min_n..=max_n` straight from the span's UTF-8 bytes: each
    /// window of `n` consecutive chars is a contiguous byte slice, so no
    /// gram is ever materialized. Byte-identical to formatting each gram
    /// and calling [`FeatureHasher::slot`].
    pub fn hash_char_ngrams_rolling(
        &self,
        span: &str,
        min_n: usize,
        max_n: usize,
        pairs: &mut Vec<(u32, f32)>,
    ) {
        debug_assert!((1..=9).contains(&min_n) && min_n <= max_n && max_n <= 9);
        // Char-start byte offsets plus the end sentinel: window i of order n
        // is span[starts[i]..starts[i + n]].
        let mut starts: Vec<usize> = span.char_indices().map(|(i, _)| i).collect();
        starts.push(span.len());
        for n in min_n..=max_n {
            if starts.len() <= n {
                break;
            }
            let prefix = RollingSlot::with_prefix(&[b'c', b'0' + n as u8, b'|']);
            for window in starts.windows(n + 1) {
                let mut slot = prefix;
                slot.update(&span.as_bytes()[window[0]..window[n]]);
                pairs.push(self.finish(slot));
            }
        }
    }

    /// Shared tail of every hashing path: sort by index, merge duplicates by
    /// summing signed counts, drop exact zeros, optionally L2-normalize.
    fn finalize_hashed(&self, mut pairs: Vec<(u32, f32)>, l2_normalize: bool) -> Vec<(u32, f32)> {
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let mut out: Vec<(u32, f32)> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            match out.last_mut() {
                Some((li, lv)) if *li == i => *lv += v,
                _ => out.push((i, v)),
            }
        }
        out.retain(|(_, v)| *v != 0.0);
        if l2_normalize {
            let norm: f32 = out.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
            if norm > 0.0 {
                for (_, v) in &mut out {
                    *v /= norm;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_within_dimensions() {
        let h = FeatureHasher::new(10);
        assert_eq!(h.dimensions(), 1024);
        for f in ["we need to", "raid", "dox", "報告"] {
            let (idx, sign) = h.slot(f);
            assert!((idx as usize) < h.dimensions());
            assert!(sign == 1.0 || sign == -1.0);
        }
    }

    #[test]
    fn hashing_is_deterministic() {
        let h = FeatureHasher::new(16);
        assert_eq!(h.slot("mass flag"), h.slot("mass flag"));
    }

    #[test]
    fn duplicate_features_accumulate() {
        let h = FeatureHasher::new(16);
        let v = h.hash_features(["raid", "raid", "raid"], false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1.abs(), 3.0);
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let h = FeatureHasher::new(8);
        let feats: Vec<String> = (0..500).map(|i| format!("f{i}")).collect();
        let v = h.hash_features(feats.iter().map(|s| s.as_str()), false);
        for w in v.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn l2_normalization() {
        let h = FeatureHasher::new(16);
        let v = h.hash_features(["a", "b", "c", "d"], true);
        let norm: f32 = v.iter().map(|(_, x)| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_input_is_empty_vector() {
        let h = FeatureHasher::new(16);
        assert!(h.hash_features(std::iter::empty(), true).is_empty());
    }

    #[test]
    fn signs_split_roughly_evenly() {
        let h = FeatureHasher::new(20);
        let pos = (0..2000)
            .map(|i| format!("feature-{i}"))
            .filter(|f| h.slot(f).1 > 0.0)
            .count();
        assert!((800..1200).contains(&pos), "positive signs: {pos}");
    }

    #[test]
    fn bits_clamped() {
        assert_eq!(FeatureHasher::new(0).dimensions(), 2);
        assert_eq!(FeatureHasher::new(99).dimensions(), 1 << 30);
    }

    #[test]
    fn rolling_slot_matches_whole_string_slot() {
        let h = FeatureHasher::new(18);
        for feature in ["1|raid", "2|mass flag", "c3|öyz", "1|", "2| "] {
            let mut slot = RollingSlot::with_prefix(&feature.as_bytes()[..2]);
            slot.update(&feature.as_bytes()[2..]);
            assert_eq!(h.finish(slot), h.slot(feature), "feature: {feature}");
        }
    }

    #[test]
    fn rolling_slot_chunking_is_irrelevant() {
        let h = FeatureHasher::new(16);
        let mut chunked = RollingSlot::with_prefix(b"2|");
        chunked.update(b"mass");
        chunked.update(b" ");
        chunked.update(b"flag");
        let mut whole = RollingSlot::with_prefix(b"2|mass flag");
        whole.update(b"");
        assert_eq!(h.finish(chunked), h.finish(whole));
        assert_eq!(h.finish(chunked), h.slot("2|mass flag"));
    }

    #[test]
    fn hash_ngrams_rolling_matches_legacy_strings() {
        let h = FeatureHasher::new(14);
        let units = ["we", "need", "to", "report", "him", "报告"];
        let mut grams: Vec<String> = units.iter().map(|u| format!("1|{u}")).collect();
        for w in units.windows(2) {
            grams.push(format!("2|{} {}", w[0], w[1]));
        }
        let legacy = h.hash_features(grams.iter().map(|s| s.as_str()), false);

        let unit_bytes: Vec<&[u8]> = units.iter().map(|u| u.as_bytes()).collect();
        let mut pairs = Vec::new();
        h.hash_ngrams_rolling(&unit_bytes, &mut pairs);
        assert_eq!(h.finalize_hashed(pairs, false), legacy);
    }

    #[test]
    fn hash_char_ngrams_rolling_matches_legacy_strings() {
        let h = FeatureHasher::new(14);
        let span = "mass fläg hér ac"; // multibyte chars exercise offsets
        let mut grams: Vec<String> = Vec::new();
        for n in 3..=5 {
            for g in crate::ngram::char_ngrams(span, n) {
                grams.push(format!("c{n}|{g}"));
            }
        }
        let legacy = h.hash_features(grams.iter().map(|s| s.as_str()), false);

        let mut pairs = Vec::new();
        h.hash_char_ngrams_rolling(span, 3, 5, &mut pairs);
        assert_eq!(h.finalize_hashed(pairs, false), legacy);
    }

    #[test]
    fn rolling_paths_handle_empty_and_short_inputs() {
        let h = FeatureHasher::new(12);
        let mut pairs = Vec::new();
        h.hash_ngrams_rolling(&[], &mut pairs);
        assert!(pairs.is_empty());
        h.hash_char_ngrams_rolling("ab", 3, 5, &mut pairs);
        assert!(pairs.is_empty());
        h.hash_ngrams_rolling(&[b"solo".as_slice()], &mut pairs);
        assert_eq!(pairs, vec![h.slot("1|solo")]);
    }
}
