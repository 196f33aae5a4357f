//! Fixed-width topic fingerprints over hashed n-gram features.
//!
//! The streaming threat ranker needs a *topic-overlap* axis next to
//! toxicity: Ex Machina-style toxicity alone flags noise, but an amplified
//! call-to-harassment only becomes a threat signal for an audience member
//! whose own posting history covers the same topic (they can recognize —
//! and act on — the target). Full sparse feature vectors are too wide to
//! keep per actor for an unbounded stream, so each document's hashed
//! n-gram features ([`crate::Featurizer::features`]) are folded into a
//! fixed `FINGERPRINT_DIM`-wide signed profile, and overlap is the cosine
//! of two profiles.
//!
//! The fold is a second-level feature hash: feature index `i` lands in
//! slot `i % FINGERPRINT_DIM` with a deterministic ±1 sign drawn from an
//! independent bit of `i` (the same sign-hash trick the first-level
//! [`incite_textkit::FeatureHasher`] uses, so collisions cancel in
//! expectation instead of accumulating). Everything is pure float
//! arithmetic over already-sorted sparse vectors: fingerprints are
//! byte-identical for identical inputs regardless of thread count.

use crate::sparse::SparseVec;
use incite_textkit::fnv1a;

/// Fingerprint width. 64 slots keeps an actor's whole topical history in
/// one cache line pair while leaving cosine enough resolution to separate
/// topics at the corpus' vocabulary size.
pub const FINGERPRINT_DIM: usize = 64;

/// Seed for the fold's sign hash, independent of the feature hasher's.
const FOLD_SIGN_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fixed-width topical profile of one document or one actor's history.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicFingerprint {
    slots: [f32; FINGERPRINT_DIM],
}

impl Default for TopicFingerprint {
    fn default() -> Self {
        TopicFingerprint {
            slots: [0.0; FINGERPRINT_DIM],
        }
    }
}

impl TopicFingerprint {
    /// The empty profile (no history yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one CSR row (a [`crate::FeatureMatrix::row`]) into a fresh
    /// fingerprint, entry by entry in the same order as [`Self::fold`] on
    /// the equivalent vector.
    pub fn from_row(indices: &[u32], values: &[f32]) -> Self {
        let mut fp = Self::new();
        fp.fold_entries(indices.iter().copied().zip(values.iter().copied()));
        fp
    }

    /// Folds one more document's features into this profile. The fold is
    /// order-independent (a sum), so an actor's history fingerprint does
    /// not depend on within-epoch processing order.
    pub fn fold(&mut self, features: &SparseVec) {
        self.fold_entries(features.iter().copied());
    }

    fn fold_entries(&mut self, entries: impl Iterator<Item = (u32, f32)>) {
        for (index, weight) in entries {
            let slot = index as usize % FINGERPRINT_DIM;
            let sign = if fnv1a(&index.to_le_bytes(), FOLD_SIGN_SEED) & 1 == 0 {
                1.0
            } else {
                -1.0
            };
            self.slots[slot] += sign * weight;
        }
    }

    /// Adds another fingerprint slot-wise: an actor's history profile is
    /// the sum of their documents' fingerprints. Commutative up to float
    /// rounding; callers that need byte-identical profiles must merge in
    /// a deterministic order (the stream ranker merges in event order).
    pub fn merge(&mut self, other: &TopicFingerprint) {
        for (slot, value) in self.slots.iter_mut().zip(other.slots.iter()) {
            *slot += value;
        }
    }

    /// Whether anything has been folded in (bit-exact zero test: slots
    /// only ever accumulate, so an all-zero profile means no history).
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&s| s.to_bits() == 0)
    }

    /// L2 norm of the profile.
    pub fn norm(&self) -> f32 {
        self.slots.iter().map(|s| s * s).sum::<f32>().sqrt()
    }

    /// Cosine similarity in `[0, 1]`: negative cosines (anti-correlated
    /// topic profiles) clamp to zero since "opposite topic" carries no
    /// more threat than "no topic overlap". Empty profiles score zero.
    pub fn overlap(&self, other: &TopicFingerprint) -> f32 {
        let denom = self.norm() * other.norm();
        if denom <= 0.0 {
            return 0.0;
        }
        let dot: f32 = self
            .slots
            .iter()
            .zip(other.slots.iter())
            .map(|(a, b)| a * b)
            .sum();
        (dot / denom).clamp(0.0, 1.0)
    }

    /// The raw slots, for serialization.
    pub fn slots(&self) -> &[f32; FINGERPRINT_DIM] {
        &self.slots
    }

    /// Rebuilds a fingerprint from serialized slots. Slices of the wrong
    /// width yield `None` (a corrupt checkpoint is a typed refusal at the
    /// caller).
    pub fn from_slots(slots: &[f32]) -> Option<Self> {
        if slots.len() != FINGERPRINT_DIM {
            return None;
        }
        let mut fp = Self::new();
        fp.slots.copy_from_slice(slots);
        Some(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{Featurizer, FeaturizerConfig};

    fn fingerprint(f: &Featurizer, text: &str) -> TopicFingerprint {
        let mut fp = TopicFingerprint::new();
        fp.fold(&f.features(text));
        fp
    }

    fn featurizer() -> Featurizer {
        Featurizer::fit(
            FeaturizerConfig::default(),
            ["post the address", "raid the stream", "lovely weather"]
                .iter()
                .copied(),
        )
    }

    #[test]
    fn identical_documents_overlap_fully() {
        let f = featurizer();
        let a = fingerprint(&f, "post her address and workplace");
        let b = fingerprint(&f, "post her address and workplace");
        assert!((a.overlap(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_topics_overlap_less_than_same_topic() {
        let f = featurizer();
        let doxing = fingerprint(&f, "post the address and phone");
        let doxing2 = fingerprint(&f, "address and phone leaked");
        let weather = fingerprint(&f, "lovely weather for a picnic");
        assert!(doxing.overlap(&doxing2) > doxing.overlap(&weather));
    }

    #[test]
    fn empty_profiles_score_zero() {
        let f = featurizer();
        let a = TopicFingerprint::new();
        let b = fingerprint(&f, "anything at all");
        assert_eq!(a.overlap(&b), 0.0);
        assert_eq!(a.overlap(&a), 0.0);
        assert!(a.is_empty());
        assert!(!b.is_empty());
    }

    #[test]
    fn fold_is_order_independent() {
        let f = featurizer();
        let x = f.features("first document about raids");
        let y = f.features("second document about weather");
        let mut ab = TopicFingerprint::new();
        ab.fold(&x);
        ab.fold(&y);
        let mut ba = TopicFingerprint::new();
        ba.fold(&y);
        ba.fold(&x);
        assert_eq!(ab, ba);
    }

    #[test]
    fn row_fold_matches_vector_fold() {
        let f = featurizer();
        let texts = ["post her address and workplace", "", "raid the stream"];
        let matrix = crate::FeatureMatrix::from_rows(
            f.dimensions(),
            texts
                .iter()
                .map(|t| f.features(t))
                .collect::<Vec<_>>()
                .iter(),
        );
        for (i, text) in texts.iter().enumerate() {
            let (indices, values) = matrix.row(i);
            let by_row = TopicFingerprint::from_row(indices, values);
            let by_vec = fingerprint(&f, text);
            let bits = |fp: &TopicFingerprint| fp.slots().map(f32::to_bits);
            assert_eq!(bits(&by_row), bits(&by_vec), "{text:?}");
        }
    }

    #[test]
    fn slots_roundtrip() {
        let f = featurizer();
        let fp = fingerprint(&f, "post the dox");
        let back = TopicFingerprint::from_slots(fp.slots().as_slice());
        assert_eq!(back, Some(fp));
        assert_eq!(TopicFingerprint::from_slots(&[1.0, 2.0]), None);
    }

    #[test]
    fn overlap_is_clamped_to_unit_interval() {
        let f = featurizer();
        let texts = [
            "post her address",
            "raid the stream tonight",
            "report the account",
            "lovely weather",
        ];
        for a in &texts {
            for b in &texts {
                let fa = fingerprint(&f, a);
                let fb = fingerprint(&f, b);
                let o = fa.overlap(&fb);
                assert!((0.0..=1.0).contains(&o), "overlap {o} out of range");
            }
        }
    }
}
