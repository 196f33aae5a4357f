//! Featurize-once batch scoring: CSR feature storage and feature caching.
//!
//! The pipeline applies the classifier to the *entire* corpus once per
//! active-learning round and again for final prediction (Figure 1). The
//! featurizer is fitted once and never changes across retrains, so
//! re-tokenizing every document on every pass is pure waste: featurize the
//! corpus exactly once into a compact CSR arena ([`FeatureMatrix`]) and
//! serve every subsequent pass as sparse dot products against the current
//! weight vector.
//!
//! Two building blocks live here:
//!
//! * [`FeatureMatrix`] — a CSR-style arena: one flat `indices` buffer, one
//!   flat `values` buffer, and row offsets. No per-row allocation, cache
//!   friendly row iteration, and rows score bit-identically to
//!   [`LogisticRegression::predict_proba`](crate::LogisticRegression::predict_proba)
//!   on the equivalent [`SparseVec`].
//! * [`FeatureCache`] — a keyed memo of featurized documents, used to
//!   featurize the growing training set once across the eval/final
//!   retrains instead of re-running WordPiece tokenization per retrain.

use crate::data::Dataset;
use crate::featurize::Featurizer;
use crate::logreg::LogisticRegression;
use crate::sparse::SparseVec;
use std::collections::HashMap;

/// A compact CSR (compressed sparse row) matrix of featurized documents.
///
/// Row `i` occupies `indices[offsets[i]..offsets[i + 1]]` and the parallel
/// `values` range. Indices within a row are strictly increasing (inherited
/// from the [`SparseVec`] invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    indices: Vec<u32>,
    values: Vec<f32>,
    /// `rows + 1` offsets into `indices` / `values`.
    offsets: Vec<usize>,
    dimensions: usize,
}

impl FeatureMatrix {
    /// An empty matrix over a feature space of `dimensions` slots.
    pub fn new(dimensions: usize) -> Self {
        FeatureMatrix {
            indices: Vec::new(),
            values: Vec::new(),
            offsets: vec![0],
            dimensions,
        }
    }

    /// An empty matrix with room for `rows` rows of ~`nnz_per_row` entries.
    pub fn with_capacity(dimensions: usize, rows: usize, nnz_per_row: usize) -> Self {
        let mut m = FeatureMatrix::new(dimensions);
        m.offsets.reserve(rows);
        m.indices.reserve(rows * nnz_per_row);
        m.values.reserve(rows * nnz_per_row);
        m
    }

    /// Builds a matrix from featurized rows, preserving order.
    pub fn from_rows<'a, I>(dimensions: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = &'a SparseVec>,
    {
        let mut m = FeatureMatrix::new(dimensions);
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Appends one row of `(index, value)` entries in ascending index
    /// order.
    pub fn push_row(&mut self, row: &[(u32, f32)]) {
        self.indices.extend(row.iter().map(|&(i, _)| i));
        self.values.extend(row.iter().map(|&(_, v)| v));
        self.offsets.push(self.indices.len());
    }

    /// Joins row blocks built independently (one per worker chunk) into
    /// one matrix, in order. The first part becomes the result and grows
    /// in place; each later part is dropped once it is copied.
    pub fn concat(dimensions: usize, parts: Vec<FeatureMatrix>) -> Self {
        let nnz: usize = parts.iter().skip(1).map(FeatureMatrix::nnz).sum();
        let rows: usize = parts.iter().skip(1).map(FeatureMatrix::len).sum();
        let mut parts = parts.into_iter();
        let mut m = parts.next().unwrap_or_default();
        m.dimensions = dimensions;
        m.indices.reserve_exact(nnz);
        m.values.reserve_exact(nnz);
        m.offsets.reserve_exact(rows);
        for part in parts {
            let base = m.indices.len();
            m.indices.extend_from_slice(&part.indices);
            m.values.extend_from_slice(&part.values);
            m.offsets
                .extend(part.offsets.iter().skip(1).map(|end| base + end));
        }
        m
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Feature-space dimensionality.
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// Row `i` as parallel `(indices, values)` slices. Rows out of range
    /// are empty.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&start), Some(&end)) => (&self.indices[start..end], &self.values[start..end]),
            _ => (&[], &[]),
        }
    }

    /// Positive-class probability for row `i` under `model` — one sparse
    /// dot product, no featurization.
    pub fn score_row(&self, model: &LogisticRegression, i: usize) -> f32 {
        let (indices, values) = self.row(i);
        model.predict_proba_row(indices, values)
    }

    /// Scores the row tile `[start, start + out.len())` with the block-tiled
    /// spmv kernel, writing row `start + r`'s probability into `out[r]`.
    ///
    /// The kernel sweeps the tile's rows over ascending column blocks of
    /// `COL_BLOCK` weights (128 KiB of f32 — sized to stay resident in
    /// L2), so one hot slice of the weight vector serves every row of the
    /// tile before the sweep moves on, instead of each row walking the full
    /// weight vector cold. Each row keeps ONE running accumulator carried
    /// across blocks, so its products are summed in exactly the ascending-
    /// index order of [`LogisticRegression::predict_proba_row`] — tiling
    /// changes the memory schedule, never the float summation order, and
    /// the output is bit-identical to `score_row` per row.
    pub fn score_rows(&self, model: &LogisticRegression, start: usize, out: &mut [f32]) {
        let rows = out.len();
        assert!(
            start + rows <= self.len(),
            "row tile [{start}, {}) out of range (rows: {})",
            start + rows,
            self.len()
        );
        let weights = model.weights();
        // Per-row cursor into the CSR arena and per-row running margin.
        let mut cursors: Vec<usize> = (0..rows).map(|r| self.offsets[start + r]).collect();
        let mut margins = vec![0.0f32; rows];
        let mut block_end: u64 = COL_BLOCK as u64;
        loop {
            let mut remaining = false;
            for r in 0..rows {
                let end = self.offsets[start + r + 1];
                let mut cur = cursors[r];
                let mut sum = margins[r];
                // Unrolled in-order accumulation: indices are sorted, so if
                // the 4th entry is still inside the block, all four are.
                while cur + 4 <= end && (self.indices[cur + 3] as u64) < block_end {
                    sum = accumulate(sum, weights, self.indices[cur], self.values[cur]);
                    sum = accumulate(sum, weights, self.indices[cur + 1], self.values[cur + 1]);
                    sum = accumulate(sum, weights, self.indices[cur + 2], self.values[cur + 2]);
                    sum = accumulate(sum, weights, self.indices[cur + 3], self.values[cur + 3]);
                    cur += 4;
                }
                while cur < end && (self.indices[cur] as u64) < block_end {
                    sum = accumulate(sum, weights, self.indices[cur], self.values[cur]);
                    cur += 1;
                }
                margins[r] = sum;
                cursors[r] = cur;
                remaining |= cur < end;
            }
            if !remaining {
                break;
            }
            block_end += COL_BLOCK as u64;
        }
        for r in 0..rows {
            out[r] = model.proba_from_margin(margins[r]);
        }
    }
}

impl Default for FeatureMatrix {
    /// An empty matrix over a zero-slot feature space.
    fn default() -> Self {
        FeatureMatrix::new(0)
    }
}

/// Column-block width of the tiled spmv: 2^15 f32 weights = 128 KiB.
const COL_BLOCK: usize = 1 << 15;

/// Row-tile height: how many rows share one sweep over the weight blocks.
/// Also the parallel work unit the scoring engine hands to `core::parallel`.
pub const ROW_TILE: usize = 256;

/// One guarded multiply-accumulate step, shared by the unrolled and tail
/// loops so both keep `predict_proba_row`'s exact skip semantics for
/// indices outside the weight vector.
#[inline(always)]
fn accumulate(sum: f32, weights: &[f32], index: u32, value: f32) -> f32 {
    match weights.get(index as usize) {
        Some(w) => sum + value * w,
        None => sum,
    }
}

/// A keyed cache of featurized documents.
///
/// The pipeline's training set only ever grows (bootstrap seeds, then
/// crowd-labeled documents per round), while the fitted featurizer never
/// changes — so each text needs featurizing exactly once even though the
/// model retrains after every round plus twice more for the Table 3
/// evaluation. Keys are caller-chosen (the pipeline uses document ids).
#[derive(Debug, Clone, Default)]
pub struct FeatureCache {
    map: HashMap<u64, SparseVec>,
    hits: usize,
}

impl FeatureCache {
    /// An empty cache.
    pub fn new() -> Self {
        FeatureCache::default()
    }

    /// The features for `(key, text)`, featurizing on first sight only.
    pub fn features(&mut self, featurizer: &Featurizer, key: u64, text: &str) -> &SparseVec {
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => e.insert(featurizer.features(text)),
        }
    }

    /// Assembles a labeled [`Dataset`] for the given `(key, text, label)`
    /// triples, featurizing only texts not yet cached.
    pub fn dataset<'a, I>(&mut self, featurizer: &Featurizer, items: I) -> Dataset
    where
        I: IntoIterator<Item = (u64, &'a str, bool)>,
    {
        let mut data = Dataset::new();
        for (key, text, label) in items {
            let features = self.features(featurizer, key, text).clone();
            data.push(features, label);
        }
        data
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// How many lookups were served from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{FeatureMode, FeaturizerConfig};
    use crate::logreg::TrainConfig;

    fn featurizer() -> Featurizer {
        Featurizer::fit(
            FeaturizerConfig {
                mode: FeatureMode::Word,
                hash_bits: 12,
                ..Default::default()
            },
            ["report him", "flag her account", "nice weather today"],
        )
    }

    fn model(dimensions: usize) -> LogisticRegression {
        let mut data = Dataset::new();
        for i in 0..50 {
            data.push(vec![(0, 1.0), ((i % 5 + 2) as u32, 0.5)], true);
            data.push(vec![(1, 1.0), ((i % 5 + 2) as u32, 0.5)], false);
        }
        LogisticRegression::train(&data, dimensions, TrainConfig::default())
    }

    /// Scores every row tile by tile, as the engine's parallel pass does.
    fn score_tiles(m: &FeatureMatrix, model: &LogisticRegression) -> Vec<f32> {
        let mut out = vec![0.0f32; m.len()];
        for (t, tile) in out.chunks_mut(ROW_TILE).enumerate() {
            m.score_rows(model, t * ROW_TILE, tile);
        }
        out
    }

    #[test]
    fn matrix_round_trips_rows() {
        let rows: Vec<SparseVec> = vec![
            vec![(0, 1.0), (5, 2.0)],
            vec![],
            vec![(3, -1.0)],
            vec![(1, 0.25), (2, 0.5), (9, 4.0)],
        ];
        let m = FeatureMatrix::from_rows(16, rows.iter());
        assert_eq!(m.len(), 4);
        assert_eq!(m.nnz(), 6);
        for (i, row) in rows.iter().enumerate() {
            let (indices, values) = m.row(i);
            let rebuilt: SparseVec = indices
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            assert_eq!(&rebuilt, row);
        }
    }

    #[test]
    fn concat_joins_parts_in_order() {
        let rows: Vec<SparseVec> = vec![
            vec![(0, 1.0), (5, 2.0)],
            vec![],
            vec![(3, -1.0)],
            vec![(1, 0.25), (2, 0.5), (9, 4.0)],
            vec![(7, 1.5)],
        ];
        let whole = FeatureMatrix::from_rows(16, rows.iter());
        for split in [vec![], vec![5], vec![0, 5], vec![2, 3], vec![1, 1, 4]] {
            let mut parts = Vec::new();
            let mut start = 0;
            for end in split.iter().copied().chain(std::iter::once(rows.len())) {
                parts.push(FeatureMatrix::from_rows(99, rows[start..end].iter()));
                start = end;
            }
            assert_eq!(FeatureMatrix::concat(16, parts), whole, "split {split:?}");
        }
        assert_eq!(
            FeatureMatrix::concat(16, Vec::new()),
            FeatureMatrix::new(16)
        );
        assert!(FeatureMatrix::default().is_empty());
    }

    #[test]
    fn out_of_range_row_is_empty() {
        let m = FeatureMatrix::new(8);
        assert_eq!(m.row(3), (&[][..], &[][..]));
        assert!(m.is_empty());
    }

    #[test]
    fn row_scores_match_sparse_scores() {
        let rows: Vec<SparseVec> = vec![
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(0, 0.5), (1, 0.5), (3, 2.0)],
            vec![],
        ];
        let m = FeatureMatrix::from_rows(16, rows.iter());
        let model = model(16);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.score_row(&model, i), model.predict_proba(row), "row {i}");
        }
        assert_eq!(score_tiles(&m, &model).len(), rows.len());
    }

    #[test]
    fn tiled_scores_are_bit_identical_to_row_scores() {
        // Deterministic pseudo-random rows spanning many column blocks,
        // plus empty rows and a row denser than the unroll width.
        let dims = COL_BLOCK * 4;
        let mut rows: Vec<SparseVec> = Vec::new();
        let mut state = 0x5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for r in 0..(ROW_TILE * 2 + 37) {
            if r % 11 == 0 {
                rows.push(Vec::new());
                continue;
            }
            let nnz = 1 + (next() % 23) as usize;
            let mut row: SparseVec = (0..nnz)
                .map(|_| {
                    let i = (next() % dims as u64) as u32;
                    let v = ((next() % 2001) as f32 - 1000.0) / 250.0;
                    (i, v)
                })
                .collect();
            row.sort_unstable_by_key(|(i, _)| *i);
            row.dedup_by_key(|(i, _)| *i);
            row.retain(|(_, v)| *v != 0.0);
            rows.push(row);
        }
        let m = FeatureMatrix::from_rows(dims, rows.iter());
        let model = model(dims);
        let tiled = score_tiles(&m, &model);
        assert_eq!(tiled.len(), m.len());
        for (i, score) in tiled.iter().enumerate() {
            assert_eq!(score.to_bits(), m.score_row(&model, i).to_bits(), "row {i}");
        }
    }

    #[test]
    fn tiled_kernel_skips_indices_beyond_model() {
        // A model narrower than the feature space: out-of-range indices
        // must be skipped, not scored, exactly as predict_proba_row does.
        let rows: Vec<SparseVec> = vec![
            vec![(0, 1.0), (15, 2.0), (100_000, 5.0)],
            vec![(99_999, 3.0)],
        ];
        let m = FeatureMatrix::from_rows(1 << 17, rows.iter());
        let model = model(16);
        let tiled = score_tiles(&m, &model);
        for (i, score) in tiled.iter().enumerate() {
            assert_eq!(score.to_bits(), m.score_row(&model, i).to_bits());
        }
    }

    #[test]
    fn partial_tile_scores_the_requested_rows() {
        let rows: Vec<SparseVec> = (0..10).map(|i| vec![(i as u32, 1.0)]).collect();
        let m = FeatureMatrix::from_rows(16, rows.iter());
        let model = model(16);
        let mut out = vec![0.0f32; 3];
        m.score_rows(&model, 4, &mut out);
        for (r, score) in out.iter().enumerate() {
            assert_eq!(score.to_bits(), m.score_row(&model, 4 + r).to_bits());
        }
    }

    #[test]
    fn cache_featurizes_each_key_once() {
        let f = featurizer();
        let mut cache = FeatureCache::new();
        let first = cache.features(&f, 1, "report him").clone();
        let second = cache.features(&f, 1, "report him").clone();
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_dataset_matches_direct_featurization() {
        let f = featurizer();
        let mut cache = FeatureCache::new();
        let items = [(1u64, "report him", true), (2u64, "nice weather", false)];
        let data = cache.dataset(&f, items.iter().map(|(k, t, l)| (*k, *t, *l)));
        assert_eq!(data.len(), 2);
        assert_eq!(data.examples[0].features, f.features("report him"));
        assert_eq!(data.examples[1].features, f.features("nice weather"));
        // A second assembly of a superset featurizes only the new text.
        let more = [
            (1u64, "report him", true),
            (2u64, "nice weather", false),
            (3u64, "flag her account", true),
        ];
        let data2 = cache.dataset(&f, more.iter().map(|(k, t, l)| (*k, *t, *l)));
        assert_eq!(data2.len(), 3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits(), 2);
    }
}
