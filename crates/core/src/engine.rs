//! The featurize-once scoring engine.
//!
//! `run_pipeline` applies the classifier to every applicable document once
//! per active-learning round and once more for final prediction — at paper
//! scale, 560 M documents scored `al_rounds + 1` times. Tokenization
//! dominates that cost, yet the fitted featurizer never changes across
//! retrains; only the weight vector does. The engine therefore featurizes
//! the corpus exactly once into a CSR [`FeatureMatrix`] (built in parallel
//! on the panic-free executor) and serves every subsequent pass as sparse
//! dot products against the current model:
//! `O(passes × tokenize)` → `O(1 × tokenize + passes × spmv)`.
//!
//! Featurize runs in fixed chunks of [`FEATURIZE_CHUNK`] documents on
//! [`map_indexed_coarse`]. Each chunk owns a fresh [`FeaturizeScratch`]
//! (its buffers and word memo) and appends its rows straight into its own
//! CSR arena; the arenas are joined in chunk order. No per-row vector is
//! built.
//!
//! Determinism contract: featurization is a pure per-document function and
//! every scoring pass writes slot `i` from row `i` alone, so scores are
//! byte-identical across thread counts (see [`crate::parallel`]). Chunk
//! boundaries do not depend on the thread count either, so neither do
//! the memo's hit counts.

use crate::parallel::{map_indexed, map_indexed_coarse, ScoreError};
use incite_corpus::{DocId, Document};
use incite_ml::batch::{FeatureMatrix, ROW_TILE};
use incite_ml::{FeaturizeScratch, Featurizer, LogisticRegression, TextClassifier};
use incite_textkit::MemoStats;

/// Documents per featurize chunk in [`ScoringEngine::build`]: each chunk
/// gets one word memo and one CSR arena.
pub const FEATURIZE_CHUNK: usize = 16 * ROW_TILE;

/// Instrumentation for the featurize-once invariant and the BENCH report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Documents held in the feature arena.
    pub documents: usize,
    /// Non-zeros in the CSR arena.
    pub nnz: usize,
    /// Full-corpus featurization passes performed (the invariant: 1).
    pub featurize_passes: usize,
    /// Full-corpus scoring passes served from the arena.
    pub score_passes: usize,
}

/// A corpus featurized once, scorable many times.
#[derive(Debug, Clone)]
pub struct ScoringEngine {
    ids: Vec<DocId>,
    matrix: FeatureMatrix,
    stats: EngineStats,
    memo: MemoStats,
}

impl ScoringEngine {
    /// Featurizes `docs` (in order, in parallel) into the CSR arena. This
    /// is the single `O(corpus × tokenize)` step; every later
    /// [`Self::score_all`] is an spmv pass.
    pub fn build(
        featurizer: &Featurizer,
        docs: &[&Document],
        threads: usize,
    ) -> Result<Self, ScoreError> {
        let (matrix, memo) =
            featurize_chunks(featurizer, docs.len(), FEATURIZE_CHUNK, threads, |i| {
                &docs[i].text
            })?;
        let stats = EngineStats {
            documents: matrix.len(),
            nnz: matrix.nnz(),
            featurize_passes: 1,
            score_passes: 0,
        };
        Ok(ScoringEngine {
            ids: docs.iter().map(|d| d.id).collect(),
            matrix,
            stats,
            memo,
        })
    }

    /// Scores every cached document against the *current* model — one
    /// parallel sparse-matrix × dense-vector pass, no tokenization. Results
    /// are bit-identical to `classifier.score(&doc.text)` per document and
    /// byte-identical across thread counts.
    pub fn score_all(
        &mut self,
        model: &LogisticRegression,
        threads: usize,
    ) -> Result<Vec<(DocId, f32)>, ScoreError> {
        let scores = score_matrix(&self.matrix, model, threads)?;
        self.stats.score_passes += 1;
        Ok(self.ids.iter().copied().zip(scores).collect())
    }

    /// Scores raw `texts` against `classifier` — the reusable
    /// single/batch entry the online inference service (`incite-serve`)
    /// serves from.
    ///
    /// [`featurize_texts`] then [`score_matrix`]. Slot `i` of the result
    /// is a pure function of `texts[i]` and the model alone, so every
    /// score is bit-identical to `classifier.score(texts[i])` — and
    /// therefore to an offline engine pass over the same documents — at
    /// any thread count and under any batching of the inputs.
    pub fn score_texts(
        classifier: &TextClassifier,
        texts: &[&str],
        threads: usize,
    ) -> Result<Vec<f32>, ScoreError> {
        let matrix = featurize_texts(classifier.featurizer(), texts, threads)?;
        score_matrix(&matrix, classifier.model(), threads)
    }

    /// The CSR arena: row `i` is document `i`'s features.
    pub fn matrix(&self) -> &FeatureMatrix {
        &self.matrix
    }

    /// Word tokens the build encoded, and how many its chunks' memos
    /// served. Kept out of [`EngineStats`], which outcome digests and
    /// checkpoints pin.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Whether the engine holds no documents.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// Featurize/score pass counters and arena size.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Overwrites the pass counters with checkpointed values after a
    /// crash-recovery rebuild.
    ///
    /// Resuming a checkpointed pipeline re-featurizes the corpus into a
    /// fresh arena (the CSR buffers are derivable state and are not
    /// persisted), which would reset `featurize_passes`/`score_passes` and
    /// break the byte-identical-outcome contract. Restoring the saved
    /// counters keeps `PipelineOutcome::engine` identical to an
    /// uninterrupted run. The arena-shape fields double as an integrity
    /// check: a `documents`/`nnz` mismatch means the corpus or featurizer
    /// differs from the checkpointed run, and the restore is refused.
    pub fn restore_stats(&mut self, saved: EngineStats) -> Result<(), EngineStats> {
        if saved.documents != self.stats.documents || saved.nnz != self.stats.nnz {
            return Err(self.stats);
        }
        self.stats = saved;
        Ok(())
    }
}

/// Featurizes `texts` into a CSR matrix, row `i` from `texts[i]`, with
/// the kernel [`ScoringEngine::build`] uses. Chunks are [`ROW_TILE`]
/// documents, so a batch of more than one tile fans out across workers.
pub fn featurize_texts(
    featurizer: &Featurizer,
    texts: &[&str],
    threads: usize,
) -> Result<FeatureMatrix, ScoreError> {
    let (matrix, _) = featurize_chunks(featurizer, texts.len(), ROW_TILE, threads, |i| texts[i])?;
    Ok(matrix)
}

/// Featurizes documents `0..n` in fixed chunks of `chunk`, one
/// [`FeaturizeScratch`] and one CSR arena per chunk, and joins the
/// arenas in chunk order. Returns the summed memo counts as well.
fn featurize_chunks<'a>(
    featurizer: &Featurizer,
    n: usize,
    chunk: usize,
    threads: usize,
    text: impl Fn(usize) -> &'a str + Sync,
) -> Result<(FeatureMatrix, MemoStats), ScoreError> {
    let dimensions = featurizer.dimensions();
    let parts = map_indexed_coarse(n.div_ceil(chunk), threads, 1, |c| {
        let rows = c * chunk..n.min((c + 1) * chunk);
        let mut scratch = FeaturizeScratch::for_docs(rows.len());
        let mut part = FeatureMatrix::with_capacity(dimensions, rows.len(), 0);
        for i in rows {
            part.push_row(featurizer.features_into(text(i), &mut scratch));
        }
        (part, scratch.memo_stats())
    })?;
    let memo = parts
        .iter()
        .fold(MemoStats::default(), |sum, (_, m)| sum + *m);
    let parts = parts.into_iter().map(|(part, _)| part).collect();
    Ok((FeatureMatrix::concat(dimensions, parts), memo))
}

/// One parallel pass of the block-tiled spmv over every matrix row.
///
/// The parallel work unit is a fixed tile of [`ROW_TILE`] consecutive rows
/// (the tiled kernel's natural granularity), scored by
/// [`FeatureMatrix::score_rows`] and flattened back in tile order. Tile `t`
/// always covers rows `[t·ROW_TILE, (t+1)·ROW_TILE)` and the kernel keeps
/// one in-order accumulator per row, so the output is bit-identical to a
/// serial `score_row` sweep at any thread count.
pub fn score_matrix(
    matrix: &FeatureMatrix,
    model: &LogisticRegression,
    threads: usize,
) -> Result<Vec<f32>, ScoreError> {
    let rows = matrix.len();
    let tiles = rows.div_ceil(ROW_TILE);
    let tiled: Vec<Vec<f32>> = map_indexed(tiles, threads, |t| {
        let start = t * ROW_TILE;
        let mut out = vec![0.0f32; ROW_TILE.min(rows - start)];
        matrix.score_rows(model, start, &mut out);
        out
    })?;
    Ok(tiled.into_iter().flatten().collect())
}

/// Scores `docs` with `classifier` on `threads` workers.
///
/// One-shot convenience over [`ScoringEngine`]: featurizes once, scores
/// once. Callers that score the same documents repeatedly should hold an
/// engine instead and pay featurization a single time.
pub fn score_corpus(
    classifier: &TextClassifier,
    docs: &[&Document],
    threads: usize,
) -> Result<Vec<(DocId, f32)>, ScoreError> {
    let mut engine = ScoringEngine::build(classifier.featurizer(), docs, threads)?;
    engine.score_all(classifier.model(), threads)
}
