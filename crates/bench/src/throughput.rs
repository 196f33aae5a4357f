//! The `score_throughput` experiment: featurize-once engine vs the naive
//! per-pass scoring loop.
//!
//! The pipeline scores the full applicable corpus `al_rounds + 1` times
//! (each active-learning round plus final prediction). The naive loop
//! re-tokenizes every document on every pass; the
//! [`incite_core::ScoringEngine`] tokenizes once into a CSR arena and
//! serves each pass as a parallel spmv sweep. This experiment times both
//! on the same documents and model, checks the scores are byte-identical,
//! and emits a single machine-readable `BENCH {...}` line that CI greps
//! for `"speedup_ok":true`.

use crate::context::ReproContext;
use incite_core::{ScoringEngine, Task};
use incite_corpus::Document;
use incite_ml::{FeaturizerConfig, TextClassifier, TrainConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    docs: usize,
    passes: usize,
    threads: usize,
    nnz: usize,
    featurize_passes: usize,
    score_passes: usize,
    serial_docs_per_sec: f64,
    cached_parallel_docs_per_sec: f64,
    speedup: f64,
    speedup_ok: bool,
    byte_identical: bool,
}

/// Scoring passes the pipeline performs at the reference configuration:
/// two active-learning rounds plus the final full prediction.
const PASSES: usize = 3;

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ score_throughput — featurize-once engine ================\n",
    );
    let task = Task::Dox;
    let docs: Vec<&Document> = ctx
        .corpus
        .documents
        .iter()
        .filter(|d| task.applies_to(d.platform))
        .collect();
    let threads = num_threads();

    // Train a classifier the way the pipeline does: subword features on a
    // truth-labeled seed slice.
    let labeled: Vec<(&str, bool)> = docs
        .iter()
        .take(1_000)
        .map(|d| (d.text.as_str(), task.truth(d)))
        .collect();
    let classifier =
        TextClassifier::train(labeled, FeaturizerConfig::default(), TrainConfig::default());

    // Naive path: every pass re-tokenizes every document (what the
    // pipeline did before the engine existed).
    let serial_start = Instant::now();
    let mut serial_scores: Vec<f32> = Vec::new();
    for pass in 0..PASSES {
        let scores: Vec<f32> = docs.iter().map(|d| classifier.score(&d.text)).collect();
        if pass == 0 {
            serial_scores = scores;
        }
    }
    let serial_elapsed = serial_start.elapsed();

    // Engine path: featurize once in parallel, then serve every pass as an
    // spmv sweep.
    let engine_start = Instant::now();
    let mut engine = ScoringEngine::build(classifier.featurizer(), &docs, threads)
        .expect("engine featurization");
    let mut engine_scores: Vec<(incite_corpus::DocId, f32)> = Vec::new();
    for pass in 0..PASSES {
        let scores = engine
            .score_all(classifier.model(), threads)
            .expect("engine scoring");
        if pass == 0 {
            engine_scores = scores;
        }
    }
    let engine_elapsed = engine_start.elapsed();

    // The determinism contract: the engine's scores are bit-identical to
    // the per-document path.
    let byte_identical = serial_scores.len() == engine_scores.len()
        && serial_scores
            .iter()
            .zip(&engine_scores)
            .all(|(a, (_, b))| a.to_bits() == b.to_bits());

    let work = (docs.len() * PASSES) as f64;
    let serial_rate = work / serial_elapsed.as_secs_f64().max(1e-9);
    let engine_rate = work / engine_elapsed.as_secs_f64().max(1e-9);
    let speedup = serial_elapsed.as_secs_f64() / engine_elapsed.as_secs_f64().max(1e-9);
    let stats = engine.stats();

    let _ = writeln!(
        s,
        "documents: {} | passes: {} | threads: {} | arena nnz: {}",
        docs.len(),
        PASSES,
        threads,
        stats.nnz
    );
    let _ = writeln!(
        s,
        "naive per-pass loop : {:>10.1} docs/sec ({:.3}s total)",
        serial_rate,
        serial_elapsed.as_secs_f64()
    );
    let _ = writeln!(
        s,
        "featurize-once engine: {:>10.1} docs/sec ({:.3}s total, {} featurize pass, {} score passes)",
        engine_rate,
        engine_elapsed.as_secs_f64(),
        stats.featurize_passes,
        stats.score_passes
    );
    let _ = writeln!(
        s,
        "speedup: {speedup:.2}x | byte-identical scores: {byte_identical}"
    );

    let bench = BenchReport {
        experiment: "score_throughput",
        docs: docs.len(),
        passes: PASSES,
        threads,
        nnz: stats.nnz,
        featurize_passes: stats.featurize_passes,
        score_passes: stats.score_passes,
        serial_docs_per_sec: serial_rate,
        cached_parallel_docs_per_sec: engine_rate,
        speedup,
        speedup_ok: speedup >= 1.0,
        byte_identical,
    };
    crate::push_bench_line(&mut s, &bench);
    s
}
