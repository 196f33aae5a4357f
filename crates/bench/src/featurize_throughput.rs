//! The `featurize_throughput` experiment: rolling n-gram hashing vs the
//! legacy per-gram string path.
//!
//! `Featurizer::features` hashes every n-gram incrementally with
//! [`incite_textkit::RollingSlot`] — no per-gram string assembly — while
//! `features_legacy` keeps the original formatted-string path as the
//! differential reference. This experiment times both over the repro
//! corpus for every feature mode, verifies the sparse vectors are
//! byte-identical per document (index equality and `f32::to_bits` value
//! equality), and emits a `BENCH {...}` line for CI.

use crate::context::ReproContext;
use incite_ml::{FeatureMode, Featurizer, FeaturizerConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    docs: usize,
    modes: usize,
    legacy_docs_per_sec: f64,
    rolling_docs_per_sec: f64,
    speedup: f64,
    speedup_ok: bool,
    byte_identical: bool,
}

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ featurize_throughput — rolling n-gram hashing ================\n",
    );
    let texts: Vec<&str> = ctx
        .corpus
        .documents
        .iter()
        .map(|d| d.text.as_str())
        .collect();

    let mut legacy_elapsed = 0.0f64;
    let mut rolling_elapsed = 0.0f64;
    let mut byte_identical = true;
    let mut modes = 0usize;
    for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
        modes += 1;
        let featurizer = Featurizer::fit(
            FeaturizerConfig {
                mode,
                ..FeaturizerConfig::default()
            },
            texts.iter().take(512).copied(),
        );

        let start = Instant::now();
        let legacy: Vec<_> = texts
            .iter()
            .map(|t| featurizer.features_legacy(t))
            .collect();
        let mode_legacy = start.elapsed().as_secs_f64();
        legacy_elapsed += mode_legacy;

        let start = Instant::now();
        let rolling: Vec<_> = texts.iter().map(|t| featurizer.features(t)).collect();
        let mode_rolling = start.elapsed().as_secs_f64();
        rolling_elapsed += mode_rolling;

        // The equivalence contract: identical indices, bit-identical values,
        // for every document in the corpus.
        let identical = legacy.iter().zip(&rolling).all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|((i, x), (j, y))| i == j && x.to_bits() == y.to_bits())
        });
        byte_identical &= identical;

        let _ = writeln!(
            s,
            "{mode:?}: legacy {:>9.1} docs/sec | rolling {:>9.1} docs/sec | {:.2}x | byte-identical: {identical}",
            texts.len() as f64 / mode_legacy.max(1e-9),
            texts.len() as f64 / mode_rolling.max(1e-9),
            mode_legacy / mode_rolling.max(1e-9),
        );
    }

    let work = (texts.len() * modes) as f64;
    let legacy_rate = work / legacy_elapsed.max(1e-9);
    let rolling_rate = work / rolling_elapsed.max(1e-9);
    let speedup = legacy_elapsed / rolling_elapsed.max(1e-9);
    let _ = writeln!(
        s,
        "all modes: {legacy_rate:.1} -> {rolling_rate:.1} docs/sec | speedup: {speedup:.2}x | byte-identical: {byte_identical}"
    );

    let bench = BenchReport {
        experiment: "featurize_throughput",
        docs: texts.len(),
        modes,
        legacy_docs_per_sec: legacy_rate,
        rolling_docs_per_sec: rolling_rate,
        speedup,
        speedup_ok: speedup >= 1.0,
        byte_identical,
    };
    crate::push_bench_line(&mut s, &bench);
    s
}
