//! Reproducibility: every stage is a pure function of its seed.

use incite_core::{run_pipeline, PipelineConfig, Task};
use incite_corpus::{generate, CorpusConfig};

#[test]
fn corpus_generation_is_seed_deterministic() {
    let a = generate(&CorpusConfig::tiny(7));
    let b = generate(&CorpusConfig::tiny(7));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.documents.iter().zip(&b.documents) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.text, y.text);
        assert_eq!(x.timestamp, y.timestamp);
        assert_eq!(x.truth, y.truth);
    }
}

#[test]
fn different_seeds_differ() {
    let a = generate(&CorpusConfig::tiny(1));
    let b = generate(&CorpusConfig::tiny(2));
    let diff = a
        .documents
        .iter()
        .zip(&b.documents)
        .filter(|(x, y)| x.text != y.text)
        .count();
    assert!(diff > a.len() / 2, "only {diff} documents differ");
}

#[test]
fn pipeline_outcome_is_seed_deterministic() {
    let corpus = generate(&CorpusConfig::tiny(42));
    let c1 = run_pipeline(&corpus, Task::Dox, &PipelineConfig::quick(9)).expect("pipeline scoring");
    let c2 = run_pipeline(&corpus, Task::Dox, &PipelineConfig::quick(9)).expect("pipeline scoring");
    assert_eq!(c1.counts.true_positives, c2.counts.true_positives);
    assert_eq!(c1.counts.above_threshold, c2.counts.above_threshold);
    assert_eq!(c1.annotated_positive_ids(), c2.annotated_positive_ids());
    let t1: Vec<f64> = c1.thresholds.iter().map(|t| t.threshold).collect();
    let t2: Vec<f64> = c2.thresholds.iter().map(|t| t.threshold).collect();
    assert_eq!(t1, t2);
}

#[test]
fn pipeline_seed_changes_outcome_details() {
    let corpus = generate(&CorpusConfig::tiny(42));
    let c1 = run_pipeline(&corpus, Task::Dox, &PipelineConfig::quick(9)).expect("pipeline scoring");
    let c2 =
        run_pipeline(&corpus, Task::Dox, &PipelineConfig::quick(10)).expect("pipeline scoring");
    // Same corpus, different pipeline seed: sampling-driven counts differ
    // in detail while staying in the same regime.
    assert!(c2.counts.true_positives > 0);
    let ratio = c1.counts.true_positives as f64 / c2.counts.true_positives.max(1) as f64;
    assert!((0.5..2.0).contains(&ratio), "regimes diverged: {ratio}");
}
