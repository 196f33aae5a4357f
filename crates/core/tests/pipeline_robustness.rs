//! Failure-injection tests: the pipeline must degrade gracefully, never
//! panic, on degenerate corpora.

use incite_core::{run_pipeline, PipelineConfig, Task};
use incite_corpus::{generate, CorpusConfig};

#[test]
fn pipeline_survives_a_corpus_with_no_positives() {
    let config = CorpusConfig {
        positive_scale: 0.0,
        ..CorpusConfig::tiny(3)
    };
    let corpus = generate(&config);
    for task in Task::ALL {
        let out = run_pipeline(&corpus, task, &PipelineConfig::quick(1)).expect("pipeline scoring");
        // Nothing (or nearly nothing — annotator noise can admit a stray
        // false positive) should survive the expert pass.
        assert!(
            out.counts.true_positives <= out.counts.final_annotated,
            "{task}"
        );
        let truth_positives = corpus.documents.iter().filter(|d| task.truth(d)).count();
        if truth_positives == 0 {
            assert!(
                out.counts.true_positives < 20,
                "{task}: {} phantom positives",
                out.counts.true_positives
            );
        }
    }
}

#[test]
fn pipeline_survives_tiny_annotation_budgets() {
    let corpus = generate(&CorpusConfig::tiny(9));
    let config = PipelineConfig {
        annotation_budget: 3,
        per_decile: 1,
        max_seeds: 20,
        ..PipelineConfig::quick(2)
    };
    let out = run_pipeline(&corpus, Task::Dox, &config).expect("pipeline scoring");
    for t in &out.thresholds {
        assert!(t.annotated <= 3, "budget exceeded on {:?}", t.platform);
    }
}

#[test]
fn pipeline_survives_zero_active_learning_rounds() {
    let corpus = generate(&CorpusConfig::tiny(9));
    let config = PipelineConfig {
        al_rounds: 0,
        ..PipelineConfig::quick(2)
    };
    let out = run_pipeline(&corpus, Task::Dox, &config).expect("pipeline scoring");
    assert!(out.rounds.is_empty());
    assert_eq!(out.counts.crowd_annotations, 0);
    // Seeds alone still give a usable dox classifier on this corpus.
    assert!(out.counts.true_positives > 0);
}
