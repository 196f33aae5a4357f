//! # incite-core
//!
//! The paper's primary contribution: the **filtering pipelines** that
//! discover calls to harassment and doxes inside very large platform
//! corpora (Figure 1). Two parallel pipelines — CTH and dox — share the
//! same machinery:
//!
//! 1. **Bootstrap** ([`bootstrap`]) — a keyword query (Figure 4, expressed
//!    in the [`query`] DSL) seeds the CTH task from the boards; the dox
//!    task seeds from prior-work-style annotations on pastes (§5.1). A
//!    small expert pass labels the seeds.
//! 2. **Classifier training** — an [`incite_ml::TextClassifier`] is
//!    fine-tuned on the labeled seeds (the distilBERT substitution;
//!    DESIGN.md §2).
//! 3. **Active learning** ([`active_learning`]) — the classifier scores the
//!    corpus, documents are sampled evenly across ten predicted-score
//!    deciles, crowd annotators label them (two + tie-break), and the
//!    classifier retrains; repeated for a configurable number of rounds
//!    (§5.3: "we then repeated this process twice per data set").
//! 4. **Full prediction** — the final classifier scores every document.
//!    All full-corpus passes (each round plus the final one) are served by
//!    the featurize-once [`engine::ScoringEngine`]: the corpus is tokenized
//!    a single time into a CSR arena and every pass is a parallel sparse
//!    dot-product sweep on the panic-free [`parallel`] executor.
//! 5. **Threshold selection** ([`threshold`]) — the §5.5 precision-driven
//!    per-platform search.
//! 6. **Final expert annotation** — documents above each platform's
//!    threshold are annotated (exhaustively when small, sampled when
//!    large), yielding the true-positive "annotated" data sets.
//!
//! [`pipeline::run_pipeline`] wires the stages together and returns a
//! [`pipeline::PipelineOutcome`] carrying everything the Figure 1 / Tables
//! 2–4 reproductions and the downstream analyses need.

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]

pub mod accounting;
pub mod active_learning;
pub mod attack_classifier;
pub mod bootstrap;
pub mod checkpoint;
pub mod engine;
pub mod failpoint;
pub mod parallel;
mod persist;
pub mod pipeline;
pub mod query;
pub mod task;
pub mod threshold;

pub use attack_classifier::AttackTypeClassifier;
pub use checkpoint::{
    clear_run_dir, load_latest_classifier, load_latest_classifier_with_hash, CheckpointError,
};
pub use engine::{score_corpus, EngineStats, ScoringEngine, FEATURIZE_CHUNK};
pub use failpoint::{pipeline_sites, FailpointRegistry, InjectedFault};
pub use parallel::ScoreError;
pub use pipeline::{
    run_pipeline, run_pipeline_resumable, ConfigError, PipelineConfig, PipelineError,
    PipelineOutcome,
};
pub use query::Query;
pub use task::Task;
