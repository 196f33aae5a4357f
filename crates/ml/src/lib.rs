//! # incite-ml
//!
//! Machine-learning substrate: the linear text-classification stack that
//! stands in for the paper's distilBERT fine-tuning (see DESIGN.md §2 for
//! the substitution argument). It provides:
//!
//! * [`sparse`] — sparse feature vectors and dense-weight operations.
//! * [`batch`] — featurize-once batch scoring: the CSR [`batch::FeatureMatrix`]
//!   arena and the keyed [`batch::FeatureCache`] that let the pipeline
//!   tokenize each document exactly once across all scoring passes and
//!   retrains.
//! * [`featurize`] — the document → features pipeline: normalization, span
//!   sampling (§5.2), tokenization, optional WordPiece subwords, n-grams and
//!   feature hashing.
//! * [`fingerprint`] — fixed-width topic fingerprints folded from hashed
//!   n-gram features; the topic-overlap axis of the streaming threat
//!   ranker.
//! * [`logreg`] — L2-regularized logistic regression trained with AdaGrad
//!   SGD; outputs calibrated probabilities in `[0, 1]`, which is what the
//!   threshold-selection procedure of §5.5 consumes.
//! * [`naive_bayes`] — a multinomial naive Bayes baseline.
//! * [`data`] — labeled datasets, stratified train/test splits, k-fold CV.
//! * [`model`] — [`model::TextClassifier`], the end-to-end text-in,
//!   probability-out API the pipeline uses, and
//!   [`model::TextClassifier::from_parts`], which rebuilds one from what
//!   a model file holds.

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]
// INC003 (DESIGN.md §10): compare computed floats by epsilon or `to_bits()`.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod batch;
pub mod data;
pub mod featurize;
pub mod fingerprint;
pub mod logreg;
pub mod model;
pub mod naive_bayes;
pub mod sparse;

pub use batch::{FeatureCache, FeatureMatrix};
pub use data::{kfold, train_test_split, Dataset, Example};
pub use featurize::{FeatureMode, FeaturizeScratch, Featurizer, FeaturizerConfig, SPAN_CAP};
pub use fingerprint::{TopicFingerprint, FINGERPRINT_DIM};
pub use logreg::{LogisticRegression, TrainConfig};
pub use model::{PartsError, TextClassifier};
pub use naive_bayes::NaiveBayes;
pub use sparse::SparseVec;
