//! # incite-corpus
//!
//! Synthetic five-platform corpus generation — the stand-in for the paper's
//! proprietary threat-intelligence crawls (Table 1; see DESIGN.md §2 for the
//! substitution rationale).
//!
//! The generator plants ground-truth calls to harassment and doxes whose
//! attack-type (Tables 5/11), gender (Table 10) and PII (Table 6)
//! distributions are drawn from the paper's published numbers
//! ([`incite_taxonomy::calibration`]). Planted positives are kept at the
//! paper's **absolute annotated counts** while benign volume scales with
//! [`CorpusConfig::scale`]; this keeps the downstream characterization
//! tables directly comparable to the paper at any corpus scale
//! (EXPERIMENTS.md documents the consequences).
//!
//! Everything is deterministic given [`CorpusConfig::seed`]. **No real data
//! is used anywhere**: names, handles, addresses, phone numbers (reserved
//! 555 exchange), SSNs (invalid 000 area) and card numbers (test IINs) are
//! all synthesized.
//!
//! Modules:
//! * [`document`] — the document model and planted ground truth.
//! * [`config`] — generation parameters.
//! * [`pii_gen`] — synthetic-PII factory.
//! * [`textgen`] — benign platform chatter.
//! * [`cth_gen`] / [`dox_gen`] — positive-document generators.
//! * [`labels`] — calibrated sampling of label sets, genders, PII profiles.
//! * [`platforms`] — per-platform structure (board threads, chat channels,
//!   pastes, Gab posts, blog posts).
//! * [`generator`] — the orchestrator producing a [`Corpus`].
//! * [`jsonl`] — JSONL import/export.

pub mod config;
pub mod cth_gen;
pub mod document;
pub mod dox_gen;
pub mod generator;
pub mod jsonl;
pub mod labels;
pub mod markov;
pub mod pii_gen;
pub mod platforms;
pub mod soft_dox;
pub mod textgen;

pub use config::CorpusConfig;
pub use document::{DocId, Document, GroundTruth, ThreadRef};
pub use generator::{generate, Corpus};
pub use jsonl::{
    read_jsonl, read_jsonl_quarantine, redact_excerpt, write_jsonl, JsonlError, QuarantineStats,
};
