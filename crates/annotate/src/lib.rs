//! # incite-annotate
//!
//! Annotation-workflow simulation, standing in for the paper's human
//! annotators (§5.3; see DESIGN.md §2). Annotation is modeled as a noise
//! process over the corpus generator's planted ground truth:
//!
//! * [`annotator`] — noisy annotator models with calibrated accuracy
//!   presets (crowd vs domain expert, per task).
//! * [`workflow`] — the two-annotator + tie-break consensus protocol, with
//!   disagreement accounting and Cohen's kappa over the first two passes.

pub mod annotator;
pub mod workflow;

pub use annotator::Annotator;
pub use workflow::{annotate_batch, BatchOutcome};
