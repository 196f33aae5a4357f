//! # incite-stream
//!
//! Streaming amplification events and two-axis threat ranking — the
//! `incite watch` subsystem (DESIGN.md §18). The batch pipeline answers
//! "which documents were incitements" after the fact; this crate answers
//! the operational question the paper's measurements motivate: *as
//! amplification happens, which targets are accumulating the riskiest
//! newly-exposed audiences?*
//!
//! * [`event`] — the typed event model (post / amplify / follow) and its
//!   validated JSONL codec.
//! * [`mod@simulate`] — a seeded, deterministic event simulator over the
//!   corpus' platform/persona model.
//! * [`ranker`] — the streaming threat ranker: toxicity via the same
//!   [`incite_core::ScoringEngine`] micro-batch path serve uses, topic
//!   overlap via [`incite_ml::TopicFingerprint`], ranked per-target
//!   threat lists on the toxicity × overlap plane with evidence.
//! * [`state`] — checkpoint/resume of ranker state through the
//!   `atomic_io` funnel: a snapshot plus an append-only per-epoch delta
//!   log.
//! * [`watch`] — the epoch loop tying it together, with failpoint sites
//!   at both sides of the checkpoint boundary for the kill/resume sweep.
//!
//! Determinism contract: rankings are byte-identical across thread
//! counts (per-epoch scoring uses `core::parallel::map_indexed`; every
//! cross-event fold is sequential in event order) and across kill/resume
//! at any checkpoint boundary.

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]

pub mod event;
pub mod ranker;
pub mod simulate;
pub mod state;
pub mod watch;

pub use event::{ActorId, EventId, EventKind, EventStream, StreamEvent};
pub use ranker::{RankerConfig, ThreatEntry, ThreatRanker};
pub use simulate::{simulate, SimConfig};
pub use state::CheckpointStats;
pub use watch::{run_watch, WatchConfig, WatchOutcome};

use incite_core::checkpoint::CheckpointError;
use incite_core::failpoint::InjectedFault;
use incite_core::parallel::ScoreError;

/// Typed errors for the stream subsystem. Variants carry identifiers,
/// line numbers and counts — never document or event-line text (INC013).
#[derive(Debug)]
pub enum StreamError {
    /// Checkpoint I/O failed (wraps the atomic_io/checkpoint error).
    Checkpoint(CheckpointError),
    /// The scoring engine failed; `kind` is its stable error class.
    Score { kind: &'static str },
    /// An event referenced a document absent from the corpus.
    UnknownDoc { doc: u64 },
    /// An event referenced an actor outside the stream's actor table.
    UnknownActor { actor: u32 },
    /// An amplify event arrived before its document's post event.
    AmplifyBeforePost { event: u64, doc: u64 },
    /// An event line failed to parse or violated stream ordering.
    BadEventLine { line: usize },
    /// The input is not an event stream (missing or foreign header).
    MissingHeader,
    /// A checkpoint was written for a different stream or configuration.
    StateMismatch,
    /// Serialization failed (vendored serde refused a value).
    Encode,
    /// A deterministic fault injected at a failpoint site (test builds).
    Fault(InjectedFault),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            StreamError::Score { kind } => write!(f, "scoring failed: {kind}"),
            StreamError::UnknownDoc { doc } => {
                write!(f, "event references unknown document {doc}")
            }
            StreamError::UnknownActor { actor } => {
                write!(f, "event references actor {actor} outside the actor table")
            }
            StreamError::AmplifyBeforePost { event, doc } => write!(
                f,
                "event {event} amplifies document {doc} before its post event"
            ),
            StreamError::BadEventLine { line } => {
                write!(f, "malformed or out-of-order event at line {line}")
            }
            StreamError::MissingHeader => {
                write!(f, "input is not an incite event stream (bad header)")
            }
            StreamError::StateMismatch => write!(
                f,
                "checkpointed state was written for a different stream or config"
            ),
            StreamError::Encode => write!(f, "serialization failed"),
            StreamError::Fault(fault) => write!(f, "injected fault: {fault}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> Self {
        StreamError::Checkpoint(e)
    }
}

impl From<ScoreError> for StreamError {
    fn from(e: ScoreError) -> Self {
        StreamError::Score { kind: e.kind() }
    }
}

impl From<InjectedFault> for StreamError {
    fn from(fault: InjectedFault) -> Self {
        StreamError::Fault(fault)
    }
}
