//! The `incite watch` epoch loop: consume events, checkpoint, repeat.
//!
//! Each iteration processes one epoch through the ranker, then persists
//! it through the `atomic_io` funnel: a record appended to `STREAM.log`,
//! or a compaction into a fresh `STREAM.ckpt` (see [`crate::state`]).
//! Failpoint sites bracket the checkpoint boundary exactly the way the
//! pipeline's sweep does:
//!
//! * `stream-mid-epoch-<n>` fires after epoch `n` is computed but
//!   *before* its checkpoint — a resume replays the whole epoch from the
//!   previous state and must discard the partial work cleanly;
//! * `stream-after-epoch-<n>` fires after the checkpoint — a resume
//!   skips the completed epoch.
//!
//! A compaction adds three sites inside the boundary:
//! `stream-compact-aside-<n>` after the old snapshot is moved aside and
//! before the new one is written (resume loads the aside and replays the
//! log), `stream-compact-renamed-<n>` after the new snapshot is renamed
//! onto the vacant name but before the log is truncated (resume skips the
//! stale records), and `stream-compact-reset-<n>` after the truncation.
//!
//! The kill/resume sweeps in `tests/determinism.rs` iterate these site
//! families and assert byte-identical rankings against an uninterrupted
//! run.

use crate::event::EventStream;
use crate::ranker::{RankerConfig, ThreatRanker};
use crate::state::{CheckpointStats, StateStore};
use crate::StreamError;
use incite_core::failpoint::FailpointRegistry;
use incite_ml::TextClassifier;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Configuration for one watch run.
#[derive(Debug, Clone, Default)]
pub struct WatchConfig {
    pub ranker: RankerConfig,
    /// Checkpoint directory; `None` runs without persistence.
    pub state_dir: Option<PathBuf>,
    /// Fault-injection sites for the kill/resume sweep (empty = no-op).
    pub failpoints: FailpointRegistry,
    /// Stop after this many epochs *this invocation* (None = run to the
    /// end of the stream). Used by split-run resume tests and by callers
    /// that interleave watching with other work.
    pub max_epochs: Option<u64>,
}

/// What a watch run did.
#[derive(Debug, Clone)]
pub struct WatchOutcome {
    /// Total events consumed (including before a resume point).
    pub events: usize,
    /// Total epochs completed (including before a resume point).
    pub epochs: u64,
    /// Event position state was resumed from, if any.
    pub resumed_at: Option<u64>,
    /// Rendered per-target threat rankings.
    pub rankings: String,
    /// What this invocation wrote to the state directory.
    pub checkpoint: CheckpointStats,
}

/// Runs the watch loop over `stream`, resuming from `config.state_dir`
/// when a matching checkpoint exists. `doc_texts` maps every document id
/// the stream can post to its text.
pub fn run_watch(
    stream: &EventStream,
    doc_texts: &BTreeMap<u64, &str>,
    classifier: &TextClassifier,
    config: &WatchConfig,
) -> Result<WatchOutcome, StreamError> {
    let digest = stream.digest();
    let n_actors = stream.actors.len();
    let (mut store, loaded) = match &config.state_dir {
        Some(dir) => {
            let (store, loaded) = StateStore::open(dir, &config.ranker, n_actors, &digest)?;
            (Some(store), loaded)
        }
        None => (None, None),
    };
    let resumed_at = loaded.as_ref().map(|ranker| ranker.next_event() as u64);
    let mut ranker = loaded.unwrap_or_else(|| ThreatRanker::new(config.ranker.clone(), n_actors));

    let mut epochs_this_run = 0u64;
    loop {
        if config.max_epochs.is_some_and(|cap| epochs_this_run >= cap) {
            break;
        }
        let start = ranker.next_event();
        let consumed = ranker.process_epoch(stream, doc_texts, classifier)?;
        if consumed == 0 {
            break;
        }
        epochs_this_run += 1;
        let epoch = ranker.epochs_done();
        // Partial-work site: state for this epoch exists only in memory.
        config
            .failpoints
            .check(&format!("stream-mid-epoch-{epoch}"))?;
        if let Some(store) = &mut store {
            let end = ranker.next_event();
            // The invocation's last epoch compacts, so a clean exit leaves
            // one snapshot and an empty log.
            let last = end >= stream.events.len()
                || config.max_epochs.is_some_and(|cap| epochs_this_run >= cap);
            store.save_epoch(
                &ranker,
                &stream.events[start..end],
                start,
                last,
                &config.failpoints,
            )?;
        }
        // Boundary site: the epoch is durably checkpointed.
        config
            .failpoints
            .check(&format!("stream-after-epoch-{epoch}"))?;
    }

    Ok(WatchOutcome {
        events: ranker.next_event(),
        epochs: ranker.epochs_done(),
        resumed_at,
        rankings: ranker.render_rankings(&stream.actors),
        checkpoint: store.map(|store| store.stats).unwrap_or_default(),
    })
}
