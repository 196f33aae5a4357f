//! Checkpoint/resume of ranker state through the `atomic_io` funnel: a
//! snapshot plus an append-only log of per-epoch deltas.
//!
//! **Layout.** A state directory holds two files:
//!
//! * `STREAM.ckpt`, the full ranker state, written with
//!   [`atomic_io::write_hashed`] (tmp + rename + integrity footer). The
//!   payload is JSON over flat rows (the vendored serde derives structs
//!   and fieldless enums only) and every float is stored as its raw `u32`
//!   bits, so a save/load cycle is byte-exact and resumed runs produce
//!   byte-identical rankings.
//! * `STREAM.log`, an [`atomic_io::AppendLog`] holding one hash-framed
//!   record per epoch since the snapshot. A record holds the stream
//!   positions before and after its epoch and the post-epoch values of
//!   only the rows the epoch's events can touch: the posters' actor rows,
//!   the new follow edges, the new docs, the exposed sets of the amplified
//!   docs and the rows of the targets those docs name. The rows are
//!   derived from the epoch's event slice, so the ranker keeps no dirty
//!   set. Snapshot and record share one set of row encode/apply helpers.
//!
//! During a compaction two more names can appear and then go:
//! `.STREAM.ckpt.tmp`, the new snapshot before its rename, and
//! `.STREAM.ckpt.prev`, the old snapshot moved aside. A clean exit leaves
//! only the two files above.
//!
//! **Saving.** After each epoch the watch loop appends the epoch's record.
//! It rewrites the snapshot instead (compacts) when appending would make
//! the log larger than the snapshot, when the directory has no snapshot
//! yet or its log holds bytes replay skipped, and for the last epoch an
//! invocation runs, so a clean exit leaves one snapshot and an empty log.
//! A pass therefore writes O(state) checkpoint bytes instead of
//! O(epochs × state), replay mid-run is bounded by one snapshot's worth of
//! log, and an invocation that processes no epoch writes nothing.
//!
//! **Compaction** never renames onto an existing file, because on ext4
//! that can block for tens to hundreds of milliseconds (see
//! `atomic_io`). Each step is followed by its failpoint site:
//!
//! 1. encode the snapshot payload;
//! 2. [`atomic_io::set_aside`] renames `STREAM.ckpt` to
//!    `.STREAM.ckpt.prev` (`stream-compact-aside-N`);
//! 3. [`atomic_io::write_hashed`] renames the new snapshot onto the now
//!    vacant `STREAM.ckpt` (`stream-compact-renamed-N`);
//! 4. the log is truncated (`stream-compact-reset-N`);
//! 5. [`atomic_io::discard_aside`] unlinks the old snapshot.
//!
//! A kill after step 2 leaves the aside and the log, which together hold
//! the state before the epoch. A kill after step 3 or 4 leaves the new
//! snapshot beside the aside, which load ignores and the next compaction
//! removes. [`save_state`] runs steps 1–3 and 5; it has no log to
//! truncate.
//!
//! **Replay.** [`load_state`] reads the snapshot, then the log in order.
//! Only if `STREAM.ckpt` does not exist does it read `.STREAM.ckpt.prev`
//! instead, and the next save then compacts. A record applies only when
//! it starts where the state so far ends. Records that end at or before
//! the snapshot's position are stale (a kill between the snapshot rename
//! and the log truncation leaves them) and are skipped. Any other gap is
//! a [`StreamError::StateMismatch`].
//!
//! **Damage.** A torn final record is what a kill mid-append leaves:
//! replay stops at the last complete record, and the next save compacts
//! before anything is appended after the torn bytes. A hash mismatch in
//! any complete record, or in the snapshot, refuses resume with a typed
//! [`StreamError::Checkpoint`]: no panic, and no silent rollback. A
//! damaged `STREAM.ckpt` is never answered from the aside, which holds an
//! older state.
//!
//! **Durability** is `atomic_io`'s: no fsync is issued; both files are
//! atomic against process crashes (renames onto vacant names for the
//! snapshot, one `write(2)` per record, one `ftruncate(2)` per log reset);
//! tearing from a power loss is detected by the hash framing, never
//! resumed from.
//!
//! Both files are bound to the stream digest and the ranker-config
//! fingerprint they were written under; loading them against anything
//! else is a typed [`StreamError::StateMismatch`].

use crate::event::{EventKind, StreamEvent};
use crate::ranker::{ActorState, DocState, RankerConfig, TargetState, ThreatEntry, ThreatRanker};
use crate::StreamError;
use incite_core::checkpoint::atomic_io::{self, AppendLog};
use incite_core::checkpoint::CheckpointError;
use incite_core::failpoint::FailpointRegistry;
use incite_ml::TopicFingerprint;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Snapshot file name inside the state directory.
pub const STATE_FILE: &str = "STREAM.ckpt";

/// Delta log file name inside the state directory.
pub const LOG_FILE: &str = "STREAM.log";

const STATE_VERSION: u32 = 1;

#[derive(Serialize, Deserialize)]
struct StateFile {
    version: u32,
    stream_digest: String,
    config_fingerprint: String,
    next_event: u64,
    epochs_done: u64,
    actors: Vec<ActorRow>,
    follows: Vec<FollowRow>,
    docs: Vec<DocRow>,
    targets: Vec<TargetRow>,
}

/// One epoch's record in `STREAM.log`.
#[derive(Serialize, Deserialize)]
struct DeltaRecord {
    stream_digest: String,
    config_fingerprint: String,
    /// Stream position before the epoch.
    start: u64,
    /// Stream position after the epoch.
    next_event: u64,
    epochs_done: u64,
    actors: Vec<ActorDelta>,
    follows: Vec<FollowRow>,
    docs: Vec<DocRow>,
    exposed: Vec<ExposedRow>,
    targets: Vec<TargetRow>,
}

#[derive(Serialize, Deserialize)]
struct ActorRow {
    /// Fingerprint slots as raw f32 bits (byte-exact roundtrip).
    fingerprint: Vec<u32>,
    history: Vec<u64>,
    posts: u64,
}

/// An actor row in a record, which names its slot (a snapshot's rows are
/// positional).
#[derive(Serialize, Deserialize)]
struct ActorDelta {
    actor: u32,
    row: ActorRow,
}

#[derive(Serialize, Deserialize)]
struct FollowRow {
    followee: u32,
    followers: Vec<u32>,
}

#[derive(Serialize, Deserialize)]
struct DocRow {
    doc: u64,
    author: u32,
    target: Option<u32>,
    toxicity_bits: u32,
    fingerprint: Vec<u32>,
    exposed: Vec<u32>,
}

/// The exposed set of a doc posted before the record's epoch.
#[derive(Serialize, Deserialize)]
struct ExposedRow {
    doc: u64,
    exposed: Vec<u32>,
}

#[derive(Serialize, Deserialize)]
struct TargetRow {
    target: u32,
    ladder_idx: u64,
    seen: u32,
    admitted: u32,
    entries: Vec<EntryRow>,
}

#[derive(Serialize, Deserialize)]
struct EntryRow {
    event: u64,
    doc: u64,
    audience: u32,
    toxicity_bits: u32,
    overlap_bits: u32,
    threat_bits: u32,
    contributors: Vec<u64>,
}

fn pack_fingerprint(fp: &TopicFingerprint) -> Vec<u32> {
    fp.slots().iter().map(|s| s.to_bits()).collect()
}

fn unpack_fingerprint(bits: &[u32]) -> Result<TopicFingerprint, StreamError> {
    let slots: Vec<f32> = bits.iter().map(|b| f32::from_bits(*b)).collect();
    TopicFingerprint::from_slots(&slots).ok_or(StreamError::StateMismatch)
}

impl ActorRow {
    fn encode(state: &ActorState) -> Self {
        ActorRow {
            fingerprint: pack_fingerprint(&state.fingerprint),
            history: state.history.clone(),
            posts: state.posts,
        }
    }

    fn decode(&self) -> Result<ActorState, StreamError> {
        Ok(ActorState {
            fingerprint: unpack_fingerprint(&self.fingerprint)?,
            history: self.history.clone(),
            posts: self.posts,
        })
    }
}

impl FollowRow {
    fn encode(followee: u32, followers: &BTreeSet<u32>) -> Self {
        FollowRow {
            followee,
            followers: followers.iter().copied().collect(),
        }
    }

    /// Unions the row into the graph: edges are never removed, so a
    /// record's new edges and a snapshot's full sets apply alike.
    fn apply(&self, follows: &mut BTreeMap<u32, BTreeSet<u32>>) {
        follows
            .entry(self.followee)
            .or_default()
            .extend(self.followers.iter().copied());
    }
}

impl DocRow {
    fn encode(doc: u64, state: &DocState) -> Self {
        DocRow {
            doc,
            author: state.author,
            target: state.target,
            toxicity_bits: state.toxicity_bits,
            fingerprint: pack_fingerprint(&state.fingerprint),
            exposed: state.exposed.iter().copied().collect(),
        }
    }

    fn apply(&self, docs: &mut BTreeMap<u64, DocState>) -> Result<(), StreamError> {
        docs.insert(
            self.doc,
            DocState {
                author: self.author,
                target: self.target,
                toxicity_bits: self.toxicity_bits,
                fingerprint: unpack_fingerprint(&self.fingerprint)?,
                exposed: self.exposed.iter().copied().collect(),
            },
        );
        Ok(())
    }
}

impl TargetRow {
    fn encode(target: u32, state: &TargetState) -> Self {
        TargetRow {
            target,
            ladder_idx: state.ladder_idx as u64,
            seen: state.seen,
            admitted: state.admitted,
            entries: state
                .entries
                .iter()
                .map(|e| EntryRow {
                    event: e.event,
                    doc: e.doc,
                    audience: e.audience,
                    toxicity_bits: e.toxicity_bits,
                    overlap_bits: e.overlap_bits,
                    threat_bits: e.threat_bits,
                    contributors: e.contributors.clone(),
                })
                .collect(),
        }
    }

    fn apply(&self, targets: &mut BTreeMap<u32, TargetState>) {
        targets.insert(
            self.target,
            TargetState {
                ladder_idx: self.ladder_idx as usize,
                seen: self.seen,
                admitted: self.admitted,
                entries: self
                    .entries
                    .iter()
                    .map(|e| ThreatEntry {
                        event: e.event,
                        doc: e.doc,
                        audience: e.audience,
                        toxicity_bits: e.toxicity_bits,
                        overlap_bits: e.overlap_bits,
                        threat_bits: e.threat_bits,
                        contributors: e.contributors.clone(),
                    })
                    .collect(),
            },
        );
    }
}

impl DeltaRecord {
    /// The post-epoch values of every row `epoch`, the events that moved
    /// `ranker` on from position `start`, can have touched.
    fn encode(
        ranker: &ThreatRanker,
        epoch: &[StreamEvent],
        start: usize,
        stream_digest: &str,
        config_fingerprint: &str,
    ) -> Self {
        let mut posters = BTreeSet::new();
        let mut posted = BTreeSet::new();
        let mut amplified = BTreeSet::new();
        let mut follows: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for event in epoch {
            match event.kind {
                EventKind::Post { doc, author, .. } => {
                    posters.insert(author.0);
                    posted.insert(doc.0);
                }
                EventKind::Amplify { doc, .. } => {
                    amplified.insert(doc.0);
                }
                EventKind::Follow { follower, followee } => {
                    follows.entry(followee.0).or_default().insert(follower.0);
                }
            }
        }
        let targets: BTreeSet<u32> = amplified
            .iter()
            .filter_map(|doc| ranker.docs.get(doc)?.target)
            .collect();
        DeltaRecord {
            stream_digest: stream_digest.to_string(),
            config_fingerprint: config_fingerprint.to_string(),
            start: start as u64,
            next_event: ranker.next_event as u64,
            epochs_done: ranker.epochs_done,
            actors: posters
                .into_iter()
                .filter_map(|actor| {
                    let state = ranker.actors.get(actor as usize)?;
                    Some(ActorDelta {
                        actor,
                        row: ActorRow::encode(state),
                    })
                })
                .collect(),
            follows: follows
                .iter()
                .map(|(followee, followers)| FollowRow::encode(*followee, followers))
                .collect(),
            docs: posted
                .iter()
                .filter_map(|doc| Some(DocRow::encode(*doc, ranker.docs.get(doc)?)))
                .collect(),
            exposed: amplified
                .difference(&posted)
                .filter_map(|doc| {
                    let exposed = ranker.docs.get(doc)?.exposed.iter().copied().collect();
                    Some(ExposedRow { doc: *doc, exposed })
                })
                .collect(),
            targets: targets
                .into_iter()
                .filter_map(|target| Some(TargetRow::encode(target, ranker.targets.get(&target)?)))
                .collect(),
        }
    }

    fn apply(&self, ranker: &mut ThreatRanker) -> Result<(), StreamError> {
        for delta in &self.actors {
            let slot = ranker
                .actors
                .get_mut(delta.actor as usize)
                .ok_or(StreamError::StateMismatch)?;
            *slot = delta.row.decode()?;
        }
        for row in &self.follows {
            row.apply(&mut ranker.follows);
        }
        for row in &self.docs {
            row.apply(&mut ranker.docs)?;
        }
        for row in &self.exposed {
            let doc = ranker
                .docs
                .get_mut(&row.doc)
                .ok_or(StreamError::StateMismatch)?;
            doc.exposed = row.exposed.iter().copied().collect();
        }
        for row in &self.targets {
            row.apply(&mut ranker.targets);
        }
        ranker.next_event = self.next_event as usize;
        ranker.epochs_done = self.epochs_done;
        Ok(())
    }
}

fn decode_json<T: Deserialize>(payload: &[u8]) -> Result<T, StreamError> {
    let text = std::str::from_utf8(payload).map_err(|_| StreamError::StateMismatch)?;
    serde_json::from_str(text).map_err(|_| StreamError::StateMismatch)
}

/// Compaction steps 1–3 (module docs): encodes `ranker`, moves the old
/// `STREAM.ckpt` aside and writes the new one onto the vacant name.
/// Returns the payload hash and its bytes on disk.
fn write_snapshot(
    state_dir: &Path,
    ranker: &ThreatRanker,
    stream_digest: &str,
    failpoints: &FailpointRegistry,
) -> Result<(String, u64), StreamError> {
    let file = StateFile {
        version: STATE_VERSION,
        stream_digest: stream_digest.to_string(),
        config_fingerprint: ranker.config.fingerprint(),
        next_event: ranker.next_event as u64,
        epochs_done: ranker.epochs_done,
        actors: ranker.actors.iter().map(ActorRow::encode).collect(),
        follows: ranker
            .follows
            .iter()
            .map(|(followee, followers)| FollowRow::encode(*followee, followers))
            .collect(),
        docs: ranker
            .docs
            .iter()
            .map(|(doc, state)| DocRow::encode(*doc, state))
            .collect(),
        targets: ranker
            .targets
            .iter()
            .map(|(target, state)| TargetRow::encode(*target, state))
            .collect(),
    };
    let payload = serde_json::to_string(&file).map_err(|_| StreamError::Encode)?;
    let epoch = ranker.epochs_done;
    let path = state_dir.join(STATE_FILE);
    atomic_io::set_aside(&path)?;
    failpoints.check(&format!("stream-compact-aside-{epoch}"))?;
    let hash = atomic_io::write_hashed(&path, payload.as_bytes())?;
    failpoints.check(&format!("stream-compact-renamed-{epoch}"))?;
    Ok((hash, atomic_io::framed_len(payload.len())))
}

/// Compaction step 5: unlinks the snapshot step 2 moved aside. Shared
/// with `save_state` as a function `compact` calls, so INC014 sees the
/// unlink reached from the kill sweep.
fn remove_aside(state_dir: &Path) -> Result<(), StreamError> {
    Ok(atomic_io::discard_aside(&state_dir.join(STATE_FILE))?)
}

/// Whether `error` says the file read does not exist.
fn is_missing(error: &CheckpointError) -> bool {
    matches!(error, CheckpointError::Io { source, .. } if source.kind() == std::io::ErrorKind::NotFound)
}

/// Saves the ranker as a full snapshot to `state_dir/STREAM.ckpt`, bound
/// to `stream_digest`, and returns the payload's content hash. Like a
/// compaction, it never renames onto an existing file; it leaves any
/// `STREAM.log` as it is. The watch loop compacts through the same steps.
pub fn save_state(
    state_dir: &Path,
    ranker: &ThreatRanker,
    stream_digest: &str,
) -> Result<String, StreamError> {
    let (hash, _) = write_snapshot(
        state_dir,
        ranker,
        stream_digest,
        &FailpointRegistry::default(),
    )?;
    remove_aside(state_dir)?;
    Ok(hash)
}

/// Loads a ranker from `state_dir`: the `STREAM.ckpt` snapshot, then the
/// `STREAM.log` records after it (see the module docs for the replay and
/// damage rules). The files must have been written for the same stream
/// digest and an equivalent config.
pub fn load_state(
    state_dir: &Path,
    config: RankerConfig,
    n_actors: usize,
    stream_digest: &str,
) -> Result<ThreatRanker, StreamError> {
    StateStore::new(state_dir, &config, stream_digest).load(config, n_actors)
}

/// Whether a state checkpoint exists in `state_dir`: `STREAM.ckpt`, or
/// the old snapshot a compaction interrupted after its set-aside left.
pub fn has_state(state_dir: &Path) -> bool {
    let path = state_dir.join(STATE_FILE);
    path.is_file() || atomic_io::aside_path(&path).is_ok_and(|aside| aside.is_file())
}

/// What one watch invocation wrote to its state directory. Counts, not
/// timings: the same run writes the same numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshots written (`STREAM.ckpt` rewrites).
    pub snapshots: u64,
    /// Delta records appended to `STREAM.log`.
    pub deltas: u64,
    /// Bytes of both, as framed on disk.
    pub bytes: u64,
}

/// The watch loop's handle on a state directory: decides per epoch
/// between appending a record and compacting.
pub(crate) struct StateStore {
    dir: PathBuf,
    stream_digest: String,
    config_fingerprint: String,
    /// Opened on first use, so an invocation that saves nothing writes
    /// nothing.
    log: Option<AppendLog>,
    snapshot_bytes: u64,
    log_bytes: u64,
    /// The log holds bytes replay skipped: stale records or a torn tail.
    untidy: bool,
    pub(crate) stats: CheckpointStats,
}

impl StateStore {
    fn new(dir: &Path, config: &RankerConfig, stream_digest: &str) -> Self {
        StateStore {
            dir: dir.to_path_buf(),
            stream_digest: stream_digest.to_string(),
            config_fingerprint: config.fingerprint(),
            log: None,
            snapshot_bytes: 0,
            log_bytes: 0,
            untidy: false,
            stats: CheckpointStats::default(),
        }
    }

    /// Opens `dir`, loading its checkpointed ranker if it has one. Reads
    /// only.
    pub(crate) fn open(
        dir: &Path,
        config: &RankerConfig,
        n_actors: usize,
        stream_digest: &str,
    ) -> Result<(Self, Option<ThreatRanker>), StreamError> {
        let mut store = StateStore::new(dir, config, stream_digest);
        let ranker = if has_state(dir) {
            Some(store.load(config.clone(), n_actors)?)
        } else {
            None
        };
        Ok((store, ranker))
    }

    /// Reads the snapshot and replays the log after it, noting the sizes
    /// of both and whether the log holds bytes replay skipped.
    fn load(&mut self, config: RankerConfig, n_actors: usize) -> Result<ThreatRanker, StreamError> {
        let path = self.dir.join(STATE_FILE);
        let payload = match atomic_io::read_hashed(&path) {
            // A compaction was killed after its set-aside: the aside and
            // the log hold the state, and the next save compacts.
            Err(missing) if is_missing(&missing) => {
                self.untidy = true;
                match atomic_io::read_hashed(&atomic_io::aside_path(&path)?) {
                    Err(aside) if is_missing(&aside) => return Err(missing.into()),
                    read => read?,
                }
            }
            read => read?,
        };
        self.snapshot_bytes = atomic_io::framed_len(payload.len());
        let file: StateFile = decode_json(&payload)?;
        if file.version != STATE_VERSION
            || file.stream_digest != self.stream_digest
            || file.config_fingerprint != self.config_fingerprint
            || file.actors.len() != n_actors
        {
            return Err(StreamError::StateMismatch);
        }

        let mut ranker = ThreatRanker::new(config, n_actors);
        ranker.next_event = file.next_event as usize;
        ranker.epochs_done = file.epochs_done;
        for (slot, row) in ranker.actors.iter_mut().zip(file.actors.iter()) {
            *slot = row.decode()?;
        }
        for row in &file.follows {
            row.apply(&mut ranker.follows);
        }
        for row in &file.docs {
            row.apply(&mut ranker.docs)?;
        }
        for row in &file.targets {
            row.apply(&mut ranker.targets);
        }

        let (records, torn) = match atomic_io::read_log_strict(&self.dir.join(LOG_FILE)) {
            Err(missing) if is_missing(&missing) => (Vec::new(), None),
            read => read?,
        };
        self.untidy |= torn.is_some();
        for payload in &records {
            self.log_bytes += atomic_io::framed_len(payload.len());
            let record: DeltaRecord = decode_json(payload)?;
            if record.stream_digest != self.stream_digest
                || record.config_fingerprint != self.config_fingerprint
            {
                return Err(StreamError::StateMismatch);
            }
            if record.next_event <= file.next_event {
                self.untidy = true;
                continue;
            }
            if record.start != ranker.next_event as u64 || record.next_event <= record.start {
                return Err(StreamError::StateMismatch);
            }
            record.apply(&mut ranker)?;
        }
        Ok(ranker)
    }

    /// Persists the epoch that moved `ranker` on from position `start`
    /// over `epoch`: appends its record, or compacts when the module docs
    /// say so. `last` marks the invocation's final epoch, which compacts.
    pub(crate) fn save_epoch(
        &mut self,
        ranker: &ThreatRanker,
        epoch: &[StreamEvent],
        start: usize,
        last: bool,
        failpoints: &FailpointRegistry,
    ) -> Result<(), StreamError> {
        if !last && !self.untidy {
            let record = DeltaRecord::encode(
                ranker,
                epoch,
                start,
                &self.stream_digest,
                &self.config_fingerprint,
            );
            let payload = serde_json::to_string(&record).map_err(|_| StreamError::Encode)?;
            let bytes = atomic_io::framed_len(payload.len());
            if self.log_bytes + bytes <= self.snapshot_bytes {
                self.log()?.append(payload.as_bytes())?;
                self.log_bytes += bytes;
                self.stats.deltas += 1;
                self.stats.bytes += bytes;
                return Ok(());
            }
        }
        self.compact(ranker, failpoints)
    }

    /// Rewrites the snapshot from `ranker`, then empties the log, in the
    /// step order of the module docs. A kill between the two leaves
    /// records that replay skips as stale.
    fn compact(
        &mut self,
        ranker: &ThreatRanker,
        failpoints: &FailpointRegistry,
    ) -> Result<(), StreamError> {
        let (_, bytes) = write_snapshot(&self.dir, ranker, &self.stream_digest, failpoints)?;
        self.snapshot_bytes = bytes;
        self.stats.snapshots += 1;
        self.stats.bytes += bytes;
        self.log()?.truncate()?;
        self.log_bytes = 0;
        self.untidy = false;
        failpoints.check(&format!("stream-compact-reset-{}", ranker.epochs_done()))?;
        remove_aside(&self.dir)
    }

    fn log(&mut self) -> Result<&mut AppendLog, StreamError> {
        let log = match self.log.take() {
            Some(log) => log,
            None => AppendLog::open(&self.dir.join(LOG_FILE))?,
        };
        Ok(self.log.insert(log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranker::RankerConfig;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("incite-stream-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() -> Result<(), StreamError> {
        let dir = temp_dir("roundtrip");
        let mut ranker = ThreatRanker::new(RankerConfig::default(), 3);
        ranker.next_event = 42;
        ranker.epochs_done = 2;
        ranker.follows.insert(1, [0u32, 2].into_iter().collect());
        ranker.actors[1].history = vec![10, 11];
        ranker.actors[1].posts = 2;
        ranker.targets.insert(
            2,
            TargetState {
                ladder_idx: 3,
                seen: 5,
                admitted: 1,
                entries: vec![ThreatEntry {
                    event: 9,
                    doc: 10,
                    audience: 0,
                    toxicity_bits: 0.75f32.to_bits(),
                    overlap_bits: 0.5f32.to_bits(),
                    threat_bits: 0.375f32.to_bits(),
                    contributors: vec![10, 11],
                }],
            },
        );

        save_state(&dir, &ranker, "digest-a")?;
        assert!(has_state(&dir));
        let loaded = load_state(&dir, RankerConfig::default(), 3, "digest-a")?;
        assert_eq!(loaded.next_event, 42);
        assert_eq!(loaded.epochs_done, 2);
        assert_eq!(loaded.follows, ranker.follows);
        assert_eq!(loaded.actors[1].history, vec![10, 11]);
        let target = loaded.targets.get(&2).expect("target restored");
        assert_eq!(target.ladder_idx, 3);
        assert_eq!(target.entries, ranker.targets[&2].entries);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn mismatched_digest_or_config_is_refused() -> Result<(), StreamError> {
        let dir = temp_dir("mismatch");
        let ranker = ThreatRanker::new(RankerConfig::default(), 2);
        save_state(&dir, &ranker, "digest-a")?;
        assert!(matches!(
            load_state(&dir, RankerConfig::default(), 2, "digest-b"),
            Err(StreamError::StateMismatch)
        ));
        let other_config = RankerConfig {
            top_k: 99,
            ..RankerConfig::default()
        };
        assert!(matches!(
            load_state(&dir, other_config, 2, "digest-a"),
            Err(StreamError::StateMismatch)
        ));
        // Thread count is not part of the fingerprint: state written at
        // one thread count loads at another.
        let threads_config = RankerConfig {
            threads: 8,
            ..RankerConfig::default()
        };
        assert!(load_state(&dir, threads_config, 2, "digest-a").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
