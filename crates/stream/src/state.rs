//! Checkpoint/resume of ranker state through the `atomic_io` funnel: a
//! snapshot plus an append-only log of per-epoch deltas.
//!
//! **Layout.** A state directory holds two files:
//!
//! * `STREAM.ckpt`, the full ranker state, written with
//!   [`atomic_io::write_hashed`] (tmp + rename + integrity footer).
//! * `STREAM.log`, an [`atomic_io::AppendLog`] holding one hash-framed
//!   record per epoch since the snapshot. A record holds the stream
//!   positions before and after its epoch and the post-epoch values of
//!   only the rows the epoch's events can touch: the posters' actor rows,
//!   the new follow edges, the new docs, the exposed sets of the amplified
//!   docs and the rows of the targets those docs name. The rows are
//!   derived from the epoch's event slice, so the ranker keeps no dirty
//!   set.
//!
//! **Format** (state version 2). Both payloads are
//! [`codec`](incite_core::checkpoint::codec) frames: an 8-byte tag
//! (`ISTREAM2` for the snapshot, `ISDELTA2` for a record), the stream
//! digest and config fingerprint as length-prefixed strings, then the
//! stream position and epoch count as `u64`s (a record: its start
//! position, then those two) and sequences of rows, each a `u32` count
//! followed by fixed-width little-endian columns:
//!
//! * actor: fingerprint, history (`u32` count, `u64` docs), posts `u64`;
//!   the snapshot lists every actor slot in order, and a record puts the
//!   slot (`u32`) before each row;
//! * follow: followee `u32`, followers (`u32` count, `u32`s);
//! * doc: id `u64`, author `u32`, target (`u8` 0, or 1 and a `u32`),
//!   toxicity bits `u32`, fingerprint, exposed (`u32` count, `u32`s);
//! * exposed (records only): doc `u64`, exposed (`u32` count, `u32`s);
//! * target: id `u32`, ladder index `u64`, seen and admitted `u32`,
//!   entries (`u32` count; each event and doc `u64`, audience and the
//!   toxicity, overlap and threat bits `u32`, contributors (`u32` count,
//!   `u64`s)).
//!
//! A fingerprint is its 64 slots as raw `u32` bits and every score is its
//! raw `f32` bits, so a save/load cycle is byte-exact and resumed runs
//! produce byte-identical rankings. One set of row helpers encodes
//! straight from the ranker's maps and decodes straight back into them,
//! for snapshot and record alike. A record is escaped with
//! [`escape_record`] before it is appended, so it holds no newline and no
//! `#`, the bytes the log's framing reads. A payload that does not decode
//! is a [`CheckpointError::Corrupt`] naming the file and the offset, and a
//! state directory written by a version-1 binary (JSON) is refused with a
//! [`CheckpointError::Incompatible`] that asks for a fresh directory.
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
use incite_core::checkpoint::codec::{escape_record, unescape_record, CodecError, Reader, Writer};
use incite_core::checkpoint::CheckpointError;
use incite_core::failpoint::FailpointRegistry;
use incite_ml::fingerprint::FINGERPRINT_DIM;
use incite_ml::TopicFingerprint;
use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Snapshot file name inside the state directory.
pub const STATE_FILE: &str = "STREAM.ckpt";

/// Delta log file name inside the state directory.
const LOG_FILE: &str = "STREAM.log";

/// The on-disk format this module writes and reads: version 1 was JSON,
/// version 2 is the binary codec of the module docs.
const STATE_VERSION: u32 = 2;

/// Frame tags of a version-2 snapshot and log record.
const SNAPSHOT_TAG: &[u8; 8] = b"ISTREAM2";
const RECORD_TAG: &[u8; 8] = b"ISDELTA2";

/// Bytes of a fingerprint: its slots as `u32` bits.
const FINGERPRINT_BYTES: usize = FINGERPRINT_DIM * 4;

/// The fewest bytes each row kind takes (its sequences empty), which
/// bound a row count before anything is allocated for it.
const ACTOR_ROW: usize = FINGERPRINT_BYTES + 4 + 8;
const FOLLOW_ROW: usize = 4 + 4;
const DOC_ROW: usize = 8 + 4 + 1 + 4 + FINGERPRINT_BYTES + 4;
const EXPOSED_ROW: usize = 8 + 4;
const TARGET_ROW: usize = 4 + 8 + 4 + 4 + 4;
const ENTRY_ROW: usize = 8 + 8 + 4 * 4 + 4;

/// Why a state payload was not loaded.
#[derive(Debug)]
enum Refusal {
    /// It does not decode; the codec names the offset.
    Corrupt(CodecError),
    /// It was written for another stream or config.
    Mismatch,
    /// It was written by a state-version-1 binary (JSON).
    Version1,
}

impl From<CodecError> for Refusal {
    fn from(e: CodecError) -> Self {
        Refusal::Corrupt(e)
    }
}

impl Refusal {
    /// The typed error for this refusal of the file `path`, or of its log
    /// record starting at byte `record_at`.
    fn into_error(self, path: &Path, record_at: Option<u64>) -> StreamError {
        match self {
            Refusal::Mismatch => StreamError::StateMismatch,
            Refusal::Version1 => StreamError::Checkpoint(CheckpointError::Incompatible {
                detail: format!(
                    "{} holds watch state in format version 1 (JSON), and this incite reads \
                     version {STATE_VERSION}; rerun without the old state directory, or with a \
                     new --state directory",
                    path.display()
                ),
            }),
            Refusal::Corrupt(e) => StreamError::Checkpoint(match record_at {
                None => e.corrupt(path),
                Some(at) => CheckpointError::Corrupt {
                    path: path.to_path_buf(),
                    detail: format!("log record at byte {at}: {e}"),
                },
            }),
        }
    }
}

/// Writes the two strings both state files are bound to.
fn put_key(w: &mut Writer, stream_digest: &str, config_fingerprint: &str) {
    w.blob(stream_digest.as_bytes());
    w.blob(config_fingerprint.as_bytes());
}

/// Reads the strings [`put_key`] wrote; any other pair is a mismatch.
fn check_key(
    r: &mut Reader<'_>,
    stream_digest: &str,
    config_fingerprint: &str,
) -> Result<(), Refusal> {
    if r.blob()? != stream_digest.as_bytes() || r.blob()? != config_fingerprint.as_bytes() {
        return Err(Refusal::Mismatch);
    }
    Ok(())
}

fn put_fingerprint(w: &mut Writer, fp: &TopicFingerprint) {
    for slot in fp.slots() {
        w.u32(slot.to_bits());
    }
}

fn get_fingerprint(r: &mut Reader<'_>) -> Result<TopicFingerprint, CodecError> {
    let offset = r.pos();
    let bytes = r.take(FINGERPRINT_BYTES)?;
    let mut slots = [0f32; FINGERPRINT_DIM];
    for (slot, bits) in slots.iter_mut().zip(bytes.chunks_exact(4)) {
        let bits = <[u8; 4]>::try_from(bits).map_err(|_| CodecError {
            offset,
            detail: "fingerprint is truncated",
        })?;
        *slot = f32::from_bits(u32::from_le_bytes(bits));
    }
    TopicFingerprint::from_slots(&slots).ok_or(CodecError {
        offset,
        detail: "fingerprint has the wrong width",
    })
}

fn put_u32_set(w: &mut Writer, values: &BTreeSet<u32>) {
    w.len_u32(values.len());
    for value in values {
        w.u32(*value);
    }
}

fn get_u32_set(r: &mut Reader<'_>) -> Result<BTreeSet<u32>, CodecError> {
    let n = r.len_u32(4)?;
    (0..n).map(|_| r.u32()).collect()
}

fn put_u64s(w: &mut Writer, values: &[u64]) {
    w.len_u32(values.len());
    for value in values {
        w.u64(*value);
    }
}

fn get_u64s(r: &mut Reader<'_>) -> Result<Vec<u64>, CodecError> {
    let n = r.len_u32(8)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.u64()?);
    }
    Ok(values)
}

fn put_actor(w: &mut Writer, actor: &ActorState) {
    put_fingerprint(w, &actor.fingerprint);
    put_u64s(w, &actor.history);
    w.u64(actor.posts);
}

fn get_actor(r: &mut Reader<'_>) -> Result<ActorState, CodecError> {
    Ok(ActorState {
        fingerprint: get_fingerprint(r)?,
        history: get_u64s(r)?,
        posts: r.u64()?,
    })
}

fn put_follow(w: &mut Writer, followee: u32, followers: &BTreeSet<u32>) {
    w.u32(followee);
    put_u32_set(w, followers);
}

/// Unions a follow row into the graph: edges are never removed, so a
/// record's new edges and a snapshot's full sets apply alike.
fn get_follow(
    r: &mut Reader<'_>,
    follows: &mut BTreeMap<u32, BTreeSet<u32>>,
) -> Result<(), CodecError> {
    let followee = r.u32()?;
    let followers = get_u32_set(r)?;
    match follows.entry(followee) {
        btree_map::Entry::Vacant(entry) => {
            entry.insert(followers);
        }
        btree_map::Entry::Occupied(entry) => entry.into_mut().extend(followers),
    }
    Ok(())
}

fn put_doc(w: &mut Writer, doc: u64, state: &DocState) {
    w.u64(doc);
    w.u32(state.author);
    match state.target {
        None => w.u8(0),
        Some(target) => {
            w.u8(1);
            w.u32(target);
        }
    }
    w.u32(state.toxicity_bits);
    put_fingerprint(w, &state.fingerprint);
    put_u32_set(w, &state.exposed);
}

fn get_doc(r: &mut Reader<'_>) -> Result<(u64, DocState), CodecError> {
    let doc = r.u64()?;
    let author = r.u32()?;
    let offset = r.pos();
    let target = match r.u8()? {
        0 => None,
        1 => Some(r.u32()?),
        _ => {
            return Err(CodecError {
                offset,
                detail: "doc target tag is not 0 or 1",
            })
        }
    };
    let state = DocState {
        author,
        target,
        toxicity_bits: r.u32()?,
        fingerprint: get_fingerprint(r)?,
        exposed: get_u32_set(r)?,
    };
    Ok((doc, state))
}

fn put_target(w: &mut Writer, target: u32, state: &TargetState) {
    w.u32(target);
    w.u64(state.ladder_idx as u64);
    w.u32(state.seen);
    w.u32(state.admitted);
    w.len_u32(state.entries.len());
    for entry in &state.entries {
        w.u64(entry.event);
        w.u64(entry.doc);
        w.u32(entry.audience);
        w.u32(entry.toxicity_bits);
        w.u32(entry.overlap_bits);
        w.u32(entry.threat_bits);
        put_u64s(w, &entry.contributors);
    }
}

fn get_target(r: &mut Reader<'_>) -> Result<(u32, TargetState), CodecError> {
    let target = r.u32()?;
    let ladder_idx = r.u64()? as usize;
    let seen = r.u32()?;
    let admitted = r.u32()?;
    let n = r.len_u32(ENTRY_ROW)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(ThreatEntry {
            event: r.u64()?,
            doc: r.u64()?,
            audience: r.u32()?,
            toxicity_bits: r.u32()?,
            overlap_bits: r.u32()?,
            threat_bits: r.u32()?,
            contributors: get_u64s(r)?,
        });
    }
    let state = TargetState {
        ladder_idx,
        seen,
        admitted,
        entries,
    };
    Ok((target, state))
}

/// The snapshot payload of `ranker`.
fn encode_snapshot(
    ranker: &ThreatRanker,
    stream_digest: &str,
    config_fingerprint: &str,
) -> Vec<u8> {
    let rows = ranker.actors.len() * ACTOR_ROW + ranker.docs.len() * DOC_ROW;
    let mut w = Writer::new(SNAPSHOT_TAG, rows + rows / 4);
    put_key(&mut w, stream_digest, config_fingerprint);
    w.u64(ranker.next_event as u64);
    w.u64(ranker.epochs_done);
    w.len_u32(ranker.actors.len());
    for actor in &ranker.actors {
        put_actor(&mut w, actor);
    }
    w.len_u32(ranker.follows.len());
    for (followee, followers) in &ranker.follows {
        put_follow(&mut w, *followee, followers);
    }
    w.len_u32(ranker.docs.len());
    for (doc, state) in &ranker.docs {
        put_doc(&mut w, *doc, state);
    }
    w.len_u32(ranker.targets.len());
    for (target, state) in &ranker.targets {
        put_target(&mut w, *target, state);
    }
    w.finish()
}

/// Decodes a snapshot payload written for `stream_digest` and
/// `config_fingerprint` into a ranker over `n_actors` actors.
fn decode_snapshot(
    payload: &[u8],
    config: RankerConfig,
    n_actors: usize,
    stream_digest: &str,
    config_fingerprint: &str,
) -> Result<ThreatRanker, Refusal> {
    if payload.starts_with(b"{") {
        return Err(Refusal::Version1);
    }
    let mut r = Reader::new(payload, SNAPSHOT_TAG)?;
    check_key(&mut r, stream_digest, config_fingerprint)?;
    let next_event = r.u64()? as usize;
    let epochs_done = r.u64()?;
    let offset = r.pos();
    if r.len_u32(ACTOR_ROW)? != n_actors {
        return Err(Refusal::Corrupt(CodecError {
            offset,
            detail: "actor count differs from the stream's actor table",
        }));
    }
    let mut ranker = ThreatRanker::new(config, n_actors);
    ranker.next_event = next_event;
    ranker.epochs_done = epochs_done;
    for actor in &mut ranker.actors {
        *actor = get_actor(&mut r)?;
    }
    for _ in 0..r.len_u32(FOLLOW_ROW)? {
        get_follow(&mut r, &mut ranker.follows)?;
    }
    for _ in 0..r.len_u32(DOC_ROW)? {
        let (doc, state) = get_doc(&mut r)?;
        ranker.docs.insert(doc, state);
    }
    for _ in 0..r.len_u32(TARGET_ROW)? {
        let (target, state) = get_target(&mut r)?;
        ranker.targets.insert(target, state);
    }
    r.finish()?;
    Ok(ranker)
}

/// The escaped log record of the epoch `epoch`, the events that moved
/// `ranker` on from position `start`: the post-epoch values of every row
/// those events can have touched.
fn encode_record(
    ranker: &ThreatRanker,
    epoch: &[StreamEvent],
    start: usize,
    stream_digest: &str,
    config_fingerprint: &str,
) -> Vec<u8> {
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
    let actors: Vec<(u32, &ActorState)> = posters
        .iter()
        .filter_map(|&actor| Some((actor, ranker.actors.get(actor as usize)?)))
        .collect();
    let docs: Vec<(u64, &DocState)> = posted
        .iter()
        .filter_map(|&doc| Some((doc, ranker.docs.get(&doc)?)))
        .collect();
    let exposed: Vec<(u64, &DocState)> = amplified
        .difference(&posted)
        .filter_map(|&doc| Some((doc, ranker.docs.get(&doc)?)))
        .collect();
    let targets: BTreeSet<u32> = amplified
        .iter()
        .filter_map(|doc| ranker.docs.get(doc)?.target)
        .collect();
    let targets: Vec<(u32, &TargetState)> = targets
        .into_iter()
        .filter_map(|target| Some((target, ranker.targets.get(&target)?)))
        .collect();

    let mut w = Writer::new(
        RECORD_TAG,
        actors.len() * ACTOR_ROW + docs.len() * DOC_ROW + 1024,
    );
    put_key(&mut w, stream_digest, config_fingerprint);
    w.u64(start as u64);
    w.u64(ranker.next_event as u64);
    w.u64(ranker.epochs_done);
    w.len_u32(actors.len());
    for (actor, state) in actors {
        w.u32(actor);
        put_actor(&mut w, state);
    }
    w.len_u32(follows.len());
    for (followee, followers) in &follows {
        put_follow(&mut w, *followee, followers);
    }
    w.len_u32(docs.len());
    for (doc, state) in docs {
        put_doc(&mut w, doc, state);
    }
    w.len_u32(exposed.len());
    for (doc, state) in exposed {
        w.u64(doc);
        put_u32_set(&mut w, &state.exposed);
    }
    w.len_u32(targets.len());
    for (target, state) in targets {
        put_target(&mut w, target, state);
    }
    escape_record(&w.finish())
}

/// Applies the escaped log record `record` to `ranker`, which a snapshot
/// ending at stream position `snapshot_end` started. Returns `false` for
/// a stale record, one the snapshot already covers, which it skips.
fn apply_record(
    record: &[u8],
    ranker: &mut ThreatRanker,
    snapshot_end: u64,
    stream_digest: &str,
    config_fingerprint: &str,
) -> Result<bool, Refusal> {
    if record.starts_with(b"{") {
        return Err(Refusal::Version1);
    }
    let payload = unescape_record(record)?;
    let mut r = Reader::new(&payload, RECORD_TAG)?;
    check_key(&mut r, stream_digest, config_fingerprint)?;
    let start = r.u64()?;
    let next_event = r.u64()?;
    let epochs_done = r.u64()?;
    if next_event <= snapshot_end {
        return Ok(false);
    }
    if start != ranker.next_event as u64 || next_event <= start {
        return Err(Refusal::Mismatch);
    }
    for _ in 0..r.len_u32(4 + ACTOR_ROW)? {
        let offset = r.pos();
        let slot = r.u32()?;
        let actor = ranker.actors.get_mut(slot as usize).ok_or(CodecError {
            offset,
            detail: "actor slot outside the actor table",
        })?;
        *actor = get_actor(&mut r)?;
    }
    for _ in 0..r.len_u32(FOLLOW_ROW)? {
        get_follow(&mut r, &mut ranker.follows)?;
    }
    for _ in 0..r.len_u32(DOC_ROW)? {
        let (doc, state) = get_doc(&mut r)?;
        ranker.docs.insert(doc, state);
    }
    for _ in 0..r.len_u32(EXPOSED_ROW)? {
        let offset = r.pos();
        let doc = ranker.docs.get_mut(&r.u64()?).ok_or(CodecError {
            offset,
            detail: "exposed set of a doc the state does not hold",
        })?;
        doc.exposed = get_u32_set(&mut r)?;
    }
    for _ in 0..r.len_u32(TARGET_ROW)? {
        let (target, state) = get_target(&mut r)?;
        ranker.targets.insert(target, state);
    }
    r.finish()?;
    ranker.next_event = next_event as usize;
    ranker.epochs_done = epochs_done;
    Ok(true)
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
    let payload = encode_snapshot(ranker, stream_digest, &ranker.config.fingerprint());
    let epoch = ranker.epochs_done;
    let path = state_dir.join(STATE_FILE);
    atomic_io::set_aside(&path)?;
    failpoints.check(&format!("stream-compact-aside-{epoch}"))?;
    let hash = atomic_io::write_hashed(&path, &payload)?;
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
fn has_state(state_dir: &Path) -> bool {
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
        let (path, payload) = match atomic_io::read_hashed(&path) {
            // A compaction was killed after its set-aside: the aside and
            // the log hold the state, and the next save compacts.
            Err(missing) if is_missing(&missing) => {
                self.untidy = true;
                let aside = atomic_io::aside_path(&path)?;
                match atomic_io::read_hashed(&aside) {
                    Err(e) if is_missing(&e) => return Err(missing.into()),
                    read => (aside, read?.0),
                }
            }
            read => (path, read?.0),
        };
        self.snapshot_bytes = atomic_io::framed_len(payload.len());
        let mut ranker = decode_snapshot(
            &payload,
            config,
            n_actors,
            &self.stream_digest,
            &self.config_fingerprint,
        )
        .map_err(|e| e.into_error(&path, None))?;
        drop(payload);

        let path = self.dir.join(LOG_FILE);
        let (records, torn) = match atomic_io::read_log_strict(&path) {
            Err(missing) if is_missing(&missing) => (Vec::new(), None),
            read => read?,
        };
        self.untidy |= torn.is_some();
        let snapshot_end = ranker.next_event as u64;
        for record in &records {
            let applied = apply_record(
                record,
                &mut ranker,
                snapshot_end,
                &self.stream_digest,
                &self.config_fingerprint,
            )
            .map_err(|e| e.into_error(&path, Some(self.log_bytes)))?;
            self.untidy |= !applied;
            self.log_bytes += atomic_io::framed_len(record.len());
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
            let record = encode_record(
                ranker,
                epoch,
                start,
                &self.stream_digest,
                &self.config_fingerprint,
            );
            let bytes = atomic_io::framed_len(record.len());
            if self.log_bytes + bytes <= self.snapshot_bytes {
                self.log()?.append(&record)?;
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
    use crate::event::{ActorId, EventStream};
    use crate::ranker::RankerConfig;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    #[test]
    fn undecodable_state_is_corrupt_and_names_the_file_and_offset() -> Result<(), StreamError> {
        let dir = temp_dir("corrupt");
        let ranker = ThreatRanker::new(RankerConfig::default(), 2);
        let fingerprint = RankerConfig::default().fingerprint();
        let load = || load_state(&dir, RankerConfig::default(), 2, "digest-a");
        // A verified snapshot whose follow count claims more rows than the
        // payload holds.
        let mut payload = encode_snapshot(&ranker, "digest-a", &fingerprint);
        let count_at = payload.len() - 12;
        payload[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        atomic_io::write_hashed(&dir.join(STATE_FILE), &payload)?;
        match load() {
            Err(StreamError::Checkpoint(CheckpointError::Corrupt { path, detail })) => {
                assert!(path.ends_with(STATE_FILE), "{}", path.display());
                let at = format!("count exceeds the bytes left at payload byte {count_at}");
                assert_eq!(detail, at);
            }
            other => panic!("expected a corrupt snapshot, got {other:?}"),
        }
        // A verified log record that does not unescape, after one that
        // applies: the error names the record's offset in the log.
        save_state(&dir, &ranker, "digest-a")?;
        let mut log = AppendLog::open(&dir.join(LOG_FILE))?;
        let mut next = ranker.clone();
        next.next_event = 3;
        next.epochs_done = 1;
        let record = encode_record(&next, &[], 0, "digest-a", &fingerprint);
        log.append(&record)?;
        log.append(b"ISDELTA2\\x")?;
        match load() {
            Err(StreamError::Checkpoint(CheckpointError::Corrupt { path, detail })) => {
                assert!(path.ends_with(LOG_FILE), "{}", path.display());
                let at = atomic_io::framed_len(record.len());
                let want = format!("log record at byte {at}: invalid escape");
                assert!(detail.starts_with(&want), "{detail}");
            }
            other => panic!("expected a corrupt record, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    thread_local! {
        /// The largest allocation this thread asked for since tracking
        /// started; `None` while it is off.
        static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// The system allocator, noting each request's size in [`PEAK`].
    struct PeakAlloc;

    fn note(size: usize) {
        let _ = PEAK.try_with(|peak| {
            if let Some(largest) = peak.get() {
                peak.set(Some(largest.max(size)));
            }
        });
    }

    // SAFETY: every call forwards unchanged to `System`; `note` only
    // reads and writes a thread-local `Cell`, which never allocates.
    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: PeakAlloc = PeakAlloc;

    /// Runs one decode of an `input_len`-byte input. It must not panic,
    /// and no single allocation may exceed twice the input plus a few
    /// B-tree nodes: a count is bounded by the bytes after it before
    /// anything is reserved for it.
    fn decode_bounded<T>(what: &str, input_len: usize, decode: impl FnOnce() -> T) -> T {
        PEAK.with(|peak| peak.set(Some(0)));
        let result = catch_unwind(AssertUnwindSafe(decode));
        let largest = PEAK.with(|peak| peak.replace(None)).unwrap_or(0);
        let Ok(result) = result else {
            panic!("{what}: the decoder panicked");
        };
        assert!(
            largest <= 2 * input_len + (16 << 10),
            "{what}: a {largest}-byte allocation for a {input_len}-byte input"
        );
        result
    }

    /// The first `events` events of `stream` over a table of only the
    /// actors they name, so the snapshot stays small.
    fn short_stream(stream: &EventStream, events: usize) -> EventStream {
        let prefix = &stream.events[..events.min(stream.events.len())];
        let mut ids: BTreeMap<u32, u32> = BTreeMap::new();
        for event in prefix {
            let (a, b) = match event.kind {
                EventKind::Post { author, target, .. } => (author, target),
                EventKind::Amplify { amplifier, .. } => (amplifier, None),
                EventKind::Follow { follower, followee } => (follower, Some(followee)),
            };
            for actor in [Some(a), b].into_iter().flatten() {
                let next = ids.len() as u32;
                ids.entry(actor.0).or_insert(next);
            }
        }
        let map = |actor: ActorId| ActorId(ids[&actor.0]);
        let events = prefix
            .iter()
            .map(|e| StreamEvent {
                kind: match e.kind {
                    EventKind::Post {
                        doc,
                        author,
                        target,
                    } => EventKind::Post {
                        doc,
                        author: map(author),
                        target: target.map(map),
                    },
                    EventKind::Amplify { doc, amplifier } => EventKind::Amplify {
                        doc,
                        amplifier: map(amplifier),
                    },
                    EventKind::Follow { follower, followee } => EventKind::Follow {
                        follower: map(follower),
                        followee: map(followee),
                    },
                },
                ..*e
            })
            .collect();
        let mut actors = vec![String::new(); ids.len()];
        for (&old, &new) in &ids {
            actors[new as usize] = stream.actors[old as usize].clone();
        }
        EventStream { actors, events }
    }

    /// Payload offsets of every `u32` count and length in a snapshot or
    /// (unescaped) record, found by walking the layout of the module docs.
    fn count_fields(payload: &[u8], record: bool) -> Vec<usize> {
        struct Walk<'a> {
            r: Reader<'a>,
            at: Vec<usize>,
        }
        impl Walk<'_> {
            fn count(&mut self) -> usize {
                self.at.push(self.r.pos());
                self.r.len_u32(0).expect("count")
            }
            fn skip(&mut self, n: usize) {
                self.r.take(n).expect("field");
            }
            fn seq(&mut self, item: usize) {
                let n = self.count();
                self.skip(n * item);
            }
        }
        let tag = if record { RECORD_TAG } else { SNAPSHOT_TAG };
        let mut w = Walk {
            r: Reader::new(payload, tag).expect("tag"),
            at: Vec::new(),
        };
        w.seq(1);
        w.seq(1);
        w.skip(if record { 24 } else { 16 });
        for _ in 0..w.count() {
            w.skip(if record { 4 } else { 0 } + FINGERPRINT_BYTES);
            w.seq(8);
            w.skip(8);
        }
        for _ in 0..w.count() {
            w.skip(4);
            w.seq(4);
        }
        for _ in 0..w.count() {
            w.skip(12);
            if w.r.u8().expect("target tag") == 1 {
                w.skip(4);
            }
            w.skip(4 + FINGERPRINT_BYTES);
            w.seq(4);
        }
        if record {
            for _ in 0..w.count() {
                w.skip(8);
                w.seq(4);
            }
        }
        for _ in 0..w.count() {
            w.skip(20);
            for _ in 0..w.count() {
                w.skip(32);
                w.seq(8);
            }
        }
        w.r.finish().expect("the walk covers the payload");
        w.at
    }

    /// Seeded positions in `0..len` (a 64-bit LCG, as the log damage
    /// tests draw theirs).
    fn offsets(seed: u64, len: usize, n: usize) -> Vec<usize> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % len
            })
            .collect()
    }

    #[test]
    fn seeded_mutations_of_a_snapshot_and_a_record_are_typed_and_bounded() {
        let (stream, texts, classifier) = crate::ranker::tests::setup();
        let stream = short_stream(&stream, 192);
        let doc_texts: BTreeMap<u64, &str> =
            texts.iter().map(|(id, t)| (*id, t.as_str())).collect();
        let config = RankerConfig {
            epoch_len: 64,
            ..RankerConfig::default()
        };
        let (digest, fingerprint) = (stream.digest(), config.fingerprint());
        let n_actors = stream.actors.len();
        let mut ranker = ThreatRanker::new(config.clone(), n_actors);
        for _ in 0..2 {
            ranker
                .process_epoch(&stream, &doc_texts, &classifier)
                .expect("epoch");
        }
        let snapshot = encode_snapshot(&ranker, &digest, &fingerprint);
        let start = ranker.next_event;
        ranker
            .process_epoch(&stream, &doc_texts, &classifier)
            .expect("epoch");
        let epoch = &stream.events[start..ranker.next_event];
        let record = encode_record(&ranker, epoch, start, &digest, &fingerprint);
        let unescaped = unescape_record(&record).expect("unescape");

        let decode =
            |bytes: &[u8]| decode_snapshot(bytes, config.clone(), n_actors, &digest, &fingerprint);
        let before = decode(&snapshot).expect("the snapshot decodes");
        // Applies a record to a copy of the snapshot's state, which each
        // caller makes before the decode is measured.
        let apply = |bytes: &[u8], mut state: ThreatRanker| {
            apply_record(bytes, &mut state, start as u64, &digest, &fingerprint).map(|_| state)
        };
        let after = apply(&record, before.clone()).expect("the record applies");
        assert_eq!(format!("{after:?}"), format!("{ranker:?}"));
        assert!(!record.contains(&b'\n') && !record.contains(&b'#'));

        let flipped = |bytes: &[u8], at: usize| {
            let mut bytes = bytes.to_vec();
            bytes[at] ^= 1 << (at % 8);
            bytes
        };
        let maxed = |bytes: &[u8], at: usize| {
            let mut bytes = bytes.to_vec();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            bytes
        };
        let len = snapshot.len();
        for at in offsets(0x5eed_0001, len, 400) {
            let what = format!("snapshot flip at byte {at}");
            let _ = decode_bounded(&what, len, || decode(&flipped(&snapshot, at)));
        }
        for cut in offsets(0x5eed_0002, len, 200) {
            let what = format!("snapshot cut at byte {cut}");
            let result = decode_bounded(&what, cut, || decode(&snapshot[..cut]));
            assert!(matches!(result, Err(Refusal::Corrupt(_))), "{what}");
        }
        let counts = count_fields(&snapshot, false);
        assert!(counts.len() > n_actors, "{} count fields", counts.len());
        for at in counts {
            let what = format!("snapshot count at byte {at} set to u32::MAX");
            let result = decode_bounded(&what, len, || decode(&maxed(&snapshot, at)));
            assert!(
                matches!(result, Err(Refusal::Corrupt(e)) if e.offset == at),
                "{what}: {result:?}"
            );
        }

        let len = record.len();
        for at in offsets(0x5eed_0003, len, 400) {
            let what = format!("record flip at byte {at}");
            let (bytes, state) = (flipped(&record, at), before.clone());
            let _ = decode_bounded(&what, len, || apply(&bytes, state));
        }
        for cut in 0..len {
            let what = format!("record cut at byte {cut}");
            let state = before.clone();
            let result = decode_bounded(&what, cut, || apply(&record[..cut], state));
            assert!(matches!(result, Err(Refusal::Corrupt(_))), "{what}");
        }
        for at in count_fields(&unescaped, true) {
            let what = format!("record count at payload byte {at} set to u32::MAX");
            let bytes = escape_record(&maxed(&unescaped, at));
            let state = before.clone();
            let result = decode_bounded(&what, bytes.len(), || apply(&bytes, state));
            assert!(
                matches!(result, Err(Refusal::Corrupt(e)) if e.offset == at),
                "{what}: {result:?}"
            );
        }
    }
}
