//! The snapshot + delta-log checkpoint, end to end:
//!
//! 1. a full pass at the default epoch length writes at most 5× its final
//!    snapshot and leaves exactly `STREAM.ckpt` and an empty `STREAM.log`,
//!    and a zero-epoch reopen writes nothing;
//! 2. with `--features failpoints` (which is how the mid-run states below
//!    are made), replaying the log reproduces the in-memory ranker, a
//!    torn final record resumes byte-identically at every cut, a stale
//!    log is skipped, and any other damage (a flipped byte in a complete
//!    record or the snapshot, a missing record) is a typed refusal;
//! 3. the old snapshot a compaction moves aside (`.STREAM.ckpt.prev`) is
//!    read only when `STREAM.ckpt` is missing, never in place of a
//!    damaged one, and is gone after the next compaction; on unix, the
//!    aside is the very file `STREAM.ckpt` was, so no compaction replaces
//!    a file by renaming over it.

// Fixtures are staged and damaged with plain writes; the INC006 write
// ban is for library code.
#![allow(clippy::disallowed_methods)]

mod common;

use common::{state_dir, Fixture};
use incite_stream::state::STATE_FILE;
use incite_stream::{run_watch, CheckpointStats};
use std::path::Path;

/// The delta log beside the snapshot.
const LOG_FILE: &str = "STREAM.log";

/// The old snapshot's name while a compaction writes the new one.
#[cfg(feature = "failpoints")]
const ASIDE_FILE: &str = ".STREAM.ckpt.prev";

/// The names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("state dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            entry.file_name().to_string_lossy().into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn full_pass_writes_at_most_5x_its_snapshot_and_a_reopen_writes_nothing() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let reference = run_watch(&fx.stream, &doc_texts, &fx.classifier, &fx.config(2, 256))
        .expect("uncheckpointed run");

    let dir = state_dir("write-amp");
    let mut config = fx.config(2, 256);
    config.state_dir = Some(dir.clone());
    let pass = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("pass");
    assert_eq!(pass.rankings, reference.rankings);
    let snapshot = std::fs::read(dir.join(STATE_FILE)).expect("snapshot");
    let log_len = || std::fs::metadata(dir.join(LOG_FILE)).expect("log").len();
    assert_eq!(log_len(), 0, "a clean exit leaves an empty log");
    // No aside and no tmp file either.
    assert_eq!(listing(&dir), [STATE_FILE, LOG_FILE]);
    let written = pass.checkpoint;
    assert!(
        written.snapshots >= 2 && written.deltas > written.snapshots,
        "the pass should mostly append: {written:?}"
    );
    assert!(
        written.bytes <= 5 * snapshot.len() as u64,
        "a pass wrote {} bytes, {:.1}x its {}-byte final snapshot",
        written.bytes,
        written.bytes as f64 / snapshot.len() as f64,
        snapshot.len()
    );

    config.max_epochs = Some(0);
    let reopen = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("reopen");
    assert_eq!(reopen.resumed_at, Some(pass.events as u64));
    assert_eq!(reopen.rankings, reference.rankings);
    assert_eq!(reopen.checkpoint, CheckpointStats::default());
    assert_eq!(
        std::fs::read(dir.join(STATE_FILE)).expect("snapshot"),
        snapshot
    );
    assert_eq!(log_len(), 0);
    assert_eq!(listing(&dir), [STATE_FILE, LOG_FILE]);
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(feature = "failpoints")]
mod damage {
    use super::common::{state_dir, Fixture};
    use super::{listing, CheckpointStats, ASIDE_FILE, LOG_FILE};
    use incite_core::checkpoint::atomic_io;
    use incite_stream::state::{load_state, save_state, STATE_FILE};
    use incite_stream::{
        run_watch, ActorId, EventKind, EventStream, StreamError, StreamEvent, ThreatRanker,
        WatchConfig, WatchOutcome,
    };
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

    /// Events and epoch length of the short stream: small enough that
    /// every byte of a record gets its own resume, long enough that the
    /// log holds several records when the watch is killed.
    const EVENTS: usize = 256;
    const EPOCH_LEN: usize = 8;

    /// The first `events` events of `stream` over a table of only the
    /// actors they name, so snapshots stay small.
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
                ids.insert(actor.0, 0);
            }
        }
        for (i, slot) in ids.values_mut().enumerate() {
            *slot = i as u32;
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
        EventStream {
            actors: ids
                .keys()
                .map(|&a| stream.actors[a as usize].clone())
                .collect(),
            events,
        }
    }

    /// Byte offsets where each framed record of a log ends. Payloads are
    /// newline-free and a footer is `\n#fnv64:<16 hex>\n`, so every second
    /// newline closes a record.
    fn record_ends(log: &[u8]) -> Vec<usize> {
        log.iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .skip(1)
            .step_by(2)
            .map(|(i, _)| i + 1)
            .collect()
    }

    struct Short {
        fx: Fixture,
        stream: EventStream,
        /// Rankings and final snapshot of an uninterrupted checkpointed run.
        reference: (String, Vec<u8>),
        /// The failpoint sites that run passed, in order.
        sites: Vec<String>,
        /// Every test plants its states under one dir, removed at the end:
        /// deleting a snapshot the filesystem is still writing back stalls.
        scratch: PathBuf,
    }

    impl Short {
        fn new(tag: &str) -> Self {
            let fx = Fixture::new();
            let stream = short_stream(&fx.stream, EVENTS);
            let mut short = Short {
                fx,
                stream,
                reference: (String::new(), Vec::new()),
                sites: Vec::new(),
                scratch: state_dir(&format!("short-{tag}")),
            };
            let dir = short.dir("uninterrupted");
            let config = short.config(&dir);
            let outcome = short.run(&config).expect("uninterrupted run");
            let snapshot = std::fs::read(dir.join(STATE_FILE)).expect("snapshot");
            short.reference = (outcome.rankings, snapshot);
            short.sites = config.failpoints.visited();
            short
        }

        fn epochs(&self) -> u64 {
            EVENTS.div_ceil(EPOCH_LEN) as u64
        }

        fn config(&self, dir: &Path) -> WatchConfig {
            let mut config = self.fx.config(1, EPOCH_LEN);
            config.state_dir = Some(dir.to_path_buf());
            config
        }

        fn run(&self, config: &WatchConfig) -> Result<WatchOutcome, StreamError> {
            run_watch(
                &self.stream,
                &self.fx.doc_texts(),
                &self.fx.classifier,
                config,
            )
        }

        /// A fresh dir under the scratch dir.
        fn dir(&self, tag: &str) -> PathBuf {
            let dir = self.scratch.join(tag);
            std::fs::remove_dir_all(&dir).ok();
            dir
        }

        /// Runs the watch in `dir` with `site` armed until it fires.
        fn crash(&self, dir: &Path, site: &str) {
            let mut config = self.config(dir);
            config.failpoints.arm(site);
            match self.run(&config) {
                Err(StreamError::Fault(fault)) => assert_eq!(fault.site, site),
                other => panic!("expected a fault at {site}, got {other:?}"),
            }
        }

        /// The state files a watch killed right after epoch `epoch`'s
        /// checkpoint leaves: (snapshot, log).
        fn killed_after(&self, epoch: u64) -> (Vec<u8>, Vec<u8>) {
            let dir = self.dir(&format!("killed-{epoch}"));
            self.crash(&dir, &format!("stream-after-epoch-{epoch}"));
            (
                std::fs::read(dir.join(STATE_FILE)).expect("snapshot"),
                std::fs::read(dir.join(LOG_FILE)).expect("log"),
            )
        }

        /// Writes `snapshot` and `log` as fresh files into a fresh dir.
        fn plant(&self, tag: &str, snapshot: &[u8], log: &[u8]) -> PathBuf {
            self.plant_files(tag, &[(STATE_FILE, snapshot), (LOG_FILE, log)])
        }

        /// Writes each `(name, bytes)` as a fresh file into a fresh dir.
        fn plant_files(&self, tag: &str, files: &[(&str, &[u8])]) -> PathBuf {
            let dir = self.dir(tag);
            std::fs::create_dir_all(&dir).expect("state dir");
            for (name, bytes) in files {
                std::fs::write(dir.join(name), bytes).expect("plant state file");
            }
            dir
        }

        fn load(&self, dir: &Path) -> Result<ThreatRanker, StreamError> {
            let config = self.config(dir).ranker;
            load_state(dir, config, self.stream.actors.len(), &self.stream.digest())
        }

        /// The snapshot a compaction at the end of `log` would write.
        fn snapshot_of(&self, snapshot: &[u8], log: &[u8]) -> Vec<u8> {
            let dir = self.plant("snapshot-of", snapshot, log);
            let ranker = self.load(&dir).expect("load");
            let fresh = self.dir("snapshot-of-saved");
            save_state(&fresh, &ranker, &self.stream.digest()).expect("save");
            std::fs::read(fresh.join(STATE_FILE)).expect("read")
        }

        /// Resumes from planted state to the end; the run must land on
        /// `expected` (rankings, final snapshot) and leave an empty log.
        fn assert_recovers(
            &self,
            tag: &str,
            (snapshot, log): (&[u8], &[u8]),
            expected: &(String, Vec<u8>),
        ) -> WatchOutcome {
            self.assert_finishes(tag, &self.plant(tag, snapshot, log), expected)
        }

        /// Resumes `dir` to the end; the run must land on `expected`
        /// (rankings, final snapshot) and leave only the snapshot and an
        /// empty log.
        fn assert_finishes(
            &self,
            tag: &str,
            dir: &Path,
            expected: &(String, Vec<u8>),
        ) -> WatchOutcome {
            let outcome = self
                .run(&self.config(dir))
                .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
            assert_eq!(outcome.rankings, expected.0, "{tag}: rankings diverged");
            assert_eq!(
                std::fs::read(dir.join(STATE_FILE)).expect("snapshot"),
                expected.1,
                "{tag}: final state diverged"
            );
            assert_eq!(
                std::fs::metadata(dir.join(LOG_FILE)).expect("log").len(),
                0,
                "{tag}: the log kept bytes past the clean exit"
            );
            assert_eq!(listing(dir), [STATE_FILE, LOG_FILE], "{tag}");
            outcome
        }

        fn assert_refused(&self, tag: &str, snapshot: &[u8], log: &[u8]) -> StreamError {
            let dir = self.plant(tag, snapshot, log);
            match self.run(&self.config(&dir)) {
                Ok(_) => panic!("{tag}: damaged state resumed"),
                Err(e) => e,
            }
        }
    }

    impl Drop for Short {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.scratch).ok();
        }
    }

    #[test]
    fn replaying_the_log_reproduces_the_in_memory_ranker() {
        let short = Short::new("replay");
        let texts = short.fx.doc_texts();
        let mut ranker = ThreatRanker::new(
            short.config(Path::new("")).ranker,
            short.stream.actors.len(),
        );
        let mut replayed_records = 0;
        for epoch in 1..short.epochs() {
            ranker
                .process_epoch(&short.stream, &texts, &short.fx.classifier)
                .expect("epoch");
            let (snapshot, log) = short.killed_after(epoch);
            replayed_records += record_ends(&log).len();
            let dir = short.plant(&format!("replay-{epoch}"), &snapshot, &log);
            let loaded = short.load(&dir).expect("load");
            assert_eq!(
                format!("{loaded:?}"),
                format!("{ranker:?}"),
                "state replayed after epoch {epoch} differs from the live ranker"
            );
        }
        assert!(replayed_records > 0, "no epoch left records to replay");
    }

    #[test]
    fn a_torn_final_record_resumes_byte_identically_at_every_cut() {
        let short = Short::new("torn");
        let (snapshot, log) = short.killed_after(short.epochs() - 2);
        let ends = record_ends(&log);
        assert!(ends.len() >= 2, "the kill left {} record(s)", ends.len());
        let last_start = ends[ends.len() - 2];
        // A resume opens the loaded ranker plus the reader's torn flag, so
        // every cut that reads as the clean prefix, flagged torn at the
        // record's start, resumes exactly as the sampled cuts below do.
        let clean = short.plant("clean", &snapshot, &log[..last_start]);
        let expected = format!("{:?}", short.load(&clean).expect("load"));
        for cut in last_start + 1..log.len() {
            let dir = short.plant(&format!("cut-{cut}"), &snapshot, &log[..cut]);
            let (records, torn) =
                atomic_io::read_log_strict(&dir.join(LOG_FILE)).expect("a torn tail is tolerated");
            assert_eq!(records.len() + 1, ends.len(), "cut {cut}");
            assert_eq!(torn, Some(last_start as u64), "cut {cut}");
            let loaded = short.load(&dir).expect("load");
            assert_eq!(format!("{loaded:?}"), expected, "cut {cut}");
        }
        // Resumed to the end, the first save compacts the torn bytes away,
        // the next appends, and the last is the exit compaction.
        for cut in [last_start + 1, (last_start + log.len()) / 2, log.len() - 1] {
            let outcome = short.assert_recovers(
                &format!("cut-{cut}-resumed"),
                (&snapshot, &log[..cut]),
                &short.reference,
            );
            let written = outcome.checkpoint;
            assert_eq!((written.snapshots, written.deltas), (2, 1), "cut {cut}");
        }
    }

    /// The stream position a state dir holding `snapshot` and `log`
    /// resumes at.
    fn resume_position(short: &Short, snapshot: &[u8], log: &[u8]) -> u64 {
        let dir = short.plant("position", snapshot, log);
        short.load(&dir).expect("load").next_event() as u64
    }

    #[test]
    fn a_flipped_byte_in_any_complete_record_or_the_snapshot_is_refused() {
        let short = Short::new("flip");
        let (snapshot, log) = short.killed_after(short.epochs() - 1);
        let ends = record_ends(&log);
        // The first record and the last one, which a lax reader could take
        // for a torn tail.
        let last = ends[ends.len() - 2]..log.len();
        for at in (0..ends[0]).chain(last) {
            let mut flipped = log.clone();
            flipped[at] ^= 0x01;
            match short.assert_refused(&format!("log-flip-{at}"), &snapshot, &flipped) {
                StreamError::Checkpoint(_) => {}
                other => panic!("log flip at byte {at}: expected a checkpoint error, got {other}"),
            }
        }
        // A seeded sample of snapshot bytes (every byte of the framing is
        // covered by the atomic_io tests).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (state >> 33) as usize % snapshot.len();
            let mut flipped = snapshot.clone();
            flipped[at] ^= 0x01;
            match short.assert_refused(&format!("ckpt-flip-{at}"), &flipped, &log) {
                StreamError::Checkpoint(_) => {}
                other => {
                    panic!("snapshot flip at byte {at}: expected a checkpoint error, got {other}")
                }
            }
        }
    }

    #[test]
    fn records_the_snapshot_already_covers_are_skipped() {
        let short = Short::new("stale");
        let (snapshot, log) = short.killed_after(short.epochs() - 1);
        let ends = record_ends(&log);
        let end_of_log = resume_position(&short, &snapshot, &log);

        // A kill between the snapshot rename and the log truncation: the
        // whole log is older than the snapshot.
        let newer = short.snapshot_of(&snapshot, &log);
        let outcome = short.assert_recovers("all-stale", (&newer, &log), &short.reference);
        assert_eq!(outcome.resumed_at, Some(end_of_log));

        // A snapshot covering all but the last record: that one applies.
        let covering = short.snapshot_of(&snapshot, &log[..ends[ends.len() - 2]]);
        let outcome = short.assert_recovers("part-stale", (&covering, &log), &short.reference);
        assert_eq!(outcome.resumed_at, Some(end_of_log));
    }

    #[test]
    fn a_missing_record_is_a_state_mismatch() {
        let short = Short::new("gap");
        let (snapshot, log) = short.killed_after(short.epochs() - 1);
        let ends = record_ends(&log);
        assert!(ends.len() >= 3, "the kill left {} record(s)", ends.len());
        let without = |i: usize| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            [&log[..start], &log[ends[i]..]].concat()
        };
        for (tag, gapped) in [("first", without(0)), ("middle", without(1))] {
            match short.assert_refused(&format!("gap-{tag}"), &snapshot, &gapped) {
                StreamError::StateMismatch => {}
                other => panic!("{tag} record removed: expected StateMismatch, got {other}"),
            }
        }
    }
    #[test]
    fn an_aside_without_a_snapshot_resumes_byte_identically() {
        let short = Short::new("aside-only");
        let (snapshot, log) = short.killed_after(short.epochs() - 2);
        let live = short.plant("live", &snapshot, &log);
        let expected = format!("{:?}", short.load(&live).expect("load"));

        // What a kill after a compaction's set-aside leaves: the old
        // snapshot under the aside name, and the log.
        let files = [
            (ASIDE_FILE, snapshot.as_slice()),
            (LOG_FILE, log.as_slice()),
        ];
        let dir = short.plant_files("aside", &files);
        assert_eq!(format!("{:?}", short.load(&dir).expect("load")), expected);

        // The next save compacts onto `STREAM.ckpt` and drops the aside,
        // though its epoch is not the last.
        short.crash(&dir, &format!("stream-after-epoch-{}", short.epochs() - 1));
        assert_eq!(listing(&dir), [STATE_FILE, LOG_FILE]);
        assert_eq!(std::fs::metadata(dir.join(LOG_FILE)).expect("log").len(), 0);
        short.assert_finishes("aside", &dir, &short.reference);
    }

    #[test]
    fn a_damaged_snapshot_is_refused_even_with_a_valid_aside() {
        let short = Short::new("aside-flip");
        let (snapshot, log) = short.killed_after(short.epochs() - 1);
        let mut flipped = snapshot.clone();
        flipped[snapshot.len() / 2] ^= 0x01;
        let dir = short.plant_files(
            "flipped",
            &[
                (STATE_FILE, flipped.as_slice()),
                (ASIDE_FILE, snapshot.as_slice()),
                (LOG_FILE, log.as_slice()),
            ],
        );
        match short.run(&short.config(&dir)) {
            Err(StreamError::Checkpoint(_)) => {}
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn a_leftover_aside_is_ignored_and_the_next_compaction_removes_it() {
        let short = Short::new("aside-leftover");
        // An older snapshot as the aside: were it read, the state would
        // differ.
        let (older, _) = short.killed_after(1);
        let (snapshot, log) = short.killed_after(short.epochs() - 2);
        let live = short.plant("live", &snapshot, &log);
        let expected = format!("{:?}", short.load(&live).expect("load"));
        let files = [
            (STATE_FILE, snapshot.as_slice()),
            (ASIDE_FILE, older.as_slice()),
            (LOG_FILE, log.as_slice()),
        ];
        let dir = short.plant_files("leftover", &files);
        assert_eq!(format!("{:?}", short.load(&dir).expect("load")), expected);

        let mut reopen = short.config(&dir);
        reopen.max_epochs = Some(0);
        let outcome = short.run(&reopen).expect("reopen");
        assert_eq!(outcome.checkpoint, CheckpointStats::default());
        for (name, bytes) in files {
            assert_eq!(
                std::fs::read(dir.join(name)).expect("file"),
                bytes,
                "{name}"
            );
        }
        assert_eq!(listing(&dir).len(), 3);

        short.assert_finishes("leftover", &dir, &short.reference);
    }

    /// Modelled on the core manifest test `manifest_is_appended_in_place`:
    /// the snapshot a compaction leaves is the very file the next
    /// compaction moves aside, so no rename ever replaced `STREAM.ckpt`,
    /// and the log keeps its inode through both.
    #[cfg(unix)]
    #[test]
    fn no_state_file_is_replaced_by_a_rename() {
        use std::os::unix::fs::MetadataExt;
        let short = Short::new("inode");
        let dir = short.dir("inode");
        let inode = |name: &str| std::fs::metadata(dir.join(name)).expect(name).ino();

        // The uninterrupted run's first two compactions (the first save
        // always compacts): a resume from the first keeps its schedule.
        let steps = |step: &str| -> Vec<&String> {
            let prefix = format!("stream-compact-{step}-");
            short
                .sites
                .iter()
                .filter(|s| s.starts_with(&prefix))
                .collect()
        };
        let (reset, aside) = (steps("reset")[0], steps("aside")[1]);
        short.crash(&dir, reset);
        let (snapshot, log) = (inode(STATE_FILE), inode(LOG_FILE));

        short.crash(&dir, aside);
        assert!(!dir.join(STATE_FILE).exists(), "{aside}: STREAM.ckpt left");
        assert_eq!(inode(ASIDE_FILE), snapshot, "{aside}");
        assert_eq!(inode(LOG_FILE), log, "{aside}");
        short.assert_finishes("inode", &dir, &short.reference);
    }
}
