//! The deterministic request journal: every scored response, replayable
//! offline to byte-identical bits.
//!
//! Scoring workers and inline scorers hand one [`JournalRecord`] per
//! scored request to the server's one `Handoff`, whose channel feeds a
//! dedicated journal thread. That thread owns an [`atomic_io::AppendLog`]
//! — the checkpoint crate's hash-framed append funnel — so no
//! request-path thread ever touches the filesystem and no lock is held
//! across a write (INC006, INC009). An inline scorer hands its record
//! over only after its response's write returned, so the journal
//! thread's wake-up never lands between scoring and the reply. Each
//! record carries the exact inputs (`texts`), the provenance
//! (`generation`, `model_hash`, `run_dir`, `tenant`), and the produced
//! score bits, which is everything `incite replay` needs to re-score the
//! inputs offline and compare f32 bit patterns. A torn tail (crash
//! mid-append) is detected by the per-record FNV-64 footer and never
//! silently trusted: a restart on the same journal cuts it off before its
//! first append, and [`read_journal`] refuses damage to any complete
//! record.
//!
//! Shutdown is by channel disconnect: `ServerHandle::join` closes the
//! handoff once the workers are joined, which drops the one sender; the
//! journal thread drains the buffered records in FIFO order and exits,
//! so `join` loses nothing. A record handed over after that (by a
//! connection that outlived the drain window) is counted in
//! [`JournalStats::errors`], never queued where nothing reads it.

use crate::chaos;
use incite_core::checkpoint::atomic_io::{self, AppendLog};
use incite_core::{CheckpointError, FailpointRegistry};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, RwLock};
use std::thread;

/// One journaled response: inputs, model provenance, and output bits.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JournalRecord {
    /// Server-assigned sequence number, monotonic per server lifetime.
    pub seq: u64,
    /// Model generation that scored the batch.
    pub generation: u64,
    /// Verified content hash of that generation's model section.
    pub model_hash: String,
    /// Run directory the generation was loaded from.
    pub run_dir: String,
    /// Tenant the request was admitted under.
    pub tenant: String,
    /// The exact input texts, in request order.
    pub texts: Vec<String>,
    /// The served scores as f32 bit patterns (the identity contract).
    pub bits: Vec<u32>,
}

/// Journal-thread counters surfaced in `/metrics`.
#[derive(Debug, Default)]
pub struct JournalStats {
    /// Records durably appended.
    pub records: AtomicU64,
    /// Append or serialization failures, and records handed over after
    /// the journal closed (the record is dropped; scoring is never failed
    /// retroactively for a journal error).
    pub errors: AtomicU64,
}

/// The server's one sender to the journal thread, shared by the workers
/// and the connection threads.
pub(crate) struct Handoff {
    /// `None` once [`Handoff::close`] has run.
    sender: RwLock<Option<mpsc::Sender<JournalRecord>>>,
    stats: Arc<JournalStats>,
}

impl Handoff {
    pub(crate) fn new(sender: mpsc::Sender<JournalRecord>, stats: Arc<JournalStats>) -> Self {
        Handoff {
            sender: RwLock::new(Some(sender)),
            stats,
        }
    }

    /// Hands `record` to the journal thread; an unbounded channel send,
    /// which never blocks. After [`Handoff::close`] the record is counted
    /// in [`JournalStats::errors`] instead.
    pub(crate) fn send(&self, record: JournalRecord) {
        let sender = match self.sender.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let sent = sender.as_ref().is_some_and(|tx| tx.send(record).is_ok());
        drop(sender);
        if !sent {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops the sender: the journal thread drains what it holds and
    /// exits. A send racing this one either lands before it, and is
    /// drained, or after it, and is counted.
    pub(crate) fn close(&self) {
        let mut sender = match self.sender.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        sender.take();
    }
}

/// Opens the journal at `path` and spawns the writer thread.
///
/// Returns the sender, which the server wraps in its one [`Handoff`]
/// (dropping it shuts the thread down after a FIFO drain), and the join
/// handle. Opening eagerly means an unwritable journal path fails server
/// boot, not the first request — the [`chaos::JOURNAL_OPEN`] failpoint
/// injects exactly that boot failure, which is what makes this open
/// sweepable (INC014). A torn final record left by a crash is cut off
/// first, so this server's records follow the last intact one; other
/// damage at the end refuses the boot.
pub(crate) fn spawn(
    path: &Path,
    stats: Arc<JournalStats>,
    failpoints: &FailpointRegistry,
) -> Result<(mpsc::Sender<JournalRecord>, thread::JoinHandle<()>), CheckpointError> {
    if failpoints.check(chaos::JOURNAL_OPEN).is_err() {
        return Err(CheckpointError::Io {
            path: path.to_path_buf(),
            source: std::io::Error::other("injected journal-open fault"),
        });
    }
    let mut log = AppendLog::open(path)?;
    log.cut_torn_tail()?;
    let (tx, rx) = mpsc::channel::<JournalRecord>();
    let handle = thread::Builder::new()
        .name("incite-journal".to_string())
        .spawn(move || {
            while let Ok(record) = rx.recv() {
                match serde_json::to_string(&record) {
                    Ok(line) if !line.contains('\n') => match log.append(line.as_bytes()) {
                        Ok(()) => {
                            stats.records.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            stats.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                    // JSON string escaping makes embedded newlines
                    // impossible, but the funnel's no-newline framing
                    // invariant is load-bearing: count, never corrupt.
                    _ => {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
        .map_err(|e| CheckpointError::Io {
            path: PathBuf::from("incite-journal thread"),
            source: e,
        })?;
    Ok((tx, handle))
}

/// Reads a journal back: the records in append order, plus the byte offset
/// of a torn tail if one was detected.
///
/// A damaged complete record is a typed error naming its offset, as is a
/// record whose hash footer verifies but whose payload fails to parse
/// (the server only appends valid JSON): never a silent skip.
pub fn read_journal(path: &Path) -> Result<(Vec<JournalRecord>, Option<u64>), CheckpointError> {
    let (payloads, damage) = atomic_io::read_log_strict(path)?;
    let mut records = Vec::with_capacity(payloads.len());
    for payload in &payloads {
        let text = std::str::from_utf8(payload).map_err(|_| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: "journal record is not valid UTF-8".to_string(),
        })?;
        let record: JournalRecord =
            serde_json::from_str(text).map_err(|_| CheckpointError::Corrupt {
                path: path.to_path_buf(),
                detail: "journal record is not a valid JournalRecord".to_string(),
            })?;
        records.push(record);
    }
    Ok((records, damage))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            generation: 1 + seq % 2,
            model_hash: "00f0e1d2c3b4a596".to_string(),
            run_dir: "/tmp/run".to_string(),
            tenant: "alpha".to_string(),
            texts: vec![
                format!("report user {seq}"),
                "with \"quotes\"\nand newline".to_string(),
            ],
            bits: vec![0x3f00_0000 + seq as u32, 0x3e80_0000],
        }
    }

    /// An empty directory of the test's own: tests run in parallel, so a
    /// shared one removed by one test could delete another's files mid-run.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("incite-journal-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_roundtrips_records_in_order() {
        let dir = test_dir("roundtrip");
        let path = dir.join("roundtrip.jsonl");
        let stats = Arc::new(JournalStats::default());
        let (tx, handle) =
            spawn(&path, Arc::clone(&stats), &FailpointRegistry::new()).expect("journal opens");
        for seq in 0..5 {
            tx.send(record(seq)).expect("send");
        }
        drop(tx);
        handle.join().expect("journal thread exits");
        assert_eq!(stats.records.load(Ordering::Relaxed), 5);
        assert_eq!(stats.errors.load(Ordering::Relaxed), 0);
        let (records, damage) = read_journal(&path).expect("journal reads back");
        assert_eq!(damage, None);
        assert_eq!(records.len(), 5);
        for (seq, got) in records.iter().enumerate() {
            assert_eq!(*got, record(seq as u64), "record {seq} roundtrips exactly");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_ends_the_thread_while_the_handoff_lives_and_counts_later_records() {
        let dir = test_dir("handoff");
        let path = dir.join("handoff.jsonl");
        let stats = Arc::new(JournalStats::default());
        let (tx, handle) =
            spawn(&path, Arc::clone(&stats), &FailpointRegistry::new()).expect("journal opens");
        // The server state, which a stuck connection may keep alive, holds
        // the handoff; closing it must still end the journal thread.
        let handoff = Handoff::new(tx, Arc::clone(&stats));
        handoff.send(record(0));
        handoff.close();
        handle.join().expect("journal thread exits");
        handoff.send(record(1));
        assert_eq!(stats.records.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.errors.load(Ordering::Relaxed),
            1,
            "the late record is counted"
        );
        let (records, damage) = read_journal(&path).expect("journal reads back");
        assert_eq!((records, damage), (vec![record(0)], None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn write_records(path: &Path, seqs: std::ops::Range<u64>) {
        let stats = Arc::new(JournalStats::default());
        let (tx, handle) =
            spawn(path, Arc::clone(&stats), &FailpointRegistry::new()).expect("journal opens");
        for seq in seqs {
            tx.send(record(seq)).expect("send");
        }
        drop(tx);
        handle.join().expect("journal thread exits");
        assert_eq!(stats.errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn restart_cuts_a_torn_tail_so_later_records_replay() {
        let dir = test_dir("torn-restart");
        let path = dir.join("torn.jsonl");
        write_records(&path, 0..2);
        // A crash mid-append: part of a third record.
        let mut log = AppendLog::open(&path).expect("log opens");
        let line = serde_json::to_string(&record(2)).expect("serialize");
        log.append(line.as_bytes()).expect("append");
        let full = std::fs::metadata(&path).expect("meta").len();
        log.cut_to(full - 9).expect("tear");
        drop(log);
        // The restarted server appends after the last intact record.
        write_records(&path, 2..4);
        let (records, damage) = read_journal(&path).expect("journal reads back");
        assert_eq!(damage, None);
        let want: Vec<JournalRecord> = (0..4).map(record).collect();
        assert_eq!(records, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    // Planting the damage needs a raw write past the INC006 funnel.
    #[allow(clippy::disallowed_methods)]
    fn damaged_complete_record_is_refused_by_offset() {
        let dir = test_dir("damaged");
        let path = dir.join("damaged.jsonl");
        write_records(&path, 0..3);
        let first = serde_json::to_string(&record(0)).expect("serialize");
        let second = atomic_io::framed_len(first.len());
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[second as usize + 3] ^= 0x01;
        std::fs::write(&path, &bytes).expect("flip");
        match read_journal(&path) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains(&format!("byte {second}")), "{detail}");
            }
            other => panic!("expected a damaged-record refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verified_but_unparseable_record_is_a_typed_error() {
        let dir = test_dir("unparseable");
        let path = dir.join("unparseable.jsonl");
        let mut log = AppendLog::open(&path).expect("log opens");
        log.append(b"{\"not\": \"a journal record\"}")
            .expect("append");
        let err = read_journal(&path).expect_err("parse failure is typed");
        assert!(matches!(err, CheckpointError::Corrupt { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
