//! The deterministic request journal: every scored response, replayable
//! offline to byte-identical bits.
//!
//! Scoring workers send one [`JournalRecord`] per completed batch over a
//! channel to a dedicated journal thread, which owns an
//! [`atomic_io::AppendLog`] — the checkpoint crate's hash-framed append
//! funnel — so no request-path thread ever touches the filesystem and no
//! lock is held across a write (INC006, INC009). Each record carries the
//! exact inputs (`texts`), the provenance (`generation`, `model_hash`,
//! `run_dir`, `tenant`), and the produced score bits, which is everything
//! `incite replay` needs to re-score the inputs offline and compare
//! f32 bit patterns. A torn tail (crash mid-append) is detected by the
//! per-record FNV-64 footer and reported, never silently trusted.
//!
//! Shutdown is by channel disconnect: when every worker's sender drops,
//! the journal thread drains the remaining buffered records in FIFO order
//! and exits, so `ServerHandle::join` loses nothing.

use crate::chaos::{self, ChaosRegistry};
use incite_core::checkpoint::atomic_io::{self, AppendLog};
use incite_core::CheckpointError;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
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
    /// Append or serialization failures (the record is dropped; scoring
    /// is never failed retroactively for a journal error).
    pub errors: AtomicU64,
}

/// Opens the journal at `path` and spawns the writer thread.
///
/// Returns the sender workers clone (dropping every clone shuts the
/// thread down after a FIFO drain) and the join handle. Opening eagerly
/// means an unwritable journal path fails server boot, not the first
/// request — the [`chaos::JOURNAL_OPEN`] failpoint injects exactly that
/// boot failure, which is what makes this open sweepable (INC014).
pub(crate) fn spawn(
    path: &Path,
    stats: Arc<JournalStats>,
    chaos: &ChaosRegistry,
) -> Result<(mpsc::Sender<JournalRecord>, thread::JoinHandle<()>), CheckpointError> {
    if chaos.trip(chaos::JOURNAL_OPEN) {
        return Err(CheckpointError::Io {
            path: path.to_path_buf(),
            source: std::io::Error::other("injected journal-open fault"),
        });
    }
    let mut log = AppendLog::open(path)?;
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

/// Reads a journal back: the intact records in append order, plus the
/// byte offset of a torn or damaged tail if one was detected.
///
/// A record whose hash footer verifies but whose payload fails to parse
/// is corruption-by-construction (the server only appends valid JSON), so
/// it is a typed error rather than a silent skip.
pub fn read_journal(path: &Path) -> Result<(Vec<JournalRecord>, Option<u64>), CheckpointError> {
    let (payloads, damage) = atomic_io::read_log(path)?;
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
        let chaos = ChaosRegistry::default();
        let (tx, handle) = spawn(&path, Arc::clone(&stats), &chaos).expect("journal opens");
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
