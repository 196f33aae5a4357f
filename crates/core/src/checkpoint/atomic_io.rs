//! The single place in the workspace allowed to write files.
//!
//! Crash recovery is only as good as the weakest write: a checkpoint torn
//! mid-`write(2)` is worse than no checkpoint, because resume would trust
//! it. Every persisted artifact therefore goes through [`write_hashed`]:
//!
//! 1. the payload is framed with an FNV-1a 64 content-hash footer,
//! 2. written to a temporary sibling (`.<name>.tmp`) in the target
//!    directory, and
//! 3. atomically renamed over the destination.
//!
//! A reader therefore sees either the complete old file or the complete
//! new file — never a prefix — and [`read_hashed`] refuses anything whose
//! recomputed hash disagrees with the footer (single bit flips included).
//!
//! Durability model: rename atomicity is sufficient for the *process*
//! crashes the failpoint harness injects — a killed process loses nothing
//! `write(2)` already handed to the page cache, so no fsync is issued and
//! the per-step checkpoint tax stays inside the `checkpoint_overhead`
//! budget (< 10 % on quick corpora). Tearing from a power loss is
//! *detected* rather than prevented: the footer check refuses the file
//! and `clear_run_dir` (the CLI's `--force`) recovers the directory, so
//! damaged state is never resumed from either way.
//!
//! Lint rule INC006 enforces the funnel: the workspace `clippy.toml`
//! bans `File::create`, `fs::write` and `OpenOptions::new` everywhere
//! except this module (allowed below), so no code path can quietly
//! bypass the write-rename + hash discipline.

// INC006 (DESIGN.md §10): the write funnel itself.
#![allow(clippy::disallowed_methods)]

use super::CheckpointError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit content hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv64`] rendered as the fixed-width hex used in footers and manifests.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Integrity footer marker. The footer is appended after the payload, so
/// the *last* occurrence of this marker is always the real footer — even
/// for binary payloads that could contain the byte sequence by chance.
const FOOTER_PREFIX: &[u8] = b"\n#fnv64:";

/// Footer bytes after the marker: 16 hex digits and a closing newline.
const FOOTER_HASH_LEN: usize = 17;

/// Bytes a [`write_hashed`] file or one [`AppendLog`] record takes on
/// disk for a payload of `payload_len` bytes.
pub fn framed_len(payload_len: usize) -> u64 {
    (payload_len + FOOTER_PREFIX.len() + FOOTER_HASH_LEN) as u64
}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn tmp_sibling(path: &Path) -> Result<PathBuf, CheckpointError> {
    let name =
        path.file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| CheckpointError::Corrupt {
                path: path.to_path_buf(),
                detail: "path has no usable file name".to_string(),
            })?;
    Ok(path.with_file_name(format!(".{name}.tmp")))
}

/// Atomically replaces `path` with `bytes` via write-to-temp + rename.
/// The raw building block; checkpoint files should prefer
/// [`write_hashed`], which adds the integrity footer.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
        }
    }
    let tmp = tmp_sibling(path)?;
    let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    file.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Atomically writes `payload` framed with an FNV content-hash footer.
/// Returns the payload hash (hex) for manifest bookkeeping.
pub fn write_hashed(path: &Path, payload: &[u8]) -> Result<String, CheckpointError> {
    let hash = fnv64_hex(payload);
    write_framed(path, payload, &hash)?;
    Ok(hash)
}

/// [`write_hashed`] with the payload hash already computed by the caller
/// (checkpoint section dedup hashes every payload anyway; multi-megabyte
/// model sections should not pay the FNV pass twice).
pub fn write_framed(path: &Path, payload: &[u8], hash: &str) -> Result<(), CheckpointError> {
    debug_assert_eq!(hash, fnv64_hex(payload));
    let mut framed = Vec::with_capacity(framed_len(payload.len()) as usize);
    framed.extend_from_slice(payload);
    framed.extend_from_slice(FOOTER_PREFIX);
    framed.extend_from_slice(hash.as_bytes());
    framed.push(b'\n');
    write_atomic(path, &framed)
}

/// Reads a [`write_hashed`] file, verifying the footer. Any corruption —
/// a flipped bit in the payload, a damaged footer, a truncated file —
/// surfaces as a typed [`CheckpointError`]; the payload is returned only
/// when the recomputed hash matches exactly.
pub fn read_hashed(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let framed = fs::read(path).map_err(|e| io_err(path, e))?;
    let footer_at = framed
        .windows(FOOTER_PREFIX.len())
        .rposition(|w| w == FOOTER_PREFIX)
        .ok_or_else(|| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: "missing integrity footer (truncated or foreign file)".to_string(),
        })?;
    let payload = &framed[..footer_at];
    let footer = &framed[footer_at + FOOTER_PREFIX.len()..];
    // Strict footer shape — exactly 16 hex digits and a closing newline —
    // so a flip of *any* byte, the terminator included, is corruption.
    if footer.len() != 17 || footer[16] != b'\n' || !footer[..16].iter().all(u8::is_ascii_hexdigit)
    {
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: "malformed integrity footer".to_string(),
        });
    }
    let expected = std::str::from_utf8(&footer[..16])
        .map_err(|_| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: "integrity footer is not UTF-8".to_string(),
        })?
        .to_string();
    let actual = fnv64_hex(payload);
    if expected != actual {
        return Err(CheckpointError::HashMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    Ok(payload.to_vec())
}

/// An append-only log of individually hash-framed records — the on-disk
/// form of the run manifest, the serve request journal and the stream
/// checkpoint delta log.
///
/// Unlike the write-rename checkpoint files above, a journal must survive
/// the *writer* dying mid-append: each record is one newline-free payload
/// line followed by its own FNV footer line, so [`read_log`] can verify
/// every complete record independently and classify a torn tail (the
/// bytes after the last verified footer) as damage instead of silently
/// trusting it. Lives in this module because INC006 forbids `OpenOptions`
/// everywhere else.
#[derive(Debug)]
pub struct AppendLog {
    file: fs::File,
    path: PathBuf,
}

impl AppendLog {
    /// Opens (creating if needed) `path` for appending.
    pub fn open(path: &Path) -> Result<Self, CheckpointError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(AppendLog {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one record. The payload must be a single line (the framing
    /// relies on payloads never containing `\n`; JSON-encoded records
    /// satisfy this by construction). The record and its footer are
    /// written in one `write_all` so a torn append damages at most the
    /// final record, which `read_log` then skips and reports.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), CheckpointError> {
        if payload.contains(&b'\n') {
            return Err(CheckpointError::Corrupt {
                path: self.path.clone(),
                detail: "journal record contains a newline".to_string(),
            });
        }
        let mut framed = Vec::with_capacity(framed_len(payload.len()) as usize);
        framed.extend_from_slice(payload);
        framed.extend_from_slice(FOOTER_PREFIX);
        framed.extend_from_slice(fnv64_hex(payload).as_bytes());
        framed.push(b'\n');
        self.file
            .write_all(&framed)
            .map_err(|e| io_err(&self.path, e))?;
        self.file.flush().map_err(|e| io_err(&self.path, e))
    }

    /// Empties the log with one `ftruncate(2)`, so a kill leaves either
    /// every record or none. Later appends start at offset 0 (the file is
    /// in append mode).
    pub fn truncate(&mut self) -> Result<(), CheckpointError> {
        self.cut_to(0)
    }

    /// Cuts the log back to its first `len` bytes with one `ftruncate(2)`
    /// — how a torn final record, reported by [`read_log_strict`] at its
    /// start offset, is dropped before the next append lands after it.
    pub fn cut_to(&mut self, len: u64) -> Result<(), CheckpointError> {
        self.file.set_len(len).map_err(|e| io_err(&self.path, e))
    }
}

/// Reads an [`AppendLog`]: every record whose footer verifies, in append
/// order, plus the byte offset where damage begins if the tail is torn
/// (`None` when the whole file verifies). A missing or hash-mismatched
/// footer anywhere before the end also counts as the start of damage —
/// everything after the last clean record is untrusted.
#[allow(clippy::type_complexity)]
pub fn read_log(path: &Path) -> Result<(Vec<Vec<u8>>, Option<u64>), CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let (records, damage) = parse_log(&bytes);
    Ok((records, damage.map(|at| at as u64)))
}

/// [`read_log`] for a log whose complete records must never be dropped
/// silently. The one damage tolerated is a torn tail — a strict prefix of
/// a single record after the last verified one, which is all a writer
/// killed mid-append can leave — reported by its offset as `read_log`
/// does. Damage to a complete record (a flipped byte, a mangled footer)
/// is a typed [`CheckpointError::Corrupt`] naming the record's offset.
#[allow(clippy::type_complexity)]
pub fn read_log_strict(path: &Path) -> Result<(Vec<Vec<u8>>, Option<u64>), CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let (records, damage) = parse_log(&bytes);
    match damage {
        Some(at) if !is_torn_tail(&bytes[at..]) => Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("log record at byte {at} is damaged"),
        }),
        _ => Ok((records, damage.map(|at| at as u64))),
    }
}

/// Splits log bytes into verified records and the offset of the first
/// byte that is not part of one.
fn parse_log(bytes: &[u8]) -> (Vec<Vec<u8>>, Option<usize>) {
    let mut records = Vec::new();
    let mut cursor = 0usize;
    while cursor < bytes.len() {
        // Payloads are newline-free, so the first footer marker past the
        // cursor belongs to the current record.
        let Some(rel) = bytes[cursor..]
            .windows(FOOTER_PREFIX.len())
            .position(|w| w == FOOTER_PREFIX)
        else {
            return (records, Some(cursor));
        };
        let payload = &bytes[cursor..cursor + rel];
        let footer_start = cursor + rel + FOOTER_PREFIX.len();
        let footer_end = footer_start + FOOTER_HASH_LEN;
        if footer_end > bytes.len() {
            return (records, Some(cursor));
        }
        let footer = &bytes[footer_start..footer_end];
        let clean = footer[16] == b'\n'
            && footer[..16].iter().all(u8::is_ascii_hexdigit)
            && footer[..16] == *fnv64_hex(payload).as_bytes();
        if !clean {
            return (records, Some(cursor));
        }
        records.push(payload.to_vec());
        cursor = footer_end;
    }
    (records, None)
}

/// Whether `tail`, the bytes after a log's last verified record, is a
/// strict prefix of one framed record: payload bytes, then at most a
/// partial footer. A record whose footer line was written in full never
/// is, so damage to a complete record is told apart from a torn append —
/// provided payloads never contain the marker text `#fnv64:`, which JSON
/// of numbers and hex strings cannot.
fn is_torn_tail(tail: &[u8]) -> bool {
    let marker = &FOOTER_PREFIX[1..];
    let head_len = tail.iter().position(|&b| b == b'\n').unwrap_or(tail.len());
    let (head, footer) = tail.split_at(head_len);
    footer.len() < FOOTER_PREFIX.len() + FOOTER_HASH_LEN
        && footer.iter().zip(FOOTER_PREFIX).all(|(a, b)| a == b)
        && footer[footer.len().min(FOOTER_PREFIX.len())..]
            .iter()
            .all(u8::is_ascii_hexdigit)
        && !head.windows(marker.len()).any(|w| w == marker)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("incite-atomic-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
        assert_eq!(fnv64_hex(b"abc").len(), 16);
    }

    #[test]
    fn hashed_roundtrip_and_no_temp_residue() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("state.ckpt");
        let payload = br#"{"step":"bootstrap","n":42}"#;
        let hash = write_hashed(&path, payload).expect("write");
        assert_eq!(hash, fnv64_hex(payload));
        assert_eq!(read_hashed(&path).expect("read"), payload.to_vec());
        // The temp sibling must be gone after the rename.
        assert!(!dir.join(".state.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let dir = temp_dir("overwrite");
        let path = dir.join("state.ckpt");
        write_hashed(&path, b"first").expect("write 1");
        write_hashed(&path, b"second").expect("write 2");
        assert_eq!(read_hashed(&path).expect("read"), b"second".to_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = temp_dir("flip");
        let path = dir.join("state.ckpt");
        write_hashed(&path, b"checkpoint payload bytes").expect("write");
        let clean = std::fs::read(&path).expect("raw read");
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x01;
            std::fs::write(&path, &corrupt).expect("corrupt write");
            assert!(
                read_hashed(&path).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let dir = temp_dir("trunc");
        let path = dir.join("state.ckpt");
        write_hashed(&path, b"a longer payload that will be cut").expect("write");
        let clean = std::fs::read(&path).expect("raw read");
        std::fs::write(&path, &clean[..clean.len() / 2]).expect("truncate");
        assert!(read_hashed(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_log_roundtrips_in_order() {
        let dir = temp_dir("log");
        let path = dir.join("journal.log");
        let mut log = AppendLog::open(&path).expect("open");
        log.append(br#"{"seq":1}"#).expect("append 1");
        log.append(br#"{"seq":2}"#).expect("append 2");
        drop(log);
        // Reopening appends after the existing records.
        let mut log = AppendLog::open(&path).expect("reopen");
        log.append(br#"{"seq":3}"#).expect("append 3");
        let (records, damage) = read_log(&path).expect("read");
        assert_eq!(
            records,
            vec![
                br#"{"seq":1}"#.to_vec(),
                br#"{"seq":2}"#.to_vec(),
                br#"{"seq":3}"#.to_vec()
            ]
        );
        assert_eq!(damage, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_log_rejects_multiline_payloads() {
        let dir = temp_dir("log-nl");
        let mut log = AppendLog::open(&dir.join("journal.log")).expect("open");
        assert!(matches!(
            log.append(b"two\nlines"),
            Err(CheckpointError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_reported_not_trusted() {
        let dir = temp_dir("log-torn");
        let path = dir.join("journal.log");
        let mut log = AppendLog::open(&path).expect("open");
        log.append(b"record one").expect("append");
        log.append(b"record two").expect("append");
        drop(log);
        let clean_len = std::fs::metadata(&path).expect("meta").len();
        // A crash mid-append: half of a third record's bytes.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"record thr");
        std::fs::write(&path, &bytes).expect("tear");
        let (records, damage) = read_log(&path).expect("read log");
        assert_eq!(records.len(), 2);
        assert_eq!(damage, Some(clean_len));

        // A flipped payload bit invalidates that record and the tail.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[2] ^= 0x01;
        std::fs::write(&path, &bytes).expect("flip");
        let (records, damage) = read_log(&path).expect("read log");
        assert!(records.is_empty());
        assert_eq!(damage, Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn write_records(path: &Path, records: &[&[u8]]) -> Vec<u8> {
        std::fs::remove_file(path).ok();
        let mut log = AppendLog::open(path).expect("open");
        for record in records {
            log.append(record).expect("append");
        }
        std::fs::read(path).expect("read")
    }

    #[test]
    fn strict_reader_resumes_past_a_torn_tail_at_every_offset() {
        let dir = temp_dir("log-strict-torn");
        let path = dir.join("state.log");
        let records: [&[u8]; 2] = [br#"{"start":0,"rows":[1,2]}"#, br#"{"start":2,"rows":[3]}"#];
        let clean = write_records(&path, &records);
        let last_start = (framed_len(records[0].len())) as usize;
        for cut in last_start + 1..clean.len() {
            std::fs::write(&path, &clean[..cut]).expect("truncate");
            let (read, torn) = read_log_strict(&path).expect("a torn tail is tolerated");
            assert_eq!(read, vec![records[0].to_vec()], "cut at {cut}");
            assert_eq!(torn, Some(last_start as u64), "cut at {cut}");
            // Cut back to the reported offset, the record appends cleanly.
            let mut log = AppendLog::open(&path).expect("open");
            log.cut_to(last_start as u64).expect("cut");
            log.append(records[1]).expect("append");
            assert_eq!(std::fs::read(&path).expect("read"), clean, "cut at {cut}");
        }
        std::fs::write(&path, &clean).expect("restore");
        assert_eq!(read_log_strict(&path).expect("clean").1, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_reader_refuses_every_flip_in_a_complete_record() {
        let dir = temp_dir("log-strict-flip");
        let path = dir.join("state.log");
        let records: [&[u8]; 3] = [b"{\"a\":1}", b"{\"b\":[2,3]}", b"{\"c\":4}"];
        let clean = write_records(&path, &records);
        let (first, second) = (
            framed_len(records[0].len()) as usize,
            framed_len(records[1].len()) as usize,
        );
        // The middle record and the last one: a flip must never read as a
        // torn tail and silently roll the log back.
        for (lo, hi) in [(first, first + second), (first + second, clean.len())] {
            for i in lo..hi {
                for mask in [0x01u8, 0xff] {
                    let mut corrupt = clean.clone();
                    corrupt[i] ^= mask;
                    std::fs::write(&path, &corrupt).expect("flip");
                    assert!(
                        matches!(read_log_strict(&path), Err(CheckpointError::Corrupt { .. })),
                        "flip {mask:#x} at byte {i} was not refused"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_empties_the_log_and_appends_restart_at_zero() {
        let dir = temp_dir("log-truncate");
        let path = dir.join("state.log");
        let mut log = AppendLog::open(&path).expect("open");
        log.append(b"one").expect("append");
        log.truncate().expect("truncate");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 0);
        log.append(b"two").expect("append");
        let (records, damage) = read_log_strict(&path).expect("read");
        assert_eq!(records, vec![b"two".to_vec()]);
        assert_eq!(damage, None);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), framed_len(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = temp_dir("missing");
        match read_hashed(&dir.join("nope.ckpt")) {
            Err(CheckpointError::Io { .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
