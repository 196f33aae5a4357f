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
//! the per-step checkpoint tax stays small (perfbench's `paper_pipeline`
//! ops pay it in full). Tearing from a power loss is
//! *detected* rather than prevented: the footer check refuses the file
//! and `clear_run_dir` (the CLI's `--force`) recovers the directory, so
//! damaged state is never resumed from either way.
//!
//! Renaming over an existing file is cheap only once. On ext4
//! (`rw,relatime,discard`, a 2-vCPU VM), replacing a freshly written 3 MB
//! file by rename blocked from the second replacement on: 251–312 ms in
//! one run, 57–99 ms and 29–45 ms in later ones, as the disk's writeback
//! speed varied. A rename onto a vacant name took under 0.06 ms. The cost
//! is not the rename but freeing the file it replaces: ext4
//! (`auto_da_alloc`) starts writeback of a file that replaced another by
//! rename, and that file cannot be freed until the writeback ends. A file
//! that never replaced another was unlinked in under 0.1 ms. So a hot
//! path that rewrites one fixed name (the stream watcher's `STREAM.ckpt`)
//! first calls [`set_aside`], which renames the old file to
//! `.<name>.prev`, then writes onto the vacant name, then calls
//! [`discard_aside`]. The window in between has no file at `path`; a
//! reader that finds none reads [`aside_path`] instead, and only then.
//! One-shot writers (run dir sections have fresh names, the manifest is
//! written only when absent, CLI outputs run once) keep plain
//! [`write_atomic`].
//!
//! Lint rule INC006 enforces the funnel: the workspace `clippy.toml`
//! bans `File::create`, `fs::write` and `OpenOptions::new` everywhere
//! except the two funnel items here that open files for writing
//! ([`write_atomic`] and [`AppendLog::open`], allowed on each), so no
//! code path can quietly bypass the write-rename + hash discipline. The
//! same clippy lint carries the INC002 clock ban, which stays in force
//! for the rest of this module.

use super::CheckpointError;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The FNV-1a 64 content hash (unseeded [`incite_textkit::fnv1a`])
/// rendered as the fixed-width hex used in footers and manifests.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", incite_textkit::fnv1a(bytes, 0))
}

/// Integrity footer marker. The footer is appended after the payload, so
/// the *last* occurrence of this marker is always the real footer — even
/// for binary payloads that could contain the byte sequence by chance.
const FOOTER_PREFIX: &[u8] = b"\n#fnv64:";

/// Footer bytes after the marker: 16 hex digits and a closing newline.
const FOOTER_HASH_LEN: usize = 17;

/// Whether `footer`, the bytes after the marker, has the strict footer
/// shape: exactly 16 hex digits and a closing newline.
fn footer_shaped(footer: &[u8]) -> bool {
    footer.len() == FOOTER_HASH_LEN
        && footer[16] == b'\n'
        && footer[..16].iter().all(u8::is_ascii_hexdigit)
}

/// Bytes [`AppendLog::cut_torn_tail`] first reads from the end of a log;
/// a window that holds no whole final record is read again four times
/// larger.
const TAIL_WINDOW: u64 = 4096;

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

/// The hidden sibling `.<name>.<suffix>` of `path`.
fn sibling(path: &Path, suffix: &str) -> Result<PathBuf, CheckpointError> {
    let name =
        path.file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| CheckpointError::Corrupt {
                path: path.to_path_buf(),
                detail: "path has no usable file name".to_string(),
            })?;
    Ok(path.with_file_name(format!(".{name}.{suffix}")))
}

/// Where [`set_aside`] moves `path`: its sibling `.<name>.prev`.
pub fn aside_path(path: &Path) -> Result<PathBuf, CheckpointError> {
    sibling(path, "prev")
}

/// Unlinks `path`; a missing file is not an error.
fn remove_if_present(path: &Path) -> Result<(), CheckpointError> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(path, e)),
        _ => Ok(()),
    }
}

/// Moves `path` to [`aside_path`] so that the next write of `path`
/// renames onto a vacant name (module docs). A stale aside from an
/// earlier crash is unlinked first, so this rename too lands on a vacant
/// name. If `path` is missing, the aside is left alone: it is then the
/// live file of a rewrite that was interrupted after its own set-aside,
/// and deleting it would lose that state.
pub fn set_aside(path: &Path) -> Result<(), CheckpointError> {
    let aside = aside_path(path)?;
    if !path.try_exists().map_err(|e| io_err(path, e))? {
        return Ok(());
    }
    remove_if_present(&aside)?;
    fs::rename(path, &aside).map_err(|e| io_err(path, e))
}

/// Unlinks the file [`set_aside`] moved away from `path`, once the new
/// `path` is in place. A missing aside is not an error.
pub fn discard_aside(path: &Path) -> Result<(), CheckpointError> {
    remove_if_present(&aside_path(path)?)
}

/// Atomically replaces `path` with `bytes` via write-to-temp + rename.
/// The raw building block; checkpoint files should prefer
/// [`write_hashed`], which adds the integrity footer.
// INC006 (DESIGN.md §10): the write funnel itself.
#[allow(clippy::disallowed_methods)]
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
        }
    }
    let tmp = sibling(path, "tmp")?;
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
/// when the recomputed hash matches exactly, together with that hash, so
/// a caller comparing it with a recorded one need not hash again.
pub fn read_hashed(path: &Path) -> Result<(Vec<u8>, String), CheckpointError> {
    let mut framed = fs::read(path).map_err(|e| io_err(path, e))?;
    let footer_at = framed
        .windows(FOOTER_PREFIX.len())
        .rposition(|w| w == FOOTER_PREFIX)
        .ok_or_else(|| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: "missing integrity footer (truncated or foreign file)".to_string(),
        })?;
    let (payload, footer) = framed.split_at(footer_at);
    let footer = &footer[FOOTER_PREFIX.len()..];
    // Strict footer shape — exactly 16 hex digits and a closing newline —
    // so a flip of *any* byte, the terminator included, is corruption.
    if !footer_shaped(footer) {
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
    framed.truncate(footer_at);
    Ok((framed, actual))
}

/// An append-only log of individually hash-framed records — the on-disk
/// form of the run manifest, the serve request journal and the stream
/// checkpoint delta log.
///
/// Unlike the write-rename checkpoint files above, a journal must survive
/// the *writer* dying mid-append: each record is one newline-free payload
/// line followed by its own FNV footer line, so [`read_log_strict`] can
/// verify every complete record independently and report a torn tail (the
/// bytes after the last verified footer) instead of silently trusting it.
/// Lives in this module because INC006 forbids `OpenOptions` everywhere
/// else.
///
/// The record contract: a payload holds no newline ([`AppendLog::append`]
/// refuses one), because newlines frame the records. A payload may hold
/// the footer marker text `#fnv64:` (serve journal records carry client
/// texts), but should not end in it followed by 16 hex digits: such a
/// record, torn right after its footer's leading newline, looks exactly
/// like a complete record whose leading newline flipped, and is refused as
/// damaged rather than cut as torn. JSON records meet the contract by
/// construction (string escaping, a closing `}`); binary payloads go
/// through [`codec::escape_record`](super::codec::escape_record), which
/// leaves no newline and no `#`.
#[derive(Debug)]
pub struct AppendLog {
    file: fs::File,
    path: PathBuf,
}

impl AppendLog {
    /// Opens (creating if needed) `path` for appending.
    // INC006 (DESIGN.md §10): the append funnel itself.
    #[allow(clippy::disallowed_methods)]
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

    /// Appends one record. The payload must meet the record contract above
    /// (a newline is refused). The record and its footer are written in
    /// one `write_all` so a torn append damages at most the final record,
    /// which `read_log_strict` then skips and reports.
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

    /// Cuts a torn final record off the log, so the next append follows
    /// the last intact one. Reads only the end of the file: the last
    /// complete record must verify, and any bytes after it must be a torn
    /// append (see [`read_log_strict`]). Returns the offset the log was
    /// cut back to, or `None` when it already ended on a verified record.
    /// Other damage at the end is a typed [`CheckpointError::Corrupt`]
    /// naming the damaged record's offset.
    pub fn cut_torn_tail(&mut self) -> Result<Option<u64>, CheckpointError> {
        let mut file = fs::File::open(&self.path).map_err(|e| io_err(&self.path, e))?;
        let len = file.metadata().map_err(|e| io_err(&self.path, e))?.len();
        let mut window_len = TAIL_WINDOW;
        loop {
            let start = len.saturating_sub(window_len);
            let mut window = Vec::new();
            file.seek(SeekFrom::Start(start))
                .and_then(|_| file.read_to_end(&mut window))
                .map_err(|e| io_err(&self.path, e))?;
            match log_end(&window, start == 0) {
                LogEnd::Clean => return Ok(None),
                LogEnd::Torn(at) => {
                    let at = start + at as u64;
                    self.cut_to(at)?;
                    return Ok(Some(at));
                }
                LogEnd::Damaged(at) => {
                    return Err(CheckpointError::Corrupt {
                        path: self.path.clone(),
                        detail: format!("log record at byte {} is damaged", start + at as u64),
                    })
                }
                LogEnd::NeedMore => window_len = window_len.saturating_mul(4),
            }
        }
    }
}

/// How a log ends, judged from a window of its last bytes.
enum LogEnd {
    /// On a verified record, or the log is empty.
    Clean,
    /// In a torn append starting at this window offset.
    Torn(usize),
    /// In a damaged record starting at this window offset.
    Damaged(usize),
    /// The window holds no whole final record.
    NeedMore,
}

/// Classifies the end of a log from `window`, its last bytes (all of
/// them when `whole` is set).
fn log_end(window: &[u8], whole: bool) -> LogEnd {
    // A full footer line ends a complete record: a torn append holds at
    // most part of one, and payloads are newline-free, so no payload holds
    // one.
    let footer_len = FOOTER_PREFIX.len() + FOOTER_HASH_LEN;
    let footer = window
        .windows(footer_len)
        .rposition(|w| w.starts_with(FOOTER_PREFIX) && footer_shaped(&w[FOOTER_PREFIX.len()..]));
    let record_end = match footer {
        // Payloads are newline-free, so the record starts after the
        // previous record's closing newline.
        Some(at) => {
            let record_start = match window[..at].iter().rposition(|&b| b == b'\n') {
                Some(newline) => newline + 1,
                None if whole => 0,
                None => return LogEnd::NeedMore,
            };
            let hash = &window[at + FOOTER_PREFIX.len()..at + footer_len - 1];
            if hash != fnv64_hex(&window[record_start..at]).as_bytes() {
                return LogEnd::Damaged(record_start);
            }
            at + footer_len
        }
        None if whole => 0,
        None => return LogEnd::NeedMore,
    };
    match &window[record_end..] {
        [] => LogEnd::Clean,
        tail if is_torn_tail(tail) => LogEnd::Torn(record_end),
        _ => LogEnd::Damaged(record_end),
    }
}

/// Reads an [`AppendLog`] whose complete records must never be dropped
/// silently: every record, in append order, plus the byte offset of a
/// torn tail (`None` when the whole file verifies). The one damage
/// tolerated is a torn tail — a strict prefix of a single record after the
/// last verified one, which is all a writer killed mid-append can leave.
/// Damage to a complete record (a flipped byte, a mangled footer) is a
/// typed [`CheckpointError::Corrupt`] naming the record's offset.
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
        let clean = footer_shaped(footer) && footer[..16] == *fnv64_hex(payload).as_bytes();
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
/// partial footer. Payloads are newline-free, so the first newline starts
/// the footer. A record whose footer line was written in full never is
/// such a prefix, with one shape to refuse by hand: a complete record
/// whose footer's leading newline flipped leaves a head ending in the
/// marker text and 16 hex digits, then a lone `\n`, which reads like a
/// record torn after that newline. Only that shape is refused; a payload
/// holding the marker text elsewhere is still a torn append when cut.
fn is_torn_tail(tail: &[u8]) -> bool {
    let head_len = tail.iter().position(|&b| b == b'\n').unwrap_or(tail.len());
    let (head, footer) = tail.split_at(head_len);
    footer.len() < FOOTER_PREFIX.len() + FOOTER_HASH_LEN
        && footer.iter().zip(FOOTER_PREFIX).all(|(a, b)| a == b)
        && footer[footer.len().min(FOOTER_PREFIX.len())..]
            .iter()
            .all(u8::is_ascii_hexdigit)
        && !(footer == b"\n" && ends_in_footer_text(head))
}

/// Whether `head` ends in the footer marker's text and 16 hex digits: a
/// footer line that lost its leading newline.
fn ends_in_footer_text(head: &[u8]) -> bool {
    let marker = &FOOTER_PREFIX[1..];
    head.len()
        .checked_sub(marker.len() + 16)
        .map(|at| head.split_at(at).1.split_at(marker.len()))
        .is_some_and(|(text, hash)| text == marker && hash.iter().all(u8::is_ascii_hexdigit))
}

// Tests stage damaged files with plain writes.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("incite-atomic-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv64_hex(b"abc"), "e71fa2190541574b");
        assert_ne!(fnv64_hex(b"abc"), fnv64_hex(b"abd"));
    }

    #[test]
    fn hashed_roundtrip_and_no_temp_residue() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("state.ckpt");
        let payload = br#"{"step":"bootstrap","n":42}"#;
        let hash = write_hashed(&path, payload).expect("write");
        assert_eq!(hash, fnv64_hex(payload));
        assert_eq!(read_hashed(&path).expect("read"), (payload.to_vec(), hash));
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
        assert_eq!(read_hashed(&path).expect("read").0, b"second".to_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn set_aside_vacates_the_path_and_discard_removes_the_old_file() {
        let dir = temp_dir("aside");
        let path = dir.join("state.ckpt");
        let aside = dir.join(".state.ckpt.prev");
        assert_eq!(aside_path(&path).expect("aside path"), aside);
        // Nothing to move, nothing to discard: both are no-ops.
        set_aside(&path).expect("set aside a missing file");
        discard_aside(&path).expect("discard a missing aside");
        assert!(!aside.exists());

        write_hashed(&path, b"first").expect("write 1");
        // A stale aside from an interrupted rewrite gives way to the
        // current file.
        std::fs::write(&aside, b"stale").expect("plant stale aside");
        set_aside(&path).expect("set aside");
        assert!(!path.exists());
        assert_eq!(read_hashed(&aside).expect("aside").0, b"first".to_vec());
        write_hashed(&path, b"second").expect("write 2");
        discard_aside(&path).expect("discard");
        assert!(!aside.exists());
        assert_eq!(read_hashed(&path).expect("read").0, b"second".to_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn set_aside_never_unlinks_the_aside_when_the_path_is_missing() {
        let dir = temp_dir("aside-live");
        let path = dir.join("state.ckpt");
        write_hashed(&path, b"live").expect("write");
        set_aside(&path).expect("set aside");
        // A crash here leaves only the aside; the retried rewrite sets
        // aside again before it writes.
        set_aside(&path).expect("set aside again");
        let aside = aside_path(&path).expect("aside path");
        assert_eq!(read_hashed(&aside).expect("aside kept").0, b"live".to_vec());
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
        let (records, damage) = read_log_strict(&path).expect("read");
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
        let (records, damage) = read_log_strict(&path).expect("read log");
        assert_eq!(records.len(), 2);
        assert_eq!(damage, Some(clean_len));

        // A flipped payload bit in a complete record is refused, by offset.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[2] ^= 0x01;
        std::fs::write(&path, &bytes).expect("flip");
        match read_log_strict(&path) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("byte 0"), "{detail}");
            }
            other => panic!("expected a damaged-record refusal, got {other:?}"),
        }
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
    fn cut_torn_tail_cuts_a_torn_append_and_refuses_a_damaged_record() {
        let dir = temp_dir("log-cut");
        let path = dir.join("journal.log");
        let empty = AppendLog::open(&path).expect("open").cut_torn_tail();
        assert_eq!(empty.expect("empty log"), None);
        // The final record is longer than one read window.
        let long = vec![b'x'; 2 * TAIL_WINDOW as usize];
        let records: [&[u8]; 3] = [b"one", b"two", &long];
        let clean = write_records(&path, &records);
        let mut log = AppendLog::open(&path).expect("open");
        assert_eq!(log.cut_torn_tail().expect("clean log"), None);
        let last_start = clean.len() - framed_len(long.len()) as usize;
        let footer_start = clean.len() - framed_len(0) as usize;
        for cut in [last_start + 1, last_start + 100, footer_start]
            .into_iter()
            .chain(footer_start + 1..clean.len())
        {
            std::fs::write(&path, &clean[..cut]).expect("tear");
            let at = log.cut_torn_tail().expect("a torn tail is cut");
            assert_eq!(at, Some(last_start as u64), "cut at {cut}");
            assert!(std::fs::read(&path).expect("read") == clean[..last_start]);
        }
        // A flipped byte in the final complete record is not a torn append.
        let mut flipped = clean.clone();
        flipped[last_start + 7] ^= 0x01;
        std::fs::write(&path, &flipped).expect("flip");
        match log.cut_torn_tail() {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains(&format!("byte {last_start}")), "{detail}");
            }
            other => panic!("expected a damaged-record refusal, got {other:?}"),
        }
        assert!(
            std::fs::read(&path).expect("read") == flipped,
            "nothing is cut"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serve journal records carry client texts, which may hold the
    /// footer marker text: a record torn anywhere after it is still a torn
    /// append to both readers. Only a complete record whose footer lost
    /// its leading newline is refused.
    #[test]
    fn marker_text_in_a_payload_is_cut_as_torn_at_every_offset() {
        let dir = temp_dir("log-marker");
        let path = dir.join("journal.log");
        let text: &[u8] = br#"{"seq":2,"texts":["see #fnv64: here"]}"#;
        let clean = write_records(&path, &[br#"{"seq":1}"#, text]);
        let last_start = framed_len(br#"{"seq":1}"#.len()) as usize;
        for cut in last_start + 1..clean.len() {
            std::fs::write(&path, &clean[..cut]).expect("tear");
            let (records, torn) = read_log_strict(&path).expect("a torn tail is tolerated");
            assert_eq!(
                (records.len(), torn),
                (1, Some(last_start as u64)),
                "cut at {cut}"
            );
            let mut log = AppendLog::open(&path).expect("open");
            let at = log.cut_torn_tail().expect("a torn tail is cut");
            assert_eq!(at, Some(last_start as u64), "cut at {cut}");
            assert!(std::fs::read(&path).expect("read") == clean[..last_start]);
        }
        let newline = clean.len() - framed_len(0) as usize;
        let mut flipped = clean.clone();
        flipped[newline] ^= 0x01;
        std::fs::write(&path, &flipped).expect("flip");
        let damaged = format!("byte {last_start} is damaged");
        match read_log_strict(&path) {
            Err(CheckpointError::Corrupt { detail, .. }) => assert!(detail.contains(&damaged)),
            other => panic!("expected a damaged-record refusal, got {other:?}"),
        }
        match AppendLog::open(&path).expect("open").cut_torn_tail() {
            Err(CheckpointError::Corrupt { detail, .. }) => assert!(detail.contains(&damaged)),
            other => panic!("expected a damaged-record refusal, got {other:?}"),
        }
        assert!(
            std::fs::read(&path).expect("read") == flipped,
            "nothing is cut"
        );
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
