//! The bounded binary codec under every binary checkpoint payload: the
//! run directory's ledger and score sections (`ILEDGER1`, `ISCORES1`) and
//! the stream watcher's `STREAM.ckpt` snapshot and `STREAM.log` records.
//!
//! A payload opens with an 8-byte frame tag that names its layout and
//! version. Fixed-width little-endian fields and length-prefixed
//! sequences follow. [`Writer`] appends them with `extend_from_slice`,
//! and [`Reader`] reads them back through one bounds-checked cursor:
//!
//! * every read checks the bytes left first, so a cut payload is an
//!   error, never a panic;
//! * a sequence count is checked against the bytes left before anything
//!   is allocated for it: `n` items of at least `k` bytes each need
//!   `n × k` bytes after the count, so a forged `u32::MAX` is refused at
//!   its own offset instead of reserving gigabytes;
//! * every [`CodecError`] names the payload offset where decoding stopped.
//!
//! Integrity is not the codec's job: the `atomic_io` hash footer around a
//! payload catches flipped bytes. The codec turns whatever still gets past
//! the footer (a payload of another layout or version, a bug) into a typed
//! error.
//!
//! [`escape_record`] and [`unescape_record`] carry a binary payload as an
//! [`AppendLog`](super::atomic_io::AppendLog) record, which must hold no
//! newline and no `#` byte.
//!
//! Lint rule INC016 (DESIGN.md §19) polices the length arithmetic in this
//! file: a wire-decoded count reaches `+`, `*` or a narrowing cast only
//! after a bound check or through `checked_*`.

use super::CheckpointError;
use std::fmt;
use std::path::Path;

/// Why a payload did not decode, and the payload offset where it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset into the payload of the field that failed.
    pub offset: usize,
    /// What was wrong with it.
    pub detail: &'static str,
}

impl CodecError {
    /// The typed checkpoint error for this failure in the file `path`.
    pub fn corrupt(self, path: &Path) -> CheckpointError {
        CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: self.to_string(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at payload byte {}", self.detail, self.offset)
    }
}

impl std::error::Error for CodecError {}

/// Builds one payload: the frame tag, then fields in call order.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A payload opening with `tag`, with room for `capacity` bytes.
    pub fn new(tag: &[u8; 8], capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity.max(tag.len()));
        buf.extend_from_slice(tag);
        Writer { buf }
    }

    pub fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    pub fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    pub fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// A sequence count or byte length as a `u32` ([`Reader::len_u32`]).
    /// Lengths from 2^32 up saturate to `u32::MAX`; nothing framed here
    /// comes near that.
    pub fn len_u32(&mut self, len: usize) {
        self.u32(u32::try_from(len).unwrap_or(u32::MAX));
    }

    /// A sequence count as a `u64` ([`Reader::len_u64`]).
    pub fn len_u64(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// A byte string: its `u32` length, then the bytes ([`Reader::blob`]).
    pub fn blob(&mut self, bytes: &[u8]) {
        self.len_u32(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian cursor over one payload.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor after the frame tag, which must be `tag`.
    pub fn new(bytes: &'a [u8], tag: &[u8; 8]) -> Result<Self, CodecError> {
        if !bytes.starts_with(tag) {
            return Err(CodecError {
                offset: 0,
                detail: "foreign or outdated frame tag",
            });
        }
        Ok(Reader {
            bytes,
            pos: tag.len(),
        })
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(CodecError {
                offset: self.pos,
                detail: "payload is truncated",
            })?;
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let offset = self.pos;
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| CodecError {
            offset,
            detail: "payload is truncated",
        })
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` count of items that each take at least `item_bytes` bytes,
    /// refused at its own offset unless that many bytes are left after it.
    pub fn len_u32(&mut self, item_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let count = u32::from_le_bytes(self.array()?);
        self.bounded(at, u64::from(count), item_bytes)
    }

    /// A `u64` count, bounded as [`Reader::len_u32`] bounds its count.
    pub fn len_u64(&mut self, item_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let count = u64::from_le_bytes(self.array()?);
        self.bounded(at, count, item_bytes)
    }

    /// `count` as a `usize`, if `count` items of `item_bytes` fit in the
    /// bytes left.
    fn bounded(&self, at: usize, count: u64, item_bytes: usize) -> Result<usize, CodecError> {
        let left = self.bytes.len().saturating_sub(self.pos);
        usize::try_from(count)
            .ok()
            .filter(|&n| n.checked_mul(item_bytes).is_some_and(|need| need <= left))
            .ok_or(CodecError {
                offset: at,
                detail: "count exceeds the bytes left",
            })
    }

    /// A byte string written by [`Writer::blob`].
    pub fn blob(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.len_u32(1)?;
        self.take(len)
    }

    /// Ends the decode; bytes after the last field are an error.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError {
                offset: self.pos,
                detail: "trailing bytes after the last field",
            })
        }
    }
}

/// The escape byte of [`escape_record`], and each byte it escapes with
/// the byte that follows the escape in its place.
const ESCAPE: u8 = b'\\';
const ESCAPED: [(u8, u8); 3] = [(b'\n', b'n'), (b'#', b'h'), (ESCAPE, ESCAPE)];

/// Whether `escape_record` escapes `byte`, one of the raw bytes of
/// `ESCAPED`.
fn needs_escape(byte: &u8) -> bool {
    matches!(*byte, b'\n' | b'#' | ESCAPE)
}

/// `payload` with every newline, `#` and escape byte replaced by a
/// two-byte escape, so it holds none of the bytes the `AppendLog` framing
/// reads: a record is framed by newlines, and its footer marker starts
/// with `#`. Random bytes grow by 3 in 256.
pub fn escape_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + payload.len() / 64 + 8);
    let mut rest = payload;
    while let Some(at) = rest.iter().position(needs_escape) {
        let byte = rest[at];
        let code = ESCAPED
            .iter()
            .find(|(raw, _)| *raw == byte)
            .map_or(byte, |(_, code)| *code);
        out.extend_from_slice(&rest[..at]);
        out.extend_from_slice(&[ESCAPE, code]);
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest);
    out
}

/// Inverts [`escape_record`]. An unknown or cut-off escape, or a raw
/// newline or `#`, is an error at its offset in `record`.
pub fn unescape_record(record: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(record.len());
    let mut bytes = record.iter().copied().enumerate();
    while let Some((at, byte)) = bytes.next() {
        let raw = match byte {
            ESCAPE => bytes.next().and_then(|(_, code)| {
                ESCAPED
                    .iter()
                    .find(|(_, known)| *known == code)
                    .map(|(raw, _)| *raw)
            }),
            b'\n' | b'#' => None,
            plain => Some(plain),
        };
        out.push(raw.ok_or(CodecError {
            offset: at,
            detail: "invalid escape in a log record",
        })?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: &[u8; 8] = b"ITEST001";

    fn sample() -> Vec<u8> {
        let mut w = Writer::new(TAG, 0);
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.blob(b"text");
        w.len_u32(2);
        w.u64(1);
        w.u64(2);
        w.finish()
    }

    #[test]
    fn fields_roundtrip_in_order() -> Result<(), CodecError> {
        let bytes = sample();
        let mut r = Reader::new(&bytes, TAG)?;
        assert_eq!(r.u8()?, 7);
        assert_eq!(r.u32()?, 0xdead_beef);
        assert_eq!(r.u64()?, u64::MAX);
        assert_eq!(r.blob()?, b"text");
        assert_eq!(r.len_u32(8)?, 2);
        assert_eq!((r.u64()?, r.u64()?), (1, 2));
        r.finish()
    }

    /// Reads `sample()`'s fields, stopping at the first error.
    fn read_sample(bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes, TAG)?;
        r.u8()?;
        r.u32()?;
        r.u64()?;
        r.blob()?;
        for _ in 0..r.len_u32(8)? {
            r.u64()?;
        }
        r.finish()
    }

    #[test]
    fn every_cut_and_a_trailing_byte_are_typed_errors() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = read_sample(&bytes[..cut]).expect_err("a cut payload decodes");
            assert!(err.offset <= cut, "cut {cut}: {err}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            read_sample(&longer),
            Err(CodecError {
                offset: bytes.len(),
                detail: "trailing bytes after the last field"
            })
        );
        assert_eq!(read_sample(b"ITEST002").map_err(|e| e.offset), Err(0));
    }

    #[test]
    fn a_count_beyond_the_bytes_left_is_refused_at_its_offset() {
        let mut w = Writer::new(TAG, 0);
        w.len_u32(3);
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        // Two items of 8 bytes follow; three do not fit.
        let mut r = Reader::new(&bytes, TAG).expect("tag");
        assert_eq!(
            r.len_u32(8),
            Err(CodecError {
                offset: 8,
                detail: "count exceeds the bytes left"
            })
        );
        for forged in [
            u32::MAX.to_le_bytes().to_vec(),
            u64::MAX.to_le_bytes().to_vec(),
        ] {
            let mut bytes = TAG.to_vec();
            bytes.extend_from_slice(&forged);
            let mut r = Reader::new(&bytes, TAG).expect("tag");
            let err = if forged.len() == 4 {
                r.len_u32(1)
            } else {
                r.len_u64(1)
            };
            assert_eq!(err.map_err(|e| e.offset), Err(8));
        }
        // A zero-width item never overflows the bound.
        let mut r = Reader::new(&bytes, TAG).expect("tag");
        assert_eq!(r.len_u32(0), Ok(3));
    }

    #[test]
    fn escaped_records_hold_no_framing_bytes_and_roundtrip() {
        let every: Vec<u8> = (0..=255u8).chain([b'\\', b'\n', b'#', b'\\']).collect();
        let escaped = escape_record(&every);
        assert!(!escaped.contains(&b'\n') && !escaped.contains(&b'#'));
        assert_eq!(escaped.len(), every.len() + 7);
        assert_eq!(unescape_record(&escaped), Ok(every));
        assert_eq!(escape_record(b"plain"), b"plain");
        for (bad, offset) in [(&b"ab\\"[..], 2), (b"\\x", 0), (b"a\nb", 1), (b"a#", 1)] {
            assert_eq!(unescape_record(bad).map_err(|e| e.offset), Err(offset));
        }
    }
}
