//! Binary and text codecs for trace files.
//!
//! The binary format mirrors the paper's concern for trace volume
//! (Section 3): records are tag + LEB128 varints with delta-encoded
//! timestamps, averaging a few bytes per event. The text format is one
//! whitespace-separated line per record, for inspection and interchange.
//!
//! # Binary layout
//!
//! ```text
//! file   := magic version record*
//! magic  := "FSTR"            (4 bytes)
//! version:= 0x01              (1 byte)
//! record := tag:u8 dt:varint payload
//! dt     := timestamp delta from previous record, in 10 ms ticks
//! ```
//!
//! Payloads per tag are sequences of varints (see `encode_into`).
//!
//! # Decoding
//!
//! One per-tag record decoder, in [`crate::block`], reads every binary
//! record. [`decode_from`] runs it one record at a time with the
//! byte-at-a-time [`get_varint`]; [`TraceReader`] decodes in batches
//! through [`decode_block`], whose bit-parallel path takes the records
//! that fit an eight-byte window and hands the rest to the same
//! decoder. Both produce the same records and the same errors at the
//! same offsets.

use std::io::{self, Read, Write};
use std::sync::OnceLock;

use crate::block::{decode_block, decode_row, row_event, RecordBlock, BATCH_RECORDS, FIELDS};
use crate::event::{AccessMode, TraceEvent, TraceRecord};
use crate::ids::{FileId, OpenId, Timestamp, UserId};

/// Process-global codec throughput counters, exported via
/// [`obs::global`] under `fstrace.codec.*`.
struct CodecCounters {
    records_encoded: obs::Counter,
    bytes_encoded: obs::Counter,
    records_decoded: obs::Counter,
    bytes_decoded: obs::Counter,
}

fn codec_counters() -> &'static CodecCounters {
    static CELLS: OnceLock<CodecCounters> = OnceLock::new();
    CELLS.get_or_init(|| CodecCounters {
        records_encoded: obs::global().counter("fstrace.codec.records_encoded"),
        bytes_encoded: obs::global().counter("fstrace.codec.bytes_encoded"),
        records_decoded: obs::global().counter("fstrace.codec.records_decoded"),
        bytes_decoded: obs::global().counter("fstrace.codec.bytes_decoded"),
    })
}

/// File magic for binary traces.
pub const MAGIC: [u8; 4] = *b"FSTR";
/// Current binary format version.
pub const VERSION: u8 = 1;

/// Wire tag of an `open` record.
pub const TAG_OPEN: u8 = 1;
/// Wire tag of an `open` record that created the file.
pub const TAG_CREATE: u8 = 2;
/// Wire tag of a `close` record.
pub const TAG_CLOSE: u8 = 3;
/// Wire tag of a `seek` record.
pub const TAG_SEEK: u8 = 4;
/// Wire tag of an `unlink` record.
pub const TAG_UNLINK: u8 = 5;
/// Wire tag of a `truncate` record.
pub const TAG_TRUNCATE: u8 = 6;
/// Wire tag of an `execve` record.
pub const TAG_EXECVE: u8 = 7;

/// Wire code for read-only access.
pub const MODE_RO: u64 = 0;
/// Wire code for write-only access.
pub const MODE_WO: u64 = 1;
/// Wire code for read-write access.
pub const MODE_RW: u64 = 2;

/// Errors produced while decoding a trace.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not begin with the expected magic bytes.
    BadMagic,
    /// The stream's format version is not supported.
    BadVersion(u8),
    /// An unknown record tag was encountered.
    BadTag(u8),
    /// A varint was malformed (continuation bits past 64 bits of value).
    BadVarint,
    /// The stream ended in the middle of a record.
    ///
    /// `offset` is the byte position of the failure and `records` the
    /// number of records successfully decoded before it. Low-level
    /// buffer decoders ([`get_varint`], [`decode_from`]) report offsets
    /// relative to the buffer they were given; [`TraceReader`] and the
    /// `tracestore` archive reader rewrite them to absolute stream
    /// positions, so a diagnostic names exactly where the damage is.
    Truncated {
        /// Byte offset of the first byte that could not be decoded.
        offset: u64,
        /// Records successfully decoded before the failure.
        records: u64,
    },
    /// An archive chunk failed its integrity check (`tracestore`).
    CorruptChunk {
        /// Zero-based index of the chunk within the archive.
        index: u64,
        /// Byte offset of the chunk header in the archive file.
        offset: u64,
    },
    /// A field held an out-of-range value (e.g. an unknown access mode).
    BadField(&'static str),
    /// A text line could not be parsed.
    BadLine(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error: {e}"),
            DecodeError::BadMagic => write!(f, "not a trace file (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown record tag {t}"),
            DecodeError::BadVarint => write!(f, "malformed varint"),
            DecodeError::Truncated { offset, records } => write!(
                f,
                "truncated record stream at byte offset {offset} (after {records} \
                 complete records)"
            ),
            DecodeError::CorruptChunk { index, offset } => write!(
                f,
                "archive chunk {index} at byte offset {offset} failed its integrity check"
            ),
            DecodeError::BadField(name) => write!(f, "invalid field: {name}"),
            DecodeError::BadLine(line) => write!(f, "unparseable text record: {line:?}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

/// Appends `v` to `out` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`.
///
/// Running out of bytes yields [`DecodeError::Truncated`] with a
/// buffer-relative offset (and `records: 0`); callers with stream
/// context rewrite both fields.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(DecodeError::Truncated {
            offset: *pos as u64,
            records: 0,
        })?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::BadVarint);
        }
        // Tenth byte: only bit 63 of the value remains, so any higher
        // value bit would silently shift out. Reject instead of wrapping.
        if shift == 63 && byte & 0x7e != 0 {
            return Err(DecodeError::BadVarint);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn mode_code(mode: AccessMode) -> u64 {
    match mode {
        AccessMode::ReadOnly => MODE_RO,
        AccessMode::WriteOnly => MODE_WO,
        AccessMode::ReadWrite => MODE_RW,
    }
}

/// Encodes one record into `out`, delta-encoding its timestamp against
/// `prev_ticks` (pass 0 for the first record). Returns the record's own
/// tick count for chaining.
pub fn encode_into(out: &mut Vec<u8>, rec: &TraceRecord, prev_ticks: u64) -> u64 {
    let ticks = rec.time.as_ticks();
    let dt = ticks.saturating_sub(prev_ticks);
    match rec.event {
        TraceEvent::Open {
            open_id,
            file_id,
            user_id,
            mode,
            size,
            created,
        } => {
            out.push(if created { TAG_CREATE } else { TAG_OPEN });
            put_varint(out, dt);
            put_varint(out, open_id.0);
            put_varint(out, file_id.0);
            put_varint(out, user_id.0 as u64);
            put_varint(out, mode_code(mode));
            put_varint(out, size);
        }
        TraceEvent::Close { open_id, final_pos } => {
            out.push(TAG_CLOSE);
            put_varint(out, dt);
            put_varint(out, open_id.0);
            put_varint(out, final_pos);
        }
        TraceEvent::Seek {
            open_id,
            old_pos,
            new_pos,
        } => {
            out.push(TAG_SEEK);
            put_varint(out, dt);
            put_varint(out, open_id.0);
            put_varint(out, old_pos);
            put_varint(out, new_pos);
        }
        TraceEvent::Unlink { file_id, user_id } => {
            out.push(TAG_UNLINK);
            put_varint(out, dt);
            put_varint(out, file_id.0);
            put_varint(out, user_id.0 as u64);
        }
        TraceEvent::Truncate {
            file_id,
            new_len,
            user_id,
        } => {
            out.push(TAG_TRUNCATE);
            put_varint(out, dt);
            put_varint(out, file_id.0);
            put_varint(out, new_len);
            put_varint(out, user_id.0 as u64);
        }
        TraceEvent::Execve {
            file_id,
            user_id,
            size,
        } => {
            out.push(TAG_EXECVE);
            put_varint(out, dt);
            put_varint(out, file_id.0);
            put_varint(out, user_id.0 as u64);
            put_varint(out, size);
        }
    }
    ticks
}

/// Decodes one record from `buf` at `*pos`; `prev_ticks` is the previous
/// record's tick count. Returns the record and its tick count.
///
/// The scalar decoder: the crate's one per-tag record decoder (shared
/// with the batched decoder's fallback, see [`crate::block`]) reading
/// one varint byte at a time with [`get_varint`].
pub fn decode_from(
    buf: &[u8],
    pos: &mut usize,
    prev_ticks: u64,
) -> Result<(TraceRecord, u64), DecodeError> {
    let &tag = buf.get(*pos).ok_or(DecodeError::Truncated {
        offset: *pos as u64,
        records: 0,
    })?;
    *pos += 1;
    let mut row = [0u64; FIELDS];
    let ticks = decode_row(buf, pos, tag, prev_ticks, &mut row, get_varint)?;
    let record = TraceRecord {
        time: Timestamp::from_ticks(ticks),
        event: row_event(tag, &row),
    };
    Ok((record, ticks))
}

/// Streaming writer of binary trace files.
///
/// # Examples
///
/// ```
/// use fstrace::{TraceEvent, TraceRecord, TraceWriter, FileId, UserId};
///
/// let mut out = Vec::new();
/// let mut w = TraceWriter::new(&mut out).unwrap();
/// w.write(&TraceRecord::new(0, TraceEvent::Unlink {
///     file_id: FileId(1),
///     user_id: UserId(0),
/// })).unwrap();
/// w.flush().unwrap();
/// assert!(out.starts_with(b"FSTR"));
/// ```
pub struct TraceWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    prev_ticks: u64,
    bytes_written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the file header.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&MAGIC)?;
        inner.write_all(&[VERSION])?;
        Ok(Self {
            inner,
            buf: Vec::with_capacity(64),
            prev_ticks: 0,
            bytes_written: (MAGIC.len() + 1) as u64,
        })
    }

    /// Appends one record.
    ///
    /// Records must be written in nondecreasing time order; out-of-order
    /// timestamps are clamped by the delta encoding.
    pub fn write(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.buf.clear();
        self.prev_ticks = encode_into(&mut self.buf, rec, self.prev_ticks);
        self.inner.write_all(&self.buf)?;
        self.bytes_written += self.buf.len() as u64;
        let c = codec_counters();
        c.records_encoded.inc();
        c.bytes_encoded.add(self.buf.len() as u64);
        Ok(())
    }

    /// Total bytes emitted so far, including the header.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Buffering bound for one record probe. A *valid* record is at most a
/// tag byte plus six ten-byte varints (61 bytes; the `open` payload is
/// the widest), but proving a varint malformed can read an eleventh
/// byte, so the decoder may touch up to `1 + 6 * 11 = 67` bytes before
/// failing. Buffering this much guarantees a mid-stream decode error is
/// a genuine format error, never an artifact of chunking.
pub(crate) const MAX_RECORD_BYTES: usize = 67;

/// Refill granularity of the incremental reader.
const CHUNK_BYTES: usize = 64 * 1024;

/// Incremental reader of binary trace files.
///
/// The reader pulls from the underlying stream in `CHUNK_BYTES`-sized
/// (64 KiB) refills and keeps at most one chunk of undecoded bytes buffered, so
/// arbitrarily long trace files decode in O(1) memory. Internally it
/// decodes a whole batch of records at a time into a columnar
/// [`RecordBlock`] (see [`crate::block`]) and serves them out one by
/// one, so [`next_record`], the [`Iterator`] impl and [`read_all`] all
/// share the batched decode loop and one set of `fstrace.codec.*`
/// counters while keeping record-at-a-time semantics — including
/// stream-absolute error offsets — bit-identical to the scalar codec.
///
/// [`next_record`]: TraceReader::next_record
/// [`read_all`]: TraceReader::read_all
pub struct TraceReader<R: Read> {
    inner: R,
    /// Undecoded bytes; `start..` is the live region.
    buf: Vec<u8>,
    start: usize,
    prev_ticks: u64,
    eof: bool,
    /// Set after the first error; a malformed record cannot be
    /// resynchronized, so the reader yields nothing afterwards.
    failed: bool,
    /// Absolute stream offset of `buf[start]` — header plus every byte
    /// decoded so far. Errors report positions relative to this.
    consumed: u64,
    /// Records decoded so far, for truncation diagnostics.
    records: u64,
    /// Current decoded batch; columns are reused across batches.
    block: RecordBlock,
    /// Index of the next unserved record in `block`.
    cursor: usize,
    /// Error found while decoding the current batch, already rewritten
    /// to stream-absolute positions; yielded after the batch's good
    /// prefix has been served.
    pending: Option<DecodeError>,
}

impl<R: Read> TraceReader<R> {
    /// Wraps a stream and validates the file header.
    pub fn new(inner: R) -> Result<Self, DecodeError> {
        let mut r = Self {
            inner,
            buf: Vec::new(),
            start: 0,
            prev_ticks: 0,
            eof: false,
            failed: false,
            consumed: (MAGIC.len() + 1) as u64,
            records: 0,
            block: RecordBlock::new(),
            cursor: 0,
            pending: None,
        };
        r.refill()?;
        if r.buf.len() < MAGIC.len() + 1 || r.buf[..4] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if r.buf[4] != VERSION {
            return Err(DecodeError::BadVersion(r.buf[4]));
        }
        r.start = MAGIC.len() + 1;
        Ok(r)
    }

    /// Tops the buffer up to at least one maximal record, unless the
    /// stream is exhausted. After this, a decode failure is a genuine
    /// format error, never an artifact of chunking.
    fn refill(&mut self) -> io::Result<()> {
        if self.eof || self.buf.len() - self.start >= MAX_RECORD_BYTES {
            return Ok(());
        }
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        while !self.eof && self.buf.len() < MAX_RECORD_BYTES {
            let old = self.buf.len();
            self.buf.resize(old + CHUNK_BYTES, 0);
            let n = self.inner.read(&mut self.buf[old..])?;
            self.buf.truncate(old + n);
            if n == 0 {
                self.eof = true;
            }
        }
        Ok(())
    }

    /// Decodes the next batch of records into the block. On failure the
    /// batch keeps the good prefix and the error — rewritten from
    /// buffer-relative to stream-absolute positions — is parked until
    /// that prefix has been served.
    fn fill_batch(&mut self) {
        self.block.clear();
        self.cursor = 0;
        if let Err(e) = self.refill() {
            self.pending = Some(e.into());
            return;
        }
        if self.start >= self.buf.len() {
            return;
        }
        // Stop before a record that could spill past the buffered
        // bytes; after the final refill the buffer holds the whole
        // tail, so decode to the end and let truncation surface as a
        // genuine error.
        let limit = if self.eof {
            self.buf.len()
        } else {
            self.buf.len() - (MAX_RECORD_BYTES - 1)
        };
        let mut pos = self.start;
        match decode_block(
            &self.buf,
            &mut pos,
            self.prev_ticks,
            limit,
            BATCH_RECORDS,
            &mut self.block,
        ) {
            Ok(ticks) => self.prev_ticks = ticks,
            Err(e) => {
                if let Some(&t) = self.block.ticks().last() {
                    self.prev_ticks = t;
                }
                self.pending = Some(match e {
                    DecodeError::Truncated { offset, .. } => DecodeError::Truncated {
                        offset: self.consumed + (offset - self.start as u64),
                        records: self.records + self.block.len() as u64,
                    },
                    other => other,
                });
            }
        }
    }

    /// Decodes the next record, refilling the buffer as needed.
    ///
    /// Returns `None` at end of stream; after the first error the
    /// reader is poisoned and yields `None` forever.
    pub fn next_record(&mut self) -> Option<Result<TraceRecord, DecodeError>> {
        if self.failed {
            return None;
        }
        if self.cursor >= self.block.len() && self.pending.is_none() {
            self.fill_batch();
        }
        if self.cursor < self.block.len() {
            let i = self.cursor;
            self.cursor += 1;
            let rec = self.block.get(i);
            let end = self.block.end_offset(i);
            let len = (end - self.start) as u64;
            let c = codec_counters();
            c.records_decoded.inc();
            c.bytes_decoded.add(len);
            self.consumed += len;
            self.records += 1;
            self.start = end;
            return Some(Ok(rec));
        }
        if let Some(e) = self.pending.take() {
            self.failed = true;
            return Some(Err(e));
        }
        None
    }

    /// Absolute byte offset of the next undecoded byte: the header plus
    /// every record decoded so far.
    pub fn byte_offset(&self) -> u64 {
        self.consumed
    }

    /// Records successfully decoded so far.
    pub fn records_decoded(&self) -> u64 {
        self.records
    }

    /// Decodes every remaining record.
    pub fn read_all(mut self) -> Result<Vec<TraceRecord>, DecodeError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record() {
            out.push(rec?);
        }
        Ok(out)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

/// Formats a record as one text line.
///
/// The line starts with the time in milliseconds and the event name,
/// followed by the payload fields in Table II order.
pub fn to_text(rec: &TraceRecord) -> String {
    let t = rec.time.as_ms();
    match rec.event {
        TraceEvent::Open {
            open_id,
            file_id,
            user_id,
            mode,
            size,
            created,
        } => {
            let name = if created { "create" } else { "open" };
            let m = match mode {
                AccessMode::ReadOnly => "r",
                AccessMode::WriteOnly => "w",
                AccessMode::ReadWrite => "rw",
            };
            format!(
                "{t} {name} {} {} {} {m} {size}",
                open_id.0, file_id.0, user_id.0
            )
        }
        TraceEvent::Close { open_id, final_pos } => {
            format!("{t} close {} {final_pos}", open_id.0)
        }
        TraceEvent::Seek {
            open_id,
            old_pos,
            new_pos,
        } => format!("{t} seek {} {old_pos} {new_pos}", open_id.0),
        TraceEvent::Unlink { file_id, user_id } => {
            format!("{t} unlink {} {}", file_id.0, user_id.0)
        }
        TraceEvent::Truncate {
            file_id,
            new_len,
            user_id,
        } => format!("{t} truncate {} {new_len} {}", file_id.0, user_id.0),
        TraceEvent::Execve {
            file_id,
            user_id,
            size,
        } => format!("{t} execve {} {} {size}", file_id.0, user_id.0),
    }
}

/// Parses a text line produced by [`to_text`].
pub fn from_text(line: &str) -> Result<TraceRecord, DecodeError> {
    let bad = || DecodeError::BadLine(line.to_string());
    let mut it = line.split_ascii_whitespace();
    let time_ms: u64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let name = it.next().ok_or_else(bad)?;
    let num = |it: &mut std::str::SplitAsciiWhitespace<'_>| -> Result<u64, DecodeError> {
        it.next().ok_or_else(bad)?.parse().map_err(|_| bad())
    };
    let user = |it: &mut std::str::SplitAsciiWhitespace<'_>| -> Result<UserId, DecodeError> {
        Ok(UserId(u32::try_from(num(it)?).map_err(|_| bad())?))
    };
    let event = match name {
        "open" | "create" => {
            let open_id = OpenId(num(&mut it)?);
            let file_id = FileId(num(&mut it)?);
            let user_id = user(&mut it)?;
            let mode = match it.next().ok_or_else(bad)? {
                "r" => AccessMode::ReadOnly,
                "w" => AccessMode::WriteOnly,
                "rw" => AccessMode::ReadWrite,
                _ => return Err(bad()),
            };
            let size = num(&mut it)?;
            TraceEvent::Open {
                open_id,
                file_id,
                user_id,
                mode,
                size,
                created: name == "create",
            }
        }
        "close" => TraceEvent::Close {
            open_id: OpenId(num(&mut it)?),
            final_pos: num(&mut it)?,
        },
        "seek" => TraceEvent::Seek {
            open_id: OpenId(num(&mut it)?),
            old_pos: num(&mut it)?,
            new_pos: num(&mut it)?,
        },
        "unlink" => TraceEvent::Unlink {
            file_id: FileId(num(&mut it)?),
            user_id: user(&mut it)?,
        },
        "truncate" => TraceEvent::Truncate {
            file_id: FileId(num(&mut it)?),
            new_len: num(&mut it)?,
            user_id: user(&mut it)?,
        },
        "execve" => TraceEvent::Execve {
            file_id: FileId(num(&mut it)?),
            user_id: user(&mut it)?,
            size: num(&mut it)?,
        },
        _ => return Err(bad()),
    };
    if it.next().is_some() {
        return Err(bad());
    }
    Ok(TraceRecord::new(time_ms, event))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(
                0,
                TraceEvent::Open {
                    open_id: OpenId(1),
                    file_id: FileId(10),
                    user_id: UserId(5),
                    mode: AccessMode::ReadOnly,
                    size: 4096,
                    created: false,
                },
            ),
            TraceRecord::new(
                50,
                TraceEvent::Seek {
                    open_id: OpenId(1),
                    old_pos: 1024,
                    new_pos: 2048,
                },
            ),
            TraceRecord::new(
                120,
                TraceEvent::Close {
                    open_id: OpenId(1),
                    final_pos: 4096,
                },
            ),
            TraceRecord::new(
                130,
                TraceEvent::Open {
                    open_id: OpenId(2),
                    file_id: FileId(11),
                    user_id: UserId(5),
                    mode: AccessMode::WriteOnly,
                    size: 0,
                    created: true,
                },
            ),
            TraceRecord::new(
                200,
                TraceEvent::Truncate {
                    file_id: FileId(12),
                    new_len: 100,
                    user_id: UserId(6),
                },
            ),
            TraceRecord::new(
                210,
                TraceEvent::Unlink {
                    file_id: FileId(11),
                    user_id: UserId(5),
                },
            ),
            TraceRecord::new(
                1000,
                TraceEvent::Execve {
                    file_id: FileId(20),
                    user_id: UserId(5),
                    size: 90_000,
                },
            ),
        ]
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(get_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let records = sample_records();
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        let written = w.bytes_written();
        drop(w);
        assert_eq!(written as usize, out.len());
        let decoded = TraceReader::new(&out[..]).unwrap().read_all().unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn binary_is_compact() {
        let records = sample_records();
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        drop(w);
        // The paper collected ~500-600 bytes/minute for 2-3 events/sec;
        // our records should average well under 16 bytes each.
        assert!(out.len() < records.len() * 16 + 5);
    }

    #[test]
    fn reader_rejects_bad_magic() {
        assert!(matches!(
            TraceReader::new(&b"NOPE\x01"[..]),
            Err(DecodeError::BadMagic)
        ));
    }

    #[test]
    fn reader_rejects_bad_version() {
        assert!(matches!(
            TraceReader::new(&b"FSTR\x63"[..]),
            Err(DecodeError::BadVersion(0x63))
        ));
    }

    #[test]
    fn reader_rejects_bad_tag() {
        let mut data = Vec::new();
        data.extend_from_slice(&MAGIC);
        data.push(VERSION);
        data.push(99); // Bad tag.
        data.push(0);
        let got = TraceReader::new(&data[..]).unwrap().read_all();
        assert!(matches!(got, Err(DecodeError::BadTag(99))));
    }

    #[test]
    fn iterator_stops_after_error() {
        let mut data = Vec::new();
        data.extend_from_slice(&MAGIC);
        data.push(VERSION);
        data.push(99);
        data.push(0);
        let mut it = TraceReader::new(&data[..]).unwrap();
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    /// A reader that hands out one byte per `read` call, exercising the
    /// incremental refill paths.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), out.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn chunked_decoding_matches_read_all() {
        let records = sample_records();
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        drop(w);
        let whole = TraceReader::new(&out[..]).unwrap().read_all().unwrap();
        let mut dribbled = TraceReader::new(OneByte(&out)).unwrap();
        let mut got = Vec::new();
        while let Some(rec) = dribbled.next_record() {
            got.push(rec.unwrap());
        }
        assert_eq!(got, whole);
        assert_eq!(got, records);
    }

    #[test]
    fn truncated_stream_is_an_error_not_silence() {
        let records = sample_records();
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        drop(w);
        out.pop(); // Chop the last record mid-payload.
        let got = TraceReader::new(&out[..]).unwrap().read_all();
        assert!(matches!(got, Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn truncation_error_reports_position_and_record_count() {
        let records = sample_records();
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        drop(w);
        let full_len = out.len() as u64;
        out.pop();
        let mut r = TraceReader::new(&out[..]).unwrap();
        let mut decoded = 0u64;
        let err = loop {
            match r.next_record() {
                Some(Ok(_)) => decoded += 1,
                Some(Err(e)) => break e,
                None => panic!("truncated stream must error, not end"),
            }
        };
        // The last record is chopped: everything before it decodes, and
        // the error names the record count and the offset where the
        // incomplete record begins (somewhere inside the final record).
        assert_eq!(decoded, records.len() as u64 - 1);
        match err {
            DecodeError::Truncated { offset, records: n } => {
                assert_eq!(n, decoded);
                assert_eq!(n, r.records_decoded());
                assert!(offset >= r.byte_offset());
                assert!(offset < full_len, "offset {offset} beyond file {full_len}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        let msg = DecodeError::Truncated {
            offset: 42,
            records: 7,
        }
        .to_string();
        assert!(msg.contains("42") && msg.contains("7"), "{msg}");
    }

    #[test]
    fn text_roundtrip() {
        for r in sample_records() {
            let line = to_text(&r);
            let back = from_text(&line).unwrap();
            assert_eq!(back, r, "line was {line:?}");
        }
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("123").is_err());
        assert!(from_text("123 frobnicate 1 2 3").is_err());
        assert!(from_text("123 open 1 2 3 x 100").is_err());
        assert!(from_text("123 close 1 2 3").is_err()); // Trailing field.
        assert!(from_text("abc close 1 2").is_err());
        // User ids are 32-bit: 2^32 is rejected, not wrapped to user 0.
        assert!(from_text("123 open 1 2 4294967296 r 100").is_err());
        assert!(from_text("123 unlink 1 4294967296").is_err());
        assert!(from_text("123 truncate 1 0 4294967296").is_err());
        assert!(from_text("123 execve 1 4294967296 5").is_err());
    }

    #[test]
    fn delta_encoding_is_order_robust() {
        // A record earlier than its predecessor is clamped, not wrapped.
        let r1 = TraceRecord::new(
            1000,
            TraceEvent::Close {
                open_id: OpenId(1),
                final_pos: 0,
            },
        );
        let r2 = TraceRecord::new(
            500,
            TraceEvent::Close {
                open_id: OpenId(2),
                final_pos: 0,
            },
        );
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        w.write(&r1).unwrap();
        w.write(&r2).unwrap();
        drop(w);
        let decoded = TraceReader::new(&out[..]).unwrap().read_all().unwrap();
        assert_eq!(decoded[1].time, decoded[0].time); // Clamped forward.
    }
}
