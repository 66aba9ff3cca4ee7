//! The `tracestored` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or reply — is one *frame*:
//!
//! ```text
//! +--------------+--------+-----------------+
//! | u32 LE length| u8 op  | payload ...     |
//! +--------------+--------+-----------------+
//! ```
//!
//! The length covers the opcode byte and the payload (so an empty
//! message has length 1), and is capped at [`MAX_FRAME`] — a reader
//! never trusts the peer for its allocation size. Integers inside
//! payloads use the trace codec's varints ([`fstrace::codec`]);
//! records travel as [`encode_records`] batches: a varint count
//! followed by delta-encoded records whose tick base restarts at zero
//! per batch, exactly like a `tracestore` chunk — so a batch decodes
//! with no connection state.
//!
//! Both ends read frames with one reader, in three steps:
//! `read_prefix` (a clean EOF before the prefix is the end of the
//! conversation, EOF inside it a torn frame), `frame_len` (the one
//! length rule), and [`read_frame_body`], which grows its buffer only
//! as bytes arrive. [`read_frame`] runs all three; the daemon runs them
//! one at a time, because it looks at the prefix in between. Both ends
//! decode record batches with [`decode_records`], through the same
//! columnar [`decode_block`] archive chunks and flat traces use, and
//! reserve nothing by a batch's count.
//!
//! One special case: a connection whose first four bytes are `"GET "`
//! is not speaking this protocol at all — it is an HTTP client asking
//! for the plain-text `/metrics` page, and the server answers it as
//! such (see `server`). The magic works because `"GET "` read as a
//! little-endian u32 is far beyond [`MAX_FRAME`].

use std::io::{self, Read, Write};

use fstrace::block::decode_block;
use fstrace::codec::{self, DecodeError};
use fstrace::{IdOffsets, RecordBlock, TraceRecord};

/// Ingest: declare this connection as input `index` of `total_inputs`.
pub const OP_HELLO: u8 = 0x01;
/// Ingest: a batch of records for this connection's input.
pub const OP_RECORDS: u8 = 0x02;
/// Ingest: progress watermark — everything below it has been sent.
pub const OP_PROGRESS: u8 = 0x03;
/// Ingest: this input is complete. Acked with the accepted count.
pub const OP_FIN: u8 = 0x04;
/// Query: Table III-style whole-trace summary, rendered as text.
pub const OP_SUMMARY: u8 = 0x10;
/// Query: records in a `[from_ms, to_ms)` window, as a record batch.
pub const OP_RANGE: u8 = 0x11;
/// Query: the full Section-5 analyzer suite, rendered as text.
pub const OP_ANALYZE: u8 = 0x12;
/// Query: cache-grid sweep over the served trace, rendered as text.
pub const OP_SWEEP: u8 = 0x13;
/// Control: seal all shards, drain queries, stop the daemon.
pub const OP_SHUTDOWN: u8 = 0x1f;
/// Reply: success; payload depends on the request op.
pub const OP_OK: u8 = 0x80;
/// Reply: failure; payload is a UTF-8 message.
pub const OP_ERR: u8 = 0x81;

/// Hard cap on one frame's length (op byte + payload).
pub const MAX_FRAME: u32 = 64 << 20;

/// Cap on the activity windows one `analyze` reply may span. Table IV's
/// analysis visits every window between the first and the last record,
/// so its work grows with the served data's time span, not its size: two
/// records 10^11 ms apart take 0.06 s, so two ingested 10^15 ms apart
/// would take about ten minutes. A snapshot spanning more than this many
/// of the shortest analysis window gets an error reply instead; 2^24
/// ten-second windows are 5.3 years.
pub const MAX_ANALYSIS_WINDOWS: u64 = 1 << 24;

/// Cap on the block accesses one `sweep` reply may replay. A replay's
/// work grows with the bytes its records bill, not with their count:
/// an `open` and a `close` at 2^62 bytes bill 2^50 4 KiB blocks. Closes
/// at 2^30, 2^32 and 2^34 bytes sweep one size in about 14, 45 and
/// 170 ms (release build, 2-vCPU Intel Xeon), linear in the extent, so
/// that pair would take about 1.5 years. A snapshot whose records would
/// make more than this many block accesses gets an error reply instead;
/// 2^28 is about 11 s of one-cell replay.
pub const MAX_SWEEP_BLOCKS: u64 = 1 << 28;

/// Cap on the cache sizes one `sweep` request may name (the reply has
/// one row per size). A request naming more gets an error reply before
/// any size is read.
pub const MAX_SWEEP_SIZES: u64 = 64;

/// The ingest handshake: which merge input this connection feeds.
///
/// `offsets` are the id offsets this input's records are remapped by
/// before entering the merge — the same role [`fstrace::IdOffsets`]
/// plays in an offline [`fstrace::FleetMerge`], so a server-side merge
/// fed by N connections is byte-identical to an offline merge of the
/// same N streams with the same offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Total ingest inputs of this session; the merge waits for all.
    pub total_inputs: u16,
    /// This connection's input index, in `0..total_inputs`.
    pub input_index: u16,
    /// Id remapping applied to this input's records.
    pub offsets: IdOffsets,
    /// Client-chosen stream name (machine name, profile, ...).
    pub name: String,
}

impl Hello {
    /// Serializes the handshake payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.name.len());
        codec::put_varint(&mut out, self.total_inputs as u64);
        codec::put_varint(&mut out, self.input_index as u64);
        codec::put_varint(&mut out, self.offsets.open);
        codec::put_varint(&mut out, self.offsets.file);
        codec::put_varint(&mut out, self.offsets.user as u64);
        codec::put_varint(&mut out, self.name.len() as u64);
        out.extend_from_slice(self.name.as_bytes());
        out
    }

    /// Parses a handshake payload.
    pub fn decode(buf: &[u8]) -> Result<Hello, DecodeError> {
        let mut pos = 0;
        let total = codec::get_varint(buf, &mut pos)?;
        let index = codec::get_varint(buf, &mut pos)?;
        let open = codec::get_varint(buf, &mut pos)?;
        let file = codec::get_varint(buf, &mut pos)?;
        let user = codec::get_varint(buf, &mut pos)?;
        let name_len = codec::get_varint(buf, &mut pos)? as usize;
        let name_end = pos
            .checked_add(name_len)
            .filter(|&e| e <= buf.len())
            .ok_or(DecodeError::BadField("hello name length"))?;
        let name = std::str::from_utf8(&buf[pos..name_end])
            .map_err(|_| DecodeError::BadField("hello name utf-8"))?
            .to_string();
        Ok(Hello {
            total_inputs: u16::try_from(total)
                .map_err(|_| DecodeError::BadField("total inputs"))?,
            input_index: u16::try_from(index).map_err(|_| DecodeError::BadField("input index"))?,
            offsets: IdOffsets {
                open,
                file,
                user: u32::try_from(user).map_err(|_| DecodeError::BadField("user offset"))?,
            },
            name,
        })
    }
}

/// Appends a record batch to `out`: a varint count, then each record
/// delta-encoded with the tick base restarting at zero — the same
/// self-contained framing a `tracestore` chunk uses.
pub fn encode_records(out: &mut Vec<u8>, records: &[TraceRecord]) {
    codec::put_varint(out, records.len() as u64);
    let mut prev = 0u64;
    for rec in records {
        prev = codec::encode_into(out, rec, prev);
    }
}

/// Decodes a record batch produced by [`encode_records`], through the
/// columnar [`decode_block`] every archive chunk and flat trace read
/// uses, then materializes the records. Nothing is reserved by the
/// batch's count, which is the peer's word: the columns grow with the
/// records that decode, and the result is sized by them.
pub fn decode_records(buf: &[u8]) -> Result<Vec<TraceRecord>, DecodeError> {
    let mut pos = 0;
    let count = codec::get_varint(buf, &mut pos)?;
    // A record is at least 2 bytes; reject counts the buffer cannot hold.
    if count > buf.len() as u64 {
        return Err(DecodeError::BadField("record batch count"));
    }
    let mut block = RecordBlock::new();
    decode_block(buf, &mut pos, 0, buf.len(), count as usize, &mut block)?;
    if (block.len() as u64) < count {
        return Err(DecodeError::Truncated {
            offset: pos as u64,
            records: block.len() as u64,
        });
    }
    if pos != buf.len() {
        return Err(DecodeError::BadField("record batch trailer"));
    }
    Ok(block.to_records())
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, op: u8, payload: &[u8]) -> io::Result<()> {
    let len = 1 + payload.len();
    if len > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&[op])?;
    w.write_all(payload)?;
    Ok(())
}

/// Bytes a frame body reserves before any of it arrives. The length
/// prefix is the peer's word, so a longer body grows as its bytes come
/// in: a header declaring [`MAX_FRAME`] and then nothing costs this
/// much, not 64 MiB. Ingest frames (an epoch of one machine's records)
/// fit, and take one allocation.
const FRAME_RESERVE: usize = 64 << 10;

/// Reads a `len`-byte frame body. The buffer grows only as bytes
/// arrive: [`FRAME_RESERVE`] first, then never more than twice what
/// has come.
fn read_body(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    while body.len() < len {
        let start = body.len();
        body.resize(len.min((2 * start).max(FRAME_RESERVE)), 0);
        r.read_exact(&mut body[start..])?;
    }
    Ok(body)
}

/// Reads a frame's 4-byte length prefix; `Ok(None)` on a clean EOF
/// before its first byte. EOF inside the prefix is an
/// [`io::ErrorKind::UnexpectedEof`] error, and an interrupted read is
/// retried.
pub(crate) fn read_prefix(r: &mut impl Read) -> io::Result<Option<[u8; 4]>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection dropped inside a frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(prefix))
}

/// The frame length a prefix declares, if it is one a frame may have:
/// at least the op byte, at most [`MAX_FRAME`].
pub(crate) fn frame_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    Ok(len as usize)
}

/// Reads one frame, given its already-read 4-byte length prefix. A
/// body cut short is an [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame_body(r: &mut impl Read, prefix: [u8; 4]) -> io::Result<(u8, Vec<u8>)> {
    let len = frame_len(prefix)?;
    let mut op = [0u8];
    r.read_exact(&mut op)?;
    Ok((op[0], read_body(r, len - 1)?))
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
/// A connection that dies mid-frame surfaces as an error — the caller
/// discards the partial frame, never acts on it.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    match read_prefix(r)? {
        Some(prefix) => read_frame_body(r, prefix).map(Some),
        None => Ok(None),
    }
}

/// Sends a reply frame: `OP_OK` with `payload`.
pub fn write_ok(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame(w, OP_OK, payload)
}

/// Sends an error reply carrying a human-readable message.
pub fn write_err(w: &mut impl Write, msg: &str) -> io::Result<()> {
    write_frame(w, OP_ERR, msg.as_bytes())
}

/// Reads a reply frame and surfaces `OP_ERR` as an [`io::Error`].
pub fn read_reply(r: &mut impl Read) -> io::Result<Vec<u8>> {
    match read_frame(r)? {
        Some((OP_OK, payload)) => Ok(payload),
        Some((OP_ERR, payload)) => Err(io::Error::other(format!(
            "server error: {}",
            String::from_utf8_lossy(&payload)
        ))),
        Some((op, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply op {op:#04x}"),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the reply",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::{AccessMode, TraceEvent};

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(
                100,
                TraceEvent::Open {
                    open_id: fstrace::OpenId(7),
                    file_id: fstrace::FileId(3),
                    user_id: fstrace::UserId(2),
                    mode: AccessMode::ReadWrite,
                    size: 4096,
                    created: true,
                },
            ),
            TraceRecord::new(
                250,
                TraceEvent::Seek {
                    open_id: fstrace::OpenId(7),
                    old_pos: 4096,
                    new_pos: 0,
                },
            ),
            TraceRecord::new(
                900,
                TraceEvent::Close {
                    open_id: fstrace::OpenId(7),
                    final_pos: 8192,
                },
            ),
        ]
    }

    #[test]
    fn hello_roundtrips() {
        let hello = Hello {
            total_inputs: 4,
            input_index: 2,
            offsets: IdOffsets {
                open: 1 << 41,
                file: 1 << 40,
                user: 1 << 17,
            },
            name: "machine-2".into(),
        };
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
    }

    #[test]
    fn hello_rejects_bad_name_length() {
        let hello = Hello {
            total_inputs: 1,
            input_index: 0,
            offsets: IdOffsets::default(),
            name: "x".into(),
        };
        let mut bytes = hello.encode();
        bytes.truncate(bytes.len() - 1); // Name shorter than declared.
        assert!(Hello::decode(&bytes).is_err());
    }

    #[test]
    fn record_batch_roundtrips() {
        let records = sample_records();
        let mut buf = Vec::new();
        encode_records(&mut buf, &records);
        assert_eq!(decode_records(&buf).unwrap(), records);
        // Empty batch too.
        let mut empty = Vec::new();
        encode_records(&mut empty, &[]);
        assert!(decode_records(&empty).unwrap().is_empty());
    }

    #[test]
    fn record_batch_rejects_trailing_garbage() {
        let mut buf = Vec::new();
        encode_records(&mut buf, &sample_records());
        buf.push(0xAA);
        assert!(decode_records(&buf).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_pipe() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_PROGRESS, &[1, 2, 3]).unwrap();
        write_ok(&mut wire, b"done").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((OP_PROGRESS, vec![1, 2, 3]))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((OP_OK, b"done".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn partial_frame_is_an_error_not_a_message() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_RECORDS, &[9; 100]).unwrap();
        // Kill the connection mid-frame: only half the bytes arrive.
        let mut r = &wire[..wire.len() / 2];
        assert!(read_frame(&mut r).is_err());
        // And mid-header too.
        let mut r = &wire[..2];
        assert!(read_frame(&mut r).is_err());
    }

    /// A reader whose first read is interrupted, as a signal can do.
    struct InterruptedOnce<'a> {
        interrupted: bool,
        rest: &'a [u8],
    }

    impl Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.rest.read(buf)
        }
    }

    #[test]
    fn an_interrupted_read_is_retried() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_PROGRESS, &[42]).unwrap();
        let mut r = InterruptedOnce {
            interrupted: false,
            rest: &wire,
        };
        assert_eq!(read_frame(&mut r).unwrap(), Some((OP_PROGRESS, vec![42])));
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let prefix = (MAX_FRAME + 1).to_le_bytes();
        let mut r: &[u8] = &[];
        assert!(read_frame_body(&mut r, prefix).is_err());
        let mut r: &[u8] = &[];
        assert!(read_frame_body(&mut r, 0u32.to_le_bytes()).is_err());
    }

    #[test]
    fn err_reply_surfaces_as_io_error() {
        let mut wire = Vec::new();
        write_err(&mut wire, "no such input").unwrap();
        let err = read_reply(&mut wire.as_slice()).unwrap_err();
        assert!(err.to_string().contains("no such input"));
    }
}
