//! Columnar batched decoding: a [`RecordBlock`] of column vectors.
//!
//! [`decode_block`] decodes a whole run of records — a full archive
//! chunk, or a fixed-size batch of a flat stream — into column vectors
//! in one pass over a zero-copy byte slice:
//!
//! * timestamps are materialized from the delta chain as absolute ticks,
//! * op codes (the wire tags) land in a contiguous tag column,
//! * payload varints land in a fixed-stride value column,
//! * per-record end offsets are kept so streaming readers can still
//!   account byte positions record by record.
//!
//! # Two paths, one record decoder
//!
//! Each record takes one of two paths. The bit-parallel path loads
//! eight bytes as one word and takes a record whose varints all stop
//! inside that window (two windows for `open`/`create`), with one bit
//! scan per varint. It carries the machine-local ids of single-machine
//! traces and ingest frames. Every other record — a buffer tail, an
//! unknown tag, or a varint too long for the window, such as the
//! six-byte ids of a stored fleet, whose machines sit 2^40 apart —
//! falls back to the crate's one per-tag record decoder, which reads
//! the delta and then each payload field into a row. It checks the
//! access mode right after reading it, the user id after the last
//! field, and reports an unknown tag after the delta. The fallback
//! hands it [`get_varint_fast`], a word-at-a-time varint reader; the
//! scalar [`crate::codec::decode_from`] hands it the byte-at-a-time
//! [`get_varint`]. Both turn the checked row into an event with one
//! conversion, the one [`RecordBlock::get`] uses.
//!
//! So batched decode is **bit-identical** to the scalar path — same
//! records, same errors at the same buffer offsets. The property tests
//! in `tests/props.rs` check both against a frozen copy of the earlier
//! scalar decoder, on random traces (machine-local and fleet ids),
//! byte soup, single-byte corruptions and every truncation. DESIGN.md
//! §13 gives the traffic each path carries.
//!
//! Consumers iterate the flat columns directly ([`RecordBlock::get`]
//! materializes one record view on demand, [`FillRecords`] adapts a
//! block source back into a record iterator), so the replay and
//! analysis loops never pay a per-record `next_record()` round-trip.

use crate::codec::{
    get_varint, DecodeError, MODE_RO, MODE_RW, MODE_WO, TAG_CLOSE, TAG_CREATE, TAG_EXECVE,
    TAG_OPEN, TAG_SEEK, TAG_TRUNCATE, TAG_UNLINK,
};
use crate::event::{AccessMode, TraceEvent, TraceRecord};
use crate::ids::{FileId, OpenId, Timestamp, UserId};

/// Payload columns per record: the widest event (`open`) carries five
/// varints, so the value column has a fixed stride of five.
pub(crate) const FIELDS: usize = 5;

/// Default record count per batch for flat-stream decoding: large
/// enough to amortize per-batch work, small enough that a batch of
/// columns stays cache-resident.
pub const BATCH_RECORDS: usize = 1024;

/// Reads an LEB128 varint a word at a time instead of a byte at a time.
///
/// Semantics are identical to [`get_varint`], including the error kind
/// and offset for every malformed input. The fast path loads eight
/// bytes as one little-endian word, finds the terminating byte with one
/// bit scan, and collapses the 7-bit groups with a three-level SWAR
/// tree — no per-byte branch chain, so the value computation
/// pipelines. Varints longer than eight bytes (values
/// needing more than 56 bits) and reads near the end of the buffer fall
/// back to the scalar reader, which owns the overflow and truncation
/// error reporting.
#[inline(always)]
pub fn get_varint_fast(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let p = *pos;
    let Some(window) = buf.get(p..p + 8) else {
        return get_varint(buf, pos);
    };
    let x = u64::from_le_bytes(window.try_into().expect("8-byte window"));
    // A clear high bit marks a varint's final byte.
    let stops = !x & 0x8080_8080_8080_8080;
    if stops == 0 {
        // 9- or 10-byte varint (or malformed/truncated): the scalar
        // reader handles the tail, including the exact overflow checks.
        return get_varint(buf, pos);
    }
    // 1..=8 bytes; keep every payload bit up to and including the stop
    // byte's (clear) continuation bit.
    let n = (stops.trailing_zeros() >> 3) as usize + 1;
    let stop_bit = stops & stops.wrapping_neg();
    let y = x & (stop_bit.wrapping_shl(1).wrapping_sub(1));
    *pos = p + n;
    Ok(collapse7(y))
}

/// Collapses up to eight LEB128 bytes held in `y` (little-endian, bits
/// above the final byte already masked off) into the decoded value.
/// A three-level SWAR tree: adjacent 7-bit groups merge into 14-bit
/// lanes, then 28-bit, then the final 56-bit value — twelve register
/// ops total, continuation bits masked away at the first level.
#[inline(always)]
fn collapse7(y: u64) -> u64 {
    let y = (y & 0x007f_007f_007f_007f) | ((y & 0x7f00_7f00_7f00_7f00) >> 1);
    let y = (y & 0x0000_3fff_0000_3fff) | ((y & 0x3fff_0000_3fff_0000) >> 2);
    (y & 0x0fff_ffff) | ((y & 0x0fff_ffff_0000_0000) >> 4)
}

/// A batch of decoded records in columnar (structure-of-arrays) form.
///
/// Produced by [`decode_block`]; reusable across batches — decoding
/// clears and refills the columns without reallocating once the block
/// has reached its steady-state capacity.
#[derive(Debug, Default, Clone)]
pub struct RecordBlock {
    /// Absolute timestamps in 10 ms ticks, delta chain already resolved.
    ticks: Vec<u64>,
    /// Wire tags (op codes): `TAG_OPEN`..=`TAG_EXECVE`.
    tags: Vec<u8>,
    /// End offset of each record, relative to the decoded buffer.
    ends: Vec<u32>,
    /// Payload varints at a fixed stride of [`FIELDS`] per record, in
    /// wire order; unused trailing slots of a record are zero.
    vals: Vec<u64>,
}

impl RecordBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        RecordBlock::default()
    }

    /// Creates an empty block with room for `records` records.
    pub fn with_capacity(records: usize) -> Self {
        RecordBlock {
            ticks: Vec::with_capacity(records),
            tags: Vec::with_capacity(records),
            ends: Vec::with_capacity(records),
            vals: Vec::with_capacity(records * FIELDS),
        }
    }

    /// Reserves room for `records` more records in every column.
    pub fn reserve(&mut self, records: usize) {
        self.ticks.reserve(records);
        self.tags.reserve(records);
        self.ends.reserve(records);
        self.vals.reserve(records * FIELDS);
    }

    /// Empties the columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.ticks.clear();
        self.tags.clear();
        self.ends.clear();
        self.vals.clear();
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` if the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The timestamp column: absolute 10 ms ticks per record.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }

    /// The op-code column: one wire tag per record (see the `TAG_*`
    /// constants in [`crate::codec`]).
    pub fn tags(&self) -> &[u8] {
        &self.tags
    }

    /// Counts records per [`crate::EventKind`], indexed in
    /// [`crate::EventKind::ALL`] order (create, open, close, seek,
    /// unlink, truncate, execve). A straight pass over the tag column —
    /// no record materialization — so inspection tools can histogram a
    /// chunk at column-scan speed.
    pub fn kind_counts(&self) -> [u64; 7] {
        let mut counts = [0u64; 7];
        for &tag in &self.tags {
            let i = match tag {
                TAG_CREATE => 0,
                TAG_OPEN => 1,
                TAG_CLOSE => 2,
                TAG_SEEK => 3,
                TAG_UNLINK => 4,
                TAG_TRUNCATE => 5,
                TAG_EXECVE => 6,
                other => unreachable!("decode_block only stores validated tags, found {other}"),
            };
            counts[i] += 1;
        }
        counts
    }

    /// End offset of record `i`, relative to the buffer it was decoded
    /// from. Streaming readers use consecutive ends to attribute bytes
    /// to records.
    pub fn end_offset(&self, i: usize) -> usize {
        self.ends[i] as usize
    }

    /// The payload columns of record `i`: its varints in wire order,
    /// padded with zeros to the fixed stride.
    pub fn fields(&self, i: usize) -> &[u64] {
        &self.vals[i * FIELDS..i * FIELDS + FIELDS]
    }

    /// Materializes record `i` from the columns.
    ///
    /// Infallible: every field was validated during [`decode_block`].
    pub fn get(&self, i: usize) -> TraceRecord {
        TraceRecord {
            time: Timestamp::from_ticks(self.ticks[i]),
            event: row_event(self.tags[i], self.fields(i)),
        }
    }

    /// Appends every record to `out` in order.
    pub fn append_to(&self, out: &mut Vec<TraceRecord>) {
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.get(i));
        }
    }

    /// Materializes the whole block.
    pub fn to_records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.len());
        self.append_to(&mut out);
        out
    }

    /// Iterates the block's records, materializing each on demand.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Decodes records from `buf` at `*pos` into `out` (cleared first),
/// stopping before a record that would start at or past `start_limit`,
/// or once `max_records` have been decoded. `prev_ticks` seeds the
/// timestamp delta chain; the return value is the last record's tick
/// count, for chaining into the next batch.
///
/// On error the block retains every record decoded before the failure,
/// `*pos` is left at the start of the failing record, and the error
/// carries buffer-relative positions (`records: 0`), exactly like the
/// scalar [`crate::codec::decode_from`] — callers with stream context
/// rewrite them to absolute offsets.
pub fn decode_block(
    buf: &[u8],
    pos: &mut usize,
    prev_ticks: u64,
    start_limit: usize,
    max_records: usize,
    out: &mut RecordBlock,
) -> Result<u64, DecodeError> {
    out.clear();
    // Records must *start* inside the buffer, so clamping the limit
    // changes nothing for in-bounds callers and lets the optimizer see
    // that the tag byte read below can never be out of range.
    let start_limit = start_limit.min(buf.len());
    let mut ticks = prev_ticks;
    while *pos < start_limit && out.len() < max_records {
        let rec_start = *pos;
        match decode_one(buf, pos, ticks, out) {
            Ok(t) => ticks = t,
            Err(e) => {
                // decode_one may have written a partial value row before
                // failing; drop it so the columns stay consistent.
                out.vals.truncate(out.len() * FIELDS);
                *pos = rec_start;
                return Err(e);
            }
        }
    }
    Ok(ticks)
}

/// Decodes one record into the columns: through the bit-parallel path
/// when the record fits its window, else through the shared record
/// decoder, so field order, validation order and error positions are
/// the scalar `decode_from`'s.
///
/// On failure a partial value row may be left in `out.vals`; the caller
/// ([`decode_block`]) truncates it back, keeping the cleanup off the
/// hot path.
#[inline(always)]
fn decode_one(
    buf: &[u8],
    pos: &mut usize,
    prev_ticks: u64,
    out: &mut RecordBlock,
) -> Result<u64, DecodeError> {
    let &tag = buf.get(*pos).ok_or(DecodeError::Truncated {
        offset: *pos as u64,
        records: 0,
    })?;
    *pos += 1;
    if let Some(ticks) = decode_one_wide(buf, pos, tag, prev_ticks, out)? {
        return Ok(ticks);
    }
    decode_one_slow(buf, pos, tag, prev_ticks, out)
}

/// The fallback for the records the bit-parallel fast path declines
/// (buffer tail, varints too long for its window, unknown tags): the
/// shared record decoder with the word-at-a-time varint reader, writing
/// straight into the value column. Kept out of line so the hot loop
/// stays small.
#[inline(never)]
fn decode_one_slow(
    buf: &[u8],
    pos: &mut usize,
    tag: u8,
    prev_ticks: u64,
    out: &mut RecordBlock,
) -> Result<u64, DecodeError> {
    // The zero-filled row is the stride padding, so no per-record
    // scratch copy is needed.
    let base = out.vals.len();
    out.vals.resize(base + FIELDS, 0);
    let row = (&mut out.vals[base..])
        .try_into()
        .expect("row is FIELDS wide");
    let ticks = decode_row(buf, pos, tag, prev_ticks, row, get_varint_fast)?;
    out.tags.push(tag);
    out.ticks.push(ticks);
    out.ends.push(*pos as u32);
    Ok(ticks)
}

/// The one per-tag record decoder: reads the timestamp delta after
/// `tag`, then each payload field into `v` in wire order, with
/// `varint` as the varint reader. Returns the record's tick count.
///
/// The access mode is checked right after it is read, the user id
/// after the last field, and an unknown tag is reported after the
/// delta. On error `v` may hold a partial row and `*pos` lies inside
/// the failing record, as `varint` left it.
#[inline(always)]
pub(crate) fn decode_row<V>(
    buf: &[u8],
    pos: &mut usize,
    tag: u8,
    prev_ticks: u64,
    v: &mut [u64; FIELDS],
    varint: V,
) -> Result<u64, DecodeError>
where
    V: Fn(&[u8], &mut usize) -> Result<u64, DecodeError>,
{
    let dt = varint(buf, pos)?;
    // Saturate: a corrupt delta must not wrap the clock (or panic in
    // debug builds).
    let ticks = prev_ticks.saturating_add(dt);
    match tag {
        TAG_OPEN | TAG_CREATE => {
            v[0] = varint(buf, pos)?;
            v[1] = varint(buf, pos)?;
            v[2] = varint(buf, pos)?;
            v[3] = varint(buf, pos)?;
            if v[3] > MODE_RW {
                return Err(DecodeError::BadField("access mode"));
            }
            v[4] = varint(buf, pos)?;
            if v[2] > u64::from(u32::MAX) {
                return Err(DecodeError::BadField("user id"));
            }
        }
        TAG_CLOSE => {
            v[0] = varint(buf, pos)?;
            v[1] = varint(buf, pos)?;
        }
        TAG_SEEK => {
            v[0] = varint(buf, pos)?;
            v[1] = varint(buf, pos)?;
            v[2] = varint(buf, pos)?;
        }
        TAG_UNLINK => {
            v[0] = varint(buf, pos)?;
            v[1] = varint(buf, pos)?;
            if v[1] > u64::from(u32::MAX) {
                return Err(DecodeError::BadField("user id"));
            }
        }
        TAG_TRUNCATE => {
            v[0] = varint(buf, pos)?;
            v[1] = varint(buf, pos)?;
            v[2] = varint(buf, pos)?;
            if v[2] > u64::from(u32::MAX) {
                return Err(DecodeError::BadField("user id"));
            }
        }
        TAG_EXECVE => {
            v[0] = varint(buf, pos)?;
            v[1] = varint(buf, pos)?;
            v[2] = varint(buf, pos)?;
            if v[1] > u64::from(u32::MAX) {
                return Err(DecodeError::BadField("user id"));
            }
        }
        other => return Err(DecodeError::BadTag(other)),
    }
    Ok(ticks)
}

/// The one row → event conversion: turns a row that passed
/// [`decode_row`]'s checks (or the fast path's, which are the same)
/// into its event.
#[inline(always)]
pub(crate) fn row_event(tag: u8, v: &[u64]) -> TraceEvent {
    match tag {
        TAG_OPEN | TAG_CREATE => TraceEvent::Open {
            open_id: OpenId(v[0]),
            file_id: FileId(v[1]),
            user_id: UserId(v[2] as u32),
            mode: match v[3] {
                MODE_RO => AccessMode::ReadOnly,
                MODE_WO => AccessMode::WriteOnly,
                _ => AccessMode::ReadWrite,
            },
            size: v[4],
            created: tag == TAG_CREATE,
        },
        TAG_CLOSE => TraceEvent::Close {
            open_id: OpenId(v[0]),
            final_pos: v[1],
        },
        TAG_SEEK => TraceEvent::Seek {
            open_id: OpenId(v[0]),
            old_pos: v[1],
            new_pos: v[2],
        },
        TAG_UNLINK => TraceEvent::Unlink {
            file_id: FileId(v[0]),
            user_id: UserId(v[1] as u32),
        },
        TAG_TRUNCATE => TraceEvent::Truncate {
            file_id: FileId(v[0]),
            new_len: v[1],
            user_id: UserId(v[2] as u32),
        },
        TAG_EXECVE => TraceEvent::Execve {
            file_id: FileId(v[0]),
            user_id: UserId(v[1] as u32),
            size: v[2],
        },
        other => unreachable!("decoders only pass validated tags, found {other}"),
    }
}

/// Extracts the next varint from the loaded window `x`, given its stop
/// mask `s` (which must have a bit for it) and the byte offset `start`
/// of its first byte. Register ops only — no load, no branch.
#[inline(always)]
fn take_varint(x: u64, s: &mut u64, start: &mut usize) -> u64 {
    let end = (s.trailing_zeros() >> 3) as usize;
    *s &= s.wrapping_sub(1);
    let len = end + 1 - *start;
    let y = (x >> (8 * *start)) & (u64::MAX >> (64 - 8 * len));
    *start = end + 1;
    collapse7(y)
}

/// High (continuation) bit of every byte in a window.
const CONT_BITS: u64 = 0x8080_8080_8080_8080;

/// Bit-parallel fast path: when every varint of a record terminates
/// inside one 8-byte window (two windows for open/create, which carry
/// six varints), the whole record decodes from wide loads — one bit
/// scan per varint instead of one dependent load per varint, so the
/// extractions pipeline. Returns `Ok(None)` with `*pos` untouched when
/// a window is short on bytes or stop bits, or the tag is unknown; the
/// caller's per-varint loop then owns the decode, keeping all error
/// reporting defined in one place. A window with three or more stops
/// caps each varint at six bytes, so overflow is impossible here.
#[inline(always)]
fn decode_one_wide(
    buf: &[u8],
    pos: &mut usize,
    tag: u8,
    prev_ticks: u64,
    out: &mut RecordBlock,
) -> Result<Option<u64>, DecodeError> {
    let p = *pos;
    let Some(window) = buf.get(p..p + 8) else {
        return Ok(None);
    };
    let x = u64::from_le_bytes(window.try_into().expect("8-byte window"));
    let mut s = !x & CONT_BITS;
    let mut start = 0usize;
    let mut v = [0u64; 6];
    // One straight-line arm per tag: constant varint counts, so every
    // extraction unrolls. Validation mirrors the scalar order (`v[0]`
    // is the timestamp delta, so field k sits at `v[k + 1]`); having
    // decoded past a bad field cannot change the outcome, because every
    // remaining varint in the window is well-formed, so the scalar path
    // reaches the same check as its first error.
    match tag {
        TAG_CLOSE | TAG_UNLINK => {
            if s.count_ones() < 3 {
                return Ok(None);
            }
            v[0] = take_varint(x, &mut s, &mut start);
            v[1] = take_varint(x, &mut s, &mut start);
            v[2] = take_varint(x, &mut s, &mut start);
            if tag == TAG_UNLINK && v[2] > u64::from(u32::MAX) {
                return Err(DecodeError::BadField("user id"));
            }
        }
        TAG_SEEK | TAG_TRUNCATE | TAG_EXECVE => {
            if s.count_ones() < 4 {
                return Ok(None);
            }
            v[0] = take_varint(x, &mut s, &mut start);
            v[1] = take_varint(x, &mut s, &mut start);
            v[2] = take_varint(x, &mut s, &mut start);
            v[3] = take_varint(x, &mut s, &mut start);
            if tag != TAG_SEEK {
                let user = if tag == TAG_TRUNCATE { v[3] } else { v[2] };
                if user > u64::from(u32::MAX) {
                    return Err(DecodeError::BadField("user id"));
                }
            }
        }
        TAG_OPEN | TAG_CREATE => {
            // Delta plus the two ids from the first window; user, mode,
            // and size from a second window starting right after them.
            if s.count_ones() < 3 {
                return Ok(None);
            }
            v[0] = take_varint(x, &mut s, &mut start);
            v[1] = take_varint(x, &mut s, &mut start);
            v[2] = take_varint(x, &mut s, &mut start);
            let q = p + start;
            let Some(window) = buf.get(q..q + 8) else {
                return Ok(None);
            };
            let x2 = u64::from_le_bytes(window.try_into().expect("8-byte window"));
            let mut s2 = !x2 & CONT_BITS;
            if s2.count_ones() < 3 {
                return Ok(None);
            }
            let mut start2 = 0usize;
            v[3] = take_varint(x2, &mut s2, &mut start2);
            v[4] = take_varint(x2, &mut s2, &mut start2);
            v[5] = take_varint(x2, &mut s2, &mut start2);
            start += start2;
            if v[4] > MODE_RW {
                return Err(DecodeError::BadField("access mode"));
            }
            if v[3] > u64::from(u32::MAX) {
                return Err(DecodeError::BadField("user id"));
            }
        }
        _ => return Ok(None),
    }
    let ticks = prev_ticks.saturating_add(v[0]);
    // v[nv..] is still zero, so v[1..6] is the FIELDS-wide padded row.
    out.vals.extend_from_slice(&v[1..1 + FIELDS]);
    *pos = p + start;
    out.tags.push(tag);
    out.ticks.push(ticks);
    out.ends.push(*pos as u32);
    Ok(Some(ticks))
}

/// A block producer that refills a caller-owned [`RecordBlock`] in
/// place — the allocation-free twin of `Iterator<Item = RecordBlock>`.
///
/// Where an owning iterator hands out a freshly allocated block per
/// chunk, a `FillBlock` source writes into (or swaps with) the block
/// the consumer already holds, so a steady-state decode → replay loop
/// recycles the same column buffers for the whole stream. Sources with
/// a corruption policy apply it internally (skip and continue, or stop
/// early) and expose what happened through their own reporting API;
/// `fill_next` itself only says whether another block arrived.
pub trait FillBlock {
    /// Replaces `out`'s contents with the next block of the stream.
    /// Returns `false` when the stream is exhausted (or the source
    /// stopped on an error per its policy), leaving `out` unspecified.
    fn fill_next(&mut self, out: &mut RecordBlock) -> bool;
}

/// Any owning block iterator is a [`FillBlock`] source: the incoming
/// block replaces `out` wholesale (the allocation, if any, is the
/// producer's).
impl<I: Iterator<Item = RecordBlock>> FillBlock for I {
    fn fill_next(&mut self, out: &mut RecordBlock) -> bool {
        match self.next() {
            Some(b) => {
                *out = b;
                true
            }
            None => false,
        }
    }
}

/// Flattens a [`FillBlock`] source into a record iterator, reusing one
/// [`RecordBlock`] for the entire stream.
///
/// This is what `cachesim::sweep::run_block_source` threads its record
/// streams through: each refill overwrites the previous chunk's
/// columns in place, so a multi-gigabyte archive replays with a single
/// block's worth of column buffers no matter how many chunks it has.
pub struct FillRecords<S> {
    source: S,
    current: RecordBlock,
    at: usize,
}

impl<S: FillBlock> FillRecords<S> {
    /// Wraps a refillable block source.
    pub fn new(source: S) -> Self {
        FillRecords {
            source,
            current: RecordBlock::new(),
            at: 0,
        }
    }

    /// The underlying source (e.g. to read a recovery report after the
    /// stream ends).
    pub fn source(&self) -> &S {
        &self.source
    }
}

impl<S: FillBlock> Iterator for FillRecords<S> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.at < self.current.len() {
                let rec = self.current.get(self.at);
                self.at += 1;
                return Some(rec);
            }
            if !self.source.fill_next(&mut self.current) {
                return None;
            }
            self.at = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from, encode_into, put_varint};

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

    fn encode(records: &[TraceRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for r in records {
            prev = encode_into(&mut buf, r, prev);
        }
        buf
    }

    #[test]
    fn block_roundtrips_sample() {
        let records = sample_records();
        let buf = encode(&records);
        let mut block = RecordBlock::new();
        let mut pos = 0;
        let last =
            decode_block(&buf, &mut pos, 0, buf.len(), usize::MAX, &mut block).expect("decodes");
        assert_eq!(pos, buf.len());
        assert_eq!(block.to_records(), records);
        assert_eq!(last, records.last().unwrap().time.as_ticks());
        // End offsets partition the buffer.
        assert_eq!(block.end_offset(block.len() - 1), buf.len());
        for i in 1..block.len() {
            assert!(block.end_offset(i - 1) < block.end_offset(i));
        }
    }

    #[test]
    fn kind_counts_match_materialized_records() {
        let records = sample_records();
        let buf = encode(&records);
        let mut block = RecordBlock::new();
        let mut pos = 0;
        decode_block(&buf, &mut pos, 0, buf.len(), usize::MAX, &mut block).expect("decodes");
        let counts = block.kind_counts();
        for (i, kind) in crate::EventKind::ALL.into_iter().enumerate() {
            let expected = records.iter().filter(|r| r.event.kind() == kind).count() as u64;
            assert_eq!(counts[i], expected, "{kind:?}");
        }
        assert_eq!(counts.iter().sum::<u64>(), records.len() as u64);
    }

    #[test]
    fn max_records_and_start_limit_bound_the_batch() {
        let records = sample_records();
        let buf = encode(&records);
        let mut block = RecordBlock::new();
        let mut pos = 0;
        let mid = decode_block(&buf, &mut pos, 0, buf.len(), 2, &mut block).expect("decodes");
        assert_eq!(block.len(), 2);
        // Chaining from the returned ticks resumes exactly.
        let mut rest = RecordBlock::new();
        decode_block(&buf, &mut pos, mid, buf.len(), usize::MAX, &mut rest).expect("decodes");
        let mut all = block.to_records();
        all.extend(rest.to_records());
        assert_eq!(all, records);
        // start_limit at 0 decodes nothing.
        let mut pos = 0;
        decode_block(&buf, &mut pos, 0, 0, usize::MAX, &mut block).expect("empty ok");
        assert!(block.is_empty());
    }

    #[test]
    fn error_keeps_prefix_and_positions_match_scalar() {
        let records = sample_records();
        let mut buf = encode(&records);
        buf.pop(); // Chop the last record.
        let mut block = RecordBlock::new();
        let mut pos = 0;
        let err = decode_block(&buf, &mut pos, 0, buf.len(), usize::MAX, &mut block)
            .expect_err("truncated");
        assert_eq!(block.len(), records.len() - 1);
        assert_eq!(block.to_records(), records[..records.len() - 1]);
        // The scalar oracle fails at the same buffer position.
        let mut spos = 0usize;
        let mut prev = 0u64;
        let scalar_err = loop {
            match decode_from(&buf, &mut spos, prev) {
                Ok((_, t)) => prev = t,
                Err(e) => break e,
            }
        };
        assert_eq!(format!("{err:?}"), format!("{scalar_err:?}"));
        // pos is left at the failing record's start.
        assert_eq!(pos, block.end_offset(block.len() - 1));
    }

    #[test]
    fn fast_varint_matches_scalar_on_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX, 1 << 63] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            buf.resize(buf.len().max(12), 0); // Ensure the fast path runs.
            let mut pos = 0;
            assert_eq!(get_varint_fast(&buf, &mut pos).unwrap(), v);
            let mut spos = 0;
            assert_eq!(get_varint(&buf, &mut spos).unwrap(), v);
            assert_eq!(pos, spos, "value {v}");
        }
    }

    #[test]
    fn overlong_varints_are_rejected_by_both_readers() {
        // Ten continuation bytes: the value would shift past 64 bits.
        let eleven = [0x80u8; 10]
            .iter()
            .copied()
            .chain([0x01])
            .collect::<Vec<u8>>();
        // A tenth byte with value bits above bit 63 silently wrapped
        // before the fix; now both readers reject it.
        let mut wrap = vec![0x80u8; 9];
        wrap.push(0x02);
        // 0x81 at the tenth byte continues past it: malformed if an
        // eleventh byte exists, truncated at offset 10 otherwise.
        let mut cont = vec![0x80u8; 9];
        cont.push(0x81);
        for bytes in [&eleven, &wrap] {
            for reader in [get_varint, get_varint_fast as fn(&[u8], &mut usize) -> _] {
                let mut pos = 0;
                assert!(
                    matches!(reader(bytes, &mut pos), Err(DecodeError::BadVarint)),
                    "bytes {bytes:?}"
                );
            }
        }
        for reader in [get_varint, get_varint_fast as fn(&[u8], &mut usize) -> _] {
            let mut pos = 0;
            assert!(matches!(
                reader(&cont, &mut pos),
                Err(DecodeError::Truncated { offset: 10, .. })
            ));
            let mut with_more = cont.clone();
            with_more.push(0x00);
            let mut pos = 0;
            assert!(matches!(
                reader(&with_more, &mut pos),
                Err(DecodeError::BadVarint)
            ));
        }
        // The maximal *valid* ten-byte varint still decodes.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        for reader in [get_varint, get_varint_fast as fn(&[u8], &mut usize) -> _] {
            let mut pos = 0;
            assert_eq!(reader(&max, &mut pos).unwrap(), u64::MAX);
            assert_eq!(pos, 10);
        }
    }

    #[test]
    fn block_records_flattens_a_block_stream() {
        let records = sample_records();
        let buf = encode(&records);
        let mut blocks = Vec::new();
        let mut pos = 0;
        let mut prev = 0u64;
        while pos < buf.len() {
            let mut b = RecordBlock::new();
            prev = decode_block(&buf, &mut pos, prev, buf.len(), 2, &mut b).expect("decodes");
            blocks.push(b);
        }
        assert!(blocks.len() >= 3);
        let got: Vec<TraceRecord> = FillRecords::new(blocks.into_iter()).collect();
        assert_eq!(got, records);
    }
}
