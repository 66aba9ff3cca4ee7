//! [`Archive`]: opens, verifies, recovers, and decodes archives.
//!
//! Opening is a two-tier affair. The fast path trusts the footer: read
//! the 12-byte trailer, checksum the body, and the chunk index is
//! available without touching a single chunk. When the trailer or body
//! is missing or corrupt (a crashed writer, a truncated copy, bit rot
//! in the index itself, a record total that disagrees with the index),
//! [`Archive::open`] falls back to a *scan*: walk the file for the chunk
//! magic, validate each candidate frame by CRC, and rebuild the index
//! from what survives. False positives are rejected by the checksum, so
//! a successful scan recovers every intact chunk and reports precisely
//! what it could not place.
//!
//! Every read goes through one block source, [`ArchiveBlocks`], over a
//! selection of chunks. With zero workers it verifies, decompresses,
//! and decodes each chunk on the caller's thread; with one or more it
//! runs the same stages on a worker pool behind an in-order ring (see
//! the `pipeline` module). [`Records`] flattens it into records.
//!
//! Chunk damage at read time is handled per [`Corruption`]: `Fail`
//! surfaces the first bad chunk as a [`DecodeError::CorruptChunk`] and
//! ends the pass; `Skip` drops exactly that chunk's records, counts
//! them in the [`RecoveryReport`], and resumes at the next chunk — the
//! neighbours are untouched because every chunk decodes independently.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fstrace::block::{decode_block, RecordBlock};
use fstrace::codec::{decode_from, DecodeError};
use fstrace::{FillBlock, TraceRecord};

use crate::compress::decompress_into;
use crate::crc32::crc32;
use crate::format::{
    chunk_crc, decode_chunk_header, decode_footer, ArchiveMeta, ChunkInfo, ARCHIVE_MAGIC,
    ARCHIVE_VERSION, CHUNK_HEADER_LEN, CHUNK_MAGIC, FOOTER_MAGIC, HEADER_LEN, TRAILER_LEN,
};
use crate::pipeline::Ring;

/// What a reader does when a chunk fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Surface the first bad chunk as an error and stop.
    Fail,
    /// Skip the bad chunk, count the loss, continue with the next.
    Skip,
}

/// One damaged chunk, as reported by recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadChunk {
    /// Index of the chunk in the archive's chunk sequence.
    pub index: u64,
    /// File offset of the chunk's frame.
    pub offset: u64,
    /// Records the chunk claimed to hold (all lost).
    pub records_lost: u64,
}

/// Exactly what a recovering read lost: which chunks, how many records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chunks skipped because they failed verification.
    pub bad_chunks: Vec<BadChunk>,
    /// Whether the footer was unusable and the index was rebuilt by
    /// scanning for chunk frames.
    pub footer_rebuilt: bool,
}

impl RecoveryReport {
    /// Number of chunks lost.
    pub fn chunks_skipped(&self) -> u64 {
        self.bad_chunks.len() as u64
    }

    /// Total records lost across all skipped chunks.
    pub fn records_lost(&self) -> u64 {
        self.bad_chunks.iter().map(|b| b.records_lost).sum()
    }

    /// True when nothing was lost and the footer was intact.
    pub fn is_clean(&self) -> bool {
        self.bad_chunks.is_empty() && !self.footer_rebuilt
    }

    /// Records chunk `index` as lost.
    fn lose(&mut self, index: usize, info: &ChunkInfo) {
        self.bad_chunks.push(BadChunk {
            index: index as u64,
            offset: info.offset,
            records_lost: info.records as u64,
        });
    }
}

/// Errors from [`Archive::open`].
#[derive(Debug)]
pub enum ArchiveError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not an archive (bad magic) or an unknown version.
    Format(DecodeError),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive i/o error: {e}"),
            ArchiveError::Format(e) => write!(f, "archive format error: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

/// An opened archive: the raw bytes plus a verified (or rebuilt) chunk
/// index. Chunk payloads stay in their stored, possibly compressed form
/// until a read decodes them, so holding an archive costs its on-disk
/// size, not its decoded size.
///
/// `Archive` is a handle: cloning it shares the bytes and the index,
/// which is how every read source (and every pipeline worker) holds the
/// archive it reads.
#[derive(Clone)]
pub struct Archive(Arc<Stored>);

struct Stored {
    bytes: Vec<u8>,
    meta: ArchiveMeta,
    chunks: Vec<ChunkInfo>,
    footer_rebuilt: bool,
}

impl Archive {
    /// Opens an archive file. See [`Archive::from_bytes`].
    pub fn open(path: &Path) -> Result<Archive, ArchiveError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Archive::from_bytes(bytes)
    }

    /// Opens an archive held in memory. Fails only when the file header
    /// itself is wrong — everything after the header is subject to
    /// recovery, not rejection: a bad footer triggers a rebuilding
    /// scan, and bad chunks are dealt with at read time.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Archive, ArchiveError> {
        if bytes.len() < HEADER_LEN || bytes[..4] != ARCHIVE_MAGIC {
            return Err(ArchiveError::Format(DecodeError::BadMagic));
        }
        if bytes[4] != ARCHIVE_VERSION {
            return Err(ArchiveError::Format(DecodeError::BadVersion(bytes[4])));
        }
        let (meta, chunks, footer_rebuilt) = match read_footer(&bytes) {
            Some((meta, chunks)) => (meta, chunks, false),
            None => {
                let chunks = scan_chunks(&bytes);
                let meta = ArchiveMeta {
                    name: String::new(),
                    total_records: chunks.iter().map(|c| c.records as u64).sum(),
                    ..ArchiveMeta::default()
                };
                (meta, chunks, true)
            }
        };
        Ok(Archive(Arc::new(Stored {
            bytes,
            meta,
            chunks,
            footer_rebuilt,
        })))
    }

    /// Per-trace metadata from the footer. After a footer rebuild the
    /// name and max-id fields are empty/zero — only chunk-derived
    /// totals are known.
    pub fn meta(&self) -> &ArchiveMeta {
        &self.0.meta
    }

    /// The chunk index (verified footer or rebuilt by scan).
    pub fn chunks(&self) -> &[ChunkInfo] {
        &self.0.chunks
    }

    /// Whether the footer was unusable and the index was rebuilt.
    pub fn footer_rebuilt(&self) -> bool {
        self.0.footer_rebuilt
    }

    /// Archive size in bytes as held in memory.
    pub fn byte_len(&self) -> u64 {
        self.0.bytes.len() as u64
    }

    /// Read stage 1: bounds-check the frame, re-parse the on-disk
    /// header against the index entry, and CRC the payload. Returns the
    /// *stored* (possibly compressed) payload slice.
    fn verify_chunk(&self, index: usize) -> Option<&[u8]> {
        let info = &self.chunks()[index];
        let start = info.offset as usize;
        let end = start + CHUNK_HEADER_LEN + info.stored_len as usize;
        let frame = self.0.bytes.get(start..end)?;
        // Re-parse the on-disk header and require it to agree with the
        // index entry: a footer-sourced index must also match the file.
        let on_disk = decode_chunk_header(frame, info.offset)?;
        let payload = &frame[CHUNK_HEADER_LEN..];
        (on_disk == *info && chunk_crc(info, payload) == info.crc).then_some(payload)
    }

    /// Read stage 2: decompress stage 1's payload into `scratch` when
    /// the chunk is stored compressed (clearing and reusing the buffer);
    /// passthrough chunks borrow straight from the archive.
    fn decompress_chunk<'a>(
        &self,
        index: usize,
        payload: &'a [u8],
        scratch: &'a mut Vec<u8>,
    ) -> Option<&'a [u8]> {
        let info = &self.chunks()[index];
        if !info.compressed {
            return Some(payload);
        }
        decompress_into(payload, info.raw_len as usize, scratch).ok()?;
        Some(scratch)
    }

    /// Reads chunk `index` through the three stages — verify,
    /// decompress into `scratch`, batched decode into `out`'s columns —
    /// timing each into `stages`. `None` means the chunk is damaged;
    /// `out` is then empty or untouched, never a partial chunk.
    pub(crate) fn read_chunk(
        &self,
        index: usize,
        scratch: &mut Vec<u8>,
        out: &mut RecordBlock,
        stages: &Stages,
    ) -> Option<()> {
        let t = Instant::now();
        let payload = self.verify_chunk(index)?;
        stages.read.record_ns(elapsed_ns(t));
        let t = Instant::now();
        let raw = self.decompress_chunk(index, payload, scratch)?;
        stages.decompress.record_ns(elapsed_ns(t));
        let t = Instant::now();
        let records = self.chunks()[index].records as usize;
        let mut pos = 0usize;
        out.clear();
        out.reserve(records);
        let decoded = decode_block(raw, &mut pos, 0, raw.len(), usize::MAX, out);
        if decoded.is_err() || pos != raw.len() || out.len() != records {
            out.clear();
            return None;
        }
        stages.decode.record_ns(elapsed_ns(t));
        Some(())
    }

    /// Verifies and decodes one chunk record-at-a-time with the scalar
    /// codec, through the same verify and decompress stages as
    /// [`Archive::read_chunk`].
    fn decode_chunk_scalar(&self, index: usize, scratch: &mut Vec<u8>) -> Option<Vec<TraceRecord>> {
        let payload = self.verify_chunk(index)?;
        let raw = self.decompress_chunk(index, payload, scratch)?;
        let want = self.chunks()[index].records as usize;
        let mut records = Vec::with_capacity(want);
        let (mut pos, mut prev_ticks) = (0usize, 0u64);
        while pos < raw.len() {
            let (rec, ticks) = decode_from(raw, &mut pos, prev_ticks).ok()?;
            prev_ticks = ticks;
            records.push(rec);
        }
        (records.len() == want).then_some(records)
    }

    /// Iterates all records sequentially under the given corruption
    /// policy. The iterator's [`Records::report`] says what was skipped
    /// once iteration ends.
    pub fn records(&self, mode: Corruption) -> Records {
        Records::new(self.blocks(mode))
    }

    /// Iterates the records of the chunks whose time ranges intersect
    /// `[start_ticks, end_ticks]` (inclusive, in 10 ms ticks). The
    /// footer index makes this a seek: chunks outside the range are
    /// never read, let alone decoded. Records inside a selected chunk
    /// but outside the range are still yielded — chunk granularity is
    /// the contract; callers wanting exact bounds filter the tail.
    pub fn records_in_ticks(&self, start_ticks: u64, end_ticks: u64, mode: Corruption) -> Records {
        let selection = (0..self.chunks().len())
            .filter(|&i| self.chunks()[i].overlaps_ticks(start_ticks, end_ticks))
            .collect();
        Records::new(ArchiveBlocks::new(self.clone(), selection, mode, 0))
    }

    /// Iterates the archive chunk by chunk as decoded [`RecordBlock`]s
    /// under the given corruption policy, decoding on the caller's
    /// thread — for consumers that want whole columns
    /// (`sweep::run_block_source`, `Simulator::run_blocks`).
    pub fn blocks(&self, mode: Corruption) -> ArchiveBlocks {
        ArchiveBlocks::new(self.clone(), self.all_chunks(), mode, 0)
    }

    /// [`Archive::blocks`] with `workers` background threads (at least
    /// one) verifying, decompressing, and decoding chunks ahead of the
    /// consumer while blocks still arrive in archive order —
    /// byte-identical to [`Archive::blocks`] for any worker count.
    pub fn pipelined(self: Arc<Self>, mode: Corruption, workers: usize) -> ArchiveBlocks {
        ArchiveBlocks::new(
            Archive::clone(&self),
            self.all_chunks(),
            mode,
            workers.max(1),
        )
    }

    /// Decodes the whole archive into memory on the caller's thread,
    /// skipping damaged chunks, and reports what was lost.
    pub fn read_all(&self) -> (Vec<TraceRecord>, RecoveryReport) {
        let mut blocks = self.blocks(Corruption::Skip);
        let mut block = RecordBlock::new();
        let mut out = Vec::with_capacity(self.records_hint());
        while blocks.fill_next(&mut block) {
            block.append_to(&mut out);
        }
        (out, blocks.report().clone())
    }

    /// [`Archive::read_all`] through the scalar record-at-a-time codec.
    /// This is the decode baseline `BENCH_6` measures the batched path
    /// against, and the oracle the equivalence property tests use; it
    /// takes no part in production reads and publishes no counters.
    pub fn read_all_scalar(&self) -> (Vec<TraceRecord>, RecoveryReport) {
        let mut out = Vec::with_capacity(self.records_hint());
        let mut report = RecoveryReport {
            footer_rebuilt: self.footer_rebuilt(),
            ..RecoveryReport::default()
        };
        let mut scratch = Vec::new();
        for (i, info) in self.chunks().iter().enumerate() {
            match self.decode_chunk_scalar(i, &mut scratch) {
                Some(records) => out.extend(records),
                None => report.lose(i, info),
            }
        }
        (out, report)
    }

    fn all_chunks(&self) -> Vec<usize> {
        (0..self.chunks().len()).collect()
    }

    /// Capacity for a whole-archive read: the records the chunk index
    /// promises, capped at one per archive byte, so a forged count can
    /// cost at most a constant times the file size.
    fn records_hint(&self) -> usize {
        let indexed: u64 = self.chunks().iter().map(|c| c.records as u64).sum();
        indexed.min(self.byte_len()) as usize
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The per-stage spans every chunk read records: `pipeline.read`
/// (frame verify + CRC), `pipeline.decompress`, `pipeline.decode`.
pub(crate) struct Stages {
    read: obs::Span,
    decompress: obs::Span,
    decode: obs::Span,
}

impl Stages {
    pub(crate) fn new() -> Stages {
        let reg = obs::global();
        Stages {
            read: reg.span("pipeline.read"),
            decompress: reg.span("pipeline.decompress"),
            decode: reg.span("pipeline.decode"),
        }
    }
}

/// Who runs the read stages.
enum Engine {
    /// Zero workers: the caller's thread, one reused scratch buffer.
    Inline { scratch: Vec<u8>, stages: Stages },
    /// One or more workers behind the in-order ring.
    Ring(Ring),
}

/// The counters a pass adds to when it ends (DESIGN.md §12): what it
/// delivered, then the damaged chunks it met.
const READ_COUNTERS: [&str; 4] = [
    "tracestore.chunks_read",
    "tracestore.records_read",
    "tracestore.bytes_read",
    "tracestore.chunks_skipped_corrupt",
];

/// What one pass delivered, for the read counters.
#[derive(Default)]
struct Delivered {
    chunks: u64,
    records: u64,
    bytes: u64,
}

/// The one block source behind every archive read: decoded chunks of a
/// chunk selection, in selection order, under one corruption policy.
///
/// Yields `Result<RecordBlock, DecodeError>`. In `Fail` mode the first
/// damaged chunk is yielded as [`DecodeError::CorruptChunk`] and the
/// source then fuses; in `Skip` mode damaged chunks are recorded in
/// [`ArchiveBlocks::report`] and passed over. Also implements
/// [`FillBlock`], the allocation-free way to consume it: each
/// `fill_next` decodes into (or, with workers, swaps with) the caller's
/// block.
///
/// When the pass ends — exhausted, fused, or dropped early — the source
/// adds what it delivered to the `tracestore.{chunks,records,bytes}_read`
/// counters and its damaged chunks to `tracestore.chunks_skipped_corrupt`
/// (DESIGN.md §12).
pub struct ArchiveBlocks {
    archive: Archive,
    /// Chunk indices this pass reads, in order.
    selection: Arc<[usize]>,
    /// Position in `selection` of the next chunk to deliver.
    next: usize,
    mode: Corruption,
    report: RecoveryReport,
    delivered: Delivered,
    /// [`READ_COUNTERS`], looked up when the pass starts so that ending
    /// it (possibly in `drop`) only adds.
    counters: [obs::Counter; 4],
    /// Set once the pass has ended and the counters are published.
    ended: bool,
    engine: Engine,
    /// When the previous block was handed out — the consumer's time
    /// until the next call is the `pipeline.replay` stage.
    last_yield: Option<Instant>,
    replay_span: obs::Span,
}

impl ArchiveBlocks {
    /// Reads `selection` of `archive`: on the caller's thread when
    /// `workers` is 0, else on `workers` threads (at most one per
    /// selected chunk).
    fn new(
        archive: Archive,
        selection: Vec<usize>,
        mode: Corruption,
        workers: usize,
    ) -> ArchiveBlocks {
        let selection: Arc<[usize]> = selection.into();
        let engine = match workers {
            0 => Engine::Inline {
                scratch: Vec::new(),
                stages: Stages::new(),
            },
            n => Engine::Ring(Ring::new(
                archive.clone(),
                Arc::clone(&selection),
                n.min(selection.len().max(1)),
            )),
        };
        ArchiveBlocks {
            report: RecoveryReport {
                footer_rebuilt: archive.footer_rebuilt(),
                ..RecoveryReport::default()
            },
            archive,
            selection,
            next: 0,
            mode,
            delivered: Delivered::default(),
            counters: READ_COUNTERS.map(|name| obs::global().counter(name)),
            ended: false,
            engine,
            last_yield: None,
            replay_span: obs::global().span("pipeline.replay"),
        }
    }

    /// What has been skipped so far (complete once iteration ends).
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Puts the next chunk's records in `out`. `None` at the end of the
    /// pass; `Some(Err)` once, in `Fail` mode, for the first damaged
    /// chunk.
    fn next_into(&mut self, out: &mut RecordBlock) -> Option<Result<(), DecodeError>> {
        if let Some(at) = self.last_yield.take() {
            self.replay_span.record_ns(elapsed_ns(at));
        }
        while !self.ended {
            let Some(&i) = self.selection.get(self.next) else {
                self.end();
                break;
            };
            let read = match &mut self.engine {
                Engine::Inline { scratch, stages } => {
                    self.archive.read_chunk(i, scratch, out, stages).is_some()
                }
                Engine::Ring(ring) => ring.take_into(self.next, out),
            };
            self.next += 1;
            let info = &self.archive.chunks()[i];
            if read {
                self.delivered.chunks += 1;
                self.delivered.records += out.len() as u64;
                self.delivered.bytes += info.frame_len();
                self.last_yield = Some(Instant::now());
                return Some(Ok(()));
            }
            self.report.lose(i, info);
            if self.mode == Corruption::Fail {
                let err = DecodeError::CorruptChunk {
                    index: i as u64,
                    offset: info.offset,
                };
                self.end();
                return Some(Err(err));
            }
        }
        None
    }

    /// Ends the pass and publishes its read counters, once.
    fn end(&mut self) {
        if std::mem::replace(&mut self.ended, true) {
            return;
        }
        let d = &self.delivered;
        let counts = [d.chunks, d.records, d.bytes, self.report.chunks_skipped()];
        for (counter, n) in self.counters.iter().zip(counts) {
            counter.add(n);
        }
    }
}

impl Iterator for ArchiveBlocks {
    type Item = Result<RecordBlock, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut block = RecordBlock::new();
        Some(self.next_into(&mut block)?.map(|()| block))
    }
}

impl FillBlock for ArchiveBlocks {
    /// Allocation-free consumption: the next chunk replaces `out`'s
    /// records. A `Fail`-mode error ends the stream (use
    /// [`Iterator::next`] to observe the error itself).
    fn fill_next(&mut self, out: &mut RecordBlock) -> bool {
        matches!(self.next_into(out), Some(Ok(())))
    }
}

impl Drop for ArchiveBlocks {
    fn drop(&mut self) {
        self.end();
    }
}

/// Record iterator over an [`ArchiveBlocks`] pass; yields
/// `Result<TraceRecord, DecodeError>` in time order.
///
/// Chunks land in one reused [`RecordBlock`]; `next()` walks its
/// columns with a cursor and materializes one record view at a time, so
/// streaming an archive never allocates per record. Corruption policy
/// and fusing are the block source's.
pub struct Records {
    blocks: ArchiveBlocks,
    /// Columns of the chunk being drained, reused across chunks.
    block: RecordBlock,
    /// Next unserved record in `block`.
    cursor: usize,
}

impl Records {
    fn new(blocks: ArchiveBlocks) -> Records {
        Records {
            blocks,
            block: RecordBlock::new(),
            cursor: 0,
        }
    }

    /// What has been skipped so far (complete once iteration ends).
    pub fn report(&self) -> &RecoveryReport {
        self.blocks.report()
    }
}

impl Iterator for Records {
    type Item = Result<TraceRecord, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.cursor >= self.block.len() {
            if let Err(e) = self.blocks.next_into(&mut self.block)? {
                return Some(Err(e));
            }
            self.cursor = 0;
        }
        let rec = self.block.get(self.cursor);
        self.cursor += 1;
        Some(Ok(rec))
    }
}

/// Reads and verifies the footer; `None` means "fall back to a scan".
fn read_footer(bytes: &[u8]) -> Option<(ArchiveMeta, Vec<ChunkInfo>)> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return None;
    }
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    if trailer[8..12] != FOOTER_MAGIC {
        return None;
    }
    let body_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let body_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]) as usize;
    let body_end = bytes.len() - TRAILER_LEN;
    let body_start = body_end.checked_sub(body_len)?;
    if body_start < HEADER_LEN {
        return None;
    }
    let body = &bytes[body_start..body_end];
    if crc32(body) != body_crc {
        return None;
    }
    let (meta, chunks) = decode_footer(body).ok()?;
    // The index must describe this file: in-bounds, strictly ordered
    // frames that all land before the footer body, holding exactly the
    // records the metadata claims.
    let mut prev_end = HEADER_LEN as u64;
    let mut records = 0u64;
    for c in &chunks {
        let end = c.offset.checked_add(c.frame_len())?;
        if c.offset < prev_end || end > body_start as u64 {
            return None;
        }
        prev_end = end;
        records += c.records as u64;
    }
    (records == meta.total_records).then_some((meta, chunks))
}

/// Rebuilds a chunk index by scanning for frame magics and validating
/// every candidate with its CRC. A candidate that fails validation is
/// not a chunk — the scan resumes one byte later, so a corrupt chunk's
/// bytes are combed for the *next* intact frame rather than skipped
/// blindly.
fn scan_chunks(bytes: &[u8]) -> Vec<ChunkInfo> {
    let mut chunks = Vec::new();
    let mut at = HEADER_LEN;
    while at + CHUNK_HEADER_LEN <= bytes.len() {
        // Hunt for the next magic byte-by-byte.
        let Some(rel) = find_magic(&bytes[at..], &CHUNK_MAGIC) else {
            break;
        };
        let start = at + rel;
        if start + CHUNK_HEADER_LEN > bytes.len() {
            break;
        }
        let candidate = decode_chunk_header(&bytes[start..], start as u64);
        let accepted = candidate.and_then(|info| {
            let end = start + CHUNK_HEADER_LEN + info.stored_len as usize;
            let payload = bytes.get(start + CHUNK_HEADER_LEN..end)?;
            (chunk_crc(&info, payload) == info.crc).then_some(info)
        });
        match accepted {
            Some(info) => {
                at = start + info.frame_len() as usize;
                chunks.push(info);
            }
            None => at = start + 1,
        }
    }
    chunks
}

/// First offset of `magic` in `haystack`, if any.
fn find_magic(haystack: &[u8], magic: &[u8; 4]) -> Option<usize> {
    haystack.windows(magic.len()).position(|w| w == magic)
}
