//! [`ArchiveWriter`]: streams records into a segmented archive.

use std::io::{self, Write};

use fstrace::codec::encode_into;
use fstrace::source::RecordSink;
use fstrace::TraceRecord;

use crate::compress::Compressor;
use crate::format::{
    chunk_crc, encode_chunk_header, encode_footer, ArchiveMeta, ChunkInfo, ARCHIVE_FLAG_COMPRESS,
    ARCHIVE_MAGIC, ARCHIVE_VERSION, FOOTER_MAGIC, HEADER_LEN,
};

/// Tuning knobs for [`ArchiveWriter`].
#[derive(Debug, Clone)]
pub struct ArchiveOptions {
    /// Raw (pre-compression) payload bytes that close a chunk. Smaller
    /// chunks seek and parallelize at finer grain; larger chunks
    /// compress better and carry less framing overhead.
    pub chunk_target_bytes: usize,
    /// Compress chunk payloads. A chunk is stored raw anyway when
    /// compression does not shrink it.
    pub compress: bool,
    /// Trace name recorded in the footer ("a5", "e3", …).
    pub name: String,
}

/// What one finished archive contains, returned by
/// [`ArchiveWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveSummary {
    /// Records written.
    pub records: u64,
    /// Chunks written.
    pub chunks: u64,
    /// Total file size, header and footer included.
    pub bytes: u64,
    /// Raw (pre-compression) payload bytes.
    pub raw_bytes: u64,
    /// Stored (post-compression) payload bytes.
    pub stored_bytes: u64,
}

impl Default for ArchiveOptions {
    fn default() -> Self {
        ArchiveOptions {
            chunk_target_bytes: 256 << 10,
            compress: true,
            name: String::new(),
        }
    }
}

/// Writes an archive incrementally: records accumulate in an in-memory
/// chunk buffer that is framed, checksummed, optionally compressed, and
/// flushed each time it reaches the target size. Call [`finish`] to
/// write the final partial chunk and the footer index — dropping the
/// writer without finishing leaves a footer-less file that readers can
/// still salvage in scan mode, which is exactly the crash-recovery
/// story, but a deliberate close should always finish.
///
/// Timestamp deltas restart from zero in every chunk, so each chunk
/// decodes with no context from its neighbours.
///
/// [`finish`]: ArchiveWriter::finish
pub struct ArchiveWriter<W: Write> {
    inner: W,
    opts: ArchiveOptions,
    /// Raw encoded payload of the chunk being built.
    buf: Vec<u8>,
    /// Delta base within the current chunk (0 at each chunk start).
    prev_ticks: u64,
    chunk_records: u32,
    chunk_first_ticks: u64,
    chunk_last_ticks: u64,
    chunks: Vec<ChunkInfo>,
    /// Next write position in the file.
    offset: u64,
    meta: ArchiveMeta,
    /// One table and output buffer for every chunk; `None` without
    /// compression.
    compressor: Option<Compressor>,
}

impl<W: Write> ArchiveWriter<W> {
    /// Starts an archive on `inner`, writing the file header.
    pub fn new(mut inner: W, opts: ArchiveOptions) -> io::Result<Self> {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&ARCHIVE_MAGIC);
        header[4] = ARCHIVE_VERSION;
        header[5] = if opts.compress {
            ARCHIVE_FLAG_COMPRESS
        } else {
            0
        };
        inner.write_all(&header)?;
        let meta = ArchiveMeta {
            name: opts.name.clone(),
            ..ArchiveMeta::default()
        };
        Ok(ArchiveWriter {
            inner,
            buf: Vec::with_capacity(opts.chunk_target_bytes + 64),
            compressor: opts.compress.then(Compressor::new),
            opts,
            prev_ticks: 0,
            chunk_records: 0,
            chunk_first_ticks: 0,
            chunk_last_ticks: 0,
            chunks: Vec::new(),
            offset: HEADER_LEN as u64,
            meta,
        })
    }

    /// Appends one record to the archive.
    pub fn write(&mut self, rec: &TraceRecord) -> io::Result<()> {
        let ticks = encode_into(&mut self.buf, rec, self.prev_ticks);
        if self.chunk_records == 0 {
            self.chunk_first_ticks = ticks;
        }
        self.chunk_last_ticks = ticks;
        self.prev_ticks = ticks;
        self.chunk_records += 1;
        self.meta.total_records += 1;
        if let Some(id) = rec.event.open_id() {
            self.meta.max_open = self.meta.max_open.max(id.0);
        }
        if let Some(id) = rec.event.file_id() {
            self.meta.max_file = self.meta.max_file.max(id.0);
        }
        if let Some(id) = rec.event.user_id() {
            self.meta.max_user = self.meta.max_user.max(id.0);
        }
        if self.buf.len() >= self.opts.chunk_target_bytes {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Frames, checksums, and writes the pending chunk, if any.
    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        let raw_len = self.buf.len() as u32;
        let packed = self.compressor.as_mut().map(|c| c.compress(&self.buf));
        // Keep the smaller form; incompressible chunks stay raw so the
        // reader never pays decompression for nothing.
        let (payload, compressed): (&[u8], bool) = match packed {
            Some(p) if p.len() < self.buf.len() => (p, true),
            _ => (&self.buf, false),
        };
        let mut info = ChunkInfo {
            offset: self.offset,
            records: self.chunk_records,
            raw_len,
            stored_len: payload.len() as u32,
            first_ticks: self.chunk_first_ticks,
            last_ticks: self.chunk_last_ticks,
            compressed,
            crc: 0,
        };
        info.crc = chunk_crc(&info, payload);
        self.inner.write_all(&encode_chunk_header(&info))?;
        self.inner.write_all(payload)?;
        self.offset += info.frame_len();
        self.chunks.push(info);
        self.buf.clear();
        self.prev_ticks = 0;
        self.chunk_records = 0;
        Ok(())
    }

    /// Flushes the final chunk, writes the footer, and returns the
    /// underlying writer with a summary of what was written. Also
    /// publishes the archive's write metrics to the global [`obs`]
    /// registry.
    pub fn finish(mut self) -> io::Result<(W, ArchiveSummary)> {
        self.flush_chunk()?;
        let body = encode_footer(&self.meta, &self.chunks);
        let crc = crate::crc32::crc32(&body);
        self.inner.write_all(&body)?;
        self.inner.write_all(&crc.to_le_bytes())?;
        self.inner.write_all(&(body.len() as u32).to_le_bytes())?;
        self.inner.write_all(&FOOTER_MAGIC)?;
        self.offset += body.len() as u64 + 12;
        self.inner.flush()?;

        let raw: u64 = self.chunks.iter().map(|c| c.raw_len as u64).sum();
        let stored: u64 = self.chunks.iter().map(|c| c.stored_len as u64).sum();
        let summary = ArchiveSummary {
            records: self.meta.total_records,
            chunks: self.chunks.len() as u64,
            bytes: self.offset,
            raw_bytes: raw,
            stored_bytes: stored,
        };
        let reg = obs::global();
        reg.counter("tracestore.bytes_written").add(summary.bytes);
        reg.counter("tracestore.chunks_written").add(summary.chunks);
        reg.counter("tracestore.records_written")
            .add(summary.records);
        reg.counter("tracestore.raw_bytes_written").add(raw);
        reg.gauge("tracestore.compression_ratio_pct")
            .record((obs::ratio(raw, stored) * 100.0).round() as u64);
        Ok((self.inner, summary))
    }

    /// Bytes flushed to the underlying writer so far (buffered chunk
    /// bytes excluded).
    pub fn bytes_flushed(&self) -> u64 {
        self.offset
    }
}

impl<W: Write> RecordSink for ArchiveWriter<W> {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.write(rec)
    }
}
