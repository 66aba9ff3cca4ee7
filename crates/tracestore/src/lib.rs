//! # tracestore — a segmented, checksummed, on-disk trace archive
//!
//! The flat `fstrace` binary format is a single delta-encoded stream:
//! compact, but a reader must decode every record from byte zero to
//! reach any later point, one byte of damage poisons everything after
//! it, and nothing in the file says how much *should* be there. This
//! crate wraps the same record encoding in a segmented container that
//! fixes all three:
//!
//! * **Chunks.** Records are framed into chunks of a target raw size
//!   (256 KiB by default). Each chunk restarts the timestamp delta
//!   base at zero, so chunks decode independently — the basis for both
//!   parallel decoding and damage isolation.
//! * **Checksums.** Every chunk carries a CRC-32 over its header and
//!   stored payload; the footer index carries its own. Any single
//!   flipped byte anywhere in the file is detected.
//! * **Index.** A footer records per-trace metadata (name, record
//!   count, max ids) and every chunk's offset, length, record count,
//!   and time range — so a reader can seek to a time window or fan
//!   chunks out to worker threads without a preparatory scan.
//! * **Recovery.** A missing or corrupt footer degrades to a scan that
//!   rebuilds the index from intact frames; a corrupt chunk can be
//!   skipped, losing exactly that chunk's records, with the loss
//!   itemized in a [`RecoveryReport`].
//!
//! Compression is per-chunk and optional (an LZ77 variant implemented
//! in [`compress`] — the build is offline, so no external codec), and
//! a chunk that does not shrink is stored raw.
//!
//! [`ArchiveWriter`] is a [`fstrace::source::RecordSink`]. Every read
//! goes through one block source, [`ArchiveBlocks`]: a chunk selection,
//! a [`Corruption`] mode, and a worker count. [`Archive::blocks`] and
//! [`Archive::read_all`] decode on the caller's thread;
//! [`Archive::pipelined`] overlaps chunk verify/decompress/decode with
//! the consumer on a worker pool while staying byte-identical to them;
//! [`Archive::records`] and [`Archive::records_in_ticks`] flatten the
//! source into [`Records`], a [`fstrace::source::RecordSource`]. The
//! source alone records lost chunks, fuses in `Fail` mode, and
//! publishes the `tracestore.*_read` counters.
//!
//! The `tracefmt` binary (this crate) packs, unpacks, inspects, and
//! verifies archives alongside its flat-format duties.

pub mod compress;
pub mod crc32;
pub mod format;
mod pipeline;
pub mod reader;
pub mod writer;

pub use format::{ArchiveMeta, ChunkInfo};
pub use reader::{
    Archive, ArchiveBlocks, ArchiveError, BadChunk, Corruption, Records, RecoveryReport,
};
pub use writer::{ArchiveOptions, ArchiveSummary, ArchiveWriter};

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::{AccessMode, TraceEvent, TraceRecord};

    /// A small synthetic workload: opens, seeks, closes with plausible
    /// id reuse so compression has something to find.
    fn sample_records(n: u64) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = i * 30;
            out.push(TraceRecord::new(
                t,
                TraceEvent::Open {
                    open_id: fstrace::OpenId(i),
                    file_id: fstrace::FileId(i % 97),
                    user_id: fstrace::UserId((i % 11) as u32),
                    mode: AccessMode::ReadOnly,
                    size: (i % 7) * 1024,
                    created: false,
                },
            ));
            out.push(TraceRecord::new(
                t + 20,
                TraceEvent::Close {
                    open_id: fstrace::OpenId(i),
                    final_pos: (i % 7) * 1024,
                },
            ));
        }
        out
    }

    fn write_archive(records: &[TraceRecord], opts: ArchiveOptions) -> Vec<u8> {
        let mut w = ArchiveWriter::new(Vec::new(), opts).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap().0
    }

    fn tiny_chunks() -> ArchiveOptions {
        ArchiveOptions {
            chunk_target_bytes: 512,
            name: "test".into(),
            ..ArchiveOptions::default()
        }
    }

    #[test]
    fn roundtrip_with_many_chunks() {
        let records = sample_records(1000);
        let bytes = write_archive(&records, tiny_chunks());
        let archive = Archive::from_bytes(bytes).unwrap();
        assert!(
            archive.chunks().len() > 5,
            "{} chunks",
            archive.chunks().len()
        );
        assert_eq!(archive.meta().name, "test");
        assert_eq!(archive.meta().total_records, 2000);
        assert_eq!(archive.meta().max_open, 999);
        assert_eq!(archive.meta().max_file, 96);
        assert_eq!(archive.meta().max_user, 10);
        let (got, report) = archive.read_all();
        assert!(report.is_clean());
        assert_eq!(got, records);
    }

    #[test]
    fn empty_archive_roundtrips() {
        let bytes = write_archive(&[], ArchiveOptions::default());
        let archive = Archive::from_bytes(bytes).unwrap();
        assert_eq!(archive.chunks().len(), 0);
        let (got, report) = archive.read_all();
        assert!(got.is_empty() && report.is_clean());
    }

    #[test]
    fn uncompressed_mode_roundtrips() {
        let records = sample_records(500);
        let bytes = write_archive(
            &records,
            ArchiveOptions {
                compress: false,
                ..tiny_chunks()
            },
        );
        let archive = Archive::from_bytes(bytes).unwrap();
        assert!(archive.chunks().iter().all(|c| !c.compressed));
        assert_eq!(archive.read_all().0, records);
    }

    #[test]
    fn sequential_iterator_is_a_record_source() {
        let records = sample_records(200);
        let bytes = write_archive(&records, tiny_chunks());
        let archive = Archive::from_bytes(bytes).unwrap();
        let got: Result<Vec<_>, _> = archive.records(Corruption::Fail).collect();
        assert_eq!(got.unwrap(), records);
    }

    #[test]
    fn parallel_decode_matches_sequential() {
        let records = sample_records(800);
        let bytes = write_archive(&records, tiny_chunks());
        let archive = std::sync::Arc::new(Archive::from_bytes(bytes).unwrap());
        for jobs in [1, 2, 3, 8] {
            let mut blocks = std::sync::Arc::clone(&archive).pipelined(Corruption::Skip, jobs);
            let mut got = Vec::new();
            for block in &mut blocks {
                block.unwrap().append_to(&mut got);
            }
            assert!(blocks.report().is_clean());
            assert_eq!(got, records, "jobs={jobs}");
        }
    }

    #[test]
    fn time_range_seek_selects_chunks() {
        let records = sample_records(1000);
        let bytes = write_archive(&records, tiny_chunks());
        let archive = Archive::from_bytes(bytes).unwrap();
        let mid = records[records.len() / 2].time.as_ticks();
        let got: Vec<_> = archive
            .records_in_ticks(mid, u64::MAX, Corruption::Fail)
            .map(|r| r.unwrap())
            .collect();
        // Chunk-granular: everything from `mid` on must be present,
        // preceded by at most one chunk's worth of earlier records.
        assert!(!got.is_empty());
        let wanted: Vec<_> = records
            .iter()
            .filter(|r| r.time.as_ticks() >= mid)
            .copied()
            .collect();
        assert!(got.len() >= wanted.len());
        assert_eq!(&got[got.len() - wanted.len()..], &wanted[..]);
        // And the early chunks were genuinely excluded.
        assert!(got.len() < records.len());
    }

    #[test]
    fn corrupt_chunk_skips_exactly_that_chunk() {
        let records = sample_records(1000);
        let mut bytes = write_archive(&records, tiny_chunks());
        let archive = Archive::from_bytes(bytes.clone()).unwrap();
        let chunks = archive.chunks().to_vec();
        assert!(chunks.len() >= 3);
        let victim = &chunks[1];
        // Flip a payload byte in the middle of chunk 1.
        let at = victim.offset as usize + format::CHUNK_HEADER_LEN + victim.stored_len as usize / 2;
        bytes[at] ^= 0xFF;
        let damaged = Archive::from_bytes(bytes).unwrap();

        // Skip mode: all other chunks' records survive, loss itemized.
        let (got, report) = damaged.read_all();
        assert_eq!(report.chunks_skipped(), 1);
        assert_eq!(report.records_lost(), victim.records as u64);
        assert_eq!(report.bad_chunks[0].index, 1);
        assert_eq!(report.bad_chunks[0].offset, victim.offset);
        assert_eq!(got.len(), records.len() - victim.records as usize);
        let expected: Vec<_> = (0..chunks.len())
            .filter(|&i| i != 1)
            .flat_map(|i| {
                let before: usize = chunks[..i].iter().map(|c| c.records as usize).sum();
                records[before..before + chunks[i].records as usize].to_vec()
            })
            .collect();
        assert_eq!(got, expected);

        // Fail mode: the first bad chunk is an error naming the spot.
        let mut it = damaged.records(Corruption::Fail);
        let mut seen = 0usize;
        let err = loop {
            match it.next() {
                Some(Ok(_)) => seen += 1,
                Some(Err(e)) => break e,
                None => panic!("iterator ended without surfacing the corruption"),
            }
        };
        assert_eq!(seen, chunks[0].records as usize);
        match err {
            fstrace::codec::DecodeError::CorruptChunk { index, offset } => {
                assert_eq!(index, 1);
                assert_eq!(offset, victim.offset);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(it.next().is_none(), "fail-mode iterator must fuse");
    }

    #[test]
    fn corrupt_footer_recovers_by_scanning() {
        let records = sample_records(600);
        let mut bytes = write_archive(&records, tiny_chunks());
        let n = bytes.len();
        // Smash the trailer magic.
        bytes[n - 2] = b'X';
        let archive = Archive::from_bytes(bytes).unwrap();
        assert!(archive.footer_rebuilt());
        assert_eq!(archive.meta().total_records, 1200);
        let (got, report) = archive.read_all();
        assert!(report.footer_rebuilt && report.bad_chunks.is_empty());
        assert_eq!(got, records);
    }

    /// `bytes` with its footer replaced by a well-formed, CRC-valid
    /// one whose metadata claims `total_records`.
    fn forge_total(bytes: &[u8], total_records: u64) -> Vec<u8> {
        let archive = Archive::from_bytes(bytes.to_vec()).unwrap();
        let data_end = archive
            .chunks()
            .last()
            .map_or(format::HEADER_LEN as u64, |c| c.offset + c.frame_len());
        let meta = ArchiveMeta {
            total_records,
            ..archive.meta().clone()
        };
        let body = format::encode_footer(&meta, archive.chunks());
        let mut out = bytes[..data_end as usize].to_vec();
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32::crc32(&body).to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&format::FOOTER_MAGIC);
        out
    }

    #[test]
    fn forged_record_total_rebuilds_the_index() {
        let records = sample_records(50);
        let bytes = write_archive(&records, tiny_chunks());
        // The forgery helper reproduces an honest footer byte for byte.
        assert_eq!(forge_total(&bytes, 100), bytes);
        for forged in [1u64 << 62, 1 << 36] {
            let archive = Archive::from_bytes(forge_total(&bytes, forged)).unwrap();
            assert!(archive.footer_rebuilt(), "total {forged}");
            assert_eq!(archive.meta().total_records, 100);
            let (got, report) = archive.read_all();
            assert!(report.footer_rebuilt && report.bad_chunks.is_empty());
            assert_eq!(got, records);
        }
    }

    #[test]
    fn truncated_file_recovers_intact_prefix() {
        let records = sample_records(600);
        let bytes = write_archive(&records, tiny_chunks());
        let archive = Archive::from_bytes(bytes.clone()).unwrap();
        let chunks = archive.chunks().to_vec();
        assert!(chunks.len() >= 3);
        // Cut mid-way through the last chunk: the writer died.
        let cut = chunks[chunks.len() - 1].offset as usize + format::CHUNK_HEADER_LEN + 1;
        let archive = Archive::from_bytes(bytes[..cut].to_vec()).unwrap();
        assert!(archive.footer_rebuilt());
        assert_eq!(archive.chunks().len(), chunks.len() - 1);
        let (got, report) = archive.read_all();
        assert!(report.bad_chunks.is_empty());
        let survivors: usize = chunks[..chunks.len() - 1]
            .iter()
            .map(|c| c.records as usize)
            .sum();
        assert_eq!(got, &records[..survivors]);
    }

    #[test]
    fn scan_resyncs_past_a_damaged_chunk() {
        let records = sample_records(800);
        let mut bytes = write_archive(&records, tiny_chunks());
        let archive = Archive::from_bytes(bytes.clone()).unwrap();
        let chunks = archive.chunks().to_vec();
        assert!(chunks.len() >= 4);
        // Destroy chunk 1's *header magic* AND the footer: the reader
        // must resync at chunk 2's magic with no index to guide it.
        let victim = &chunks[1];
        bytes[victim.offset as usize] = 0;
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        let damaged = Archive::from_bytes(bytes).unwrap();
        assert!(damaged.footer_rebuilt());
        assert_eq!(damaged.chunks().len(), chunks.len() - 1);
        let (got, _) = damaged.read_all();
        assert_eq!(got.len(), records.len() - victim.records as usize);
    }

    #[test]
    fn not_an_archive_is_rejected() {
        assert!(Archive::from_bytes(b"FSTR\x01\x00junk".to_vec()).is_err());
        assert!(Archive::from_bytes(Vec::new()).is_err());
        assert!(Archive::from_bytes(b"FSTA\x09\x00".to_vec()).is_err());
    }
}
