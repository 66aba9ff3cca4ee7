//! Every read ≡ [`Archive::blocks`]: the overlapped decode pipeline,
//! the record iterator, and `read_all` must all observe exactly what
//! the inline block reader does — same records, same order, same
//! recovery report, the same `Fail`-mode error at the same chunk, and
//! the same fuse after it — for any worker count, in both corruption
//! modes, on clean, damaged, and truncated archives. Workers change
//! *when* chunks decode, never *what* the consumer observes.

use std::sync::Arc;

use proptest::prelude::*;

use fstrace::codec::DecodeError;
use fstrace::{
    AccessMode, FileId, FillBlock, OpenId, RecordBlock, TraceEvent, TraceRecord, UserId,
};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption, RecoveryReport};

fn write_archive(records: &[TraceRecord], chunk_target_bytes: usize, compress: bool) -> Vec<u8> {
    let mut w = ArchiveWriter::new(
        Vec::new(),
        ArchiveOptions {
            chunk_target_bytes,
            compress,
            name: "pipe".into(),
        },
    )
    .expect("header write");
    for r in records {
        w.write(r).expect("record write");
    }
    w.finish().expect("finish").0
}

fn sample_records(n: u64) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for i in 0..n {
        let t = i * 30;
        out.push(TraceRecord::new(
            t,
            TraceEvent::Open {
                open_id: OpenId(i),
                file_id: FileId(i % 97),
                user_id: UserId((i % 11) as u32),
                mode: AccessMode::ReadOnly,
                size: (i % 7) * 1024,
                created: false,
            },
        ));
        out.push(TraceRecord::new(
            t + 20,
            TraceEvent::Close {
                open_id: OpenId(i),
                final_pos: (i % 7) * 1024,
            },
        ));
    }
    out
}

/// What one read pass observed: the records, the final report, and
/// the (chunk index, offset) of every error it yielded.
type Drained = (Vec<TraceRecord>, RecoveryReport, Vec<(u64, u64)>);

fn corrupt_chunk(e: DecodeError) -> (u64, u64) {
    match e {
        DecodeError::CorruptChunk { index, offset } => (index, offset),
        other => panic!("unexpected error: {other}"),
    }
}

/// Drains a block source, then checks it stays fused.
fn drain_blocks(mut blocks: tracestore::ArchiveBlocks) -> Drained {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for item in &mut blocks {
        match item {
            Ok(b) => b.append_to(&mut records),
            Err(e) => errors.push(corrupt_chunk(e)),
        }
    }
    assert!(blocks.next().is_none(), "an ended block source must fuse");
    (records, blocks.report().clone(), errors)
}

/// Drains the inline block reader.
fn drain_sequential(archive: &Archive, mode: Corruption) -> Drained {
    drain_blocks(archive.blocks(mode))
}

/// Drains the pipeline the same way.
fn drain_pipelined(archive: &Arc<Archive>, mode: Corruption, workers: usize) -> Drained {
    drain_blocks(Arc::clone(archive).pipelined(mode, workers))
}

/// Drains the record iterator the same way.
fn drain_records(archive: &Archive, mode: Corruption) -> Drained {
    let mut it = archive.records(mode);
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for item in &mut it {
        match item {
            Ok(r) => records.push(r),
            Err(e) => errors.push(corrupt_chunk(e)),
        }
    }
    assert!(it.next().is_none(), "an ended record iterator must fuse");
    (records, it.report().clone(), errors)
}

/// Asserts every read path ≡ the inline block reader: the pipeline for
/// `workers`, the record iterator, and (in `Skip` mode, its only mode)
/// `read_all`.
fn assert_reads_match(archive: &Arc<Archive>, mode: Corruption, workers: &[usize]) {
    let want = drain_sequential(archive, mode);
    if mode == Corruption::Fail {
        assert!(want.2.len() <= 1, "Fail mode yields at most one error");
    } else {
        assert!(want.2.is_empty(), "Skip mode yields no errors");
    }
    for &w in workers {
        assert_eq!(
            drain_pipelined(archive, mode, w),
            want,
            "pipelined, workers={w}"
        );
    }
    assert_eq!(drain_records(archive, mode), want, "records({mode:?})");
    if mode == Corruption::Skip {
        let (records, report) = archive.read_all();
        assert_eq!((records, report, Vec::new()), want, "read_all");
    }
}

/// Asserts every read path ≡ the inline block reader for every worker
/// count under test.
fn assert_identical(bytes: Vec<u8>, mode: Corruption) {
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    assert_reads_match(&archive, mode, &[1, 2, 8]);
}

#[test]
fn clean_archive_identical_across_worker_counts() {
    let records = sample_records(1500);
    let bytes = write_archive(&records, 512, true);
    assert_identical(bytes.clone(), Corruption::Skip);
    assert_identical(bytes, Corruption::Fail);
}

#[test]
fn fail_mode_surfaces_the_same_error_and_fuses() {
    let records = sample_records(1000);
    let mut bytes = write_archive(&records, 512, true);
    let clean = Archive::from_bytes(bytes.clone()).expect("open");
    let chunks = clean.chunks().to_vec();
    assert!(chunks.len() >= 3);
    let victim = &chunks[1];
    bytes[victim.offset as usize + tracestore::format::CHUNK_HEADER_LEN + 2] ^= 0xFF;

    let archive = Arc::new(Archive::from_bytes(bytes.clone()).expect("open damaged"));
    assert_identical(bytes.clone(), Corruption::Fail);
    assert_identical(bytes, Corruption::Skip);
    for workers in [1usize, 2, 8] {
        let mut pipe = Arc::clone(&archive).pipelined(Corruption::Fail, workers);
        let mut seen = 0usize;
        let err = loop {
            match pipe.next() {
                Some(Ok(b)) => seen += b.len(),
                Some(Err(e)) => break e,
                None => panic!("pipeline ended without surfacing corruption"),
            }
        };
        assert_eq!(seen, chunks[0].records as usize, "workers={workers}");
        assert_eq!(corrupt_chunk(err), (1, victim.offset));
        assert!(pipe.next().is_none(), "fail-mode pipeline must fuse");
        assert_eq!(pipe.report().chunks_skipped(), 1);
    }
}

#[test]
fn truncated_footer_archive_identical() {
    // Cut mid-way through the last chunk: the footer is gone and the
    // index is rebuilt by scanning; the pipeline must match the
    // sequential reader over the rebuilt index too.
    let records = sample_records(800);
    let bytes = write_archive(&records, 512, true);
    let clean = Archive::from_bytes(bytes.clone()).expect("open");
    let chunks = clean.chunks().to_vec();
    assert!(chunks.len() >= 3);
    let cut = chunks[chunks.len() - 1].offset as usize + tracestore::format::CHUNK_HEADER_LEN + 1;
    assert_identical(bytes[..cut].to_vec(), Corruption::Skip);
    assert_identical(bytes[..cut].to_vec(), Corruption::Fail);
}

#[test]
fn fill_block_path_recycles_and_matches() {
    // The allocation-free FillBlock path must yield the same record
    // stream as iterating owned blocks.
    let records = sample_records(1200);
    let bytes = write_archive(&records, 512, true);
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    for workers in [1usize, 2, 8] {
        let mut pipe = Arc::clone(&archive).pipelined(Corruption::Skip, workers);
        let mut block = RecordBlock::new();
        let mut got = Vec::new();
        while pipe.fill_next(&mut block) {
            block.append_to(&mut got);
        }
        assert_eq!(got, records, "workers={workers}");
        assert!(pipe.report().is_clean());
    }
}

#[test]
fn empty_archive_yields_nothing() {
    let bytes = write_archive(&[], ArchiveOptions::default().chunk_target_bytes, true);
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    let mut pipe = Arc::clone(&archive).pipelined(Corruption::Fail, 4);
    assert!(pipe.next().is_none());
    assert!(pipe.report().is_clean());
}

#[test]
fn dropping_mid_stream_shuts_down_cleanly() {
    // Take a few blocks, then drop the pipeline with chunks still in
    // flight: Drop must unblock and join every worker (a hang here
    // fails the test by timeout).
    let records = sample_records(2000);
    let bytes = write_archive(&records, 512, true);
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    for workers in [1usize, 2, 8] {
        let mut pipe = Arc::clone(&archive).pipelined(Corruption::Skip, workers);
        let _ = pipe.next();
        let _ = pipe.next();
        drop(pipe);
    }
}

#[test]
fn records_in_ticks_matches_filtered_read_all() {
    // Damage chunk 2, then seek windows before, across, and after it:
    // in Skip mode the seek must return exactly read_all's survivors
    // inside the window, plus the rest of the chunks they came from.
    let records = sample_records(1500);
    let mut bytes = write_archive(&records, 512, true);
    let clean = Archive::from_bytes(bytes.clone()).expect("open");
    let chunks = clean.chunks().to_vec();
    assert!(chunks.len() >= 6);
    bytes[chunks[2].offset as usize + tracestore::format::CHUNK_HEADER_LEN + 3] ^= 0x55;
    let archive = Archive::from_bytes(bytes).expect("open damaged");
    let (all, _) = archive.read_all();
    let last = records.last().expect("records").time.as_ticks();
    for (lo, hi) in [
        (0, last / 4),
        (last / 8, last / 2),
        (last / 3, last),
        (0, u64::MAX),
    ] {
        let inside = |r: &TraceRecord| (lo..=hi).contains(&r.time.as_ticks());
        let got: Vec<TraceRecord> = archive
            .records_in_ticks(lo, hi, Corruption::Skip)
            .map(|r| r.expect("skip mode yields no errors"))
            .collect();
        let want: Vec<TraceRecord> = all.iter().copied().filter(inside).collect();
        let got_inside: Vec<TraceRecord> = got.iter().copied().filter(inside).collect();
        assert_eq!(got_inside, want, "window {lo}..={hi}");
        // Chunk granularity: exactly the surviving chunks whose time
        // range meets the window, whole.
        let mut selected = Vec::new();
        let mut at = 0;
        for (i, c) in chunks.iter().enumerate() {
            let n = c.records as usize;
            if i != 2 && c.overlaps_ticks(lo, hi) {
                selected.extend_from_slice(&records[at..at + n]);
            }
            at += n;
        }
        assert_eq!(got, selected, "window {lo}..={hi}");
    }
}

proptest! {
    /// Every read path ≡ the inline block reader for arbitrary
    /// streams, chunk sizes, compression settings, worker counts,
    /// corruption modes, mid-chunk corruption, and truncation.
    #[test]
    fn pipelined_matches_sequential(
        records in prop::collection::vec((0u64..100_000u64, 0u64..500u64), 0..400)
            .prop_map(|mut pairs| {
                pairs.sort_by_key(|(t, _)| *t);
                pairs.into_iter().map(|(t, o)| {
                    TraceRecord::new(t, TraceEvent::Close {
                        open_id: OpenId(o),
                        final_pos: o * 512,
                    })
                }).collect::<Vec<_>>()
            }),
        chunk_kib in 0usize..3,
        compress in any::<bool>(),
        corrupt in any::<bool>(),
        victim_seed in any::<u64>(),
        byte_seed in any::<u64>(),
        flip in 1u8..=255,
        workers in 1usize..9,
        fail in any::<bool>(),
        cut_seed in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let chunk = 256 << chunk_kib;
        let mut bytes = write_archive(&records, chunk, compress);
        let clean = Archive::from_bytes(bytes.clone()).expect("open");
        if corrupt && !clean.chunks().is_empty() {
            let chunks = clean.chunks();
            let info = chunks[(victim_seed % chunks.len() as u64) as usize];
            let at = info.offset + byte_seed % info.frame_len();
            bytes[at as usize] ^= flip;
        }
        if truncate {
            // Keep the 6-byte file header so the archive still opens.
            let keep = 6 + (cut_seed % (bytes.len() as u64 - 5)) as usize;
            bytes.truncate(keep);
        }
        let mode = if fail { Corruption::Fail } else { Corruption::Skip };
        let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
        assert_reads_match(&archive, mode, &[workers]);
    }
}
