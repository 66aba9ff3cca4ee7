//! The `tracestore.*_read` counters count what each read pass actually
//! delivered, whichever entry point ran it, and are published once when
//! the pass ends. A test binary of its own: the obs registry is
//! process-global, so no other test may read archives alongside it.

use std::sync::Arc;

use fstrace::{OpenId, TraceEvent, TraceRecord};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, ChunkInfo, Corruption};

const COUNTERS: [&str; 4] = [
    "tracestore.chunks_read",
    "tracestore.records_read",
    "tracestore.bytes_read",
    "tracestore.chunks_skipped_corrupt",
];

fn counters() -> [u64; 4] {
    let snap = obs::global().snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

/// Counter deltas since `before`.
fn since(before: [u64; 4]) -> [u64; 4] {
    let now = counters();
    [0, 1, 2, 3].map(|i| now[i] - before[i])
}

/// Counter deltas over one pass.
fn delta(pass: impl FnOnce()) -> [u64; 4] {
    let before = counters();
    pass();
    since(before)
}

/// What delivering exactly `chunks` adds, with `skipped` damaged ones.
fn expect(chunks: &[&ChunkInfo], skipped: u64) -> [u64; 4] {
    [
        chunks.len() as u64,
        chunks.iter().map(|c| c.records as u64).sum(),
        chunks.iter().map(|c| c.frame_len()).sum(),
        skipped,
    ]
}

fn archive_bytes() -> (Vec<TraceRecord>, Vec<u8>) {
    let records: Vec<TraceRecord> = (0..1200u64)
        .map(|i| {
            TraceRecord::new(
                i * 25,
                TraceEvent::Close {
                    open_id: OpenId(i % 300),
                    final_pos: (i % 13) * 512,
                },
            )
        })
        .collect();
    let mut w = ArchiveWriter::new(
        Vec::new(),
        ArchiveOptions {
            chunk_target_bytes: 512,
            name: "counters".into(),
            ..ArchiveOptions::default()
        },
    )
    .expect("header write");
    for r in &records {
        w.write(r).expect("record write");
    }
    (records, w.finish().expect("finish").0)
}

#[test]
fn every_read_pass_publishes_what_it_delivered() {
    let (records, bytes) = archive_bytes();
    let archive = Arc::new(Archive::from_bytes(bytes.clone()).expect("open"));
    let chunks: Vec<&ChunkInfo> = archive.chunks().iter().collect();
    assert!(chunks.len() >= 6, "{} chunks", chunks.len());
    let whole = expect(&chunks, 0);
    assert_eq!(whole[1], records.len() as u64);

    let got = delta(|| {
        for r in archive.records(Corruption::Fail) {
            r.expect("clean archive");
        }
    });
    assert_eq!(got, whole, "records");

    let (lo, hi) = (records[300].time.as_ticks(), records[700].time.as_ticks());
    let part: Vec<&ChunkInfo> = chunks
        .iter()
        .copied()
        .filter(|c| c.overlaps_ticks(lo, hi))
        .collect();
    assert!(!part.is_empty() && part.len() < chunks.len());
    let got = delta(|| {
        for r in archive.records_in_ticks(lo, hi, Corruption::Fail) {
            r.expect("clean archive");
        }
    });
    assert_eq!(got, expect(&part, 0), "records_in_ticks");

    // Published when the pass ends, not when the source is dropped.
    let before = counters();
    let mut blocks = archive.blocks(Corruption::Fail);
    for b in &mut blocks {
        b.expect("clean archive");
    }
    assert_eq!(since(before), whole, "blocks, at the end of the pass");
    drop(blocks);
    assert_eq!(since(before), whole, "blocks, once");

    let got = delta(|| {
        for b in Arc::clone(&archive).pipelined(Corruption::Fail, 2) {
            b.expect("clean archive");
        }
    });
    assert_eq!(got, whole, "pipelined");

    let got = delta(|| {
        let (all, report) = archive.read_all();
        assert!(report.is_clean() && all == records);
    });
    assert_eq!(got, whole, "read_all");

    // A damaged chunk counts as skipped, never as read; a Fail pass
    // counts what it delivered before the damage; an abandoned pass
    // counts what it delivered before it was dropped.
    let mut damaged = bytes;
    damaged[chunks[1].offset as usize + tracestore::format::CHUNK_HEADER_LEN + 1] ^= 0x40;
    let damaged = Arc::new(Archive::from_bytes(damaged).expect("open damaged"));
    let survivors: Vec<&ChunkInfo> = chunks
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, c)| *c)
        .collect();
    let got = delta(|| {
        damaged.read_all();
    });
    assert_eq!(got, expect(&survivors, 1), "read_all, damaged");
    let got = delta(|| {
        let mut it = damaged.records(Corruption::Fail);
        while let Some(Ok(_)) = it.next() {}
    });
    assert_eq!(got, expect(&chunks[..1], 1), "records(Fail), damaged");
    let got = delta(|| {
        let mut pipe = Arc::clone(&damaged).pipelined(Corruption::Skip, 2);
        pipe.next().expect("chunk 0").expect("intact");
        pipe.next().expect("chunk 2").expect("intact");
    });
    assert_eq!(
        got,
        expect(&[chunks[0], chunks[2]], 1),
        "pipelined, dropped"
    );
}
