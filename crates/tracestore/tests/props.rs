//! Property-based tests for the archive format.
//!
//! The two properties the format stakes its claims on:
//!
//! 1. **Round-trip**: any record stream written through
//!    [`ArchiveWriter`] and read back through [`Archive`] is
//!    bit-identical, across chunk sizes and with or without
//!    compression.
//! 2. **Damage isolation**: corrupting any single byte of any single
//!    chunk loses *at most that chunk* — every other chunk's records
//!    survive verbatim, the skip is counted exactly once, and the
//!    report names the damaged chunk.

use proptest::prelude::*;

use std::sync::Arc;

use fstrace::{AccessMode, FileId, OpenId, TraceEvent, TraceRecord, UserId};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption, RecoveryReport};

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::ReadOnly),
        Just(AccessMode::WriteOnly),
        Just(AccessMode::ReadWrite),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            0u64..1000,
            0u64..1000,
            0u32..64,
            arb_mode(),
            0u64..10_000_000,
            any::<bool>()
        )
            .prop_map(|(o, f, u, mode, size, created)| TraceEvent::Open {
                open_id: OpenId(o),
                file_id: FileId(f),
                user_id: UserId(u),
                mode,
                size,
                created,
            }),
        (0u64..1000, 0u64..10_000_000).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..1000, 0u64..10_000_000, 0u64..10_000_000).prop_map(|(o, a, b)| {
            TraceEvent::Seek {
                open_id: OpenId(o),
                old_pos: a,
                new_pos: b,
            }
        }),
        (0u64..1000, 0u32..64).prop_map(|(f, u)| TraceEvent::Unlink {
            file_id: FileId(f),
            user_id: UserId(u),
        }),
        (0u64..1000, 0u64..10_000_000, 0u32..64).prop_map(|(f, l, u)| TraceEvent::Truncate {
            file_id: FileId(f),
            new_len: l,
            user_id: UserId(u),
        }),
        (0u64..1000, 0u32..64, 0u64..10_000_000).prop_map(|(f, u, s)| TraceEvent::Execve {
            file_id: FileId(f),
            user_id: UserId(u),
            size: s,
        }),
    ]
}

/// A time-ordered record stream: the writer's delta encoding requires
/// non-decreasing timestamps, as every producer in the workspace
/// guarantees.
fn arb_records(max: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec((0u64..200_000u64, arb_event()), 0..max).prop_map(|mut pairs| {
        pairs.sort_by_key(|(t, _)| *t);
        pairs
            .into_iter()
            .map(|(t, e)| TraceRecord::new(t, e))
            .collect()
    })
}

/// Golden decode of one TSCK chunk: a fixed record set, one chunk, and
/// the exact column vectors the batched decoder must produce. A change
/// to the `RecordBlock` layout (field order, padding, tick resolution)
/// fails here first — making layout changes deliberate, not accidental.
#[test]
fn golden_chunk_decodes_to_known_columns() {
    let records = vec![
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
            TraceEvent::Open {
                open_id: OpenId(2),
                file_id: FileId(11),
                user_id: UserId(6),
                mode: AccessMode::WriteOnly,
                size: 0,
                created: true,
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
            300,
            TraceEvent::Truncate {
                file_id: FileId(12),
                new_len: 100,
                user_id: UserId(6),
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
    ];
    let bytes = write_archive(&records, 1 << 20, false);
    let archive = Archive::from_bytes(bytes).expect("open");
    assert_eq!(archive.chunks().len(), 1, "golden set fits one chunk");
    let block = archive
        .blocks(Corruption::Fail)
        .next()
        .expect("one chunk")
        .expect("golden chunk decodes");

    // Timestamps: absolute 10 ms ticks, delta chain resolved.
    assert_eq!(block.ticks(), &[0, 5, 12, 20, 21, 30, 100]);
    // Op codes: the wire tags (open=1, create=2, close=3, seek=4,
    // unlink=5, truncate=6, execve=7).
    assert_eq!(block.tags(), &[1, 4, 3, 2, 5, 6, 7]);
    // Payload columns: wire-order varints, zero-padded to stride 5.
    let golden_fields: [[u64; 5]; 7] = [
        [1, 10, 5, 0, 4096],   // open: open_id file_id user mode size
        [1, 1024, 2048, 0, 0], // seek: open_id old_pos new_pos
        [1, 4096, 0, 0, 0],    // close: open_id final_pos
        [2, 11, 6, 1, 0],      // create: mode=write-only(1), size 0
        [11, 5, 0, 0, 0],      // unlink: file_id user
        [12, 100, 6, 0, 0],    // truncate: file_id new_len user
        [20, 5, 90_000, 0, 0], // execve: file_id user size
    ];
    for (i, want) in golden_fields.iter().enumerate() {
        assert_eq!(block.fields(i), want, "record {i}");
    }
    // End offsets partition the chunk payload exactly.
    let raw_len = archive.chunks()[0].raw_len as usize;
    assert_eq!(block.end_offset(block.len() - 1), raw_len);
    // And the materialized records round-trip the input.
    assert_eq!(block.to_records(), records);
}

fn write_archive(records: &[TraceRecord], chunk_target_bytes: usize, compress: bool) -> Vec<u8> {
    let mut w = ArchiveWriter::new(
        Vec::new(),
        ArchiveOptions {
            chunk_target_bytes,
            compress,
            name: "prop".into(),
        },
    )
    .expect("header write");
    for r in records {
        w.write(r).expect("record write");
    }
    w.finish().expect("finish").0
}

/// Drains `archive` through a `jobs`-worker pipeline in Skip mode.
fn drain_pipelined(archive: &Archive, jobs: usize) -> (Vec<TraceRecord>, RecoveryReport) {
    let mut blocks = Arc::new(archive.clone()).pipelined(Corruption::Skip, jobs);
    let mut records = Vec::new();
    for block in &mut blocks {
        block
            .expect("skip mode yields no errors")
            .append_to(&mut records);
    }
    (records, blocks.report().clone())
}

proptest! {
    /// Write → read is bit-identical for arbitrary streams, any chunk
    /// size, compressed or not — sequentially and in parallel.
    #[test]
    fn roundtrip_is_bit_identical(
        records in arb_records(300),
        chunk_kib in 0usize..4,
        compress in any::<bool>(),
        jobs in 1usize..5,
    ) {
        // 256 B .. 2 KiB chunks: small enough that most cases span
        // several chunks.
        let chunk = 256 << chunk_kib;
        let bytes = write_archive(&records, chunk, compress);
        let archive = Archive::from_bytes(bytes).expect("open");
        prop_assert_eq!(archive.meta().total_records, records.len() as u64);
        let (seq, report) = archive.read_all();
        prop_assert!(report.is_clean());
        prop_assert_eq!(&seq, &records);
        let (par, report) = drain_pipelined(&archive, jobs);
        prop_assert!(report.is_clean());
        prop_assert_eq!(&par, &records);
    }

    /// Corrupting a single byte of any one chunk loses only that
    /// chunk: all other records survive, and the loss is reported as
    /// exactly one skipped chunk with the right index and offset.
    #[test]
    fn single_chunk_corruption_loses_only_that_chunk(
        records in arb_records(300),
        chunk_kib in 0usize..3,
        compress in any::<bool>(),
        victim_seed in any::<u64>(),
        byte_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let chunk = 256 << chunk_kib;
        let mut bytes = write_archive(&records, chunk, compress);
        let clean = Archive::from_bytes(bytes.clone()).expect("open");
        let chunks = clean.chunks().to_vec();
        if chunks.is_empty() {
            continue; // Nothing to corrupt; the stand-in proptest runs cases in a loop.
        }

        let victim = (victim_seed % chunks.len() as u64) as usize;
        let info = chunks[victim];
        // Flip one byte anywhere in the frame — header or payload.
        let at = info.offset + byte_seed % info.frame_len();
        bytes[at as usize] ^= flip;

        let damaged = Archive::from_bytes(bytes).expect("open damaged");
        let (got, report) = damaged.read_all();
        prop_assert_eq!(report.chunks_skipped(), 1, "exactly one chunk lost");
        prop_assert_eq!(report.bad_chunks[0].index, victim as u64);
        prop_assert_eq!(report.bad_chunks[0].offset, info.offset);
        prop_assert_eq!(report.bad_chunks[0].records_lost, info.records as u64);

        // Everyone else survives verbatim.
        let mut expected = Vec::new();
        let mut at_rec = 0usize;
        for (i, c) in chunks.iter().enumerate() {
            let n = c.records as usize;
            if i != victim {
                expected.extend_from_slice(&records[at_rec..at_rec + n]);
            }
            at_rec += n;
        }
        prop_assert_eq!(&got, &expected);

        // The pipelined decoder reaches the same verdict.
        let (par, preport) = drain_pipelined(&damaged, 3);
        prop_assert_eq!(&par, &expected);
        prop_assert_eq!(preport.chunks_skipped(), 1);
    }

    /// Batched ≡ scalar over whole archives: the columnar chunk decoder
    /// and the record-at-a-time oracle produce identical records and
    /// identical loss reports, for compressed and passthrough chunks,
    /// on clean and damaged files alike.
    #[test]
    fn batched_archive_decode_matches_scalar_oracle(
        records in arb_records(300),
        chunk_kib in 0usize..3,
        compress in any::<bool>(),
        corrupt in any::<bool>(),
        victim_seed in any::<u64>(),
        byte_seed in any::<u64>(),
        flip in 1u8..=255,
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
        let archive = Archive::from_bytes(bytes).expect("open");
        let (scalar, scalar_report) = archive.read_all_scalar();
        let (batched, batched_report) = archive.read_all();
        prop_assert_eq!(&batched, &scalar);
        prop_assert_eq!(batched_report, scalar_report);
        // The streaming record iterator agrees too, record for record.
        let via_records: Vec<TraceRecord> = archive
            .records(Corruption::Skip)
            .map(|r| r.expect("skip mode yields no errors"))
            .collect();
        prop_assert_eq!(&via_records, &scalar);
    }

    /// Destroying the footer demotes the open to a scan that still
    /// recovers every record.
    #[test]
    fn footer_corruption_recovers_all_records(
        records in arb_records(200),
        byte_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bytes = write_archive(&records, 512, true);
        let clean = Archive::from_bytes(bytes.clone()).expect("open");
        let data_end = clean
            .chunks()
            .last()
            .map(|c| (c.offset + c.frame_len()) as usize)
            .unwrap_or(6);
        let footer_len = bytes.len() - data_end;
        let mut bytes = bytes;
        let at = data_end + (byte_seed % footer_len as u64) as usize;
        bytes[at] ^= flip;

        let damaged = Archive::from_bytes(bytes).expect("open damaged");
        let (got, report) = damaged.read_all();
        // Either the flip missed something load-bearing (footer still
        // verifies) or the scan rebuilt the index; records survive
        // regardless.
        prop_assert!(report.bad_chunks.is_empty());
        prop_assert_eq!(report.footer_rebuilt, damaged.footer_rebuilt());
        prop_assert_eq!(&got, &records);
    }
}
