//! Archive-fed sweeps must be bit-identical to in-memory sweeps.
//!
//! The `tracestore` archive is a storage format, not a semantic layer:
//! a sweep over records decoded from an archive — sequentially or
//! chunk-parallel, compressed or not — must produce exactly the
//! metrics of the same sweep over the original in-memory trace.

use std::sync::Arc;

use cachesim::{sweep, CacheConfig, RwHandling, WritePolicy};
use fstrace::{AccessMode, FileId, Trace, TraceBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption};

/// A seeded trace with enough volume to span several small chunks.
fn seeded_trace(seed: u64, opens: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TraceBuilder::new();
    let users: Vec<_> = (0..4).map(|_| b.new_user_id()).collect();
    let files: Vec<FileId> = (0..24).map(|_| b.new_file_id()).collect();
    let mut t = 0u64;
    for _ in 0..opens {
        t += rng.gen_range(10u64..2_000);
        let u = users[rng.gen_range(0..users.len())];
        let f = files[rng.gen_range(0..files.len())];
        match rng.gen_range(0u32..8) {
            0..=4 => {
                let size = rng.gen_range(1u64..120_000);
                let o = b.open(t, f, u, AccessMode::ReadOnly, size, false);
                if rng.gen_range(0u32..3) == 0 && size > 100 {
                    b.seek(t + 10, o, 0, rng.gen_range(0..size));
                }
                b.close(t + 100, o, size);
            }
            5..=6 => {
                let size = rng.gen_range(1u64..60_000);
                let o = b.open(t, f, u, AccessMode::WriteOnly, 0, true);
                b.close(t + 100, o, size);
            }
            _ => {
                let size = rng.gen_range(1_000u64..40_000);
                let o = b.open(t, f, u, AccessMode::ReadWrite, size, false);
                b.close(t + 100, o, size + 512);
            }
        }
    }
    b.finish()
}

fn archive_of(trace: &Trace, compress: bool) -> Archive {
    let mut w = ArchiveWriter::new(
        Vec::new(),
        ArchiveOptions {
            chunk_target_bytes: 2048,
            compress,
            name: "sweep-test".into(),
        },
    )
    .unwrap();
    for rec in trace.records() {
        w.write(rec).unwrap();
    }
    Archive::from_bytes(w.finish().unwrap().0).unwrap()
}

fn grid() -> Vec<CacheConfig> {
    [4 << 10, 64 << 10, 1 << 20]
        .into_iter()
        .flat_map(|cache_bytes| {
            [
                WritePolicy::WriteThrough,
                WritePolicy::FlushBack {
                    interval_ms: 30_000,
                },
            ]
            .into_iter()
            .map(move |write_policy| CacheConfig {
                cache_bytes,
                block_size: 4096,
                write_policy,
                rw_handling: RwHandling::Both,
                ..CacheConfig::default()
            })
        })
        .collect()
}

#[test]
fn archive_fed_sweep_matches_in_memory_sweep() {
    let trace = seeded_trace(0xA5, 600);
    let configs = grid();
    let baseline = sweep::run_source(trace.records(), &configs, 2);

    for compress in [false, true] {
        let archive = archive_of(&trace, compress);
        assert!(
            archive.chunks().len() > 2,
            "want a multi-chunk archive, got {}",
            archive.chunks().len()
        );
        for jobs in [1, 4] {
            let mut blocks = Arc::new(archive.clone()).pipelined(Corruption::Skip, jobs);
            let mut records = Vec::new();
            for block in &mut blocks {
                block
                    .expect("skip mode yields no errors")
                    .append_to(&mut records);
            }
            assert!(blocks.report().is_clean());
            let swept = sweep::run_source(records.iter(), &configs, jobs);
            assert_eq!(swept.len(), baseline.len());
            for ((ca, ma), (cb, mb)) in baseline.iter().zip(&swept) {
                assert_eq!(ca, cb);
                assert_eq!(ma, mb, "compress={compress} jobs={jobs} config={ca:?}");
            }
        }
    }
}

#[test]
fn sequential_archive_source_feeds_sweep_directly() {
    let trace = seeded_trace(0x7E, 400);
    let configs = grid();
    let baseline = sweep::run_source(trace.records(), &configs, 1);
    let archive = archive_of(&trace, true);
    // The archive's record iterator is itself a record source; unwrap is
    // safe because the archive was just written.
    let swept = sweep::run_source(
        archive
            .records(tracestore::Corruption::Fail)
            .map(|r| r.expect("fresh archive cannot be corrupt")),
        &configs,
        2,
    );
    for ((ca, ma), (cb, mb)) in baseline.iter().zip(&swept) {
        assert_eq!(ca, cb);
        assert_eq!(ma, mb);
    }
}
