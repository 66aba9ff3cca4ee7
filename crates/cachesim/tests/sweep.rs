//! Sweep-engine equivalence suite: parallel sweeps must be
//! bit-identical to per-config sequential simulation, at any thread
//! count, and sharing one expansion across a group must never change
//! the results.

use std::cell::Cell;

use cachesim::{
    sweep, CacheConfig, CacheMetrics, Fidelity, Replacement, RwHandling, Simulator, WritePolicy,
};
use fstrace::{AccessMode, FileId, RecordBlock, Trace, TraceBuilder};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A seeded pseudo-random trace with every event kind the replay
/// expands: reads, writes, read-write opens, seeks, creates, unlinks,
/// truncates, and execves.
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
        match rng.gen_range(0u32..10) {
            0..=4 => {
                // Sequential or seeky read.
                let size = rng.gen_range(1u64..120_000);
                let o = b.open(t, f, u, AccessMode::ReadOnly, size, false);
                if rng.gen_range(0u32..3) == 0 && size > 100 {
                    let pos = rng.gen_range(0..size);
                    b.seek(t + 10, o, 0, pos);
                }
                b.close(t + 100, o, size);
            }
            5..=6 => {
                // Whole-file (re)write.
                let size = rng.gen_range(1u64..60_000);
                let o = b.open(t, f, u, AccessMode::WriteOnly, 0, true);
                b.close(t + 100, o, size);
            }
            7 => {
                // Read-write open: expansion depends on RwHandling.
                let size = rng.gen_range(1_000u64..40_000);
                let o = b.open(t, f, u, AccessMode::ReadWrite, size, false);
                b.seek(t + 10, o, 0, rng.gen_range(0..size));
                b.close(t + 100, o, size + 512);
            }
            8 => {
                // Program execution: expansion depends on paging.
                b.execve(t, f, u, rng.gen_range(4_096u64..80_000));
            }
            _ => {
                if rng.gen_range(0u32..2) == 0 {
                    b.unlink(t, f, u);
                } else {
                    b.truncate(t, f, rng.gen_range(0u64..10_000), u);
                }
            }
        }
    }
    b.finish()
}

/// A 12-config grid spanning every expansion-relevant and
/// consumption-only option.
fn grid() -> Vec<CacheConfig> {
    let mut v = Vec::new();
    for policy in WritePolicy::TABLE_VI {
        for cache_kb in [128u64, 1024] {
            v.push(CacheConfig {
                cache_bytes: cache_kb * 1024,
                block_size: 4096,
                write_policy: policy,
                ..CacheConfig::default()
            });
        }
    }
    v.push(CacheConfig {
        block_size: 16 * 1024,
        ..CacheConfig::default()
    });
    v.push(CacheConfig {
        simulate_paging: true,
        ..CacheConfig::default()
    });
    v.push(CacheConfig {
        rw_handling: RwHandling::Read,
        ..CacheConfig::default()
    });
    v.push(CacheConfig {
        rw_handling: RwHandling::Both,
        ..CacheConfig::default()
    });
    v
}

/// Sweep results are bit-identical to a per-config sequential
/// `Simulator::run`, and identical across 1, 2, and 8 worker threads.
#[test]
fn sweep_equals_sequential_at_any_thread_count() {
    let trace = seeded_trace(0x5EED, 400);
    let configs = grid();
    assert!(configs.len() >= 8);
    let sequential: Vec<CacheMetrics> = configs.iter().map(|c| Simulator::run(&trace, c)).collect();
    for jobs in [1usize, 2, 8] {
        let swept = sweep::run_source(trace.records(), &configs, jobs);
        assert_eq!(swept.len(), configs.len());
        for (i, (c, m)) in swept.iter().enumerate() {
            assert_eq!(c, &configs[i], "jobs={jobs}: order must match input");
            assert_eq!(m, &sequential[i], "jobs={jobs}: config {i} diverged");
        }
    }
}

/// The Table VI grid shape (sizes x policies) on a second seed.
#[test]
fn table_vi_grid_is_exact() {
    let trace = seeded_trace(1985, 600);
    let configs: Vec<CacheConfig> = [390u64, 1024, 2048, 4096, 8192, 16_384]
        .iter()
        .flat_map(|&kb| {
            WritePolicy::TABLE_VI.into_iter().map(move |p| CacheConfig {
                cache_bytes: kb * 1024,
                write_policy: p,
                ..CacheConfig::default()
            })
        })
        .collect();
    let swept = sweep::run_source(trace.records(), &configs, 8);
    for (c, m) in &swept {
        assert_eq!(m, &Simulator::run(&trace, c));
    }
}

/// An iterator that counts the items it hands out.
struct Counting<'a, I> {
    inner: I,
    pulled: &'a Cell<usize>,
}

impl<I: Iterator> Iterator for Counting<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.pulled.set(self.pulled.get() + 1);
        Some(item)
    }
}

/// The trace's records as columnar blocks of at most `step` records.
fn blocks_of(trace: &Trace, step: usize) -> Vec<RecordBlock> {
    let mut buf = Vec::new();
    let mut prev = 0u64;
    for r in trace.records() {
        prev = fstrace::codec::encode_into(&mut buf, r, prev);
    }
    let mut blocks = Vec::new();
    let mut pos = 0;
    let mut ticks = 0u64;
    while pos < buf.len() {
        let mut b = RecordBlock::new();
        ticks = fstrace::block::decode_block(&buf, &mut pos, ticks, buf.len(), step, &mut b)
            .expect("well-formed");
        blocks.push(b);
    }
    blocks
}

/// Table VI's sizes × policies (4 KB blocks, LRU) at one fidelity.
fn table_vi(fidelity: Fidelity) -> Vec<CacheConfig> {
    [390u64, 1024, 2048, 4096, 8192, 16_384]
        .iter()
        .flat_map(|&kb| {
            WritePolicy::TABLE_VI.into_iter().map(move |p| CacheConfig {
                cache_bytes: kb * 1024,
                write_policy: p,
                fidelity,
                ..CacheConfig::default()
            })
        })
        .collect()
}

/// Every grid shape reads its source exactly once — record streams and
/// block sources alike — whether its expansion groups step one task
/// during the pass, buffer events for the pool, or mix the two.
#[test]
fn every_grid_reads_its_source_once() {
    let trace = seeded_trace(0xC0DE, 300);
    let lone_paging = CacheConfig {
        simulate_paging: true,
        ..CacheConfig::default()
    };
    // Figure 7: sizes with paging off and on (two one-task groups).
    let fig7: Vec<CacheConfig> = [1u64, 2, 4, 8, 16]
        .iter()
        .flat_map(|&mb| {
            [false, true].into_iter().map(move |paging| CacheConfig {
                cache_bytes: mb << 20,
                simulate_paging: paging,
                ..CacheConfig::default()
            })
        })
        .collect();
    // The three-fidelity Table VI grid (three one-task groups).
    let fidelities: Vec<CacheConfig> = Fidelity::ALL.into_iter().flat_map(table_vi).collect();
    // Table VI plus a lone paging cell (a profile and a direct cell,
    // each alone in its group).
    let mut with_paging = table_vi(Fidelity::Block);
    with_paging.push(lone_paging.clone());
    // Block sizes, a FIFO column and a lone paging cell: one buffered
    // group of several tasks next to a one-task group.
    let mut mixed: Vec<CacheConfig> = [1024u64, 4096, 16_384]
        .iter()
        .flat_map(|&bs| {
            [64u64, 256].into_iter().map(move |kb| CacheConfig {
                cache_bytes: kb * 1024,
                block_size: bs,
                ..CacheConfig::default()
            })
        })
        .collect();
    mixed.push(CacheConfig {
        replacement: Replacement::Fifo,
        ..CacheConfig::default()
    });
    mixed.push(lone_paging);

    let blocks = blocks_of(&trace, 64);
    assert!(blocks.len() > 2, "want a multi-block source");
    for (name, configs) in [
        ("fig7", fig7),
        ("three fidelities", fidelities),
        ("table6 + paging", with_paging),
        ("mixed", mixed),
    ] {
        for jobs in [1, 3] {
            let records_pulled = Cell::new(0);
            let swept = sweep::run_source(
                Counting {
                    inner: trace.records().iter(),
                    pulled: &records_pulled,
                },
                &configs,
                jobs,
            );
            assert_eq!(records_pulled.get(), trace.len(), "{name} jobs={jobs}");
            for (c, m) in &swept {
                assert_eq!(m, &Simulator::run(&trace, c), "{name} jobs={jobs}");
            }

            let opened = Cell::new(0);
            let blocks_pulled = Cell::new(0);
            let batched = sweep::run_block_source(
                || {
                    opened.set(opened.get() + 1);
                    Counting {
                        inner: blocks.iter().cloned(),
                        pulled: &blocks_pulled,
                    }
                },
                &configs,
                jobs,
            );
            assert_eq!(opened.get(), 1, "{name} jobs={jobs}");
            assert_eq!(blocks_pulled.get(), blocks.len(), "{name} jobs={jobs}");
            assert_eq!(batched, swept, "{name} jobs={jobs}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared-expansion reuse never changes the miss ratio: for random
    /// configurations (random consumption fields on both sides of the
    /// expansion key) and a random thread count, the sweep's miss
    /// ratios equal freshly-expanded sequential runs.
    #[test]
    fn shared_expansion_preserves_miss_ratio(
        seed in 0u64..1_000,
        jobs in 1usize..9,
        specs in prop::collection::vec(
            (1u64..65, 0u32..3, 0u32..3, 0u32..2, any::<bool>()),
            2..10,
        ),
    ) {
        let trace = seeded_trace(seed, 150);
        let configs: Vec<CacheConfig> = specs
            .iter()
            .map(|&(cache_blocks, policy, rw, block_shift, paging)| CacheConfig {
                cache_bytes: cache_blocks * 16 * 1024,
                block_size: 4096 << block_shift,
                write_policy: [
                    WritePolicy::WriteThrough,
                    WritePolicy::FlushBack { interval_ms: 30_000 },
                    WritePolicy::DelayedWrite,
                ][policy as usize],
                rw_handling: [RwHandling::Write, RwHandling::Read, RwHandling::Both]
                    [rw as usize],
                simulate_paging: paging,
                ..CacheConfig::default()
            })
            .collect();
        let swept = sweep::run_source(trace.records(), &configs, jobs);
        for (i, (c, m)) in swept.iter().enumerate() {
            let fresh = Simulator::run(&trace, c);
            prop_assert_eq!(
                m.miss_ratio(),
                fresh.miss_ratio(),
                "config {} diverged under jobs={}",
                i,
                jobs
            );
            prop_assert_eq!(m, &fresh);
        }
    }
}
