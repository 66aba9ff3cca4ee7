//! Property-based tests for the block cache engine and the replay.

use cachesim::{
    replay_events, sweep, BlockCache, CacheConfig, Fidelity, Replacement, Simulator, StackEngine,
    WritePolicy,
};
use fstrace::{AccessMode, FileId, OpenId, Trace, TraceBuilder, TraceEvent, TraceRecord, UserId};
use proptest::prelude::*;

fn cfg(blocks: u64) -> CacheConfig {
    CacheConfig {
        cache_bytes: blocks * 4096,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        ..CacheConfig::default()
    }
}

/// A naive LRU model: a Vec ordered most-recent-first.
struct NaiveLru {
    cap: usize,
    order: Vec<(u64, u64)>, // (file, block), MRU first.
    hits: u64,
    misses: u64,
}

impl NaiveLru {
    fn access(&mut self, key: (u64, u64)) {
        match self.order.iter().position(|&k| k == key) {
            Some(i) => {
                self.hits += 1;
                let k = self.order.remove(i);
                self.order.insert(0, k);
            }
            None => {
                self.misses += 1;
                self.order.insert(0, key);
                if self.order.len() > self.cap {
                    self.order.pop();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The intrusive-list cache agrees with a naive LRU model on hits,
    /// misses, and the full recency ordering.
    #[test]
    fn lru_matches_naive_model(
        cap in 1u64..16,
        accesses in prop::collection::vec((0u64..4, 0u64..24), 1..300),
    ) {
        let mut cache = BlockCache::new(&cfg(cap));
        let mut model = NaiveLru { cap: cap as usize, order: Vec::new(), hits: 0, misses: 0 };
        for (i, &(f, b)) in accesses.iter().enumerate() {
            cache.read(
                cachesim::BlockId { file: FileId(f), block: b },
                i as u64,
            );
            model.access((f, b));
        }
        prop_assert_eq!(cache.metrics.read_hits, model.hits);
        prop_assert_eq!(cache.metrics.disk_reads, model.misses);
        let got: Vec<(u64, u64)> = cache
            .contents_mru()
            .iter()
            .map(|id| (id.file.0, id.block))
            .collect();
        prop_assert_eq!(got, model.order);
    }

    /// Under FIFO, contents are the most recently inserted distinct keys
    /// and hit counts still match a set-based model.
    #[test]
    fn fifo_hit_counts(
        cap in 1u64..16,
        accesses in prop::collection::vec((0u64..3, 0u64..16), 1..200),
    ) {
        let mut config = cfg(cap);
        config.replacement = Replacement::Fifo;
        let mut cache = BlockCache::new(&config);
        let mut order: Vec<(u64, u64)> = Vec::new(); // Insertion order, newest first.
        let mut hits = 0u64;
        for (i, &(f, b)) in accesses.iter().enumerate() {
            let key = (f, b);
            if order.contains(&key) {
                hits += 1;
            } else {
                order.insert(0, key);
                if order.len() > cap as usize {
                    order.pop();
                }
            }
            cache.read(
                cachesim::BlockId { file: FileId(f), block: b },
                i as u64,
            );
        }
        prop_assert_eq!(cache.metrics.read_hits, hits);
    }

    /// LRU inclusion: a larger cache never misses more on the same
    /// access stream.
    #[test]
    fn lru_inclusion_property(
        accesses in prop::collection::vec((0u64..4, 0u64..32), 1..400),
        small in 1u64..8,
        extra in 1u64..16,
    ) {
        let run = |cap: u64| {
            let mut c = BlockCache::new(&cfg(cap));
            for (i, &(f, b)) in accesses.iter().enumerate() {
                c.read(cachesim::BlockId { file: FileId(f), block: b }, i as u64);
            }
            c.metrics.disk_reads
        };
        prop_assert!(run(small + extra) <= run(small));
    }

    /// Replay conservation: logical accesses equal the number of blocks
    /// spanned by all runs, independent of cache configuration.
    #[test]
    fn replay_conserves_block_accesses(
        files in prop::collection::vec((0u64..20_000u64, 1u64..40_000u64), 1..40),
        cache_blocks in 1u64..64,
    ) {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let mut expected = 0u64;
        let bs = 4096u64;
        for (i, &(offset, len)) in files.iter().enumerate() {
            let f = b.new_file_id();
            let t = i as u64 * 1000;
            let size = offset + len;
            let o = b.open(t, f, u, AccessMode::ReadOnly, size, false);
            if offset > 0 {
                b.seek(t + 10, o, 0, offset);
            }
            b.close(t + 20, o, size);
            expected += (size - 1) / bs - offset / bs + 1;
        }
        let m = Simulator::run(&b.finish(), &cfg(cache_blocks));
        prop_assert_eq!(m.logical_reads, expected);
        prop_assert_eq!(m.logical_writes, 0);
        // Disk reads are bounded by logical reads.
        prop_assert!(m.disk_reads <= m.logical_reads);
    }
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::ReadOnly),
        Just(AccessMode::WriteOnly),
        Just(AccessMode::ReadWrite),
    ]
}

/// Raw events with tight id ranges: opens and closes pair up often,
/// and the expander also sees every anomaly (orphan closes, reused
/// open ids, seeks on dead handles).
fn arb_raw_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            0u64..10,
            0u64..6,
            0u32..4,
            arb_mode(),
            0u64..200_000,
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
        (0u64..10, 0u64..200_000).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..10, 0u64..200_000, 0u64..200_000).prop_map(|(o, a, b)| TraceEvent::Seek {
            open_id: OpenId(o),
            old_pos: a,
            new_pos: b,
        }),
        (0u64..6, 0u32..4).prop_map(|(f, u)| TraceEvent::Unlink {
            file_id: FileId(f),
            user_id: UserId(u),
        }),
        (0u64..6, 0u64..200_000, 0u32..4).prop_map(|(f, l, u)| TraceEvent::Truncate {
            file_id: FileId(f),
            new_len: l,
            user_id: UserId(u),
        }),
        (0u64..6, 0u32..4, 0u64..200_000).prop_map(|(f, u, s)| TraceEvent::Execve {
            file_id: FileId(f),
            user_id: UserId(u),
            size: s,
        }),
    ]
}

fn arb_raw_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..200_000u64, arb_raw_event()), 0..150).prop_map(|pairs| {
        Trace::from_records(
            pairs
                .into_iter()
                .map(|(t, e)| TraceRecord::new(t, e))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming expand-and-replay (records fed one at a time through
    /// the expander into the replayer) equals batch expansion followed
    /// by batch replay, for any trace and cache size.
    #[test]
    fn streaming_replay_matches_batch_expansion(
        trace in arb_raw_trace(),
        blocks in 1u64..64,
    ) {
        let config = cfg(blocks);
        let batch = Simulator::run_events(&replay_events(&trace, &config), &config);
        let streamed = Simulator::run(&trace, &config);
        prop_assert_eq!(streamed, batch);
    }

    /// One stack-distance pass reproduces the direct simulator exactly
    /// — misses, disk I/O, dirty accounting, residency — for every
    /// write policy at every capacity of the paper's Figure 5 / Table
    /// VI axis (the 390 kB and 16 MB endpoints in 4 kB blocks) plus
    /// small capacities that force evictions, pruning, and hole
    /// consumption on these short random traces.
    #[test]
    fn stack_profile_matches_direct_simulation(trace in arb_raw_trace()) {
        let caps_blocks = [1u64, 2, 3, 5, 8, 13, 97, 4096];
        let cells: Vec<CacheConfig> = caps_blocks
            .iter()
            .flat_map(|&blocks| {
                WritePolicy::TABLE_VI.into_iter().map(move |policy| CacheConfig {
                    cache_bytes: blocks * 4096,
                    block_size: 4096,
                    write_policy: policy,
                    ..CacheConfig::default()
                })
            })
            .collect();
        let mut engine = StackEngine::try_new(&cells).expect("profilable cells");
        for ev in replay_events(&trace, &cells[0]) {
            engine.step(&ev);
        }
        let profiled = engine.finish();
        prop_assert_eq!(profiled.len(), cells.len());
        for (config, got) in cells.iter().zip(profiled) {
            let want = Simulator::run(&trace, config);
            prop_assert_eq!(got, want, "config {:?}", config);
        }
    }

    /// The shared-expansion sweep is bit-identical to simulating each
    /// configuration alone, for any worker count — across profile
    /// subgroups with several cells (same block size, different sizes
    /// and write policies) and a partnerless direct cell.
    #[test]
    fn sweep_source_matches_individual_runs(
        trace in arb_raw_trace(),
        jobs in 1usize..5,
    ) {
        let mut configs = Vec::new();
        for block_size in [4096u64, 8192] {
            for blocks in [4u64, 16] {
                for policy in [WritePolicy::DelayedWrite, WritePolicy::WriteThrough] {
                    configs.push(CacheConfig {
                        cache_bytes: blocks * block_size,
                        block_size,
                        write_policy: policy,
                        ..CacheConfig::default()
                    });
                }
            }
        }
        // A lone block size: a partnerless direct cell, replayed off
        // the group's shared event buffer.
        configs.push(CacheConfig {
            cache_bytes: 16 * 16384,
            block_size: 16384,
            write_policy: WritePolicy::DelayedWrite,
            ..CacheConfig::default()
        });
        let results = sweep::run_source(trace.records(), &configs, jobs);
        prop_assert_eq!(results.len(), configs.len());
        for (config, metrics) in &results {
            prop_assert_eq!(metrics.clone(), Simulator::run(&trace, config));
        }
    }
}

proptest! {
    // More cases than the block above: each draws a whole grid, and
    // a capacity sitting exactly at a re-referenced depth is rare.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The profiler's per-capacity markers under every knob a profile
    /// subgroup shares: a random capacity set (duplicates allowed, and
    /// sometimes one past any trace's footprint, so the list never
    /// fills), block size, elision, invalidation and fidelity, with a
    /// random flush interval next to the Table VI policies. Every cell
    /// equals its direct simulation.
    #[test]
    fn stack_profile_matches_direct_on_random_grids(
        trace in arb_raw_trace(),
        caps_blocks in prop::collection::vec(1u64..=64, 1..9),
        beyond_footprint in any::<bool>(),
        block_kb_log2 in 0u32..6,
        whole_block_elision in any::<bool>(),
        invalidate_on_delete in any::<bool>(),
        fidelity in prop_oneof![Just(Fidelity::Block), Just(Fidelity::Syscall), Just(Fidelity::Open)],
        interval_ms in 1u64..200_000,
    ) {
        let mut caps_blocks = caps_blocks;
        if beyond_footprint {
            // Six files of at most 200 kB: under 1,200 1 KiB blocks.
            caps_blocks.push(1 << 16);
        }
        let block_size = 1024u64 << block_kb_log2;
        let mut policies = WritePolicy::TABLE_VI.to_vec();
        policies.push(WritePolicy::FlushBack { interval_ms });
        let cells: Vec<CacheConfig> = caps_blocks
            .iter()
            .flat_map(|&blocks| {
                policies.iter().map(move |&write_policy| CacheConfig {
                    cache_bytes: blocks * block_size,
                    block_size,
                    write_policy,
                    whole_block_elision,
                    invalidate_on_delete,
                    fidelity,
                    ..CacheConfig::default()
                })
            })
            .collect();
        let mut engine = StackEngine::try_new(&cells).expect("profilable cells");
        for ev in replay_events(&trace, &cells[0]) {
            engine.step(&ev);
        }
        let profiled = engine.finish();
        prop_assert_eq!(profiled.len(), cells.len());
        for (config, got) in cells.iter().zip(profiled) {
            let want = Simulator::run(&trace, config);
            prop_assert_eq!(got, want, "config {:?}", config);
        }
    }
}
