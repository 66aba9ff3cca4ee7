//! Expansion-sharing verification.
//!
//! The counter behind [`cachesim::expansion_count`] is process-global,
//! so every assertion lives in this single test function: integration
//! tests in one binary run concurrently, and any other test that
//! triggered an expansion would perturb a before/after diff.

use cachesim::{replay_events, sweep, CacheConfig, EventExpander, Fidelity, WritePolicy};
use fstrace::{AccessMode, Trace, TraceBuilder};

fn trace() -> Trace {
    let mut b = TraceBuilder::new();
    let u = b.new_user_id();
    for i in 0..16u64 {
        let f = b.new_file_id();
        let t = i * 1_000;
        let o = b.open(t, f, u, AccessMode::ReadOnly, 12_288, false);
        b.close(t + 100, o, 12_288);
        b.execve(t + 500, f, u, 8_192);
    }
    b.finish()
}

#[test]
fn sweep_expands_once_per_group() {
    let trace = trace();

    // Each expander counts one expansion, exactly like a
    // `replay_events` call.
    let before = cachesim::expansion_count();
    let _ = EventExpander::new(&CacheConfig::default());
    assert_eq!(cachesim::expansion_count(), before + 1);
    let _ = replay_events(&trace, &CacheConfig::default());
    assert_eq!(cachesim::expansion_count(), before + 2);

    // A full Table VI-shaped grid (sizes x policies) shares one key.
    let grid: Vec<CacheConfig> = [128u64, 512, 2048]
        .iter()
        .flat_map(|&kb| {
            WritePolicy::TABLE_VI.into_iter().map(move |p| CacheConfig {
                cache_bytes: kb * 1024,
                write_policy: p,
                ..CacheConfig::default()
            })
        })
        .collect();

    // Sharing must hold for every worker count, with bit-identical
    // results, and the obs registry must agree with expansion_count().
    let mut all_results = Vec::new();
    for jobs in [1usize, 2, 8] {
        let before = obs::global().snapshot();
        let count_before = cachesim::expansion_count();
        let results = sweep::run_source(trace.records(), &grid, jobs);
        let after = obs::global().snapshot();
        assert_eq!(
            cachesim::expansion_count() - count_before,
            1,
            "12 same-key configs must share one expansion at jobs={jobs}"
        );
        assert_eq!(
            after.counter("cachesim.replay.expansions").unwrap_or(0)
                - before.counter("cachesim.replay.expansions").unwrap_or(0),
            1,
            "obs counter must mirror expansion_count() at jobs={jobs}"
        );
        assert_eq!(
            after.counter("cachesim.sweep.cells").unwrap_or(0)
                - before.counter("cachesim.sweep.cells").unwrap_or(0),
            grid.len() as u64,
            "jobs={jobs}"
        );
        assert_eq!(
            after.counter("cachesim.stack.profiled_cells").unwrap_or(0)
                - before.counter("cachesim.stack.profiled_cells").unwrap_or(0),
            grid.len() as u64,
            "an all-LRU same-block-size grid profiles every cell at jobs={jobs}"
        );
        assert_eq!(
            after.counter("cachesim.stack.fallback_cells").unwrap_or(0)
                - before.counter("cachesim.stack.fallback_cells").unwrap_or(0),
            0,
            "nothing falls back to direct simulation at jobs={jobs}"
        );
        assert!(
            after
                .counter("cachesim.stack.distances_recorded")
                .unwrap_or(0)
                > before
                    .counter("cachesim.stack.distances_recorded")
                    .unwrap_or(0),
            "the profiler must record stack distances at jobs={jobs}"
        );
        all_results.push(results);
    }
    assert!(
        all_results.windows(2).all(|w| w[0] == w[1]),
        "sweep results must be bit-identical across jobs 1/2/8"
    );

    let before = cachesim::expansion_count();
    sweep::run_source(trace.records(), &grid, 4);
    assert_eq!(
        cachesim::expansion_count() - before,
        1,
        "12 same-key configs must share one expansion"
    );

    // Block size is consumption-only: mixing block sizes still shares.
    // Each block size is a partnerless profile subgroup, so all four
    // cells fall back to direct simulation of the shared event vector.
    let blocks: Vec<CacheConfig> = [1u64, 4, 16, 32]
        .iter()
        .map(|&kb| CacheConfig {
            block_size: kb * 1024,
            ..CacheConfig::default()
        })
        .collect();
    let before_snap = obs::global().snapshot();
    let before = cachesim::expansion_count();
    sweep::run_source(trace.records(), &blocks, 4);
    assert_eq!(cachesim::expansion_count() - before, 1);
    let after_snap = obs::global().snapshot();
    assert_eq!(
        after_snap
            .counter("cachesim.stack.fallback_cells")
            .unwrap_or(0)
            - before_snap
                .counter("cachesim.stack.fallback_cells")
                .unwrap_or(0),
        blocks.len() as u64,
        "singleton block-size subgroups must fall back to direct cells"
    );

    // Fidelity is part of the key, and the profiler takes every
    // fidelity: the grid at all three levels is three expansions, with
    // every cell profiled.
    let fidelities: Vec<CacheConfig> = Fidelity::ALL
        .into_iter()
        .flat_map(|fidelity| {
            grid.iter().map(move |c| CacheConfig {
                fidelity,
                ..c.clone()
            })
        })
        .collect();
    let before_snap = obs::global().snapshot();
    let before = cachesim::expansion_count();
    sweep::run_source(trace.records(), &fidelities, 4);
    assert_eq!(cachesim::expansion_count() - before, 3);
    let after_snap = obs::global().snapshot();
    let d =
        |name: &str| after_snap.counter(name).unwrap_or(0) - before_snap.counter(name).unwrap_or(0);
    assert_eq!(
        d("cachesim.stack.profiled_cells"),
        fidelities.len() as u64,
        "syscall and open cells profile like block cells"
    );
    assert_eq!(d("cachesim.stack.fallback_cells"), 0);

    // Paging flips the expansion key: exactly one extra expansion.
    let mut mixed = grid;
    mixed.push(CacheConfig {
        simulate_paging: true,
        ..CacheConfig::default()
    });
    let before = cachesim::expansion_count();
    sweep::run_source(trace.records(), &mixed, 4);
    assert_eq!(
        cachesim::expansion_count() - before,
        2,
        "paging on/off groups expand separately"
    );
}
