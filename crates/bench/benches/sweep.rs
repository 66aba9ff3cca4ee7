//! Sweep-engine scaling benchmark: the Table VI 6 x 4 grid simulated
//! on one worker thread versus all available cores, plus the shared
//! expansion itself. The two grid timings show the multi-core speedup
//! (results are bit-identical either way), and the profiled/direct
//! pair shows the single-pass stack-distance engine against 24
//! independent replays of the same event stream.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cachesim::{replay_events, sweep, CacheConfig, Simulator, WritePolicy};
use fstrace::Trace;
use workload::{generate, MachineProfile, WorkloadConfig};

fn a5_trace() -> Trace {
    generate(&WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed: 1985,
        duration_hours: 0.2,
        ..WorkloadConfig::default()
    })
    .expect("workload")
    .trace
}

fn table_vi_grid() -> Vec<CacheConfig> {
    [390u64, 1024, 2048, 4096, 8192, 16_384]
        .iter()
        .flat_map(|&kb| {
            WritePolicy::TABLE_VI.into_iter().map(move |p| CacheConfig {
                cache_bytes: kb * 1024,
                block_size: 4096,
                write_policy: p,
                ..CacheConfig::default()
            })
        })
        .collect()
}

fn bench_sweep(c: &mut Criterion) {
    let trace = a5_trace();
    let grid = table_vi_grid();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.throughput(Throughput::Elements(grid.len() as u64));
    g.bench_function("table6_grid_1_thread", |b| {
        b.iter(|| sweep::run_source(trace.records(), &grid, 1))
    });
    g.bench_function(format!("table6_grid_{cores}_threads"), |b| {
        b.iter(|| sweep::run_source(trace.records(), &grid, cores))
    });
    // Fixed worker count so the bench exercises the threaded path even
    // on single-core machines (measures spawn/queue overhead there).
    g.bench_function("table6_grid_4_workers", |b| {
        b.iter(|| sweep::run_source(trace.records(), &grid, 4))
    });
    g.bench_function("expansion_alone", |b| {
        b.iter(|| replay_events(&trace, &grid[0]))
    });
    // Single-pass stack-distance profiling versus one shared expansion
    // plus 24 direct replays, both on one thread so the comparison is
    // pure algorithm.
    g.bench_function("table6_profiled_single_pass", |b| {
        b.iter(|| sweep::run_source(trace.records(), &grid, 1))
    });
    g.bench_function("table6_direct_24_replays", |b| {
        b.iter(|| {
            let events = replay_events(&trace, &grid[0]);
            grid.iter()
                .map(|c| Simulator::run_events(&events, c))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
