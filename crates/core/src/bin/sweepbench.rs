//! `sweepbench`: the stack-distance profiler against the direct sweep.
//!
//! ```text
//! sweepbench [--hours H] [--seed S] [--jobs N] [--json]
//! ```
//!
//! Generates one a5-profile trace, then runs the Table VI grid (6 cache
//! sizes × 4 write policies, all LRU) twice: through `cachesim::sweep`
//! (one stack-distance profiled pass), and directly (one shared
//! expansion of the trace, then 24 `Simulator::run_events` replays on
//! `--jobs` threads — what the sweep does for cells it cannot profile).
//! Both produce bit-identical metrics — the `identical` output field
//! proves it on every run — so the only difference is wall-clock time.
//! ci.sh runs this in quick mode and records the result as
//! `BENCH_4.json`, asserting the profiled sweep is at least 3× faster.

use std::thread;
use std::time::Instant;

use cachesim::{replay_events, sweep, CacheConfig, CacheMetrics, Simulator, WritePolicy};
use fstrace::Trace;
use workload::{generate, MachineProfile, WorkloadConfig};

/// Table VI cache sizes in kbytes (390 KB UNIX baseline to 16 MB).
const SIZES_KB: [u64; 6] = [390, 1024, 2048, 4096, 8192, 16_384];

fn grid() -> Vec<CacheConfig> {
    SIZES_KB
        .iter()
        .flat_map(|&size_kb| {
            WritePolicy::TABLE_VI
                .into_iter()
                .map(move |policy| CacheConfig {
                    cache_bytes: size_kb * 1024,
                    block_size: 4096,
                    write_policy: policy,
                    ..CacheConfig::default()
                })
        })
        .collect()
}

/// The grid without stack-distance profiling: one expansion of the
/// trace (every Table VI cell shares its expansion key), then one
/// direct replay per cell, the cells split across `jobs` scoped
/// threads.
fn direct_sweep(
    trace: &Trace,
    configs: &[CacheConfig],
    jobs: usize,
) -> Vec<(CacheConfig, CacheMetrics)> {
    let events = replay_events(trace, &configs[0]);
    let per_thread = configs.len().div_ceil(jobs.max(1)).max(1);
    thread::scope(|s| {
        let workers: Vec<_> = configs
            .chunks(per_thread)
            .map(|cells| {
                s.spawn(|| {
                    cells
                        .iter()
                        .map(|c| (c.clone(), Simulator::run_events(&events, c)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("direct replay worker panicked"))
            .collect()
    })
}

fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = run();
    (started.elapsed().as_secs_f64() * 1e3, out)
}

fn main() {
    let mut hours = 0.25f64;
    let mut seed = 1985u64;
    let mut jobs = 0usize;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--hours needs a number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer"));
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: sweepbench [--hours H] [--seed S] [--jobs N] [--json]");
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if jobs == 0 {
        jobs = sweep::default_jobs();
    }

    let config = WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed,
        duration_hours: hours,
        ..WorkloadConfig::default()
    };
    let out = generate(&config).unwrap_or_else(|e| die(&format!("generate: {e}")));
    let configs = grid();

    // Profiled first (cold caches), direct second: any warm-up effect
    // biases against the speedup being claimed.
    let (profiled_ms, profiled) = timed(|| sweep::run_with_jobs(&out.trace, &configs, jobs));
    let (direct_ms, direct) = timed(|| direct_sweep(&out.trace, &configs, jobs));
    let identical = profiled == direct;
    let speedup = direct_ms / profiled_ms.max(1e-9);

    let snap = obs::global().snapshot();
    let distances = snap
        .counter("cachesim.stack.distances_recorded")
        .unwrap_or(0);
    let tree_peak = snap.gauge("cachesim.stack.tree_nodes_peak").unwrap_or(0);

    if json {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"stack_sweep\",\n");
        s.push_str(&format!("  \"hours\": {hours},\n"));
        s.push_str(&format!("  \"seed\": {seed},\n"));
        s.push_str(&format!("  \"jobs\": {jobs},\n"));
        s.push_str(&format!("  \"records\": {},\n", out.trace.len()));
        s.push_str(&format!("  \"cells\": {},\n", configs.len()));
        s.push_str(&format!("  \"direct_ms\": {direct_ms:.1},\n"));
        s.push_str(&format!("  \"profiled_ms\": {profiled_ms:.1},\n"));
        s.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
        s.push_str(&format!("  \"distances_recorded\": {distances},\n"));
        s.push_str(&format!("  \"tree_nodes_peak\": {tree_peak},\n"));
        s.push_str(&format!("  \"identical\": {identical}\n"));
        s.push('}');
        println!("{s}");
    } else {
        println!("stack sweep bench ({hours} h, seed {seed}, jobs {jobs})");
        println!("  records: {}", out.trace.len());
        println!("  cells: {}", configs.len());
        println!("  direct_ms: {direct_ms:.1}");
        println!("  profiled_ms: {profiled_ms:.1}");
        println!("  speedup: {speedup:.2}x");
        println!("  distances_recorded: {distances}");
        println!("  tree_nodes_peak: {tree_peak}");
        println!("  identical: {identical}");
    }
    if !identical {
        die("profiled sweep diverged from direct simulation");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("sweepbench: {msg}");
    std::process::exit(1);
}
