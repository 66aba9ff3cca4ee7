//! Parallel configuration sweeps sharing one read of the trace.
//!
//! Every experiment in Section 6 evaluates a *grid* of configurations
//! against the same trace: cache sizes × write policies (Table VI),
//! block sizes × cache sizes (Table VII), cache sizes with and without
//! paging (Figure 7). Expanding the trace into [`ReplayEvent`]s
//! dominates the setup cost of each run, yet the expansion depends on
//! only three of the configuration fields — [`CacheConfig::fidelity`],
//! [`CacheConfig::rw_handling`], and [`CacheConfig::simulate_paging`]
//! (see [`ExpansionKey`]). All other fields (cache size, block size,
//! write policy, replacement, elision, invalidation) only change how
//! the *same* event stream is consumed.
//!
//! [`run_source`] therefore reads its record stream **once**, whatever
//! the grid. It groups the requested configurations by expansion key
//! and gives each group one [`crate::EventExpander`], fed from that one
//! pass. Within a group, LRU cells sharing block size, elision, and
//! invalidation settings differ only in capacity and write policy —
//! exactly what the [`crate::stack`] profiler derives from **one**
//! replay via stack distances. Each group thus splits into *tasks*:
//! profile subgroups (two or more cells each) and direct cells (FIFO
//! replacement, partnerless parameter combos, capacities past the
//! profiler's cap; see [`stack::profilable`]), turning an S-size ×
//! P-policy grid from S×P replays into one profiled replay. A group
//! with a single task steps it during the pass, holding O(open files)
//! state; any other group buffers its events once and fans its tasks
//! out over a scoped thread pool that borrows them read-only.
//!
//! Results come back indexed exactly like the input slice, so output is
//! deterministic regardless of the thread count — and because every
//! task is itself deterministic, every metric is bit-identical to what
//! a sequential [`crate::Simulator::run`] of that configuration would
//! produce.
//!
//! The engine is dependency-free: plain [`std::thread::scope`] workers
//! pulling indices from an atomic counter, at most the caller's `jobs`
//! of them.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use fstrace::TraceRecord;

use crate::config::{CacheConfig, Fidelity, RwHandling};
use crate::metrics::CacheMetrics;
use crate::replay::{EventExpander, ReplayEvent, Replayer};
use crate::stack::{self, StackEngine};

/// The subset of [`CacheConfig`] that [`crate::replay_events`] depends on.
///
/// Configurations with equal keys can share one expanded event vector;
/// any field *not* in this key is guaranteed not to affect expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionKey {
    /// Replay fidelity (changes the event granularity entirely).
    pub fidelity: Fidelity,
    /// How read-write runs are billed (changes which `Transfer`/`Op`
    /// events exist and their direction).
    pub rw_handling: RwHandling,
    /// Whether `execve` records expand into program-image reads.
    pub simulate_paging: bool,
}

impl ExpansionKey {
    /// Extracts the expansion-relevant fields of a configuration.
    pub fn of(config: &CacheConfig) -> Self {
        ExpansionKey {
            fidelity: config.fidelity,
            rw_handling: config.rw_handling,
            simulate_paging: config.simulate_paging,
        }
    }
}

/// One unit of replay work: a profile subgroup (two or more cells) or
/// one direct cell.
struct Task {
    /// Config indices, in input order.
    cells: Vec<usize>,
    profile: bool,
}

impl Task {
    fn engine(&self, configs: &[CacheConfig]) -> Engine {
        if self.profile {
            let cells: Vec<CacheConfig> = self.cells.iter().map(|&i| configs[i].clone()).collect();
            Engine::Profile(
                StackEngine::try_new(&cells)
                    .expect("partitioned subgroup cells are jointly profilable"),
            )
        } else {
            Engine::Direct(Replayer::new(&configs[self.cells[0]]))
        }
    }
}

/// A task's replay state.
enum Engine {
    Direct(Replayer),
    Profile(StackEngine),
}

impl Engine {
    fn step(&mut self, ev: &ReplayEvent) {
        match self {
            Engine::Direct(r) => r.step(ev),
            Engine::Profile(p) => p.step(ev),
        }
    }

    fn finish(self) -> Vec<CacheMetrics> {
        match self {
            Engine::Direct(r) => vec![r.finish()],
            Engine::Profile(p) => p.finish(),
        }
    }
}

/// One expansion group: its expander and its tasks. A group with a
/// single task steps it during the pass (`inline`); any other group
/// buffers its events for the worker pool.
struct Group {
    expander: EventExpander,
    tasks: Vec<Task>,
    inline: Option<Engine>,
    events: Vec<ReplayEvent>,
}

impl Group {
    /// Partitions one expansion group's config indices into stack
    /// profile subgroups (cells that differ only in capacity and write
    /// policy — two or more each) and the direct remainder.
    fn new(idxs: &[usize], configs: &[CacheConfig]) -> Group {
        let mut direct: Vec<usize> = Vec::new();
        let mut subgroups: Vec<((u64, bool, bool), Vec<usize>)> = Vec::new();
        for &i in idxs {
            let c = &configs[i];
            if stack::profilable(c) {
                let key = (c.block_size, c.whole_block_elision, c.invalidate_on_delete);
                match subgroups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, cells)) => cells.push(i),
                    None => subgroups.push((key, vec![i])),
                }
            } else {
                direct.push(i);
            }
        }
        let mut tasks: Vec<Task> = Vec::new();
        for (_, cells) in subgroups {
            if cells.len() >= 2 {
                tasks.push(Task {
                    cells,
                    profile: true,
                });
            } else {
                direct.extend(cells);
            }
        }
        direct.sort_unstable();
        tasks.extend(direct.into_iter().map(|i| Task {
            cells: vec![i],
            profile: false,
        }));
        let inline = match tasks.as_slice() {
            [only] => Some(only.engine(configs)),
            _ => None,
        };
        Group {
            expander: EventExpander::new(&configs[idxs[0]]),
            tasks,
            inline,
            events: Vec::new(),
        }
    }

    fn feed(&mut self, rec: &TraceRecord) {
        match &mut self.inline {
            Some(engine) => self.expander.feed(rec, &mut |ev| engine.step(&ev)),
            None => self.expander.feed(rec, &mut |ev| self.events.push(ev)),
        }
    }
}

/// Simulates every configuration against a record stream on `jobs`
/// worker threads, reading the stream once and expanding it once per
/// [`ExpansionKey`] group.
///
/// `records` must come in time order. A group with one task (a direct
/// cell or one profile subgroup) replays straight off the stream; each
/// other group's event vector is materialized once and borrowed
/// read-only by the thread pool.
///
/// The result vector is ordered exactly like `configs`, and each entry
/// is bit-identical to `Simulator::run` of that configuration over the
/// same records, for any `jobs >= 1`.
pub fn run_source<I>(
    records: I,
    configs: &[CacheConfig],
    jobs: usize,
) -> Vec<(CacheConfig, CacheMetrics)>
where
    I: IntoIterator,
    I::Item: Borrow<TraceRecord>,
{
    let reg = obs::global();
    let _sweep_timing = reg.span("cachesim.sweep.run").start();
    // Per-cell timing handles, shared by all workers (lock-free span,
    // coarse-grained histogram — one record per simulated cell).
    let cell_span = reg.span("cachesim.sweep.cell");
    let cell_us = reg.histogram("cachesim.sweep.cell_us");

    // Group config indices by expansion key, preserving first-seen
    // order. At most 18 distinct keys exist (3 fidelities × 3
    // rw-handlings × paging), so a linear scan beats a hash map.
    let mut keyed: Vec<(ExpansionKey, Vec<usize>)> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let key = ExpansionKey::of(c);
        match keyed.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => keyed.push((key, vec![i])),
        }
    }
    let mut groups: Vec<Group> = keyed
        .iter()
        .map(|(_, idxs)| Group::new(idxs, configs))
        .collect();

    // The one pass: each record feeds every group's expander.
    let started = Instant::now();
    if !groups.is_empty() {
        for rec in records {
            let rec = rec.borrow();
            for g in &mut groups {
                g.feed(rec);
            }
        }
    }
    let mut slots: Vec<Option<CacheMetrics>> = vec![None; configs.len()];
    let mut inline_cells = 0;
    for g in &mut groups {
        if let Some(engine) = g.inline.take() {
            inline_cells += g.tasks[0].cells.len();
            for (&i, m) in g.tasks[0].cells.iter().zip(engine.finish()) {
                slots[i] = Some(m);
            }
        }
    }
    // Tasks stepped during the pass share its wall time.
    record_cells(&cell_span, &cell_us, inline_cells, started.elapsed());

    // The buffered groups' tasks, profile subgroups first: they are the
    // heaviest, so they should start before the pool fills up with
    // quick cells.
    let mut tasks: Vec<(&[ReplayEvent], &Task)> = groups
        .iter()
        .filter(|g| g.tasks.len() > 1)
        .flat_map(|g| g.tasks.iter().map(|t| (g.events.as_slice(), t)))
        .collect();
    tasks.sort_by_key(|(_, t)| !t.profile);
    let run_task = |&(events, task): &(&[ReplayEvent], &Task)| -> Vec<(usize, CacheMetrics)> {
        let started = Instant::now();
        let mut engine = task.engine(configs);
        for ev in events {
            engine.step(ev);
        }
        let metrics = engine.finish();
        record_cells(&cell_span, &cell_us, task.cells.len(), started.elapsed());
        task.cells.iter().copied().zip(metrics).collect()
    };
    let next = AtomicUsize::new(0);
    let done = thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.max(1).min(tasks.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<(usize, CacheMetrics)> = Vec::new();
                    while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        out.extend(run_task(task));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect::<Vec<_>>()
    });
    for (i, m) in done {
        slots[i] = Some(m);
    }
    let all_tasks = || groups.iter().flat_map(|g| &g.tasks);
    reg.counter("cachesim.stack.profiled_cells").add(
        all_tasks()
            .filter(|t| t.profile)
            .map(|t| t.cells.len() as u64)
            .sum(),
    );
    reg.counter("cachesim.stack.fallback_cells")
        .add(all_tasks().filter(|t| !t.profile).count() as u64);

    let out: Vec<(CacheConfig, CacheMetrics)> = configs
        .iter()
        .cloned()
        .zip(slots.into_iter().map(|m| m.expect("every slot filled")))
        .collect();
    publish_sweep_totals(reg, groups.len(), &out);
    out
}

/// Simulates every configuration against a refillable **block** source
/// — the columnar twin of [`run_source`] for batched-decode producers
/// like `tracestore::Archive::blocks`.
///
/// `source` is called once. Records are materialized from the columns
/// one view at a time via [`fstrace::FillRecords`], which drains each
/// block through one reused set of column buffers — so block producers
/// that implement [`fstrace::FillBlock`] natively (e.g.
/// `tracestore::ArchiveBlocks`) stream through the sweep with no
/// per-chunk allocation, and plain block iterators work via the blanket
/// impl. Grouping, profiling, and parallelism behavior is exactly
/// [`run_source`]'s.
pub fn run_block_source<S, F>(
    source: F,
    configs: &[CacheConfig],
    jobs: usize,
) -> Vec<(CacheConfig, CacheMetrics)>
where
    S: fstrace::FillBlock,
    F: FnOnce() -> S,
{
    run_source(fstrace::FillRecords::new(source()), configs, jobs)
}

/// Records one task's wall time as `cells` equal per-cell shares, so
/// per-cell span counts and histograms stay comparable between profiled
/// subgroups and direct cells.
fn record_cells(span: &obs::Span, hist: &obs::Histogram, cells: usize, elapsed: Duration) {
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    let share = ns / cells.max(1) as u64;
    for _ in 0..cells {
        span.record_ns(share);
        hist.record(share / 1_000);
    }
}

/// Batch-adds one sweep's aggregate traffic into the global registry.
///
/// `read_misses` is derived as `logical_reads - read_hits`, which the
/// metrics-invariant suite cross-checks against `disk_reads` plus
/// elided fetches.
fn publish_sweep_totals(
    reg: &obs::Registry,
    groups: usize,
    results: &[(CacheConfig, CacheMetrics)],
) {
    reg.counter("cachesim.sweep.runs").inc();
    reg.counter("cachesim.sweep.groups").add(groups as u64);
    reg.counter("cachesim.sweep.cells")
        .add(results.len() as u64);
    let mut logical_reads = 0u64;
    let mut logical_writes = 0u64;
    let mut read_hits = 0u64;
    let mut disk_reads = 0u64;
    let mut disk_writes = 0u64;
    for (_, m) in results {
        logical_reads += m.logical_reads;
        logical_writes += m.logical_writes;
        read_hits += m.read_hits;
        disk_reads += m.disk_reads;
        disk_writes += m.disk_writes;
    }
    reg.counter("cachesim.sweep.logical_reads")
        .add(logical_reads);
    reg.counter("cachesim.sweep.logical_writes")
        .add(logical_writes);
    reg.counter("cachesim.sweep.read_hits").add(read_hits);
    reg.counter("cachesim.sweep.read_misses")
        .add(logical_reads - read_hits);
    reg.counter("cachesim.sweep.disk_reads").add(disk_reads);
    reg.counter("cachesim.sweep.disk_writes").add(disk_writes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WritePolicy;
    use crate::replay::Simulator;
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for i in 0..24u64 {
            let f = b.new_file_id();
            let t = i * 500;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 8_192, false);
            b.close(t + 100, o, 8_192);
            if i % 3 == 0 {
                let o = b.open(t + 200, f, u, AccessMode::WriteOnly, 8_192, false);
                b.close(t + 300, o, 4_096);
            }
            b.execve(t + 400, f, u, 16_384);
        }
        b.finish()
    }

    fn grid() -> Vec<CacheConfig> {
        let mut v = Vec::new();
        for cache_kb in [64u64, 256] {
            for policy in WritePolicy::TABLE_VI {
                v.push(CacheConfig {
                    cache_bytes: cache_kb * 1024,
                    write_policy: policy,
                    ..CacheConfig::default()
                });
            }
        }
        v
    }

    #[test]
    fn matches_sequential_runs() {
        let trace = small_trace();
        let configs = grid();
        for jobs in [1, 2, 8] {
            let swept = run_source(trace.records(), &configs, jobs);
            assert_eq!(swept.len(), configs.len());
            for (i, (c, m)) in swept.iter().enumerate() {
                assert_eq!(*c, configs[i], "order must match input");
                assert_eq!(*m, Simulator::run(&trace, c), "jobs={jobs} config {i}");
            }
        }
    }

    // Expansion-count sharing is asserted in tests/sharing.rs, which
    // runs in its own process: the counter is process-global, and
    // concurrent unit tests would perturb before/after diffs here.

    #[test]
    fn paging_key_differs_and_changes_results() {
        let plain = CacheConfig::default();
        let paging = CacheConfig {
            simulate_paging: true,
            ..CacheConfig::default()
        };
        assert_ne!(ExpansionKey::of(&plain), ExpansionKey::of(&paging));
        let trace = small_trace();
        let out = run_source(trace.records(), &[plain, paging], 2);
        assert!(out[1].1.logical_reads > out[0].1.logical_reads);
    }

    #[test]
    fn empty_and_single_config_edge_cases() {
        let trace = small_trace();
        assert!(run_source(trace.records(), &[], 4).is_empty());
        let one = run_source(trace.records(), &[CacheConfig::default()], 4);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].1, Simulator::run(&trace, &CacheConfig::default()));
    }

    #[test]
    fn run_source_matches_run_for_owned_streams() {
        let trace = small_trace();
        // A grid with a lone paging cell: one group steps its only task
        // during the pass, the other buffers for the pool.
        let mut configs = grid();
        configs.push(CacheConfig {
            simulate_paging: true,
            ..CacheConfig::default()
        });
        for jobs in [1, 4] {
            let owned = run_source(trace.records().iter().copied(), &configs, jobs);
            let borrowed = run_source(trace.records(), &configs, jobs);
            assert_eq!(owned, borrowed, "jobs={jobs}");
            for (c, m) in &owned {
                assert_eq!(*m, Simulator::run(&trace, c), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn run_block_source_matches_run_source() {
        let trace = small_trace();
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for r in trace.records() {
            prev = fstrace::codec::encode_into(&mut buf, r, prev);
        }
        let blocks_of = |step: usize| {
            let mut blocks = Vec::new();
            let mut pos = 0;
            let mut ticks = 0u64;
            while pos < buf.len() {
                let mut b = fstrace::RecordBlock::new();
                ticks =
                    fstrace::block::decode_block(&buf, &mut pos, ticks, buf.len(), step, &mut b)
                        .expect("well-formed");
                blocks.push(b);
            }
            blocks
        };
        let mut configs = grid();
        configs.push(CacheConfig {
            simulate_paging: true,
            ..CacheConfig::default()
        });
        for step in [5usize, 1024] {
            let blocks = blocks_of(step);
            for jobs in [1, 3] {
                let batched = run_block_source(|| blocks.iter().cloned(), &configs, jobs);
                let streamed = run_source(trace.records(), &configs, jobs);
                assert_eq!(batched, streamed, "step {step} jobs {jobs}");
            }
        }
    }

    #[test]
    fn fifo_cells_fall_back_alongside_profiled_columns() {
        // LRU capacity columns profile together; FIFO cells (no
        // inclusion property) and a mismatched-elision singleton run
        // direct — all in one expansion group, all bit-identical to
        // sequential simulation.
        let trace = small_trace();
        let mut configs = Vec::new();
        for cache_kb in [32u64, 64, 256] {
            for policy in [WritePolicy::DelayedWrite, WritePolicy::WriteThrough] {
                configs.push(CacheConfig {
                    cache_bytes: cache_kb * 1024,
                    write_policy: policy,
                    ..CacheConfig::default()
                });
            }
            configs.push(CacheConfig {
                cache_bytes: cache_kb * 1024,
                replacement: crate::Replacement::Fifo,
                ..CacheConfig::default()
            });
        }
        configs.push(CacheConfig {
            whole_block_elision: false,
            ..CacheConfig::default()
        });
        for jobs in [1, 3] {
            let swept = run_source(trace.records(), &configs, jobs);
            for (i, (c, m)) in swept.iter().enumerate() {
                assert_eq!(*c, configs[i]);
                assert_eq!(*m, Simulator::run(&trace, c), "jobs={jobs} config {i}");
            }
        }
    }

    #[test]
    fn fidelity_joins_the_expansion_key() {
        let block = CacheConfig::default();
        let syscall = CacheConfig {
            fidelity: Fidelity::Syscall,
            ..CacheConfig::default()
        };
        assert_ne!(ExpansionKey::of(&block), ExpansionKey::of(&syscall));
    }

    #[test]
    fn mixed_fidelity_sweep_matches_sequential_runs() {
        // A grid spanning all three fidelities in one call: block
        // cells profile (or fall back), syscall/open cells always run
        // direct — every result bit-identical to a sequential run.
        let trace = small_trace();
        let mut configs = Vec::new();
        for fidelity in Fidelity::ALL {
            for cache_kb in [64u64, 256] {
                for policy in [WritePolicy::DelayedWrite, WritePolicy::WriteThrough] {
                    configs.push(CacheConfig {
                        cache_bytes: cache_kb * 1024,
                        write_policy: policy,
                        fidelity,
                        ..CacheConfig::default()
                    });
                }
            }
        }
        for jobs in [1, 4] {
            let swept = run_source(trace.records(), &configs, jobs);
            for (i, (c, m)) in swept.iter().enumerate() {
                assert_eq!(*c, configs[i], "order must match input");
                assert_eq!(*m, Simulator::run(&trace, c), "jobs={jobs} config {i}");
            }
        }
    }

    #[test]
    fn duplicate_configs_each_get_a_result() {
        let trace = small_trace();
        let one = CacheConfig::default();
        let configs = vec![one.clone(), one.clone(), one.clone()];
        let swept = run_source(trace.records(), &configs, 2);
        let want = Simulator::run(&trace, &one);
        assert_eq!(swept.len(), 3);
        for (_, m) in &swept {
            assert_eq!(*m, want);
        }
    }
}
