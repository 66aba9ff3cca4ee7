//! A fleet of simulated machines generated concurrently.
//!
//! The paper traced three machines over the same days and compared
//! their workloads side by side (Tables III and IV). This module scales
//! that shape up: N machines — each an independent [`MachineSim`] with
//! its own file system, namespace, and RNG stream — run concurrently
//! across a small thread pool, and their record streams merge into a
//! single time-ordered trace.
//!
//! The pipeline has three hops, mirroring a kernel trace facility:
//!
//! 1. **Provider**: each machine's tracer accumulates records during an
//!    actor step and drains into the machine's private reorder buffer.
//! 2. **Ring**: a worker thread slices its machines forward one *epoch*
//!    of simulated time at a time and ships each slice's final records
//!    through a bounded channel — the per-machine ring. A full ring
//!    blocks the producer (backpressure), never drops records.
//! 3. **Merge**: the caller's thread receives the rings' slices into a
//!    [`FleetMerge`], which releases records up to the fleet-wide
//!    watermark (the slowest machine's progress) in `(time, machine,
//!    arrival)` order.
//!
//! The load-bearing property is *schedule independence*: the merged
//! trace is byte-identical for any worker count, because each machine's
//! stream is deterministic in isolation (seeded by
//! [`stream_seed`](crate::stream_seed), so fleet size doesn't perturb
//! it either) and the merge order is a pure function of the records,
//! not of thread timing. `--jobs 8` must equal `--jobs 1` exactly;
//! tests in this crate and `tests/fleet.rs` enforce it.
//!
//! Workers rendezvous at a barrier after every epoch, so no machine
//! runs more than one epoch ahead of the slowest. The merge bounds its
//! own memory under any thread schedule: each slice carries its
//! machine's progress, and the merge takes slices only from the
//! machines at the watermark, one at a time. Every machine is then at
//! most one epoch ahead of the watermark inside the merge, so it holds
//! about one epoch of fleet-wide output plus reorder tails. When the
//! merge thread falls behind, the backlog waits in the bounded rings
//! and blocks the producers; it never piles into the merge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TryRecvError};
use std::sync::{Barrier, OnceLock};

use bsdfs::FsParams;
use fstrace::{EventKind, FleetMerge, IdOffsets, RecordSink, TraceRecord};

use crate::engine::{GenerateError, MachineSim, WorkloadConfig};
use crate::profile::MachineProfile;
use crate::rng::stream_seed;

/// Id stride between machines in the merged trace: open and file ids
/// get a huge stride (the per-machine id spaces are append-only and
/// never come close), user ids a 16-bit one.
const OPEN_STRIDE: u64 = 1 << 40;
const FILE_STRIDE: u64 = 1 << 40;
const USER_STRIDE: u32 = 1 << 16;

/// Parameters for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Machine profiles, cycled: machine `i` runs `mix[i % mix.len()]`.
    pub mix: Vec<MachineProfile>,
    /// Number of simulated machines.
    pub machines: usize,
    /// Fleet master seed; machine `i` simulates with
    /// [`stream_seed`]`(seed, i)`, so adding machines never perturbs
    /// existing ones.
    pub seed: u64,
    /// Simulated duration in hours (same span on every machine).
    pub duration_hours: f64,
    /// Scale factor on each profile's user population (at least one
    /// user per machine survives scaling).
    pub user_scale: f64,
    /// Worker threads; clamped to `[1, machines]`. Any value produces
    /// the same bytes.
    pub jobs: usize,
    /// Simulated milliseconds each machine advances per slice; also the
    /// bound on inter-machine skew.
    pub epoch_ms: u64,
    /// File system geometry for every machine.
    pub fs_params: FsParams,
    /// Ring capacity in batches (one batch per epoch per machine);
    /// a full ring blocks the producing worker.
    pub ring_batches: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let base = WorkloadConfig::default();
        FleetConfig {
            mix: MachineProfile::all(),
            machines: 3,
            seed: base.seed,
            duration_hours: base.duration_hours,
            user_scale: 1.0,
            jobs: 1,
            epoch_ms: 60_000,
            fs_params: base.fs_params,
            ring_batches: 8,
        }
    }
}

impl FleetConfig {
    /// The [`WorkloadConfig`] machine `i` simulates under: its profile
    /// from the mix cycle, users scaled, and a count-independent seed.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or `i >= machines`.
    pub fn machine_config(&self, i: usize) -> WorkloadConfig {
        assert!(!self.mix.is_empty(), "empty profile mix");
        assert!(i < self.machines, "machine {i} out of range");
        let mut profile = self.mix[i % self.mix.len()].clone();
        profile.users = (((profile.users as f64) * self.user_scale).round() as u32).max(1);
        WorkloadConfig {
            profile,
            seed: stream_seed(self.seed, i as u64),
            duration_hours: self.duration_hours,
            fs_params: self.fs_params.clone(),
        }
    }

    /// The id offsets machine `i` carries into the merged trace. Fixed
    /// strides, known before any machine runs, identical for every
    /// worker count.
    pub fn machine_offsets(&self, i: usize) -> IdOffsets {
        assert!(
            self.machines < USER_STRIDE as usize,
            "fleet too large for user id striding"
        );
        IdOffsets {
            open: i as u64 * OPEN_STRIDE,
            file: i as u64 * FILE_STRIDE,
            user: i as u32 * USER_STRIDE,
        }
    }
}

/// What one machine of the fleet produced.
#[derive(Debug, Clone)]
pub struct MachineStats {
    /// Machine index in the fleet.
    pub machine: usize,
    /// Trace name of the profile it ran (`a5`, `e3`, `c4`).
    pub trace_name: String,
    /// The per-machine seed ([`stream_seed`] of the fleet seed).
    pub seed: u64,
    /// Simulated users after scaling.
    pub users: u32,
    /// Records the machine emitted.
    pub records: u64,
    /// Commands that failed (should be zero).
    pub errors: u64,
    /// Most simultaneously open files on this machine.
    pub live_sessions_peak: u64,
    /// Per-kind record counts, indexed like [`EventKind::ALL`].
    pub event_counts: [u64; 7],
}

/// The product of a fleet run: per-machine and merged totals.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// One entry per machine, in machine order.
    pub machines: Vec<MachineStats>,
    /// Records written to the merged sink (sum of machine records).
    pub records: u64,
    /// Most records the fleet merge buffered at once.
    pub merge_buffered_peak: u64,
    /// Most records received from one ring in a single merge visit
    /// (one slice: a machine's epoch, or its sealed tail).
    pub ring_occupancy_peak: u64,
    /// Largest observed progress spread between the fastest and the
    /// slowest machine, in simulated milliseconds.
    pub merge_lag_ms_peak: u64,
}

impl FleetStats {
    /// Total failed commands across the fleet.
    pub fn total_errors(&self) -> u64 {
        self.machines.iter().map(|m| m.errors).sum()
    }

    /// A Table III/IV-style text table: one row per machine with its
    /// per-kind record counts, plus a fleet total row.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("machine  trace  users    records");
        for kind in EventKind::ALL {
            out.push_str(&format!("  {:>8}", format!("{kind:?}").to_lowercase()));
        }
        out.push('\n');
        let mut totals = [0u64; 7];
        for m in &self.machines {
            out.push_str(&format!(
                "{:>7}  {:>5}  {:>5}  {:>9}",
                m.machine, m.trace_name, m.users, m.records
            ));
            for (t, &c) in totals.iter_mut().zip(m.event_counts.iter()) {
                *t += c;
                out.push_str(&format!("  {c:>8}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>7}  {:>5}  {:>5}  {:>9}",
            "fleet",
            "-",
            self.machines.iter().map(|m| m.users).sum::<u32>(),
            self.records
        ));
        for c in totals {
            out.push_str(&format!("  {c:>8}"));
        }
        out.push('\n');
        out
    }
}

/// The `workload.fleet.machines` gauge: largest fleet simulated in this
/// process.
fn fleet_machines_gauge() -> &'static obs::Gauge {
    static CELL: OnceLock<obs::Gauge> = OnceLock::new();
    CELL.get_or_init(|| obs::global().gauge("workload.fleet.machines"))
}

/// The `workload.fleet.ring_occupancy_peak` gauge: most records
/// received from one machine's ring in a single merge visit.
fn ring_occupancy_gauge() -> &'static obs::Gauge {
    static CELL: OnceLock<obs::Gauge> = OnceLock::new();
    CELL.get_or_init(|| obs::global().gauge("workload.fleet.ring_occupancy_peak"))
}

/// The `workload.fleet.merge_lag_ms_peak` gauge: largest progress
/// spread between the fastest and slowest machine, in simulated ms.
fn merge_lag_gauge() -> &'static obs::Gauge {
    static CELL: OnceLock<obs::Gauge> = OnceLock::new();
    CELL.get_or_init(|| obs::global().gauge("workload.fleet.merge_lag_ms_peak"))
}

/// What a machine ships through its ring once per epoch: the records
/// that became final before `up_to_ms`, or its sealed tail when
/// `up_to_ms` is `u64::MAX`. Progress travels with the records that back
/// it, so the merge can never apply a watermark ahead of them.
struct Slice {
    records: Vec<TraceRecord>,
    up_to_ms: u64,
}

/// One worker's slice of the fleet: drives machines `w, w+workers,
/// w+2*workers, ...` forward one epoch per barrier round, shipping each
/// machine's finalized records through its ring.
struct Worker<'cfg> {
    config: &'cfg FleetConfig,
    owned: Vec<usize>,
}

/// Runs the fleet, streaming the merged trace to `sink` in time order.
///
/// Spawns `min(jobs, machines)` workers; the calling thread performs
/// the merge. The merged byte stream is identical for every `jobs`
/// value (see the module docs for why).
///
/// # Errors
///
/// Fails if any machine's namespace cannot be built or the sink rejects
/// a record. On error the sink may hold a partial prefix of the trace.
pub fn generate_fleet_into(
    config: &FleetConfig,
    sink: &mut dyn RecordSink,
) -> Result<FleetStats, GenerateError> {
    let _timing = obs::global().span("workload.fleet.generate").start();
    let n = config.machines;
    assert!(n > 0, "fleet needs at least one machine");
    assert!(config.epoch_ms > 0, "epoch must be positive");
    fleet_machines_gauge().record(n as u64);

    let workers = config.jobs.clamp(1, n);
    let barrier = Barrier::new(workers);
    let unfinished = AtomicU64::new(n as u64);
    // Each machine's latest horizon, published by its worker for the
    // lag statistic only: the merge takes progress from the slices.
    let progress: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut txs: Vec<Option<SyncSender<Slice>>> = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::sync_channel::<Slice>(config.ring_batches.max(1));
        txs.push(Some(tx));
        rxs.push(rx);
    }

    let mut merge = FleetMerge::new((0..n).map(|i| config.machine_offsets(i)).collect());
    let mut ring_peak = 0u64;
    let mut lag_peak = 0u64;
    let mut sink_result: Result<(), GenerateError> = Ok(());

    let worker_outs = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let owned: Vec<usize> = (w..n).step_by(workers).collect();
            let worker = Worker { config, owned };
            let mut slots: Vec<SyncSender<Slice>> = Vec::new();
            for &m in &worker.owned {
                slots.push(txs[m].take().expect("machine owned twice"));
            }
            let barrier = &barrier;
            let unfinished = &unfinished;
            let progress = &progress;
            handles.push(scope.spawn(move || worker.run(slots, barrier, unfinished, progress)));
        }
        drop(txs);

        // The merge loop. `up_to[i]` is machine i's progress as the
        // merge knows it (`None` once finished); the watermark is their
        // minimum. Taking slices only from machines at the watermark
        // keeps every machine within one epoch of it inside the merge.
        let mut up_to: Vec<Option<u64>> = vec![Some(0); n];
        while let Some(watermark) = up_to.iter().flatten().min().copied() {
            let laggards: Vec<usize> = (0..n).filter(|&i| up_to[i] == Some(watermark)).collect();
            let mut received = false;
            for &i in &laggards {
                let slice = match rxs[i].try_recv() {
                    Ok(slice) => Some(slice),
                    Err(TryRecvError::Empty) => continue,
                    Err(TryRecvError::Disconnected) => None,
                };
                up_to[i] = take_slice(&mut merge, i, slice, sink_result.is_ok(), &mut ring_peak);
                received = true;
            }
            if !received {
                // Every laggard's ring is empty: the watermark cannot
                // move until the first of them ships, so block on it.
                let g = laggards[0];
                let slice = rxs[g].recv().ok();
                up_to[g] = take_slice(&mut merge, g, slice, sink_result.is_ok(), &mut ring_peak);
            }
            // The producers' spread, over machines still running.
            let running = progress
                .iter()
                .map(|p| p.load(Ordering::Acquire))
                .filter(|&p| p != u64::MAX);
            let (lo, hi) = running.fold((u64::MAX, 0), |(lo, hi), p| (lo.min(p), hi.max(p)));
            if lo <= hi {
                lag_peak = lag_peak.max(hi - lo);
            }
            if sink_result.is_ok() {
                if let Err(e) = merge.release(sink) {
                    sink_result = Err(GenerateError::Io(e));
                }
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect::<Vec<_>>()
    });

    sink_result?;
    let mut machines: Vec<MachineStats> = Vec::with_capacity(n);
    for out in worker_outs {
        let stats = out?;
        machines.extend(stats);
    }
    machines.sort_by_key(|m| m.machine);
    let merge_buffered_peak = merge.peak() as u64;
    let total = merge.finish(sink)?;
    ring_occupancy_gauge().record(ring_peak);
    merge_lag_gauge().record(lag_peak);
    Ok(FleetStats {
        machines,
        records: total,
        merge_buffered_peak,
        ring_occupancy_peak: ring_peak,
        merge_lag_ms_peak: lag_peak,
    })
}

/// Feeds one received slice of machine `i` to the merge and returns
/// the machine's new progress: `None` once it has finished (its sealed
/// tail arrived, or its sender hung up because the machine failed).
/// After a sink error the records are dropped instead of buffered.
fn take_slice(
    merge: &mut FleetMerge,
    i: usize,
    slice: Option<Slice>,
    keep: bool,
    ring_peak: &mut u64,
) -> Option<u64> {
    let Some(slice) = slice else {
        merge.finish_input(i);
        return None;
    };
    *ring_peak = (*ring_peak).max(slice.records.len() as u64);
    if keep {
        for rec in &slice.records {
            merge.push(i, rec);
        }
    }
    if slice.up_to_ms == u64::MAX {
        merge.finish_input(i);
        None
    } else {
        merge.set_progress(i, slice.up_to_ms);
        Some(slice.up_to_ms)
    }
}

impl Worker<'_> {
    /// Epoch loop: advance every owned machine to the next horizon,
    /// ship its finalized records, publish progress, and rendezvous.
    fn run(
        &self,
        txs: Vec<SyncSender<Slice>>,
        barrier: &Barrier,
        unfinished: &AtomicU64,
        progress: &[AtomicU64],
    ) -> Result<Vec<MachineStats>, GenerateError> {
        let mut sims: Vec<Option<MachineSim>> = Vec::with_capacity(self.owned.len());
        let mut txs: Vec<Option<SyncSender<Slice>>> = txs.into_iter().map(Some).collect();
        let mut stats = Vec::with_capacity(self.owned.len());
        let mut first_err: Option<GenerateError> = None;
        for &m in &self.owned {
            match MachineSim::new(&self.config.machine_config(m)) {
                Ok(sim) => sims.push(Some(sim)),
                Err(e) => {
                    sims.push(None);
                    self.retire(m, &mut txs, progress, unfinished);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }

        let mut t = self.config.epoch_ms;
        loop {
            for (slot, &m) in self.owned.iter().enumerate() {
                let Some(sim) = sims[slot].as_mut() else {
                    continue;
                };
                let mut batch: Vec<TraceRecord> = Vec::new();
                let step = sim
                    .advance(t, &mut batch)
                    .and_then(|()| sim.flush_to(t, &mut batch).map_err(GenerateError::Io));
                if let Err(e) = step {
                    sims[slot] = None;
                    self.retire(m, &mut txs, progress, unfinished);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    continue;
                }
                let done = sim.idle();
                if done {
                    let sim = sims[slot].take().expect("sim present");
                    match sim.seal(&mut batch) {
                        Ok(out) => {
                            let cfg = self.config.machine_config(m);
                            stats.push(MachineStats {
                                machine: m,
                                trace_name: cfg.profile.trace_name.to_string(),
                                seed: cfg.seed,
                                users: cfg.profile.users,
                                records: out.records,
                                errors: out.errors,
                                live_sessions_peak: out.live_sessions_peak,
                                event_counts: out.event_counts,
                            });
                        }
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                // Every epoch ships a slice, empty or not: it carries
                // the machine's progress. A full ring blocks here:
                // backpressure, not loss.
                if let Some(tx) = txs[slot].as_ref() {
                    let up_to_ms = if done { u64::MAX } else { t };
                    let _ = tx.send(Slice {
                        records: batch,
                        up_to_ms,
                    });
                }
                if done {
                    self.retire_slot(m, slot, &mut txs, progress, unfinished);
                } else {
                    progress[m].store(t, Ordering::Release);
                }
            }
            // Double barrier: the count is stable in between, so every
            // worker reads the same value and exits on the same round.
            barrier.wait();
            let remaining = unfinished.load(Ordering::Acquire);
            barrier.wait();
            if remaining == 0 {
                break;
            }
            t += self.config.epoch_ms;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Marks machine `m` (at owned-slot `slot`) finished: drop its
    /// sender, publish terminal progress, decrement the fleet count.
    fn retire_slot(
        &self,
        m: usize,
        slot: usize,
        txs: &mut [Option<SyncSender<Slice>>],
        progress: &[AtomicU64],
        unfinished: &AtomicU64,
    ) {
        txs[slot] = None;
        progress[m].store(u64::MAX, Ordering::Release);
        unfinished.fetch_sub(1, Ordering::AcqRel);
    }

    /// [`retire_slot`](Worker::retire_slot) when the slot index must be
    /// looked up from the machine index.
    fn retire(
        &self,
        m: usize,
        txs: &mut [Option<SyncSender<Slice>>],
        progress: &[AtomicU64],
        unfinished: &AtomicU64,
    ) {
        let slot = self
            .owned
            .iter()
            .position(|&x| x == m)
            .expect("machine not owned");
        self.retire_slot(m, slot, txs, progress, unfinished);
    }
}

/// Runs the fleet and materializes the merged trace in memory.
///
/// A thin wrapper over [`generate_fleet_into`] for tests and small
/// runs.
///
/// # Errors
///
/// As [`generate_fleet_into`].
pub fn generate_fleet(
    config: &FleetConfig,
) -> Result<(Vec<TraceRecord>, FleetStats), GenerateError> {
    let mut records: Vec<TraceRecord> = Vec::new();
    let stats = generate_fleet_into(config, &mut records)?;
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(machines: usize, jobs: usize) -> FleetConfig {
        FleetConfig {
            machines,
            jobs,
            duration_hours: 0.01,
            user_scale: 0.15,
            epoch_ms: 5_000,
            fs_params: FsParams {
                data_frags: 64 * 1024,
                ninodes: 16_384,
                ..FsParams::bsd42()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_of_one_matches_generate_into() {
        let fleet = tiny(1, 1);
        let (merged, stats) = generate_fleet(&fleet).unwrap();
        let mut solo: Vec<TraceRecord> = Vec::new();
        let out = crate::engine::generate_into(&fleet.machine_config(0), &mut solo).unwrap();
        assert_eq!(merged, solo);
        assert_eq!(stats.records, out.records);
        assert_eq!(stats.machines[0].event_counts, out.event_counts);
    }

    #[test]
    fn jobs_do_not_change_the_bytes() {
        let (a, sa) = generate_fleet(&tiny(4, 1)).unwrap();
        let (b, sb) = generate_fleet(&tiny(4, 4)).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa.records, sb.records);
        assert!(!a.is_empty());
    }

    #[test]
    fn merged_stream_is_time_ordered_and_ids_disjoint() {
        let (recs, stats) = generate_fleet(&tiny(3, 2)).unwrap();
        assert!(recs.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(stats.records as usize, recs.len());
        // Ids land in their machine's stride band.
        let users: std::collections::BTreeSet<u32> = recs
            .iter()
            .filter_map(|r| match r.event {
                fstrace::TraceEvent::Open { user_id, .. } => Some(user_id.0 >> 16),
                _ => None,
            })
            .collect();
        assert!(users.len() >= 2, "expected several machines' users");
    }

    #[test]
    fn fleet_params_generate_without_errors() {
        // The memory-frugal fleet() geometry must still fit a full
        // per-machine workload: no ENOSPC or inode exhaustion.
        let config = FleetConfig {
            fs_params: FsParams::fleet(),
            ..tiny(3, 2)
        };
        let (recs, stats) = generate_fleet(&config).unwrap();
        assert!(!recs.is_empty());
        assert_eq!(stats.total_errors(), 0, "fleet() geometry ran out of room");
    }

    #[test]
    fn table_renders_a_row_per_machine() {
        let (_, stats) = generate_fleet(&tiny(2, 2)).unwrap();
        let table = stats.render_table();
        assert_eq!(table.lines().count(), 1 + 2 + 1);
        assert!(table.contains("fleet"));
    }
}
