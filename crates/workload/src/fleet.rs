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
//! 2. **Channel**: a worker thread slices its machines forward one
//!    *epoch* of simulated time at a time and sends each slice — the
//!    machine's final records and the progress they back — into one
//!    bounded FIFO channel shared by the fleet. A full channel blocks
//!    the producer (backpressure), never drops records.
//! 3. **Consumer**: the caller's thread reads the slices in arrival
//!    order. [`generate_fleet_into`] feeds them to a [`FleetMerge`],
//!    which keeps every machine's progress and releases records up to
//!    the fleet-wide watermark (the slowest machine's progress) in
//!    `(time, machine, arrival)` order. [`serve_fleet`] forwards each
//!    through its machine's `tracestored::IngestSink`, the one ingest
//!    session, to a `tracestored` daemon, which runs the same merge.
//!
//! The load-bearing property is *schedule independence*: the merged
//! trace is byte-identical for any worker count, because each machine's
//! stream is deterministic in isolation (seeded by
//! [`stream_seed`](crate::stream_seed), so fleet size doesn't perturb
//! it either) and the merge order is a pure function of the records,
//! not of thread timing. `--jobs 8` must equal `--jobs 1` exactly;
//! tests in this crate and `tests/fleet.rs` enforce it.
//!
//! Workers rendezvous at a barrier after every epoch, and each sends
//! its epoch-k slices before it reaches the barrier into epoch k+1, so
//! the channel delivers the fleet's slices epoch by epoch. The merge
//! therefore has every machine's epoch-k slice before any of epoch
//! k+1: the watermark trails the newest slice by one epoch at most, and
//! the merge holds about one epoch of fleet-wide output plus reorder
//! tails. When the consumer falls behind, the backlog waits in the
//! bounded channel and blocks the producers; it never piles into the
//! merge. The daemon relies on the same order: the input that holds its
//! watermark always has its next frames on the wire.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Barrier, OnceLock};

use bsdfs::FsParams;
use fstrace::{EventKind, FleetMerge, IdOffsets, RecordSink, Timestamp, TraceRecord};
use tracestored::IngestSink;

use crate::engine::{GenerateError, MachineSim, WorkloadConfig};
use crate::profile::MachineProfile;
use crate::rng::stream_seed;

/// Id stride between machines in the merged trace: open and file ids
/// get a huge stride (the per-machine id spaces are append-only and
/// never come close), user ids a 16-bit one.
const OPEN_STRIDE: u64 = 1 << 40;
const FILE_STRIDE: u64 = 1 << 40;
const USER_STRIDE: u32 = 1 << 16;

/// Depth of the slice channel, in epochs of the whole fleet: it holds
/// this many slices per machine before a send blocks.
const CHANNEL_EPOCHS: usize = 8;

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
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// One entry per machine, in machine order.
    pub machines: Vec<MachineStats>,
    /// Records written to the merged sink, or acknowledged by the
    /// daemon for [`serve_fleet`] (the sum of machine records).
    pub records: u64,
    /// Most records the fleet merge buffered at once (zero for
    /// [`serve_fleet`], whose merge runs in the daemon).
    pub merge_buffered_peak: u64,
    /// Most records in one slice (a machine's epoch, or its sealed
    /// tail).
    pub ring_occupancy_peak: u64,
    /// Largest observed progress spread between the fastest and the
    /// slowest machine, in simulated milliseconds (zero for
    /// [`serve_fleet`]).
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

/// The `workload.fleet.ring_occupancy_peak` gauge: most records in one
/// slice.
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

/// What a worker sends for one machine once per epoch: the records
/// that became final before `horizon_ms`. A machine's last slice has no
/// `horizon_ms` and ends its merge input: it carries the sealed tail, or
/// nothing when the machine failed. Progress travels with the records
/// that back it, so the merge can never apply a watermark ahead of
/// them.
struct Slice {
    machine: usize,
    records: Vec<TraceRecord>,
    horizon_ms: Option<u64>,
}

/// One worker's slice of the fleet: drives machines `w, w+workers,
/// w+2*workers, ...` forward one epoch per barrier round, sending each
/// machine's finalized records into the slice channel.
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
    let offsets = (0..config.machines).map(|i| config.machine_offsets(i));
    let mut merge = FleetMerge::new(offsets.collect());
    let (lag_peak, mut stats) = run_fleet(config, |slices| merge_slices(slices, &mut merge, sink))?;
    stats.merge_buffered_peak = merge.peak() as u64;
    stats.records = merge.finish(sink)?;
    stats.merge_lag_ms_peak = lag_peak;
    merge_lag_gauge().record(lag_peak);
    Ok(stats)
}

/// Streams the fleet into the `tracestored` daemon at `addr`, whose
/// merged trace is then byte-identical to what [`generate_fleet_into`]
/// writes for the same config.
///
/// Each machine holds one [`IngestSink`], one merge input of the
/// daemon, for the whole run: a `hello` with the machine's id offsets,
/// then its slices in the order the workers send them. Each slice's
/// records go out as one `records` frame (a slice past the sink's batch
/// size as several), then progress to the slice's horizon; a machine's
/// last slice ends its input with [`IngestSink::finish`]. Every
/// machine's epoch-k slice goes out before any epoch-k+1 slice, so the
/// input that holds the daemon's watermark always has its next frames
/// on the wire: the daemon's backpressure can slow the run but never
/// stall it, at any `jobs`. The returned stats count the records the
/// daemon acknowledged; their merge fields stay zero (the daemon
/// merged).
///
/// # Errors
///
/// Fails if a connection fails, the daemon acknowledges a machine's
/// input with a record count other than what was sent on it, or a
/// machine fails as in [`generate_fleet_into`].
pub fn serve_fleet(config: &FleetConfig, addr: &str) -> Result<FleetStats, GenerateError> {
    let mut sinks = (0..config.machines)
        .map(|m| {
            let name = format!("{}-{m}", config.machine_config(m).profile.trace_name);
            let (total, index) = (config.machines as u16, m as u16);
            IngestSink::connect(addr, total, index, config.machine_offsets(m), &name).map(Some)
        })
        .collect::<io::Result<Vec<Option<IngestSink>>>>()?;
    let (acked, mut stats) = run_fleet(config, |slices| {
        let mut acked = 0;
        for slice in slices {
            let sink = &mut sinks[slice.machine];
            let open = sink.as_mut().expect("no slice follows a machine's last");
            slice
                .records
                .iter()
                .try_for_each(|rec| open.write_record(rec))?;
            match slice.horizon_ms {
                Some(horizon_ms) => open.progress(horizon_ms)?,
                None => acked += sink.take().expect("checked above").finish()?,
            }
        }
        Ok(acked)
    })?;
    stats.records = acked;
    Ok(stats)
}

/// The fleet runner behind both consumers. Spawns `min(jobs,
/// machines)` workers that drive the machines epoch by epoch, and hands
/// their slices, in channel order, to `consume` on the calling thread.
/// The consumer returns at its first error: the channel's receiver goes
/// with it, which wakes any worker blocked on a full channel, and every
/// worker retires its machines at its next failed send, so the run ends
/// within an epoch. Returns what `consume` returned and the stats of
/// the machines and the slices; the consumer fills in the rest.
fn run_fleet<T>(
    config: &FleetConfig,
    consume: impl FnOnce(&mut dyn Iterator<Item = Slice>) -> io::Result<T>,
) -> Result<(T, FleetStats), GenerateError> {
    let n = config.machines;
    assert!(n > 0, "fleet needs at least one machine");
    assert!(config.epoch_ms > 0, "epoch must be positive");
    fleet_machines_gauge().record(n as u64);

    let workers = config.jobs.clamp(1, n);
    let barrier = Barrier::new(workers);
    let unfinished = AtomicU64::new(n as u64);
    let (tx, rx) = mpsc::sync_channel::<Slice>(CHANNEL_EPOCHS * n);
    let mut slice_peak = 0u64;

    let (consumed, worker_outs) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let worker = Worker {
                    config,
                    owned: (w..n).step_by(workers).collect(),
                };
                let tx = tx.clone();
                let (barrier, unfinished) = (&barrier, &unfinished);
                scope.spawn(move || worker.run(tx, barrier, unfinished))
            })
            .collect();
        drop(tx);
        let consumed = consume(
            &mut rx
                .into_iter()
                .inspect(|slice| slice_peak = slice_peak.max(slice.records.len() as u64)),
        );
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect();
        (consumed, outs)
    });

    let consumed = consumed?;
    let mut machines: Vec<MachineStats> = Vec::with_capacity(n);
    for out in worker_outs {
        machines.extend(out?);
    }
    machines.sort_by_key(|m| m.machine);
    ring_occupancy_gauge().record(slice_peak);
    let stats = FleetStats {
        machines,
        ring_occupancy_peak: slice_peak,
        ..FleetStats::default()
    };
    Ok((consumed, stats))
}

/// The local consumer. Feeds each slice to `merge` in arrival order:
/// its records, then its machine's progress, or the end of that
/// machine's input on its last slice; then releases what the watermark
/// allows to `sink`. Returns the widest progress spread between
/// machines, in simulated milliseconds, or the sink's first error.
fn merge_slices(
    slices: impl IntoIterator<Item = Slice>,
    merge: &mut FleetMerge,
    sink: &mut dyn RecordSink,
) -> io::Result<u64> {
    let mut lag_peak = 0u64;
    for slice in slices {
        for rec in &slice.records {
            merge.push(slice.machine, rec);
        }
        match slice.horizon_ms {
            Some(horizon_ms) => {
                merge.set_progress(slice.machine, horizon_ms);
                // Slices arrive epoch by epoch, so this machine leads
                // the fleet and the watermark is the slowest machine.
                if let Some(w) = merge.watermark() {
                    lag_peak = lag_peak.max(Timestamp::from_ms(horizon_ms).since(w));
                }
            }
            None => merge.finish_input(slice.machine),
        }
        merge.release(sink)?;
    }
    Ok(lag_peak)
}

impl Worker<'_> {
    /// Epoch loop: advance every owned machine to the next horizon,
    /// send its finalized records with its progress, and rendezvous.
    /// Once a send fails, the consumer has returned: the worker retires
    /// its machines and only keeps the barrier rounds until no machine
    /// of the fleet is left.
    fn run(
        &self,
        tx: SyncSender<Slice>,
        barrier: &Barrier,
        unfinished: &AtomicU64,
    ) -> Result<Vec<MachineStats>, GenerateError> {
        // A send fails only once the consumer has returned, and then
        // nothing is left to keep the records for. A full channel
        // blocks here: backpressure, not loss.
        let send = |machine, records, horizon_ms| {
            tx.send(Slice {
                machine,
                records,
                horizon_ms,
            })
            .is_ok()
        };
        // A machine's last slice ends its merge input.
        let finish = |machine, records| {
            let sent = send(machine, records, None);
            unfinished.fetch_sub(1, Ordering::AcqRel);
            sent
        };
        let mut consumer_gone = false;
        let mut stats = Vec::with_capacity(self.owned.len());
        let mut first_err: Option<GenerateError> = None;
        let mut sims: Vec<Option<MachineSim>> = Vec::with_capacity(self.owned.len());
        for &m in &self.owned {
            match MachineSim::new(&self.config.machine_config(m)) {
                Ok(sim) => sims.push(Some(sim)),
                Err(e) => {
                    sims.push(None);
                    consumer_gone |= !finish(m, Vec::new());
                    first_err.get_or_insert(e);
                }
            }
        }

        let mut t = self.config.epoch_ms;
        loop {
            for (slot, &m) in self.owned.iter().enumerate() {
                if consumer_gone {
                    break;
                }
                let Some(sim) = sims[slot].as_mut() else {
                    continue;
                };
                let mut batch: Vec<TraceRecord> = Vec::new();
                let step = sim
                    .advance(t, &mut batch)
                    .and_then(|()| sim.flush_to(t, &mut batch).map_err(GenerateError::Io));
                if let Err(e) = step {
                    sims[slot] = None;
                    consumer_gone |= !finish(m, Vec::new());
                    first_err.get_or_insert(e);
                    continue;
                }
                if !sim.idle() {
                    // Every epoch sends a slice, empty or not: it
                    // carries the machine's progress.
                    consumer_gone |= !send(m, batch, Some(t));
                    continue;
                }
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
                        first_err.get_or_insert(e);
                    }
                }
                consumer_gone |= !finish(m, batch);
            }
            if consumer_gone {
                // Retire the machines still running: the fleet's count
                // reaches zero once every worker has seen its send fail.
                for sim in &mut sims {
                    if sim.take().is_some() {
                        unfinished.fetch_sub(1, Ordering::AcqRel);
                    }
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
    use std::sync::mpsc::TryRecvError;
    use std::time::Duration;

    use fstrace::{OpenId, TraceEvent};

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

    /// A sink that refuses every record.
    struct RefusingSink;

    impl RecordSink for RefusingSink {
        fn write_record(&mut self, _: &TraceRecord) -> io::Result<()> {
            Err(io::Error::other("sink refuses records"))
        }
    }

    /// A sink error ends the run within an epoch: the merge returns at
    /// the error, and each worker retires its machines at its next
    /// failed send. Simulated to its end, this fleet takes minutes.
    #[test]
    fn sink_error_stops_the_fleet_within_an_epoch() {
        let config = FleetConfig {
            duration_hours: 2_000.0,
            ..tiny(2, 2)
        };
        let (tx, rx) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let _ = tx.send(generate_fleet_into(&config, &mut RefusingSink));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the fleet ran on for 10 s after its sink failed");
        run.join().expect("the fleet thread panicked");
        let err = result.expect_err("the sink refuses every record");
        assert!(err.to_string().contains("sink refuses records"), "{err}");
    }

    #[test]
    fn table_renders_a_row_per_machine() {
        let (_, stats) = generate_fleet(&tiny(2, 2)).unwrap();
        let table = stats.render_table();
        assert_eq!(table.lines().count(), 1 + 2 + 1);
        assert!(table.contains("fleet"));
    }

    /// A stalled producer gates the merge (the watermark waits on the
    /// slowest machine) without unbounded buffering, under the schedule
    /// that stresses the bound most. The merge loop starts only after
    /// both producers have filled the slice channel, so it begins far
    /// behind; from then on producer 1 sends an epoch only when the
    /// merge is about to block on an empty channel, so it is the
    /// stalled machine. Each producer sends its epoch before the
    /// barrier into the next — the fleet runner's discipline — so the
    /// merge receives the epochs in order and its peak stays near one
    /// epoch of output per machine, far below the total, however the
    /// threads are scheduled.
    #[test]
    fn stalled_producer_gates_merge_without_unbounded_buffering() {
        const EPOCHS: u64 = 30;
        const PER_EPOCH: u64 = 50;
        const EPOCH_MS: u64 = 1_000;
        const RING: u64 = 4;
        let offsets = vec![
            IdOffsets::default(),
            IdOffsets {
                open: 1 << 40,
                file: 1 << 40,
                user: 1 << 16,
            },
        ];
        let mut merge = FleetMerge::new(offsets);
        let barrier = Barrier::new(2);
        // Both producers and the merge pass this once the channel is
        // full.
        let start = Barrier::new(3);
        // After the start, producer 1 sends one epoch per token.
        let (token_tx, token_rx) = mpsc::sync_channel::<()>(1);
        let mut token_rx = Some(token_rx);
        let (tx, rx) = mpsc::sync_channel::<Slice>(2 * RING as usize);
        let mut sink: Vec<TraceRecord> = Vec::new();

        std::thread::scope(|scope| {
            for machine in 0..2 {
                let tx = tx.clone();
                let tokens = if machine == 1 { token_rx.take() } else { None };
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || {
                    for e in 0..EPOCHS {
                        if e >= RING {
                            if let Some(tokens) = &tokens {
                                tokens.recv().unwrap();
                            }
                        }
                        let base = e * EPOCH_MS;
                        let records: Vec<TraceRecord> = (0..PER_EPOCH)
                            .map(|k| {
                                TraceRecord::new(
                                    base + k * (EPOCH_MS / PER_EPOCH),
                                    TraceEvent::Close {
                                        open_id: OpenId(e * PER_EPOCH + k),
                                        final_pos: 0,
                                    },
                                )
                            })
                            .collect();
                        let horizon_ms = (e + 1 < EPOCHS).then_some((e + 1) * EPOCH_MS);
                        tx.send(Slice {
                            machine,
                            records,
                            horizon_ms,
                        })
                        .unwrap();
                        if e + 1 == RING {
                            start.wait();
                        }
                        barrier.wait();
                    }
                });
            }
            drop(tx);
            start.wait();
            // The channel as the merge loop sees it, except that when it
            // is about to block it lets the stalled producer send.
            let slices = std::iter::from_fn(|| match rx.try_recv() {
                Ok(slice) => Some(slice),
                Err(TryRecvError::Empty) => {
                    let _ = token_tx.try_send(());
                    rx.recv().ok()
                }
                Err(TryRecvError::Disconnected) => None,
            });
            merge_slices(slices, &mut merge, &mut sink).unwrap();
        });
        let peak = merge.peak();
        merge.finish(&mut sink).unwrap();

        let total = (2 * EPOCHS * PER_EPOCH) as usize;
        assert_eq!(sink.len(), total);
        assert!(sink.windows(2).all(|w| w[0].time <= w[1].time));
        // Bounded: the merge never holds more than a few epochs of
        // records — nowhere near the whole trace.
        let bound = (6 * PER_EPOCH) as usize;
        assert!(
            peak <= bound,
            "merge buffered {peak} records (bound {bound}, total {total})"
        );
        assert!(peak > 0);
        // The high-water mark is exported for operators.
        let snap = obs::global().snapshot();
        assert!(snap
            .gauge("fstrace.fleet.buffered_records_peak")
            .is_some_and(|v| v >= peak as u64));
    }
}
