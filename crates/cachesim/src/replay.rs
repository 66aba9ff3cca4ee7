//! Converting a logical trace into block accesses and replaying them.
//!
//! Each sequential run reconstructed from the trace is billed at the
//! time of the `seek` or `close` that ended it (Section 3.1). How a run
//! reaches the cache depends on the configured [`Fidelity`]
//! (DESIGN.md §15):
//!
//! * [`Fidelity::Block`] splits runs into block accesses of the
//!   configured size with per-block byte accounting (Section 6.1: "we
//!   assumed that programs made requests in units of the cache block
//!   size") — the paper's simulator, kept bit-identical across the
//!   fidelity refactor.
//! * [`Fidelity::Syscall`] emits one [`ReplayEvent::Op`] per run; the
//!   replayer touches the same covering block range but skips byte
//!   accounting.
//! * [`Fidelity::Open`] emits one [`ReplayEvent::Op`] per open-close
//!   session, reconstructed from the session's transfer total.

use fstrace::{AccessMode, FastMap, FileId, OpenId, Trace, TraceEvent, TraceRecord};

use crate::cache::{BlockCache, BlockId};
use crate::config::{CacheConfig, Fidelity, RwHandling};
use crate::metrics::CacheMetrics;

/// One step of the replay, in time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEvent {
    /// The file's size became known (an `open` recorded it).
    SizeHint {
        /// Event time (ms).
        time_ms: u64,
        /// The file.
        file: FileId,
        /// Size at open.
        size: u64,
    },
    /// Bytes were transferred to or from a file.
    Transfer {
        /// Billing time (ms): the ending `seek`/`close`.
        time_ms: u64,
        /// The file.
        file: FileId,
        /// Starting byte offset.
        offset: u64,
        /// Length in bytes (positive).
        len: u64,
        /// `true` for writes.
        write: bool,
    },
    /// A logical operation replayed as a unit (syscall/open fidelity):
    /// the replayer accesses the covering block run without per-block
    /// byte accounting — requests are quantized to block units at op
    /// granularity, so writes never pay a read-modify-write fetch.
    Op {
        /// Billing time (ms): the ending `seek`/`close`.
        time_ms: u64,
        /// The file.
        file: FileId,
        /// Starting byte offset of the extent.
        offset: u64,
        /// Extent length in bytes (positive).
        len: u64,
        /// `true` for writes.
        write: bool,
    },
    /// The file was shortened (or emptied) in place.
    TruncateTo {
        /// Event time (ms).
        time_ms: u64,
        /// The file.
        file: FileId,
        /// New length in bytes.
        new_len: u64,
    },
    /// The file was deleted.
    Delete {
        /// Event time (ms).
        time_ms: u64,
        /// The file.
        file: FileId,
    },
}

impl ReplayEvent {
    /// The event's billing time in milliseconds.
    pub(crate) fn time(&self) -> u64 {
        match *self {
            ReplayEvent::SizeHint { time_ms, .. }
            | ReplayEvent::Transfer { time_ms, .. }
            | ReplayEvent::Op { time_ms, .. }
            | ReplayEvent::TruncateTo { time_ms, .. }
            | ReplayEvent::Delete { time_ms, .. } => time_ms,
        }
    }
}

/// Process-wide count of trace expansions started (one per
/// [`EventExpander`], and thus one per [`replay_events`] call),
/// exported via [`obs::global`] as `cachesim.replay.expansions`.
///
/// Expansion dominates sweep setup cost, so the sweep engine is careful
/// to do it once per (trace, expansion-relevant options) group; tests
/// read this counter to verify that sharing actually happens. Counts
/// monotonically across the whole process — callers should diff
/// before/after values rather than compare absolutes.
fn expansions_counter() -> &'static obs::Counter {
    static CELL: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    CELL.get_or_init(|| obs::global().counter("cachesim.replay.expansions"))
}

/// Returns the process-wide [`replay_events`] invocation count.
pub fn expansion_count() -> u64 {
    expansions_counter().get()
}

/// Expands a trace into time-ordered replay events under a configuration
/// (the `rw_handling` and `simulate_paging` options affect the
/// expansion).
///
/// A thin wrapper over the streaming [`EventExpander`]: the events are
/// exactly what the expander emits, in the same order, so replaying
/// this vector and streaming the records produce identical metrics.
pub fn replay_events(trace: &Trace, config: &CacheConfig) -> Vec<ReplayEvent> {
    let mut expander = EventExpander::new(config);
    let mut events: Vec<ReplayEvent> = Vec::new();
    for rec in trace.records() {
        expander.feed(rec, &mut |ev| events.push(ev));
    }
    events
}

/// Expansion options that direct run billing, shared by every
/// fidelity's expander.
#[derive(Clone, Copy)]
struct Billing {
    rw_handling: RwHandling,
    simulate_paging: bool,
}

impl Billing {
    /// Calls `emit` once per billed direction for an access mode —
    /// reads, writes, or (read-write under [`RwHandling::Both`]) the
    /// read before the write.
    fn directions(&self, mode: AccessMode, emit: &mut impl FnMut(bool)) {
        match (mode, self.rw_handling) {
            (AccessMode::ReadOnly, _) | (AccessMode::ReadWrite, RwHandling::Read) => {
                emit(false);
            }
            (AccessMode::WriteOnly, _) | (AccessMode::ReadWrite, RwHandling::Write) => {
                emit(true);
            }
            (AccessMode::ReadWrite, RwHandling::Both) => {
                emit(false);
                emit(true);
            }
        }
    }
}

/// In-flight position tracking for one open file during expansion.
#[derive(Clone, Copy)]
struct PendingOpen {
    file: FileId,
    mode: AccessMode,
    pos: u64,
    /// Total bytes transferred over the session's runs — the
    /// open-fidelity expander's session-reconstruction input.
    total: u64,
}

/// A sequential run ended by a `seek` or `close` (Section 3.1).
struct Run {
    file: FileId,
    mode: AccessMode,
    offset: u64,
    len: u64,
}

/// The open-table machinery shared by every fidelity's expander:
/// tracks in-flight opens, reconstructs the sequential runs that
/// `seek`/`close` events bill, and accumulates per-session transfer
/// totals. Memory is O(simultaneously open files), never O(records).
///
/// Session state lives in an arena: `slots` holds the [`PendingOpen`]
/// payloads, `free` recycles the indices of closed sessions, and the
/// small `index` map only stores `OpenId -> u32` slot handles. An
/// open/close pair therefore allocates nothing in steady state — the
/// slot vector grows once to the high-water mark of simultaneously
/// open files and is reused for the rest of the trace. Slot indices
/// are stable for the lifetime of their session.
#[derive(Default)]
struct OpenTable {
    slots: Vec<PendingOpen>,
    free: Vec<u32>,
    index: FastMap<OpenId, u32>,
}

impl OpenTable {
    /// Starts tracking a session at position 0.
    fn open(&mut self, open_id: OpenId, file: FileId, mode: AccessMode) {
        let p = PendingOpen {
            file,
            mode,
            pos: 0,
            total: 0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = p;
                slot
            }
            None => {
                self.slots.push(p);
                (self.slots.len() - 1) as u32
            }
        };
        if let Some(old) = self.index.insert(open_id, slot) {
            // A re-used OpenId overwrote an unclosed session, matching
            // the map-based table's insert semantics: free the orphan.
            self.free.push(old);
        }
    }

    /// Ends the run a `seek` bills (if any) and repositions.
    fn seek(&mut self, open_id: OpenId, old_pos: u64, new_pos: u64) -> Option<Run> {
        let slot = *self.index.get(&open_id)?;
        let p = &mut self.slots[slot as usize];
        let run = if old_pos > p.pos {
            let len = old_pos - p.pos;
            p.total += len;
            Some(Run {
                file: p.file,
                mode: p.mode,
                offset: p.pos,
                len,
            })
        } else {
            None
        };
        p.pos = new_pos;
        run
    }

    /// Ends the session a `close` ends, returning it together with its
    /// final run (if any), already folded into the session total.
    fn close(&mut self, open_id: OpenId, final_pos: u64) -> Option<(PendingOpen, Option<Run>)> {
        let slot = self.index.remove(&open_id)?;
        self.free.push(slot);
        let p = &mut self.slots[slot as usize];
        let run = if final_pos > p.pos {
            let len = final_pos - p.pos;
            p.total += len;
            Some(Run {
                file: p.file,
                mode: p.mode,
                offset: p.pos,
                len,
            })
        } else {
            None
        };
        Some((*p, run))
    }
}

/// Emits the open-record events every fidelity shares: the size hint,
/// then a zeroing truncate when the open created/truncated the file
/// (cached blocks of the old data are stale).
fn open_prologue(
    time_ms: u64,
    file: FileId,
    size: u64,
    created: bool,
    emit: &mut impl FnMut(ReplayEvent),
) {
    emit(ReplayEvent::SizeHint {
        time_ms,
        file,
        size,
    });
    if created {
        emit(ReplayEvent::TruncateTo {
            time_ms,
            file,
            new_len: 0,
        });
    }
}

/// The paper's block-fidelity expansion ([`Fidelity::Block`]): each
/// billed run becomes [`ReplayEvent::Transfer`]s that the replayer
/// splits into block accesses with per-block byte accounting. This
/// path is kept bit-identical to the pre-refactor `EventExpander`
/// (enforced by the legacy-equivalence proptests in
/// `tests/fidelity.rs`).
pub struct BlockExpander {
    billing: Billing,
    table: OpenTable,
}

impl BlockExpander {
    fn feed(&mut self, rec: &TraceRecord, emit: &mut impl FnMut(ReplayEvent)) {
        let time_ms = rec.time.as_ms();
        match rec.event {
            TraceEvent::Open {
                open_id,
                file_id,
                mode,
                size,
                created,
                ..
            } => {
                open_prologue(time_ms, file_id, size, created, emit);
                self.table.open(open_id, file_id, mode);
            }
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            } => {
                if let Some(run) = self.table.seek(open_id, old_pos, new_pos) {
                    self.emit_run(time_ms, &run, emit);
                }
            }
            TraceEvent::Close { open_id, final_pos } => {
                if let Some((_, Some(run))) = self.table.close(open_id, final_pos) {
                    self.emit_run(time_ms, &run, emit);
                }
            }
            TraceEvent::Unlink { file_id, .. } => emit(ReplayEvent::Delete {
                time_ms,
                file: file_id,
            }),
            TraceEvent::Truncate {
                file_id, new_len, ..
            } => emit(ReplayEvent::TruncateTo {
                time_ms,
                file: file_id,
                new_len,
            }),
            TraceEvent::Execve { file_id, size, .. }
                if self.billing.simulate_paging && size > 0 =>
            {
                emit(ReplayEvent::Transfer {
                    time_ms,
                    file: file_id,
                    offset: 0,
                    len: size,
                    write: false,
                });
            }
            _ => {}
        }
    }

    /// Emits the transfer(s) billed for one sequential run.
    fn emit_run(&self, time_ms: u64, run: &Run, emit: &mut impl FnMut(ReplayEvent)) {
        self.billing.directions(run.mode, &mut |write| {
            emit(ReplayEvent::Transfer {
                time_ms,
                file: run.file,
                offset: run.offset,
                len: run.len,
                write,
            })
        });
    }
}

/// Syscall-fidelity expansion ([`Fidelity::Syscall`]): one
/// [`ReplayEvent::Op`] per billed run, carrying the run's extent. Runs
/// are billed at the same points and in the same order as at block
/// fidelity — only the per-block decomposition is dropped.
pub struct SyscallExpander {
    billing: Billing,
    table: OpenTable,
}

impl SyscallExpander {
    fn feed(&mut self, rec: &TraceRecord, emit: &mut impl FnMut(ReplayEvent)) {
        let time_ms = rec.time.as_ms();
        match rec.event {
            TraceEvent::Open {
                open_id,
                file_id,
                mode,
                size,
                created,
                ..
            } => {
                open_prologue(time_ms, file_id, size, created, emit);
                self.table.open(open_id, file_id, mode);
            }
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            } => {
                if let Some(run) = self.table.seek(open_id, old_pos, new_pos) {
                    self.emit_run(time_ms, &run, emit);
                }
            }
            TraceEvent::Close { open_id, final_pos } => {
                if let Some((_, Some(run))) = self.table.close(open_id, final_pos) {
                    self.emit_run(time_ms, &run, emit);
                }
            }
            TraceEvent::Unlink { file_id, .. } => emit(ReplayEvent::Delete {
                time_ms,
                file: file_id,
            }),
            TraceEvent::Truncate {
                file_id, new_len, ..
            } => emit(ReplayEvent::TruncateTo {
                time_ms,
                file: file_id,
                new_len,
            }),
            TraceEvent::Execve { file_id, size, .. }
                if self.billing.simulate_paging && size > 0 =>
            {
                emit(ReplayEvent::Op {
                    time_ms,
                    file: file_id,
                    offset: 0,
                    len: size,
                    write: false,
                });
            }
            _ => {}
        }
    }

    /// Emits the op(s) billed for one sequential run.
    fn emit_run(&self, time_ms: u64, run: &Run, emit: &mut impl FnMut(ReplayEvent)) {
        self.billing.directions(run.mode, &mut |write| {
            emit(ReplayEvent::Op {
                time_ms,
                file: run.file,
                offset: run.offset,
                len: run.len,
                write,
            })
        });
    }
}

/// Open-fidelity expansion ([`Fidelity::Open`]): one
/// [`ReplayEvent::Op`] per open-close session, reconstructed from the
/// session's transfer total and billed at close time as a single
/// sequential extent from offset 0. Seeks contribute to the total but
/// emit nothing; sessions still open when the trace ends emit nothing
/// (mirroring block fidelity, where an unclosed open's final run is
/// never billed).
pub struct OpenExpander {
    billing: Billing,
    table: OpenTable,
}

impl OpenExpander {
    fn feed(&mut self, rec: &TraceRecord, emit: &mut impl FnMut(ReplayEvent)) {
        let time_ms = rec.time.as_ms();
        match rec.event {
            TraceEvent::Open {
                open_id,
                file_id,
                mode,
                size,
                created,
                ..
            } => {
                open_prologue(time_ms, file_id, size, created, emit);
                self.table.open(open_id, file_id, mode);
            }
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            } => {
                // Accumulates the run into the session total only.
                let _ = self.table.seek(open_id, old_pos, new_pos);
            }
            TraceEvent::Close { open_id, final_pos } => {
                if let Some((session, _)) = self.table.close(open_id, final_pos) {
                    if session.total > 0 {
                        self.billing.directions(session.mode, &mut |write| {
                            emit(ReplayEvent::Op {
                                time_ms,
                                file: session.file,
                                offset: 0,
                                len: session.total,
                                write,
                            })
                        });
                    }
                }
            }
            TraceEvent::Unlink { file_id, .. } => emit(ReplayEvent::Delete {
                time_ms,
                file: file_id,
            }),
            TraceEvent::Truncate {
                file_id, new_len, ..
            } => emit(ReplayEvent::TruncateTo {
                time_ms,
                file: file_id,
                new_len,
            }),
            TraceEvent::Execve { file_id, size, .. }
                if self.billing.simulate_paging && size > 0 =>
            {
                emit(ReplayEvent::Op {
                    time_ms,
                    file: file_id,
                    offset: 0,
                    len: size,
                    write: false,
                });
            }
            _ => {}
        }
    }
}

/// Streaming trace expansion: feed records in time order, receive the
/// replay events they imply, in a canonical per-record order. One
/// variant per [`Fidelity`], all sharing the `OpenTable` run/session
/// reconstruction; [`EventExpander::new`] picks the variant from
/// `config.fidelity`.
///
/// Each record's events are emitted the moment the record arrives:
///
/// * `open` → [`ReplayEvent::SizeHint`], then a zeroing
///   [`ReplayEvent::TruncateTo`] if the open created/truncated the file;
/// * `seek`/`close` → the [`ReplayEvent::Transfer`]s (block fidelity)
///   or [`ReplayEvent::Op`]s (syscall fidelity) for the sequential run
///   the event bills, or — at open fidelity — one [`ReplayEvent::Op`]
///   per `close` covering the whole session (for read-write opens under
///   [`RwHandling::Both`], the read precedes the write);
/// * `unlink` → [`ReplayEvent::Delete`];
/// * `truncate` → [`ReplayEvent::TruncateTo`];
/// * `execve` → a paging read when `simulate_paging` is on.
///
/// Event times are therefore nondecreasing whenever the input records
/// are, which is what [`Replayer`] and [`crate::MissSeries`] require.
/// Memory is O(simultaneously open files), never O(records) — this is
/// what lets a sweep cell consume a multi-day trace straight from disk.
pub enum EventExpander {
    /// Block-fidelity expansion (the paper's simulator).
    Block(BlockExpander),
    /// Syscall-fidelity expansion.
    Syscall(SyscallExpander),
    /// Open-fidelity expansion.
    Open(OpenExpander),
}

impl EventExpander {
    /// Creates the expander for a configuration's fidelity, counting
    /// one expansion in `cachesim.replay.expansions`.
    pub fn new(config: &CacheConfig) -> Self {
        expansions_counter().inc();
        let billing = Billing {
            rw_handling: config.rw_handling,
            simulate_paging: config.simulate_paging,
        };
        let table = OpenTable::default();
        match config.fidelity {
            Fidelity::Block => EventExpander::Block(BlockExpander { billing, table }),
            Fidelity::Syscall => EventExpander::Syscall(SyscallExpander { billing, table }),
            Fidelity::Open => EventExpander::Open(OpenExpander { billing, table }),
        }
    }

    /// Feeds one record, passing each replay event it implies to `emit`.
    pub fn feed(&mut self, rec: &TraceRecord, emit: &mut impl FnMut(ReplayEvent)) {
        match self {
            EventExpander::Block(e) => e.feed(rec, emit),
            EventExpander::Syscall(e) => e.feed(rec, emit),
            EventExpander::Open(e) => e.feed(rec, emit),
        }
    }

    /// Feeds every record of a decoded block, in order — the columnar
    /// twin of [`feed`] for batched decode pipelines. Materializes each
    /// record from the block's columns on the stack; no allocation.
    ///
    /// [`feed`]: EventExpander::feed
    pub fn feed_block(&mut self, block: &fstrace::RecordBlock, emit: &mut impl FnMut(ReplayEvent)) {
        for i in 0..block.len() {
            self.feed(&block.get(i), emit);
        }
    }
}

/// Incremental replay state: a cache plus the per-file size tracking
/// needed for whole-block-overwrite detection.
///
/// [`Simulator::run_events`] drives this to completion; time-series
/// measurements ([`crate::MissSeries`]) step it event by event.
pub struct Replayer {
    cache: BlockCache,
    config: CacheConfig,
    sizes: FastMap<FileId, u64>,
    end_time: u64,
}

impl Replayer {
    /// Creates replay state for a configuration.
    pub fn new(config: &CacheConfig) -> Self {
        Replayer {
            cache: BlockCache::new(config),
            config: config.clone(),
            sizes: FastMap::default(),
            end_time: 0,
        }
    }

    /// Read access to the cache (metrics, contents).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Finalizes residency accounting and returns the metrics.
    pub fn finish(mut self) -> CacheMetrics {
        self.cache.finish(self.end_time);
        self.cache.metrics
    }

    /// Applies one replay event.
    pub fn step(&mut self, ev: &ReplayEvent) {
        let bs = self.config.block_size;
        let config = &self.config;
        let cache = &mut self.cache;
        let sizes = &mut self.sizes;
        self.end_time = self.end_time.max(ev.time());
        match *ev {
            ReplayEvent::SizeHint { file, size, .. } => {
                let e = sizes.entry(file).or_insert(size);
                *e = (*e).max(size);
            }
            ReplayEvent::Transfer {
                time_ms,
                file,
                offset,
                len,
                write,
            } => {
                if len == 0 {
                    return;
                }
                let size = sizes.entry(file).or_insert(0);
                let end = offset + len;
                let old_size = *size;
                *size = old_size.max(end);
                for block in offset / bs..=(end - 1) / bs {
                    let id = BlockId { file, block };
                    if write {
                        let bstart = block * bs;
                        let bend = bstart + bs;
                        let old_valid = old_size.saturating_sub(bstart).min(bs);
                        let covered_hi = end.min(bend);
                        // No fetch is needed when the write covers
                        // every previously valid byte of the block
                        // (including the trivial case of none).
                        let whole = old_valid == 0
                            || (offset <= bstart && covered_hi >= bstart + old_valid);
                        cache.write(id, whole, time_ms);
                    } else {
                        cache.read(id, time_ms);
                    }
                }
            }
            ReplayEvent::Op {
                time_ms,
                file,
                offset,
                len,
                write,
            } => {
                if len == 0 {
                    return;
                }
                // Op-level replay (syscall/open fidelity): touch the
                // covering block run without byte accounting. Requests
                // are quantized to block units at op granularity — the
                // Section 6.1 assumption applied per op — so every
                // write counts as whole and the per-file size map is
                // never consulted.
                let end = offset + len;
                for block in offset / bs..=(end - 1) / bs {
                    let id = BlockId { file, block };
                    if write {
                        cache.write(id, true, time_ms);
                    } else {
                        cache.read(id, time_ms);
                    }
                }
            }
            ReplayEvent::TruncateTo {
                time_ms,
                file,
                new_len,
            } => {
                let size = sizes.entry(file).or_insert(0);
                *size = (*size).min(new_len);
                if config.invalidate_on_delete {
                    if new_len == 0 {
                        cache.invalidate_file(file, time_ms);
                    } else {
                        cache.invalidate_beyond(file, new_len.div_ceil(bs), time_ms);
                    }
                }
            }
            ReplayEvent::Delete { time_ms, file } => {
                sizes.remove(&file);
                if config.invalidate_on_delete {
                    cache.invalidate_file(file, time_ms);
                }
            }
        }
    }
}

/// The trace-driven simulator: expands a trace and replays it against a
/// [`BlockCache`].
pub struct Simulator;

impl Simulator {
    /// Runs one full simulation and returns its metrics.
    pub fn run(trace: &Trace, config: &CacheConfig) -> CacheMetrics {
        Self::run_stream(trace.records(), config)
    }

    /// Replays pre-expanded events (reusable across configurations that
    /// share `rw_handling`/`simulate_paging`).
    pub fn run_events(events: &[ReplayEvent], config: &CacheConfig) -> CacheMetrics {
        let mut r = Replayer::new(config);
        for ev in events {
            r.step(ev);
        }
        r.finish()
    }

    /// Expands and replays records as they stream past, holding only
    /// O(open files) state — the bounded-memory twin of [`Simulator::run`].
    pub fn run_stream<I>(records: I, config: &CacheConfig) -> CacheMetrics
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<TraceRecord>,
    {
        let mut expander = EventExpander::new(config);
        let mut r = Replayer::new(config);
        for rec in records {
            expander.feed(std::borrow::Borrow::borrow(&rec), &mut |ev| r.step(&ev));
        }
        r.finish()
    }

    /// Expands and replays columnar record blocks — the batched-decode
    /// twin of [`Simulator::run_stream`], fed straight from
    /// `tracestore::Archive::blocks` or any [`fstrace::RecordBlock`]
    /// producer.
    pub fn run_blocks<I>(blocks: I, config: &CacheConfig) -> CacheMetrics
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<fstrace::RecordBlock>,
    {
        let mut expander = EventExpander::new(config);
        let mut r = Replayer::new(config);
        for block in blocks {
            expander.feed_block(std::borrow::Borrow::borrow(&block), &mut |ev| r.step(&ev));
        }
        r.finish()
    }

    /// Replays a refillable block source through one reused column
    /// buffer — the allocation-free twin of [`Simulator::run_blocks`].
    /// With a pipelined `tracestore::ArchiveBlocks` source the drained
    /// buffer is handed back to the producer on every refill, so the
    /// steady state allocates nothing.
    pub fn run_fill<S: fstrace::FillBlock>(mut source: S, config: &CacheConfig) -> CacheMetrics {
        let mut expander = EventExpander::new(config);
        let mut r = Replayer::new(config);
        let mut block = fstrace::RecordBlock::new();
        while source.fill_next(&mut block) {
            expander.feed_block(&block, &mut |ev| r.step(&ev));
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WritePolicy;
    use fstrace::TraceBuilder;

    fn cfg() -> CacheConfig {
        CacheConfig {
            cache_bytes: 64 * 1024,
            block_size: 4096,
            write_policy: WritePolicy::DelayedWrite,
            ..CacheConfig::default()
        }
    }

    /// Whole-file write then delete: delayed-write never touches disk.
    #[test]
    fn temp_file_never_reaches_disk() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(100, o, 12_000);
        b.unlink(5_000, f, u);
        let m = Simulator::run(&b.finish(), &cfg());
        assert_eq!(m.logical_writes, 3); // Three 4 kB blocks.
        assert_eq!(m.disk_reads, 0); // All whole-block writes.
        assert_eq!(m.disk_writes, 0); // Dropped before any flush.
        assert_eq!(m.dirty_blocks_never_written, 3);
        assert_eq!(m.miss_ratio(), 0.0);
    }

    /// The same temp file under write-through pays for every block.
    #[test]
    fn temp_file_write_through() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(100, o, 12_000);
        b.unlink(5_000, f, u);
        let mut config = cfg();
        config.write_policy = WritePolicy::WriteThrough;
        let m = Simulator::run(&b.finish(), &config);
        assert_eq!(m.disk_writes, 3);
        assert!((m.miss_ratio() - 1.0).abs() < 1e-12);
    }

    /// Re-reading a file hits the cache.
    #[test]
    fn reread_hits() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        for t in [0u64, 1_000, 2_000] {
            let o = b.open(t, f, u, AccessMode::ReadOnly, 8_192, false);
            b.close(t + 100, o, 8_192);
        }
        let m = Simulator::run(&b.finish(), &cfg());
        assert_eq!(m.logical_reads, 6);
        assert_eq!(m.disk_reads, 2);
        assert_eq!(m.read_hits, 4);
    }

    /// A partial overwrite of existing data must fetch the block.
    #[test]
    fn partial_overwrite_fetches() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        // File exists with 8 kB; overwrite bytes 1000..2000 in place.
        let o = b.open(0, f, u, AccessMode::ReadWrite, 8_192, false);
        b.seek(10, o, 0, 1_000);
        b.close(20, o, 2_000);
        let m = Simulator::run(&b.finish(), &cfg());
        assert_eq!(m.logical_writes, 1);
        assert_eq!(m.disk_reads, 1); // Read-modify-write fetch.
    }

    /// Appending to a file: the tail block beyond old EOF needs no fetch.
    #[test]
    fn append_beyond_eof_elides() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        // File is exactly two blocks; append one more block.
        let o = b.open(0, f, u, AccessMode::ReadWrite, 8_192, false);
        b.seek(10, o, 0, 8_192);
        b.close(20, o, 12_288);
        let m = Simulator::run(&b.finish(), &cfg());
        assert_eq!(m.logical_writes, 1);
        assert_eq!(m.disk_reads, 0);
        assert_eq!(m.elided_fetches, 1);
    }

    /// Truncate-on-open (recreate) invalidates the old cached data.
    #[test]
    fn recreate_invalidates() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(100, o, 4_096);
        let o = b.open(10_000, f, u, AccessMode::WriteOnly, 0, true);
        b.close(10_100, o, 4_096);
        let m = Simulator::run(&b.finish(), &cfg());
        // Both generations die in cache under delayed-write.
        assert_eq!(m.disk_writes, 0);
        assert_eq!(m.dirty_blocks_never_written, 1); // First generation.
    }

    /// Paging simulation adds execve reads (Figure 7).
    #[test]
    fn paging_mode_reads_programs() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        b.execve(0, f, u, 40_960);
        let trace = b.finish();
        let m = Simulator::run(&trace, &cfg());
        assert_eq!(m.logical_reads, 0);
        let mut config = cfg();
        config.simulate_paging = true;
        let m = Simulator::run(&trace, &config);
        assert_eq!(m.logical_reads, 10);
        assert_eq!(m.disk_reads, 10);
    }

    /// The 30 s flush-back writes dirty blocks that survive 30 s.
    #[test]
    fn flush_back_interval() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(100, o, 4_096);
        // Unrelated activity 31 s later triggers the scan.
        let g = b.new_file_id();
        let o = b.open(31_000, g, u, AccessMode::ReadOnly, 4_096, false);
        b.close(31_100, o, 4_096);
        let mut config = cfg();
        config.write_policy = WritePolicy::FlushBack {
            interval_ms: 30_000,
        };
        let m = Simulator::run(&b.finish(), &config);
        assert_eq!(m.disk_writes, 1);
    }

    /// A trace with same-tick events, seeks, RW sessions, truncates,
    /// deletes, and an unclosed open — for order-sensitive checks.
    fn busy_trace() -> fstrace::Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f1 = b.new_file_id();
        let f2 = b.new_file_id();
        let o1 = b.open(0, f1, u, AccessMode::ReadWrite, 10_000, false);
        let o2 = b.open(0, f2, u, AccessMode::WriteOnly, 0, true);
        b.seek(10, o1, 4_000, 8_000);
        b.close(10, o2, 6_000);
        b.close(20, o1, 9_500);
        b.truncate(30, f1, 2_000, u);
        b.execve(30, f2, u, 6_000);
        b.unlink(40, f2, u);
        b.open(50, f1, u, AccessMode::ReadOnly, 2_000, false); // Unclosed.
        b.finish()
    }

    /// Streaming expansion+replay equals expanding first and replaying
    /// the materialized events, for every rw-handling/paging combo.
    #[test]
    fn run_stream_matches_run_events() {
        let trace = busy_trace();
        for rw in [RwHandling::Read, RwHandling::Write, RwHandling::Both] {
            for paging in [false, true] {
                let config = CacheConfig {
                    rw_handling: rw,
                    simulate_paging: paging,
                    ..cfg()
                };
                let events = replay_events(&trace, &config);
                let materialized = Simulator::run_events(&events, &config);
                let streamed = Simulator::run_stream(trace.records(), &config);
                assert_eq!(materialized, streamed, "rw {rw:?} paging {paging}");
            }
        }
    }

    /// Replaying columnar blocks equals replaying the record stream,
    /// across block boundaries that split mid-file-session.
    #[test]
    fn run_blocks_matches_run_stream() {
        let trace = busy_trace();
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for r in trace.records() {
            prev = fstrace::codec::encode_into(&mut buf, r, prev);
        }
        for step in [1usize, 3, 1024] {
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
            let config = CacheConfig {
                rw_handling: RwHandling::Both,
                simulate_paging: true,
                ..cfg()
            };
            let batched = Simulator::run_blocks(&blocks, &config);
            let streamed = Simulator::run_stream(trace.records(), &config);
            assert_eq!(batched, streamed, "step {step}");
        }
    }

    /// Syscall fidelity quantizes requests to block units per op: the
    /// partial overwrite that forces a read-modify-write fetch at
    /// block fidelity is billed as a whole write.
    #[test]
    fn syscall_fidelity_elides_partial_overwrite() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::ReadWrite, 8_192, false);
        b.seek(10, o, 0, 1_000);
        b.close(20, o, 2_000);
        let trace = b.finish();
        let block = Simulator::run(&trace, &cfg());
        let syscall = Simulator::run(
            &trace,
            &CacheConfig {
                fidelity: Fidelity::Syscall,
                ..cfg()
            },
        );
        assert_eq!(block.disk_reads, 1); // Read-modify-write fetch.
        assert_eq!(syscall.disk_reads, 0); // Op-level: counts as whole.
        assert_eq!(syscall.elided_fetches, 1);
        // Same blocks touched: logical traffic matches block fidelity.
        assert_eq!(syscall.logical_writes, block.logical_writes);
    }

    /// Open fidelity collapses a session's runs into one extent from
    /// offset 0, billed at close time — a high-offset run therefore
    /// lands on different (lower) blocks than at finer fidelities.
    #[test]
    fn open_fidelity_collapses_session() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::ReadOnly, 40_960, false);
        // Two runs: bytes 0..4096 and 36864..40960.
        b.seek(10, o, 4_096, 36_864);
        b.close(20, o, 40_960);
        let trace = b.finish();
        let block = Simulator::run(&trace, &cfg());
        let open = Simulator::run(
            &trace,
            &CacheConfig {
                fidelity: Fidelity::Open,
                ..cfg()
            },
        );
        // Block fidelity reads blocks {0} and {9}; open fidelity reads
        // the 8192-byte total as blocks {0, 1}.
        assert_eq!(block.logical_reads, 2);
        assert_eq!(open.logical_reads, 2);
        let open_events = replay_events(
            &trace,
            &CacheConfig {
                fidelity: Fidelity::Open,
                ..cfg()
            },
        );
        assert!(open_events.iter().any(|e| matches!(
            e,
            ReplayEvent::Op {
                time_ms: 20,
                offset: 0,
                len: 8_192,
                write: false,
                ..
            }
        )));
    }

    /// Seeks emit nothing at open fidelity; the session total still
    /// includes every run.
    #[test]
    fn open_fidelity_bills_at_close_only() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::ReadOnly, 8_192, false);
        b.seek(10, o, 4_096, 0); // Ends a 4096-byte run.
        b.close(20, o, 4_096); // Ends another.
        let events = replay_events(
            &b.finish(),
            &CacheConfig {
                fidelity: Fidelity::Open,
                ..cfg()
            },
        );
        let ops: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Op { .. }))
            .collect();
        assert_eq!(ops.len(), 1);
        assert!(matches!(
            ops[0],
            ReplayEvent::Op {
                time_ms: 20,
                len: 8_192,
                ..
            }
        ));
    }

    /// The expander emits one expansion per instance, exactly like a
    /// `replay_events` call.
    #[test]
    fn expander_counts_one_expansion() {
        let before = expansion_count();
        let _ = EventExpander::new(&cfg());
        assert_eq!(expansion_count(), before + 1);
        let trace = busy_trace();
        let _ = replay_events(&trace, &cfg());
        assert_eq!(expansion_count(), before + 2);
    }

    /// Replay events come out in nondecreasing time order (what
    /// `MissSeries` requires), with a record's events contiguous.
    #[test]
    fn replay_events_are_time_ordered() {
        let config = CacheConfig {
            rw_handling: RwHandling::Both,
            simulate_paging: true,
            ..cfg()
        };
        let events = replay_events(&busy_trace(), &config);
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(pair[0].time() <= pair[1].time(), "{pair:?}");
        }
    }

    /// Larger caches never do more disk I/O on the same trace (LRU
    /// inclusion property).
    #[test]
    fn bigger_cache_never_worse() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        // A working set that overflows the small cache.
        for i in 0..32u64 {
            let f = b.new_file_id();
            let t = i * 1_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 8_192, false);
            b.close(t + 100, o, 8_192);
        }
        // Re-read everything.
        for i in 0..32u64 {
            let f = fstrace::FileId(i);
            let t = 100_000 + i * 1_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 8_192, false);
            b.close(t + 100, o, 8_192);
        }
        let trace = b.finish();
        let small = Simulator::run(
            &trace,
            &CacheConfig {
                cache_bytes: 16 * 4096,
                ..cfg()
            },
        );
        let big = Simulator::run(
            &trace,
            &CacheConfig {
                cache_bytes: 128 * 4096,
                ..cfg()
            },
        );
        assert!(big.disk_ios() <= small.disk_ios());
        assert!(big.miss_ratio() < small.miss_ratio());
    }
}
