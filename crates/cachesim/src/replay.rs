//! Converting a logical trace into block accesses and replaying them.
//!
//! Each sequential run reconstructed from the trace is billed at the
//! time of the `seek` or `close` that ended it (Section 3.1). That
//! deduction is not repeated here: one [`EventExpander`] steps the
//! shared [`fstrace::OpenTable`], the same open-id table the Section-5
//! analyses read through `fstrace::SessionBuilder`, and turns what each
//! record billed into [`ReplayEvent`]s. The configured [`Fidelity`]
//! (DESIGN.md §15) only decides what a billed extent becomes:
//!
//! * [`Fidelity::Block`] emits a [`ReplayEvent::Transfer`], split into
//!   block accesses of the configured size with per-block byte
//!   accounting (Section 6.1: "we assumed that programs made requests
//!   in units of the cache block size") — the paper's simulator, kept
//!   bit-identical across the fidelity refactor.
//! * [`Fidelity::Syscall`] emits one [`ReplayEvent::Op`] per run; the
//!   replayer touches the same covering block range but skips byte
//!   accounting.
//! * [`Fidelity::Open`] defers a session's runs to one
//!   [`ReplayEvent::Op`] at `close`, reconstructed from the session's
//!   transfer total.
//!
//! One block decomposition then turns every event into block references
//! and invalidations, for the direct [`BlockCache`] (driven by
//! [`Replayer`]) and the stack profiler ([`crate::StackEngine`]) alike.

use std::borrow::Borrow;

use fstrace::{
    AccessMode, FastMap, FileId, OpenTable, RecordBlock, Trace, TraceEvent, TraceRecord,
};

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

    /// How many block references this event decomposes into at
    /// `block_size`: the blocks a `Transfer` or `Op` extent covers, zero
    /// for every other event.
    pub fn block_accesses(&self, block_size: u64) -> u64 {
        match *self {
            ReplayEvent::Transfer { offset, len, .. } | ReplayEvent::Op { offset, len, .. }
                if len > 0 =>
            {
                (offset + len - 1) / block_size - offset / block_size + 1
            }
            _ => 0,
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

#[cfg(test)]
thread_local! {
    /// This thread's share of the expansion count: unit tests in one
    /// binary run concurrently, so a before/after diff of the
    /// process-wide counter is only exact per thread.
    static THREAD_EXPANSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one expansion (and, under test, one on this thread).
fn count_expansion() {
    expansions_counter().inc();
    #[cfg(test)]
    THREAD_EXPANSIONS.with(|n| n.set(n.get() + 1));
}

/// Expands a trace into time-ordered replay events under a configuration
/// (the `fidelity`, `rw_handling` and `simulate_paging` options affect
/// the expansion).
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

/// Streaming trace expansion: feed records in time order, receive the
/// replay events they imply, in a canonical per-record order. One
/// record match serves every [`Fidelity`]: the runs come from the
/// shared [`OpenTable`], and the fidelity only decides whether a billed
/// extent becomes a [`ReplayEvent::Transfer`] (block) or a
/// [`ReplayEvent::Op`] (syscall, open), and whether open fidelity
/// defers it to the session total at `close`.
///
/// Each record's events are emitted the moment the record arrives:
///
/// * `open` → [`ReplayEvent::SizeHint`], then a zeroing
///   [`ReplayEvent::TruncateTo`] if the open created/truncated the file
///   (cached blocks of the old data are stale);
/// * `seek`/`close` → the extent(s) for the sequential run the event
///   bills — or, at open fidelity, nothing at a `seek` and one extent
///   per `close` covering the whole session from offset 0 (for
///   read-write opens under [`RwHandling::Both`], the read precedes the
///   write). Sessions still open when the trace ends emit nothing at
///   open fidelity, mirroring block fidelity, where an unclosed open's
///   final run is never billed;
/// * `unlink` → [`ReplayEvent::Delete`];
/// * `truncate` → [`ReplayEvent::TruncateTo`];
/// * `execve` → a paging read of the whole program when
///   `simulate_paging` is on.
///
/// Event times are therefore nondecreasing whenever the input records
/// are, which is what [`Replayer`] requires.
/// Memory is the table's, O(simultaneously tracked open ids), never
/// O(records) — this is what lets a sweep cell consume a multi-day
/// trace straight from disk.
pub struct EventExpander {
    fidelity: Fidelity,
    rw_handling: RwHandling,
    simulate_paging: bool,
    table: OpenTable,
}

impl EventExpander {
    /// Creates the expander for a configuration's expansion options,
    /// counting one expansion in `cachesim.replay.expansions`.
    pub fn new(config: &CacheConfig) -> Self {
        count_expansion();
        EventExpander {
            fidelity: config.fidelity,
            rw_handling: config.rw_handling,
            simulate_paging: config.simulate_paging,
            table: OpenTable::default(),
        }
    }

    /// Feeds one record, passing each replay event it implies to `emit`.
    pub fn feed(&mut self, rec: &TraceRecord, emit: &mut impl FnMut(ReplayEvent)) {
        let time_ms = rec.time.as_ms();
        match rec.event {
            TraceEvent::Open {
                file_id,
                size,
                created,
                ..
            } => {
                emit(ReplayEvent::SizeHint {
                    time_ms,
                    file: file_id,
                    size,
                });
                if created {
                    emit(ReplayEvent::TruncateTo {
                        time_ms,
                        file: file_id,
                        new_len: 0,
                    });
                }
                self.table.step(rec);
            }
            TraceEvent::Seek { .. } | TraceEvent::Close { .. } => {
                let (step, _) = self.table.step(rec);
                let (offset, len) = match (self.fidelity, rec.event) {
                    (Fidelity::Block | Fidelity::Syscall, _) => (step.offset, step.billed),
                    (Fidelity::Open, TraceEvent::Close { .. }) => (0, step.total),
                    (Fidelity::Open, _) => return,
                };
                let Some((file, mode)) = step.file.filter(|_| len > 0) else {
                    return;
                };
                // One extent per billed direction: reads, writes, or
                // (read-write under `RwHandling::Both`) the read before
                // the write.
                let mut direction = |write| emit(self.extent(time_ms, file, offset, len, write));
                match (mode, self.rw_handling) {
                    (AccessMode::ReadOnly, _) | (AccessMode::ReadWrite, RwHandling::Read) => {
                        direction(false);
                    }
                    (AccessMode::WriteOnly, _) | (AccessMode::ReadWrite, RwHandling::Write) => {
                        direction(true);
                    }
                    (AccessMode::ReadWrite, RwHandling::Both) => {
                        direction(false);
                        direction(true);
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
            TraceEvent::Execve { file_id, size, .. } if self.simulate_paging && size > 0 => {
                emit(self.extent(time_ms, file_id, 0, size, false));
            }
            _ => {}
        }
    }

    /// One billed extent: a byte-accounted [`ReplayEvent::Transfer`] at
    /// block fidelity, a block-quantized [`ReplayEvent::Op`] otherwise.
    fn extent(
        &self,
        time_ms: u64,
        file: FileId,
        offset: u64,
        len: u64,
        write: bool,
    ) -> ReplayEvent {
        match self.fidelity {
            Fidelity::Block => ReplayEvent::Transfer {
                time_ms,
                file,
                offset,
                len,
                write,
            },
            Fidelity::Syscall | Fidelity::Open => ReplayEvent::Op {
                time_ms,
                file,
                offset,
                len,
                write,
            },
        }
    }
}

/// What the block decomposition feeds: the direct [`BlockCache`] and
/// the stack profiler each implement it.
pub(crate) trait BlockSink {
    /// One block reference at `now_ms`: `None` for a read, `Some(whole)`
    /// for a write, where `whole` means the write covers every
    /// previously valid byte of the block, so a miss needs no fetch.
    fn access(&mut self, id: BlockId, now_ms: u64, write: Option<bool>);

    /// Drops the cached blocks of `file` at indices `>= first_block`
    /// (every block at 0); dirty ones vanish without a disk write.
    fn invalidate(&mut self, file: FileId, first_block: u64, now_ms: u64);
}

impl BlockSink for BlockCache {
    fn access(&mut self, id: BlockId, now_ms: u64, write: Option<bool>) {
        match write {
            None => self.read(id, now_ms),
            Some(whole) => self.write(id, whole, now_ms),
        }
    }

    fn invalidate(&mut self, file: FileId, first_block: u64, now_ms: u64) {
        self.invalidate_beyond(file, first_block, now_ms);
    }
}

/// The block decomposition of replay events, shared by every consumer:
/// the per-file size map, the split of an extent into block references,
/// the whole-block-overwrite test, and truncate/delete invalidation.
pub(crate) struct BlockSplit {
    block_size: u64,
    invalidate_on_delete: bool,
    /// Known size of each file, in bytes (byte accounting).
    sizes: FastMap<FileId, u64>,
    /// The latest event time seen (end-of-run residency accounting).
    pub(crate) end_time: u64,
}

impl BlockSplit {
    pub(crate) fn new(config: &CacheConfig) -> Self {
        BlockSplit {
            block_size: config.block_size,
            invalidate_on_delete: config.invalidate_on_delete,
            sizes: FastMap::default(),
            end_time: 0,
        }
    }

    /// Decomposes one replay event into `sink`.
    pub(crate) fn step(&mut self, ev: &ReplayEvent, sink: &mut impl BlockSink) {
        let bs = self.block_size;
        self.end_time = self.end_time.max(ev.time());
        match *ev {
            ReplayEvent::SizeHint { file, size, .. } => {
                let e = self.sizes.entry(file).or_insert(size);
                *e = (*e).max(size);
            }
            ReplayEvent::Transfer {
                time_ms,
                file,
                offset,
                len,
                write,
            }
            | ReplayEvent::Op {
                time_ms,
                file,
                offset,
                len,
                write,
            } => {
                if len == 0 {
                    return;
                }
                let end = offset + len;
                // Byte accounting is block fidelity's alone. An op is
                // quantized to block units (the Section 6.1 assumption
                // applied per op): it neither reads nor grows the size
                // map, and with no previously valid byte every write of
                // it is whole.
                let old_size = match ev {
                    ReplayEvent::Transfer { .. } => {
                        let size = self.sizes.entry(file).or_insert(0);
                        let old = *size;
                        *size = old.max(end);
                        old
                    }
                    _ => 0,
                };
                for block in offset / bs..=(end - 1) / bs {
                    let whole = write.then(|| {
                        // No fetch is needed when the write covers every
                        // previously valid byte of the block (including
                        // the trivial case of none).
                        let bstart = block * bs;
                        let old_valid = old_size.saturating_sub(bstart).min(bs);
                        old_valid == 0 || (offset <= bstart && end >= bstart + old_valid)
                    });
                    sink.access(BlockId { file, block }, time_ms, whole);
                }
            }
            ReplayEvent::TruncateTo {
                time_ms,
                file,
                new_len,
            } => {
                let size = self.sizes.entry(file).or_insert(0);
                *size = (*size).min(new_len);
                if self.invalidate_on_delete {
                    sink.invalidate(file, new_len.div_ceil(bs), time_ms);
                }
            }
            ReplayEvent::Delete { time_ms, file } => {
                self.sizes.remove(&file);
                if self.invalidate_on_delete {
                    sink.invalidate(file, 0, time_ms);
                }
            }
        }
    }
}

/// Incremental replay state: a cache fed by the block decomposition.
///
/// [`Simulator::run_events`] drives this to completion; the sweep
/// steps it event by event.
pub struct Replayer {
    cache: BlockCache,
    split: BlockSplit,
}

impl Replayer {
    /// Creates replay state for a configuration.
    pub fn new(config: &CacheConfig) -> Self {
        Replayer {
            cache: BlockCache::new(config),
            split: BlockSplit::new(config),
        }
    }

    /// Read access to the cache (metrics, contents).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Finalizes residency accounting and returns the metrics.
    pub fn finish(mut self) -> CacheMetrics {
        self.cache.finish(self.split.end_time);
        self.cache.metrics
    }

    /// Applies one replay event.
    pub fn step(&mut self, ev: &ReplayEvent) {
        self.split.step(ev, &mut self.cache);
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
    /// share an [`crate::ExpansionKey`]).
    pub fn run_events(events: &[ReplayEvent], config: &CacheConfig) -> CacheMetrics {
        let mut r = Replayer::new(config);
        for ev in events {
            r.step(ev);
        }
        r.finish()
    }

    /// Expands and replays records as they stream past, holding only
    /// O(open files) state — the bounded-memory twin of [`Simulator::run`].
    /// A refillable block source replays through one reused column
    /// buffer as `run_stream(fstrace::FillRecords::new(source), ..)`.
    pub fn run_stream<I>(records: I, config: &CacheConfig) -> CacheMetrics
    where
        I: IntoIterator,
        I::Item: Borrow<TraceRecord>,
    {
        let mut expander = EventExpander::new(config);
        let mut r = Replayer::new(config);
        for rec in records {
            expander.feed(rec.borrow(), &mut |ev| r.step(&ev));
        }
        r.finish()
    }

    /// Expands and replays columnar record blocks — [`Simulator::run_stream`]
    /// over each block's records in order, fed straight from
    /// `tracestore::Archive::blocks` or any [`RecordBlock`] producer.
    pub fn run_blocks<I>(blocks: I, config: &CacheConfig) -> CacheMetrics
    where
        I: IntoIterator,
        I::Item: Borrow<RecordBlock>,
    {
        let records = blocks.into_iter().flat_map(|block| {
            let n = block.borrow().len();
            (0..n).map(move |i| block.borrow().get(i))
        });
        Self::run_stream(records, config)
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

    /// Replaying columnar blocks — borrowed through `run_blocks`, or
    /// owned and drained through one reused `FillRecords` buffer —
    /// equals replaying the materialized expansion, across block
    /// boundaries that split mid-file-session, at every fidelity.
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
            for fidelity in Fidelity::ALL {
                let config = CacheConfig {
                    rw_handling: RwHandling::Both,
                    simulate_paging: true,
                    fidelity,
                    ..cfg()
                };
                let want = Simulator::run_events(&replay_events(&trace, &config), &config);
                let batched = Simulator::run_blocks(&blocks, &config);
                assert_eq!(batched, want, "step {step} {fidelity:?}");
                let filled = Simulator::run_stream(
                    fstrace::FillRecords::new(blocks.iter().cloned()),
                    &config,
                );
                assert_eq!(filled, want, "step {step} {fidelity:?}");
            }
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
    /// `replay_events` call. The exact diffs are on this thread's
    /// count; the process-wide counter also moves with other tests.
    #[test]
    fn expander_counts_one_expansion() {
        let thread_count = || THREAD_EXPANSIONS.with(|n| n.get());
        let before = thread_count();
        let global_before = expansion_count();
        let _ = EventExpander::new(&cfg());
        assert_eq!(thread_count(), before + 1);
        let trace = busy_trace();
        let _ = replay_events(&trace, &cfg());
        assert_eq!(thread_count(), before + 2);
        assert!(expansion_count() >= global_before + 2);
    }

    /// Replay events come out in nondecreasing time order, with a
    /// record's events contiguous.
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
