//! The in-order decode ring behind [`ArchiveBlocks`] with workers.
//!
//! With zero workers [`ArchiveBlocks`] interleaves chunk verification,
//! decompression, and decode with the consumer's own work on one
//! thread, so replay throughput is the *sum* of both costs. With one or
//! more it overlaps them: a small worker pool claims chunks off a
//! shared counter, runs the verify→decompress→decode stages with
//! per-worker scratch buffers, and deposits finished [`RecordBlock`]s
//! into a bounded in-order ring the consumer drains. Decode of chunk
//! *i+1..i+k* proceeds while the consumer replays chunk *i*;
//! steady-state throughput approaches `max(decode, consume)` instead of
//! their sum.
//!
//! # Ring protocol
//!
//! The ring has `cap` slots; the chunk at position `p` of the selection
//! always travels through slot `p % cap`. Each slot carries a
//! `next_fill` generation counter — the position the slot will accept
//! next:
//!
//! * A worker that decoded position `p` waits on the slot's `freed`
//!   condvar until `next_fill == p`, deposits, and signals `ready`.
//! * The consumer waits on `ready` until slot `p % cap` holds position
//!   `p`, takes the block, advances `next_fill` to `p + cap`, and
//!   signals `freed`.
//!
//! Workers claim positions densely (atomic fetch-add), so for any
//! `cap >= 1` the worker holding the lowest undeposited position can
//! always deposit, the consumer always progresses, and blocks arrive in
//! exactly selection order — the backpressure bound is `cap` decoded
//! chunks plus one in-flight chunk per worker.
//!
//! # Byte identity
//!
//! Workers report a damaged chunk as an opaque failure; the consumer
//! side ([`ArchiveBlocks`]) turns it into the report entry, the error,
//! and the fuse exactly as it does for chunks it decodes itself, so the
//! record stream and the recovery report are the same for any worker
//! count, in both corruption modes.
//!
//! # Allocation recycling
//!
//! The consumer hands each spent block back to a recycle pool the
//! workers draw from, so steady-state operation reuses a bounded set of
//! blocks and per-worker decompression scratch buffers instead of
//! allocating per chunk.
//!
//! # Stage metrics
//!
//! Workers time each stage into the `pipeline.{read,decompress,decode}`
//! spans like every chunk read, and record the
//! `pipeline.ring_occupancy_peak` gauge — all on [`obs::global`], so
//! `repro --metrics` exports them.
//!
//! [`ArchiveBlocks`]: crate::ArchiveBlocks

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use fstrace::block::RecordBlock;

use crate::reader::{Archive, Stages};

/// How long a blocked ring wait sleeps before re-checking shutdown.
const WAIT_TICK: Duration = Duration::from_millis(20);

struct SlotInner {
    /// The selection position this slot accepts next (generation
    /// counter).
    next_fill: usize,
    /// The deposited result: a decoded block, or `Err(())` for a chunk
    /// that failed verification/decode.
    value: Option<Result<RecordBlock, ()>>,
}

struct Slot {
    inner: Mutex<SlotInner>,
    ready: Condvar,
    freed: Condvar,
}

/// State shared between the consumer and the worker pool.
struct Shared {
    archive: Archive,
    /// Chunk indices to decode, in delivery order.
    selection: Arc<[usize]>,
    slots: Vec<Slot>,
    /// Next selection position a worker claims.
    next_claim: AtomicUsize,
    /// Decoded blocks resident in the ring (for the occupancy gauge).
    occupancy: AtomicUsize,
    /// Spent blocks returned by the consumer for workers to refill.
    pool: Mutex<Vec<RecordBlock>>,
    shutdown: AtomicBool,
    /// Workers still running; lets the consumer detect a dead pool
    /// instead of waiting forever on a slot nobody will fill.
    live_workers: AtomicUsize,
}

/// A running worker pool decoding a chunk selection into the ring.
pub(crate) struct Ring {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Ring {
    /// Starts `workers` decode threads (at least one) over `selection`
    /// with a ring of `2 * workers` slots.
    pub(crate) fn new(archive: Archive, selection: Arc<[usize]>, workers: usize) -> Ring {
        let workers = workers.max(1);
        let cap = workers * 2;
        let slots = (0..cap)
            .map(|s| Slot {
                inner: Mutex::new(SlotInner {
                    next_fill: s,
                    value: None,
                }),
                ready: Condvar::new(),
                freed: Condvar::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            archive,
            selection,
            slots,
            next_claim: AtomicUsize::new(0),
            occupancy: AtomicUsize::new(0),
            pool: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            live_workers: AtomicUsize::new(workers),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ring {
            shared,
            workers: handles,
        }
    }

    /// Swaps the decoded chunk at selection position `pos` into `out`
    /// and recycles `out`'s previous block. `false` means the chunk is
    /// damaged (or the worker pool died without depositing it); `out`
    /// is then untouched.
    pub(crate) fn take_into(&mut self, pos: usize, out: &mut RecordBlock) -> bool {
        match self.take(pos) {
            Some(Ok(block)) => {
                let spent = std::mem::replace(out, block);
                recover(self.shared.pool.lock()).push(spent);
                true
            }
            Some(Err(())) | None => false,
        }
    }

    /// Waits until slot `pos % cap` holds position `pos` and takes it.
    /// `None` means the worker pool died without depositing.
    fn take(&mut self, pos: usize) -> Option<Result<RecordBlock, ()>> {
        let slot = &self.shared.slots[pos % self.shared.slots.len()];
        let mut g = recover(slot.inner.lock());
        loop {
            if g.next_fill == pos && g.value.is_some() {
                let val = g.value.take();
                g.next_fill = pos + self.shared.slots.len();
                drop(g);
                slot.freed.notify_all();
                self.shared.occupancy.fetch_sub(1, Ordering::Relaxed);
                return val;
            }
            if self.shared.live_workers.load(Ordering::Acquire) == 0 {
                return None;
            }
            g = recover(slot.ready.wait_timeout(g, WAIT_TICK)).0;
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for slot in &self.shared.slots {
            slot.ready.notify_all();
            slot.freed.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Decrements `live_workers` when the worker exits — including by
/// panic, so the consumer's dead-pool detection still fires instead of
/// waiting forever on a slot nobody will fill.
struct WorkerGuard<'a>(&'a Shared);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::Release);
    }
}

/// One worker: claim selection positions, run the read stages with
/// reused scratch, deposit in ring order.
fn worker_loop(shared: &Shared) {
    let _guard = WorkerGuard(shared);
    let stages = Stages::new();
    let occupancy_peak = obs::global().gauge("pipeline.ring_occupancy_peak");
    let mut scratch: Vec<u8> = Vec::new();
    'claims: loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let pos = shared.next_claim.fetch_add(1, Ordering::Relaxed);
        let Some(&chunk) = shared.selection.get(pos) else {
            break;
        };
        let mut block = recover(shared.pool.lock()).pop().unwrap_or_default();
        let res = shared
            .archive
            .read_chunk(chunk, &mut scratch, &mut block, &stages)
            .map(|()| block)
            .ok_or(());
        // Count the block in flight *before* depositing: the slot
        // mutex then orders this increment before the consumer's
        // matching decrement, so occupancy never underflows.
        let occ = shared.occupancy.fetch_add(1, Ordering::Relaxed) + 1;
        occupancy_peak.record(occ as u64);
        let slot = &shared.slots[pos % shared.slots.len()];
        let mut g = recover(slot.inner.lock());
        while g.next_fill != pos {
            if shared.shutdown.load(Ordering::Acquire) {
                break 'claims;
            }
            g = recover(slot.freed.wait_timeout(g, WAIT_TICK)).0;
        }
        g.value = Some(res);
        drop(g);
        slot.ready.notify_all();
    }
}

/// Ignores mutex/condvar poisoning: slot values are plain data, and a
/// panicked peer must not take the whole pipeline down with it.
fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}
