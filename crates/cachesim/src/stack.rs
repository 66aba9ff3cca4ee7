//! Single-pass stack-distance profiling: every cache size in one replay.
//!
//! LRU obeys the *inclusion property*: at any instant, the contents of a
//! cache of capacity `C` are exactly the `C` most recently used blocks,
//! so a cache of capacity `C' > C` holds a superset. A reference to a
//! block whose reuse *stack distance* is `d` (it is the `d`-th most
//! recently used block) therefore hits every capacity `>= d` and misses
//! every capacity `< d` — one replay annotated with distances yields
//! exact miss counts for the whole Figure 5 / Table VI size axis
//! (Mattson's classic one-pass algorithm).
//!
//! This module extends the classic algorithm in two directions the
//! paper's workload demands:
//!
//! * **Deletions.** `unlink`/`truncate` invalidate cached blocks. Naive
//!   removal from the recency stack would shift deeper blocks *up*,
//!   falsely re-admitting them into small caches they had already been
//!   evicted from. Instead an invalidated entry becomes a **hole** in
//!   place: positions of other entries never decrease, preserving the
//!   per-capacity window invariant (valid entries among the top `C`
//!   positions == the direct capacity-`C` cache contents). A later
//!   access consumes the *shallowest* hole above the referenced block —
//!   capacities between the hole and the block fill free space without
//!   evicting, exactly like the direct caches.
//! * **Write policies.** Dirty state diverges across capacities (a small
//!   cache evicts-and-writes a dirty block that a large cache still
//!   holds dirty), but it diverges *monotonically*: between accesses a
//!   block's stack depth never decreases, so it crosses capacity
//!   boundaries smallest-first and its per-capacity dirty flags form a
//!   suffix of the capacity list. One `(policy, block)` record holding
//!   the smallest still-dirty capacity index `m` and per-capacity dirty
//!   timestamps reproduces write-through, flush-back (any interval), and
//!   delayed-write accounting bit-identically in the same single pass.
//!
//! The engine consumes the same block decomposition as the direct
//! [`crate::BlockCache`] (size map, block split, whole-write test,
//! truncate/delete invalidation), so it profiles the block references
//! of any [`crate::Fidelity`]. What cannot be expressed: FIFO
//! replacement (no inclusion property) and capacities past the slot
//! cap. Such cells — and subgroups of one cell, where a profile saves
//! nothing — fall back to the direct simulator;
//! [`crate::sweep::run_source`] does the partitioning.
//!
//! The recency stack is a slab-backed doubly linked list, like
//! [`crate::BlockCache`]'s, with one *marker* per tracked capacity on
//! the entry at exactly that depth, and each entry recording its
//! *segment*: how many tracked capacities lie above it. A reference's
//! distance class is its entry's segment, and the eviction walk steps
//! only the markers it crosses, so a reference costs O(1) per crossed
//! capacity. The list is bounded by the largest tracked capacity
//! (entries sinking past it are pruned — they are in no tracked cache,
//! so a later reference is a cold miss everywhere, which is exactly
//! what forgetting them produces).

use std::collections::BinaryHeap;

use fstrace::{FastMap, FileId};
use simstat::Distribution;

use crate::cache::BlockId;
use crate::config::{CacheConfig, Replacement, WritePolicy};
use crate::metrics::CacheMetrics;
use crate::replay::{BlockSink, BlockSplit, ReplayEvent};

/// Caps the largest tracked capacity; configurations this large fall
/// back to direct simulation rather than risk `u32` slot overflow.
const MAX_TRACKED_BLOCKS: u64 = 1 << 30;

/// Whether a single configuration's metrics can be derived from a
/// stack-distance profile (LRU replacement, sane capacity).
///
/// Profilable cells still need a *partner* sharing fidelity, block
/// size, elision, and invalidation settings before profiling beats a
/// direct replay; that grouping is the sweep engine's job.
pub fn profilable(config: &CacheConfig) -> bool {
    config.replacement == Replacement::Lru && config.capacity_blocks() < MAX_TRACKED_BLOCKS
}

const NIL: u32 = u32::MAX;

/// One recency-list entry: a cached block, or the hole an invalidation
/// left in its place.
struct Entry {
    /// The block (stale once the entry is a hole).
    id: BlockId,
    /// Recency stamp, never renumbered: the list runs newest first.
    stamp: u64,
    /// The number of tracked capacities smaller than the entry's depth.
    seg: u32,
    prev: u32,
    next: u32,
    /// Neighbours in the block's per-file chain (see `per_file`).
    fprev: u32,
    fnext: u32,
}

/// Dirty-block bookkeeping for one tracked write policy across all
/// capacities (write-through needs none: its per-cell write traffic is
/// capacity-independent and derived analytically).
///
/// Per slot, `m` is the smallest capacity index at which the block is
/// still dirty, `K` when it is clean (capacities are sorted ascending,
/// and dirtiness is a suffix: small caches evict-and-clean first).
/// `t[slot * K + i]` is the time the block became dirty in the
/// capacity-`i` cache, valid for `i >= m` — the timestamps differ per
/// capacity because a small cache that evicted and re-dirtied the block
/// restarts its residency clock while a large cache's older clock keeps
/// running.
struct PolicyState {
    policy: WritePolicy,
    /// Flush interval for `FlushBack`, `None` otherwise.
    interval_ms: Option<u64>,
    last_flush_ms: u64,
    m: Vec<u32>,
    t: Vec<u64>,
    /// Every slot dirtied since the last flush scan, once each (`listed`
    /// marks them); some may be clean again.
    dirty_slots: Vec<u32>,
    listed: Vec<bool>,
    /// Per capacity index: writebacks (flushes + evictions).
    disk_writes: Vec<u64>,
    /// Per capacity index: dirty blocks invalidated before any write.
    never_written: Vec<u64>,
    /// Per capacity index: dirty residency distribution.
    residency: Vec<Distribution>,
    /// `dirtied_split[m]` counts clean→dirty transitions whose prior
    /// smallest-dirty index was `m` — the transition dirties exactly
    /// the capacities `< m`, so `blocks_dirtied(i) = Σ_{m > i}`.
    dirtied_split: Vec<u64>,
}

/// How one requested cell maps onto the shared profile.
struct CellSpec {
    /// Index into the sorted distinct capacity list.
    cap_idx: usize,
    /// `None` for write-through (derived), `Some(p)` indexing
    /// [`Profile::pol`] otherwise.
    policy_idx: Option<usize>,
}

/// The single-pass profiler: feed it the [`ReplayEvent`] stream once,
/// and [`StackEngine::finish`] returns a [`CacheMetrics`] per requested
/// cell, each bit-identical to a direct [`crate::Simulator`] run of
/// that cell over the same events.
pub struct StackEngine {
    split: BlockSplit,
    profile: Profile,
}

/// The recency stack and per-capacity accounting the block
/// decomposition feeds.
struct Profile {
    elision: bool,
    /// Sorted distinct capacities, in blocks. `K = caps.len()`.
    caps: Vec<u64>,
    cells: Vec<CellSpec>,
    pol: Vec<PolicyState>,

    // The recency stack, most recent first. It never shrinks: a pruned
    // or consumed entry always makes room for the referenced block.
    entries: Vec<Entry>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: u64,
    next_stamp: u64,
    /// `markers[j]` is the entry at depth `caps[j]`, for every capacity
    /// the list has reached.
    markers: Vec<u32>,
    blocks: FastMap<BlockId, u32>,
    /// Every hole as `(stamp, slot)`: the top is the shallowest.
    holes: BinaryHeap<(u64, u32)>,
    /// Head slot of each file's chain of cached blocks.
    per_file: FastMap<FileId, u32>,

    // Distance accounting. `*_split[k]` counts accesses whose distance
    // exceeded exactly the `k` smallest capacities (misses for capacity
    // indices `< k`); `k == K` means a miss everywhere.
    total_reads: u64,
    total_writes: u64,
    read_split: Vec<u64>,
    write_whole_split: Vec<u64>,
    write_partial_split: Vec<u64>,
    distances: u64,
}

impl StackEngine {
    /// Builds a profiler covering `cells`, or `None` when the cells are
    /// not jointly expressible: every cell must be [`profilable`] and
    /// all must share block size, whole-block elision, delete
    /// invalidation, and expansion options — fidelity included (they
    /// consume one event stream). Any write policy mix is fine.
    pub fn try_new(cells: &[CacheConfig]) -> Option<StackEngine> {
        let first = cells.first()?;
        for c in cells {
            let compatible = profilable(c)
                && c.fidelity == first.fidelity
                && c.block_size == first.block_size
                && c.whole_block_elision == first.whole_block_elision
                && c.invalidate_on_delete == first.invalidate_on_delete
                && c.rw_handling == first.rw_handling
                && c.simulate_paging == first.simulate_paging;
            if !compatible {
                return None;
            }
        }
        let mut caps: Vec<u64> = cells.iter().map(|c| c.capacity_blocks()).collect();
        caps.sort_unstable();
        caps.dedup();
        let k = caps.len();

        let mut pol: Vec<PolicyState> = Vec::new();
        let cells = cells
            .iter()
            .map(|c| {
                let cap_idx = caps.binary_search(&c.capacity_blocks()).expect("own cap");
                let policy_idx = match c.write_policy {
                    WritePolicy::WriteThrough => None,
                    p => Some(match pol.iter().position(|ps| ps.policy == p) {
                        Some(i) => i,
                        None => {
                            pol.push(PolicyState {
                                policy: p,
                                interval_ms: match p {
                                    WritePolicy::FlushBack { interval_ms } => Some(interval_ms),
                                    _ => None,
                                },
                                last_flush_ms: 0,
                                m: Vec::new(),
                                t: Vec::new(),
                                dirty_slots: Vec::new(),
                                listed: Vec::new(),
                                disk_writes: vec![0; k],
                                never_written: vec![0; k],
                                residency: vec![Distribution::new(); k],
                                dirtied_split: vec![0; k + 1],
                            });
                            pol.len() - 1
                        }
                    }),
                };
                CellSpec {
                    cap_idx,
                    policy_idx,
                }
            })
            .collect();

        let profile = Profile {
            elision: first.whole_block_elision,
            caps,
            cells,
            pol,
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            next_stamp: 0,
            markers: Vec::with_capacity(k),
            blocks: FastMap::default(),
            holes: BinaryHeap::new(),
            per_file: FastMap::default(),
            total_reads: 0,
            total_writes: 0,
            read_split: vec![0; k + 1],
            write_whole_split: vec![0; k + 1],
            write_partial_split: vec![0; k + 1],
            distances: 0,
        };
        Some(StackEngine {
            split: BlockSplit::new(first),
            profile,
        })
    }

    /// Applies one replay event through the block decomposition the
    /// direct simulator uses.
    pub fn step(&mut self, ev: &ReplayEvent) {
        self.split.step(ev, &mut self.profile);
    }

    /// Finalizes residency accounting and assembles one
    /// [`CacheMetrics`] per requested cell, in input order.
    pub fn finish(self) -> Vec<CacheMetrics> {
        self.profile.finish(self.split.end_time)
    }
}

impl Profile {
    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.entries[i as usize].prev, self.entries[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    /// Links slot `i` on top with a fresh stamp.
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let e = &mut self.entries[i as usize];
        (e.prev, e.next, e.stamp, e.seg) = (NIL, old_head, self.next_stamp, 0);
        self.next_stamp += 1;
        match old_head {
            NIL => self.tail = i,
            h => self.entries[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Puts the unlinked slot `hole` in `old`'s place with its stamp,
    /// segment and marker, leaving `old` unlinked.
    fn replace(&mut self, old: u32, hole: u32) {
        let o = &self.entries[old as usize];
        let (prev, next, stamp, seg) = (o.prev, o.next, o.stamp, o.seg);
        let h = &mut self.entries[hole as usize];
        (h.prev, h.next, h.stamp, h.seg) = (prev, next, stamp, seg);
        match prev {
            NIL => self.head = hole,
            p => self.entries[p as usize].next = hole,
        }
        match next {
            NIL => self.tail = hole,
            n => self.entries[n as usize].prev = hole,
        }
        if self.markers.get(seg as usize) == Some(&old) {
            self.markers[seg as usize] = hole;
        }
    }

    /// Moves a marker on entry `i`, which is about to sink or leave its
    /// position, one entry toward the top — onto `top`, the block about
    /// to be pushed, when `i` is the head.
    fn step_marker(&mut self, i: u32, top: u32) {
        let e = &self.entries[i as usize];
        if self.markers.get(e.seg as usize) == Some(&i) {
            self.markers[e.seg as usize] = if e.prev == NIL { top } else { e.prev };
        }
    }

    /// Links slot `i` at the head of its file's chain.
    fn file_link(&mut self, i: u32) {
        let file = self.entries[i as usize].id.file;
        let old_head = self.per_file.insert(file, i).unwrap_or(NIL);
        let e = &mut self.entries[i as usize];
        (e.fprev, e.fnext) = (NIL, old_head);
        if old_head != NIL {
            self.entries[old_head as usize].fprev = i;
        }
    }

    /// Unlinks slot `i` from its file's chain, dropping the map entry
    /// when the chain empties.
    fn file_unlink(&mut self, i: u32) {
        let e = &self.entries[i as usize];
        let (file, fprev, fnext) = (e.id.file, e.fprev, e.fnext);
        if fprev != NIL {
            self.entries[fprev as usize].fnext = fnext;
        } else if fnext != NIL {
            self.per_file.insert(file, fnext);
        } else {
            self.per_file.remove(&file);
        }
        if fnext != NIL {
            self.entries[fnext as usize].fprev = fprev;
        }
    }

    /// A slot for a block not on the stack, in its file's chain but not
    /// yet in the list; clean under every policy.
    fn alloc(&mut self, id: BlockId) -> u32 {
        let entry = Entry {
            id,
            stamp: 0,
            seg: 0,
            prev: NIL,
            next: NIL,
            fprev: NIL,
            fnext: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                let k = self.caps.len();
                for ps in &mut self.pol {
                    ps.m.push(k as u32);
                    ps.t.resize(ps.t.len() + k, 0);
                    ps.listed.push(false);
                }
                (self.entries.len() - 1) as u32
            }
        };
        self.blocks.insert(id, i);
        self.file_link(i);
        i
    }

    /// Catch-up flush scans, mirroring `BlockCache::run_flush_if_due`:
    /// the schedule depends only on access times, never on capacity, so
    /// one scan covers every capacity column at once.
    fn flush_if_due(&mut self, now_ms: u64) {
        let k = self.caps.len();
        for ps in &mut self.pol {
            let Some(interval_ms) = ps.interval_ms else {
                continue;
            };
            if now_ms.saturating_sub(ps.last_flush_ms) >= interval_ms {
                for s in ps.dirty_slots.drain(..) {
                    let s = s as usize;
                    ps.listed[s] = false;
                    for i in std::mem::replace(&mut ps.m[s], k as u32) as usize..k {
                        ps.disk_writes[i] += 1;
                        ps.residency[i].add(now_ms.saturating_sub(ps.t[s * k + i]), 1);
                    }
                }
                ps.last_flush_ms = now_ms - (now_ms - ps.last_flush_ms) % interval_ms;
            }
        }
    }

    /// Accounts an eviction of the block in slot `victim` from the
    /// capacity-index-`j` cache at `now_ms`: a dirty victim is written
    /// back, exactly like `BlockCache::evict`.
    ///
    /// The victim can only be dirty at capacity `j` with `m == j`:
    /// depths are nondecreasing between accesses, so it crossed every
    /// smaller capacity boundary (cleaning those columns) before this
    /// one, and a re-dirtying write would have moved it back to the
    /// top.
    fn evict_dirty(&mut self, victim: u32, j: usize, now_ms: u64) {
        let (s, k) = (victim as usize, self.caps.len());
        for ps in &mut self.pol {
            debug_assert!(ps.m[s] as usize >= j, "dirty below capacity {j}");
            if ps.m[s] as usize == j {
                ps.disk_writes[j] += 1;
                ps.residency[j].add(now_ms.saturating_sub(ps.t[s * k + j]), 1);
                ps.m[s] += 1;
            }
        }
    }

    /// Residency for blocks still dirty at `end_time`, then the cells'
    /// metrics in input order.
    fn finish(mut self, end_time: u64) -> Vec<CacheMetrics> {
        let k = self.caps.len();
        // End-of-run residency for still-dirty blocks, without disk
        // writes (`BlockCache::finish` semantics).
        for ps in &mut self.pol {
            for &s in &ps.dirty_slots {
                let s = s as usize;
                for i in ps.m[s] as usize..k {
                    ps.residency[i].add(end_time.saturating_sub(ps.t[s * k + i]), 1);
                }
            }
        }

        // `split[j]` counted accesses missing capacities `< j`, so the
        // miss count at capacity index `i` is the suffix sum over
        // `j > i`.
        let suffix = |split: &[u64]| -> Vec<u64> {
            let mut out = vec![0u64; k];
            let mut acc = 0u64;
            for i in (0..k).rev() {
                acc += split[i + 1];
                out[i] = acc;
            }
            out
        };
        let read_miss = suffix(&self.read_split);
        let whole_miss = suffix(&self.write_whole_split);
        let partial_miss = suffix(&self.write_partial_split);
        let dirtied: Vec<Vec<u64>> = self
            .pol
            .iter()
            .map(|ps| suffix(&ps.dirtied_split))
            .collect();

        let reg = obs::global();
        reg.counter("cachesim.stack.distances_recorded")
            .add(self.distances);
        // The list never shrinks, so its final length is its peak.
        reg.gauge("cachesim.stack.tree_nodes_peak").record(self.len);

        self.cells
            .iter()
            .map(|cell| {
                let i = cell.cap_idx;
                let mut m = CacheMetrics {
                    logical_reads: self.total_reads,
                    logical_writes: self.total_writes,
                    read_hits: self.total_reads - read_miss[i],
                    disk_reads: read_miss[i] + partial_miss[i],
                    ..CacheMetrics::default()
                };
                if self.elision {
                    m.elided_fetches = whole_miss[i];
                } else {
                    m.disk_reads += whole_miss[i];
                }
                match cell.policy_idx {
                    // Write-through: every logical write goes straight
                    // to disk with zero residency, at any capacity.
                    None => {
                        m.disk_writes = self.total_writes;
                        m.blocks_dirtied = self.total_writes;
                        m.dirty_residency_ms.add(0, self.total_writes);
                    }
                    Some(p) => {
                        m.disk_writes = self.pol[p].disk_writes[i];
                        m.blocks_dirtied = dirtied[p][i];
                        m.dirty_blocks_never_written = self.pol[p].never_written[i];
                        m.dirty_residency_ms = self.pol[p].residency[i].clone();
                    }
                }
                m
            })
            .collect()
    }
}

impl BlockSink for Profile {
    /// One block reference: `write` is `None` for reads, else
    /// `Some(whole_block_overwrite)`.
    fn access(&mut self, id: BlockId, now_ms: u64, write: Option<bool>) {
        self.flush_if_due(now_ms);
        self.distances += 1;

        let k = self.caps.len();
        let b = self.blocks.get(&id).copied();
        let seg = b.map_or(k, |s| self.entries[s as usize].seg as usize);
        match write {
            None => {
                self.total_reads += 1;
                self.read_split[seg] += 1;
            }
            Some(true) => {
                self.total_writes += 1;
                self.write_whole_split[seg] += 1;
            }
            Some(false) => {
                self.total_writes += 1;
                self.write_partial_split[seg] += 1;
            }
        }

        // The shallowest hole, if it lies above the referenced block.
        // Holes below it are irrelevant this access: positions at or
        // beyond the block's depth do not move.
        let hole = self
            .holes
            .peek()
            .filter(|&&(stamp, _)| b.is_none_or(|s| stamp > self.entries[s as usize].stamp))
            .map(|&(_, h)| h);
        let bound = hole.map_or(seg, |h| self.entries[h as usize].seg as usize);
        // A miss that consumes no hole lengthens the list, unless the
        // list already reaches the largest capacity (the walk prunes).
        let grows = b.is_none() && hole.is_none() && self.markers.len() < k;
        let top = match b {
            Some(s) => s,
            None => self.alloc(id),
        };

        // Eviction walk: the entry at depth exactly `caps[j]` shifts to
        // `caps[j] + 1`, leaving the capacity-`j` window — for every
        // capacity below both the reuse depth (larger ones hit) and the
        // shallowest hole (those fill free space instead). Such entries
        // are valid blocks: no holes exist above the shallowest one.
        for j in 0..bound.min(self.markers.len()) {
            let v = self.markers[j];
            debug_assert_eq!(
                self.blocks.get(&self.entries[v as usize].id),
                Some(&v),
                "entries above the shallowest hole are valid blocks"
            );
            self.evict_dirty(v, j, now_ms);
            self.step_marker(v, top);
            self.entries[v as usize].seg = j as u32 + 1;
            if j == k - 1 {
                // Sunk past the largest tracked capacity: in no cache
                // any more, so forget it — a future reference is a cold
                // miss everywhere, which is exactly what the direct
                // simulators see. Bounds the list at `caps[k - 1]`.
                debug_assert!(
                    self.pol.iter().all(|ps| ps.m[v as usize] as usize == k),
                    "pruned entry must be clean everywhere"
                );
                self.unlink(v);
                self.file_unlink(v);
                self.blocks.remove(&self.entries[v as usize].id);
                self.free.push(v);
            }
        }

        // Restack: consume the shallowest hole above the block, leave a
        // hole at the block's old position when one was consumed (the
        // hole migrates down — net positions: entries above the old
        // hole sink one, everything else stays), then push the block on
        // top.
        if let Some(h) = hole {
            self.holes.pop();
            self.step_marker(h, top);
            self.unlink(h);
            match b {
                Some(s) => {
                    self.replace(s, h);
                    self.holes.push((self.entries[h as usize].stamp, h));
                }
                None => self.free.push(h),
            }
        } else if let Some(s) = b {
            self.step_marker(s, top);
            self.unlink(s);
        }
        self.push_front(top);
        if grows {
            self.len += 1;
            if self.caps[self.markers.len()] == self.len {
                self.markers.push(self.tail);
            }
        }

        // Dirty transitions: a write dirties the block in every
        // capacity column where it was clean (`i < m`), restarting
        // those residency clocks; columns `>= m` keep their original
        // dirtied-at times, exactly like the direct write-hit path.
        if write.is_some() {
            let s = top as usize;
            for ps in &mut self.pol {
                let m = std::mem::replace(&mut ps.m[s], 0) as usize;
                ps.dirtied_split[m] += 1;
                ps.t[s * k..s * k + m].fill(now_ms);
                if !ps.listed[s] {
                    ps.listed[s] = true;
                    ps.dirty_slots.push(top);
                }
            }
        }
    }

    fn invalidate(&mut self, file: FileId, first_block: u64, now_ms: u64) {
        let k = self.caps.len();
        let mut i = self.per_file.get(&file).copied().unwrap_or(NIL);
        while i != NIL {
            let e = &self.entries[i as usize];
            let (id, stamp, fnext) = (e.id, e.stamp, e.fnext);
            if id.block >= first_block {
                // The entry becomes a hole in place (no other entry's
                // position changes), and dirty copies are dropped
                // without writing — counted per capacity column where
                // the block was dirty, necessarily a subset of the
                // columns whose cache held it.
                self.file_unlink(i);
                self.blocks.remove(&id);
                self.holes.push((stamp, i));
                let s = i as usize;
                for ps in &mut self.pol {
                    for c in std::mem::replace(&mut ps.m[s], k as u32) as usize..k {
                        ps.never_written[c] += 1;
                        ps.residency[c].add(now_ms.saturating_sub(ps.t[s * k + c]), 1);
                    }
                }
            }
            i = fnext;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fidelity;
    use crate::replay::{replay_events, Simulator};
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn cells_for(caps_blocks: &[u64], policies: &[WritePolicy]) -> Vec<CacheConfig> {
        caps_blocks
            .iter()
            .flat_map(|&blocks| {
                policies.iter().map(move |&p| CacheConfig {
                    cache_bytes: blocks * 4096,
                    block_size: 4096,
                    write_policy: p,
                    ..CacheConfig::default()
                })
            })
            .collect()
    }

    /// Profiles the trace for `cells` in one engine pass, checks every
    /// cell against a direct simulation, and returns the profile.
    fn assert_matches_direct(trace: &Trace, cells: &[CacheConfig]) -> Vec<CacheMetrics> {
        let mut engine = StackEngine::try_new(cells).expect("profilable");
        for ev in replay_events(trace, &cells[0]) {
            engine.step(&ev);
        }
        let profiled = engine.finish();
        for (config, got) in cells.iter().zip(&profiled) {
            let want = Simulator::run(trace, config);
            assert_eq!(got, &want, "config {config:?}");
        }
        profiled
    }

    /// Reads, overwrites, truncates, and deletes — the full event
    /// repertoire including hole creation and consumption.
    fn busy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let mut files = Vec::new();
        for i in 0..6u64 {
            let f = b.new_file_id();
            files.push(f);
            let t = i * 7_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 20_000, false);
            b.close(t + 100, o, 20_000);
        }
        // Rewrite two files, truncate one, delete another, then re-read
        // everything so consumed holes and cold re-misses both occur.
        let o = b.open(50_000, files[0], u, AccessMode::WriteOnly, 20_000, false);
        b.close(50_100, o, 20_000);
        b.truncate(55_000, files[1], 5_000, u);
        b.unlink(60_000, files[2], u);
        let o = b.open(65_000, files[3], u, AccessMode::ReadWrite, 20_000, false);
        b.seek(65_010, o, 4_000, 9_000);
        b.close(65_100, o, 15_000);
        for (i, &f) in files.iter().enumerate() {
            let t = 100_000 + i as u64 * 3_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 12_000, false);
            b.close(t + 100, o, 12_000);
        }
        b.finish()
    }

    #[test]
    fn matches_direct_across_sizes_and_policies() {
        let cells = cells_for(&[1, 2, 3, 5, 8, 100], &WritePolicy::TABLE_VI);
        assert_matches_direct(&busy_trace(), &cells);
    }

    #[test]
    fn duplicate_and_single_capacity_cells() {
        // Duplicate (capacity, policy) pairs and a lone capacity: the
        // engine must align outputs with inputs, duplicates included.
        let mut cells = cells_for(&[4], &WritePolicy::TABLE_VI);
        cells.push(cells[0].clone());
        cells.push(cells[3].clone());
        assert_matches_direct(&busy_trace(), &cells);
    }

    #[test]
    fn deletion_holes_do_not_readmit_blocks() {
        // Three reads fill a 2-block cache's history; invalidating the
        // newest must not let the oldest re-enter the 2-block window.
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let mut files = Vec::new();
        for i in 0..3u64 {
            let f = b.new_file_id();
            files.push(f);
            let t = i * 1_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 4_096, false);
            b.close(t + 100, o, 4_096);
        }
        b.unlink(5_000, files[2], u);
        // Re-read file 0: depth 3 before the delete, and still a miss
        // at capacity 2 afterwards (the hole keeps its position).
        let o = b.open(6_000, files[0], u, AccessMode::ReadOnly, 4_096, false);
        b.close(6_100, o, 4_096);
        let trace = b.finish();
        let cells = cells_for(&[1, 2, 3, 4], &[WritePolicy::DelayedWrite]);
        let profiled = assert_matches_direct(&trace, &cells);
        // Capacity 2: the re-read must miss (4 disk reads total).
        assert_eq!(profiled[1].disk_reads, 4);
        // Capacity 3: the re-read hits (file 0 was 3rd most recent).
        assert_eq!(profiled[2].disk_reads, 3);
    }

    #[test]
    fn rejects_fifo_and_mismatched_cells() {
        let lru = CacheConfig {
            cache_bytes: 8 * 4096,
            ..CacheConfig::default()
        };
        let fifo = CacheConfig {
            replacement: Replacement::Fifo,
            ..lru.clone()
        };
        assert!(!profilable(&fifo));
        assert!(StackEngine::try_new(&[lru.clone(), fifo]).is_none());
        let other_bs = CacheConfig {
            block_size: 8192,
            ..lru.clone()
        };
        assert!(StackEngine::try_new(&[lru.clone(), other_bs]).is_none());
        let no_inval = CacheConfig {
            invalidate_on_delete: false,
            ..lru.clone()
        };
        assert!(StackEngine::try_new(&[lru.clone(), no_inval]).is_none());
        let syscall = CacheConfig {
            fidelity: Fidelity::Syscall,
            ..lru.clone()
        };
        assert!(profilable(&syscall));
        assert!(StackEngine::try_new(&[lru.clone(), syscall]).is_none());
        assert!(StackEngine::try_new(&[]).is_none());
        assert!(StackEngine::try_new(&[lru]).is_some());
    }

    #[test]
    fn elision_and_invalidation_variants_match() {
        let trace = busy_trace();
        for elision in [true, false] {
            for inval in [true, false] {
                let cells: Vec<CacheConfig> = cells_for(&[2, 4, 16], &WritePolicy::TABLE_VI)
                    .into_iter()
                    .map(|c| CacheConfig {
                        whole_block_elision: elision,
                        invalidate_on_delete: inval,
                        ..c
                    })
                    .collect();
                assert_matches_direct(&trace, &cells);
            }
        }
    }

    #[test]
    fn op_fidelities_match_direct() {
        // Syscall and open fidelity replay `Op` extents: every write is
        // whole and the size map is never read, in the profile as in
        // the direct cache.
        for fidelity in [Fidelity::Syscall, Fidelity::Open] {
            let cells: Vec<CacheConfig> = cells_for(&[1, 2, 5, 100], &WritePolicy::TABLE_VI)
                .into_iter()
                .map(|c| CacheConfig { fidelity, ..c })
                .collect();
            assert_matches_direct(&busy_trace(), &cells);
        }
    }

    #[test]
    fn compaction_survives_long_reference_streams() {
        // Far more distinct blocks than the largest capacity: forces
        // pruning and steady slot reuse.
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for round in 0..4u64 {
            for i in 0..40u64 {
                let f = fstrace::FileId(i % 25);
                let t = round * 100_000 + i * 1_000;
                let o = b.open(t, f, u, AccessMode::ReadOnly, 8_192, false);
                b.close(t + 100, o, 8_192);
            }
        }
        let cells = cells_for(&[2, 7, 16], &WritePolicy::TABLE_VI);
        assert_matches_direct(&b.finish(), &cells);
    }

    /// A trace of one-block references seven seconds apart (so the
    /// 30-second flush fires every few): `rN` reads file N's only
    /// block, `wN` overwrites it whole, `uN` unlinks file N.
    fn one_block_trace(script: &str) -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for (i, op) in script.split_whitespace().enumerate() {
            let t = i as u64 * 7_000;
            let f = fstrace::FileId(op[1..].parse().expect("file number"));
            let mode = match &op[..1] {
                "r" => AccessMode::ReadOnly,
                "w" => AccessMode::WriteOnly,
                _ => {
                    b.unlink(t, f, u);
                    continue;
                }
            };
            let o = b.open(t, f, u, mode, 4_096, false);
            b.close(t + 100, o, 4_096);
        }
        b.finish()
    }

    #[test]
    fn one_block_capacity_rereferences_the_top() {
        // The capacity-1 marker sits on the block re-referenced on top
        // and must stay there; the dirty copy stays dirty in place.
        let trace = one_block_trace("w0 w0 r0 r1 r1 w1 w1 r0 r0 w0 r1 r1");
        assert_matches_direct(&trace, &cells_for(&[1, 3], &WritePolicy::TABLE_VI));
    }

    #[test]
    fn hole_on_top_consumed_by_a_miss() {
        // Unlinking the block on top leaves a hole at depth 1 carrying
        // the capacity-1 marker; the next miss consumes it and takes
        // the marker. The dirty `w3` dies unwritten on top.
        let trace = one_block_trace("w0 r1 u1 r2 r0 w3 u3 w4 r0 r2 r4 r1");
        assert_matches_direct(&trace, &cells_for(&[1, 2, 3], &WritePolicy::TABLE_VI));
    }

    #[test]
    fn hole_directly_above_the_rereferenced_block() {
        // `u1` leaves a hole right above block 0 (at depth 2, then at
        // depth 1 after `r0 r1 u1`); re-reading 0 consumes it, and 0's
        // old slot becomes the new hole with 0's capacity-3 marker,
        // which the next miss (`r3`) must find there.
        let cells = cells_for(&[1, 2, 3, 4], &WritePolicy::TABLE_VI);
        let trace = one_block_trace("w0 r1 w2 u1 r0 r3 r5 r0 r2 w0 r1 u1 r0 r4 r5 w2 r0 r3");
        assert_matches_direct(&trace, &cells);
        // With dirty 7 between the hole and 6, the new hole at 6's old
        // depth keeps 6's stamp: it lies below 7, so re-reading 7 is a
        // plain hit that consumes nothing and writes nothing back.
        let trace = one_block_trace("r6 w7 r8 r9 u8 r6 r7 r9 r6 w7 r8");
        assert_matches_direct(&trace, &cells);
    }

    #[test]
    fn markers_appear_as_the_stack_grows() {
        // Ten distinct blocks, one new block per step, each followed by
        // a re-reference of an older one: every capacity's marker first
        // appears at the tail, then every segment boundary is crossed.
        let script: Vec<String> = (0..10)
            .flat_map(|n| [format!("w{n}"), format!("r{}", n / 2)])
            .collect();
        let trace = one_block_trace(&script.join(" "));
        assert_matches_direct(&trace, &cells_for(&[1, 2, 3, 5, 8], &WritePolicy::TABLE_VI));
    }

    #[test]
    fn prunes_when_the_largest_capacity_is_one_block() {
        // One capacity of one block: every miss prunes the top entry
        // through the marker it also moves onto the incoming block, and
        // holes on top are consumed by hits and misses alike.
        let trace = one_block_trace("w0 r1 w0 r0 u0 w2 r1 r1 w3 u3 r4 w4 r0 u0 r0");
        assert_matches_direct(&trace, &cells_for(&[1], &WritePolicy::TABLE_VI));
    }
}
