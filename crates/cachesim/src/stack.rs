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
//! replacement (no inclusion property) and capacities past the tree
//! cap. Such cells — and subgroups of one cell, where a profile saves
//! nothing — fall back to the direct simulator;
//! [`crate::sweep::run_source`] does the partitioning.
//!
//! The order-statistic structure is a Fenwick tree over recency
//! sequence numbers: depth queries and "who sits at depth `c`"
//! selections are both O(log n) with n bounded by the largest tracked
//! capacity (entries sinking past it are pruned — they are in no
//! tracked cache, so a later reference is a cold miss everywhere, which
//! is exactly what forgetting them produces).

use std::collections::BTreeSet;

use fstrace::{FastMap, FastSet, FileId};
use simstat::Distribution;

use crate::cache::BlockId;
use crate::config::{CacheConfig, Replacement, WritePolicy};
use crate::metrics::CacheMetrics;
use crate::replay::{BlockSink, BlockSplit, ReplayEvent};

/// Caps the Fenwick tree size; configurations this large fall back to
/// direct simulation rather than risk `u32` sequence overflow.
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

/// A Fenwick (binary indexed) tree over 0/1 occupancy of sequence
/// slots, supporting prefix sums and rank selection in O(log n).
struct Fenwick {
    tree: Vec<u32>,
    /// Tree capacity (`tree.len() - 1`), a power of two, so the select
    /// walk starts at the root in one step.
    top_bit: usize,
}

impl Fenwick {
    fn new(slots: usize) -> Self {
        // Pad capacity to a power of two: `select` then needs no bounds
        // check (every probe `pos + step` stays `<= cap`, because `pos`
        // is a sum of distinct steps larger than `step`), which lets
        // the walk run branch-free.
        let cap = slots.next_power_of_two().max(1);
        Fenwick {
            tree: vec![0; cap + 1],
            top_bit: cap,
        }
    }

    /// Adds `delta` at sequence slot `seq` (0-based).
    fn add(&mut self, seq: u32, delta: i32) {
        let mut i = seq as usize + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Number of occupied slots with sequence `<= seq`.
    fn prefix(&self, seq: u32) -> u64 {
        let mut i = seq as usize + 1;
        let mut acc = 0u64;
        while i > 0 {
            acc += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        acc
    }

    /// Smallest sequence slot whose prefix sum reaches `k` (`k >= 1`;
    /// caller guarantees such a slot exists).
    ///
    /// The descent is branchless: each level turns "descend right?"
    /// into a 0/1 mask, so the loop is a fixed log₂(cap) iterations of
    /// straight-line arithmetic with no unpredictable branch — this
    /// walk dominates the profiled sweep's per-access cost.
    fn select(&self, k: u64) -> u32 {
        let mut pos = 0usize;
        let mut rem = k;
        let mut step = self.top_bit;
        while step > 0 {
            // The root probe (`pos == 0`, `step == cap`) reads the
            // whole-tree sum, which is `>= rem` by the caller's
            // guarantee, so `pos + step` never exceeds `cap`.
            let v = u64::from(self.tree[pos + step]);
            let take = usize::from(v < rem);
            rem -= v * take as u64;
            pos += step & take.wrapping_neg();
            step >>= 1;
        }
        pos as u32 // 1-based slot `pos + 1` → 0-based sequence `pos`.
    }
}

/// What occupies one sequence slot of the recency stack.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SeqState {
    /// Slot unused (never allocated, consumed, or pruned).
    Empty,
    /// An invalidated entry: keeps its position, owns no block.
    Hole,
    /// A live cached block.
    Block(BlockId),
}

/// Per-(policy, block) dirty record.
///
/// `m` is the smallest capacity index at which the block is still
/// dirty (capacities are sorted ascending, and dirtiness is a suffix:
/// small caches evict-and-clean first). `t[i]` is the time the block
/// became dirty in the capacity-`i` cache, valid for `i >= m` — the
/// timestamps differ per capacity because a small cache that evicted
/// and re-dirtied the block restarts its residency clock while a large
/// cache's older clock keeps running.
struct DirtyPart {
    m: usize,
    t: Vec<u64>,
}

/// Dirty-block bookkeeping for one tracked write policy across all
/// capacities (write-through needs none: its per-cell write traffic is
/// capacity-independent and derived analytically).
struct PolicyState {
    policy: WritePolicy,
    /// Flush interval for `FlushBack`, `None` otherwise.
    interval_ms: Option<u64>,
    last_flush_ms: u64,
    dirty: FastMap<BlockId, DirtyPart>,
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

    // The recency stack.
    fen: Fenwick,
    owner: Vec<SeqState>,
    blocks: FastMap<BlockId, u32>,
    holes: BTreeSet<u32>,
    active: u64,
    next_seq: u32,
    per_file: FastMap<FileId, FastSet<u64>>,

    // Distance accounting. `*_split[k]` counts accesses whose distance
    // exceeded exactly the `k` smallest capacities (misses for capacity
    // indices `< k`); `k == K` means a miss everywhere.
    total_reads: u64,
    total_writes: u64,
    read_split: Vec<u64>,
    write_whole_split: Vec<u64>,
    write_partial_split: Vec<u64>,

    tree_peak: u64,
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
                                dirty: FastMap::default(),
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
            fen: Fenwick::new(64),
            owner: vec![SeqState::Empty; 64],
            blocks: FastMap::default(),
            holes: BTreeSet::new(),
            active: 0,
            next_seq: 0,
            per_file: FastMap::default(),
            total_reads: 0,
            total_writes: 0,
            read_split: vec![0; k + 1],
            write_whole_split: vec![0; k + 1],
            write_partial_split: vec![0; k + 1],
            tree_peak: 0,
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
    /// Positional depth of sequence slot `seq`: 1 = most recent, holes
    /// count.
    fn depth(&self, seq: u32) -> u64 {
        self.active - self.fen.prefix(seq) + 1
    }

    /// Sequence slot of the entry at positional depth `c` (1-based;
    /// caller guarantees `c <= active`).
    fn seq_at_depth(&self, c: u64) -> u32 {
        self.fen.select(self.active - c + 1)
    }

    /// Renumbers live entries densely from 0, growing the slot arrays
    /// when more than half full. Amortized O(1) per access: each
    /// compaction reclaims at least half the slot space.
    fn compact(&mut self) {
        let live: Vec<(u32, SeqState)> = self
            .owner
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, SeqState::Empty))
            .map(|(i, s)| (i as u32, *s))
            .collect();
        let mut slots = self.owner.len();
        while live.len() + 1 > slots / 2 {
            slots *= 2;
        }
        self.fen = Fenwick::new(slots);
        self.owner = vec![SeqState::Empty; slots];
        self.holes.clear();
        for (new_seq, (_, state)) in live.iter().enumerate() {
            let new_seq = new_seq as u32;
            self.owner[new_seq as usize] = *state;
            self.fen.add(new_seq, 1);
            match state {
                SeqState::Hole => {
                    self.holes.insert(new_seq);
                }
                SeqState::Block(id) => {
                    self.blocks.insert(*id, new_seq);
                }
                SeqState::Empty => unreachable!(),
            }
        }
        self.next_seq = live.len() as u32;
    }

    /// Drops the entry at `seq` from the tree entirely.
    fn clear_slot(&mut self, seq: u32) {
        self.owner[seq as usize] = SeqState::Empty;
        self.fen.add(seq, -1);
        self.active -= 1;
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
                for (_, part) in ps.dirty.drain() {
                    for i in part.m..k {
                        ps.disk_writes[i] += 1;
                        ps.residency[i].add(now_ms.saturating_sub(part.t[i]), 1);
                    }
                }
                ps.last_flush_ms = now_ms - (now_ms - ps.last_flush_ms) % interval_ms;
            }
        }
    }

    /// Accounts an eviction of `victim` from the capacity-index-`j`
    /// cache at `now_ms`: a dirty victim is written back, exactly like
    /// `BlockCache::evict`.
    ///
    /// The victim can only be dirty at capacity `j` with `m == j`:
    /// depths are nondecreasing between accesses, so it crossed every
    /// smaller capacity boundary (cleaning those columns) before this
    /// one, and a re-dirtying write would have moved it back to the
    /// top.
    fn evict_dirty(&mut self, victim: BlockId, j: usize, now_ms: u64) {
        let k = self.caps.len();
        for ps in &mut self.pol {
            if let Some(part) = ps.dirty.get_mut(&victim) {
                debug_assert!(part.m >= j, "dirty suffix must start at or past {j}");
                if part.m == j {
                    ps.disk_writes[j] += 1;
                    ps.residency[j].add(now_ms.saturating_sub(part.t[j]), 1);
                    part.m = j + 1;
                    if part.m == k {
                        ps.dirty.remove(&victim);
                    }
                }
            }
        }
    }

    /// Invalidates one block: its entry becomes a hole in place (so no
    /// other entry's position changes), and dirty copies are dropped
    /// without writing — counted per capacity column where the block
    /// was dirty, which is necessarily a subset of the columns whose
    /// cache held it.
    fn invalidate_block(&mut self, id: BlockId, now_ms: u64) {
        let Some(seq) = self.blocks.remove(&id) else {
            return;
        };
        self.owner[seq as usize] = SeqState::Hole;
        self.holes.insert(seq);
        let k = self.caps.len();
        for ps in &mut self.pol {
            if let Some(part) = ps.dirty.remove(&id) {
                for i in part.m..k {
                    ps.never_written[i] += 1;
                    ps.residency[i].add(now_ms.saturating_sub(part.t[i]), 1);
                }
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
            for (_, part) in ps.dirty.drain() {
                for i in part.m..k {
                    ps.residency[i].add(end_time.saturating_sub(part.t[i]), 1);
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
        reg.gauge("cachesim.stack.tree_nodes_peak")
            .record(self.tree_peak);

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
        if self.next_seq as usize == self.owner.len() {
            self.compact();
        }
        self.flush_if_due(now_ms);
        self.distances += 1;

        let s_b = self.blocks.get(&id).copied();
        let d = match s_b {
            Some(s) => self.depth(s),
            None => u64::MAX,
        };
        let k = self.caps.partition_point(|&c| c < d);
        match write {
            None => {
                self.total_reads += 1;
                self.read_split[k] += 1;
            }
            Some(true) => {
                self.total_writes += 1;
                self.write_whole_split[k] += 1;
            }
            Some(false) => {
                self.total_writes += 1;
                self.write_partial_split[k] += 1;
            }
        }

        // The shallowest hole (highest sequence) above the referenced
        // block. Holes below it are irrelevant this access: positions
        // at or beyond the block's depth do not move.
        let hole = self
            .holes
            .iter()
            .next_back()
            .copied()
            .filter(|&hs| s_b.is_none_or(|s| hs > s));
        let bound = match hole {
            Some(hs) => self.depth(hs),
            None => d,
        };

        // Eviction walk: the entry at depth exactly `caps[j]` shifts to
        // `caps[j] + 1`, leaving the capacity-`j` window — for every
        // capacity below both the reuse depth (larger ones hit) and the
        // shallowest hole (those fill free space instead). Such entries
        // are valid blocks: no holes exist above the shallowest one.
        let last = self.caps.len() - 1;
        for j in 0..self.caps.len() {
            let c = self.caps[j];
            if c >= bound || c > self.active {
                break;
            }
            let victim_seq = self.seq_at_depth(c);
            let SeqState::Block(victim) = self.owner[victim_seq as usize] else {
                unreachable!("entries above the shallowest hole are valid blocks");
            };
            self.evict_dirty(victim, j, now_ms);
            if j == last {
                // Sunk past the largest tracked capacity: in no cache
                // any more, so forget it — a future reference is a cold
                // miss everywhere, which is exactly what the direct
                // simulators see. Bounds the tree at `caps[last]`.
                self.clear_slot(victim_seq);
                self.blocks.remove(&victim);
                if let Some(set) = self.per_file.get_mut(&victim.file) {
                    set.remove(&victim.block);
                    if set.is_empty() {
                        self.per_file.remove(&victim.file);
                    }
                }
                debug_assert!(
                    self.pol.iter().all(|ps| !ps.dirty.contains_key(&victim)),
                    "pruned entry must be clean everywhere"
                );
            }
        }

        // Restack: consume the shallowest hole above the block, leave a
        // hole at the block's old position when one was consumed (the
        // hole migrates down — net positions: entries above the old
        // hole sink one, everything else stays), then push the block on
        // top.
        match (s_b, hole) {
            (Some(s), Some(hs)) => {
                self.holes.remove(&hs);
                self.clear_slot(hs);
                self.owner[s as usize] = SeqState::Hole;
                self.holes.insert(s);
            }
            (Some(s), None) => {
                self.clear_slot(s);
            }
            (None, Some(hs)) => {
                self.holes.remove(&hs);
                self.clear_slot(hs);
            }
            (None, None) => {}
        }
        let ns = self.next_seq;
        self.next_seq += 1;
        self.owner[ns as usize] = SeqState::Block(id);
        self.fen.add(ns, 1);
        self.active += 1;
        self.blocks.insert(id, ns);
        if s_b.is_none() {
            self.per_file.entry(id.file).or_default().insert(id.block);
        }
        self.tree_peak = self.tree_peak.max(self.active);

        // Dirty transitions: a write dirties the block in every
        // capacity column where it was clean (`i < m`), restarting
        // those residency clocks; columns `>= m` keep their original
        // dirtied-at times, exactly like the direct write-hit path.
        if write.is_some() {
            let k = self.caps.len();
            for ps in &mut self.pol {
                match ps.dirty.get_mut(&id) {
                    Some(part) => {
                        ps.dirtied_split[part.m] += 1;
                        for i in 0..part.m {
                            part.t[i] = now_ms;
                        }
                        part.m = 0;
                    }
                    None => {
                        ps.dirtied_split[k] += 1;
                        ps.dirty.insert(
                            id,
                            DirtyPart {
                                m: 0,
                                t: vec![now_ms; k],
                            },
                        );
                    }
                }
            }
        }
    }

    fn invalidate(&mut self, file: FileId, first_block: u64, now_ms: u64) {
        let Some(set) = self.per_file.get_mut(&file) else {
            return;
        };
        let doomed: Vec<u64> = set.iter().copied().filter(|&b| b >= first_block).collect();
        set.retain(|&b| b < first_block);
        if set.is_empty() {
            self.per_file.remove(&file);
        }
        for block in doomed {
            self.invalidate_block(BlockId { file, block }, now_ms);
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
        // pruning and repeated sequence-space compaction.
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
}
