//! The system call layer: a Unix-flavored API over the FFS structures.
//!
//! All operations take the current simulated time in milliseconds; the
//! file system never reads a real clock. Paths are absolute
//! (`/usr/src/main.c`); `.` and `..` components are not supported.
//!
//! The tracer records the seven Table II events at this layer. Reads and
//! writes are *not* traced — their effects are deducible from the
//! positions recorded at `open`, `seek`, and `close`, which is the
//! paper's central tracing idea.

use std::collections::{HashMap, HashSet};

use fstrace::{AccessMode, FileId, OpenId, Trace, UserId};

use crate::alloc::{FragAllocator, InoAllocator};
use crate::buf::{BufCache, BufCacheStats, BufWritePolicy};
use crate::dir;
use crate::disk::{Disk, DiskStats};
use crate::error::{FsError, FsResult};
use crate::inode::{
    FileType, Ino, Inode, InodeTable, InodeTableStats, INODE_SIZE, NDIRECT, ROOT_INO,
};
use crate::params::FsParams;
use crate::tracer::Tracer;

/// Flags for [`Fs::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// Truncate the file to zero length if it exists.
    pub truncate: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY`.
    pub fn write_only() -> Self {
        OpenFlags {
            write: true,
            ..Default::default()
        }
    }

    /// `O_RDWR`.
    pub fn read_write() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..Default::default()
        }
    }

    /// `creat()`: write-only, create, truncate — the canonical way new
    /// files were made in 1985.
    pub fn create_write() -> Self {
        OpenFlags {
            write: true,
            create: true,
            truncate: true,
            ..Default::default()
        }
    }

    /// The trace access mode for these flags.
    pub fn mode(&self) -> FsResult<AccessMode> {
        match (self.read, self.write) {
            (true, false) => Ok(AccessMode::ReadOnly),
            (false, true) => Ok(AccessMode::WriteOnly),
            (true, true) => Ok(AccessMode::ReadWrite),
            (false, false) => Err(FsError::InvalidArg),
        }
    }
}

/// Whence argument for [`Fs::lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekFrom {
    /// Absolute position.
    Set(u64),
    /// Relative to end of file.
    End(i64),
    /// Relative to the current position.
    Current(i64),
}

/// A file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u32);

/// Metadata returned by [`Fs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// File type.
    pub file_type: FileType,
    /// Size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u16,
    /// Trace file id.
    pub fid: u64,
    /// Modification time (ms).
    pub mtime: u64,
}

/// System call counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// `open` calls that succeeded (including creates).
    pub opens: u64,
    /// Opens that created or truncated-to-zero the file.
    pub creates: u64,
    /// `close` calls.
    pub closes: u64,
    /// `read` calls.
    pub reads: u64,
    /// `write` calls.
    pub writes: u64,
    /// `lseek` calls.
    pub seeks: u64,
    /// `unlink` calls.
    pub unlinks: u64,
    /// `truncate` calls.
    pub truncates: u64,
    /// `execve` calls.
    pub execves: u64,
    /// Bytes read through `read`.
    pub bytes_read: u64,
    /// Bytes written through `write`.
    pub bytes_written: u64,
}

/// Name cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameCacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that scanned directory blocks.
    pub misses: u64,
}

impl NameCacheStats {
    /// Hit ratio in `[0, 1]` (Leffler et al. report ~85% for 4.3 BSD).
    ///
    /// Zero lookups yield `0.0`, per the workspace-wide [`obs::ratio`]
    /// convention.
    pub fn hit_ratio(&self) -> f64 {
        obs::ratio(self.hits, self.hits + self.misses)
    }
}

/// Live counter handles behind [`NameCacheStats`].
#[derive(Debug, Clone, Default)]
struct NameCounters {
    hits: obs::Counter,
    misses: obs::Counter,
}

impl NameCounters {
    fn snapshot(&self) -> NameCacheStats {
        NameCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    fn register(&self, registry: &obs::Registry, prefix: &str) {
        registry.attach_counter(&format!("{prefix}.hits"), &self.hits);
        registry.attach_counter(&format!("{prefix}.misses"), &self.misses);
    }
}

/// Directory name lookup cache: two-generation approximate LRU.
///
/// When the new generation fills half the capacity, it becomes the old
/// generation and lookups promote survivors back — O(1) per operation
/// with hit behavior close to true LRU.
struct NameCache {
    cap: usize,
    new: HashMap<(Ino, String), Ino>,
    old: HashMap<(Ino, String), Ino>,
    stats: NameCounters,
}

impl NameCache {
    fn new(cap: usize) -> Self {
        NameCache {
            cap: cap.max(2),
            new: HashMap::new(),
            old: HashMap::new(),
            stats: NameCounters::default(),
        }
    }

    fn lookup(&mut self, dirino: Ino, name: &str) -> Option<Ino> {
        let key = (dirino, name.to_string());
        if let Some(&ino) = self.new.get(&key) {
            self.stats.hits.inc();
            return Some(ino);
        }
        if let Some(&ino) = self.old.get(&key) {
            self.stats.hits.inc();
            self.insert(dirino, name, ino); // Promote.
            return Some(ino);
        }
        self.stats.misses.inc();
        None
    }

    fn insert(&mut self, dirino: Ino, name: &str, ino: Ino) {
        if self.new.len() >= self.cap / 2 {
            self.old = std::mem::take(&mut self.new);
        }
        self.new.insert((dirino, name.to_string()), ino);
    }

    fn invalidate(&mut self, dirino: Ino, name: &str) {
        let key = (dirino, name.to_string());
        self.new.remove(&key);
        self.old.remove(&key);
    }

    fn purge_dir(&mut self, dirino: Ino) {
        self.new.retain(|(d, _), _| *d != dirino);
        self.old.retain(|(d, _), _| *d != dirino);
    }
}

/// An open file description.
#[derive(Debug, Clone)]
struct OpenFile {
    ino: Ino,
    pos: u64,
    mode: AccessMode,
    open_id: OpenId,
}

/// The file system: disk, allocators, caches, descriptors, and tracer.
///
/// See the crate documentation for an overview and example.
pub struct Fs {
    params: FsParams,
    disk: Disk,
    falloc: FragAllocator,
    ialloc: InoAllocator,
    itable: InodeTable,
    bcache: BufCache,
    ncache: NameCache,
    fds: Vec<Option<OpenFile>>,
    free_fds: Vec<u32>,
    orphans: HashSet<Ino>,
    tracer: Tracer,
    stats: FsStats,
    next_fid: u64,
    last_sync_ms: u64,
    data_start: u64,
}

impl Fs {
    /// Creates ("mkfs") a file system with the given parameters, using
    /// the flush-back or delayed-write policy implied by
    /// `params.sync_interval_ms`. Tracing starts enabled.
    pub fn new(params: FsParams) -> FsResult<Self> {
        let policy = match params.sync_interval_ms {
            Some(interval_ms) => BufWritePolicy::FlushBack { interval_ms },
            None => BufWritePolicy::DelayedWrite,
        };
        Fs::with_policy(params, policy)
    }

    /// Creates a file system with an explicit buffer cache write policy.
    pub fn with_policy(params: FsParams, policy: BufWritePolicy) -> FsResult<Self> {
        params.validate().map_err(FsError::Corrupt)?;
        let inode_bytes = params.ninodes as u64 * INODE_SIZE as u64;
        let inode_frags = inode_bytes.div_ceil(params.frag_size as u64);
        let data_start = 1 + inode_frags; // Frag 0 is the superblock.
        let total_frags = data_start + params.data_frags;
        let mut disk = Disk::new(params.frag_size, total_frags);
        // Write a minimal superblock so the disk is self-describing.
        let mut sb = vec![0u8; params.frag_size as usize];
        sb[0..4].copy_from_slice(b"FFS\x01");
        sb[4..8].copy_from_slice(&params.frag_size.to_le_bytes());
        sb[8..12].copy_from_slice(&params.frags_per_block.to_le_bytes());
        sb[12..16].copy_from_slice(&params.ninodes.to_le_bytes());
        disk.write_extent(0, 1, &sb);
        let falloc = FragAllocator::new(
            params.frags_per_block,
            data_start,
            params.data_frags,
            params.cyl_groups,
        );
        let mut fs = Fs {
            bcache: BufCache::new(params.bcache_bytes, policy),
            ncache: NameCache::new(params.ncache_entries),
            itable: InodeTable::new(params.icache_entries),
            ialloc: InoAllocator::new(params.ninodes),
            falloc,
            disk,
            fds: Vec::new(),
            free_fds: Vec::new(),
            orphans: HashSet::new(),
            tracer: Tracer::new(true),
            stats: FsStats::default(),
            next_fid: 1,
            last_sync_ms: 0,
            data_start,
            params,
        };
        // Create the root directory.
        let root = fs.ialloc.alloc()?;
        debug_assert_eq!(Ino(root), ROOT_INO);
        let mut inode = Inode::empty(FileType::Directory, 0, 0);
        inode.nlink = 1;
        fs.istore(ROOT_INO, inode);
        fs.sync(0);
        Ok(fs)
    }

    /// Geometry and tuning parameters.
    pub fn params(&self) -> &FsParams {
        &self.params
    }

    /// Full block size in bytes.
    fn bs(&self) -> u64 {
        self.params.block_size() as u64
    }

    /// Pointers per indirect block.
    fn ppb(&self) -> u64 {
        self.bs() / 4
    }

    // ------------------------------------------------------------------
    // Inode I/O.

    fn inode_frag(&self, ino: Ino) -> u64 {
        1 + (ino.0 as u64 * INODE_SIZE as u64) / self.params.frag_size as u64
    }

    fn inode_off(&self, ino: Ino) -> usize {
        (ino.0 as usize * INODE_SIZE) % self.params.frag_size as usize
    }

    fn iflush(&mut self, ino: Ino, inode: &Inode) {
        let frag = self.inode_frag(ino);
        let off = self.inode_off(ino);
        let bytes = inode.to_bytes();
        self.bcache.modify(&mut self.disk, frag, 1, false, |b| {
            b[off..off + INODE_SIZE].copy_from_slice(&bytes);
        });
    }

    /// Loads an inode (through the caches) and returns a copy.
    fn iget(&mut self, ino: Ino) -> FsResult<Inode> {
        if let Some(i) = self.itable.get(ino) {
            return Ok(i.clone());
        }
        let frag = self.inode_frag(ino);
        let off = self.inode_off(ino);
        let inode = self
            .bcache
            .read(&mut self.disk, frag, 1, |b| {
                Inode::from_bytes(&b[off..off + INODE_SIZE])
            })
            .ok_or(FsError::Corrupt("reference to free inode"))?;
        let evicted = self.itable.insert(ino, inode.clone(), false);
        for (eino, einode) in evicted {
            self.iflush(eino, &einode);
        }
        Ok(inode)
    }

    /// Stores an updated inode into the in-core table (dirty).
    fn istore(&mut self, ino: Ino, inode: Inode) {
        if let Some(slot) = self.itable.get_mut(ino) {
            *slot = inode;
            return;
        }
        let evicted = self.itable.insert(ino, inode, true);
        for (eino, einode) in evicted {
            self.iflush(eino, &einode);
        }
    }

    /// Frees an inode: zeroes the on-disk slot and releases the number.
    fn ifree(&mut self, ino: Ino) {
        let frag = self.inode_frag(ino);
        let off = self.inode_off(ino);
        self.bcache.modify(&mut self.disk, frag, 1, false, |b| {
            b[off..off + INODE_SIZE].fill(0);
        });
        self.itable.remove(ino);
        self.ialloc.release(ino.0);
    }

    // ------------------------------------------------------------------
    // Block mapping.

    /// Fragments occupied by file block `fb` of a file of `size` bytes.
    fn frags_of_block(&self, size: u64, fb: u64) -> u32 {
        let bs = self.bs();
        let start = fb * bs;
        debug_assert!(size > start);
        let bytes = (size - start).min(bs);
        bytes.div_ceil(self.params.frag_size as u64) as u32
    }

    fn max_blocks(&self) -> u64 {
        NDIRECT as u64 + self.ppb() + self.ppb() * self.ppb()
    }

    /// Returns the fragment address of file block `fb`, or 0 if unmapped.
    fn bmap_read(&mut self, inode: &Inode, fb: u64) -> FsResult<u32> {
        let ppb = self.ppb();
        if fb < NDIRECT as u64 {
            return Ok(inode.direct[fb as usize]);
        }
        let fb = fb - NDIRECT as u64;
        if fb < ppb {
            if inode.indirect == 0 {
                return Ok(0);
            }
            let addr = inode.indirect as u64;
            let fpb = self.params.frags_per_block;
            return Ok(self.bcache.read(&mut self.disk, addr, fpb, |b| {
                let i = fb as usize * 4;
                u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
            }));
        }
        let fb = fb - ppb;
        if fb >= ppb * ppb {
            return Err(FsError::FileTooBig);
        }
        if inode.dindirect == 0 {
            return Ok(0);
        }
        let fpb = self.params.frags_per_block;
        let l1 = self
            .bcache
            .read(&mut self.disk, inode.dindirect as u64, fpb, |b| {
                let i = (fb / ppb) as usize * 4;
                u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
            });
        if l1 == 0 {
            return Ok(0);
        }
        Ok(self.bcache.read(&mut self.disk, l1 as u64, fpb, |b| {
            let i = (fb % ppb) as usize * 4;
            u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
        }))
    }

    /// Allocates a zeroed full block for metadata (indirect blocks).
    fn alloc_meta_block(&mut self, pref: u32) -> FsResult<u32> {
        let fpb = self.params.frags_per_block;
        let addr = self.falloc.alloc(pref, fpb)?;
        self.bcache
            .modify(&mut self.disk, addr, fpb, true, |b| b.fill(0));
        u32::try_from(addr).map_err(|_| FsError::FileTooBig)
    }

    fn write_ptr(&mut self, block_addr: u32, index: u64, value: u32) {
        let fpb = self.params.frags_per_block;
        self.bcache
            .modify(&mut self.disk, block_addr as u64, fpb, false, |b| {
                let i = index as usize * 4;
                b[i..i + 4].copy_from_slice(&value.to_le_bytes());
            });
    }

    /// Records `addr` as the location of file block `fb`, allocating
    /// indirect blocks as needed. Mutates the caller's inode copy.
    fn bmap_set(&mut self, ino: Ino, inode: &mut Inode, fb: u64, addr: u32) -> FsResult<()> {
        let ppb = self.ppb();
        let pref = ino.0 % self.params.cyl_groups;
        if fb < NDIRECT as u64 {
            inode.direct[fb as usize] = addr;
            return Ok(());
        }
        let fb = fb - NDIRECT as u64;
        if fb < ppb {
            if inode.indirect == 0 {
                inode.indirect = self.alloc_meta_block(pref)?;
            }
            self.write_ptr(inode.indirect, fb, addr);
            return Ok(());
        }
        let fb = fb - ppb;
        if fb >= ppb * ppb {
            return Err(FsError::FileTooBig);
        }
        if inode.dindirect == 0 {
            inode.dindirect = self.alloc_meta_block(pref)?;
        }
        let fpb = self.params.frags_per_block;
        let l1_index = fb / ppb;
        let l1 = self
            .bcache
            .read(&mut self.disk, inode.dindirect as u64, fpb, |b| {
                let i = l1_index as usize * 4;
                u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
            });
        let l1 = if l1 == 0 {
            let fresh = self.alloc_meta_block(pref)?;
            self.write_ptr(inode.dindirect, l1_index, fresh);
            fresh
        } else {
            l1
        };
        self.write_ptr(l1, fb % ppb, addr);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data I/O.

    /// Writes `len` bytes at `pos`, growing the file. `src` supplies the
    /// data: `Some(bytes)` for real content, `None` for the file's fill
    /// pattern byte.
    fn do_write(
        &mut self,
        ino: Ino,
        inode: Inode,
        pos: u64,
        len: u64,
        src: Option<&[u8]>,
        now_ms: u64,
    ) -> FsResult<Inode> {
        let pattern = (inode.fid as u8) | 1;
        self.do_write_fill(ino, inode, pos, len, src, pattern, now_ms)
    }

    #[allow(clippy::too_many_arguments)]
    fn do_write_fill(
        &mut self,
        ino: Ino,
        mut inode: Inode,
        pos: u64,
        len: u64,
        src: Option<&[u8]>,
        pattern: u8,
        now_ms: u64,
    ) -> FsResult<Inode> {
        if len == 0 {
            return Ok(inode);
        }
        if let Some(s) = src {
            debug_assert_eq!(s.len() as u64, len);
        }
        // Fill any gap between EOF and pos with zeros first (no sparse
        // files), so every mapped block below EOF is allocated.
        if pos > inode.size {
            let gap = pos - inode.size;
            let start = inode.size;
            inode = self.do_write_fill(ino, inode, start, gap, None, 0, now_ms)?;
        }
        let bs = self.bs();
        let end = pos + len;
        if end.div_ceil(bs) > self.max_blocks() {
            return Err(FsError::FileTooBig);
        }
        let frag = self.params.frag_size as u64;
        let first_fb = pos / bs;
        let last_fb = (end - 1) / bs;
        for fb in first_fb..=last_fb {
            let block_start = fb * bs;
            let write_lo = pos.max(block_start);
            let write_hi = end.min(block_start + bs);
            let old_bytes = inode.size.saturating_sub(block_start).min(bs);
            let new_bytes = old_bytes.max(write_hi - block_start);
            let req = new_bytes.div_ceil(frag) as u32;
            let cur_addr = self.bmap_read(&inode, fb)?;
            let cur_frags = if cur_addr == 0 {
                0
            } else {
                old_bytes.div_ceil(frag) as u32
            };
            let pref = ino.0 % self.params.cyl_groups;
            let (addr, fresh) = if cur_addr == 0 {
                let a = self.falloc.alloc(pref, req)?;
                let a32 = u32::try_from(a).map_err(|_| FsError::FileTooBig)?;
                self.bmap_set(ino, &mut inode, fb, a32)?;
                (a, true)
            } else if req > cur_frags {
                // Grow the tail extent: capture current content, then
                // either extend in place or reallocate (FFS realloccg).
                let old = cur_addr as u64;
                let mut kept = vec![0u8; (cur_frags as u64 * frag) as usize];
                self.bcache.read(&mut self.disk, old, cur_frags, |b| {
                    kept.copy_from_slice(b);
                });
                self.bcache.invalidate(old);
                let a = if self.falloc.extend_in_place(old, cur_frags, req) {
                    old
                } else {
                    self.falloc.free(old, cur_frags);
                    let a = self.falloc.alloc(pref, req)?;
                    let a32 = u32::try_from(a).map_err(|_| FsError::FileTooBig)?;
                    self.bmap_set(ino, &mut inode, fb, a32)?;
                    a
                };
                // Rebuild the (larger) extent wholesale from kept bytes;
                // the write below then lays new data over it.
                self.bcache.modify(&mut self.disk, a, req, true, |b| {
                    b.fill(0);
                    b[..kept.len()].copy_from_slice(&kept);
                });
                (a, false)
            } else {
                (cur_addr as u64, false)
            };
            // Whole-extent overwrite elision: safe when the write covers
            // every previously valid byte of the block.
            let whole = fresh || (write_lo == block_start && write_hi - block_start >= old_bytes);
            let lo = (write_lo - block_start) as usize;
            let hi = (write_hi - block_start) as usize;
            let src_off = (write_lo - pos) as usize;
            self.bcache.modify(&mut self.disk, addr, req, whole, |b| {
                if fresh && whole {
                    b.fill(0);
                }
                match src {
                    Some(s) => b[lo..hi].copy_from_slice(&s[src_off..src_off + (hi - lo)]),
                    None => b[lo..hi].fill(pattern),
                }
            });
            inode.size = inode.size.max(write_hi);
        }
        inode.mtime = now_ms;
        Ok(inode)
    }

    /// Reads up to `len` bytes at `pos`; returns bytes read (short at
    /// EOF). `out` receives the data when provided.
    fn do_read(
        &mut self,
        inode: &Inode,
        pos: u64,
        len: u64,
        mut out: Option<&mut [u8]>,
    ) -> FsResult<u64> {
        if pos >= inode.size || len == 0 {
            return Ok(0);
        }
        let n = len.min(inode.size - pos);
        let bs = self.bs();
        let frag = self.params.frag_size as u64;
        let end = pos + n;
        for fb in pos / bs..=(end - 1) / bs {
            let block_start = fb * bs;
            let lo = pos.max(block_start);
            let hi = end.min(block_start + bs);
            let addr = self.bmap_read(inode, fb)?;
            if addr == 0 {
                return Err(FsError::Corrupt("hole inside file"));
            }
            let nfrags = self.frags_of_block(inode.size, fb);
            debug_assert!((hi - 1 - block_start) / frag < nfrags as u64);
            self.bcache.read(&mut self.disk, addr as u64, nfrags, |b| {
                if let Some(buf) = out.as_deref_mut() {
                    let dst_lo = (lo - pos) as usize;
                    let dst_hi = (hi - pos) as usize;
                    buf[dst_lo..dst_hi].copy_from_slice(
                        &b[(lo - block_start) as usize..(hi - block_start) as usize],
                    );
                }
            });
        }
        Ok(n)
    }

    /// Frees all blocks beyond `new_len` and shrinks the tail extent.
    fn do_truncate(&mut self, ino: Ino, mut inode: Inode, new_len: u64) -> FsResult<Inode> {
        if new_len >= inode.size {
            inode.size = new_len.max(inode.size);
            return Ok(inode);
        }
        let bs = self.bs();
        let frag = self.params.frag_size as u64;
        let old_blocks = inode.size.div_ceil(bs);
        let new_blocks = new_len.div_ceil(bs);
        // Free whole blocks past the new end.
        for fb in new_blocks..old_blocks {
            let addr = self.bmap_read(&inode, fb)?;
            if addr != 0 {
                let nfrags = self.frags_of_block(inode.size, fb);
                self.bcache.invalidate(addr as u64);
                self.falloc.free(addr as u64, nfrags);
                self.bmap_set(ino, &mut inode, fb, 0)?;
            }
        }
        // Shrink the new tail block's fragment run if it got shorter.
        if new_len > 0 {
            let fb = new_blocks - 1;
            let addr = self.bmap_read(&inode, fb)?;
            if addr != 0 {
                let old_tail = self.frags_of_block(inode.size, fb);
                let new_tail = (new_len - fb * bs).div_ceil(frag) as u32;
                if new_tail < old_tail {
                    let keep_len = (new_tail as u64 * frag) as usize;
                    let mut kept = vec![0u8; keep_len];
                    self.bcache
                        .read(&mut self.disk, addr as u64, old_tail, |b| {
                            kept.copy_from_slice(&b[..keep_len]);
                        });
                    self.bcache.invalidate(addr as u64);
                    self.falloc
                        .free(addr as u64 + new_tail as u64, old_tail - new_tail);
                    self.bcache
                        .modify(&mut self.disk, addr as u64, new_tail, true, |b| {
                            b.copy_from_slice(&kept);
                        });
                }
            }
        }
        // Release indirect blocks that no longer map anything.
        let fpb = self.params.frags_per_block;
        let ppb = self.ppb();
        if new_blocks <= NDIRECT as u64 && inode.indirect != 0 {
            self.bcache.invalidate(inode.indirect as u64);
            self.falloc.free(inode.indirect as u64, fpb);
            inode.indirect = 0;
        }
        if new_blocks <= NDIRECT as u64 + ppb && inode.dindirect != 0 {
            // Free all live level-1 blocks, then the root.
            let dind = inode.dindirect as u64;
            let mut l1s = Vec::new();
            self.bcache.read(&mut self.disk, dind, fpb, |b| {
                for c in b.chunks_exact(4) {
                    let p = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    if p != 0 {
                        l1s.push(p);
                    }
                }
            });
            for p in l1s {
                self.bcache.invalidate(p as u64);
                self.falloc.free(p as u64, fpb);
            }
            self.bcache.invalidate(dind);
            self.falloc.free(dind, fpb);
            inode.dindirect = 0;
        }
        inode.size = new_len;
        Ok(inode)
    }

    // ------------------------------------------------------------------
    // Directories and path lookup.

    /// Looks up `name` in directory `dirino`, through the name cache.
    fn dir_lookup(&mut self, dirino: Ino, name: &str) -> FsResult<Option<Ino>> {
        if let Some(ino) = self.ncache.lookup(dirino, name) {
            return Ok(Some(ino));
        }
        let dnode = self.iget(dirino)?;
        if !dnode.is_dir() {
            return Err(FsError::NotDir);
        }
        let bs = self.bs();
        let mut found = None;
        for fb in 0..dnode.size.div_ceil(bs) {
            let addr = self.bmap_read(&dnode, fb)?;
            if addr == 0 {
                continue;
            }
            let nfrags = self.frags_of_block(dnode.size, fb);
            let hit = self.bcache.read(&mut self.disk, addr as u64, nfrags, |b| {
                dir::find_in_block(b, fb * bs, name)
            });
            if let Some((_, ino)) = hit {
                found = Some(ino);
                break;
            }
        }
        if let Some(ino) = found {
            self.ncache.insert(dirino, name, ino);
        }
        Ok(found)
    }

    /// Adds an entry to a directory, growing it if needed.
    fn dir_add(&mut self, dirino: Ino, name: &str, ino: Ino, now_ms: u64) -> FsResult<()> {
        dir::check_name(name)?;
        let dnode = self.iget(dirino)?;
        if !dnode.is_dir() {
            return Err(FsError::NotDir);
        }
        let bs = self.bs();
        let slot_bytes = dir::pack(ino, name);
        // Find a free slot in existing blocks.
        for fb in 0..dnode.size.div_ceil(bs) {
            let addr = self.bmap_read(&dnode, fb)?;
            if addr == 0 {
                continue;
            }
            let nfrags = self.frags_of_block(dnode.size, fb);
            let slot = self.bcache.read(&mut self.disk, addr as u64, nfrags, |b| {
                dir::free_slot_in_block(b, fb * bs)
            });
            if let Some(off) = slot {
                let within = (off - fb * bs) as usize;
                self.bcache
                    .modify(&mut self.disk, addr as u64, nfrags, false, |b| {
                        b[within..within + dir::DIRENT_SIZE].copy_from_slice(&slot_bytes);
                    });
                self.ncache.insert(dirino, name, ino);
                return Ok(());
            }
        }
        // Grow the directory by one fragment of fresh (zero) slots and
        // put the entry at its head.
        let grow_at = dnode.size;
        let frag = self.params.frag_size as u64;
        let mut data = vec![0u8; frag as usize];
        data[..dir::DIRENT_SIZE].copy_from_slice(&slot_bytes);
        let newnode = self.do_write(dirino, dnode, grow_at, frag, Some(&data), now_ms)?;
        self.istore(dirino, newnode);
        self.ncache.insert(dirino, name, ino);
        Ok(())
    }

    /// Removes an entry from a directory.
    fn dir_remove(&mut self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let dnode = self.iget(dirino)?;
        if !dnode.is_dir() {
            return Err(FsError::NotDir);
        }
        let bs = self.bs();
        for fb in 0..dnode.size.div_ceil(bs) {
            let addr = self.bmap_read(&dnode, fb)?;
            if addr == 0 {
                continue;
            }
            let nfrags = self.frags_of_block(dnode.size, fb);
            let hit = self.bcache.read(&mut self.disk, addr as u64, nfrags, |b| {
                dir::find_in_block(b, fb * bs, name)
            });
            if let Some((off, ino)) = hit {
                let within = (off - fb * bs) as usize;
                self.bcache
                    .modify(&mut self.disk, addr as u64, nfrags, false, |b| {
                        b[within..within + dir::DIRENT_SIZE].fill(0);
                    });
                self.ncache.invalidate(dirino, name);
                return Ok(ino);
            }
        }
        Err(FsError::NotFound)
    }

    /// `true` if the directory holds no live entries.
    fn dir_is_empty(&mut self, dirino: Ino) -> FsResult<bool> {
        let dnode = self.iget(dirino)?;
        let bs = self.bs();
        for fb in 0..dnode.size.div_ceil(bs) {
            let addr = self.bmap_read(&dnode, fb)?;
            if addr == 0 {
                continue;
            }
            let nfrags = self.frags_of_block(dnode.size, fb);
            let any = self.bcache.read(&mut self.disk, addr as u64, nfrags, |b| {
                !dir::entries_in_block(b).is_empty()
            });
            if any {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Lists a directory's entries (the workload's `ls`). Not traced —
    /// the real `ls` opens and reads the directory as a file, which the
    /// workload models with `open`/`read`/`close`.
    pub fn readdir(&mut self, path: &str, _now_ms: u64) -> FsResult<Vec<String>> {
        let ino = self.resolve(path)?;
        let dnode = self.iget(ino)?;
        if !dnode.is_dir() {
            return Err(FsError::NotDir);
        }
        let bs = self.bs();
        let mut names = Vec::new();
        for fb in 0..dnode.size.div_ceil(bs) {
            let addr = self.bmap_read(&dnode, fb)?;
            if addr == 0 {
                continue;
            }
            let nfrags = self.frags_of_block(dnode.size, fb);
            self.bcache.read(&mut self.disk, addr as u64, nfrags, |b| {
                for e in dir::entries_in_block(b) {
                    names.push(e.name);
                }
            });
        }
        Ok(names)
    }

    fn split_path(path: &str) -> FsResult<Vec<&str>> {
        if !path.starts_with('/') {
            return Err(FsError::BadPath);
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        for c in &comps {
            dir::check_name(c)?;
        }
        Ok(comps)
    }

    /// Resolves an absolute path to an inode.
    pub fn resolve(&mut self, path: &str) -> FsResult<Ino> {
        let comps = Self::split_path(path)?;
        let mut cur = ROOT_INO;
        for c in comps {
            cur = self.dir_lookup(cur, c)?.ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    /// Resolves a path to its parent directory, final component, and the
    /// component's inode if it exists.
    fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(Ino, &'p str, Option<Ino>)> {
        let comps = Self::split_path(path)?;
        let Some((&last, dirs)) = comps.split_last() else {
            return Err(FsError::BadPath); // "/" itself has no parent entry.
        };
        let mut cur = ROOT_INO;
        for c in dirs {
            cur = self.dir_lookup(cur, c)?.ok_or(FsError::NotFound)?;
        }
        let target = self.dir_lookup(cur, last)?;
        Ok((cur, last, target))
    }

    // ------------------------------------------------------------------
    // Periodic sync.

    fn tick(&mut self, now_ms: u64) {
        if let Some(interval) = self.params.sync_interval_ms {
            if now_ms.saturating_sub(self.last_sync_ms) >= interval {
                self.sync(now_ms);
            }
        }
    }

    /// Writes all dirty inodes and buffers to disk (the `sync` call; also
    /// run automatically every `sync_interval_ms`).
    pub fn sync(&mut self, now_ms: u64) {
        for (ino, inode) in self.itable.take_dirty() {
            self.iflush(ino, &inode);
        }
        self.bcache.sync(&mut self.disk, now_ms);
        self.last_sync_ms = now_ms;
    }

    // ------------------------------------------------------------------
    // System calls.

    /// Opens (and possibly creates) a file; returns a descriptor.
    pub fn open(&mut self, path: &str, flags: OpenFlags, uid: u32, now_ms: u64) -> FsResult<Fd> {
        self.tick(now_ms);
        let mode = flags.mode()?;
        let (parent, name, existing) = self.resolve_parent(path)?;
        let (ino, created) = match existing {
            Some(ino) => {
                let inode = self.iget(ino)?;
                if inode.is_dir() {
                    if flags.write {
                        return Err(FsError::IsDir);
                    }
                    (ino, false)
                } else if flags.truncate && flags.write && inode.size > 0 {
                    // Truncation to zero counts as creating new data
                    // (the paper's definition of a "new file").
                    let newnode = self.do_truncate(ino, inode, 0)?;
                    self.istore(ino, newnode);
                    (ino, true)
                } else if flags.truncate && flags.write {
                    (ino, true) // Already empty; still "created" data-wise.
                } else {
                    (ino, false)
                }
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound);
                }
                let ino = Ino(self.ialloc.alloc()?);
                let fid = self.next_fid;
                self.next_fid += 1;
                let mut inode = Inode::empty(FileType::Regular, fid, now_ms);
                inode.nlink = 1;
                self.istore(ino, inode);
                if let Err(e) = self.dir_add(parent, name, ino, now_ms) {
                    self.ifree(ino); // Roll the new inode back.
                    return Err(e);
                }
                (ino, true)
            }
        };
        let inode = self.iget(ino)?;
        let open_id = self.tracer.next_open_id();
        self.tracer.open(
            now_ms,
            open_id,
            FileId(inode.fid),
            UserId(uid),
            mode,
            inode.size,
            created,
        );
        self.itable.incref(ino);
        let of = OpenFile {
            ino,
            pos: 0,
            mode,
            open_id,
        };
        let fd = match self.free_fds.pop() {
            Some(i) => {
                self.fds[i as usize] = Some(of);
                Fd(i)
            }
            None => {
                self.fds.push(Some(of));
                Fd((self.fds.len() - 1) as u32)
            }
        };
        self.stats.opens += 1;
        if created {
            self.stats.creates += 1;
        }
        Ok(fd)
    }

    fn file(&self, fd: Fd) -> FsResult<&OpenFile> {
        self.fds
            .get(fd.0 as usize)
            .and_then(|o| o.as_ref())
            .ok_or(FsError::BadFd)
    }

    /// Closes a descriptor, freeing the file if it was unlinked while
    /// open.
    pub fn close(&mut self, fd: Fd, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let of = self
            .fds
            .get_mut(fd.0 as usize)
            .and_then(Option::take)
            .ok_or(FsError::BadFd)?;
        self.free_fds.push(fd.0);
        self.tracer.close(now_ms, of.open_id, of.pos);
        let refs = self.itable.decref(of.ino);
        if refs == 0 && self.orphans.remove(&of.ino) {
            let inode = self.iget(of.ino)?;
            let inode = self.do_truncate(of.ino, inode, 0)?;
            let _ = inode;
            self.ifree(of.ino);
        }
        self.stats.closes += 1;
        Ok(())
    }

    /// Reads `len` bytes at the current position, discarding the data
    /// (the workload reads for effect, not content). Returns bytes read.
    pub fn read(&mut self, fd: Fd, len: u64, now_ms: u64) -> FsResult<u64> {
        self.tick(now_ms);
        let (ino, pos, mode) = {
            let of = self.file(fd)?;
            (of.ino, of.pos, of.mode)
        };
        if !mode.can_read() {
            return Err(FsError::BadMode);
        }
        let inode = self.iget(ino)?;
        let n = self.do_read(&inode, pos, len, None)?;
        if let Some(of) = self.fds[fd.0 as usize].as_mut() {
            of.pos += n;
        }
        if let Some(i) = self.itable.get_mut(ino) {
            i.atime = now_ms;
        }
        self.stats.reads += 1;
        self.stats.bytes_read += n;
        Ok(n)
    }

    /// Reads into `out` at the current position; returns bytes read.
    pub fn read_into(&mut self, fd: Fd, out: &mut [u8], now_ms: u64) -> FsResult<u64> {
        self.tick(now_ms);
        let (ino, pos, mode) = {
            let of = self.file(fd)?;
            (of.ino, of.pos, of.mode)
        };
        if !mode.can_read() {
            return Err(FsError::BadMode);
        }
        let inode = self.iget(ino)?;
        let n = self.do_read(&inode, pos, out.len() as u64, Some(out))?;
        if let Some(of) = self.fds[fd.0 as usize].as_mut() {
            of.pos += n;
        }
        if let Some(i) = self.itable.get_mut(ino) {
            i.atime = now_ms;
        }
        self.stats.reads += 1;
        self.stats.bytes_read += n;
        Ok(n)
    }

    /// Writes `len` pattern bytes at the current position.
    pub fn write(&mut self, fd: Fd, len: u64, now_ms: u64) -> FsResult<()> {
        self.write_impl(fd, len, None, now_ms)
    }

    /// Writes real bytes at the current position.
    pub fn write_bytes(&mut self, fd: Fd, data: &[u8], now_ms: u64) -> FsResult<()> {
        self.write_impl(fd, data.len() as u64, Some(data), now_ms)
    }

    fn write_impl(&mut self, fd: Fd, len: u64, src: Option<&[u8]>, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let (ino, pos, mode) = {
            let of = self.file(fd)?;
            (of.ino, of.pos, of.mode)
        };
        if !mode.can_write() {
            return Err(FsError::BadMode);
        }
        let inode = self.iget(ino)?;
        let inode = self.do_write(ino, inode, pos, len, src, now_ms)?;
        self.istore(ino, inode);
        if let Some(of) = self.fds[fd.0 as usize].as_mut() {
            of.pos += len;
        }
        self.stats.writes += 1;
        self.stats.bytes_written += len;
        Ok(())
    }

    /// Repositions a descriptor; returns the new position.
    pub fn lseek(&mut self, fd: Fd, whence: SeekFrom, now_ms: u64) -> FsResult<u64> {
        self.tick(now_ms);
        let (ino, old_pos, open_id) = {
            let of = self.file(fd)?;
            (of.ino, of.pos, of.open_id)
        };
        let size = self.iget(ino)?.size;
        let new_pos = match whence {
            SeekFrom::Set(p) => p,
            SeekFrom::End(d) => {
                let p = size as i64 + d;
                u64::try_from(p).map_err(|_| FsError::InvalidArg)?
            }
            SeekFrom::Current(d) => {
                let p = old_pos as i64 + d;
                u64::try_from(p).map_err(|_| FsError::InvalidArg)?
            }
        };
        self.tracer.seek(now_ms, open_id, old_pos, new_pos);
        if let Some(of) = self.fds[fd.0 as usize].as_mut() {
            of.pos = new_pos;
        }
        self.stats.seeks += 1;
        Ok(new_pos)
    }

    /// Deletes a file. If it is open, freeing is deferred to last close.
    pub fn unlink(&mut self, path: &str, uid: u32, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let (parent, name, target) = self.resolve_parent(path)?;
        let ino = target.ok_or(FsError::NotFound)?;
        let mut inode = self.iget(ino)?;
        if inode.is_dir() {
            return Err(FsError::NotPermitted);
        }
        self.dir_remove(parent, name)?;
        inode.nlink = inode.nlink.saturating_sub(1);
        self.tracer.unlink(now_ms, FileId(inode.fid), UserId(uid));
        self.stats.unlinks += 1;
        if inode.nlink == 0 {
            if self.itable.refs(ino) > 0 {
                self.istore(ino, inode);
                self.orphans.insert(ino);
            } else {
                let inode = self.do_truncate(ino, inode, 0)?;
                let _ = inode;
                self.ifree(ino);
            }
        } else {
            self.istore(ino, inode);
        }
        Ok(())
    }

    /// Shortens a file to `new_len` bytes.
    pub fn truncate(&mut self, path: &str, new_len: u64, uid: u32, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let ino = self.resolve(path)?;
        let inode = self.iget(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsDir);
        }
        if new_len > inode.size {
            return Err(FsError::InvalidArg);
        }
        let fid = inode.fid;
        let mut inode = self.do_truncate(ino, inode, new_len)?;
        inode.mtime = now_ms;
        self.istore(ino, inode);
        self.tracer
            .truncate(now_ms, FileId(fid), new_len, UserId(uid));
        self.stats.truncates += 1;
        Ok(())
    }

    /// Loads a program: reads the whole file (paging it in) and records
    /// an `execve` event.
    pub fn execve(&mut self, path: &str, uid: u32, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let ino = self.resolve(path)?;
        let inode = self.iget(ino)?;
        if inode.is_dir() {
            return Err(FsError::IsDir);
        }
        self.do_read(&inode, 0, inode.size, None)?;
        if let Some(i) = self.itable.get_mut(ino) {
            i.atime = now_ms;
        }
        self.tracer
            .execve(now_ms, FileId(inode.fid), UserId(uid), inode.size);
        self.stats.execves += 1;
        Ok(())
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str, _uid: u32, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let (parent, name, existing) = self.resolve_parent(path)?;
        if existing.is_some() {
            return Err(FsError::Exists);
        }
        let ino = Ino(self.ialloc.alloc()?);
        let fid = self.next_fid;
        self.next_fid += 1;
        let mut inode = Inode::empty(FileType::Directory, fid, now_ms);
        inode.nlink = 1;
        self.istore(ino, inode);
        if let Err(e) = self.dir_add(parent, name, ino, now_ms) {
            self.ifree(ino);
            return Err(e);
        }
        Ok(())
    }

    /// Creates a hard link: `new_path` names the same inode as
    /// `existing`. Not traced — the 1985 trace package logged no link
    /// events, and Table III shows none.
    pub fn link(&mut self, existing: &str, new_path: &str, _uid: u32, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let ino = self.resolve(existing)?;
        let mut inode = self.iget(ino)?;
        if inode.is_dir() {
            return Err(FsError::NotPermitted); // No directory hard links.
        }
        let (parent, name, target) = self.resolve_parent(new_path)?;
        if target.is_some() {
            return Err(FsError::Exists);
        }
        self.dir_add(parent, name, ino, now_ms)?;
        inode.nlink += 1;
        inode.ctime = now_ms;
        self.istore(ino, inode);
        Ok(())
    }

    /// Renames a file or (empty-target) directory. Not traced — the
    /// 1985 trace package did not log renames (Table II has no such
    /// event), so this call leaves no trace records either.
    pub fn rename(&mut self, from: &str, to: &str, uid: u32, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let (fparent, fname, fino) = self.resolve_parent(from)?;
        let ino = fino.ok_or(FsError::NotFound)?;
        let moving_dir = self.iget(ino)?.is_dir();
        let (tparent, tname, tino) = self.resolve_parent(to)?;
        if let Some(existing) = tino {
            if existing == ino {
                return Ok(()); // Renaming onto itself is a no-op.
            }
            let enode = self.iget(existing)?;
            match (moving_dir, enode.is_dir()) {
                (false, false) => {
                    // Replace the target file, Unix style.
                    self.unlink(to, uid, now_ms)?;
                }
                (true, true) => {
                    if !self.dir_is_empty(existing)? {
                        return Err(FsError::NotEmpty);
                    }
                    self.rmdir(to, uid, now_ms)?;
                }
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
            }
        }
        // Moving a directory into itself would orphan the subtree.
        if moving_dir && to.starts_with(&format!("{from}/")) {
            return Err(FsError::InvalidArg);
        }
        let tname = tname.to_string();
        let fname = fname.to_string();
        self.dir_remove(fparent, &fname)?;
        self.dir_add(tparent, &tname, ino, now_ms)?;
        if let Some(i) = self.itable.get_mut(ino) {
            i.ctime = now_ms;
        }
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str, _uid: u32, now_ms: u64) -> FsResult<()> {
        self.tick(now_ms);
        let (parent, name, existing) = self.resolve_parent(path)?;
        let ino = existing.ok_or(FsError::NotFound)?;
        let inode = self.iget(ino)?;
        if !inode.is_dir() {
            return Err(FsError::NotDir);
        }
        if !self.dir_is_empty(ino)? {
            return Err(FsError::NotEmpty);
        }
        self.dir_remove(parent, name)?;
        self.ncache.purge_dir(ino);
        let inode = self.do_truncate(ino, inode, 0)?;
        let _ = inode;
        self.ifree(ino);
        Ok(())
    }

    /// Returns a file's metadata.
    pub fn stat(&mut self, path: &str, now_ms: u64) -> FsResult<Stat> {
        self.tick(now_ms);
        let ino = self.resolve(path)?;
        let inode = self.iget(ino)?;
        Ok(Stat {
            ino,
            file_type: inode.itype,
            size: inode.size,
            nlink: inode.nlink,
            fid: inode.fid,
            mtime: inode.mtime,
        })
    }

    /// `true` if the path resolves to an existing file or directory.
    pub fn exists(&mut self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// The current position of a descriptor (no trace event).
    pub fn tell(&self, fd: Fd) -> FsResult<u64> {
        Ok(self.file(fd)?.pos)
    }

    /// Size of the file a descriptor refers to.
    pub fn fd_size(&mut self, fd: Fd) -> FsResult<u64> {
        let ino = self.file(fd)?.ino;
        Ok(self.iget(ino)?.size)
    }

    // ------------------------------------------------------------------
    // Introspection.

    /// System call counters.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Buffer cache counters.
    pub fn bcache_stats(&self) -> BufCacheStats {
        self.bcache.stats()
    }

    /// Physical disk counters.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Name cache counters.
    pub fn ncache_stats(&self) -> NameCacheStats {
        self.ncache.stats.snapshot()
    }

    /// In-core inode table counters.
    pub fn itable_stats(&self) -> InodeTableStats {
        self.itable.stats()
    }

    /// Exports this file system's cache counters into `registry` under
    /// `prefix`: `{prefix}.bufcache.*`, `{prefix}.namecache.*`, and
    /// `{prefix}.itable.*`.
    ///
    /// The handles are live — registry snapshots reflect all activity
    /// before and after registration — so `repro --metrics` registers
    /// each generated trace's file system once and snapshots at exit.
    pub fn register_obs(&self, registry: &obs::Registry, prefix: &str) {
        self.bcache
            .register_obs(registry, &format!("{prefix}.bufcache"));
        self.ncache
            .stats
            .register(registry, &format!("{prefix}.namecache"));
        self.itable
            .register_obs(registry, &format!("{prefix}.itable"));
    }

    /// Free data fragments remaining.
    pub fn free_frags(&self) -> u64 {
        self.falloc.free_frags()
    }

    /// Free inodes remaining.
    pub fn free_inodes(&self) -> u32 {
        self.ialloc.free_count()
    }

    /// Enables or disables the tracer; collected records are preserved.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Takes the trace collected so far.
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Drains the collected trace records into a consumer-side
    /// [`fstrace::ReorderBuffer`] (see [`crate::Tracer::drain_into`]).
    pub fn drain_trace_into(&mut self, buf: &mut fstrace::ReorderBuffer) {
        self.tracer.drain_into(buf);
    }

    /// Walks the directory tree verifying structural invariants; returns
    /// the number of live files found. Used by tests ("fsck-lite").
    ///
    /// Checks: every reachable extent is marked allocated, extents do not
    /// overlap, and file sizes are consistent with their block maps.
    pub fn check_consistency(&mut self) -> FsResult<u64> {
        let mut stack = vec![ROOT_INO];
        let mut seen_extents: HashMap<u64, u32> = HashMap::new();
        let mut files = 0u64;
        let mut visited: HashSet<Ino> = HashSet::new();
        while let Some(ino) = stack.pop() {
            let inode = self.iget(ino)?;
            if !visited.insert(ino) {
                if inode.is_dir() {
                    return Err(FsError::Corrupt("directory cycle"));
                }
                continue; // A hard link: already accounted.
            }
            let bs = self.bs();
            for fb in 0..inode.size.div_ceil(bs) {
                let addr = self.bmap_read(&inode, fb)?;
                if addr == 0 {
                    return Err(FsError::Corrupt("hole in file"));
                }
                let nfrags = self.frags_of_block(inode.size, fb);
                if !self.falloc.is_allocated(addr as u64, nfrags) {
                    return Err(FsError::Corrupt("extent not allocated"));
                }
                if seen_extents.insert(addr as u64, nfrags).is_some() {
                    return Err(FsError::Corrupt("extent shared by two blocks"));
                }
            }
            if inode.is_dir() {
                let names = {
                    let mut v = Vec::new();
                    for fb in 0..inode.size.div_ceil(bs) {
                        let addr = self.bmap_read(&inode, fb)?;
                        let nfrags = self.frags_of_block(inode.size, fb);
                        self.bcache.read(&mut self.disk, addr as u64, nfrags, |b| {
                            v.extend(dir::entries_in_block(b));
                        });
                    }
                    v
                };
                for e in names {
                    stack.push(e.ino);
                }
            } else {
                files += 1;
            }
        }
        // Check extent overlap at fragment granularity.
        let mut frags: HashSet<u64> = HashSet::new();
        for (&addr, &n) in &seen_extents {
            for i in 0..n as u64 {
                if !frags.insert(addr + i) {
                    return Err(FsError::Corrupt("overlapping extents"));
                }
            }
        }
        let _ = self.data_start;
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_name_cache_hit_ratio_is_zero_not_nan() {
        let s = NameCacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert!(!s.hit_ratio().is_nan());
    }

    fn fs() -> Fs {
        Fs::new(FsParams::small()).unwrap()
    }

    #[test]
    fn mkfs_creates_root() {
        let mut f = fs();
        assert!(f.exists("/"));
        assert_eq!(f.resolve("/").unwrap(), ROOT_INO);
        assert_eq!(f.check_consistency().unwrap(), 0);
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut f = fs();
        let fd = f.open("/a.txt", OpenFlags::create_write(), 1, 0).unwrap();
        f.write_bytes(fd, b"hello world", 1).unwrap();
        f.close(fd, 2).unwrap();

        let fd = f.open("/a.txt", OpenFlags::read_only(), 1, 10).unwrap();
        let mut buf = [0u8; 11];
        assert_eq!(f.read_into(fd, &mut buf, 11).unwrap(), 11);
        assert_eq!(&buf, b"hello world");
        assert_eq!(f.read(fd, 100, 12).unwrap(), 0); // At EOF.
        f.close(fd, 13).unwrap();
        assert_eq!(f.check_consistency().unwrap(), 1);
    }

    #[test]
    fn large_file_through_indirect_blocks() {
        let mut f = fs();
        // 12 direct blocks of 4 KiB = 48 KiB; write 200 KiB to force
        // the single-indirect path.
        let fd = f.open("/big", OpenFlags::create_write(), 1, 0).unwrap();
        let chunk = vec![7u8; 8192];
        for _ in 0..25 {
            f.write_bytes(fd, &chunk, 1).unwrap();
        }
        f.close(fd, 2).unwrap();
        assert_eq!(f.stat("/big", 3).unwrap().size, 200 * 1024);
        // Read it all back and verify contents.
        let fd = f.open("/big", OpenFlags::read_only(), 1, 4).unwrap();
        let mut buf = vec![0u8; 8192];
        for _ in 0..25 {
            assert_eq!(f.read_into(fd, &mut buf, 5).unwrap(), 8192);
            assert!(buf.iter().all(|&b| b == 7));
        }
        f.close(fd, 6).unwrap();
        f.check_consistency().unwrap();
    }

    #[test]
    fn small_file_uses_fragments() {
        let mut f = fs();
        // Warm up: let the root directory allocate its first fragment.
        let fd = f.open("/warmup", OpenFlags::create_write(), 1, 0).unwrap();
        f.close(fd, 0).unwrap();
        let before = f.free_frags();
        let fd = f.open("/tiny", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 100, 1).unwrap();
        f.close(fd, 2).unwrap();
        f.sync(3);
        // A 100-byte file should consume exactly one fragment.
        assert_eq!(before - f.free_frags(), 1);
    }

    #[test]
    fn growing_file_reallocates_tail() {
        let mut f = fs();
        let fd = f.open("/grow", OpenFlags::create_write(), 1, 0).unwrap();
        f.write_bytes(fd, &[1u8; 100], 1).unwrap(); // 1 frag.
        f.write_bytes(fd, &[2u8; 2000], 2).unwrap(); // Grows to 3 frags.
        f.write_bytes(fd, &[3u8; 3000], 3).unwrap(); // Crosses into block 2.
        f.close(fd, 4).unwrap();
        let fd = f.open("/grow", OpenFlags::read_only(), 1, 5).unwrap();
        let mut buf = vec![0u8; 5100];
        assert_eq!(f.read_into(fd, &mut buf, 6).unwrap(), 5100);
        assert!(buf[..100].iter().all(|&b| b == 1));
        assert!(buf[100..2100].iter().all(|&b| b == 2));
        assert!(buf[2100..].iter().all(|&b| b == 3));
        f.close(fd, 7).unwrap();
        f.check_consistency().unwrap();
    }

    #[test]
    fn unlink_frees_space() {
        let mut f = fs();
        // Warm up the root directory's fragment (directories never shrink).
        let fd = f.open("/warmup", OpenFlags::create_write(), 1, 0).unwrap();
        f.close(fd, 0).unwrap();
        f.unlink("/warmup", 1, 0).unwrap();
        let before = f.free_frags();
        let fd = f.open("/x", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 10_000, 1).unwrap();
        f.close(fd, 2).unwrap();
        assert!(f.free_frags() < before);
        f.unlink("/x", 1, 3).unwrap();
        assert_eq!(f.free_frags(), before);
        assert!(!f.exists("/x"));
        assert_eq!(f.check_consistency().unwrap(), 0);
    }

    #[test]
    fn unlink_while_open_defers_free() {
        let mut f = fs();
        let fd = f.open("/t", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 5_000, 1).unwrap();
        let before = f.free_frags();
        f.unlink("/t", 1, 2).unwrap();
        assert!(!f.exists("/t"));
        // Still open: space not yet freed, I/O still works.
        assert_eq!(f.free_frags(), before);
        f.write(fd, 1_000, 3).unwrap();
        f.close(fd, 4).unwrap();
        assert!(f.free_frags() > before);
        // Reserved inodes 0 and 1, plus the root: everything else free.
        assert_eq!(f.free_inodes(), FsParams::small().ninodes - 3);
    }

    #[test]
    fn truncate_to_zero_and_partial() {
        let mut f = fs();
        let fd = f.open("/t", OpenFlags::create_write(), 1, 0).unwrap();
        f.write_bytes(fd, &[9u8; 10_000], 1).unwrap();
        f.close(fd, 2).unwrap();
        f.truncate("/t", 4_500, 1, 3).unwrap();
        assert_eq!(f.stat("/t", 4).unwrap().size, 4_500);
        let fd = f.open("/t", OpenFlags::read_only(), 1, 5).unwrap();
        let mut buf = vec![0u8; 4_500];
        assert_eq!(f.read_into(fd, &mut buf, 6).unwrap(), 4_500);
        assert!(buf.iter().all(|&b| b == 9));
        f.close(fd, 7).unwrap();
        f.truncate("/t", 0, 1, 8).unwrap();
        assert_eq!(f.stat("/t", 9).unwrap().size, 0);
        f.check_consistency().unwrap();
    }

    #[test]
    fn mkdir_and_nested_paths() {
        let mut f = fs();
        f.mkdir("/usr", 0, 0).unwrap();
        f.mkdir("/usr/src", 0, 1).unwrap();
        let fd = f
            .open("/usr/src/main.c", OpenFlags::create_write(), 1, 2)
            .unwrap();
        f.write(fd, 1234, 3).unwrap();
        f.close(fd, 4).unwrap();
        assert_eq!(f.stat("/usr/src/main.c", 5).unwrap().size, 1234);
        assert_eq!(f.readdir("/usr", 6).unwrap(), vec!["src".to_string()]);
        assert_eq!(f.rmdir("/usr", 0, 7), Err(FsError::NotEmpty));
        f.unlink("/usr/src/main.c", 1, 8).unwrap();
        f.rmdir("/usr/src", 0, 9).unwrap();
        f.rmdir("/usr", 0, 10).unwrap();
        assert_eq!(f.check_consistency().unwrap(), 0);
    }

    #[test]
    fn open_errors() {
        let mut f = fs();
        assert_eq!(
            f.open("/nope", OpenFlags::read_only(), 1, 0),
            Err(FsError::NotFound)
        );
        assert_eq!(
            f.open("relative", OpenFlags::read_only(), 1, 0),
            Err(FsError::BadPath)
        );
        f.mkdir("/d", 0, 0).unwrap();
        assert_eq!(
            f.open("/d", OpenFlags::write_only(), 1, 0),
            Err(FsError::IsDir)
        );
        // Reading a directory as a file is allowed (4.2 BSD semantics).
        let fd = f.open("/d", OpenFlags::read_only(), 1, 1).unwrap();
        f.close(fd, 2).unwrap();
        let bad = OpenFlags::default();
        assert_eq!(f.open("/x", bad, 1, 3), Err(FsError::InvalidArg));
    }

    #[test]
    fn mode_enforcement() {
        let mut f = fs();
        let fd = f.open("/m", OpenFlags::create_write(), 1, 0).unwrap();
        assert_eq!(f.read(fd, 10, 1), Err(FsError::BadMode));
        f.close(fd, 2).unwrap();
        let fd = f.open("/m", OpenFlags::read_only(), 1, 3).unwrap();
        assert_eq!(f.write(fd, 10, 4), Err(FsError::BadMode));
        f.close(fd, 5).unwrap();
    }

    #[test]
    fn lseek_semantics() {
        let mut f = fs();
        let fd = f.open("/s", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 1000, 1).unwrap();
        assert_eq!(f.lseek(fd, SeekFrom::Set(500), 2).unwrap(), 500);
        assert_eq!(f.lseek(fd, SeekFrom::Current(-100), 3).unwrap(), 400);
        assert_eq!(f.lseek(fd, SeekFrom::End(-10), 4).unwrap(), 990);
        assert_eq!(f.lseek(fd, SeekFrom::End(5), 5).unwrap(), 1005);
        assert_eq!(f.lseek(fd, SeekFrom::Set(0), 6).unwrap(), 0);
        assert_eq!(
            f.lseek(fd, SeekFrom::Current(-1), 7),
            Err(FsError::InvalidArg)
        );
        f.close(fd, 8).unwrap();
    }

    #[test]
    fn write_after_seek_past_eof_zero_fills() {
        let mut f = fs();
        let fd = f.open("/gap", OpenFlags::create_write(), 1, 0).unwrap();
        f.write_bytes(fd, b"ab", 1).unwrap();
        f.lseek(fd, SeekFrom::Set(6000), 2).unwrap();
        f.write_bytes(fd, b"cd", 3).unwrap();
        f.close(fd, 4).unwrap();
        let fd = f.open("/gap", OpenFlags::read_only(), 1, 5).unwrap();
        let mut buf = vec![0xffu8; 6002];
        assert_eq!(f.read_into(fd, &mut buf, 6).unwrap(), 6002);
        assert_eq!(&buf[0..2], b"ab");
        assert!(buf[2..6000].iter().all(|&b| b == 0));
        assert_eq!(&buf[6000..], b"cd");
        f.close(fd, 7).unwrap();
        f.check_consistency().unwrap();
    }

    #[test]
    fn trace_records_table_ii_events() {
        let mut f = fs();
        let fd = f.open("/tr", OpenFlags::create_write(), 7, 100).unwrap();
        f.write(fd, 2048, 110).unwrap();
        f.lseek(fd, SeekFrom::Set(0), 120).unwrap();
        f.close(fd, 130).unwrap();
        f.truncate("/tr", 1000, 7, 140).unwrap();
        f.unlink("/tr", 7, 150).unwrap();
        let trace = f.take_trace();
        let kinds: Vec<_> = trace.records().iter().map(|r| r.event.kind()).collect();
        use fstrace::EventKind::*;
        assert_eq!(kinds, vec![Create, Seek, Close, Truncate, Unlink]);
        // The session reconstructs the 2048-byte sequential write.
        let sessions = trace.sessions();
        assert_eq!(sessions.total_bytes_transferred(), 2048);
        assert_eq!(sessions.anomalies(), 0);
    }

    #[test]
    fn truncating_open_counts_as_create() {
        let mut f = fs();
        let fd = f.open("/c", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 100, 1).unwrap();
        f.close(fd, 2).unwrap();
        let fd = f.open("/c", OpenFlags::create_write(), 1, 3).unwrap();
        f.close(fd, 4).unwrap();
        let trace = f.take_trace();
        let creates = trace
            .records()
            .iter()
            .filter(|r| r.event.kind() == fstrace::EventKind::Create)
            .count();
        assert_eq!(creates, 2);
        assert_eq!(f.stats().creates, 2);
    }

    #[test]
    fn name_cache_hits_on_repeat_lookups() {
        let mut f = fs();
        let fd = f.open("/n", OpenFlags::create_write(), 1, 0).unwrap();
        f.close(fd, 1).unwrap();
        for t in 0..10 {
            f.stat("/n", 10 + t).unwrap();
        }
        let s = f.ncache_stats();
        assert!(s.hits >= 9, "expected hits, got {s:?}");
    }

    #[test]
    fn concurrent_fds_share_file_size() {
        let mut f = fs();
        let w = f.open("/sh", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(w, 100, 1).unwrap();
        let r = f.open("/sh", OpenFlags::read_only(), 2, 2).unwrap();
        f.write(w, 100, 3).unwrap();
        assert_eq!(f.read(r, 500, 4).unwrap(), 200);
        f.close(w, 5).unwrap();
        f.close(r, 6).unwrap();
    }

    #[test]
    fn enospc_on_tiny_fs() {
        let mut f = Fs::new(FsParams::tiny()).unwrap();
        let fd = f.open("/fill", OpenFlags::create_write(), 1, 0).unwrap();
        let mut wrote = 0u64;
        let err = loop {
            match f.write(fd, 16 * 1024, 1) {
                Ok(()) => wrote += 16 * 1024,
                Err(e) => break e,
            }
        };
        assert_eq!(err, FsError::NoSpace);
        assert!(wrote > 0);
        f.close(fd, 2).unwrap();
        // Deleting recovers space.
        f.unlink("/fill", 1, 3).unwrap();
        let fd = f.open("/again", OpenFlags::create_write(), 1, 4).unwrap();
        f.write(fd, 16 * 1024, 5).unwrap();
        f.close(fd, 6).unwrap();
    }

    #[test]
    fn execve_reads_program_and_traces() {
        let mut f = fs();
        let fd = f.open("/bin", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 20_000, 1).unwrap();
        f.close(fd, 2).unwrap();
        let reads_before = f.bcache_stats().logical_reads;
        f.execve("/bin", 3, 10).unwrap();
        assert!(f.bcache_stats().logical_reads > reads_before);
        let trace = f.take_trace();
        let execs = trace.sessions();
        assert_eq!(execs.execs().len(), 1);
        assert_eq!(execs.execs()[0].size, 20_000);
    }

    #[test]
    fn sync_writes_everything() {
        let mut f = Fs::with_policy(FsParams::small(), BufWritePolicy::DelayedWrite).unwrap();
        let fd = f.open("/d", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 9_000, 1).unwrap();
        f.close(fd, 2).unwrap();
        let w_before = f.disk_stats().writes;
        f.sync(3);
        assert!(f.disk_stats().writes > w_before);
        // Second sync is a no-op.
        let w = f.disk_stats().writes;
        f.sync(4);
        assert_eq!(f.disk_stats().writes, w);
    }

    #[test]
    fn periodic_flush_back_fires() {
        let mut f = fs(); // 30 s flush-back by default.
        let fd = f.open("/p", OpenFlags::create_write(), 1, 1_000).unwrap();
        f.write(fd, 4_096, 1_100).unwrap();
        f.close(fd, 1_200).unwrap();
        let w_before = f.disk_stats().writes;
        // An op past the interval triggers the flush.
        f.stat("/p", 40_000).unwrap();
        assert!(f.disk_stats().writes > w_before);
    }

    #[test]
    fn stats_count_syscalls() {
        let mut f = fs();
        let fd = f.open("/s", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 10, 1).unwrap();
        f.lseek(fd, SeekFrom::Set(0), 2).unwrap();
        f.close(fd, 3).unwrap();
        f.unlink("/s", 1, 4).unwrap();
        let s = f.stats();
        assert_eq!(s.opens, 1);
        assert_eq!(s.creates, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.seeks, 1);
        assert_eq!(s.closes, 1);
        assert_eq!(s.unlinks, 1);
        assert_eq!(s.bytes_written, 10);
    }

    #[test]
    fn deep_directory_tree() {
        let mut f = fs();
        let mut path = String::new();
        for i in 0..10 {
            path.push_str(&format!("/d{i}"));
            f.mkdir(&path, 0, i).unwrap();
        }
        path.push_str("/leaf");
        let fd = f.open(&path, OpenFlags::create_write(), 1, 100).unwrap();
        f.write(fd, 42, 101).unwrap();
        f.close(fd, 102).unwrap();
        assert_eq!(f.stat(&path, 103).unwrap().size, 42);
        assert_eq!(f.check_consistency().unwrap(), 1);
    }

    #[test]
    fn double_indirect_blocks_work() {
        // Tiny blocks (512 B, 1 frag/block) push a modest file through
        // the double-indirect path: direct covers 12 blocks, single
        // indirect 128, so beyond 70 KB we exercise dindirect.
        let params = FsParams {
            frag_size: 512,
            frags_per_block: 1,
            data_frags: 4096,
            ninodes: 64,
            cyl_groups: 2,
            bcache_bytes: 16 * 1024,
            ncache_entries: 16,
            icache_entries: 8,
            sync_interval_ms: Some(30_000),
        };
        let mut f = Fs::new(params).unwrap();
        let fd = f.open("/big", OpenFlags::create_write(), 1, 0).unwrap();
        let total: u64 = 120 * 1024; // 240 blocks > 12 + 128.
        let chunk = vec![0x5au8; 4096];
        let mut written = 0;
        while written < total {
            f.write_bytes(fd, &chunk, 1).unwrap();
            written += chunk.len() as u64;
        }
        f.close(fd, 2).unwrap();
        assert_eq!(f.stat("/big", 3).unwrap().size, total);
        f.sync(4);
        // Read back through the cold cache and verify.
        let fd = f.open("/big", OpenFlags::read_only(), 1, 5).unwrap();
        let mut buf = vec![0u8; 4096];
        let mut read = 0;
        loop {
            let n = f.read_into(fd, &mut buf, 6).unwrap();
            if n == 0 {
                break;
            }
            assert!(buf[..n as usize].iter().all(|&b| b == 0x5a));
            read += n;
        }
        assert_eq!(read, total);
        f.close(fd, 7).unwrap();
        f.check_consistency().unwrap();
        // Truncating to zero releases every indirect structure.
        let free_before_file = f.free_frags();
        f.truncate("/big", 0, 1, 8).unwrap();
        assert!(f.free_frags() > free_before_file + 200);
        f.unlink("/big", 1, 9).unwrap();
        assert_eq!(f.check_consistency().unwrap(), 0);
    }

    #[test]
    fn hard_links_share_data_and_defer_free() {
        let mut f = fs();
        let fd = f.open("/orig", OpenFlags::create_write(), 1, 0).unwrap();
        f.write_bytes(fd, b"shared", 1).unwrap();
        f.close(fd, 2).unwrap();
        f.link("/orig", "/alias", 1, 3).unwrap();
        assert_eq!(f.stat("/alias", 4).unwrap().nlink, 2);
        assert_eq!(
            f.stat("/alias", 5).unwrap().ino,
            f.stat("/orig", 5).unwrap().ino
        );
        // Removing one name keeps the data alive under the other.
        f.unlink("/orig", 1, 6).unwrap();
        let fd = f.open("/alias", OpenFlags::read_only(), 1, 7).unwrap();
        let mut buf = [0u8; 6];
        f.read_into(fd, &mut buf, 8).unwrap();
        assert_eq!(&buf, b"shared");
        f.close(fd, 9).unwrap();
        assert_eq!(f.stat("/alias", 10).unwrap().nlink, 1);
        f.unlink("/alias", 1, 11).unwrap();
        assert_eq!(f.check_consistency().unwrap(), 0);
    }

    #[test]
    fn link_errors() {
        let mut f = fs();
        f.mkdir("/d", 0, 0).unwrap();
        assert_eq!(f.link("/d", "/d2", 0, 1), Err(FsError::NotPermitted));
        let fd = f.open("/a", OpenFlags::create_write(), 1, 2).unwrap();
        f.close(fd, 3).unwrap();
        assert_eq!(f.link("/a", "/a", 1, 4), Err(FsError::Exists));
        assert_eq!(f.link("/nope", "/b", 1, 5), Err(FsError::NotFound));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        f.mkdir("/src", 0, 0).unwrap();
        f.mkdir("/dst", 0, 0).unwrap();
        let fd = f.open("/src/a", OpenFlags::create_write(), 1, 1).unwrap();
        f.write(fd, 100, 2).unwrap();
        f.close(fd, 3).unwrap();
        f.rename("/src/a", "/dst/b", 1, 4).unwrap();
        assert!(!f.exists("/src/a"));
        assert_eq!(f.stat("/dst/b", 5).unwrap().size, 100);

        // Rename over an existing file replaces it.
        let fd = f
            .open("/dst/victim", OpenFlags::create_write(), 1, 6)
            .unwrap();
        f.write(fd, 50, 7).unwrap();
        f.close(fd, 8).unwrap();
        f.rename("/dst/b", "/dst/victim", 1, 9).unwrap();
        assert_eq!(f.stat("/dst/victim", 10).unwrap().size, 100);
        assert_eq!(f.check_consistency().unwrap(), 1);
    }

    #[test]
    fn rename_directory_and_errors() {
        let mut f = fs();
        f.mkdir("/d1", 0, 0).unwrap();
        let fd = f.open("/d1/f", OpenFlags::create_write(), 1, 1).unwrap();
        f.close(fd, 2).unwrap();
        f.rename("/d1", "/d2", 0, 3).unwrap();
        assert!(f.exists("/d2/f"));
        // Cannot move a directory into its own subtree.
        f.mkdir("/d2/sub", 0, 4).unwrap();
        assert_eq!(f.rename("/d2", "/d2/sub/x", 0, 5), Err(FsError::InvalidArg));
        // Directory onto nonempty directory fails.
        f.mkdir("/d3", 0, 6).unwrap();
        assert_eq!(f.rename("/d3", "/d2", 0, 7), Err(FsError::NotEmpty));
        // File onto directory and vice versa fail.
        let fd = f.open("/plain", OpenFlags::create_write(), 1, 8).unwrap();
        f.close(fd, 9).unwrap();
        assert_eq!(f.rename("/plain", "/d3", 1, 10), Err(FsError::IsDir));
        assert_eq!(f.rename("/d3", "/plain", 0, 11), Err(FsError::NotDir));
        // Self-rename is a no-op.
        f.rename("/plain", "/plain", 1, 12).unwrap();
        assert!(f.exists("/plain"));
        f.check_consistency().unwrap();
    }

    #[test]
    fn consistency_tolerates_hard_links() {
        let mut f = fs();
        let fd = f.open("/x", OpenFlags::create_write(), 1, 0).unwrap();
        f.write(fd, 3_000, 1).unwrap();
        f.close(fd, 2).unwrap();
        f.link("/x", "/y", 1, 3).unwrap();
        // One file, two names.
        assert_eq!(f.check_consistency().unwrap(), 1);
    }

    #[test]
    fn rename_is_untraced() {
        let mut f = fs();
        let fd = f.open("/a", OpenFlags::create_write(), 1, 0).unwrap();
        f.close(fd, 1).unwrap();
        let before = f.take_trace().len();
        assert_eq!(before, 2);
        f.rename("/a", "/b", 1, 2).unwrap();
        f.link("/b", "/c", 1, 3).unwrap();
        assert!(f.take_trace().is_empty()); // No records for either.
    }

    #[test]
    fn many_files_in_one_directory() {
        let mut f = fs();
        f.mkdir("/many", 0, 0).unwrap();
        for i in 0..300 {
            let p = format!("/many/f{i}");
            let fd = f.open(&p, OpenFlags::create_write(), 1, i).unwrap();
            f.write(fd, 10, i).unwrap();
            f.close(fd, i).unwrap();
        }
        assert_eq!(f.readdir("/many", 1000).unwrap().len(), 300);
        // Directory grew past one fragment.
        assert!(f.stat("/many", 1001).unwrap().size > 1024);
        for i in 0..300 {
            f.unlink(&format!("/many/f{i}"), 1, 2000 + i).unwrap();
        }
        assert_eq!(f.check_consistency().unwrap(), 0);
    }
}
