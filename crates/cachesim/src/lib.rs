//! Trace-driven disk block cache simulation (Section 6 of the paper).
//!
//! Given a logical trace, this crate replays every byte range transferred
//! (billed at the `close`/`seek` that ended each sequential run) against
//! a simulated cache of fixed-size blocks, and reports the paper's
//! metric: the **miss ratio** — disk I/O operations per logical block
//! access.
//!
//! The simulator reproduces the design space explored in Section 6:
//!
//! * **cache size** — any capacity, from the 4.2 BSD default (~400
//!   kbytes) to many megabytes;
//! * **write policy** — write-through, flush-back at an interval (30 s
//!   and 5 min in the paper), and delayed-write (write only on
//!   eviction);
//! * **block size** — 1 to 32 kbytes in the paper's sweep;
//! * **whole-block-overwrite elision** — a missing block about to be
//!   entirely overwritten is not first read from disk;
//! * **delete/overwrite invalidation** — blocks of deleted files are
//!   dropped from the cache, dirty ones *without ever being written*,
//!   which is the mechanism behind delayed-write's large win;
//! * **paging approximation** (Figure 7) — each `execve` forces a
//!   whole-file read of the program file;
//! * **replay fidelity** ([`Fidelity`], DESIGN.md §15) — the same trace
//!   replayable at block, syscall, or open-session granularity, with
//!   block fidelity (the paper's simulator) as the default.
//!
//! Every run takes one replay path: an [`EventExpander`] turns records
//! into [`ReplayEvent`]s, and one block decomposition turns those into
//! block references for the direct [`BlockCache`] or the single-pass
//! [`StackEngine`]. [`sweep::run_source`] reads a record stream once
//! for a whole grid of configurations.
//!
//! # Examples
//!
//! ```
//! use cachesim::{CacheConfig, Simulator, WritePolicy};
//! use fstrace::{AccessMode, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let f = b.new_file_id();
//! let u = b.new_user_id();
//! let o = b.open(0, f, u, AccessMode::ReadOnly, 8192, false);
//! b.close(100, o, 8192);
//! let o = b.open(200, f, u, AccessMode::ReadOnly, 8192, false);
//! b.close(300, o, 8192);
//! let trace = b.finish();
//!
//! let config = CacheConfig {
//!     cache_bytes: 64 * 1024,
//!     block_size: 4096,
//!     write_policy: WritePolicy::DelayedWrite,
//!     ..CacheConfig::default()
//! };
//! let m = Simulator::run(&trace, &config);
//! // First read misses both blocks, second read hits both.
//! assert_eq!(m.logical_accesses(), 4);
//! assert_eq!(m.disk_reads, 2);
//! assert!((m.miss_ratio() - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod metrics;
mod replay;
pub mod stack;
pub mod sweep;

pub use cache::{BlockCache, BlockId};
pub use config::{CacheConfig, Fidelity, Replacement, RwHandling, WritePolicy};
pub use metrics::CacheMetrics;
pub use replay::{expansion_count, replay_events, EventExpander, ReplayEvent, Replayer, Simulator};
pub use stack::StackEngine;
pub use sweep::ExpansionKey;
