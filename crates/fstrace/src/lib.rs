//! Logical-level file system trace format.
//!
//! This crate implements the trace package of Section 3 of *"A
//! Trace-Driven Analysis of the UNIX 4.2 BSD File System"* (Ousterhout et
//! al., SOSP 1985): events are recorded at a **logical** level — files and
//! byte ranges, not disk blocks — and individual `read`/`write` calls are
//! deliberately *not* logged. Because UNIX file I/O is implicitly
//! sequential, the access positions captured at `open`, `close`, and each
//! `seek` reconstruct exactly which byte ranges were transferred
//! (Table II of the paper).
//!
//! The crate provides:
//!
//! * [`TraceEvent`] / [`TraceRecord`] — the seven event kinds of Table II
//!   with 10 ms timestamp quantization.
//! * [`codec`] — a compact varint binary codec and a line-oriented text
//!   codec, with [`TraceWriter`]/[`TraceReader`] streaming adapters.
//! * [`block`] — columnar batched decoding: [`RecordBlock`] column
//!   vectors filled by one pass over a byte slice, the replay hot path,
//!   plus the [`FillBlock`] refill contract that lets consumers reuse
//!   one block's buffers across a whole stream.
//! * [`hash`] — the [`FastMap`]/[`FastSet`] FxHash-style maps used by
//!   every hot id-keyed table in the replay and analysis loops.
//! * [`source`] — streaming [`source::RecordSource`] /
//!   [`source::RecordSink`] contracts, the k-way time-ordered
//!   [`MergeSource`], and the [`ReorderBuffer`] that bounds the memory
//!   of almost-sorted producers.
//! * [`session`] — reconstruction of per-open access patterns
//!   ([`OpenSession`], [`Run`]): the sequential runs, transfer billing at
//!   the next close/seek, and derived file size at close.
//! * [`summary`] — whole-trace statistics in the shape of Table III.
//!
//! # Examples
//!
//! ```
//! use fstrace::{AccessMode, Trace, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let f = b.new_file_id();
//! let u = b.new_user_id();
//! let o = b.open(1_000, f, u, AccessMode::ReadOnly, 8192, false);
//! b.close(1_250, o, 8192); // Whole-file sequential read.
//! let trace: Trace = b.finish();
//!
//! let sessions = trace.sessions();
//! assert_eq!(sessions.len(), 1);
//! assert!(sessions.all()[0].is_whole_file_transfer());
//! assert_eq!(sessions.all()[0].bytes_transferred(), 8192);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod codec;
mod event;
pub mod hash;
mod ids;
pub mod session;
pub mod source;
pub mod summary;
mod trace;

pub use block::{FillBlock, FillRecords, RecordBlock};
pub use codec::{TraceReader, TraceWriter};
pub use event::{AccessMode, EventKind, TraceEvent, TraceRecord};
pub use hash::{FastMap, FastSet};
pub use ids::{FileId, OpenId, Timestamp, UserId, TICK_MS};
pub use session::{OpenSession, Run, SessionBuilder, SessionSet, Step};
pub use source::{
    merged_records, FleetMerge, IdOffsets, MergeSource, RecordSink, RecordSource, ReorderBuffer,
    TextSink,
};
pub use summary::TraceSummary;
pub use trace::{Trace, TraceBuilder};
