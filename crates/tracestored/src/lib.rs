//! `tracestored`: a multi-client trace-serving daemon over sharded
//! archives.
//!
//! The paper's pipeline was offline: collect on three machines,
//! post-process later. This crate is the long-running form of the same
//! pipeline — a TCP daemon (std-net only; the build environment is
//! offline) that
//!
//! * **ingests** many concurrent connections, each one input of a
//!   deterministic watermark merge ([`fstrace::FleetMerge`]), with
//!   per-connection backpressure;
//! * **stores** the merged stream as a directory of rotating `.tsa`
//!   shards ([`shard::ShardSet`]), each a complete self-verifying
//!   [`tracestore`] archive, fsynced when sealed, written by one
//!   shard-writer thread off the merge's lock;
//! * **serves** Table-III summaries, time-range reads, the Section-5
//!   analyzer suite, and cache-grid sweeps over sealed shards plus the
//!   live tail, via chunk-parallel pipelined reads;
//! * **reports** its [`obs`] metrics, totals whose names do not grow
//!   with connections or shards, on a plain-text `/metrics` HTTP GET
//!   over the same listener.
//!
//! Protocol frames, shard rotation rules, backpressure and failure
//! modes are specified in DESIGN.md §17; the e2e contract (server-side
//! shards byte-identical to an offline merge, served analyses equal to
//! local ones) lives in `tests/e2e.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod query;
pub mod server;
pub mod shard;

pub use client::{fetch_metrics, Client, IngestSink};
pub use query::{render_suite, DataSnapshot};
pub use server::{spawn, Server, ServerConfig, ServerStats};
pub use shard::{SealedShard, ShardPolicy, ShardSet};
