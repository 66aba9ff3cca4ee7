//! Reference-pattern analysis of logical file system traces.
//!
//! This crate reimplements the first analysis program of the paper
//! (Section 5): given a trace, it measures
//!
//! * **system activity** — users, active users per interval, and
//!   throughput per active user (Table IV) — [`activity`];
//! * **access patterns** — sequentiality and whole-file transfers
//!   (Table V), sequential run lengths (Figure 1) — [`sequential`];
//! * **dynamic file sizes** at close (Figure 2) — [`sizes`];
//! * **open durations** (Figure 3) — [`opentime`];
//! * **file lifetimes** — time from creation to deletion or complete
//!   overwrite (Figure 4) — [`lifetime`];
//! * **event-gap bounds** — the intervals between successive trace
//!   events for the same open file, which bound the times when data
//!   transfers actually occurred (Section 3.1) — [`intervals`].
//!
//! Transfers are billed at the next `close` or `seek` for the file,
//! exactly as the paper does; the reconstruction itself lives in
//! [`fstrace::session`].
//!
//! One driver computes them all: [`AnalysisStream`] feeds each record
//! of a time-ordered trace to one shared session reconstruction and to
//! every analysis's builder, in one bounded-memory pass, and
//! [`run_analyzers`] (records) and [`run_analyzers_blocks`] (decoded
//! blocks) run it over a whole trace. A caller that wants one analysis
//! reads its field of the [`AnalysisSuite`]; there is no per-analysis
//! entry point and no analyzer trait (see [`stream`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod intervals;
pub mod lifetime;
pub mod opentime;
pub mod sequential;
pub mod sizes;
pub mod stream;
pub mod users;

pub use activity::{ActivityAnalysis, ActivityWindow};
pub use intervals::EventGapAnalysis;
pub use lifetime::{LifetimeAnalysis, LifetimeEvent};
pub use opentime::OpenTimeAnalysis;
pub use sequential::{RunLengthAnalysis, SequentialityReport};
pub use sizes::FileSizeAnalysis;
pub use stream::{run_analyzers, run_analyzers_blocks, AnalysisStream, AnalysisSuite};
pub use users::{UserActivity, UserAnalysis};
