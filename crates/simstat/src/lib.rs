//! Streaming statistics for trace-driven simulation.
//!
//! This crate is the numerical substrate shared by the trace analyzer and
//! the cache simulator. It provides:
//!
//! * [`OnlineStats`] — single-pass mean / standard deviation / extrema
//!   (Welford's algorithm), used for the "± σ" entries of Table IV.
//! * [`LogHistogram`] — a fixed-memory power-of-two bucketed counter
//!   with weighted insertion, behind `obs`'s metric histograms.
//! * [`Distribution`] — an exact empirical distribution over `u64` values
//!   with per-sample weights; produces the cumulative curves of
//!   Figures 1–4 of the paper.
//! * [`WindowedSums`] — per-key activity accumulated over fixed time
//!   windows, used for the active-user analysis of Table IV.
//! * [`hash`] — the workspace's one fast hasher and its
//!   [`FastMap`]/[`FastSet`] aliases, used here by [`Distribution`] and
//!   re-exported by `fstrace` for every id-keyed table.
//!
//! All types are allocation-light, deterministic, and free of floating
//! point except where a final ratio is reported. A [`Distribution`]
//! holds one entry per distinct value, not one per observation, so the
//! paper's distributions over heavily repeated values (10 ms ticks, a
//! bounded file population) stay small however long the trace runs.
//!
//! # Examples
//!
//! ```
//! use simstat::Distribution;
//!
//! let mut d = Distribution::new();
//! for len in [100u64, 200, 300, 400] {
//!     d.add(len, 1);
//! }
//! assert_eq!(d.fraction_le(200), 0.5);
//! assert_eq!(d.percentile(1.0), Some(400));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribution;
pub mod hash;
mod histogram;
mod online;
mod windows;

pub use distribution::{CdfPoint, Distribution};
pub use hash::{FastMap, FastSet};
pub use histogram::{Bucket, LogHistogram};
pub use online::OnlineStats;
pub use windows::{WindowStats, WindowedSums};
