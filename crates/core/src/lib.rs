//! `bsdtrace`: a full reproduction of *"A Trace-Driven Analysis of the
//! UNIX 4.2 BSD File System"* (Ousterhout et al., SOSP 1985).
//!
//! This crate is the publication harness: it ties the substrates
//! together and regenerates every table and figure of the paper —
//!
//! | Id | Content | Module |
//! |----|---------|--------|
//! | Table I | headline results | [`experiments::table1`] |
//! | Table III | overall trace statistics | [`experiments::table3`] |
//! | Table IV | system activity per user | [`experiments::table4`] |
//! | Table V | sequentiality | [`experiments::table5`] |
//! | Figure 1 | sequential run lengths | [`experiments::fig1`] |
//! | Figure 2 | dynamic file sizes | [`experiments::fig2`] |
//! | Figure 3 | open times | [`experiments::fig3`] |
//! | Figure 4 | file lifetimes | [`experiments::fig4`] |
//! | Figure 5 / Table VI | miss ratio vs cache size × write policy | [`experiments::table6`] |
//! | Figure 6 / Table VII | disk I/Os vs block size × cache size | [`experiments::table7`] |
//! | Figure 7 | paging approximation | [`experiments::fig7`] |
//! | §3.1 | event-gap bounds | [`experiments::gaps`] |
//! | §6.2 | dirty-block residency | [`experiments::residency`] |
//! | §6.4 | simulated vs measured cache (Leffler comparison) | [`experiments::comparisons`] |
//!
//! The pipeline: [`workload`] simulates the three traced Berkeley
//! machines against a [`bsdfs`] file system whose tracer emits
//! [`fstrace`] records; [`fsanalysis`] reproduces Section 5 and
//! [`cachesim`] reproduces Section 6. Published values from the paper
//! are embedded in [`paper`] so every report prints measured-vs-paper
//! side by side.
//!
//! # Examples
//!
//! ```no_run
//! use bsdtrace::{ReproConfig, TraceSet};
//! use workload::MachineProfile;
//!
//! let config = ReproConfig { hours: 1.0, ..ReproConfig::default() };
//! let traces = TraceSet::load(&config, MachineProfile::all(), None).unwrap();
//! println!("{}", bsdtrace::experiments::table5::run(&traces));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archive;
pub mod chart;
pub mod experiments;
pub mod paper;
pub mod report;
mod traces;

pub use traces::{ReproConfig, TraceEntry, TraceSet};
