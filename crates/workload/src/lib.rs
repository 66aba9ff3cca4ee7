//! Synthetic workloads modeling the three traced Berkeley systems.
//!
//! The original study traced three timeshared VAX-11/780s for 2–3 days
//! each: **Ucbarpa** (program development and document formatting, trace
//! A5), **Ucbernie** (the same plus secretarial/administrative work,
//! trace E3), and **Ucbcad** (integrated-circuit CAD tools, trace C4).
//! Those traces no longer exist, and collecting new ones would require
//! kernel hooks on a live multi-user 1985 system — so this crate
//! *simulates the traced systems themselves*: a population of users runs
//! mechanistic models of the behaviors the paper names (editors,
//! compilers with short-lived assembler temporaries, shells, mail
//! appends, ~1 Mbyte administrative files accessed by seek + small
//! transfer, CAD simulate/inspect/delete cycles, printer spoolers, and
//! the network status daemons that rewrite ~20 host files every three
//! minutes) against a real [`bsdfs`] file system with the tracer
//! attached.
//!
//! The distributions the paper reports — event mix, sequentiality,
//! dynamic file sizes, open times, lifetimes with the 180-second spike —
//! are *emergent* from these behavior models, not sampled from target
//! histograms; the cache results of Section 6 are then honest
//! predictions from the synthetic traces.
//!
//! Everything is deterministic: a given (profile, seed, duration)
//! produces a byte-identical trace.
//!
//! # Examples
//!
//! ```
//! use workload::{generate, MachineProfile, WorkloadConfig};
//!
//! let config = WorkloadConfig {
//!     profile: MachineProfile::ucbarpa(),
//!     seed: 42,
//!     duration_hours: 0.05,
//!     ..WorkloadConfig::default()
//! };
//! let out = generate(&config).unwrap();
//! assert!(!out.trace.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod engine;
mod fleet;
mod namespace;
mod profile;
mod rng;

pub use engine::{
    generate, generate_into, GenerateError, GeneratedStream, GeneratedTrace, MachineSim,
    WorkloadConfig,
};
pub use fleet::{
    generate_fleet, generate_fleet_into, serve_fleet, FleetConfig, FleetStats, MachineStats,
};
pub use profile::{CommandKind, MachineProfile};
pub use rng::{stream_seed, Sampler};
