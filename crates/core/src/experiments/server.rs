//! The dedicated-file-server scenario (Section 6's motivation).
//!
//! "For a network filing system with dedicated file servers it seems
//! reasonable to use almost all of the server's memory for disk caches;
//! this could result in caches of eight megabytes or more with today's
//! memory technology, and perhaps 32 or 64 megabytes in a few years."
//!
//! We merge all three machines' traces — the load a shared server would
//! carry — and size its cache.

use std::fmt;

use cachesim::{sweep, CacheConfig, WritePolicy};
use fstrace::{merged_records, Trace};

use crate::chart::{render, Curve};
use crate::report::{pct, Table};
use crate::TraceSet;

/// Server cache sizes swept, in Mbytes (through the paper's "32 or 64
/// megabytes in a few years").
pub const CACHE_MB: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// One server sizing point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Cache size in Mbytes.
    pub cache_mb: u64,
    /// Miss ratio under delayed write.
    pub miss_ratio: f64,
    /// Miss ratio under a 30-second flush-back (the crash-safe choice).
    pub miss_ratio_flush: f64,
}

/// The consolidated-server experiment.
pub struct Server {
    /// Total client machines merged.
    pub clients: usize,
    /// Records in the merged trace.
    pub records: usize,
    /// Distinct users across all machines.
    pub users: u64,
    /// Sweep results.
    pub points: Vec<Point>,
}

/// Merges every generated trace and sweeps the server cache.
///
/// The merge streams: [`merged_records`] yields the k-way merged
/// sequence straight into the sweep, so the combined server trace is
/// never materialized.
pub fn run(set: &TraceSet) -> Server {
    let traces: Vec<&Trace> = set.entries.iter().map(|e| &e.trace).collect();
    let records: usize = traces.iter().map(|t| t.len()).sum();
    // The merge offsets each client's ids into a disjoint range, so
    // distinct users across the merged stream sum over the clients.
    let users: u64 = traces
        .iter()
        .map(|t| {
            let mut ids: Vec<u32> = t
                .records()
                .iter()
                .filter_map(|r| r.event.user_id())
                .map(|u| u.0)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as u64
        })
        .sum();
    let fidelity = set.config.fidelity;
    let configs: Vec<CacheConfig> = CACHE_MB
        .iter()
        .flat_map(|&mb| {
            [
                WritePolicy::DelayedWrite,
                WritePolicy::FlushBack {
                    interval_ms: 30_000,
                },
            ]
            .into_iter()
            .map(move |policy| CacheConfig {
                cache_bytes: mb << 20,
                block_size: 4096,
                write_policy: policy,
                fidelity,
                ..CacheConfig::default()
            })
        })
        .collect();
    let results = sweep::run_source(merged_records(&traces), &configs, set.config.jobs);
    Server {
        clients: traces.len(),
        records,
        users,
        points: results
            .chunks(2)
            .zip(CACHE_MB)
            .map(|(pair, mb)| Point {
                cache_mb: mb,
                miss_ratio: pair[0].1.miss_ratio(),
                miss_ratio_flush: pair[1].1.miss_ratio(),
            })
            .collect(),
    }
}

impl Server {
    /// The smallest swept cache reaching a miss ratio at or below
    /// `target` under delayed write, if any.
    pub fn cache_for_miss(&self, target: f64) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.miss_ratio <= target)
            .map(|p| p.cache_mb)
    }
}

impl fmt::Display for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Dedicated file server: all three machines merged onto one cache",
            &["Server cache", "Delayed write", "30 sec flush"],
        );
        for p in &self.points {
            t.row(vec![
                format!("{} MB", p.cache_mb),
                pct(p.miss_ratio),
                pct(p.miss_ratio_flush),
            ]);
        }
        t.note(&format!(
            "{} client machines, {} users, {} merged records.",
            self.clients, self.users, self.records
        ));
        if let Some(mb) = self.cache_for_miss(0.10) {
            t.note(&format!(
                "A {mb} MB server cache absorbs 90%+ of the combined disk load —"
            ));
            t.note("the paper's 'whole role of magnetic disks comes into question'.");
        }
        writeln!(f, "{t}")?;
        let curves = vec![
            Curve {
                label: "delayed write".into(),
                points: self
                    .points
                    .iter()
                    .map(|p| (p.cache_mb as f64, p.miss_ratio))
                    .collect(),
            },
            Curve {
                label: "30 sec flush".into(),
                points: self
                    .points
                    .iter()
                    .map(|p| (p.cache_mb as f64, p.miss_ratio_flush))
                    .collect(),
            },
        ];
        write!(
            f,
            "{}",
            render(
                "  server miss ratio vs cache size",
                "server cache",
                &curves,
                &|mb| format!("{}MB", mb as u64)
            )
        )
    }
}
