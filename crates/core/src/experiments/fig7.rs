//! Figure 7: miss ratios with program page-in approximated by a
//! whole-file read of each executed file.

use std::fmt;

use cachesim::{sweep, CacheConfig, WritePolicy};

use crate::chart::{render, Curve};
use crate::report::Table;
use crate::TraceSet;

/// Cache sizes swept, in megabytes.
pub const CACHE_MB: [u64; 5] = [1, 2, 4, 8, 16];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Cache size (Mbytes).
    pub cache_mb: u64,
    /// Miss ratio ignoring paging.
    pub without_paging: f64,
    /// Miss ratio with simulated paging.
    pub with_paging: f64,
}

/// Measured Figure 7 curves.
pub struct Fig7 {
    /// Sweep points in cache-size order.
    pub points: Vec<Point>,
}

/// Runs the paging comparison on the A5 trace (delayed write, 4 KB).
///
/// Two expansion groups: all the paging-off points share one event
/// vector, all the paging-on points another.
pub fn run(set: &TraceSet) -> Fig7 {
    let trace = &set.a5().trace;
    let fidelity = set.config.fidelity;
    let configs: Vec<CacheConfig> = CACHE_MB
        .iter()
        .flat_map(|&mb| {
            [false, true].into_iter().map(move |paging| CacheConfig {
                cache_bytes: mb << 20,
                block_size: 4096,
                write_policy: WritePolicy::DelayedWrite,
                simulate_paging: paging,
                fidelity,
                ..CacheConfig::default()
            })
        })
        .collect();
    let results = sweep::run_source(trace.records(), &configs, set.config.jobs);
    let points = results
        .chunks(2)
        .zip(CACHE_MB)
        .map(|(pair, mb)| Point {
            cache_mb: mb,
            without_paging: pair[0].1.miss_ratio(),
            with_paging: pair[1].1.miss_ratio(),
        })
        .collect();
    Fig7 { points }
}

impl Fig7 {
    /// `true` if paging hurts small caches but converges (or helps) for
    /// large ones — the paper's observation.
    pub fn has_crossover_shape(&self) -> bool {
        let first = &self.points[0];
        let last = self.points.last().expect("nonempty sweep");
        first.with_paging > first.without_paging
            && (last.with_paging - last.without_paging)
                < (first.with_paging - first.without_paging) / 2.0
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Figure 7. Miss ratio with and without simulated page-in (a5, delayed write, 4 KB)",
            &["Cache Size", "Page-in ignored", "Page-in simulated"],
        );
        for p in &self.points {
            t.row(vec![
                format!("{} MB", p.cache_mb),
                format!("{:.1}%", 100.0 * p.without_paging),
                format!("{:.1}%", 100.0 * p.with_paging),
            ]);
        }
        t.note("Paper: simulated paging degrades small caches (bigger working set)");
        t.note("but improves large ones — program accesses are at least as local");
        t.note("as file data, so the file-only miss ratios are upper bounds.");
        writeln!(f, "{t}")?;
        let curves = vec![
            Curve {
                label: "page-in ignored".into(),
                points: self
                    .points
                    .iter()
                    .map(|p| (p.cache_mb as f64, p.without_paging))
                    .collect(),
            },
            Curve {
                label: "page-in simulated".into(),
                points: self
                    .points
                    .iter()
                    .map(|p| (p.cache_mb as f64, p.with_paging))
                    .collect(),
            },
        ];
        write!(
            f,
            "{}",
            render(
                "  Figure 7: miss ratio vs cache size",
                "cache size",
                &curves,
                &|mb| format!("{}MB", mb as u64)
            )
        )
    }
}
