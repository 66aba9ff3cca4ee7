//! Section 6.2: how long dirty blocks stay in a delayed-write cache —
//! the crash-exposure argument against pure delayed write.

use std::fmt;

use cachesim::{CacheConfig, Simulator, WritePolicy};

use crate::paper;
use crate::report::{pct, Table};
use crate::TraceSet;

/// Residency measurements at one cache size.
pub struct Residency {
    /// Cache size in Mbytes.
    pub cache_mb: u64,
    /// Fraction of dirty blocks resident longer than each checkpoint
    /// (minutes, fraction).
    pub longer_than: Vec<(u64, f64)>,
    /// Fraction of dirtied blocks that never reached disk.
    pub never_written: f64,
}

/// Measures dirty-block residency at a 4-Mbyte delayed-write cache.
pub fn run(set: &TraceSet) -> Residency {
    let trace = &set.a5().trace;
    let cfg = CacheConfig {
        cache_bytes: 4 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        fidelity: set.config.fidelity,
        ..CacheConfig::default()
    };
    let mut m = Simulator::run(trace, &cfg);
    let longer_than = [1u64, 2, 5, 10, 20]
        .iter()
        .map(|&min| (min, m.residency_longer_than_minutes(min)))
        .collect();
    Residency {
        cache_mb: 4,
        longer_than,
        never_written: m.never_written_fraction(),
    }
}

impl fmt::Display for Residency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Section 6.2. Dirty-block residency under delayed write (a5, 4 MB cache)",
            &["Resident longer than", "Fraction of dirty blocks"],
        );
        for &(min, frac) in &self.longer_than {
            t.row(vec![format!("{min} min"), pct(frac)]);
        }
        t.row(vec!["never written at all".into(), pct(self.never_written)]);
        t.note(&format!(
            "Paper: ~20% of blocks stay cached over 20 minutes; ~{:.0}% of new",
            100.0 * paper::NEVER_WRITTEN_FRACTION
        ));
        t.note("blocks are overwritten or deleted before ever reaching disk. Our");
        t.note("synthetic hours are denser than the paper's multi-day traces, so");
        t.note("the cache turns over faster and residencies are shorter; the");
        t.note("never-written fraction reproduces.");
        write!(f, "{t}")
    }
}
