//! Section 6.4: why simulated miss ratios exceed measured ones.
//!
//! The paper predicts ~50% miss for the 4.2 BSD configuration from file
//! data alone, yet Leffler et al. *measured* ~15%. The paper gives two
//! reasons: programs issue requests smaller than the block size
//! (inflating logical I/Os), and the real cache also carries paging,
//! directory, and descriptor traffic that caches well. Our substrate
//! lets us reproduce the contrast directly: the `bsdfs` buffer cache
//! sees 1-kbyte stdio requests *and* all metadata, while the
//! trace-driven simulator sees only file data in block-size units.

use std::fmt;

use cachesim::{CacheConfig, Simulator, WritePolicy};

use crate::paper;
use crate::report::{pct, Table};
use crate::TraceSet;

/// The measured-vs-simulated contrast.
pub struct Comparisons {
    /// Miss ratio predicted by the trace-driven simulator (file data
    /// only, 4 KB accesses, 400 KB cache, 30 s flush).
    pub simulated_miss: f64,
    /// Miss ratio measured on the `bsdfs` buffer cache itself (1 KB
    /// requests, plus inode, indirect and directory traffic).
    pub measured_miss: f64,
    /// `bsdfs` directory name cache hit ratio.
    pub name_cache_hit: f64,
    /// Logical accesses seen by the simulator.
    pub simulated_accesses: u64,
    /// Logical accesses seen by the live buffer cache.
    pub measured_accesses: u64,
}

/// Runs the comparison on the A5 trace/file system.
///
/// # Panics
///
/// Panics if the A5 entry was replayed from the archive cache: a
/// replay carries no file system to measure.
pub fn run(set: &TraceSet) -> Comparisons {
    let entry = set.a5();
    // Always block fidelity, whatever --fidelity asks: the comparison
    // target is the live bsdfs buffer cache, which is a block cache by
    // construction — a coarser replay would measure a different thing.
    let cfg = CacheConfig {
        cache_bytes: 400 * 1024,
        block_size: 4096,
        write_policy: WritePolicy::FlushBack {
            interval_ms: 30_000,
        },
        ..CacheConfig::default()
    };
    let fs = entry
        .fs
        .as_ref()
        .expect("compare needs the A5 file system: load its set without an archive cache");
    let sim = Simulator::run(&entry.trace, &cfg);
    let bc = fs.bcache_stats();
    Comparisons {
        simulated_miss: sim.miss_ratio(),
        measured_miss: bc.miss_ratio(),
        name_cache_hit: fs.ncache_stats().hit_ratio(),
        simulated_accesses: sim.logical_accesses(),
        measured_accesses: bc.logical_accesses(),
    }
}

impl fmt::Display for Comparisons {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Section 6.4. Simulated vs measured cache behavior (a5, ~400 KB cache, 30 s flush)",
            &["Measure", "value"],
        );
        t.row(vec![
            "Trace-driven simulation miss ratio (file data, 4 KB units)".into(),
            pct(self.simulated_miss),
        ]);
        t.row(vec![
            "Live bsdfs buffer cache miss ratio (1 KB stdio + metadata)".into(),
            pct(self.measured_miss),
        ]);
        t.row(vec![
            "  paper: simulated ~50%, Leffler et al. measured".into(),
            pct(paper::LEFFLER_MEASURED_MISS),
        ]);
        t.row(vec![
            "Simulator logical accesses".into(),
            self.simulated_accesses.to_string(),
        ]);
        t.row(vec![
            "Buffer cache logical accesses".into(),
            self.measured_accesses.to_string(),
        ]);
        t.row(vec![
            "Directory name cache hit ratio".into(),
            pct(self.name_cache_hit),
        ]);
        t.row(vec![
            "  Leffler et al. report".into(),
            pct(paper::LEFFLER_NAME_CACHE_HIT),
        ]);
        t.note("Smaller-than-block requests inflate logical I/Os and deflate the");
        t.note("measured ratio, and metadata traffic caches well — the two effects");
        t.note("the paper names to explain the simulated/measured discrepancy.");
        write!(f, "{t}")
    }
}
