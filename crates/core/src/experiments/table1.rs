//! Table I: the paper's selected headline results, recomputed.

use std::fmt;

use cachesim::{sweep, CacheConfig, CacheMetrics, WritePolicy};

use crate::report::Table;
use crate::TraceSet;

/// Headline numbers across the trace set (cache results from A5).
pub struct Table1 {
    /// Range of average bytes/second per active user (10-minute
    /// windows) across traces.
    pub throughput_per_user: (f64, f64),
    /// Fraction of accesses that are whole-file transfers (range).
    pub whole_file_accesses: (f64, f64),
    /// Fraction of bytes moved whole-file (range).
    pub whole_file_bytes: (f64, f64),
    /// Fraction of files open < 0.5 s and < 10 s (ranges collapsed to
    /// the A5 values for brevity).
    pub open_half_sec: f64,
    /// Fraction open under ten seconds.
    pub open_ten_sec: f64,
    /// Fraction of accesses to files under 10 kbytes (A5).
    pub small_file_accesses: f64,
    /// Fraction of new bytes dead within 30 s / 5 min (A5).
    pub bytes_dead_30s: f64,
    /// Fraction of new bytes dead within five minutes.
    pub bytes_dead_5min: f64,
    /// Disk-access elimination at a 4-Mbyte cache: (write-through,
    /// delayed-write), each as a fraction of accesses eliminated.
    pub four_mb_elimination: (f64, f64),
    /// Block size with fewest I/Os at 400 KB and at 4 MB (kbytes).
    pub best_block_kb: (u64, u64),
}

/// Recomputes every Table I line, reusing each entry's shared
/// single-pass analysis for the Section 5 rows.
pub fn run(set: &TraceSet) -> Table1 {
    let mut thpt = Vec::new();
    let mut whole_acc = Vec::new();
    let mut whole_bytes = Vec::new();
    for e in &set.entries {
        let suite = e.analysis();
        thpt.push(suite.activity.windows[0].avg_throughput());
        whole_acc.push(suite.sequentiality.whole_file_fraction());
        whole_bytes.push(suite.sequentiality.whole_file_bytes_fraction());
    }
    let minmax = |v: &[f64]| {
        (
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    };

    let a5 = &set.a5().trace;
    let a5_suite = set.a5().analysis();
    let mut ot = a5_suite.open_times.clone();
    let mut sizes = a5_suite.sizes.clone();
    let mut lt = a5_suite.lifetimes.clone();

    // Cache: the 4 MB elimination range across policies, then the best
    // block size at 400 KB and at 4 MB (delayed write) — one sweep.
    let cell = |cache_bytes: u64, block_kb: u64, write_policy| CacheConfig {
        cache_bytes,
        block_size: block_kb * 1024,
        write_policy,
        fidelity: set.config.fidelity,
        ..CacheConfig::default()
    };
    let mut configs = vec![
        cell(4 << 20, 4, WritePolicy::WriteThrough),
        cell(4 << 20, 4, WritePolicy::DelayedWrite),
    ];
    for cache_bytes in [400 * 1024, 4 << 20] {
        for block_kb in [1u64, 2, 4, 8, 16, 32] {
            configs.push(cell(cache_bytes, block_kb, WritePolicy::DelayedWrite));
        }
    }
    let results = sweep::run_source(a5.records(), &configs, set.config.jobs);
    let (wt, dw) = (results[0].1.miss_ratio(), results[1].1.miss_ratio());
    let best_block = |row: &[(CacheConfig, CacheMetrics)]| -> u64 {
        row.iter()
            .min_by_key(|(_, m)| m.disk_ios())
            .map_or(0, |(c, _)| c.block_size / 1024)
    };

    Table1 {
        throughput_per_user: minmax(&thpt),
        whole_file_accesses: minmax(&whole_acc),
        whole_file_bytes: minmax(&whole_bytes),
        open_half_sec: ot.fraction_le_secs(0.5),
        open_ten_sec: ot.fraction_le_secs(10.0),
        small_file_accesses: sizes.fraction_of_accesses_le(10 * 1024),
        bytes_dead_30s: lt.fraction_of_bytes_le_secs(30.0),
        bytes_dead_5min: lt.fraction_of_bytes_le_secs(300.0),
        four_mb_elimination: (1.0 - wt, 1.0 - dw),
        best_block_kb: (best_block(&results[2..8]), best_block(&results[8..])),
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Table I. Selected results (measured vs paper)",
            &["Result", "measured", "paper"],
        );
        t.row(vec![
            "Bytes/sec per active user (10 min)".into(),
            format!(
                "{:.0}-{:.0}",
                self.throughput_per_user.0, self.throughput_per_user.1
            ),
            "~300-600".into(),
        ]);
        t.row(vec![
            "Whole-file transfers (% of accesses)".into(),
            format!(
                "{:.0}-{:.0}%",
                100.0 * self.whole_file_accesses.0,
                100.0 * self.whole_file_accesses.1
            ),
            "~70%".into(),
        ]);
        t.row(vec![
            "Bytes moved whole-file".into(),
            format!(
                "{:.0}-{:.0}%",
                100.0 * self.whole_file_bytes.0,
                100.0 * self.whole_file_bytes.1
            ),
            "~50%".into(),
        ]);
        t.row(vec![
            "Files open < 0.5 s".into(),
            format!("{:.0}%", 100.0 * self.open_half_sec),
            "75%".into(),
        ]);
        t.row(vec![
            "Files open < 10 s".into(),
            format!("{:.0}%", 100.0 * self.open_ten_sec),
            "90%".into(),
        ]);
        t.row(vec![
            "Accesses to files < 10 KB".into(),
            format!("{:.0}%", 100.0 * self.small_file_accesses),
            "~80%".into(),
        ]);
        t.row(vec![
            "New bytes dead within 30 s".into(),
            format!("{:.0}%", 100.0 * self.bytes_dead_30s),
            "20-30%".into(),
        ]);
        t.row(vec![
            "New bytes dead within 5 min".into(),
            format!("{:.0}%", 100.0 * self.bytes_dead_5min),
            "~50%".into(),
        ]);
        t.row(vec![
            "4 MB cache: disk accesses eliminated".into(),
            format!(
                "{:.0}-{:.0}%",
                100.0 * self.four_mb_elimination.0,
                100.0 * self.four_mb_elimination.1
            ),
            "65-90%".into(),
        ]);
        t.row(vec![
            "Best block size (400 KB / 4 MB cache)".into(),
            format!("{} KB / {} KB", self.best_block_kb.0, self.best_block_kb.1),
            "8 KB / 16 KB".into(),
        ]);
        write!(f, "{t}")
    }
}
