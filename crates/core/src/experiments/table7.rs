//! Table VII / Figure 6: disk I/Os as a function of block size and
//! cache size (A5 trace, delayed write).

use std::fmt;

use cachesim::{sweep, CacheConfig, Fidelity, WritePolicy};

use crate::paper;
use crate::report::{count, Table};
use crate::TraceSet;

/// One row of the sweep: a block size with its access and I/O counts.
#[derive(Debug, Clone)]
pub struct Row {
    /// Block size in kbytes.
    pub block_kb: u64,
    /// Total logical block accesses at this block size.
    pub accesses: u64,
    /// Disk I/Os per cache size (columns follow
    /// [`paper::TABLE_VII_CACHE_KB`]).
    pub disk_ios: Vec<u64>,
}

/// Measured Table VII.
pub struct Table7 {
    /// Rows, one per block size.
    pub rows: Vec<Row>,
}

/// The Table VII grid at `fidelity`: every block size × cache size,
/// delayed write, in the paper's row-major order.
pub fn grid(fidelity: Fidelity) -> Vec<CacheConfig> {
    paper::TABLE_VII_BLOCK_KB
        .iter()
        .flat_map(|&bs_kb| {
            paper::TABLE_VII_CACHE_KB
                .iter()
                .map(move |&cache_kb| CacheConfig {
                    block_size: bs_kb * 1024,
                    cache_bytes: cache_kb * 1024,
                    write_policy: WritePolicy::DelayedWrite,
                    fidelity,
                    ..CacheConfig::default()
                })
        })
        .collect()
}

/// Runs the block-size × cache-size sweep on the A5 trace.
///
/// The block size only changes how the event stream is *consumed*, not
/// how it expands, so the whole grid shares a single expansion.
pub fn run(set: &TraceSet) -> Table7 {
    let results = sweep::run_source(
        set.a5().trace.records(),
        &grid(set.config.fidelity),
        set.config.jobs,
    );
    let rows = results
        .chunks(paper::TABLE_VII_CACHE_KB.len())
        .map(|row| Row {
            block_kb: row[0].0.block_size / 1024,
            accesses: row.last().expect("nonempty row").1.logical_accesses(),
            disk_ios: row.iter().map(|(_, m)| m.disk_ios()).collect(),
        })
        .collect();
    Table7 { rows }
}

impl Table7 {
    /// The block size (kbytes) with the fewest disk I/Os for each cache
    /// size column.
    pub fn optimal_block_kb(&self) -> Vec<u64> {
        (0..paper::TABLE_VII_CACHE_KB.len())
            .map(|c| {
                self.rows
                    .iter()
                    .min_by_key(|r| r.disk_ios[c])
                    .map(|r| r.block_kb)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["Block Size".to_string(), "Accesses".to_string()];
        for &kb in &paper::TABLE_VII_CACHE_KB {
            headers.push(if kb >= 1024 {
                format!("{} MB", kb / 1024)
            } else {
                format!("{kb} KB")
            });
        }
        let hrefs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Table VII / Figure 6. Disk I/Os vs block size and cache size (a5, delayed write)",
            &hrefs,
        );
        for r in &self.rows {
            let mut cells = vec![format!("{} KB", r.block_kb), count(r.accesses)];
            cells.extend(r.disk_ios.iter().map(|&io| count(io)));
            t.row(cells);
        }
        let opt = self.optimal_block_kb();
        let opt_s: Vec<String> = opt.iter().map(|kb| format!("{kb}K")).collect();
        let paper_s: Vec<String> = paper::TABLE_VII_OPTIMAL_BLOCK_KB
            .iter()
            .map(|kb| format!("{kb}K"))
            .collect();
        t.note(&format!(
            "Optimal block size per cache: {} (paper: {})",
            opt_s.join(" / "),
            paper_s.join(" / ")
        ));
        t.note("Paper: large blocks help even small caches; for very large blocks");
        t.note("the curves turn up because the cache holds too few blocks.");
        write!(f, "{t}")
    }
}
