//! Cross-fidelity replay comparison (DESIGN.md §15): the Table VI
//! grid replayed at block, syscall, and open fidelity over the same A5
//! trace, rendering where miss-ratio and disk-I/O conclusions diverge.
//!
//! This is the TraceTracker point (PAPERS.md) made concrete:
//! conclusions drawn at one replay fidelity do not automatically
//! survive at another. Block fidelity is the paper's simulator and the
//! reference column; the table quantifies how far the coarser replays
//! drift and whether the paper's qualitative conclusions (miss ratio
//! falls with cache size, lazier write policies never lose) still hold
//! at each level.

use std::fmt;

use cachesim::{sweep, CacheConfig, Fidelity, WritePolicy};

use super::table6;
use crate::paper;
use crate::report::Table;
use crate::TraceSet;

/// One Table VI grid cell measured at every fidelity.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Cache size in kbytes.
    pub cache_kb: u64,
    /// Write policy.
    pub policy: WritePolicy,
    /// Miss ratio per fidelity, indexed like [`Fidelity::ALL`]
    /// (block, syscall, open).
    pub miss: [f64; 3],
    /// Disk I/Os per fidelity, indexed like [`Fidelity::ALL`].
    pub disk_ios: [u64; 3],
}

/// Aggregate replay traffic for one fidelity over the whole grid's
/// baseline column (delayed write, every cache size).
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    /// The fidelity.
    pub fidelity: Fidelity,
    /// Logical block accesses per simulated cell (identical across
    /// cells of one fidelity).
    pub logical_accesses: u64,
    /// Disk reads summed over the delayed-write column.
    pub disk_reads: u64,
    /// Disk writes summed over the delayed-write column.
    pub disk_writes: u64,
}

/// The measured cross-fidelity comparison.
pub struct FidelityCompare {
    /// Cells in Table VI order (sizes × policies).
    pub cells: Vec<Cell>,
    /// Per-fidelity aggregates, indexed like [`Fidelity::ALL`].
    pub totals: [Totals; 3],
}

/// Replays the Table VI grid at all three fidelities in one sweep call:
/// one pass over the trace, one expansion per fidelity, and each
/// fidelity's 24 cells stack-profiled together.
pub fn run(set: &TraceSet) -> FidelityCompare {
    let configs: Vec<CacheConfig> = Fidelity::ALL.into_iter().flat_map(table6::grid).collect();
    let results = sweep::run_source(set.a5().trace.records(), &configs, set.config.jobs);
    let per = paper::TABLE_VI_SIZES_KB.len() * WritePolicy::TABLE_VI.len();
    let planes: Vec<_> = results.chunks(per).collect();
    let cells: Vec<Cell> = (0..per)
        .map(|i| {
            let (cfg, _) = &planes[0][i];
            Cell {
                cache_kb: cfg.cache_bytes / 1024,
                policy: cfg.write_policy,
                miss: [
                    planes[0][i].1.miss_ratio(),
                    planes[1][i].1.miss_ratio(),
                    planes[2][i].1.miss_ratio(),
                ],
                disk_ios: [
                    planes[0][i].1.disk_ios(),
                    planes[1][i].1.disk_ios(),
                    planes[2][i].1.disk_ios(),
                ],
            }
        })
        .collect();
    let totals = std::array::from_fn(|fi| {
        let plane = planes[fi];
        let dw: Vec<_> = plane
            .iter()
            .filter(|(c, _)| c.write_policy == WritePolicy::DelayedWrite)
            .collect();
        Totals {
            fidelity: Fidelity::ALL[fi],
            logical_accesses: plane[0].1.logical_accesses(),
            disk_reads: dw.iter().map(|(_, m)| m.disk_reads).sum(),
            disk_writes: dw.iter().map(|(_, m)| m.disk_writes).sum(),
        }
    });
    FidelityCompare { cells, totals }
}

impl FidelityCompare {
    /// Rows of the grid, one per cache size.
    fn rows(&self) -> impl Iterator<Item = &[Cell]> {
        self.cells.chunks(WritePolicy::TABLE_VI.len())
    }

    /// Counts the paper's shape-conclusion violations at one fidelity
    /// (miss ratio rising with cache size, or rising with a lazier
    /// write policy) — the Table VI `shape_violations` check applied to
    /// fidelity plane `fi`.
    pub fn shape_violations(&self, fi: usize) -> usize {
        let rows: Vec<&[Cell]> = self.rows().collect();
        let mut v = 0;
        for pair in rows.windows(2) {
            for (prev, cur) in pair[0].iter().zip(pair[1]) {
                if cur.miss[fi] > prev.miss[fi] + 1e-9 {
                    v += 1;
                }
            }
        }
        for row in &rows {
            for pair in row.windows(2) {
                if pair[1].miss[fi] > pair[0].miss[fi] + 1e-9 {
                    v += 1;
                }
            }
        }
        v
    }

    /// The largest miss-ratio divergence (in percentage points) of
    /// fidelity plane `fi` from the block-fidelity reference, over the
    /// whole grid.
    pub fn max_divergence_pct(&self, fi: usize) -> f64 {
        self.cells
            .iter()
            .map(|c| 100.0 * (c.miss[fi] - c.miss[0]).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for FidelityCompare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Cross-fidelity divergence: miss ratio by replay fidelity (a5, Table VI grid)",
            &[
                "Cache Size",
                "block DW",
                "syscall DW",
                "open DW",
                "max |d| syscall",
                "max |d| open",
            ],
        );
        for row in self.rows() {
            let dw = row
                .iter()
                .find(|c| c.policy == WritePolicy::DelayedWrite)
                .expect("grid has a delayed-write column");
            let maxd = |fi: usize| {
                row.iter()
                    .map(|c| 100.0 * (c.miss[fi] - c.miss[0]).abs())
                    .fold(0.0, f64::max)
            };
            t.row(vec![
                if dw.cache_kb == 390 {
                    "390 KB (UNIX)".to_string()
                } else if dw.cache_kb >= 1024 {
                    format!("{} MB", dw.cache_kb / 1024)
                } else {
                    format!("{} KB", dw.cache_kb)
                },
                format!("{:.1}%", 100.0 * dw.miss[0]),
                format!("{:.1}%", 100.0 * dw.miss[1]),
                format!("{:.1}%", 100.0 * dw.miss[2]),
                format!("{:.2}pp", maxd(1)),
                format!("{:.2}pp", maxd(2)),
            ]);
        }
        t.note("DW columns: delayed-write miss ratio per fidelity; max |d| is the");
        t.note("worst percentage-point drift from block fidelity over all four");
        t.note("write policies at that size. Syscall replay quantizes each op to");
        t.note("block units (partial-overwrite fetches vanish); open replay");
        t.note("collapses each session to one extent from offset 0.");
        writeln!(f, "{t}")?;

        let mut t = Table::new(
            "Replay traffic per fidelity (delayed-write column totals)",
            &[
                "Fidelity",
                "logical accesses",
                "disk reads",
                "disk writes",
                "shape violations",
            ],
        );
        for (fi, tot) in self.totals.iter().enumerate() {
            t.row(vec![
                tot.fidelity.name().to_string(),
                tot.logical_accesses.to_string(),
                tot.disk_reads.to_string(),
                tot.disk_writes.to_string(),
                self.shape_violations(fi).to_string(),
            ]);
        }
        let survive: Vec<&str> = (0..3)
            .filter(|&fi| self.shape_violations(fi) == 0)
            .map(|fi| Fidelity::ALL[fi].name())
            .collect();
        t.note("Shape violations: cells where miss ratio rises with cache size or");
        t.note("with a lazier write policy — the paper's two Table VI conclusions.");
        t.note(&format!(
            "Conclusions survive unviolated at: {}.",
            if survive.is_empty() {
                "none".to_string()
            } else {
                survive.join(", ")
            }
        ));
        t.note(&format!(
            "Worst miss-ratio drift vs block: syscall {:.2}pp, open {:.2}pp.",
            self.max_divergence_pct(1),
            self.max_divergence_pct(2)
        ));
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReproConfig;
    use workload::MachineProfile;

    #[test]
    fn grid_covers_all_fidelities_and_diverges_sanely() {
        let config = ReproConfig {
            hours: 0.05,
            seed: 1,
            ..ReproConfig::default()
        };
        let set = TraceSet::load(&config, [MachineProfile::ucbarpa()], None).unwrap();
        let out = run(&set);
        assert_eq!(
            out.cells.len(),
            paper::TABLE_VI_SIZES_KB.len() * WritePolicy::TABLE_VI.len()
        );
        // Block and syscall fidelity touch identical blocks, so their
        // logical traffic matches exactly; open fidelity collapses
        // sessions and may not.
        assert_eq!(
            out.totals[0].logical_accesses,
            out.totals[1].logical_accesses
        );
        for tot in &out.totals {
            assert!(tot.logical_accesses > 0, "{:?}", tot.fidelity);
        }
        // The report renders the divergence table.
        let text = out.to_string();
        assert!(text.contains("Cross-fidelity divergence"));
        assert!(text.contains("Replay traffic per fidelity"));
    }
}
