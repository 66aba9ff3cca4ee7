//! Table III: overall statistics for the three traces.

use std::fmt;

use fstrace::{EventKind, TraceSummary};

use crate::report::{count, f1, mbytes, pct, Table};
use crate::TraceSet;

/// Measured Table III: one summary per trace.
pub struct Table3 {
    /// Trace names in column order.
    pub names: Vec<String>,
    /// Summaries in the same order.
    pub summaries: Vec<TraceSummary>,
}

/// Computes the table.
pub fn run(set: &TraceSet) -> Table3 {
    Table3 {
        names: set.entries.iter().map(|e| e.name.clone()).collect(),
        summaries: set.entries.iter().map(|e| e.trace.summary()).collect(),
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["Trace"];
        let name_refs: Vec<&str> = self.names.iter().map(String::as_str).collect();
        headers.extend(name_refs);
        let mut t = Table::new("Table III. Overall statistics for the traces", &headers);
        let row = |label: &str, cells: Vec<String>| {
            let mut r = vec![label.to_string()];
            r.extend(cells);
            r
        };
        t.row(row(
            "Duration (hours)",
            self.summaries
                .iter()
                .map(|s| f1(s.duration_hours))
                .collect(),
        ));
        t.row(row(
            "Number of trace records",
            self.summaries.iter().map(|s| count(s.records)).collect(),
        ));
        t.row(row(
            "Size of trace file (Mbytes)",
            self.summaries
                .iter()
                .map(|s| mbytes(s.trace_file_bytes))
                .collect(),
        ));
        t.row(row(
            "Total data transferred (Mbytes)",
            self.summaries
                .iter()
                .map(|s| f1(s.total_mbytes_transferred()))
                .collect(),
        ));
        for kind in EventKind::ALL {
            t.row(row(
                &format!("{} events", kind.name()),
                self.summaries
                    .iter()
                    .map(|s| format!("{} ({})", count(s.count(kind)), pct(s.fraction(kind))))
                    .collect(),
            ));
        }
        t.row(row(
            "opens/sec (peak 10 min)",
            self.summaries
                .iter()
                .map(|s| format!("{:.2}", s.peak_opens_per_second))
                .collect(),
        ));
        t.note("Paper event mix (a5): create 3.8%, open 31.9%, close 35.7%, seek 18.5%,");
        t.note("unlink 3.8%, truncate 0.1%, execve 6.1%; 2-3 files opened/sec at peak.");
        t.note("Synthetic mixes are calibrated to these shares (seeks within a");
        t.note("few percent, creates slightly high); see EXPERIMENTS.md.");
        write!(f, "{t}")
    }
}
