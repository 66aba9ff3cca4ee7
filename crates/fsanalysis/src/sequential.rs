//! Sequentiality of file access (Table V) and sequential run lengths
//! (Figure 1).

use fstrace::{AccessMode, OpenSession};
use simstat::Distribution;

/// Counts for one access-mode class in Table V.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeCounts {
    /// Completed accesses (open…close pairs) in this class.
    pub accesses: u64,
    /// Whole-file transfers: read or written sequentially start to end.
    pub whole_file: u64,
    /// Sequential accesses: whole-file plus single-run-after-reposition.
    pub sequential: u64,
    /// Bytes transferred by accesses in this class.
    pub bytes: u64,
    /// Bytes transferred by whole-file transfers in this class.
    pub bytes_whole_file: u64,
    /// Bytes transferred sequentially (by sequential accesses).
    pub bytes_sequential: u64,
}

impl ModeCounts {
    /// Fraction of accesses that were whole-file transfers.
    pub fn whole_file_fraction(&self) -> f64 {
        ratio(self.whole_file, self.accesses)
    }

    /// Fraction of accesses that were sequential.
    pub fn sequential_fraction(&self) -> f64 {
        ratio(self.sequential, self.accesses)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Table V: sequentiality of every completed session, broken down by
/// access mode.
#[derive(Debug, Clone, Default)]
pub struct SequentialityReport {
    /// Read-only accesses.
    pub read_only: ModeCounts,
    /// Write-only accesses.
    pub write_only: ModeCounts,
    /// Read-write accesses.
    pub read_write: ModeCounts,
}

impl SequentialityReport {
    /// Total completed accesses.
    pub fn total_accesses(&self) -> u64 {
        self.read_only.accesses + self.write_only.accesses + self.read_write.accesses
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.read_only.bytes + self.write_only.bytes + self.read_write.bytes
    }

    /// Fraction of all accesses that were whole-file transfers (the
    /// paper's "about 70% of all file accesses are whole-file
    /// transfers").
    pub fn whole_file_fraction(&self) -> f64 {
        ratio(
            self.read_only.whole_file + self.write_only.whole_file + self.read_write.whole_file,
            self.total_accesses(),
        )
    }

    /// Fraction of all bytes moved by whole-file transfers (~50% in the
    /// paper).
    pub fn whole_file_bytes_fraction(&self) -> f64 {
        ratio(
            self.read_only.bytes_whole_file
                + self.write_only.bytes_whole_file
                + self.read_write.bytes_whole_file,
            self.total_bytes(),
        )
    }

    /// Fraction of all bytes transferred sequentially (~67% in the
    /// paper).
    pub fn sequential_bytes_fraction(&self) -> f64 {
        ratio(
            self.read_only.bytes_sequential
                + self.write_only.bytes_sequential
                + self.read_write.bytes_sequential,
            self.total_bytes(),
        )
    }
}

/// Builds [`SequentialityReport`]: classifies each completed session as
/// it closes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SequentialityBuilder {
    report: SequentialityReport,
}

impl SequentialityBuilder {
    /// Feeds a session completed by the record just observed.
    pub(crate) fn on_session(&mut self, s: &OpenSession) {
        let c = match s.mode {
            AccessMode::ReadOnly => &mut self.report.read_only,
            AccessMode::WriteOnly => &mut self.report.write_only,
            AccessMode::ReadWrite => &mut self.report.read_write,
        };
        let bytes = s.bytes_transferred();
        c.accesses += 1;
        c.bytes += bytes;
        if s.is_whole_file_transfer() {
            c.whole_file += 1;
            c.bytes_whole_file += bytes;
        }
        if s.is_sequential() {
            c.sequential += 1;
            c.bytes_sequential += bytes;
        }
    }

    /// Produces the report.
    pub(crate) fn finish(self) -> SequentialityReport {
        self.report
    }
}

/// Figure 1: the distribution of sequential run lengths, weighted by
/// runs (1a) and by bytes (1b): every positive-length run, in closed
/// and unclosed sessions alike.
#[derive(Debug, Clone, Default)]
pub struct RunLengthAnalysis {
    /// Run lengths weighted by count (Figure 1a).
    pub by_runs: Distribution,
    /// Run lengths weighted by bytes transferred (Figure 1b).
    pub by_bytes: Distribution,
}

impl RunLengthAnalysis {
    /// Fraction of runs at most `limit` bytes long.
    pub fn fraction_of_runs_le(&mut self, limit: u64) -> f64 {
        self.by_runs.fraction_le(limit)
    }

    /// Fraction of bytes moved in runs at most `limit` bytes long.
    pub fn fraction_of_bytes_le(&mut self, limit: u64) -> f64 {
        self.by_bytes.fraction_le(limit)
    }
}

/// Builds [`RunLengthAnalysis`]: runs are folded in from each session at close (or at end of stream for never-closed
/// sessions).
///
/// Only the count-weighted distribution is accumulated: Figure 1b
/// weights each run by its own length, so it is derived from the sorted
/// Figure 1a at finish ([`Distribution::weighted_by_value`]) and one
/// sort serves both.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunLengthBuilder {
    by_runs: Distribution,
}

impl RunLengthBuilder {
    /// Feeds a session's runs: at its close, or at end of stream for a
    /// session never closed.
    pub(crate) fn add_runs(&mut self, s: &OpenSession) {
        for r in &s.runs {
            self.by_runs.add(r.len, 1);
        }
    }

    /// Produces the analysis.
    pub(crate) fn finish(mut self) -> RunLengthAnalysis {
        RunLengthAnalysis {
            by_bytes: self.by_runs.weighted_by_value(),
            by_runs: self.by_runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_analyzers, AnalysisSuite};
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn suite(trace: &Trace) -> AnalysisSuite {
        run_analyzers(trace.records(), &[])
    }

    /// Builds: one whole-file read, one partial read, one append
    /// (sequential r/w), one random-access read-write.
    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();

        let f1 = b.new_file_id();
        let o = b.open(0, f1, u, AccessMode::ReadOnly, 1000, false);
        b.close(10, o, 1000); // Whole-file read of 1000 B.

        let f2 = b.new_file_id();
        let o = b.open(20, f2, u, AccessMode::ReadOnly, 1000, false);
        b.close(30, o, 400); // Partial sequential read of 400 B.

        let f3 = b.new_file_id();
        let o = b.open(40, f3, u, AccessMode::ReadWrite, 2000, false);
        b.seek(45, o, 0, 2000);
        b.close(50, o, 2100); // Append of 100 B: sequential, not whole.

        let f4 = b.new_file_id();
        let o = b.open(60, f4, u, AccessMode::ReadWrite, 5000, false);
        b.seek(62, o, 0, 3000);
        b.seek(64, o, 3200, 100);
        b.close(70, o, 300); // Two runs of 200: non-sequential.

        let f5 = b.new_file_id();
        let o = b.open(80, f5, u, AccessMode::WriteOnly, 0, true);
        b.close(95, o, 600); // Whole-file write of 600 B.

        b.finish()
    }

    #[test]
    fn table_v_classification() {
        let r = suite(&sample()).sequentiality;
        assert_eq!(r.read_only.accesses, 2);
        assert_eq!(r.read_only.whole_file, 1);
        assert_eq!(r.read_only.sequential, 2);
        assert_eq!(r.write_only.accesses, 1);
        assert_eq!(r.write_only.whole_file, 1);
        assert_eq!(r.read_write.accesses, 2);
        assert_eq!(r.read_write.whole_file, 0);
        assert_eq!(r.read_write.sequential, 1);
        assert_eq!(r.total_accesses(), 5);
    }

    #[test]
    fn byte_accounting() {
        let r = suite(&sample()).sequentiality;
        assert_eq!(r.total_bytes(), 1000 + 400 + 100 + 400 + 600);
        assert_eq!(r.whole_file_bytes_fraction(), (1000 + 600) as f64 / 2500.0);
        assert_eq!(
            r.sequential_bytes_fraction(),
            (1000 + 400 + 100 + 600) as f64 / 2500.0
        );
        assert!((r.whole_file_fraction() - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn run_lengths() {
        let mut a = suite(&sample()).run_lengths;
        // Runs: 1000, 400, 100, 200, 200, 600.
        assert_eq!(a.by_runs.total_weight(), 6);
        assert_eq!(a.by_bytes.total_weight(), 2500);
        assert!((a.fraction_of_runs_le(200) - 3.0 / 6.0).abs() < 1e-12);
        assert!((a.fraction_of_bytes_le(200) - 500.0 / 2500.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sessions() {
        let r = suite(&Trace::default()).sequentiality;
        assert_eq!(r.total_accesses(), 0);
        assert_eq!(r.whole_file_fraction(), 0.0);
        assert_eq!(r.read_only.whole_file_fraction(), 0.0);
        assert_eq!(r.read_only.sequential_fraction(), 0.0);
    }
}
