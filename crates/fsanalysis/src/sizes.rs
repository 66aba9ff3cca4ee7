//! Dynamic file-size distribution, measured at close (Figure 2).

use fstrace::OpenSession;
use simstat::Distribution;

/// Figure 2: distribution of file sizes at close of every completed
/// session, weighted by accesses (2a) and by bytes transferred (2b).
///
/// The size at close is deduced from the open size and the furthest
/// position reached — the no-read-write trace permits exactly this.
#[derive(Debug, Clone, Default)]
pub struct FileSizeAnalysis {
    /// Sizes weighted by number of accesses (Figure 2a).
    pub by_files: Distribution,
    /// Sizes weighted by bytes transferred in the access (Figure 2b).
    pub by_bytes: Distribution,
}

impl FileSizeAnalysis {
    /// Fraction of accesses to files of at most `limit` bytes (the
    /// paper: ~80% of accesses are to files under 10 kbytes).
    pub fn fraction_of_accesses_le(&mut self, limit: u64) -> f64 {
        self.by_files.fraction_le(limit)
    }

    /// Fraction of bytes moved to/from files of at most `limit` bytes
    /// (the paper: only ~30% of bytes go to files under 10 kbytes).
    pub fn fraction_of_bytes_le(&mut self, limit: u64) -> f64 {
        self.by_bytes.fraction_le(limit)
    }
}

/// Builds [`FileSizeAnalysis`]: sizes are measured as each session
/// closes.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileSizeBuilder {
    out: FileSizeAnalysis,
}

impl FileSizeBuilder {
    /// Feeds a session completed by the record just observed.
    pub(crate) fn on_session(&mut self, s: &OpenSession) {
        let size = s.size_at_close();
        self.out.by_files.add(size, 1);
        self.out.by_bytes.add(size, s.bytes_transferred());
    }

    /// Produces the analysis.
    pub(crate) fn finish(mut self) -> FileSizeAnalysis {
        self.out.by_files.prepare();
        self.out.by_bytes.prepare();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_analyzers;
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn sizes(trace: &Trace) -> FileSizeAnalysis {
        run_analyzers(trace.records(), &[]).sizes
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        // Three small files fully read, one large file partially read.
        for size in [500u64, 800, 900] {
            let f = b.new_file_id();
            let o = b.open(0, f, u, AccessMode::ReadOnly, size, false);
            b.close(10, o, size);
        }
        let big = b.new_file_id();
        let o = b.open(20, big, u, AccessMode::ReadWrite, 1_000_000, false);
        b.seek(25, o, 0, 500_000);
        b.close(30, o, 500_100); // 100 bytes at a 1 MB admin file.
        b.finish()
    }

    #[test]
    fn access_weighted() {
        let mut a = sizes(&sample());
        // 3 of 4 accesses touch files <= 1000 bytes.
        assert!((a.fraction_of_accesses_le(1000) - 0.75).abs() < 1e-12);
        assert!((a.fraction_of_accesses_le(2_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn byte_weighted() {
        let mut a = sizes(&sample());
        // Bytes: 500+800+900 = 2200 to small files, 100 to the big one.
        assert!((a.fraction_of_bytes_le(1000) - 2200.0 / 2300.0).abs() < 1e-12);
    }

    #[test]
    fn size_at_close_reflects_growth() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(10, o, 4242); // Created then written to 4242 bytes.
        let mut a = sizes(&b.finish());
        assert_eq!(a.by_files.percentile(1.0), Some(4242));
    }

    #[test]
    fn unclosed_sessions_excluded() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        b.open(0, f, u, AccessMode::ReadOnly, 100, false);
        let a = sizes(&b.finish());
        assert!(a.by_files.is_empty());
    }
}
