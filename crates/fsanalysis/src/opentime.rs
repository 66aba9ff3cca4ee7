//! Distribution of how long files stay open (Figure 3).

use fstrace::OpenSession;
use simstat::Distribution;

/// Figure 3: distribution of open durations in milliseconds, one per
/// completed session.
///
/// The paper found ~75% of files open less than 0.5 s and ~90% less than
/// 10 s — which is what justifies billing transfers at close/seek times.
#[derive(Debug, Clone, Default)]
pub struct OpenTimeAnalysis {
    /// Open durations in milliseconds, weighted by file accesses.
    pub durations_ms: Distribution,
}

impl OpenTimeAnalysis {
    /// Fraction of accesses with the file open at most `secs` seconds.
    pub fn fraction_le_secs(&mut self, secs: f64) -> f64 {
        self.durations_ms.fraction_le((secs * 1000.0) as u64)
    }

    /// Median open time in milliseconds.
    pub fn median_ms(&mut self) -> Option<u64> {
        self.durations_ms.percentile(0.5)
    }
}

/// Builds [`OpenTimeAnalysis`]: durations are recorded as each session
/// closes.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpenTimeBuilder {
    out: OpenTimeAnalysis,
}

impl OpenTimeBuilder {
    /// Feeds a session completed by the record just observed.
    pub(crate) fn on_session(&mut self, s: &OpenSession) {
        if let Some(d) = s.open_duration_ms() {
            self.out.durations_ms.add(d, 1);
        }
    }

    /// Produces the analysis.
    pub(crate) fn finish(mut self) -> OpenTimeAnalysis {
        self.out.durations_ms.prepare();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_analyzers;
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn open_times(trace: &Trace) -> OpenTimeAnalysis {
        run_analyzers(trace.records(), &[]).open_times
    }

    #[test]
    fn durations_and_fractions() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for (start, end) in [(0u64, 100), (1000, 1400), (2000, 22_000)] {
            let f = b.new_file_id();
            let o = b.open(start, f, u, AccessMode::ReadOnly, 10, false);
            b.close(end, o, 10);
        }
        let mut a = open_times(&b.finish());
        assert_eq!(a.durations_ms.total_weight(), 3);
        assert!((a.fraction_le_secs(0.5) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.fraction_le_secs(30.0) - 1.0).abs() < 1e-12);
        assert_eq!(a.median_ms(), Some(400));
    }

    #[test]
    fn empty() {
        let mut a = open_times(&Trace::default());
        assert_eq!(a.fraction_le_secs(1.0), 0.0);
        assert_eq!(a.median_ms(), None);
    }
}
