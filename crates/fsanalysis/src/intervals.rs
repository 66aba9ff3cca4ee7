//! Event-gap bounds: intervals between successive trace events for the
//! same open file (Section 3.1).
//!
//! These gaps bound when data transfers actually occurred; the paper
//! measured 75% of intervals under 0.5 s, 90% under 10 s, and 99% under
//! 30 s, justifying the no-read-write tracing approach.

use fstrace::{Step, TraceRecord};
use simstat::Distribution;

/// Distribution of gaps between successive events for one open file:
/// every open→seek→…→close gap in a trace.
#[derive(Debug, Clone, Default)]
pub struct EventGapAnalysis {
    /// Gaps in milliseconds, one per successive event pair.
    pub gaps_ms: Distribution,
}

impl EventGapAnalysis {
    /// Fraction of gaps at most `secs` seconds.
    pub fn fraction_le_secs(&mut self, secs: f64) -> f64 {
        self.gaps_ms.fraction_le((secs * 1000.0) as u64)
    }
}

/// Builds [`EventGapAnalysis`]: each gap is recorded at the later of
/// its two events, from the previous event's time that the session
/// builder reports in [`Step::prev`]. The builder keeps no open-id
/// state of its own.
///
/// An id is tracked from its `open`, or from an orphan `seek` when the
/// open preceded the trace, until its `close`.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventGapBuilder {
    out: EventGapAnalysis,
}

impl EventGapBuilder {
    /// Feeds one record, with the previous event on its open id.
    pub(crate) fn observe(&mut self, rec: &TraceRecord, step: Step) {
        if let Some(prev) = step.prev {
            self.out.gaps_ms.add(rec.time.since(prev), 1);
        }
    }

    /// Produces the analysis.
    pub(crate) fn finish(mut self) -> EventGapAnalysis {
        self.out.gaps_ms.prepare();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_analyzers;
    use fstrace::{AccessMode, OpenId, Trace, TraceBuilder};

    fn gaps(trace: &Trace) -> EventGapAnalysis {
        run_analyzers(trace.records(), &[]).gaps
    }

    #[test]
    fn gaps_per_open_file() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::ReadWrite, 1000, false);
        b.seek(200, o, 0, 500); // Gap 200 ms.
        b.seek(300, o, 600, 0); // Gap 100 ms.
        b.close(9_300, o, 100); // Gap 9 000 ms.
        let mut a = gaps(&b.finish());
        assert_eq!(a.gaps_ms.total_weight(), 3);
        assert!((a.fraction_le_secs(0.5) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.fraction_le_secs(10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_opens_tracked_separately() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o1 = b.open(0, f, u, AccessMode::ReadOnly, 10, false);
        let o2 = b.open(1_000, f, u, AccessMode::ReadOnly, 10, false);
        b.close(100, o1, 10); // Gap 100 for o1.
        b.close(1_050, o2, 10); // Gap 50 for o2.
        let mut a = gaps(&b.finish());
        assert_eq!(a.gaps_ms.total_weight(), 2);
        assert_eq!(a.gaps_ms.percentile(1.0), Some(100));
    }

    #[test]
    fn orphan_seek_starts_tracking_its_open_id() {
        // The open preceded the trace: the first seek yields no gap, but
        // the id is tracked from there, so the next seek and the close
        // each yield one.
        let mut b = TraceBuilder::new();
        b.seek(1_000, OpenId(42), 0, 100);
        b.seek(1_300, OpenId(42), 150, 0);
        b.close(3_300, OpenId(42), 10);
        b.close(4_000, OpenId(43), 10); // Untracked: no gap.
        let mut a = gaps(&b.finish());
        assert_eq!(a.gaps_ms.total_weight(), 2);
        assert_eq!(a.gaps_ms.percentile(0.0), Some(300));
        assert_eq!(a.gaps_ms.percentile(1.0), Some(2_000));
    }

    #[test]
    fn empty_trace() {
        let mut a = gaps(&Trace::default());
        assert_eq!(a.fraction_le_secs(1.0), 0.0);
    }
}
