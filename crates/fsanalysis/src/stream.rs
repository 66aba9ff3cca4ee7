//! Single-pass streaming analysis: every analyzer in this crate as an
//! incremental consumer, driven once per trace.
//!
//! The batch `analyze(...)` entry points materialize nothing extra: each
//! is a thin wrapper over the [`Analyzer`] implementation in its module,
//! and [`run_analyzers`] drives *all* of them over one pass of the
//! record stream. Memory is bounded by the number of simultaneously
//! open files plus the analyzers' own summaries — never by trace
//! length — so a multi-day trace streams straight from disk.
//!
//! # One open-id table
//!
//! The pass keeps exactly one table keyed by open id: the shared
//! [`SessionBuilder`]'s. Its [`SessionBuilder::step`] reports, for each
//! record, the user of the open it belongs to, the run it billed, and
//! the time of the previous event on the same id ([`Step`]). Activity
//! points (Table IV) and event gaps (Section 3.1) come from that step,
//! so no analyzer repeats the paper's run-billing rule or looks the id
//! up again. About 90% of the records in a generated trace are opens,
//! seeks and closes, and each costs the pass one hash lookup.
//!
//! Table IV's window sums go to [`simstat::WindowedSums`], which keeps
//! only the newest window open and appends closed windows in order, so
//! time-ordered input never touches a tree. Results are bit-identical
//! to the tree-based accumulator: its statistics see the same adds in
//! the same `(window, user)` order, and a point for an older window
//! (out-of-order input) takes an exact, slower path.
//!
//! # Fidelity
//!
//! In the replay-fidelity taxonomy (`cachesim::Fidelity`, DESIGN.md
//! §15) this suite is open/syscall-level *by construction*: analyzers
//! consume records and [`OpenSession`]s — never block decompositions —
//! so its results are invariant across replay fidelities. It is fed
//! through the same record layer as the expanders, which is what lets
//! one trace pass drive both Section-5 analysis and any-fidelity cache
//! replay.
//!
//! # Contract
//!
//! An [`Analyzer`] sees, in trace order:
//!
//! 1. [`Analyzer::observe`] for every record, with the [`Step`] the
//!    shared session builder computed for it;
//! 2. [`Analyzer::on_session`] immediately after the `close` record that
//!    completed the session (after `observe` of that same record);
//! 3. [`Analyzer::on_unclosed`] at end of stream for each never-closed
//!    session, ordered by `(open_time, open_id)`;
//! 4. [`Analyzer::finish`] exactly once to produce the result.

use fstrace::{OpenSession, SessionBuilder, Step, TraceRecord};

use crate::activity::{ActivityAnalysis, ActivityBuilder};
use crate::intervals::{EventGapAnalysis, EventGapBuilder};
use crate::lifetime::{LifetimeAnalysis, LifetimeBuilder};
use crate::opentime::{OpenTimeAnalysis, OpenTimeBuilder};
use crate::sequential::{
    RunLengthAnalysis, RunLengthBuilder, SequentialityBuilder, SequentialityReport,
};
use crate::sizes::{FileSizeAnalysis, FileSizeBuilder};
use crate::users::{UserAnalysis, UserAnalysisBuilder};

/// An incremental trace analyzer.
///
/// Implementations accumulate state from records and reconstructed
/// sessions, then produce their summary in [`Analyzer::finish`]. The
/// default method bodies ignore the corresponding input, so a purely
/// session-driven analyzer implements only [`Analyzer::on_session`] and
/// a purely record-driven one only [`Analyzer::observe`].
pub trait Analyzer {
    /// The summary produced at the end of the stream.
    type Output;

    /// Feeds one trace record, in time order, with what it did to its
    /// open id.
    fn observe(&mut self, _rec: &TraceRecord, _step: Step) {}

    /// Feeds a session completed by the record just observed.
    fn on_session(&mut self, _s: &OpenSession) {}

    /// Feeds a session still open when the stream ended
    /// (`close_time == None`).
    fn on_unclosed(&mut self, _s: &OpenSession) {}

    /// Consumes the analyzer, producing its summary.
    fn finish(self) -> Self::Output;
}

/// The result of one shared pass over a trace: every analysis this
/// crate offers, computed together.
#[derive(Debug, Clone)]
pub struct AnalysisSuite {
    /// Table IV: users, active users, per-user throughput.
    pub activity: ActivityAnalysis,
    /// Table V: sequentiality by access mode.
    pub sequentiality: SequentialityReport,
    /// Figure 1: sequential run lengths.
    pub run_lengths: RunLengthAnalysis,
    /// Figure 2: dynamic file sizes at close.
    pub sizes: FileSizeAnalysis,
    /// Figure 3: open durations.
    pub open_times: OpenTimeAnalysis,
    /// Figure 4: new-file lifetimes.
    pub lifetimes: LifetimeAnalysis,
    /// Section 3.1: event-gap bounds.
    pub gaps: EventGapAnalysis,
    /// Table IV extension: per-user burstiness.
    pub users: UserAnalysis,
}

/// Drives all analyzers over one record stream with one shared
/// [`SessionBuilder`].
///
/// Feed records with [`AnalysisStream::observe`], then call
/// [`AnalysisStream::finish`]. Live memory is reported by
/// [`AnalysisStream::live_sessions`].
pub struct AnalysisStream {
    sessions: SessionBuilder,
    activity: ActivityBuilder,
    sequentiality: SequentialityBuilder,
    run_lengths: RunLengthBuilder,
    sizes: FileSizeBuilder,
    open_times: OpenTimeBuilder,
    lifetimes: LifetimeBuilder,
    gaps: EventGapBuilder,
    users: UserAnalysisBuilder,
}

impl AnalysisStream {
    /// Creates a stream computing activity over the given window lengths
    /// (in seconds; the paper uses 600 and 10).
    pub fn new(window_secs: &[u64]) -> Self {
        AnalysisStream {
            sessions: SessionBuilder::new(),
            activity: ActivityBuilder::new(window_secs),
            sequentiality: SequentialityBuilder::default(),
            run_lengths: RunLengthBuilder::default(),
            sizes: FileSizeBuilder::default(),
            open_times: OpenTimeBuilder::default(),
            lifetimes: LifetimeBuilder::default(),
            gaps: EventGapBuilder::default(),
            users: UserAnalysisBuilder::default(),
        }
    }

    /// Feeds one record to every analyzer, dispatching any session the
    /// record completes.
    pub fn observe(&mut self, rec: &TraceRecord) {
        let (step, closed) = self.sessions.step(rec);
        self.activity.observe(rec, step);
        self.lifetimes.observe(rec, step);
        self.gaps.observe(rec, step);
        if let Some(s) = closed {
            self.sequentiality.on_session(&s);
            self.run_lengths.on_session(&s);
            self.sizes.on_session(&s);
            self.open_times.on_session(&s);
            self.lifetimes.on_session(&s);
            self.users.on_session(&s);
        }
    }

    /// Feeds every record of a decoded columnar block, in order — the
    /// batched twin of [`AnalysisStream::observe`] for
    /// [`fstrace::RecordBlock`] producers. Each record is materialized
    /// from the columns on the stack; results are bit-identical to
    /// observing the records one by one.
    pub fn observe_block(&mut self, block: &fstrace::RecordBlock) {
        for i in 0..block.len() {
            self.observe(&block.get(i));
        }
    }

    /// Number of sessions currently held open — the stream's live
    /// memory, O(simultaneously open files).
    pub fn live_sessions(&self) -> usize {
        self.sessions.live_sessions()
    }

    /// Greatest number of simultaneously open sessions seen so far.
    pub fn live_sessions_peak(&self) -> usize {
        self.sessions.live_sessions_peak()
    }

    /// Flushes unclosed sessions and produces every analysis.
    pub fn finish(self) -> AnalysisSuite {
        let AnalysisStream {
            sessions,
            activity,
            sequentiality,
            mut run_lengths,
            sizes,
            open_times,
            lifetimes,
            gaps,
            mut users,
        } = self;
        let (unclosed, _anomalies) = sessions.finish();
        for s in &unclosed {
            run_lengths.on_unclosed(s);
            users.on_unclosed(s);
        }
        AnalysisSuite {
            activity: activity.finish(),
            sequentiality: sequentiality.finish(),
            run_lengths: run_lengths.finish(),
            sizes: sizes.finish(),
            open_times: open_times.finish(),
            lifetimes: lifetimes.finish(),
            gaps: gaps.finish(),
            users: users.finish(),
        }
    }
}

/// Drives one analyzer over `records` with a [`SessionBuilder`] of its
/// own, following the [`Analyzer`] contract: the loop behind the
/// standalone `analyze(...)` wrappers.
pub(crate) fn drive<A: Analyzer>(mut analyzer: A, records: &[TraceRecord]) -> A::Output {
    let mut sessions = SessionBuilder::new();
    for rec in records {
        let (step, closed) = sessions.step(rec);
        analyzer.observe(rec, step);
        if let Some(s) = closed {
            analyzer.on_session(&s);
        }
    }
    for s in &sessions.finish().0 {
        analyzer.on_unclosed(s);
    }
    analyzer.finish()
}

/// Runs every analyzer over `records` in a single shared pass.
///
/// `records` must be in time order (any [`fstrace::Trace`] is). This is
/// the streaming equivalent of calling each `analyze(...)` entry point
/// separately — and produces bit-identical results, because those entry
/// points are wrappers over the same builders.
///
/// Accepts borrowed or owned records (anything
/// `Borrow<TraceRecord>`), so both `Trace::records()` and decoded
/// archive streams feed it directly.
pub fn run_analyzers<I>(records: I, window_secs: &[u64]) -> AnalysisSuite
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<TraceRecord>,
{
    use std::borrow::Borrow;
    let mut stream = AnalysisStream::new(window_secs);
    for rec in records {
        stream.observe(rec.borrow());
    }
    stream.finish()
}

/// Runs every analyzer over a **block** stream in a single pass: one
/// reused [`fstrace::RecordBlock`] is refilled via
/// [`fstrace::FillBlock`] and drained through
/// [`AnalysisStream::observe_block`], so producers that recycle blocks
/// (e.g. `tracestore::ArchiveBlocks`) feed the whole suite with no
/// per-chunk allocation. Results are bit-identical to
/// [`run_analyzers`] over the same records.
pub fn run_analyzers_blocks<S: fstrace::FillBlock>(
    mut source: S,
    window_secs: &[u64],
) -> AnalysisSuite {
    let mut stream = AnalysisStream::new(window_secs);
    let mut block = fstrace::RecordBlock::new();
    while source.fill_next(&mut block) {
        stream.observe_block(&block);
    }
    stream.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::{AccessMode, Trace, TraceBuilder};

    /// A trace exercising every event kind, an unclosed open, and an
    /// orphan close.
    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let u1 = b.new_user_id();
        let u2 = b.new_user_id();

        let f1 = b.new_file_id();
        let o = b.open(0, f1, u1, AccessMode::ReadOnly, 4_000, false);
        b.close(1_000, o, 4_000); // Whole-file read.

        let f2 = b.new_file_id();
        let o = b.open(2_000, f2, u2, AccessMode::WriteOnly, 0, true);
        b.close(2_500, o, 900); // New file written.

        let o = b.open(12_000, f2, u2, AccessMode::ReadWrite, 900, false);
        b.seek(12_100, o, 0, 900);
        b.close(12_400, o, 1_100); // Append 200 B.
        b.truncate(14_000, f2, 0, u2); // Death + rebirth.
        b.unlink(20_000, f2, u2); // Death.

        let f3 = b.new_file_id();
        b.execve(21_000, f3, u1, 32_000);
        b.open(22_000, f3, u1, AccessMode::ReadOnly, 32_000, false); // Unclosed.
        b.close(23_000, fstrace::OpenId(999), 10); // Orphan.
        b.finish()
    }

    #[test]
    fn suite_matches_individual_analyses() {
        let trace = sample();
        let windows = [600, 10];
        let suite = run_analyzers(trace.records(), &windows);

        let mut activity = ActivityAnalysis::analyze(&trace, &windows);
        assert_eq!(suite.activity.total_bytes, activity.total_bytes);
        assert_eq!(suite.activity.total_users, activity.total_users);
        assert_eq!(suite.activity.duration_secs, activity.duration_secs);
        let mut suite_activity = suite.activity.clone();
        for (a, b) in suite_activity.windows.iter_mut().zip(&mut activity.windows) {
            assert_eq!(a.max_active, b.max_active);
            assert_eq!(a.avg_active(), b.avg_active());
            assert_eq!(a.avg_throughput(), b.avg_throughput());
            assert_eq!(
                a.throughput_per_active.population_stddev(),
                b.throughput_per_active.population_stddev()
            );
        }

        let sessions = trace.sessions();
        let seq = SequentialityReport::analyze(&sessions);
        assert_eq!(suite.sequentiality.total_accesses(), seq.total_accesses());
        assert_eq!(suite.sequentiality.total_bytes(), seq.total_bytes());
        assert_eq!(
            suite.sequentiality.whole_file_fraction(),
            seq.whole_file_fraction()
        );

        let mut runs = RunLengthAnalysis::analyze(&sessions);
        let mut suite_runs = suite.run_lengths.clone();
        assert_eq!(
            suite_runs.by_runs.total_weight(),
            runs.by_runs.total_weight()
        );
        assert_eq!(
            suite_runs.fraction_of_bytes_le(1_000),
            runs.fraction_of_bytes_le(1_000)
        );

        let mut sizes = FileSizeAnalysis::analyze(&sessions);
        let mut suite_sizes = suite.sizes.clone();
        assert_eq!(
            suite_sizes.fraction_of_accesses_le(1_000),
            sizes.fraction_of_accesses_le(1_000)
        );

        let mut open_times = OpenTimeAnalysis::analyze(&sessions);
        let mut suite_open = suite.open_times.clone();
        assert_eq!(suite_open.median_ms(), open_times.median_ms());

        let lifetimes = LifetimeAnalysis::analyze(&trace);
        assert_eq!(suite.lifetimes.events, lifetimes.events);
        assert_eq!(suite.lifetimes.censored, lifetimes.censored);

        let mut gaps = EventGapAnalysis::analyze(&trace);
        let mut suite_gaps = suite.gaps.clone();
        assert_eq!(
            suite_gaps.gaps_ms.total_weight(),
            gaps.gaps_ms.total_weight()
        );
        assert_eq!(suite_gaps.fraction_le_secs(0.5), gaps.fraction_le_secs(0.5));

        let users = UserAnalysis::analyze(&trace);
        assert_eq!(suite.users.users, users.users);
    }

    #[test]
    fn live_sessions_track_open_files() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o1 = b.open(0, f, u, AccessMode::ReadOnly, 10, false);
        let o2 = b.open(5, f, u, AccessMode::ReadOnly, 10, false);
        b.close(10, o1, 10);
        b.close(20, o2, 10);
        let trace = b.finish();

        let mut stream = AnalysisStream::new(&[10]);
        let mut peak = 0;
        for rec in trace.records() {
            stream.observe(rec);
            peak = peak.max(stream.live_sessions());
        }
        assert_eq!(peak, 2);
        assert_eq!(stream.live_sessions(), 0);
        assert_eq!(stream.live_sessions_peak(), 2);
    }

    #[test]
    fn observe_block_matches_observe() {
        let trace = sample();
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for r in trace.records() {
            prev = fstrace::codec::encode_into(&mut buf, r, prev);
        }
        // Chop the encoded stream into 3-record blocks and feed those.
        let mut batched = AnalysisStream::new(&[600, 10]);
        let mut pos = 0;
        let mut ticks = 0u64;
        let mut block = fstrace::RecordBlock::new();
        while pos < buf.len() {
            ticks = fstrace::block::decode_block(&buf, &mut pos, ticks, buf.len(), 3, &mut block)
                .expect("well-formed");
            batched.observe_block(&block);
        }
        let batched = batched.finish();
        let streamed = run_analyzers(trace.records(), &[600, 10]);
        assert_eq!(batched.activity.total_bytes, streamed.activity.total_bytes);
        assert_eq!(
            batched.sequentiality.total_accesses(),
            streamed.sequentiality.total_accesses()
        );
        assert_eq!(batched.lifetimes.events, streamed.lifetimes.events);
        assert_eq!(batched.users.users, streamed.users.users);
        let (mut a, mut b) = (batched.open_times, streamed.open_times);
        assert_eq!(a.median_ms(), b.median_ms());
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let suite = run_analyzers([].iter(), &[600]);
        assert_eq!(suite.activity.total_users, 0);
        assert_eq!(suite.sequentiality.total_accesses(), 0);
        assert_eq!(suite.lifetimes.censored, 0);
        assert!(suite.users.users.is_empty());
    }
}
