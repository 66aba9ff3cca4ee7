//! Reconstruction of per-open access patterns from a logical trace.
//!
//! This module implements the deduction at the heart of the paper's
//! no-read-write tracing approach (Section 3.1): because file I/O between
//! repositioning operations is sequential, the positions recorded at
//! `open`, each `seek`, and `close` determine exactly which byte ranges
//! were transferred. Each maximal stretch of sequential transfer is a
//! [`Run`].
//!
//! Following the paper, every transfer is *billed at the time of the next
//! `close` or `seek` event* for the file.
//!
//! The deduction lives in one place, [`OpenTable`]: outside test code,
//! the only table keyed by open id. [`SessionBuilder`] is that table with an
//! [`OpenSession`] per slot, and feeds the Section-5 analyses, lending
//! each closed session from its freed slot rather than handing over an
//! owned copy, so the next open there reuses its runs buffer;
//! `cachesim::EventExpander` steps the same table, with no payload, to
//! replay the runs at every fidelity.

use crate::hash::FastMap;

use crate::event::{AccessMode, TraceEvent, TraceRecord};
use crate::ids::{FileId, OpenId, Timestamp, UserId};

/// One sequential run: bytes transferred between repositioning events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Byte offset in the file where the run starts.
    pub offset: u64,
    /// Number of bytes transferred; always positive.
    pub len: u64,
    /// Time of the `seek` or `close` that ended (and bills) the run.
    pub billed_at: Timestamp,
}

impl Run {
    /// Offset one past the last byte of the run.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// The reconstructed history of one `open`…`close` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenSession {
    /// Identifier of the `open` call.
    pub open_id: OpenId,
    /// The file accessed.
    pub file_id: FileId,
    /// The invoking account.
    pub user_id: UserId,
    /// Read/write mode of the open.
    pub mode: AccessMode,
    /// `true` if the open created the file or truncated it to zero.
    pub created: bool,
    /// Time of the `open` event.
    pub open_time: Timestamp,
    /// Time of the `close` event, or `None` if the trace ended with the
    /// file still open.
    pub close_time: Option<Timestamp>,
    /// File size in bytes at open (after any truncate-on-open).
    pub open_size: u64,
    /// Sequential runs with positive length, in trace order.
    pub runs: Vec<Run>,
    /// Number of `seek` events seen while open.
    pub seek_count: u32,
}

impl OpenSession {
    /// Total bytes transferred during the session.
    pub fn bytes_transferred(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// File size at close, deduced from the open size and the furthest
    /// position reached — exactly what the no-read-write trace permits.
    pub fn size_at_close(&self) -> u64 {
        let furthest = self.runs.iter().map(Run::end).max().unwrap_or(0);
        self.open_size.max(furthest)
    }

    /// Wall time the file was open, in milliseconds (`None` while open at
    /// trace end).
    pub fn open_duration_ms(&self) -> Option<u64> {
        self.close_time.map(|c| c.since(self.open_time))
    }

    /// `true` if the file was read or written sequentially from beginning
    /// to end: a single run covering the whole file with no repositioning
    /// (Table V, "whole-file transfers").
    ///
    /// An open/close of an empty file with no transfers counts — the
    /// whole (zero-byte) file was trivially processed.
    pub fn is_whole_file_transfer(&self) -> bool {
        if self.close_time.is_none() || self.seek_count > 0 {
            return false;
        }
        match self.runs.as_slice() {
            [] => self.size_at_close() == 0,
            [run] => run.offset == 0 && run.len == self.size_at_close(),
            _ => false,
        }
    }

    /// `true` if access was sequential: a whole-file transfer, or
    /// repositioning happened only *before* any bytes were transferred
    /// (Table V, "sequential accesses" — e.g. seek-to-end then append).
    pub fn is_sequential(&self) -> bool {
        if self.close_time.is_none() {
            return false;
        }
        self.runs.len() <= 1
    }
}

/// One `execve` occurrence, kept apart from open sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEvent {
    /// When the program was loaded.
    pub time: Timestamp,
    /// The program file.
    pub file_id: FileId,
    /// The invoking account.
    pub user_id: UserId,
    /// Program file size in bytes.
    pub size: u64,
}

/// All sessions reconstructed from one trace, plus the `execve` stream.
#[derive(Debug, Clone, Default)]
pub struct SessionSet {
    sessions: Vec<OpenSession>,
    execs: Vec<ExecEvent>,
    anomalies: u64,
    unclosed: u64,
}

/// What one record did to the open it names, as reported by
/// [`OpenTable::step`]: the run it billed, and enough for per-record
/// analyses (activity billing, event gaps) and the replay expanders to
/// share one open-id table instead of keeping tables of their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step {
    /// The user of the session the record belongs to: set for an
    /// `open`, and for a `seek` or `close` of a session the table
    /// holds; `None` for orphans and for records that name no open.
    pub user: Option<UserId>,
    /// Length of the run this `seek` or `close` ended, billed at this
    /// record; zero when it ended none.
    pub billed: u64,
    /// For a `seek` or `close`, the time of the previous event on the
    /// same open id — its `open` or an earlier `seek` — when the id was
    /// tracked. These gaps bound when the run's transfers happened
    /// (Section 3.1).
    pub prev: Option<Timestamp>,
    /// The file and access mode of the session the record belongs to;
    /// set exactly when `user` is.
    pub file: Option<(FileId, AccessMode)>,
    /// Byte offset where the billed run starts: the session's position
    /// before this record.
    pub offset: u64,
    /// Bytes billed over the session so far, this record's run
    /// included: at a `close`, the whole session's transfer
    /// (saturating, which only a session moving 2^64 bytes can reach).
    pub total: u64,
}

/// What an `open` fixes for the rest of its session.
#[derive(Clone, Copy)]
struct Opened {
    file_id: FileId,
    user_id: UserId,
    mode: AccessMode,
}

/// The table's state for one tracked open id.
#[derive(Default)]
struct Slot<S> {
    /// `None` when the id is known only from an orphan `seek` (its open
    /// preceded the trace), tracked for [`Step::prev`] but with no
    /// session, and while the slot is free.
    open: Option<Opened>,
    /// Position after the id's latest event.
    pos: u64,
    /// Bytes billed over the session so far.
    total: u64,
    /// Time of the id's latest event.
    last: Timestamp,
    /// The consumer's per-session payload.
    session: S,
}

/// The paper's run deduction (Section 3.1), once: the one table keyed
/// by open id, shared by session reconstruction ([`SessionBuilder`])
/// and by trace replay at every fidelity (`cachesim::EventExpander`).
/// For every record it reports the run that record billed ([`Step`]).
///
/// Anomalies are counted, never fatal: a `seek` or `close` of an id
/// never opened (the trace began mid-session), a position that moves
/// backwards, and an `open` of an id still open (the earlier session is
/// dropped). An orphan `seek` starts tracking its id without a session,
/// so later events on it still report [`Step::prev`].
///
/// State lives in an arena: `slots` holds each tracked id's state and
/// the consumer's payload `S`, `free` recycles closed ids' slots, and
/// `index` maps open ids to slots. Open/close churn allocates nothing
/// in steady state; memory is O(simultaneously tracked ids).
#[derive(Default)]
pub struct OpenTable<S = ()> {
    slots: Vec<Slot<S>>,
    free: Vec<u32>,
    index: FastMap<OpenId, u32>,
    /// Slots holding a session.
    live: usize,
    live_peak: usize,
    anomalies: u64,
}

impl<S: Default> OpenTable<S> {
    /// Applies one record, returning what it did to its open id and,
    /// when the record belongs to a session, that session's payload.
    /// At an `open` the payload still holds whatever its slot held
    /// last, for the caller to replace; at the `close` the slot is
    /// already free, and the caller takes what it needs.
    pub fn step(&mut self, rec: &TraceRecord) -> (Step, Option<&mut S>) {
        let mut step = Step::default();
        let (slot, end, next_pos) = match rec.event {
            TraceEvent::Open {
                open_id,
                file_id,
                user_id,
                mode,
                ..
            } => {
                let slot = self.track(open_id, rec.time);
                let s = &mut self.slots[slot as usize];
                if s.open.is_some() {
                    // Duplicate open id: drop the earlier, unfinished one.
                    self.anomalies += 1;
                } else {
                    self.live += 1;
                    self.live_peak = self.live_peak.max(self.live);
                }
                s.open = Some(Opened {
                    file_id,
                    user_id,
                    mode,
                });
                step.user = Some(user_id);
                step.file = Some((file_id, mode));
                return (step, Some(&mut s.session));
            }
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            } => match self.index.get(&open_id) {
                Some(&slot) => (slot, old_pos, Some(new_pos)),
                None => {
                    self.anomalies += 1;
                    self.track(open_id, rec.time);
                    return (step, None);
                }
            },
            TraceEvent::Close { open_id, final_pos } => match self.index.remove(&open_id) {
                Some(slot) => {
                    self.free.push(slot);
                    (slot, final_pos, None)
                }
                None => {
                    self.anomalies += 1;
                    return (step, None);
                }
            },
            _ => return (step, None),
        };
        let s = &mut self.slots[slot as usize];
        step.prev = Some(s.last);
        s.last = rec.time;
        let Some(open) = s.open else {
            self.anomalies += 1;
            return (step, None);
        };
        step.user = Some(open.user_id);
        step.file = Some((open.file_id, open.mode));
        step.offset = s.pos;
        // The billing rule: a seek's `old_pos`, or a close's
        // `final_pos`, minus the tracked position.
        if end > s.pos {
            step.billed = end - s.pos;
            s.total = s.total.saturating_add(step.billed);
        } else if end < s.pos {
            // Positions only move forward between seeks; a regression
            // is a malformed trace.
            self.anomalies += 1;
        }
        step.total = s.total;
        match next_pos {
            Some(pos) => s.pos = pos,
            None => {
                s.open = None;
                self.live -= 1;
            }
        }
        (step, Some(&mut s.session))
    }

    /// The slot tracking `open_id` (a free one if the id is new), reset
    /// to position 0 with `time` as its latest event.
    fn track(&mut self, open_id: OpenId, time: Timestamp) -> u32 {
        let slot = *self
            .index
            .entry(open_id)
            .or_insert_with(|| match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.slots.push(Slot::default());
                    u32::try_from(self.slots.len() - 1).expect("under 2^32 ids tracked at once")
                }
            });
        let s = &mut self.slots[slot as usize];
        s.pos = 0;
        s.total = 0;
        s.last = time;
        slot
    }
}

/// Online session reconstruction: feed records one at a time, see
/// each closed session the moment its `close` arrives.
///
/// The builder is the shared [`OpenTable`] with an [`OpenSession`] as
/// each slot's payload; the batch [`SessionSet::build`] is a thin
/// wrapper over it. Memory is O(live sessions): a session is buffered
/// only between its `open` and its `close`, so a week-long trace
/// streams through without materializing anything proportional to its
/// length.
///
/// [`SessionBuilder::step`] lends the closed session out of its freed
/// slot rather than moving it out, and the next `open` that takes the
/// slot reuses the session's `runs` buffer, so open/close churn
/// allocates nothing in steady state. [`SessionBuilder::observe`]
/// returns an owned clone for callers that keep sessions.
///
/// Its open-id table is the only one an analysis pass needs:
/// [`SessionBuilder::step`] also reports each record's billed run and
/// the gap since the previous event on its open id.
///
/// # Examples
///
/// ```
/// use fstrace::{AccessMode, SessionBuilder, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let f = b.new_file_id();
/// let u = b.new_user_id();
/// let o = b.open(0, f, u, AccessMode::ReadOnly, 512, false);
/// b.close(10, o, 512);
/// let trace = b.finish();
///
/// let mut sb = SessionBuilder::new();
/// let mut closed = 0;
/// for rec in trace.records() {
///     if let Some(s) = sb.observe(rec) {
///         assert_eq!(s.bytes_transferred(), 512);
///         closed += 1;
///     }
/// }
/// let (unclosed, anomalies) = sb.finish();
/// assert_eq!((closed, unclosed.len(), anomalies), (1, 0, 0));
/// ```
#[derive(Default)]
pub struct SessionBuilder {
    table: OpenTable<Option<OpenSession>>,
}

impl SessionBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Feeds one record; returns the completed session when the record
    /// is a `close` that matches a live open.
    ///
    /// `close`/`seek` events whose open id was never seen (possible
    /// when a trace starts mid-activity) are counted as anomalies and
    /// skipped.
    pub fn observe(&mut self, rec: &TraceRecord) -> Option<OpenSession> {
        self.step(rec).1.cloned()
    }

    /// [`SessionBuilder::observe`], also reporting what the record did
    /// to its open id, and lending the completed session instead of
    /// cloning it.
    ///
    /// An orphan `seek` — one whose open id was never seen — is an
    /// anomaly with no session, but from then on the id is tracked, so
    /// its later `seek`s and `close` report [`Step::prev`].
    pub fn step(&mut self, rec: &TraceRecord) -> (Step, Option<&OpenSession>) {
        let (step, session) = self.table.step(rec);
        let Some(session) = session else {
            return (step, None);
        };
        if let TraceEvent::Open {
            open_id,
            file_id,
            user_id,
            mode,
            size,
            created,
        } = rec.event
        {
            // The slot's previous session, closed or dropped, gives up
            // its runs buffer.
            let mut runs = session.take().map(|s| s.runs).unwrap_or_default();
            runs.clear();
            *session = Some(OpenSession {
                open_id,
                file_id,
                user_id,
                mode,
                created,
                open_time: rec.time,
                close_time: None,
                open_size: size,
                runs,
                seek_count: 0,
            });
            return (step, None);
        }
        let s = session
            .as_mut()
            .expect("a session's slot holds it from its open on");
        if step.billed > 0 {
            s.runs.push(Run {
                offset: step.offset,
                len: step.billed,
                billed_at: rec.time,
            });
        }
        if let TraceEvent::Seek { .. } = rec.event {
            s.seek_count += 1;
            return (step, None);
        }
        s.close_time = Some(rec.time);
        (step, Some(s))
    }

    /// Number of sessions currently open (the builder's live memory).
    pub fn live_sessions(&self) -> usize {
        self.table.live
    }

    /// Greatest number of simultaneously open sessions seen so far.
    pub fn live_sessions_peak(&self) -> usize {
        self.table.live_peak
    }

    /// Anomalies counted so far (unknown open ids, position
    /// regressions, duplicate open ids).
    pub fn anomalies(&self) -> u64 {
        self.table.anomalies
    }

    /// Consumes the builder, returning the still-open sessions (sorted
    /// by open time, then open id, with `close_time == None`) and the
    /// final anomaly count.
    pub fn finish(self) -> (Vec<OpenSession>, u64) {
        let mut rest: Vec<OpenSession> = self
            .table
            .slots
            .into_iter()
            .filter(|s| s.open.is_some())
            .filter_map(|s| s.session)
            .collect();
        rest.sort_by_key(|s| (s.open_time, s.open_id));
        (rest, self.table.anomalies)
    }
}

impl SessionSet {
    /// Reconstructs sessions by scanning trace records in order.
    ///
    /// A thin wrapper over the streaming [`SessionBuilder`]: closed
    /// sessions land in close order, opens still pending when the
    /// records end are kept with `close_time == None`, and `execve`
    /// events are collected on the side.
    pub fn build(records: &[TraceRecord]) -> Self {
        let mut builder = SessionBuilder::new();
        let mut out = SessionSet::default();
        for rec in records {
            if let TraceEvent::Execve {
                file_id,
                user_id,
                size,
            } = rec.event
            {
                out.execs.push(ExecEvent {
                    time: rec.time,
                    file_id,
                    user_id,
                    size,
                });
            }
            if let Some(s) = builder.observe(rec) {
                out.sessions.push(s);
            }
        }
        // Keep unfinished opens so Table IV still sees their activity.
        let (rest, anomalies) = builder.finish();
        out.unclosed = rest.len() as u64;
        out.anomalies = anomalies;
        out.sessions.extend(rest);
        out
    }

    /// All sessions, closed ones first in close order, then unclosed.
    pub fn all(&self) -> &[OpenSession] {
        &self.sessions
    }

    /// Sessions that closed within the trace.
    pub fn complete(&self) -> impl Iterator<Item = &OpenSession> {
        self.sessions.iter().filter(|s| s.close_time.is_some())
    }

    /// The `execve` events in trace order.
    pub fn execs(&self) -> &[ExecEvent] {
        &self.execs
    }

    /// Number of sessions reconstructed (closed or not).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` if no sessions were reconstructed.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Count of malformed references (unknown open ids, position
    /// regressions, duplicate open ids).
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Number of opens still pending at the end of the records.
    pub fn unclosed(&self) -> u64 {
        self.unclosed
    }

    /// Total bytes transferred across all sessions.
    pub fn total_bytes_transferred(&self) -> u64 {
        self.sessions
            .iter()
            .map(OpenSession::bytes_transferred)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    #[test]
    fn whole_file_read() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(100, f, u, AccessMode::ReadOnly, 5000, false);
        b.close(400, o, 5000);
        let t = b.finish();
        let set = t.sessions();
        let s = &set.all()[0];
        assert_eq!(s.bytes_transferred(), 5000);
        assert_eq!(s.size_at_close(), 5000);
        assert_eq!(s.open_duration_ms(), Some(300));
        assert!(s.is_whole_file_transfer());
        assert!(s.is_sequential());
        assert_eq!(s.runs.len(), 1);
        assert_eq!(s.runs[0].billed_at.as_ms(), 400);
    }

    #[test]
    fn partial_read_is_not_whole_file() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::ReadOnly, 5000, false);
        b.close(100, o, 3000);
        let t = b.finish();
        let set = t.sessions();
        let s = &set.all()[0];
        assert!(!s.is_whole_file_transfer());
        assert!(s.is_sequential());
        assert_eq!(s.bytes_transferred(), 3000);
        assert_eq!(s.size_at_close(), 5000);
    }

    #[test]
    fn mailbox_append_pattern() {
        // Open read-write, seek to end before transferring, append, close:
        // sequential but not whole-file (Table V's canonical example).
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::ReadWrite, 10_000, false);
        b.seek(10, o, 0, 10_000);
        b.close(50, o, 10_500);
        let t = b.finish();
        let set = t.sessions();
        let s = &set.all()[0];
        assert!(!s.is_whole_file_transfer());
        assert!(s.is_sequential());
        assert_eq!(s.bytes_transferred(), 500);
        assert_eq!(s.size_at_close(), 10_500);
        assert_eq!(s.runs[0].offset, 10_000);
    }

    #[test]
    fn random_access_is_not_sequential() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::ReadWrite, 100_000, false);
        b.seek(10, o, 0, 50_000);
        b.seek(20, o, 50_100, 2_000); // Transferred 100 bytes at 50 000.
        b.close(30, o, 2_200); // Transferred 200 bytes at 2 000.
        let t = b.finish();
        let set = t.sessions();
        let s = &set.all()[0];
        assert!(!s.is_sequential());
        assert_eq!(s.runs.len(), 2);
        assert_eq!(s.bytes_transferred(), 300);
        assert_eq!(s.seek_count, 2);
    }

    #[test]
    fn empty_file_open_close_is_whole_file() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(10, o, 0);
        let t = b.finish();
        let set = t.sessions();
        let s = &set.all()[0];
        assert!(s.is_whole_file_transfer());
        assert_eq!(s.bytes_transferred(), 0);
    }

    #[test]
    fn unclosed_open_kept_but_not_sequential() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let _o = b.open(0, f, u, AccessMode::ReadOnly, 100, false);
        let t = b.finish();
        let set = t.sessions();
        assert_eq!(set.len(), 1);
        assert_eq!(set.unclosed(), 1);
        assert_eq!(set.complete().count(), 0);
        let s = &set.all()[0];
        assert!(!s.is_whole_file_transfer());
        assert!(!s.is_sequential());
        assert_eq!(s.open_duration_ms(), None);
    }

    #[test]
    fn orphan_events_are_anomalies() {
        let mut b = TraceBuilder::new();
        b.close(0, OpenId(999), 0);
        b.seek(10, OpenId(998), 0, 5);
        let t = b.finish();
        let set = t.sessions();
        assert_eq!(set.anomalies(), 2);
        assert!(set.is_empty());
    }

    #[test]
    fn orphan_seek_tracks_its_id_without_a_session() {
        let mut b = TraceBuilder::new();
        b.seek(100, OpenId(7), 0, 5);
        b.seek(250, OpenId(7), 40, 60);
        b.close(400, OpenId(7), 90);
        let t = b.finish();
        let mut sb = SessionBuilder::new();
        let steps: Vec<Step> = t.records().iter().map(|r| sb.step(r).0).collect();
        let prevs: Vec<Option<u64>> = steps.iter().map(|s| s.prev.map(Timestamp::as_ms)).collect();
        assert_eq!(prevs, [None, Some(100), Some(250)]);
        assert!(steps.iter().all(|s| s.user.is_none() && s.billed == 0));
        assert_eq!(sb.live_sessions_peak(), 0);
        assert_eq!(sb.finish(), (Vec::new(), 3));
    }

    #[test]
    fn step_reports_billed_runs_and_gaps() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::ReadWrite, 1000, false);
        b.seek(30, o, 200, 500);
        b.close(70, o, 900);
        let t = b.finish();
        let mut sb = SessionBuilder::new();
        let steps: Vec<Step> = t.records().iter().map(|r| sb.step(r).0).collect();
        let at = |ms| Some(Timestamp::from_ms(ms));
        assert_eq!(
            steps,
            [
                Step {
                    user: Some(u),
                    billed: 0,
                    prev: None,
                    file: Some((f, AccessMode::ReadWrite)),
                    offset: 0,
                    total: 0,
                },
                Step {
                    user: Some(u),
                    billed: 200,
                    prev: at(0),
                    file: Some((f, AccessMode::ReadWrite)),
                    offset: 0,
                    total: 200,
                },
                Step {
                    user: Some(u),
                    billed: 400,
                    prev: at(30),
                    file: Some((f, AccessMode::ReadWrite)),
                    offset: 500,
                    total: 600,
                },
            ]
        );
    }

    #[test]
    fn position_regression_is_anomaly() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::ReadOnly, 100, false);
        b.seek(10, o, 50, 60); // pos was 0, old_pos 50: run of 50.
        b.close(20, o, 40); // final_pos 40 < pos 60: regression.
        let t = b.finish();
        let set = t.sessions();
        assert_eq!(set.anomalies(), 1);
        assert_eq!(set.all()[0].bytes_transferred(), 50);
    }

    #[test]
    fn execs_are_collected() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        b.execve(100, f, u, 64_000);
        let t = b.finish();
        let set = t.sessions();
        assert_eq!(set.execs().len(), 1);
        assert_eq!(set.execs()[0].size, 64_000);
    }

    #[test]
    fn concurrent_opens_of_same_file_are_distinct() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o1 = b.open(0, f, u, AccessMode::ReadOnly, 1000, false);
        let o2 = b.open(5, f, u, AccessMode::ReadOnly, 1000, false);
        b.close(10, o1, 1000);
        b.close(20, o2, 500);
        let t = b.finish();
        let set = t.sessions();
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_bytes_transferred(), 1500);
    }
}
