//! The run deduction against its pre-change self: [`fstrace::SessionBuilder`]
//! is the shared open-id table plus a per-slot session payload, and it
//! must report exactly what the map-based builder it replaced reported.
//!
//! `legacy::SessionBuilder` below is a verbatim copy of that builder,
//! with its `Pending` entries, as it stood before the table moved into
//! `fstrace::session`. It is the executable spec for the orphan, duplicate
//! and regression rules the table now applies for analysis and replay
//! alike.

use fstrace::{AccessMode, FileId, OpenId, Trace, TraceEvent, TraceRecord, UserId};
use proptest::prelude::*;

/// The pre-change builder, copied verbatim.
#[allow(dead_code)] // `observe` is `step` minus the `Step`; the test drives `step`.
mod legacy {
    use fstrace::{FastMap, OpenSession, Run, Step};
    use fstrace::{OpenId, Timestamp, TraceEvent, TraceRecord};

    /// In-flight state for an open id that has not closed yet.
    struct Pending {
        /// `None` when the id is known only from an orphan `seek` (its open
        /// preceded the trace): tracked for [`Step::prev`], but no session.
        session: Option<OpenSession>,
        pos: u64,
        /// Time of the id's latest event.
        last: Timestamp,
    }

    /// Online session reconstruction: feed records one at a time, collect
    /// each closed session the moment its `close` arrives.
    ///
    /// This is the single implementation of the paper's run deduction; the
    /// batch [`SessionSet::build`] is a thin wrapper over it. Memory is
    /// O(live sessions): a session is buffered only between its `open` and
    /// its `close`, so a week-long trace streams through without
    /// materializing anything proportional to its length.
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
        pending: FastMap<OpenId, Pending>,
        /// Entries of `pending` holding a session.
        live: usize,
        anomalies: u64,
        live_peak: usize,
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
            self.step(rec).1
        }

        /// [`SessionBuilder::observe`], also reporting what the record did
        /// to its open id.
        ///
        /// An orphan `seek` — one whose open id was never seen — is an
        /// anomaly with no session, but from then on the id is tracked, so
        /// its later `seek`s and `close` report [`Step::prev`].
        pub fn step(&mut self, rec: &TraceRecord) -> (Step, Option<OpenSession>) {
            let mut step = Step::default();
            let closed = match rec.event {
                TraceEvent::Open {
                    open_id,
                    file_id,
                    user_id,
                    mode,
                    size,
                    created,
                } => {
                    let session = OpenSession {
                        open_id,
                        file_id,
                        user_id,
                        mode,
                        created,
                        open_time: rec.time,
                        close_time: None,
                        open_size: size,
                        runs: Vec::new(),
                        seek_count: 0,
                    };
                    step.user = Some(user_id);
                    let pending = Pending {
                        session: Some(session),
                        pos: 0,
                        last: rec.time,
                    };
                    match self.pending.insert(open_id, pending) {
                        // Duplicate open id: drop the earlier, unfinished one.
                        Some(Pending {
                            session: Some(_), ..
                        }) => self.anomalies += 1,
                        _ => {
                            self.live += 1;
                            self.live_peak = self.live_peak.max(self.live);
                        }
                    }
                    None
                }
                TraceEvent::Seek {
                    open_id,
                    old_pos,
                    new_pos,
                } => {
                    match self.pending.get_mut(&open_id) {
                        Some(p) => {
                            step.prev = Some(p.last);
                            p.last = rec.time;
                            match p.session.as_mut() {
                                Some(s) => {
                                    step.user = Some(s.user_id);
                                    s.seek_count += 1;
                                    if old_pos > p.pos {
                                        step.billed = old_pos - p.pos;
                                        s.runs.push(Run {
                                            offset: p.pos,
                                            len: step.billed,
                                            billed_at: rec.time,
                                        });
                                    } else if old_pos < p.pos {
                                        // Positions only move forward between
                                        // seeks; a regression is a malformed
                                        // trace.
                                        self.anomalies += 1;
                                    }
                                    p.pos = new_pos;
                                }
                                None => self.anomalies += 1,
                            }
                        }
                        None => {
                            self.anomalies += 1;
                            self.pending.insert(
                                open_id,
                                Pending {
                                    session: None,
                                    pos: 0,
                                    last: rec.time,
                                },
                            );
                        }
                    }
                    None
                }
                TraceEvent::Close { open_id, final_pos } => {
                    let pending = self.pending.remove(&open_id);
                    step.prev = pending.as_ref().map(|p| p.last);
                    match pending {
                        Some(Pending {
                            session: Some(mut s),
                            pos,
                            ..
                        }) => {
                            self.live -= 1;
                            step.user = Some(s.user_id);
                            if final_pos > pos {
                                step.billed = final_pos - pos;
                                s.runs.push(Run {
                                    offset: pos,
                                    len: step.billed,
                                    billed_at: rec.time,
                                });
                            } else if final_pos < pos {
                                self.anomalies += 1;
                            }
                            s.close_time = Some(rec.time);
                            Some(s)
                        }
                        _ => {
                            self.anomalies += 1;
                            None
                        }
                    }
                }
                TraceEvent::Execve { .. }
                | TraceEvent::Unlink { .. }
                | TraceEvent::Truncate { .. } => None,
            };
            (step, closed)
        }

        /// Number of sessions currently open (the builder's live memory).
        pub fn live_sessions(&self) -> usize {
            self.live
        }

        /// Greatest number of simultaneously open sessions seen so far.
        pub fn live_sessions_peak(&self) -> usize {
            self.live_peak
        }

        /// Anomalies counted so far (unknown open ids, position
        /// regressions, duplicate open ids).
        pub fn anomalies(&self) -> u64 {
            self.anomalies
        }

        /// Consumes the builder, returning the still-open sessions (sorted
        /// by open time, then open id, with `close_time == None`) and the
        /// final anomaly count.
        pub fn finish(self) -> (Vec<OpenSession>, u64) {
            let mut rest: Vec<OpenSession> = self
                .pending
                .into_values()
                .filter_map(|p| p.session)
                .collect();
            rest.sort_by_key(|s| (s.open_time, s.open_id));
            (rest, self.anomalies)
        }
    }
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::ReadOnly),
        Just(AccessMode::WriteOnly),
        Just(AccessMode::ReadWrite),
    ]
}

/// Raw events over at most 8 open ids and small positions, so orphan
/// seeks and closes, an orphan seek followed by an open of its id,
/// duplicate opens of a live id, position regressions, id reuse after a
/// close and never-closed opens all turn up in most traces.
fn arb_raw_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            0u64..8,
            0u64..4,
            0u32..3,
            arb_mode(),
            0u64..3_000,
            any::<bool>()
        )
            .prop_map(|(o, f, u, mode, size, created)| TraceEvent::Open {
                open_id: OpenId(o),
                file_id: FileId(f),
                user_id: UserId(u),
                mode,
                size,
                created,
            }),
        (0u64..8, 0u64..3_000).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..8, 0u64..3_000, 0u64..3_000).prop_map(|(o, a, b)| TraceEvent::Seek {
            open_id: OpenId(o),
            old_pos: a,
            new_pos: b,
        }),
        (0u64..4, 0u32..3, 0u64..3_000).prop_map(|(f, u, size)| TraceEvent::Execve {
            file_id: FileId(f),
            user_id: UserId(u),
            size,
        }),
    ]
}

fn arb_raw_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..2_000, arb_raw_event()), 0..120).prop_map(|pairs| {
        Trace::from_records(
            pairs
                .into_iter()
                .map(|(t, e)| TraceRecord::new(t, e))
                .collect(),
        )
    })
}

proptest! {
    /// Record for record, the shared table reports the legacy builder's
    /// user, billed run, previous-event time and completed session; at
    /// the end, its anomaly count, live-session peak and unclosed
    /// sessions.
    #[test]
    fn session_builder_matches_pre_change_builder(trace in arb_raw_trace()) {
        let mut legacy = legacy::SessionBuilder::new();
        let mut table = fstrace::SessionBuilder::new();
        for (i, rec) in trace.records().iter().enumerate() {
            let (want, want_closed) = legacy.step(rec);
            let (got, got_closed) = table.step(rec);
            prop_assert_eq!(
                (got.user, got.billed, got.prev),
                (want.user, want.billed, want.prev),
                "record {} {:?}",
                i,
                rec
            );
            prop_assert_eq!(got_closed, want_closed.as_ref(), "record {} {:?}", i, rec);
            prop_assert_eq!(table.live_sessions(), legacy.live_sessions(), "record {}", i);
        }
        prop_assert_eq!(table.anomalies(), legacy.anomalies());
        prop_assert_eq!(table.live_sessions_peak(), legacy.live_sessions_peak());
        prop_assert_eq!(table.finish(), legacy.finish());
    }
}
