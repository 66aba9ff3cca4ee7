//! The activity, event-gap and per-user analyzers as they stood before
//! the analysis pass shared one open-id table, copied verbatim (the
//! `Analyzer` impls became inherent methods). Each kept its own state:
//! activity and gaps their own maps keyed by open id, activity its own
//! copy of the run-billing rule, and the per-user finish one scan of
//! every window per user. They are the executable spec for the shared
//! pass: `props.rs` requires `run_analyzers` to print the same `{:?}`.
//!
//! The activity copy sums windows with `simstat::WindowedSums`; simstat's
//! `windows_oracle` test holds that accumulator to its own pre-change
//! copy bit for bit, so the two oracles together cover the whole path.

use std::collections::BTreeSet;

use fsanalysis::{ActivityAnalysis, ActivityWindow, EventGapAnalysis, UserActivity, UserAnalysis};
use fstrace::{FastMap, OpenId, OpenSession, Trace, TraceEvent, TraceRecord, UserId};
use simstat::{OnlineStats, WindowedSums};

/// Pre-change `ActivityBuilder`.
pub struct LegacyActivityBuilder {
    window_secs: Vec<u64>,
    windows: Vec<WindowedSums>,
    pending: FastMap<OpenId, (UserId, u64)>,
    users: BTreeSet<u32>,
    total_bytes: u64,
    first_ms: Option<u64>,
    last_ms: u64,
}

impl LegacyActivityBuilder {
    pub fn new(window_secs: &[u64]) -> Self {
        LegacyActivityBuilder {
            window_secs: window_secs.to_vec(),
            windows: window_secs
                .iter()
                .map(|&secs| WindowedSums::new(secs * 1000))
                .collect(),
            pending: FastMap::default(),
            users: BTreeSet::new(),
            total_bytes: 0,
            first_ms: None,
            last_ms: 0,
        }
    }

    fn point(&mut self, t: u64, u: UserId, bytes: u64) {
        self.total_bytes += bytes;
        self.users.insert(u.0);
        for w in &mut self.windows {
            w.add(t, u.0 as u64, bytes);
        }
    }

    pub fn observe(&mut self, rec: &TraceRecord) {
        let now = rec.time.as_ms();
        self.first_ms = Some(self.first_ms.map_or(now, |f| f.min(now)));
        self.last_ms = self.last_ms.max(now);
        match rec.event {
            TraceEvent::Open {
                open_id, user_id, ..
            } => {
                self.point(now, user_id, 0);
                self.pending.insert(open_id, (user_id, 0));
            }
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            } => {
                let mut billed = None;
                if let Some((u, pos)) = self.pending.get_mut(&open_id) {
                    if old_pos > *pos {
                        billed = Some((*u, old_pos - *pos));
                    }
                    *pos = new_pos;
                }
                if let Some((u, len)) = billed {
                    self.point(now, u, len);
                }
            }
            TraceEvent::Close { open_id, final_pos } => {
                if let Some((u, pos)) = self.pending.remove(&open_id) {
                    if final_pos > pos {
                        self.point(now, u, final_pos - pos);
                    }
                    self.point(now, u, 0);
                }
            }
            _ => {
                if let Some(u) = rec.event.user_id() {
                    if rec.event.open_id().is_none() {
                        self.point(now, u, 0);
                    }
                }
            }
        }
    }

    pub fn finish(self) -> ActivityAnalysis {
        let duration_ms = self.last_ms.saturating_sub(self.first_ms.unwrap_or(0));
        let duration_secs = duration_ms as f64 / 1000.0;
        let avg_throughput = if duration_secs > 0.0 {
            self.total_bytes as f64 / duration_secs
        } else {
            0.0
        };
        let windows = self
            .window_secs
            .iter()
            .zip(&self.windows)
            .map(|(&secs, w)| {
                let stats = w.stats();
                let mut throughput_per_active = OnlineStats::new();
                scale_into(
                    &stats.sum_per_active,
                    secs as f64,
                    &mut throughput_per_active,
                );
                ActivityWindow {
                    window_secs: secs,
                    max_active: stats.max_active,
                    active_per_window: stats.active_per_window,
                    throughput_per_active,
                }
            })
            .collect();
        ActivityAnalysis {
            avg_throughput,
            total_users: self.users.len() as u64,
            total_bytes: self.total_bytes,
            duration_secs,
            windows,
        }
    }
}

fn scale_into(src: &OnlineStats, divisor: f64, dst: &mut OnlineStats) {
    let n = src.count();
    if n == 0 {
        return;
    }
    let mean = src.mean() / divisor;
    let sd = src.population_stddev() / divisor;
    if n == 1 {
        dst.add(mean);
        return;
    }
    let k = n / 2;
    let spread = sd * ((n as f64) / (2.0 * k as f64)).sqrt();
    for _ in 0..k {
        dst.add(mean - spread);
        dst.add(mean + spread);
    }
    if n % 2 == 1 {
        dst.add(mean);
    }
}

/// Pre-change `EventGapBuilder`.
#[derive(Default)]
pub struct LegacyEventGapBuilder {
    last: FastMap<OpenId, u64>,
    out: EventGapAnalysis,
}

impl LegacyEventGapBuilder {
    pub fn observe(&mut self, rec: &TraceRecord) {
        let now = rec.time.as_ms();
        match rec.event {
            TraceEvent::Open { open_id, .. } => {
                self.last.insert(open_id, now);
            }
            TraceEvent::Seek { open_id, .. } => {
                if let Some(prev) = self.last.insert(open_id, now) {
                    self.out.gaps_ms.add(now.saturating_sub(prev), 1);
                }
            }
            TraceEvent::Close { open_id, .. } => {
                if let Some(prev) = self.last.remove(&open_id) {
                    self.out.gaps_ms.add(now.saturating_sub(prev), 1);
                }
            }
            _ => {}
        }
    }

    pub fn finish(mut self) -> EventGapAnalysis {
        self.out.gaps_ms.prepare();
        self.out
    }
}

/// Pre-change `UserAnalysisBuilder`, fed from the trace's sessions as
/// the pre-change `UserAnalysis::analyze` was.
#[derive(Default)]
pub struct LegacyUserAnalysisBuilder {
    bytes: FastMap<UserId, u64>,
    nsessions: FastMap<UserId, u64>,
    windows: FastMap<(UserId, u64), u64>,
}

impl LegacyUserAnalysisBuilder {
    const WINDOW_MS: u64 = 10_000;

    fn add_runs(&mut self, s: &OpenSession) {
        for r in &s.runs {
            *self.bytes.entry(s.user_id).or_insert(0) += r.len;
            *self
                .windows
                .entry((s.user_id, r.billed_at.as_ms() / Self::WINDOW_MS))
                .or_insert(0) += r.len;
        }
    }

    pub fn on_session(&mut self, s: &OpenSession) {
        *self.nsessions.entry(s.user_id).or_insert(0) += 1;
        self.add_runs(s);
    }

    pub fn on_unclosed(&mut self, s: &OpenSession) {
        self.add_runs(s);
    }

    pub fn finish(self) -> UserAnalysis {
        let mut users: Vec<UserActivity> = self
            .bytes
            .iter()
            .map(|(&user, &total)| {
                let per_window: Vec<u64> = self
                    .windows
                    .iter()
                    .filter(|(&(u, _), _)| u == user)
                    .map(|(_, &b)| b)
                    .collect();
                let peak = per_window.iter().copied().max().unwrap_or(0);
                let mean = if per_window.is_empty() {
                    0.0
                } else {
                    per_window.iter().sum::<u64>() as f64 / per_window.len() as f64
                };
                UserActivity {
                    user,
                    bytes: total,
                    sessions: self.nsessions.get(&user).copied().unwrap_or(0),
                    peak_10s_bytes: peak,
                    mean_active_10s_bytes: mean,
                }
            })
            .collect();
        users.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.user.0.cmp(&b.user.0)));
        UserAnalysis { users }
    }
}

/// The three pre-change analyses of `trace`, each from its own pass.
pub fn analyze(
    trace: &Trace,
    window_secs: &[u64],
) -> (ActivityAnalysis, EventGapAnalysis, UserAnalysis) {
    let mut activity = LegacyActivityBuilder::new(window_secs);
    let mut gaps = LegacyEventGapBuilder::default();
    for rec in trace.records() {
        activity.observe(rec);
        gaps.observe(rec);
    }
    let mut users = LegacyUserAnalysisBuilder::default();
    for s in trace.sessions().all() {
        if s.close_time.is_some() {
            users.on_session(s);
        } else {
            users.on_unclosed(s);
        }
    }
    (activity.finish(), gaps.finish(), users.finish())
}
