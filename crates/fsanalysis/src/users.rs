//! Per-user breakdowns and burstiness, extending Table IV.
//!
//! The paper notes that transfer rates are "relatively bursty... with
//! rates as high as 10 kbytes/sec recorded for some users in some
//! intervals". This module quantifies that: per-user totals and the
//! peak-to-mean ratio of each user's transfer rate.

use fstrace::{FastMap, OpenSession, UserId};

/// Activity attributed to one user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserActivity {
    /// The user.
    pub user: UserId,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Completed open-close sessions.
    pub sessions: u64,
    /// Highest bytes moved in any single 10-second interval.
    pub peak_10s_bytes: u64,
    /// Mean bytes per 10-second interval in which the user was active.
    pub mean_active_10s_bytes: f64,
}

impl UserActivity {
    /// Peak-to-mean burstiness ratio (1.0 = perfectly smooth).
    pub fn burstiness(&self) -> f64 {
        if self.mean_active_10s_bytes <= 0.0 {
            0.0
        } else {
            self.peak_10s_bytes as f64 / self.mean_active_10s_bytes
        }
    }
}

/// Per-user activity table: transfers, billed at close or seek,
/// attributed to users.
#[derive(Debug, Clone, Default)]
pub struct UserAnalysis {
    /// Activity per user, sorted by bytes descending.
    pub users: Vec<UserActivity>,
}

impl UserAnalysis {
    /// The `n` heaviest users by bytes.
    pub fn top(&self, n: usize) -> &[UserActivity] {
        &self.users[..n.min(self.users.len())]
    }

    /// Fraction of all bytes moved by the heaviest `n` users.
    pub fn concentration(&self, n: usize) -> f64 {
        let total: u64 = self.users.iter().map(|u| u.bytes).sum();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = self.top(n).iter().map(|u| u.bytes).sum();
        top as f64 / total as f64
    }
}

/// Builds [`UserAnalysis`]: per-user totals and 10-second windows accumulate as sessions arrive. Memory is O(users ×
/// active windows), never O(records).
#[derive(Debug, Clone, Default)]
pub(crate) struct UserAnalysisBuilder {
    users: FastMap<UserId, UserTotals>,
    /// Bytes per (user, 10-second window) with activity.
    windows: FastMap<(UserId, u64), u64>,
}

/// One user's running totals.
#[derive(Debug, Clone, Copy, Default)]
struct UserTotals {
    bytes: u64,
    sessions: u64,
    /// Filled at finish: the user's busiest window and active windows.
    peak_window: u64,
    active_windows: u64,
}

impl UserAnalysisBuilder {
    const WINDOW_MS: u64 = 10_000;

    fn add_runs(&mut self, s: &OpenSession) -> &mut UserTotals {
        let totals = self.users.entry(s.user_id).or_default();
        for r in &s.runs {
            totals.bytes += r.len;
            *self
                .windows
                .entry((s.user_id, r.billed_at.as_ms() / Self::WINDOW_MS))
                .or_insert(0) += r.len;
        }
        totals
    }

    /// Feeds a session completed by the record just observed.
    pub(crate) fn on_session(&mut self, s: &OpenSession) {
        self.add_runs(s).sessions += 1;
    }

    /// Feeds a session still open when the stream ended.
    pub(crate) fn on_unclosed(&mut self, s: &OpenSession) {
        self.add_runs(s);
    }

    /// Produces the table, heaviest users first.
    pub(crate) fn finish(self) -> UserAnalysis {
        let UserAnalysisBuilder { mut users, windows } = self;
        // One pass over the windows, folded into their users' rows.
        for (&(user, _), &bytes) in &windows {
            let t = users.get_mut(&user).expect("a window's user has totals");
            t.peak_window = t.peak_window.max(bytes);
            t.active_windows += 1;
        }
        // A user with no runs has no windows and no row; every byte of
        // a user's runs lands in one of their windows, so `bytes` is
        // also the sum over their windows.
        let mut users: Vec<UserActivity> = users
            .into_iter()
            .filter(|(_, t)| t.active_windows > 0)
            .map(|(user, t)| UserActivity {
                user,
                bytes: t.bytes,
                sessions: t.sessions,
                peak_10s_bytes: t.peak_window,
                mean_active_10s_bytes: t.bytes as f64 / t.active_windows as f64,
            })
            .collect();
        users.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.user.0.cmp(&b.user.0)));
        UserAnalysis { users }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_analyzers;
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn users(trace: &Trace) -> UserAnalysis {
        run_analyzers(trace.records(), &[]).users
    }

    fn two_users() -> Trace {
        let mut b = TraceBuilder::new();
        let heavy = b.new_user_id();
        let light = b.new_user_id();
        // Heavy user: two sessions, one bursty.
        let f = b.new_file_id();
        let o = b.open(0, f, heavy, AccessMode::ReadOnly, 100_000, false);
        b.close(1_000, o, 100_000);
        let o = b.open(60_000, f, heavy, AccessMode::ReadOnly, 100_000, false);
        b.close(61_000, o, 10_000);
        // Light user: one small read.
        let g = b.new_file_id();
        let o = b.open(5_000, g, light, AccessMode::ReadOnly, 500, false);
        b.close(5_100, o, 500);
        b.finish()
    }

    #[test]
    fn orders_users_by_bytes() {
        let a = users(&two_users());
        assert_eq!(a.users.len(), 2);
        assert_eq!(a.users[0].bytes, 110_000);
        assert_eq!(a.users[0].sessions, 2);
        assert_eq!(a.users[1].bytes, 500);
    }

    #[test]
    fn burstiness_reflects_uneven_windows() {
        let a = users(&two_users());
        let heavy = &a.users[0];
        // Windows: 100 000 in one, 10 000 in another → mean 55 000.
        assert_eq!(heavy.peak_10s_bytes, 100_000);
        assert!((heavy.burstiness() - 100_000.0 / 55_000.0).abs() < 1e-9);
        // A single-window user is perfectly smooth.
        assert!((a.users[1].burstiness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concentration_sums_correctly() {
        let a = users(&two_users());
        assert!((a.concentration(1) - 110_000.0 / 110_500.0).abs() < 1e-9);
        assert!((a.concentration(10) - 1.0).abs() < 1e-9);
        assert_eq!(UserAnalysis::default().concentration(3), 0.0);
    }
}
