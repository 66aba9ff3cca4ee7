//! System activity: users, active users, and per-user throughput
//! (Table IV of the paper).

use fstrace::{FastSet, Step, Trace, TraceEvent, TraceRecord, UserId};
use simstat::{OnlineStats, WindowedSums};

use crate::stream::{drive, Analyzer};

/// Activity measured over one window length.
#[derive(Debug, Clone)]
pub struct ActivityWindow {
    /// Window length in seconds (the paper uses 600 and 10).
    pub window_secs: u64,
    /// Greatest number of users active in any single window.
    pub max_active: u64,
    /// Active users per window (mean, population σ); empty windows count
    /// zero.
    pub active_per_window: OnlineStats,
    /// Throughput per active user in bytes/second (mean, population σ)
    /// over all (window, user) pairs with activity.
    pub throughput_per_active: OnlineStats,
}

impl ActivityWindow {
    /// Mean active users.
    pub fn avg_active(&self) -> f64 {
        self.active_per_window.mean()
    }

    /// Mean throughput per active user (bytes/second).
    pub fn avg_throughput(&self) -> f64 {
        self.throughput_per_active.mean()
    }
}

/// Table IV: overall and per-window activity for one trace.
#[derive(Debug, Clone)]
pub struct ActivityAnalysis {
    /// Mean throughput over the life of the trace (bytes/second).
    pub avg_throughput: f64,
    /// Number of distinct users seen.
    pub total_users: u64,
    /// Total bytes transferred.
    pub total_bytes: u64,
    /// Trace duration in seconds.
    pub duration_secs: f64,
    /// Per-window-length breakdowns, in the order requested.
    pub windows: Vec<ActivityWindow>,
}

impl ActivityAnalysis {
    /// Analyzes a trace over the given window lengths (in seconds).
    ///
    /// A user is *active* in a window if any trace event attributable to
    /// them falls inside it; bytes are billed at the time of the `close`
    /// or `seek` ending each sequential run, per the paper's rule.
    ///
    /// A thin wrapper over the streaming [`ActivityBuilder`].
    pub fn analyze(trace: &Trace, window_secs: &[u64]) -> Self {
        drive(ActivityBuilder::new(window_secs), trace.records())
    }
}

/// Streaming form of [`ActivityAnalysis::analyze`]: feed records in
/// time order, finish into the analysis.
///
/// Activity points — opens, run billings, closes, and user-attributed
/// events — are folded into per-window sums as each record arrives, so
/// memory is O(touched windows), never O(records). Runs are billed at
/// the `seek`/`close` record that ends them, as the session builder
/// reports in each record's [`Step`]; the builder keeps no open-id
/// state of its own.
pub struct ActivityBuilder {
    window_secs: Vec<u64>,
    windows: Vec<WindowedSums>,
    users: FastSet<u32>,
    /// The previous point's user: a run of points by one user inserts
    /// into `users` once.
    last_user: Option<u32>,
    total_bytes: u64,
    first_ms: Option<u64>,
    last_ms: u64,
}

impl ActivityBuilder {
    /// Creates a builder measuring the given window lengths (seconds).
    pub fn new(window_secs: &[u64]) -> Self {
        ActivityBuilder {
            window_secs: window_secs.to_vec(),
            windows: window_secs
                .iter()
                .map(|&secs| WindowedSums::new(secs * 1000))
                .collect(),
            users: FastSet::default(),
            last_user: None,
            total_bytes: 0,
            first_ms: None,
            last_ms: 0,
        }
    }

    /// One activity point: user `u` did something (moving `bytes`) at
    /// time `t`.
    fn point(&mut self, t: u64, u: UserId, bytes: u64) {
        self.total_bytes += bytes;
        if self.last_user != Some(u.0) {
            self.users.insert(u.0);
            self.last_user = Some(u.0);
        }
        for w in &mut self.windows {
            w.add(t, u.0 as u64, bytes);
        }
    }
}

impl Analyzer for ActivityBuilder {
    type Output = ActivityAnalysis;

    fn observe(&mut self, rec: &TraceRecord, step: Step) {
        let now = rec.time.as_ms();
        self.first_ms = Some(self.first_ms.map_or(now, |f| f.min(now)));
        self.last_ms = self.last_ms.max(now);
        match rec.event {
            TraceEvent::Open { user_id, .. }
            | TraceEvent::Unlink { user_id, .. }
            | TraceEvent::Truncate { user_id, .. }
            | TraceEvent::Execve { user_id, .. } => self.point(now, user_id, 0),
            TraceEvent::Seek { .. } | TraceEvent::Close { .. } => {
                // Only a session's own seeks and closes count: orphans
                // have no user.
                if let Some(u) = step.user {
                    if step.billed > 0 {
                        self.point(now, u, step.billed);
                    }
                    if matches!(rec.event, TraceEvent::Close { .. }) {
                        self.point(now, u, 0);
                    }
                }
            }
        }
    }

    fn finish(self) -> ActivityAnalysis {
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
                // Rescale byte sums to bytes/second by re-deriving from
                // the per-(window,user) population.
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

/// Copies `src` into `dst` with every observation divided by `divisor`
/// (mean and σ scale linearly; counts and shape are preserved).
fn scale_into(src: &OnlineStats, divisor: f64, dst: &mut OnlineStats) {
    // Rebuild from moments: mean/σ divide by the constant.
    // OnlineStats has no direct scaled constructor, so synthesize two
    // pseudo-observations with the right mean and σ when count >= 2,
    // or a single one when count == 1.
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
    // k pairs at mean ± s' (plus one center point when n is odd)
    // reproduce the mean exactly and the population σ when
    // s' = sd * sqrt(n / 2k).
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

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::{AccessMode, TraceBuilder};

    /// Two users: one reads 1000 bytes at t=5 s, the other 3000 at t=15 s.
    fn two_user_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let u1 = b.new_user_id();
        let u2 = b.new_user_id();
        let f1 = b.new_file_id();
        let f2 = b.new_file_id();
        let o1 = b.open(4_000, f1, u1, AccessMode::ReadOnly, 1000, false);
        b.close(5_000, o1, 1000);
        let o2 = b.open(14_000, f2, u2, AccessMode::ReadOnly, 3000, false);
        b.close(15_000, o2, 3000);
        b.finish()
    }

    #[test]
    fn totals() {
        let a = ActivityAnalysis::analyze(&two_user_trace(), &[10]);
        assert_eq!(a.total_users, 2);
        assert_eq!(a.total_bytes, 4000);
        assert!((a.duration_secs - 11.0).abs() < 1e-9);
        assert!((a.avg_throughput - 4000.0 / 11.0).abs() < 1e-6);
    }

    #[test]
    fn ten_second_windows() {
        let a = ActivityAnalysis::analyze(&two_user_trace(), &[10]);
        let w = &a.windows[0];
        assert_eq!(w.window_secs, 10);
        assert_eq!(w.max_active, 1);
        // Windows 0 and 1 each have one active user.
        assert!((w.avg_active() - 1.0).abs() < 1e-9);
        // User 1: 1000 B / 10 s = 100 B/s; user 2: 300 B/s; mean 200.
        assert!((w.avg_throughput() - 200.0).abs() < 1e-6);
        assert!((w.throughput_per_active.population_stddev() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn unlink_marks_user_active() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        b.unlink(500, f, u);
        b.unlink(25_000, f, u);
        let a = ActivityAnalysis::analyze(&b.finish(), &[10]);
        assert_eq!(a.total_users, 1);
        let w = &a.windows[0];
        assert_eq!(w.max_active, 1);
        // Windows: 0 (active), 1 (empty), 2 (active) → mean 2/3.
        assert!((w.avg_active() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let a = ActivityAnalysis::analyze(&Trace::default(), &[600, 10]);
        assert_eq!(a.total_users, 0);
        assert_eq!(a.avg_throughput, 0.0);
        assert_eq!(a.windows.len(), 2);
        assert_eq!(a.windows[0].max_active, 0);
    }

    #[test]
    fn scale_preserves_moments() {
        let mut src = OnlineStats::new();
        for x in [10.0, 20.0, 30.0, 40.0, 50.0] {
            src.add(x);
        }
        let mut dst = OnlineStats::new();
        scale_into(&src, 10.0, &mut dst);
        assert_eq!(dst.count(), 5);
        assert!((dst.mean() - 3.0).abs() < 1e-9);
        assert!(
            (dst.population_stddev() - src.population_stddev() / 10.0).abs() < 1e-9,
            "σ {} vs {}",
            dst.population_stddev(),
            src.population_stddev() / 10.0
        );
    }
}
