//! Miss-ratio time series: how the cache warms up over a trace.
//!
//! The paper reports steady-state ratios over multi-day traces; on
//! shorter traces the warm-up transient matters. This module replays a
//! trace while sampling the *interval* miss ratio per fixed window, so
//! experiments can check they are quoting warmed-up numbers.

use crate::config::CacheConfig;
use crate::replay::{replay_events, Replayer};
use fstrace::Trace;

/// One sample of the interval miss ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Window start time (ms).
    pub start_ms: u64,
    /// Logical block accesses in the window.
    pub accesses: u64,
    /// Disk I/Os in the window.
    pub disk_ios: u64,
}

impl SeriesPoint {
    /// Miss ratio within this window alone.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.disk_ios as f64 / self.accesses as f64
        }
    }
}

/// The warm-up series for one configuration.
#[derive(Debug, Clone, Default)]
pub struct MissSeries {
    /// Window length (ms).
    pub window_ms: u64,
    /// Per-window samples, in time order.
    pub points: Vec<SeriesPoint>,
}

impl MissSeries {
    /// Replays `trace` under `config`, sampling every `window_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `window_ms` is zero.
    pub fn measure(trace: &Trace, config: &CacheConfig, window_ms: u64) -> Self {
        assert!(window_ms > 0, "window must be positive");
        let events = replay_events(trace, config);
        let mut replayer = Replayer::new(config);
        let mut points: Vec<SeriesPoint> = Vec::new();
        let mut window_start = 0u64;
        let mut last = (0u64, 0u64); // (accesses, ios) at window start.
        for ev in &events {
            while ev.time() >= window_start + window_ms {
                let m = &replayer.cache().metrics;
                let now_acc = m.logical_reads + m.logical_writes;
                let now_ios = m.disk_reads + m.disk_writes;
                points.push(SeriesPoint {
                    start_ms: window_start,
                    accesses: now_acc - last.0,
                    disk_ios: now_ios - last.1,
                });
                last = (now_acc, now_ios);
                window_start += window_ms;
            }
            replayer.step(ev);
        }
        let m = &replayer.cache().metrics;
        let now_acc = m.logical_reads + m.logical_writes;
        let now_ios = m.disk_reads + m.disk_writes;
        points.push(SeriesPoint {
            start_ms: window_start,
            accesses: now_acc - last.0,
            disk_ios: now_ios - last.1,
        });
        MissSeries { window_ms, points }
    }

    /// Miss ratio over the last `n` windows — the warmed-up estimate.
    pub fn steady_state(&self, n: usize) -> f64 {
        let tail = &self.points[self.points.len().saturating_sub(n)..];
        let acc: u64 = tail.iter().map(|p| p.accesses).sum();
        let ios: u64 = tail.iter().map(|p| p.disk_ios).sum();
        if acc == 0 {
            0.0
        } else {
            ios as f64 / acc as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WritePolicy;
    use crate::replay::Simulator;
    use fstrace::{AccessMode, TraceBuilder};

    /// The same 16 blocks reread every second for a minute: the first
    /// window pays the cold misses, later windows approach zero.
    #[test]
    fn warmup_transient_visible() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        for i in 0..60u64 {
            let o = b.open(i * 1_000, f, u, AccessMode::ReadOnly, 64 * 1024, false);
            b.close(i * 1_000 + 100, o, 64 * 1024);
        }
        let cfg = CacheConfig {
            cache_bytes: 1 << 20,
            block_size: 4096,
            write_policy: WritePolicy::DelayedWrite,
            ..CacheConfig::default()
        };
        let series = MissSeries::measure(&b.finish(), &cfg, 10_000);
        assert!(series.points.len() >= 6);
        let first = series.points[0].miss_ratio();
        let last = series.steady_state(3);
        assert!(first > 0.0, "first window must show cold misses");
        assert_eq!(last, 0.0, "steady state must be fully warm");
        // Totals across windows equal a plain simulation.
        let m = Simulator::run(
            &{
                let mut b = TraceBuilder::new();
                let u = b.new_user_id();
                let f = b.new_file_id();
                for i in 0..60u64 {
                    let o = b.open(i * 1_000, f, u, AccessMode::ReadOnly, 64 * 1024, false);
                    b.close(i * 1_000 + 100, o, 64 * 1024);
                }
                b.finish()
            },
            &cfg,
        );
        let acc: u64 = series.points.iter().map(|p| p.accesses).sum();
        let ios: u64 = series.points.iter().map(|p| p.disk_ios).sum();
        assert_eq!(acc, m.logical_accesses());
        assert_eq!(ios, m.disk_ios());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = MissSeries::measure(&fstrace::Trace::default(), &CacheConfig::default(), 0);
    }
}
