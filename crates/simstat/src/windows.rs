//! Per-key activity accumulated over fixed time windows.

use crate::OnlineStats;

/// Summary statistics over the windows of a [`WindowedSums`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Number of windows spanned by the observations (including empty ones).
    pub window_count: u64,
    /// Greatest number of distinct active keys in any single window.
    pub max_active: u64,
    /// Active-key count per window (empty windows count as zero).
    pub active_per_window: OnlineStats,
    /// Per-(window, key) sums — e.g. bytes transferred by one user in one
    /// window. Only windows/keys with activity contribute samples.
    pub sum_per_active: OnlineStats,
}

/// Accumulates per-key amounts into fixed-length time windows.
///
/// This models the paper's Table IV analysis: a *user* (key) is *active*
/// in a window if any trace event for that user falls inside it, and the
/// per-active-user throughput is the bytes transferred by that user in
/// that window divided by the window length.
///
/// Times and window lengths are in arbitrary integer ticks (the trace
/// uses milliseconds).
///
/// Observations normally arrive in time order (traces are time-sorted),
/// so the accumulator keeps only the newest window open, as a short
/// vector sorted by key. When a later window starts, the open window's
/// entries are appended — already in order — to a flat list of closed
/// `(window, key, sum)` entries, and [`stats`](WindowedSums::stats)
/// walks that list once. An observation for an older window (input out
/// of time order) is merged into the closed list by binary search, so
/// results are the same for any add order.
///
/// # Examples
///
/// ```
/// use simstat::WindowedSums;
///
/// let mut w = WindowedSums::new(10_000); // 10-second windows
/// w.add(500, 1, 4096);   // user 1, 4 kbytes, first window
/// w.add(900, 1, 4096);
/// w.add(12_000, 2, 100); // user 2, second window
/// let stats = w.stats();
/// assert_eq!(stats.window_count, 2);
/// assert_eq!(stats.max_active, 1);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedSums {
    window_len: u64,
    /// `(window, key, sum)` for every window before `open_window`,
    /// sorted by `(window, key)`. [`stats`] feeds its running moments
    /// in this order, so repeated analyses of the same observations
    /// are bit-identical, which the streaming-vs-materialized pipeline
    /// equivalence tests rely on.
    ///
    /// [`stats`]: WindowedSums::stats
    closed: Vec<(u64, u64, u64)>,
    /// `(key, sum)` of the newest window, sorted by key.
    open: Vec<(u64, u64)>,
    open_window: u64,
    first_window: Option<u64>,
}

impl WindowedSums {
    /// Creates an accumulator with the given window length in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    pub fn new(window_len: u64) -> Self {
        assert!(window_len > 0, "window length must be positive");
        Self {
            window_len,
            closed: Vec::new(),
            open: Vec::new(),
            open_window: 0,
            first_window: None,
        }
    }

    /// Window length in ticks.
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Records `amount` for `key` at time `time`.
    ///
    /// An `amount` of zero still marks the key active in its window —
    /// the paper counts a user active on *any* trace event, including
    /// ones that transfer no data (e.g. `unlink`).
    pub fn add(&mut self, time: u64, key: u64, amount: u64) {
        let w = time / self.window_len;
        let Some(first) = self.first_window else {
            self.first_window = Some(w);
            self.open_window = w;
            self.open.push((key, amount));
            return;
        };
        if w == self.open_window {
            add_sorted(&mut self.open, key, amount);
        } else if w > self.open_window {
            let closing = self.open_window;
            self.closed
                .extend(self.open.drain(..).map(|(k, sum)| (closing, k, sum)));
            self.open_window = w;
            self.open.push((key, amount));
        } else {
            // A late point: input out of time order.
            self.first_window = Some(first.min(w));
            match self
                .closed
                .binary_search_by(|&(cw, ck, _)| (cw, ck).cmp(&(w, key)))
            {
                Ok(i) => self.closed[i].2 += amount,
                Err(i) => self.closed.insert(i, (w, key, amount)),
            }
        }
    }

    /// Every `(window, key, sum)` entry in `(window, key)` order.
    fn entries(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let open_window = self.open_window;
        self.closed.iter().copied().chain(
            self.open
                .iter()
                .map(move |&(key, sum)| (open_window, key, sum)),
        )
    }

    /// Total amount recorded across all windows and keys.
    pub fn total(&self) -> u64 {
        self.entries().map(|(_, _, sum)| sum).sum()
    }

    /// Number of distinct keys seen.
    pub fn distinct_keys(&self) -> u64 {
        let mut keys: Vec<u64> = self.entries().map(|(_, key, _)| key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    }

    /// Computes summary statistics over the spanned windows.
    ///
    /// Windows between the first and last observation that saw no
    /// activity contribute zero to `active_per_window` but produce no
    /// `sum_per_active` samples, matching the paper's averaging. The
    /// work is one step per entry plus one per spanned window.
    pub fn stats(&self) -> WindowStats {
        let mut active_per_window = OnlineStats::new();
        let mut sum_per_active = OnlineStats::new();
        let mut max_active = 0u64;
        let Some(first) = self.first_window else {
            return WindowStats {
                window_count: 0,
                max_active,
                active_per_window,
                sum_per_active,
            };
        };
        // Entries start at `first` (every add leaves an entry in its
        // window) and end at `open_window`, the last window.
        let mut window = first;
        let mut active = 0u64;
        for (w, _, sum) in self.entries() {
            sum_per_active.add(sum as f64);
            if w != window {
                active_per_window.add(active as f64);
                max_active = max_active.max(active);
                for _ in window + 1..w {
                    active_per_window.add(0.0);
                }
                window = w;
                active = 0;
            }
            active += 1;
        }
        active_per_window.add(active as f64);
        max_active = max_active.max(active);
        WindowStats {
            window_count: self.open_window - first + 1,
            max_active,
            active_per_window,
            sum_per_active,
        }
    }
}

/// Adds `amount` to `key`'s entry of a key-sorted vector, inserting the
/// entry if it is missing.
fn add_sorted(entries: &mut Vec<(u64, u64)>, key: u64, amount: u64) {
    match entries.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => entries[i].1 += amount,
        Err(i) => entries.insert(i, (key, amount)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let w = WindowedSums::new(100);
        let s = w.stats();
        assert_eq!(s.window_count, 0);
        assert_eq!(s.max_active, 0);
        assert_eq!(s.active_per_window.count(), 0);
    }

    #[test]
    fn single_window_single_key() {
        let mut w = WindowedSums::new(100);
        w.add(10, 7, 50);
        w.add(20, 7, 25);
        let s = w.stats();
        assert_eq!(s.window_count, 1);
        assert_eq!(s.max_active, 1);
        assert_eq!(s.active_per_window.mean(), 1.0);
        assert_eq!(s.sum_per_active.mean(), 75.0);
        assert_eq!(w.total(), 75);
        assert_eq!(w.distinct_keys(), 1);
    }

    #[test]
    fn empty_middle_window_counts_as_zero_active() {
        let mut w = WindowedSums::new(100);
        w.add(0, 1, 10);
        w.add(250, 1, 10); // Window 2; window 1 is empty.
        let s = w.stats();
        assert_eq!(s.window_count, 3);
        assert!((s.active_per_window.mean() - 2.0 / 3.0).abs() < 1e-12);
        // Only two (window,key) samples feed the per-active stats.
        assert_eq!(s.sum_per_active.count(), 2);
    }

    #[test]
    fn zero_amount_marks_active() {
        let mut w = WindowedSums::new(100);
        w.add(10, 3, 0);
        let s = w.stats();
        assert_eq!(s.max_active, 1);
        assert_eq!(s.sum_per_active.mean(), 0.0);
    }

    #[test]
    fn multiple_keys_in_one_window() {
        let mut w = WindowedSums::new(1000);
        w.add(1, 1, 5);
        w.add(2, 2, 10);
        w.add(3, 3, 15);
        let s = w.stats();
        assert_eq!(s.max_active, 3);
        assert_eq!(s.active_per_window.mean(), 3.0);
        assert_eq!(s.sum_per_active.mean(), 10.0);
        assert_eq!(w.distinct_keys(), 3);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_panics() {
        let _ = WindowedSums::new(0);
    }

    #[test]
    fn window_boundary_assignment() {
        let mut w = WindowedSums::new(100);
        w.add(99, 1, 1); // Window 0.
        w.add(100, 1, 1); // Window 1.
        let s = w.stats();
        assert_eq!(s.window_count, 2);
        assert_eq!(s.sum_per_active.count(), 2);
    }
}
