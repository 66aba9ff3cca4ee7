//! `WindowedSums` against the tree-based accumulator it replaced.
//!
//! `LegacyWindowedSums` below is a verbatim copy of `WindowedSums` as it
//! stood before the ordered accumulator: every add goes into a
//! `BTreeMap<(window, key), sum>`, and `stats()` walks the tree plus a
//! hash map of per-window counts. It is the executable spec: the
//! proptest requires every statistic to match bit for bit, for adds in
//! any order, with repeated keys and points for already-closed windows.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use simstat::{OnlineStats, WindowStats, WindowedSums};

/// The pre-change accumulator, copied verbatim.
struct LegacyWindowedSums {
    window_len: u64,
    sums: BTreeMap<(u64, u64), u64>,
    first_window: Option<u64>,
    last_window: u64,
}

impl LegacyWindowedSums {
    fn new(window_len: u64) -> Self {
        assert!(window_len > 0, "window length must be positive");
        Self {
            window_len,
            sums: BTreeMap::new(),
            first_window: None,
            last_window: 0,
        }
    }

    fn add(&mut self, time: u64, key: u64, amount: u64) {
        let w = time / self.window_len;
        *self.sums.entry((w, key)).or_insert(0) += amount;
        self.first_window = Some(self.first_window.map_or(w, |f| f.min(w)));
        self.last_window = self.last_window.max(w);
    }

    fn total(&self) -> u64 {
        self.sums.values().sum()
    }

    fn distinct_keys(&self) -> u64 {
        let mut keys: Vec<u64> = self.sums.keys().map(|&(_, k)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    }

    fn stats(&self) -> WindowStats {
        let Some(first) = self.first_window else {
            return WindowStats {
                window_count: 0,
                max_active: 0,
                active_per_window: OnlineStats::new(),
                sum_per_active: OnlineStats::new(),
            };
        };
        let window_count = self.last_window - first + 1;
        let mut active: HashMap<u64, u64> = HashMap::new();
        let mut sum_per_active = OnlineStats::new();
        for (&(w, _), &amount) in &self.sums {
            *active.entry(w).or_insert(0) += 1;
            sum_per_active.add(amount as f64);
        }
        let mut active_per_window = OnlineStats::new();
        let mut max_active = 0u64;
        for w in first..=self.last_window {
            let a = active.get(&w).copied().unwrap_or(0);
            active_per_window.add(a as f64);
            max_active = max_active.max(a);
        }
        WindowStats {
            window_count,
            max_active,
            active_per_window,
            sum_per_active,
        }
    }
}

/// Feeds `adds` to both accumulators and requires identical answers;
/// `{:?}` prints every `f64` in shortest round-trip form, so equal text
/// means equal bits.
fn assert_same(window: u64, adds: &[(u64, u64, u64)]) {
    let mut new = WindowedSums::new(window);
    let mut old = LegacyWindowedSums::new(window);
    for &(t, k, a) in adds {
        new.add(t, k, a);
        old.add(t, k, a);
    }
    assert_eq!(format!("{:?}", new.stats()), format!("{:?}", old.stats()));
    assert_eq!(new.total(), old.total());
    assert_eq!(new.distinct_keys(), old.distinct_keys());
}

#[test]
fn late_points_merge_into_closed_windows() {
    let adds = [
        (500, 3, 10),
        (2_500, 1, 7),
        (2_600, 3, 1),
        (900, 3, 5),    // Late: merges into window 0's entry for key 3.
        (1_200, 2, 4),  // Late: a window with no entry yet.
        (100, 0, 2),    // Late: before every other entry of window 0.
        (2_700, 0, 0),  // Back in order: the open window.
        (9_000, 5, 11), // Leaves empty windows between.
    ];
    assert_same(1_000, &adds);
    let mut w = WindowedSums::new(1_000);
    for &(t, k, a) in &adds {
        w.add(t, k, a);
    }
    let s = w.stats();
    assert_eq!(s.window_count, 10);
    assert_eq!(s.max_active, 3);
    assert_eq!(s.sum_per_active.count(), 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random-order adds: small key and time ranges make repeated keys,
    /// empty windows, and points for closed windows common.
    #[test]
    fn matches_legacy_in_any_order(
        window in 1u64..2_000,
        adds in prop::collection::vec((0u64..50_000, 0u64..6, 0u64..100_000), 0..200),
    ) {
        assert_same(window, &adds);
    }

    /// The same adds in time order: the path every trace takes.
    #[test]
    fn matches_legacy_in_time_order(
        window in 1u64..2_000,
        adds in prop::collection::vec((0u64..50_000, 0u64..6, 0u64..100_000), 0..200),
    ) {
        let mut sorted = adds.clone();
        sorted.sort_by_key(|&(t, _, _)| t);
        assert_same(window, &sorted);
    }
}
