//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use simstat::{Distribution, LogHistogram, OnlineStats, WindowedSums};

proptest! {
    /// Welford accumulation matches the naive two-pass formulas.
    #[test]
    fn online_stats_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    /// Merging any split of a sample equals accumulating it sequentially.
    #[test]
    fn online_stats_merge_any_split(
        xs in prop::collection::vec(-1e5f64..1e5, 1..100),
        split in 0usize..100,
    ) {
        let split = split % (xs.len() + 1);
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < split { a.add(x) } else { b.add(x) }
            whole.add(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (a.population_variance() - whole.population_variance()).abs()
                < 1e-4 * (1.0 + whole.population_variance())
        );
    }

    /// A distribution's CDF is monotone, bounded by 1, and conserves weight.
    #[test]
    fn distribution_cdf_invariants(
        samples in prop::collection::vec((0u64..10_000, 1u64..100), 1..300),
    ) {
        let mut d = Distribution::new();
        let mut total = 0u64;
        for &(v, w) in &samples {
            d.add(v, w);
            total += w;
        }
        prop_assert_eq!(d.total_weight(), total);
        let cdf = d.cdf();
        let mut prev = 0.0;
        for p in &cdf {
            prop_assert!(p.cumulative >= prev - 1e-12);
            prop_assert!(p.cumulative <= 1.0 + 1e-12);
            prev = p.cumulative;
        }
        prop_assert!((cdf.last().unwrap().cumulative - 1.0).abs() < 1e-9);
    }

    /// `fraction_le` agrees with a brute-force scan of the raw samples.
    #[test]
    fn distribution_fraction_le_matches_bruteforce(
        samples in prop::collection::vec((0u64..1000, 1u64..10), 1..200),
        limit in 0u64..1200,
    ) {
        let mut d = Distribution::new();
        for &(v, w) in &samples {
            d.add(v, w);
        }
        let total: u64 = samples.iter().map(|&(_, w)| w).sum();
        let le: u64 = samples.iter().filter(|&&(v, _)| v <= limit).map(|&(_, w)| w).sum();
        let expect = le as f64 / total as f64;
        prop_assert!((d.fraction_le(limit) - expect).abs() < 1e-9);
    }

    /// The p-th percentile has at least fraction p of weight at or below it,
    /// and is an observed value.
    #[test]
    fn distribution_percentile_definition(
        samples in prop::collection::vec((0u64..1000, 1u64..10), 1..200),
        p in 0.0f64..1.0,
    ) {
        let mut d = Distribution::new();
        for &(v, w) in &samples {
            d.add(v, w);
        }
        let q = d.percentile(p).unwrap();
        prop_assert!(samples.iter().any(|&(v, _)| v == q));
        prop_assert!(d.fraction_le(q) >= p - 1e-9);
        if q > 0 {
            // No smaller observed value already satisfies the target
            // (except the degenerate p = 0 case, where any q works).
            let below = d.fraction_le(q - 1);
            prop_assert!(below < p + 1e-9 || below == 0.0);
        }
    }

    /// Histograms never lose weight.
    #[test]
    fn histograms_conserve_weight(
        samples in prop::collection::vec((0u64..100_000, 1u64..50), 0..200),
    ) {
        let mut log = LogHistogram::new();
        let mut total = 0u64;
        for &(v, w) in &samples {
            log.add_weighted(v, w);
            total += w;
        }
        prop_assert_eq!(log.total_weight(), total);
        let bucket_sum: u64 = log.buckets().iter().map(|b| b.weight).sum();
        prop_assert_eq!(bucket_sum, total);
    }

    /// Every value lands in a log bucket whose range contains it.
    #[test]
    fn log_histogram_bucket_contains_value(v in 0u64..u64::MAX / 2) {
        let mut h = LogHistogram::new();
        h.add(v);
        let b = h.buckets().into_iter().find(|b| b.weight == 1).unwrap();
        prop_assert!(b.lo <= v);
        prop_assert!(v < b.hi || (b.hi < b.lo)); // hi wraps only at u64 top, excluded here
    }

    /// Windowed totals equal the raw sum and active counts are bounded by
    /// the number of distinct keys.
    #[test]
    fn windowed_sums_invariants(
        window in 1u64..1000,
        events in prop::collection::vec((0u64..100_000, 0u64..8, 0u64..5000), 1..300),
    ) {
        let mut w = WindowedSums::new(window);
        let mut total = 0u64;
        for &(t, k, a) in &events {
            w.add(t, k, a);
            total += a;
        }
        prop_assert_eq!(w.total(), total);
        let s = w.stats();
        prop_assert!(s.max_active <= w.distinct_keys());
        prop_assert!(s.active_per_window.mean() <= s.max_active as f64 + 1e-9);
        prop_assert!(s.window_count >= 1);
        // Total weight is conserved through the per-active samples.
        prop_assert!((s.sum_per_active.sum() - total as f64).abs() < 1e-6 * (1.0 + total as f64));
    }
}
