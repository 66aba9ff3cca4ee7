//! Order statistics over op latencies.

/// Samples that must lie beyond the tail percentile (choosing-metrics
/// rule: the highest percentile with at least ten samples beyond it).
pub const TAIL_BEYOND: usize = 10;

/// Median; the mean of the two middle values for an even count.
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A tail latency and where it sits in the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile: the share of samples at or below its rank.
    pub percentile: f64,
    /// How many samples were taken.
    pub samples: usize,
}

/// The highest-ranked sample with at least [`TAIL_BEYOND`] samples
/// ranked above it: the `TAIL_BEYOND + 1`-th largest. `None` when there
/// are too few samples for any percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let xs: Vec<f64> = (0..TAIL_BEYOND).map(|i| i as f64).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11usize, 12, 37, 100, 200, 1000] {
            // Shuffled distinct values, so rank order is not input order.
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&xs).expect("enough samples");
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.samples, n);
            assert!((t.percentile - 100.0 * (n - TAIL_BEYOND) as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_is_p90_at_100_samples_and_p99_at_1000() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        // Twelve equal samples: the tail is the second smallest by rank,
        // with ten ranked above it even though none is larger.
        let t = tail(&[5.0; 12]).unwrap();
        assert_eq!(t.value, 5.0);
        assert!((t.percentile - 200.0 / 12.0).abs() < 1e-9);
    }
}
