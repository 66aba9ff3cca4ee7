//! Fixed-memory bucketed counters with weighted insertion.

/// One bucket of a histogram: a half-open value range and its total weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Inclusive lower bound of the bucket's value range.
    pub lo: u64,
    /// Exclusive upper bound of the bucket's value range.
    pub hi: u64,
    /// Total weight accumulated in the bucket.
    pub weight: u64,
}

/// A histogram with power-of-two buckets: `{0}`, `[1,2)`, `[2,4)`, `[4,8)`, …
///
/// Log-spaced buckets match the wide dynamic range of file sizes and
/// durations in file system traces (bytes to megabytes, milliseconds to
/// hours) with a few dozen buckets.
///
/// # Examples
///
/// ```
/// use simstat::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.add(0);
/// h.add(1);
/// h.add(3);
/// h.add(1000);
/// assert_eq!(h.total_weight(), 4);
/// let buckets = h.buckets();
/// assert_eq!(buckets[0].lo, 0); // the {0} bucket
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// `counts[0]` holds value 0; `counts[k]` holds `[2^(k-1), 2^k)`.
    counts: Vec<u64>,
}

impl LogHistogram {
    /// Creates an empty log histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one observation of `value` with weight 1.
    pub fn add(&mut self, value: u64) {
        self.add_weighted(value, 1);
    }

    /// Records an observation of `value` carrying `weight`.
    pub fn add_weighted(&mut self, value: u64, weight: u64) {
        let idx = Self::bucket_index(value);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += weight;
    }

    /// Total weight recorded.
    pub fn total_weight(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The non-empty prefix of buckets, in increasing value order.
    pub fn buckets(&self) -> Vec<Bucket> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &weight)| {
                let (lo, hi) = if i == 0 {
                    (0, 1)
                } else {
                    (1u64 << (i - 1), 1u64 << i)
                };
                Bucket { lo, hi, weight }
            })
            .collect()
    }

    /// Fraction of total weight at values `<= limit`, counting whole
    /// buckets whose range lies at or below `limit`.
    ///
    /// Returns `0.0` when the histogram is empty.
    pub fn fraction_le(&self, limit: u64) -> f64 {
        let total = self.total_weight();
        if total == 0 {
            return 0.0;
        }
        let mut acc = 0u64;
        for b in self.buckets() {
            if b.hi - 1 <= limit {
                acc += b.weight;
            }
        }
        acc as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn log_add_and_ranges() {
        let mut h = LogHistogram::new();
        h.add(0);
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(7);
        let b = h.buckets();
        assert_eq!(
            b[0],
            Bucket {
                lo: 0,
                hi: 1,
                weight: 1
            }
        );
        assert_eq!(
            b[1],
            Bucket {
                lo: 1,
                hi: 2,
                weight: 1
            }
        );
        assert_eq!(
            b[2],
            Bucket {
                lo: 2,
                hi: 4,
                weight: 2
            }
        );
        assert_eq!(
            b[3],
            Bucket {
                lo: 4,
                hi: 8,
                weight: 1
            }
        );
    }

    #[test]
    fn log_fraction_le() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4, 8] {
            h.add(v);
        }
        // Buckets: [1,2) [2,4) [4,8) [8,16); each weight 1.
        assert!((h.fraction_le(1) - 0.25).abs() < 1e-12);
        assert!((h.fraction_le(3) - 0.5).abs() < 1e-12);
        assert!((h.fraction_le(7) - 0.75).abs() < 1e-12);
        assert!((h.fraction_le(15) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_empty_fraction_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.fraction_le(100), 0.0);
        assert_eq!(h.total_weight(), 0);
    }
}
