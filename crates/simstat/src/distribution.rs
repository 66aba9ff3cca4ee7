//! Exact empirical distributions with per-sample weights.

/// One point of a cumulative distribution curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// The observed value.
    pub value: u64,
    /// Fraction of total weight at values `<= value`, in `[0, 1]`.
    pub cumulative: f64,
}

/// An exact empirical distribution over `u64` values with `u64` weights.
///
/// Samples are buffered and sorted lazily on first query. This is the
/// workhorse behind the paper's cumulative-distribution figures: each
/// figure is a `Distribution` weighted either by count (Figures 1a, 2a,
/// 3, 4a) or by bytes transferred / written (Figures 1b, 2b, 4b).
///
/// # Examples
///
/// ```
/// use simstat::Distribution;
///
/// let mut d = Distribution::new();
/// d.add(10, 1);
/// d.add(20, 3);
/// assert_eq!(d.fraction_le(10), 0.25);
/// assert_eq!(d.percentile(0.5), Some(20));
/// assert_eq!(d.total_weight(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    /// (value, weight) pairs; sorted by value iff `sorted`.
    samples: Vec<(u64, u64)>,
    total_weight: u64,
    sorted: bool,
}

/// Equality compares the *multiset* of weighted observations: the order
/// of `add` calls and the coalescing state are irrelevant, so two runs
/// that record the same residencies through differently ordered code
/// paths (hash-map iteration, per-capacity derivation) compare equal.
impl PartialEq for Distribution {
    fn eq(&self, other: &Self) -> bool {
        if self.total_weight != other.total_weight {
            return false;
        }
        if self.sorted && other.sorted {
            return self.samples == other.samples;
        }
        self.canonical_samples() == other.canonical_samples()
    }
}

impl Eq for Distribution {}

impl Distribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation of `value` carrying `weight`.
    ///
    /// Zero-weight observations are ignored.
    pub fn add(&mut self, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.samples.push((value, weight));
        self.total_weight += weight;
        self.sorted = false;
    }

    /// Number of distinct `add` calls retained.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Returns `true` if no weighted observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total_weight == 0
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples = coalesced(std::mem::take(&mut self.samples));
            self.sorted = true;
        }
    }

    /// The sorted, coalesced form of the samples without mutating the
    /// buffer (the basis of order-insensitive equality).
    fn canonical_samples(&self) -> Vec<(u64, u64)> {
        coalesced(self.samples.clone())
    }

    /// Sorts and coalesces the buffered samples now rather than at the
    /// first query.
    ///
    /// Useful before caching or cloning: a prepared distribution (and
    /// any clone of it) answers queries without re-sorting, and holds
    /// one entry per distinct value instead of one per `add` call.
    pub fn prepare(&mut self) {
        self.ensure_sorted();
    }

    /// The same values with each weight multiplied by its value, as a
    /// prepared distribution: equal to re-adding every observation
    /// `(v, w)` as `(v, v * w)`, but sharing this distribution's sort.
    /// Turns lengths weighted by count into lengths weighted by bytes
    /// (Figure 1b from Figure 1a). Prepares `self` first.
    pub fn weighted_by_value(&mut self) -> Distribution {
        self.ensure_sorted();
        let samples: Vec<(u64, u64)> = self
            .samples
            .iter()
            .filter(|&&(v, _)| v > 0)
            .map(|&(v, w)| (v, v * w))
            .collect();
        Distribution {
            total_weight: samples.iter().map(|&(_, w)| w).sum(),
            samples,
            sorted: true,
        }
    }

    /// Fraction of total weight at values `<= limit`, in `[0, 1]`.
    ///
    /// Returns `0.0` when empty.
    pub fn fraction_le(&mut self, limit: u64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        self.ensure_sorted();
        // Binary search for the first value > limit.
        let idx = self.samples.partition_point(|&(v, _)| v <= limit);
        let acc: u64 = self.samples[..idx].iter().map(|&(_, w)| w).sum();
        acc as f64 / self.total_weight as f64
    }

    /// Fraction of total weight at values strictly `< limit`.
    pub fn fraction_lt(&mut self, limit: u64) -> f64 {
        if limit == 0 {
            return 0.0;
        }
        self.fraction_le(limit - 1)
    }

    /// Smallest value `v` such that at least `p` of the weight is `<= v`.
    ///
    /// `p` is clamped to `[0, 1]`. Returns `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.total_weight == 0 {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 1.0);
        let target = (p * self.total_weight as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for &(v, w) in &self.samples {
            acc += w;
            if acc >= target {
                return Some(v);
            }
        }
        self.samples.last().map(|&(v, _)| v)
    }

    /// Weighted arithmetic mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let sum: f64 = self.samples.iter().map(|&(v, w)| v as f64 * w as f64).sum();
        sum / self.total_weight as f64
    }

    /// The full cumulative curve, one point per distinct value.
    ///
    /// Suitable for plotting: `cumulative` is nondecreasing and ends at 1.
    pub fn cdf(&mut self) -> Vec<CdfPoint> {
        self.ensure_sorted();
        let total = self.total_weight as f64;
        let mut acc = 0u64;
        self.samples
            .iter()
            .map(|&(v, w)| {
                acc += w;
                CdfPoint {
                    value: v,
                    cumulative: acc as f64 / total,
                }
            })
            .collect()
    }

    /// Samples the cumulative curve at the given values.
    ///
    /// This is how the paper's figures are tabulated: a fixed grid on the
    /// x-axis (e.g. seconds, kilobytes) and the cumulative fraction at
    /// each grid point.
    pub fn cdf_at(&mut self, grid: &[u64]) -> Vec<CdfPoint> {
        grid.iter()
            .map(|&g| CdfPoint {
                value: g,
                cumulative: self.fraction_le(g),
            })
            .collect()
    }
}

/// Sorts `(value, weight)` samples by value and merges equal values,
/// summing their weights. Weights need no sort key: coalescing sums
/// them. Keeps query scans short even for multi-million-event traces
/// with few distinct values.
fn coalesced(mut samples: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    samples.sort_unstable_by_key(|&(v, _)| v);
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(samples.len());
    for (v, w) in samples {
        match out.last_mut() {
            Some((lv, lw)) if *lv == v => *lw += w,
            _ => out.push((v, w)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_distribution() {
        let mut d = Distribution::new();
        assert!(d.is_empty());
        assert_eq!(d.fraction_le(100), 0.0);
        assert_eq!(d.percentile(0.5), None);
        assert_eq!(d.mean(), 0.0);
        assert!(d.cdf().is_empty());
    }

    #[test]
    fn equality_ignores_add_order_and_coalescing() {
        let mut a = Distribution::new();
        a.add(20, 3);
        a.add(10, 1);
        a.add(10, 1);
        let mut b = Distribution::new();
        b.add(10, 2);
        b.add(20, 3);
        assert_eq!(a, b);
        // Querying one side (which sorts and coalesces it) must not
        // break equality with the unsorted side.
        assert_eq!(a.percentile(0.5), Some(20));
        assert_eq!(a, b);
        b.add(10, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_weight_ignored() {
        let mut d = Distribution::new();
        d.add(5, 0);
        assert!(d.is_empty());
        assert_eq!(d.sample_count(), 0);
    }

    #[test]
    fn fraction_le_basic() {
        let mut d = Distribution::new();
        d.add(1, 1);
        d.add(2, 1);
        d.add(3, 1);
        d.add(4, 1);
        assert_eq!(d.fraction_le(0), 0.0);
        assert_eq!(d.fraction_le(2), 0.5);
        assert_eq!(d.fraction_le(4), 1.0);
        assert_eq!(d.fraction_le(u64::MAX), 1.0);
        assert_eq!(d.fraction_lt(1), 0.0);
        assert_eq!(d.fraction_lt(3), 0.5);
    }

    #[test]
    fn weights_shift_percentiles() {
        let mut d = Distribution::new();
        d.add(10, 9);
        d.add(1000, 1);
        assert_eq!(d.percentile(0.5), Some(10));
        assert_eq!(d.percentile(0.9), Some(10));
        assert_eq!(d.percentile(0.95), Some(1000));
        assert_eq!(d.percentile(1.0), Some(1000));
    }

    #[test]
    fn percentile_clamps() {
        let mut d = Distribution::new();
        d.add(7, 1);
        assert_eq!(d.percentile(-3.0), Some(7));
        assert_eq!(d.percentile(42.0), Some(7));
    }

    #[test]
    fn duplicate_values_coalesce() {
        let mut d = Distribution::new();
        for _ in 0..1000 {
            d.add(5, 1);
        }
        d.add(6, 1);
        assert_eq!(d.fraction_le(5), 1000.0 / 1001.0);
        d.ensure_sorted();
        assert_eq!(d.samples.len(), 2);
    }

    #[test]
    fn mean_weighted() {
        let mut d = Distribution::new();
        d.add(10, 1);
        d.add(20, 3);
        assert!((d.mean() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut d = Distribution::new();
        for (v, w) in [(3, 2), (1, 5), (9, 1), (3, 1)] {
            d.add(v, w);
        }
        let cdf = d.cdf();
        assert_eq!(cdf.len(), 3); // Values 1, 3, 9.
        for pair in cdf.windows(2) {
            assert!(pair[0].value < pair[1].value);
            assert!(pair[0].cumulative <= pair[1].cumulative);
        }
        assert!((cdf.last().unwrap().cumulative - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_at_grid() {
        let mut d = Distribution::new();
        d.add(5, 1);
        d.add(15, 1);
        let pts = d.cdf_at(&[0, 10, 20]);
        assert_eq!(pts[0].cumulative, 0.0);
        assert_eq!(pts[1].cumulative, 0.5);
        assert_eq!(pts[2].cumulative, 1.0);
    }

    #[test]
    fn weighted_by_value_matches_readding() {
        let mut by_count = Distribution::new();
        let mut by_value = Distribution::new();
        for v in [300u64, 5, 300, 0, 7, 5, 300] {
            by_count.add(v, 1);
            by_value.add(v, v);
        }
        let derived = by_count.weighted_by_value();
        by_value.prepare();
        assert_eq!(format!("{derived:?}"), format!("{by_value:?}"));
        assert_eq!(derived.total_weight(), 917);
    }

    #[test]
    fn interleaved_add_and_query() {
        let mut d = Distribution::new();
        d.add(1, 1);
        assert_eq!(d.fraction_le(1), 1.0);
        d.add(2, 1);
        assert_eq!(d.fraction_le(1), 0.5);
        d.add(0, 2);
        assert_eq!(d.fraction_le(0), 0.5);
    }
}
