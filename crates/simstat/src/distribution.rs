//! Exact empirical distributions with per-sample weights.

use std::fmt;

use crate::hash::FastMap;

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
/// Each `add` sums its weight into a value → weight map, so memory is
/// one entry per *distinct* value however often values repeat — and the
/// paper's quantities repeat heavily (10 ms ticks, a bounded file
/// population). The value-sorted cumulative view that queries read is
/// built once, at the first query after an add. This is the workhorse
/// behind the paper's cumulative-distribution figures: each figure is a
/// `Distribution` weighted either by count (Figures 1a, 2a, 3, 4a) or
/// by bytes transferred / written (Figures 1b, 2b, 4b).
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
#[derive(Clone, Default)]
pub struct Distribution {
    /// Summed weight per distinct value.
    weights: FastMap<u64, u64>,
    /// `(value, cumulative weight)` per distinct value, sorted by value;
    /// current iff `sorted`.
    cumulative: Vec<(u64, u64)>,
    total_weight: u64,
    sorted: bool,
}

/// Equality compares the *multiset* of weighted observations — the
/// value → weight maps: the order of `add` calls and whether either
/// side was queried are irrelevant, so two runs that record the same
/// residencies through differently ordered code paths (hash-map
/// iteration, per-capacity derivation) compare equal.
impl PartialEq for Distribution {
    fn eq(&self, other: &Self) -> bool {
        self.total_weight == other.total_weight && self.weights == other.weights
    }
}

impl Eq for Distribution {}

/// Prints the `(value, weight)` pairs in value order, so equal
/// distributions print alike.
impl fmt::Debug for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Distribution")
            .field("samples", &self.pairs())
            .field("total_weight", &self.total_weight)
            .finish()
    }
}

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
        *self.weights.entry(value).or_insert(0) += weight;
        self.total_weight += weight;
        self.sorted = false;
    }

    /// Number of distinct values retained.
    pub fn sample_count(&self) -> usize {
        self.weights.len()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Returns `true` if no weighted observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total_weight == 0
    }

    /// The `(value, weight)` pairs in value order.
    fn pairs(&self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = self.weights.iter().map(|(&v, &w)| (v, w)).collect();
        pairs.sort_unstable_by_key(|&(v, _)| v);
        pairs
    }

    /// Rebuilds the sorted cumulative view if an add came after it.
    fn ensure_sorted(&mut self) {
        if self.sorted {
            return;
        }
        self.cumulative = self.pairs();
        let mut acc = 0u64;
        for (_, w) in &mut self.cumulative {
            acc += *w;
            *w = acc;
        }
        self.sorted = true;
    }

    /// Builds the sorted view now rather than at the first query.
    ///
    /// Useful before caching or cloning: a prepared distribution (and
    /// any clone of it) answers queries without sorting.
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
        let mut out = Distribution {
            weights: FastMap::with_capacity_and_hasher(self.weights.len(), Default::default()),
            cumulative: Vec::with_capacity(self.cumulative.len()),
            total_weight: 0,
            sorted: true,
        };
        let mut below = 0u64;
        for &(v, cum) in &self.cumulative {
            let w = cum - below;
            below = cum;
            if v > 0 {
                out.weights.insert(v, v * w);
                out.total_weight += v * w;
                out.cumulative.push((v, out.total_weight));
            }
        }
        out
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
        let idx = self.cumulative.partition_point(|&(v, _)| v <= limit);
        let acc = idx.checked_sub(1).map_or(0, |i| self.cumulative[i].1);
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
        // The first value whose cumulative weight reaches the target;
        // the largest value when rounding put the target past the total.
        let idx = self.cumulative.partition_point(|&(_, c)| c < target);
        let last = self.cumulative.len() - 1;
        Some(self.cumulative[idx.min(last)].0)
    }

    /// Weighted arithmetic mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let sum: f64 = self.pairs().iter().map(|&(v, w)| v as f64 * w as f64).sum();
        sum / self.total_weight as f64
    }

    /// The full cumulative curve, one point per distinct value.
    ///
    /// Suitable for plotting: `cumulative` is nondecreasing and ends at 1.
    pub fn cdf(&mut self) -> Vec<CdfPoint> {
        self.ensure_sorted();
        let total = self.total_weight as f64;
        self.cumulative
            .iter()
            .map(|&(v, c)| CdfPoint {
                value: v,
                cumulative: c as f64 / total,
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
        assert_eq!(d.sample_count(), 2);
        assert_eq!(d.cumulative, [(5, 1000), (6, 1001)]);
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
