//! `Distribution` against its push-and-sort predecessor.
//!
//! `legacy::Distribution` below is a verbatim copy of the distribution
//! as it was when every `add` pushed a `(value, weight)` pair and the
//! first query sorted them all. The map-backed distribution that
//! replaced it must answer every query exactly as the copy does, after
//! every prefix of a random sequence of adds and queries, and agree
//! with it on `==`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simstat::Distribution;

#[allow(dead_code)]
mod legacy {
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
}

/// One step of a random session against both distributions.
#[derive(Debug, Clone)]
enum Op {
    Add(u64, u64),
    FractionLe(u64),
    FractionLt(u64),
    Percentile(f64),
    Cdf,
    CdfAt(Vec<u64>),
    Prepare,
    WeightedByValue,
}

/// Values from a small domain, so they repeat, plus both extremes.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..16, Just(0u64), Just(u64::MAX), 1_000u64..1_004]
}

/// Weights including zero (ignored) and large ones.
fn weight() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..4, (1u64 << 32)..(1u64 << 40)]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (value(), weight()).prop_map(|(v, w)| Op::Add(v, w)),
        (value(), weight()).prop_map(|(v, w)| Op::Add(v, w)),
        (value(), weight()).prop_map(|(v, w)| Op::Add(v, w)),
        value().prop_map(Op::FractionLe),
        value().prop_map(Op::FractionLt),
        (-0.5f64..1.5).prop_map(Op::Percentile),
        Just(Op::Cdf),
        prop::collection::vec(value(), 0..6).prop_map(Op::CdfAt),
        Just(Op::Prepare),
        Just(Op::WeightedByValue),
    ]
}

fn points(cdf: &[simstat::CdfPoint]) -> Vec<(u64, u64)> {
    cdf.iter()
        .map(|p| (p.value, p.cumulative.to_bits()))
        .collect()
}

fn legacy_points(cdf: &[legacy::CdfPoint]) -> Vec<(u64, u64)> {
    cdf.iter()
        .map(|p| (p.value, p.cumulative.to_bits()))
        .collect()
}

/// Every answer `new` gives equals `old`'s, without adding to either.
fn assert_same_answers(new: &mut Distribution, old: &mut legacy::Distribution, probes: &[u64]) {
    assert_eq!(new.total_weight(), old.total_weight());
    assert_eq!(new.is_empty(), old.is_empty());
    assert_eq!(points(&new.cdf()), legacy_points(&old.cdf()));
    for &v in probes {
        assert_eq!(new.fraction_le(v).to_bits(), old.fraction_le(v).to_bits());
    }
    for p in [0.0, 0.5, 1.0] {
        assert_eq!(new.percentile(p), old.percentile(p));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// After every step the two distributions answer alike, and `==`
    /// between two distributions agrees with the copy's.
    #[test]
    fn distribution_matches_push_and_sort_copy(
        ops in prop::collection::vec(op(), 1..60),
        tail in prop::collection::vec((value(), weight()), 0..3),
    ) {
        let mut new = Distribution::new();
        let mut old = legacy::Distribution::new();
        // Summed weight per value, wide enough to tell whether
        // `weighted_by_value` would overflow a u64.
        let mut model: BTreeMap<u64, u128> = BTreeMap::new();
        let mut adds = Vec::new();
        for op in &ops {
            match op {
                &Op::Add(v, w) => {
                    new.add(v, w);
                    old.add(v, w);
                    if w > 0 {
                        *model.entry(v).or_insert(0) += u128::from(w);
                    }
                    adds.push((v, w));
                }
                &Op::FractionLe(v) => {
                    prop_assert_eq!(new.fraction_le(v).to_bits(), old.fraction_le(v).to_bits());
                }
                &Op::FractionLt(v) => {
                    prop_assert_eq!(new.fraction_lt(v).to_bits(), old.fraction_lt(v).to_bits());
                }
                &Op::Percentile(p) => prop_assert_eq!(new.percentile(p), old.percentile(p)),
                Op::Cdf => prop_assert_eq!(points(&new.cdf()), legacy_points(&old.cdf())),
                Op::CdfAt(grid) => {
                    prop_assert_eq!(points(&new.cdf_at(grid)), legacy_points(&old.cdf_at(grid)));
                }
                Op::Prepare => {
                    new.prepare();
                    old.prepare();
                }
                Op::WeightedByValue => {
                    let total: u128 = model.iter().map(|(&v, &w)| u128::from(v) * w).sum();
                    if total <= u128::from(u64::MAX) {
                        let mut new_w = new.weighted_by_value();
                        let mut old_w = old.weighted_by_value();
                        assert_same_answers(&mut new_w, &mut old_w, &[0, 1, 15, 1_003, u64::MAX]);
                        // And it equals re-adding every observation.
                        let mut readded = Distribution::new();
                        for &(v, w) in &adds {
                            readded.add(v, v * w);
                        }
                        prop_assert_eq!(&new_w, &readded);
                        prop_assert_eq!(format!("{new_w:?}"), format!("{:?}", {
                            readded.prepare();
                            readded
                        }));
                    }
                }
            }
            prop_assert_eq!(new.total_weight(), old.total_weight());
            prop_assert_eq!(new.is_empty(), old.is_empty());
        }
        assert_same_answers(&mut new, &mut old, &[0, 7, 1_001, u64::MAX - 1, u64::MAX]);

        // The same adds in reverse order compare equal; a tail with any
        // positive weight makes them differ, on both sides alike.
        let mut new_b = Distribution::new();
        let mut old_b = legacy::Distribution::new();
        for &(v, w) in adds.iter().rev() {
            new_b.add(v, w);
            old_b.add(v, w);
        }
        prop_assert_eq!(new == new_b, old == old_b);
        prop_assert!(new == new_b);
        for &(v, w) in &tail {
            new_b.add(v, w);
            old_b.add(v, w);
        }
        prop_assert_eq!(new == new_b, old == old_b);
        prop_assert_eq!(new_b == new, old_b == old);

        // The same total weight on a moved value: equal only when the
        // move happens to leave the multiset as it was.
        let mut new_c = Distribution::new();
        let mut old_c = legacy::Distribution::new();
        for (i, &(v, w)) in adds.iter().enumerate() {
            let v = if i == 0 { v ^ 1 } else { v };
            new_c.add(v, w);
            old_c.add(v, w);
        }
        prop_assert_eq!(new == new_c, old == old_c);
    }
}
