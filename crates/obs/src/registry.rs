//! Name → metric registry and frozen snapshots.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use crate::json::JsonWriter;
use crate::metric::{Counter, Gauge, HistSnapshot, Histogram, Span, SpanSnapshot};

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Span(Span),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Span(_) => "span",
        }
    }
}

/// A named collection of metrics.
///
/// Names are dotted paths (`"bsdfs.a5.bufcache.read_hits"`); the first
/// component is the subsystem. Lookup methods get-or-register: asking
/// twice for the same name returns handles to the same cell, and
/// asking for an existing name as a *different* metric kind panics —
/// that is always a naming bug.
///
/// `Registry::new` is `const`, so a registry can live in a `static`
/// ([`crate::global`]) without lazy-init machinery.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().expect("registry lock");
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Returns the counter registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Returns the span registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn span(&self, name: &str) -> Span {
        match self.get_or_insert(name, || Metric::Span(Span::new())) {
            Metric::Span(s) => s,
            other => panic!("metric {name:?} is a {}, not a span", other.kind()),
        }
    }

    /// Registers an *existing* counter handle under `name`, replacing
    /// any previous registration.
    ///
    /// This is how per-instance subsystems (each [`bsdfs`-style] file
    /// system owns its own cache counters) attach to a shared registry:
    /// the instance keeps its handle, the registry exports the same
    /// cell.
    ///
    /// [`bsdfs`-style]: crate
    pub fn attach_counter(&self, name: &str, counter: &Counter) {
        let mut map = self.metrics.lock().expect("registry lock");
        map.insert(name.to_string(), Metric::Counter(counter.clone()));
    }

    /// Registers an existing gauge handle under `name`, replacing any
    /// previous registration.
    pub fn attach_gauge(&self, name: &str, gauge: &Gauge) {
        let mut map = self.metrics.lock().expect("registry lock");
        map.insert(name.to_string(), Metric::Gauge(gauge.clone()));
    }

    /// Freezes every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().expect("registry lock");
        let mut snap = Snapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
                Metric::Span(s) => {
                    snap.spans.insert(name.clone(), s.snapshot());
                }
            }
        }
        snap
    }
}

/// Frozen registry contents, ready for assertions or serialization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge high-water marks by name.
    pub gauges: BTreeMap<String, u64>,
    /// Span values by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Histogram values by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// The counter value under `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The gauge high-water mark under `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The span values under `name`, if registered.
    pub fn span(&self, name: &str) -> Option<SpanSnapshot> {
        self.spans.get(name).copied()
    }

    /// The histogram values under `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// The distinct subsystems present: the first dotted component of
    /// every metric name.
    pub fn subsystems(&self) -> BTreeSet<String> {
        self.counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.spans.keys())
            .chain(self.histograms.keys())
            .map(|name| name.split('.').next().unwrap_or(name.as_str()).to_string())
            .collect()
    }

    /// Serializes to the stable `obs/v1` JSON schema with no metadata.
    pub fn to_json(&self) -> String {
        self.to_json_with_meta(&[])
    }

    /// Serializes to the stable `obs/v1` JSON schema.
    ///
    /// ```json
    /// {
    ///   "schema": "obs/v1",
    ///   "meta": {"git_sha": "…"},
    ///   "counters": {"name": 3},
    ///   "gauges": {"name": 7},
    ///   "spans": {"name": {"count": 1, "total_ns": 42}},
    ///   "histograms": {
    ///     "name": {"count": 2, "sum": 10, "min": 4, "max": 6,
    ///              "buckets": [[4, 8, 2]]}
    ///   }
    /// }
    /// ```
    ///
    /// Histogram buckets are `[lo, hi, weight]` triples over the
    /// half-open value range `[lo, hi)`; empty buckets are omitted. Map
    /// iteration is sorted, so the layout is deterministic.
    pub fn to_json_with_meta(&self, meta: &[(&str, String)]) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("obs/v1");
        w.key("meta");
        w.begin_object();
        for (k, v) in meta {
            w.key(k);
            w.string(v);
        }
        w.end_object();
        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.key(name);
            w.number(*value);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, value) in &self.gauges {
            w.key(name);
            w.number(*value);
        }
        w.end_object();
        w.key("spans");
        w.begin_object();
        for (name, s) in &self.spans {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.number(s.count);
            w.key("total_ns");
            w.number(s.total_ns);
            w.end_object();
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.histograms {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.number(h.count);
            w.key("sum");
            w.number(h.sum);
            w.key("min");
            w.number(h.min);
            w.key("max");
            w.number(h.max);
            w.key("buckets");
            w.begin_array();
            for b in &h.buckets {
                w.begin_array();
                w.number(b.lo);
                w.number(b.hi);
                w.number(b.weight);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_cell() {
        let reg = Registry::new();
        reg.counter("a.x").add(2);
        reg.counter("a.x").add(3);
        assert_eq!(reg.snapshot().counter("a.x"), Some(5));
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("a.x");
        let _ = reg.histogram("a.x");
    }

    #[test]
    fn gauge_keeps_high_water_mark() {
        let reg = Registry::new();
        reg.gauge("pipe.peak").record(9);
        reg.gauge("pipe.peak").record(4);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("pipe.peak"), Some(9));
        assert!(snap.to_json().contains("\"gauges\""));
        assert!(snap.to_json().contains("\"pipe.peak\": 9"));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn gauge_kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("a.y");
        let _ = reg.gauge("a.y");
    }

    #[test]
    fn attach_gauge_exports_live_handle() {
        let reg = Registry::new();
        let g = Gauge::new();
        reg.attach_gauge("fs.live_peak", &g);
        g.record(11);
        assert_eq!(reg.snapshot().gauge("fs.live_peak"), Some(11));
    }

    #[test]
    fn attach_exports_live_instance_handles() {
        let reg = Registry::new();
        let c = Counter::new();
        reg.attach_counter("fs.hits", &c);
        c.add(7); // Mutation *after* attach is visible in snapshots.
        assert_eq!(reg.snapshot().counter("fs.hits"), Some(7));
    }

    #[test]
    fn subsystems_are_first_dotted_components() {
        let reg = Registry::new();
        reg.counter("bsdfs.cache.hits").inc();
        reg.counter("fstrace.codec.records").inc();
        let _ = reg.span("cachesim.sweep.cell");
        let _ = reg.histogram("workload.sizes");
        let subs: Vec<String> = reg.snapshot().subsystems().into_iter().collect();
        assert_eq!(subs, vec!["bsdfs", "cachesim", "fstrace", "workload"]);
    }

    #[test]
    fn json_schema_is_stable_and_sorted() {
        let reg = Registry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.histogram("h.sizes").record(5);
        reg.span("s.phase").record_ns(9);
        let json = reg
            .snapshot()
            .to_json_with_meta(&[("git_sha", "abc123".to_string())]);
        assert!(json.starts_with("{\n  \"schema\": \"obs/v1\""));
        assert!(json.contains("\"git_sha\": \"abc123\""));
        // Sorted counter order.
        let a = json.find("\"a.first\": 1").expect("a.first");
        let b = json.find("\"b.second\": 2").expect("b.second");
        assert!(a < b);
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"total_ns\": 9"));
        assert!(json.contains("[\n          4,\n          8,\n          1\n        ]"));
    }

    #[test]
    fn snapshot_accessors() {
        let reg = Registry::new();
        reg.span("x.t").record_ns(5);
        reg.histogram("x.h").record(3);
        let snap = reg.snapshot();
        assert_eq!(snap.span("x.t").expect("span").total_ns, 5);
        assert_eq!(snap.histogram("x.h").expect("hist").count, 1);
        assert_eq!(snap.counter("missing"), None);
    }
}
