//! In-memory spans and counts recorded around calls into each layer.
//!
//! Spans are kept in memory for the whole run and written out once at
//! the end, so recording one costs a clock read and a short lock. A
//! span has a name, start, end, the span that caused it, and the op id
//! every span of one op shares. Counts (buffer peaks, chunk totals,
//! reply sizes) are recorded against the same op ids.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `tracestore.open`.
    pub name: &'static str,
    /// The op this call belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work units the call processed (records or bytes, by name).
    pub items: u64,
}

impl Span {
    /// Wall time covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One value observed during an op.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// Layer-qualified metric name.
    pub name: &'static str,
    /// The op it was observed in.
    pub op: u64,
    /// The value.
    pub value: f64,
}

#[derive(Default)]
struct Records {
    spans: Vec<Span>,
    counts: Vec<Count>,
}

/// The span and count store for one run.
pub struct Tracer {
    epoch: Instant,
    records: Mutex<Records>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            records: Mutex::new(Records::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Records> {
        self.records
            .lock()
            .expect("tracer lock: a recording thread panicked")
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Every count recorded so far.
    pub fn counts(&self) -> Vec<Count> {
        self.lock().counts.clone()
    }

    /// Renders spans and counts as JSON lines, one object each.
    pub fn to_jsonl(&self) -> String {
        let records = self.lock();
        let mut out = String::new();
        for (id, s) in records.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.items
            );
        }
        for c in &records.counts {
            let _ = writeln!(
                out,
                "{{\"count\":\"{}\",\"op\":{},\"value\":{}}}",
                c.name, c.op, c.value
            );
        }
        out
    }
}

/// Where a call is recorded: a tracer (or none, for untraced runs), an
/// op id, and the enclosing span. Copy it into threads freely.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    op: u64,
    span: Option<usize>,
}

impl<'a> Ctx<'a> {
    /// A context that records nothing.
    pub fn off() -> Ctx<'static> {
        Ctx {
            tracer: None,
            op: 0,
            span: None,
        }
    }

    /// The top of op `op`'s span tree.
    pub fn op(tracer: &'a Tracer, op: u64) -> Ctx<'a> {
        Ctx {
            tracer: Some(tracer),
            op,
            span: None,
        }
    }

    /// Whether anything is recorded.
    pub fn on(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a child span; close it with [`Ctx::end`] on the returned
    /// context, which is also the parent for nested calls.
    pub fn begin(&self, name: &'static str) -> Ctx<'a> {
        let Some(tracer) = self.tracer else {
            return *self;
        };
        let start_ns = tracer.now_ns();
        let mut records = tracer.lock();
        records.spans.push(Span {
            name,
            op: self.op,
            parent: self.span,
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        Ctx {
            span: Some(records.spans.len() - 1),
            ..*self
        }
    }

    /// Closes the span [`Ctx::begin`] opened, with its work units.
    pub fn end(&self, items: u64) {
        if let (Some(tracer), Some(id)) = (self.tracer, self.span) {
            let end_ns = tracer.now_ns();
            let mut records = tracer.lock();
            let span = &mut records.spans[id];
            span.end_ns = end_ns;
            span.items = items;
        }
    }

    /// Times `f` as one span; `f` returns its result and work units.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> (T, u64)) -> T {
        let child = self.begin(name);
        let (out, items) = f(child);
        child.end(items);
        out
    }

    /// Records a value against this op.
    pub fn count(&self, name: &'static str, value: f64) {
        if let Some(tracer) = self.tracer {
            tracer.lock().counts.push(Count {
                name,
                op: self.op,
                value,
            });
        }
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children may nest or overlap one another (calls on
/// other threads); each instant is subtracted once, and only within
/// the parent's own interval.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op: 0,
            parent: None,
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_ns(&span(10, 110), &[]), 100);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let (a, b) = (span(20, 30), span(50, 80));
        assert_eq!(self_ns(&span(0, 100), &[&a, &b]), 100 - 10 - 30);
    }

    #[test]
    fn self_time_counts_nested_children_once() {
        // `inner` lies inside `outer`: only `outer`'s interval is covered.
        let (outer, inner) = (span(10, 60), span(20, 30));
        assert_eq!(self_ns(&span(0, 100), &[&outer, &inner]), 50);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // Two threads' calls overlap on [40, 50): covered is [30, 70).
        let (a, b) = (span(30, 50), span(40, 70));
        assert_eq!(self_ns(&span(0, 100), &[&b, &a]), 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let (early, late) = (span(0, 20), span(90, 150));
        assert_eq!(self_ns(&span(10, 100), &[&early, &late]), 90 - 10 - 10);
    }

    #[test]
    fn spans_nest_through_contexts() {
        let tracer = Tracer::default();
        let op = Ctx::op(&tracer, 7);
        let outer = op.begin("outer");
        let n = outer.time("inner", |_| (3, 42));
        outer.end(1);
        op.count("peak", 9.0);
        assert_eq!(n, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[1].op, spans[1].items), (7, 42));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.counts()[0].value, 9.0);
        assert_eq!(tracer.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn an_off_context_records_nothing() {
        let ctx = Ctx::off();
        let child = ctx.begin("x");
        child.end(1);
        ctx.count("y", 1.0);
        assert!(!child.on());
    }
}
