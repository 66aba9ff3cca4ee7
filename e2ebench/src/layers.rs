//! Per-layer metrics of a traced run, computed from its spans and
//! counts. Each entry names the end-to-end metric it should move and on
//! which workload (NOTES.md has the table).

use std::collections::{BTreeMap, BTreeSet};

use crate::stats::median;
use crate::trace::{self_ns, Count, Span};

/// How a per-layer metric is derived from one group of ops.
#[derive(Clone, Copy)]
enum Rule {
    /// Σ span time ÷ Σ span items, in ns per item.
    PerItem(&'static str),
    /// Median over ops of each op's summed span time, in ms.
    OpSumMs(&'static str),
    /// Median over ops of each op's summed span items.
    OpSumItems(&'static str),
    /// Median span duration, in ms.
    SpanMs(&'static str),
    /// Median span self time (children subtracted), in ms.
    SelfMs(&'static str),
    /// Σ span self time ÷ Σ span items, in ns per item.
    SelfPerItem(&'static str),
    /// Largest count.
    Max(&'static str),
    /// Median count.
    Median(&'static str),
    /// Sum of counts.
    Sum(&'static str),
}

/// Every per-layer metric: name, unit, rule.
const METRICS: [(&str, &str, Rule); 32] = [
    (
        "workload.generate_ns_per_record",
        "ns/record",
        Rule::PerItem("workload.generate"),
    ),
    ("workload.errors", "count", Rule::Sum("workload.errors")),
    (
        "fstrace.merge_ns_per_record",
        "ns/record",
        Rule::PerItem("fstrace.merge"),
    ),
    (
        "fstrace.merge_buffered_peak",
        "records",
        Rule::Max("fstrace.merge_buffered_peak"),
    ),
    (
        "tracestore.write_ns_per_record",
        "ns/record",
        Rule::PerItem("tracestore.write"),
    ),
    ("tracestore.seal_ms", "ms", Rule::SpanMs("tracestore.seal")),
    (
        "tracestore.seals",
        "count",
        Rule::Median("tracestore.seals"),
    ),
    (
        "tracestore.compress_ratio",
        "ratio",
        Rule::Median("tracestore.compress_ratio"),
    ),
    ("tracestore.open_ms", "ms", Rule::OpSumMs("tracestore.open")),
    (
        "tracestore.open_bytes",
        "B",
        Rule::OpSumItems("tracestore.open"),
    ),
    (
        "tracestore.verify_ns_per_byte",
        "ns/B",
        Rule::PerItem("tracestore.verify"),
    ),
    (
        "tracestore.decompress_ns_per_byte",
        "ns/B",
        Rule::PerItem("tracestore.decompress"),
    ),
    (
        "tracestore.decode_ns_per_record",
        "ns/record",
        Rule::PerItem("tracestore.decode"),
    ),
    (
        "tracestore.pipeline_wait_ns_per_record",
        "ns/record",
        Rule::PerItem("tracestore.pipeline_wait"),
    ),
    (
        "tracestore.chunks_skipped",
        "count",
        Rule::Sum("tracestore.chunks_skipped"),
    ),
    (
        "cachesim.sweep_self_ms",
        "ms",
        Rule::SelfMs("cachesim.sweep"),
    ),
    (
        "cachesim.sweep_ns_per_record_cell",
        "ns/record/cell",
        Rule::SelfPerItem("cachesim.sweep"),
    ),
    (
        "cachesim.expansions",
        "count",
        Rule::Median("cachesim.expansions"),
    ),
    (
        "cachesim.profiled_cell_ratio",
        "ratio",
        Rule::Median("cachesim.profiled_cell_ratio"),
    ),
    (
        "fsanalysis.observe_ns_per_record",
        "ns/record",
        Rule::PerItem("fsanalysis.observe"),
    ),
    (
        "fsanalysis.finish_ms",
        "ms",
        Rule::OpSumMs("fsanalysis.finish"),
    ),
    (
        "fsanalysis.live_sessions_peak",
        "count",
        Rule::Max("fsanalysis.live_sessions_peak"),
    ),
    (
        "tracestored.connect_ms",
        "ms",
        Rule::SpanMs("tracestored.connect"),
    ),
    (
        "tracestored.send_ns_per_record",
        "ns/record",
        Rule::PerItem("tracestored.send"),
    ),
    ("tracestored.fin_ms", "ms", Rule::SpanMs("tracestored.fin")),
    (
        "tracestored.shutdown_ms",
        "ms",
        Rule::SpanMs("tracestored.shutdown"),
    ),
    (
        "tracestored.frame_decode_ns_per_record",
        "ns/record",
        Rule::PerItem("tracestored.frame_decode"),
    ),
    (
        "tracestored.backpressure_waits",
        "count",
        Rule::Max("tracestored.backpressure_waits"),
    ),
    (
        "tracestored.query_overhead_ms",
        "ms",
        Rule::Median("tracestored.query_overhead_ms"),
    ),
    (
        "tracestored.render_ms",
        "ms",
        Rule::SpanMs("tracestored.render"),
    ),
    (
        "tracestored.reply_bytes",
        "B",
        Rule::Median("tracestored.reply_bytes"),
    ),
    (
        "tracestored.err_replies",
        "count",
        Rule::Sum("tracestored.err_replies"),
    ),
];

fn eval(rule: Rule, spans: &[Span], counts: &[Count], ops: &BTreeSet<u64>) -> Option<f64> {
    let named = |name: &str| -> Vec<(usize, &Span)> {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && ops.contains(&s.op))
            .collect()
    };
    let values = |name: &str| -> Vec<f64> {
        counts
            .iter()
            .filter(|c| c.name == name && ops.contains(&c.op))
            .map(|c| c.value)
            .collect()
    };
    let per_op = |name: &str, f: &dyn Fn(&Span) -> f64| -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for (_, s) in named(name) {
            *sums.entry(s.op).or_default() += f(s);
        }
        sums.into_values().collect()
    };
    let self_of = |id: usize, s: &Span| -> u64 {
        let children: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(id)).collect();
        self_ns(s, &children)
    };
    let ratio = |time: f64, items: f64| (items > 0.0).then(|| time / items);
    match rule {
        Rule::PerItem(name) => {
            let s = named(name);
            ratio(
                s.iter().map(|(_, s)| s.duration_ns() as f64).sum(),
                s.iter().map(|(_, s)| s.items as f64).sum(),
            )
        }
        Rule::SelfPerItem(name) => {
            let s = named(name);
            ratio(
                s.iter().map(|&(id, s)| self_of(id, s) as f64).sum(),
                s.iter().map(|(_, s)| s.items as f64).sum(),
            )
        }
        Rule::OpSumMs(name) => median(&per_op(name, &|s| s.duration_ns() as f64 / 1e6)),
        Rule::OpSumItems(name) => median(&per_op(name, &|s| s.items as f64)),
        Rule::SpanMs(name) => median(
            &named(name)
                .iter()
                .map(|(_, s)| s.duration_ns() as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
        Rule::SelfMs(name) => median(
            &named(name)
                .iter()
                .map(|&(id, s)| self_of(id, s) as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
        Rule::Max(name) => values(name).into_iter().reduce(f64::max),
        Rule::Median(name) => median(&values(name)),
        Rule::Sum(name) => {
            let v = values(name);
            (!v.is_empty()).then(|| v.iter().sum())
        }
    }
}

/// One per-layer metric of a traced run.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its value and the op group it came from; `None` where no group
    /// has data for it.
    pub found: Option<(f64, String)>,
}

/// Every per-layer metric, taken from the first op group that has data
/// for it: the workload's own traced ops first, then the probe groups
/// in order.
pub fn compute(spans: &[Span], counts: &[Count], groups: &[(String, BTreeSet<u64>)]) -> Vec<Layer> {
    METRICS
        .iter()
        .map(|&(name, unit, rule)| Layer {
            name,
            unit,
            found: groups.iter().find_map(|(group, ops)| {
                eval(rule, spans, counts, ops).map(|v| (v, group.clone()))
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
        items: u64,
    ) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
            items,
        }
    }

    #[test]
    fn sweep_self_time_subtracts_source_waits() {
        let spans = vec![
            span("cachesim.sweep", 1, None, 0, 1000, 10),
            span("tracestore.pipeline_wait", 1, Some(0), 100, 300, 5),
            span("tracestore.pipeline_wait", 1, Some(0), 250, 400, 5),
        ];
        let ops: BTreeSet<u64> = [1].into();
        let got = eval(Rule::SelfPerItem("cachesim.sweep"), &spans, &[], &ops).unwrap();
        assert_eq!(got, 70.0); // (1000 - 300) ns over 10 items.
        let wait = eval(Rule::PerItem("tracestore.pipeline_wait"), &spans, &[], &ops).unwrap();
        assert_eq!(wait, 35.0); // 350 ns over 10 records.
    }

    #[test]
    fn groups_are_tried_in_order() {
        let spans = vec![
            span("tracestore.open", 1, None, 0, 2_000_000, 7),
            span("tracestore.open", 2, None, 0, 4_000_000, 9),
            span("tracestore.open", 2, None, 0, 4_000_000, 9),
        ];
        let counts = vec![Count {
            name: "workload.errors",
            op: 3,
            value: 0.0,
        }];
        let groups = vec![("own".into(), [2].into()), ("probe".into(), [1, 3].into())];
        let got = compute(&spans, &counts, &groups);
        let find = |n: &str| got.iter().find(|l| l.name == n).unwrap().found.clone();
        assert_eq!(find("tracestore.open_ms"), Some((8.0, "own".into())));
        assert_eq!(find("tracestore.open_bytes"), Some((18.0, "own".into())));
        assert_eq!(find("workload.errors"), Some((0.0, "probe".into())));
        assert_eq!(find("tracestored.render_ms"), None);
    }
}
