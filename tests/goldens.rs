//! Golden-file tests for `repro`'s numeric output.
//!
//! The committed reference values in `tests/goldens/goldens.txt` pin
//! the Table III summaries, the Table VI / Figure 5 miss-ratio grid,
//! and the Figure 7 paging curves for a fixed configuration (0.1
//! simulated hours, seed 7). Each line is `key value tolerance`; a run
//! fails if any key disappears, appears, or drifts outside its
//! tolerance — the pipeline is deterministic, so drift means a real
//! behavior change.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -q -p bsdtrace --test goldens
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bsdtrace::{experiments, ReproConfig, TraceSet};
use workload::MachineProfile;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/goldens.txt"
);

/// Lowercases a label into a dotted-key-safe slug.
fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Computes every golden value as `(key, value, tolerance)`.
fn compute() -> Vec<(String, f64, f64)> {
    let config = ReproConfig {
        hours: 0.1,
        seed: 7,
        ..ReproConfig::default()
    };
    let set = TraceSet::load(&config, MachineProfile::all(), None).expect("traces");
    let mut out: Vec<(String, f64, f64)> = Vec::new();

    // Table III: per-trace activity summaries. Counts are exact; rates
    // and volumes get a small float-formatting allowance.
    let t3 = experiments::table3::run(&set);
    for (name, s) in t3.names.iter().zip(&t3.summaries) {
        out.push((format!("table3.{name}.records"), s.records as f64, 0.0));
        out.push((
            format!("table3.{name}.mbytes"),
            s.total_mbytes_transferred(),
            1e-6,
        ));
        out.push((
            format!("table3.{name}.opens_per_sec"),
            s.opens_per_second,
            1e-6,
        ));
    }

    // Table VI / Figure 5: the full miss-ratio grid.
    let t6 = experiments::table6::run(&set);
    for row in &t6.cells {
        for cell in row {
            out.push((
                format!(
                    "table6.{}kb.{}.miss_ratio",
                    cell.cache_kb,
                    slug(&cell.policy.name())
                ),
                cell.miss_ratio,
                1e-6,
            ));
        }
    }

    // Figure 7: miss ratio with and without paging traffic.
    let f7 = experiments::fig7::run(&set);
    for p in &f7.points {
        out.push((
            format!("fig7.{}mb.without_paging", p.cache_mb),
            p.without_paging,
            1e-6,
        ));
        out.push((
            format!("fig7.{}mb.with_paging", p.cache_mb),
            p.with_paging,
            1e-6,
        ));
    }
    out
}

fn render(values: &[(String, f64, f64)]) -> String {
    let mut s = String::from(
        "# Golden reference values (key value tolerance).\n\
         # Regenerate: UPDATE_GOLDENS=1 cargo test -q -p bsdtrace --test goldens\n",
    );
    for (key, value, tol) in values {
        let _ = writeln!(s, "{key} {value:.9} {tol:e}");
    }
    s
}

fn parse(text: &str) -> BTreeMap<String, (f64, f64)> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        let key = it.next().expect("golden key");
        let value: f64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad golden value in line {line:?}"));
        let tol: f64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad golden tolerance in line {line:?}"));
        out.insert(key.to_string(), (value, tol));
    }
    out
}

#[test]
fn output_matches_goldens() {
    let computed = compute();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, render(&computed)).expect("write goldens");
        eprintln!(
            "goldens: rewrote {GOLDEN_PATH} with {} values",
            computed.len()
        );
        return;
    }

    let expected = parse(
        &std::fs::read_to_string(GOLDEN_PATH)
            .unwrap_or_else(|e| panic!("missing golden file {GOLDEN_PATH}: {e}")),
    );
    let mut diffs: Vec<String> = Vec::new();
    for (key, value, _) in &computed {
        match expected.get(key) {
            None => diffs.push(format!("missing from goldens: {key} = {value:.9}")),
            Some(&(want, tol)) => {
                if (value - want).abs() > tol {
                    diffs.push(format!(
                        "{key}: got {value:.9}, want {want:.9} (tolerance {tol:e})"
                    ));
                }
            }
        }
    }
    let computed_keys: BTreeMap<&str, ()> =
        computed.iter().map(|(k, _, _)| (k.as_str(), ())).collect();
    for key in expected.keys() {
        if !computed_keys.contains_key(key.as_str()) {
            diffs.push(format!("stale golden key no longer produced: {key}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "golden mismatches ({}):\n  {}\n(if intentional, rerun with UPDATE_GOLDENS=1)",
        diffs.len(),
        diffs.join("\n  ")
    );
}
