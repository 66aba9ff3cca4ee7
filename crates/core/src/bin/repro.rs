//! `repro`: regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT] [--hours H] [--seed S] [--jobs N] [--metrics PATH]
//!       [--archive DIR] [--fidelity open|syscall|block]
//!
//! EXPERIMENT: all (default), or one of the experiments `--help` lists
//!
//! --fidelity selects the replay fidelity for the Section 6 cache
//! simulations (default: block, the paper's simulator; see DESIGN.md
//! §15). Section 5 analyses are fidelity-invariant, the compare
//! experiment is pinned to block, and the `fidelity` experiment always
//! runs all three levels side by side.
//!
//! --jobs N caps the worker threads the cache-simulation sweeps use
//! (default: all available cores). Results are identical for any N.
//!
//! --metrics PATH writes an `obs/v1` JSON snapshot of every internal
//! metric (cache counters, codec throughput, workload generation,
//! sweep timing) to PATH at exit. Experiment output on stdout stays
//! bit-identical with or without the flag; wall-clock values live only
//! in the JSON and in per-phase timing lines on stderr.
//!
//! --archive DIR caches the generated per-machine traces as
//! `tracestore` archives under DIR: the first run with a given
//! --hours/--seed writes them, later runs replay them (checksummed,
//! chunk-parallel decode) instead of regenerating. Experiment output is
//! identical with or without the cache. The `compare` experiment needs
//! live file-system state that a replay cannot reconstruct, so runs
//! that include it bypass the cache with a note.
//! ```

use std::path::PathBuf;
use std::time::Instant;

use bsdtrace::{experiments as ex, ReproConfig, TraceSet};
use workload::MachineProfile;

/// The traces an experiment reads.
#[derive(Clone, Copy, PartialEq)]
enum Reads {
    /// A5 alone, the trace Section 6 reports.
    A5,
    /// All three machines.
    All,
    /// A5 with the file system that generated it, which the archive
    /// cache does not keep.
    LiveA5,
}

/// One experiment: its name, the traces it reads, and its report with
/// the blank line that follows it (the figures that end in a chart
/// print none).
type Experiment = (&'static str, Reads, fn(&TraceSet) -> String);

/// Every experiment, in the order `all` runs them.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 17] = [
    ("table1",    Reads::All,    |s| format!("{}\n", ex::table1::run(s))),
    ("table3",    Reads::All,    |s| format!("{}\n", ex::table3::run(s))),
    ("table4",    Reads::All,    |s| format!("{}\n", ex::table4::run(s))),
    ("table5",    Reads::All,    |s| format!("{}\n", ex::table5::run(s))),
    ("fig1",      Reads::All,    |s| ex::fig1::run(s).to_string()),
    ("fig2",      Reads::All,    |s| ex::fig2::run(s).to_string()),
    ("fig3",      Reads::All,    |s| format!("{}\n", ex::fig3::run(s))),
    ("fig4",      Reads::All,    |s| ex::fig4::run(s).to_string()),
    ("gaps",      Reads::All,    |s| format!("{}\n", ex::gaps::run(s))),
    ("table6",    Reads::A5,     |s| format!("{}\n", ex::table6::run(s))),
    ("table7",    Reads::A5,     |s| format!("{}\n", ex::table7::run(s))),
    ("fig7",      Reads::A5,     |s| format!("{}\n", ex::fig7::run(s))),
    ("residency", Reads::A5,     |s| format!("{}\n", ex::residency::run(s))),
    ("compare",   Reads::LiveA5, |s| format!("{}\n", ex::comparisons::run(s))),
    ("fidelity",  Reads::A5,     |s| format!("{}\n", ex::fidelity::run(s))),
    ("ablations", Reads::A5,     |s| format!("{}\n", ex::ablations::run(s))),
    ("server",    Reads::All,    |s| format!("{}\n", ex::server::run(s))),
];

fn main() {
    let mut which = "all".to_string();
    let mut config = ReproConfig::default();
    let mut metrics_path: Option<String> = None;
    let mut archive_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                config.hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--hours needs a number"));
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--jobs" => {
                config.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
            }
            "--metrics" => {
                metrics_path = Some(args.next().unwrap_or_else(|| die("--metrics needs a path")));
            }
            "--archive" => {
                archive_dir = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--archive needs a directory")),
                ));
            }
            "--fidelity" => {
                config.fidelity = args
                    .next()
                    .and_then(|v| cachesim::Fidelity::parse(&v))
                    .unwrap_or_else(|| die("--fidelity needs one of: open, syscall, block"));
            }
            "--help" | "-h" => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
                let rows: Vec<String> = names.chunks(9).map(|row| row.join(" ")).collect();
                println!(
                    "usage: repro [EXPERIMENT] [--hours H] [--seed S] [--jobs N] [--metrics PATH]\n\
                     \x20      [--archive DIR] [--fidelity open|syscall|block]\n\
                     experiments: all {}",
                    rows.join("\n             ")
                );
                return;
            }
            other if !other.starts_with('-') => which = other.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
    }

    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| which == "all" || e.0 == which)
        .collect();
    if selected.is_empty() {
        die(&format!("unknown experiment {which}"));
    }
    let reads = |r: Reads| selected.iter().any(|e| e.1 == r);
    let profiles = if reads(Reads::All) {
        MachineProfile::all()
    } else {
        vec![MachineProfile::ucbarpa()]
    };
    eprintln!(
        "generating {} trace(s), {} simulated hour(s), seed {} ...",
        profiles.len(),
        config.hours,
        config.seed
    );
    if reads(Reads::LiveA5) && archive_dir.is_some() {
        eprintln!("note: archive cache bypassed ('{which}' includes compare, which needs live file-system state)");
    }
    let cache = archive_dir.as_deref().filter(|_| !reads(Reads::LiveA5));
    let gen_started = Instant::now();
    let set = {
        let _timing = obs::global().span("repro.generate_traces").start();
        TraceSet::load(&config, profiles, cache)
    }
    .unwrap_or_else(|e| die(&format!("trace generation failed: {e}")));
    for e in &set.entries {
        eprintln!(
            "  {}: {} records, {:.1} Mbytes transferred",
            e.name,
            e.trace.len(),
            e.trace.summary().total_mbytes_transferred()
        );
        // Export each generated file system's cache counters (buffer
        // cache, name cache, inode table) under its trace name; a
        // replayed trace has none.
        if let Some(fs) = &e.fs {
            fs.register_obs(obs::global(), &format!("bsdfs.{}", e.name));
        }
    }
    eprintln!("  [timing] generate_traces: {:.1} ms", ms(gen_started));
    eprintln!();

    for (name, _, render) in selected {
        let started = Instant::now();
        let _timing = obs::global().span(&format!("repro.{name}")).start();
        println!("{}", render(&set));
        eprintln!("  [timing] {name}: {:.1} ms", ms(started));
    }

    if let Some(path) = metrics_path {
        let mut meta = vec![
            ("experiment", which.clone()),
            ("hours", format!("{}", config.hours)),
            ("seed", format!("{}", config.seed)),
            ("jobs", format!("{}", config.jobs)),
        ];
        // ci.sh stamps artifacts with the commit they came from.
        if let Ok(sha) = std::env::var("BSDTRACE_GIT_SHA") {
            meta.push(("git_sha", sha));
        }
        let meta: Vec<(&str, String)> = meta;
        let json = obs::global().snapshot().to_json_with_meta(&meta);
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| die(&format!("cannot write metrics to {path}: {e}")));
        eprintln!("metrics written to {path}");
    }
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(1);
}
