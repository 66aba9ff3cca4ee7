//! `bench`: the repository's timing and identity scenarios, and the CI
//! gates on them.
//!
//! ```text
//! bench SCENARIO [--hours H] [--seed S] [--jobs N] [--machines N]
//! bench check GATE
//!
//! SCENARIO: stream | sweep | archive | fleet | fidelity | pipe | serve
//! GATE:     BENCH_streaming_smoke | BENCH_4 | BENCH_4_table7 |
//!           BENCH_archive_smoke | BENCH_5 | BENCH_6 | BENCH_7 |
//!           BENCH_8 | BENCH_9 | BENCH_10
//! ```
//!
//! Every scenario prints one JSON artifact on stdout and takes only the
//! flags it uses ([`SCENARIOS`]); everything else it measures with is a
//! constant. A scenario that checks two computations for bit-identity
//! exits 1 after printing if they diverged.
//!
//! `bench check GATE` runs one row of the gate table ([`gates::GATES`])
//! with that row's parameters: the artifact goes to stdout, a one-line
//! verdict to stderr, and a failed check exits 1 naming it. `ci.sh`
//! writes each row's stdout to `target/artifacts/GATE.json`.

mod gates;
mod scenarios;

use std::fmt::Display;
use std::time::Instant;

/// A scenario's run: measure, check identities, return the artifact.
type Run = fn(&Params) -> Report;

const HOURS_SEED: &[&str] = &["--hours", "--seed"];
const AND_JOBS: &[&str] = &["--hours", "--seed", "--jobs"];
const AND_MACHINES: &[&str] = &["--hours", "--seed", "--jobs", "--machines"];

/// Every scenario: its subcommand, the flags it takes (any other is an
/// error), and its run, whose docs say what it measures.
const SCENARIOS: [(&str, &[&str], Run); 7] = [
    ("stream", HOURS_SEED, scenarios::stream),
    ("sweep", AND_JOBS, scenarios::sweep),
    ("archive", AND_JOBS, scenarios::archive),
    ("fleet", AND_MACHINES, scenarios::fleet),
    ("fidelity", HOURS_SEED, scenarios::fidelity),
    ("pipe", AND_JOBS, scenarios::pipe),
    ("serve", AND_MACHINES, scenarios::serve),
];

/// The scenario named `name`.
fn scenario(name: &str) -> Option<&'static (&'static str, &'static [&'static str], Run)> {
    SCENARIOS.iter().find(|s| s.0 == name)
}

/// The four flags; `None` leaves the scenario's default.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Params {
    /// Trace length in simulated hours.
    pub hours: Option<f64>,
    /// Workload seed (default 1985).
    pub seed: Option<u64>,
    /// Worker threads.
    pub jobs: Option<usize>,
    /// Fleet size.
    pub machines: Option<usize>,
}

impl Params {
    /// The workload seed.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(1985)
    }

    /// Parses the flags of scenario `name`, which takes `flags`.
    fn parse(name: &str, flags: &[&str], mut args: impl Iterator<Item = String>) -> Params {
        let mut p = Params::default();
        while let Some(flag) = args.next() {
            if !flags.contains(&flag.as_str()) {
                die(&format!("{name} takes {}, not {flag}", flags.join(" ")));
            }
            let value = args.next().unwrap_or_default();
            let positive = || {
                value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")))
            };
            match flag.as_str() {
                "--hours" => {
                    p.hours = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|&h: &f64| h > 0.0)
                            .unwrap_or_else(|| die("--hours needs a positive number")),
                    )
                }
                "--seed" => {
                    p.seed = Some(
                        value
                            .parse()
                            .unwrap_or_else(|_| die("--seed needs an integer")),
                    )
                }
                "--jobs" => p.jobs = Some(positive()),
                _ => p.machines = Some(positive()),
            }
        }
        p
    }
}

/// How a measurement is timed: untimed warm-up passes, then the best
/// of `runs` timed passes.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Untimed passes first, so cold caches, lazy page faults and
    /// first-touch allocation never count against a timed pass.
    pub warmup: usize,
    /// Timed passes; the fastest is reported, so scheduler noise cannot
    /// fake a regression.
    pub runs: usize,
}

impl Timing {
    /// One timed pass, no warm-up.
    pub const ONCE: Timing = Timing { warmup: 0, runs: 1 };
    /// One warm-up, then the best of five.
    pub const BEST_OF_5: Timing = Timing { warmup: 1, runs: 5 };

    /// Wall-clock milliseconds of the fastest timed pass of `f`, and
    /// the last pass's output.
    pub fn ms<T>(self, mut f: impl FnMut() -> T) -> (f64, T) {
        self.best(|| {
            let started = Instant::now();
            let v = f();
            (started.elapsed().as_secs_f64() * 1e3, v)
        })
    }

    /// Like [`Timing::ms`], for passes that time themselves, so their
    /// set-up and tear-down stay out of the measurement: each pass of
    /// `f` returns its milliseconds and its output.
    pub fn best<T>(self, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..self.runs {
            let (ms, v) = f();
            best = best.min(ms);
            out = Some(v);
        }
        (best, out.expect("a timing makes at least one run"))
    }
}

/// Items per second, given a count and a wall time in milliseconds.
pub fn per_s(items: usize, ms: f64) -> f64 {
    items as f64 / (ms / 1e3).max(1e-9)
}

/// How many times faster `fast_ms` is than `slow_ms`.
pub fn speedup(slow_ms: f64, fast_ms: f64) -> f64 {
    slow_ms / fast_ms.max(1e-9)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size in kbytes (`VmHWM` from `/proc/self/status`),
/// or 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// One artifact: its keys in print order, each value exactly as it is
/// printed (the gates compare these strings, not the unrounded
/// numbers), plus any identity divergence the scenario found.
#[derive(Debug, Default)]
pub struct Report {
    fields: Vec<(&'static str, String)>,
    diverged: Vec<&'static str>,
}

impl Report {
    /// Adds a value printed with `Display`.
    pub fn put(&mut self, key: &'static str, value: impl Display) -> &mut Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Adds a number printed with `decimals` digits after the point.
    pub fn num(&mut self, key: &'static str, value: f64, decimals: usize) -> &mut Self {
        self.put(key, format!("{value:.decimals$}"))
    }

    /// Adds a quoted string.
    pub fn text(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.put(key, format!("\"{value}\""))
    }

    /// Adds an identity flag; `false` records `divergence`, which makes
    /// the run exit 1 after printing.
    pub fn identity(
        &mut self,
        key: &'static str,
        same: bool,
        divergence: &'static str,
    ) -> &mut Self {
        if !same {
            self.diverged.push(divergence);
        }
        self.put(key, same)
    }

    /// A key's value as printed.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The artifact as a JSON object, one key per line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}", body.join(",\n"))
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let (report, gate) = if cmd == "check" {
        let name = args.next().unwrap_or_default();
        let gate = gates::find(&name).unwrap_or_else(|| {
            let names: Vec<&str> = gates::GATES.iter().map(|g| g.name).collect();
            die(&format!("check needs one of {}", names.join(" ")))
        });
        if let Some(extra) = args.next() {
            die(&format!("check takes no flags, not {extra}"));
        }
        let (_, _, run) = scenario(gate.scenario).expect("every gate names a scenario");
        (run(&gate.params), Some(gate))
    } else {
        let (name, flags, run) = scenario(&cmd).unwrap_or_else(|| {
            let names: Vec<&str> = SCENARIOS.iter().map(|s| s.0).collect();
            die(&format!(
                "usage: bench {} [FLAGS] | bench check GATE",
                names.join("|")
            ))
        });
        (run(&Params::parse(name, flags, args)), None)
    };
    println!("{}", report.json());
    let mut failed = false;
    for divergence in &report.diverged {
        eprintln!("bench: {divergence}");
        failed = true;
    }
    if let Some(gate) = gate {
        match gate.check(&report) {
            Ok(notes) => eprintln!("{}: ok ({notes})", gate.name),
            Err(why) => {
                eprintln!("{}: FAILED {why}", gate.name);
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Prints `bench: MSG` and exits 1.
pub fn die(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    std::process::exit(1);
}

/// Unwraps a result or exits through [`die`] with `what` as context.
pub trait OrDie<T> {
    /// The `Ok` value, or `bench: WHAT: ERROR` and exit 1.
    fn or_die(self, what: impl Display) -> T;
}

impl<T, E: Display> OrDie<T> for Result<T, E> {
    fn or_die(self, what: impl Display) -> T {
        self.unwrap_or_else(|e| die(&format!("{what}: {e}")))
    }
}
