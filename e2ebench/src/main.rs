//! `e2ebench`: the end-to-end benchmark of the bsdtrace pipeline.
//!
//! ```text
//! e2ebench --workload offline|ingest|query --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates one seeded fleet, runs one closed-loop workload over it
//! for `S` seconds, checks every op's output, and prints a provenance
//! line and then, as the last line, the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from spans recorded around each call into a
//! layer (written to `.bench_run/spans-WORKLOAD-seedN.jsonl`). See
//! NOTES.md for the workloads, the metrics and what should move them.
//!
//! Two internal modes run as child processes: `gen SEED OUT` writes the
//! fleet archive, and `serve DIR` runs the daemon.

mod daemon;
mod fleet;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use trace::{Ctx, Tracer};
use workloads::{Done, Ingest, Inputs, Offline, Query, Workload, DEADLINE, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed ops at least, whatever `--seconds` says: enough for the tail
/// percentile to exist.
const MIN_OPS: usize = stats::TAIL_BEYOND + 1;
/// Where runs keep their files, relative to the working directory.
const WORK_ROOT: &str = ".bench_run";
/// A run that takes longer than this stops with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: e2ebench --workload offline|ingest|query --seed N --seconds S --trace 0|1".into()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *NAMES
                        .iter()
                        .find(|n| *n == value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing or bad {what}\n{}", usage());
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => gen_main(&args[1..]),
        Some("serve") if args.len() == 2 => daemon::serve_main(Path::new(&args[1])),
        _ => {}
    }
    let parsed = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        std::process::exit(2)
    });
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        // Daemon children exit on their own when this process's end of
        // their stdin closes.
        eprintln!("e2ebench: run exceeded {} s", WATCHDOG.as_secs());
        std::process::exit(1);
    });
    if let Err(e) = run(&parsed) {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

/// `gen SEED OUT`: writes the fleet archive, reports records and errors.
fn gen_main(args: &[String]) -> ! {
    let (Some(seed), Some(out)) = (args.first().and_then(|s| s.parse().ok()), args.get(1)) else {
        eprintln!("usage: e2ebench gen SEED OUT");
        std::process::exit(2)
    };
    match fleet::write_archive(&fleet::config(seed), Path::new(out)) {
        Ok(stats) => {
            println!("records {} errors {}", stats.records, stats.total_errors());
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("e2ebench gen: {e}");
            std::process::exit(1)
        }
    }
}

/// Runs `gen` in a child process, so generation's memory never counts
/// against an op process. Returns (records, errors).
fn generate(exe: &Path, seed: u64, out: &Path) -> Result<(u64, u64), String> {
    let output = Command::new(exe)
        .arg("gen")
        .arg(seed.to_string())
        .arg(out)
        .output()
        .map_err(|e| format!("spawn generator: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "generator failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["records", r, "errors", e] => Ok((
            r.parse().map_err(|_| "generator report")?,
            e.parse().map_err(|_| "generator report")?,
        )),
        _ => Err(format!("generator said {text:?}")),
    }
}

fn read_fleet(path: &Path) -> Result<Vec<fstrace::TraceRecord>, String> {
    let archive =
        tracestore::Archive::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let (records, report) = archive.read_all();
    if !report.is_clean() {
        return Err(format!("{} has damaged chunks", path.display()));
    }
    Ok(records)
}

/// Everything `kind` needs before its first op, over the fleet archive
/// at `fleet`.
fn prepare(
    kind: &str,
    exe: &Path,
    work: &Path,
    seed: u64,
    fleet: &Path,
) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    Ok(match kind {
        "offline" => Box::new(Offline::new(fleet)),
        "ingest" => {
            let records = read_fleet(fleet)?;
            Box::new(Ingest::new(exe, work, Inputs::split(&records, seed)?))
        }
        "query" => {
            let records = read_fleet(fleet)?;
            let inputs = Inputs::split(&records, seed)?;
            Box::new(Query::new(exe, work, records, &inputs)?)
        }
        other => unreachable!("workload names are checked at parse time: {other}"),
    })
}

/// Latencies and failures of a sequence of ops.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    records: u64,
    busy: Duration,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, result: &Result<Done, String>) {
        self.attempted += 1;
        match result {
            Ok(done) => {
                self.latencies_ms.push(done.latency.as_secs_f64() * 1e3);
                self.records += done.records;
                self.busy += done.latency;
                if !done.ok || done.latency > DEADLINE {
                    self.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("e2ebench: op failed: {e}");
                self.failed += 1;
            }
        }
    }

    fn records_per_s(&self) -> Option<f64> {
        (self.busy > Duration::ZERO).then(|| self.records as f64 / self.busy.as_secs_f64())
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), json_num)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit measured, when the working directory is a git checkout.
fn git_sha() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The pinned settings, as JSON object members.
fn settings_json() -> String {
    let d = daemon::config(Path::new("."));
    format!(
        "\"fleet_jobs\":1,\"pipeline_workers\":{},\"sweep_jobs\":{},\"grid_cells\":{},\
         \"clients\":{},\"ingest_epoch_ms\":{},\
         \"ingest_frames\":\"per epoch: records (if any), progress(epoch end); last: progress(MAX), fin\",\
         \"shard_target_bytes\":{},\"chunk_target_bytes\":{},\
         \"compress\":{},\"bucket_ms\":{},\"backpressure_records\":{},\"query_jobs\":{},\
         \"analysis_windows_s\":{:?},\"flush_policy\":\"fsync on shard seal\",\
         \"op_deadline_s\":{},\"setups\":{SETUPS},\"min_ops\":{MIN_OPS}",
        workloads::PIPELINE_WORKERS,
        workloads::SWEEP_JOBS,
        workloads::grid().len(),
        workloads::CLIENTS,
        fleet::config(0).epoch_ms,
        d.shard_target_bytes,
        d.chunk_target_bytes,
        d.compress,
        d.bucket_ms,
        d.backpressure_records,
        d.query_jobs,
        d.analysis_windows,
        DEADLINE.as_secs(),
    )
}

fn run(args: &Args) -> Result<(), String> {
    let run_started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let work = PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = measure(args, &exe, &work);
    let _ = std::fs::remove_dir_all(&work);
    let lines = result?;
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    print!("{out}");
    eprintln!(
        "e2ebench: {} run took {:.1} s",
        args.workload,
        run_started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// One run; returns the stdout lines, result last.
fn measure(args: &Args, exe: &Path, work: &Path) -> Result<Vec<String>, String> {
    let mut correct = true;

    // Set-up, several times: generate the fleet in a child process, then
    // prepare the workload. The last set-up is the one measured.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let (mut records, mut gen_errors) = (0, 0);
    let fleets: Vec<PathBuf> = (0..SETUPS)
        .map(|i| work.join(format!("fleet-{i}.tsa")))
        .collect();
    for fleet in &fleets {
        drop(prepared.take());
        let started = Instant::now();
        (records, gen_errors) = generate(exe, args.seed, fleet)?;
        prepared = Some(prepare(args.workload, exe, work, args.seed, fleet)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = prepared.expect("at least one set-up");
    let fleet = fleets.last().expect("at least one set-up");
    let fleet_bytes = std::fs::read(fleet).map_err(|e| format!("read fleet: {e}"))?;
    for other in &fleets[..SETUPS - 1] {
        if std::fs::read(other).map_err(|e| format!("read fleet: {e}"))? != fleet_bytes {
            eprintln!("e2ebench: the same seed generated two different fleets");
            correct = false;
        }
    }
    if gen_errors > 0 {
        eprintln!("e2ebench: the fleet generator reported {gen_errors} failed commands");
        correct = false;
    }
    workload.reference()?;

    // The timed phase: a closed loop of ops. A traced run alternates
    // untraced and traced ops, so its tracing overhead is measured
    // against ops interleaved with it.
    let tracer = Tracer::default();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut traced_ops = BTreeSet::new();
    workload.begin_timed()?;
    let timed = Instant::now();
    let min_ops = if args.trace { 2 } else { MIN_OPS };
    let mut i = 0u64;
    while timed.elapsed().as_secs_f64() < args.seconds || (i as usize) < min_ops {
        i += 1;
        let trace_this = args.trace && i.is_multiple_of(2);
        let ctx = if trace_this {
            traced_ops.insert(i);
            Ctx::op(&tracer, i)
        } else {
            Ctx::off()
        };
        let result = workload.op(ctx);
        if trace_this {
            traced.add(&result);
            if let Ok(done) = &result {
                workload.replay(ctx, done)?;
            }
        } else {
            plain.add(&result);
        }
    }
    let timed_s = timed.elapsed().as_secs_f64();
    let peak_rss_kb = workload.peak_rss_kb()?;
    let frames = workload.frames().map_or("null".into(), |f| {
        format!(
            "{{\"records_frames\":{},\"progress_marks\":{},\"max_frame_records\":{}}}",
            f.records_frames, f.progress_marks, f.max_frame_records
        )
    });
    let stored_bytes = workload.finish()?;
    let failed = plain.failed + traced.failed;
    let attempted = plain.attempted + traced.attempted;

    let tail = stats::tail(&plain.latencies_ms);
    let mut lines = Vec::new();
    lines.push(format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"cores\":{},\"cpu_model\":\"{}\",\"git_sha\":\"{}\",\
         \"fleet\":{{\"mix\":\"{}\",\"machines\":{},\"hours\":{},\"user_scale\":{},\"records\":{},\
         \"archive_bytes\":{}}},\"stored_bytes\":{},\"session_frames\":{},\"settings\":{{{}}},\
         \"setup_s_each\":[{}],\"ops_timed\":{},\"timed_s\":{},\
         \"op_tail_percentile\":{},\"op_tail_samples\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model().replace('"', "'"),
        git_sha(),
        fleet::MIX.join(","),
        fleet::MACHINES,
        fleet::HOURS,
        fleet::USER_SCALE,
        records,
        fleet_bytes.len(),
        stored_bytes,
        frames,
        settings_json(),
        setup_s
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(","),
        plain.latencies_ms.len(),
        json_num(timed_s),
        json_opt(tail.map(|t| t.percentile)),
        tail.map_or(0, |t| t.samples),
    ));

    let mut metrics = String::new();
    let mut metric = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(value)
        );
    };
    if args.trace {
        let mut groups = vec![(args.workload.to_string(), traced_ops)];
        let probes_failed = run_probes(args, exe, work, fleet, &tracer, &mut groups)?;
        correct &= probes_failed == 0;
        let (spans, counts) = (tracer.spans(), tracer.counts());
        let overhead = match (
            stats::median(&traced.latencies_ms),
            stats::median(&plain.latencies_ms),
        ) {
            (Some(t), Some(p)) => Some(100.0 * (t - p) / p),
            _ => None,
        };
        lines.push(format!(
            "{{\"traced_run\":{{\"traced_ops\":{},\"untraced_ops\":{},\
             \"traced_op_p50_ms\":{},\"untraced_op_p50_ms\":{},\
             \"traced_records_per_s\":{},\"untraced_records_per_s\":{},\
             \"tracing_overhead_pct\":{},\"spans\":{}}}}}",
            traced.latencies_ms.len(),
            plain.latencies_ms.len(),
            json_opt(stats::median(&traced.latencies_ms)),
            json_opt(stats::median(&plain.latencies_ms)),
            json_opt(traced.records_per_s()),
            json_opt(plain.records_per_s()),
            json_opt(overhead),
            spans.len(),
        ));
        let mut sources = String::new();
        for layer in layers::compute(&spans, &counts, &groups) {
            let (value, group) = layer.found.unwrap_or_else(|| {
                eprintln!("e2ebench: no spans or counts for {}", layer.name);
                correct = false;
                (0.0, "none".into())
            });
            metric(layer.name, value, layer.unit);
            let sep = if sources.is_empty() { "" } else { "," };
            let _ = write!(sources, "{sep}\"{}\":\"{group}\"", layer.name);
        }
        lines.push(format!("{{\"per_layer_sources\":{{{sources}}}}}"));
        metric("trace.overhead_pct", overhead.unwrap_or(0.0), "%");
        write_spans(args, &tracer, &groups)?;
    } else {
        let p50 = stats::median(&plain.latencies_ms).ok_or("no timed op completed")?;
        let tail = tail.ok_or("too few timed ops for a tail percentile")?;
        metric(
            "setup_s",
            stats::median(&setup_s).expect("set-ups ran"),
            "s",
        );
        metric(
            "records_per_s",
            plain.records_per_s().ok_or("no timed op completed")?,
            "records/s",
        );
        metric("op_p50_ms", p50, "ms");
        metric("op_tail_ms", tail.value, "ms");
        metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
        metric(
            "bytes_per_record",
            stored_bytes as f64 / records.max(1) as f64,
            "B",
        );
    }
    lines.push(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        correct && failed == 0
    ));
    Ok(lines)
}

/// Probes for the layers the traced workload's own ops do not reach,
/// so every traced run reports every per-layer metric: one traced op
/// (and replay) of each other workload over the same fleet, then one
/// generation of the fleet into a counting sink. Appends one op group
/// per probe to `groups`; returns how many probe ops failed a check.
fn run_probes(
    args: &Args,
    exe: &Path,
    work: &Path,
    fleet: &Path,
    tracer: &Tracer,
    groups: &mut Vec<(String, BTreeSet<u64>)>,
) -> Result<u64, String> {
    let mut failed = 0;
    let mut op = 1_000_000u64;
    for kind in NAMES.iter().filter(|k| **k != args.workload) {
        op += 1;
        let probe_work = work.join(format!("probe-{kind}"));
        let mut workload = prepare(kind, exe, &probe_work, args.seed, fleet)?;
        workload.reference()?;
        let ctx = Ctx::op(tracer, op);
        let done = workload.op(ctx)?;
        workload.replay(ctx, &done)?;
        workload.finish()?;
        if !done.ok {
            eprintln!("e2ebench: probe {kind} op failed its check");
            failed += 1;
        }
        groups.push((format!("probe:{kind}"), [op].into()));
    }
    op += 1;
    let ctx = Ctx::op(tracer, op);
    let mut sink = fleet::CountingSink::default();
    let stats = ctx
        .time("workload.generate", |_| {
            let r = workload::generate_fleet_into(&fleet::config(args.seed), &mut sink);
            (r, sink.0)
        })
        .map_err(|e| format!("generate: {e}"))?;
    ctx.count("workload.errors", stats.total_errors() as f64);
    groups.push(("probe:generate".into(), [op].into()));
    Ok(failed)
}

/// Writes every span and count, then one line per op group naming its
/// ops.
fn write_spans(
    args: &Args,
    tracer: &Tracer,
    groups: &[(String, BTreeSet<u64>)],
) -> Result<(), String> {
    let path =
        PathBuf::from(WORK_ROOT).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = tracer.to_jsonl();
    for (group, ops) in groups {
        let ops: Vec<String> = ops.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "{{\"group\":\"{group}\",\"ops\":[{}]}}", ops.join(","));
    }
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("e2ebench: spans written to {}", path.display());
    Ok(())
}
