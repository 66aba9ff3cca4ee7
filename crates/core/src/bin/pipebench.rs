//! `pipebench`: overlapped decode→replay pipeline throughput.
//!
//! ```text
//! pipebench [--hours H] [--seed S] [--workers N] [--repeat N] [--json]
//! ```
//!
//! Generates one a5-profile trace, packs it into an in-memory
//! compressed archive, and measures end-to-end records/s through the
//! hot replay path at three depths:
//!
//! * **decode only** — drain every `RecordBlock` out of the archive,
//!   sequentially (`Archive::blocks`) and through the pipelined reader
//!   (`Archive::pipelined`), which overlaps chunk verify/decompress/
//!   decode on a worker pool with the consumer;
//! * **replay** — decode plus a full cache simulation of one
//!   representative Table VI cell (2 MB, delayed write, 4 KB blocks),
//!   again serial vs pipelined; the pipelined path streams through
//!   [`Simulator::run_stream`] over one [`fstrace::FillRecords`], so
//!   drained column buffers recycle back to the decode workers and the
//!   steady state allocates nothing;
//! * **full analysis** — decode plus the entire Section 5 analysis
//!   suite (`run_analyzers_blocks`) through the pipelined reader.
//!
//! Every timing is best-of-`--repeat` after one untimed warm-up pass
//! (`warmup_runs` in the JSON records the policy). The pipelined
//! results are asserted bit-identical to the serial ones — cache
//! metrics and record counts must match exactly — so the speedup
//! numbers can never come from dropped or reordered records.
//!
//! ci.sh runs this as the pipeline perf gate (`BENCH_9.json`): on
//! multi-core machines pipelined replay must be >= 1.5x serial
//! replay (>= 1.0x single-core floor), and pipelined decode must
//! clear an absolute records/s floor.

use std::sync::Arc;
use std::time::Instant;

use cachesim::{CacheConfig, Simulator, WritePolicy};
use fstrace::FillBlock;
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption};
use workload::{generate, MachineProfile, WorkloadConfig};

/// The shared activity windows (600 s / 10 s, as in the paper).
const WINDOWS: [u64; 2] = [600, 10];

/// Untimed passes before each timed measurement; reported as
/// `warmup_runs` so downstream gates know the policy.
const WARMUP_RUNS: usize = 1;

/// Best-of-`n` wall-clock time of `f` in milliseconds, after
/// [`WARMUP_RUNS`] untimed warm-up passes.
fn best_ms<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    for _ in 0..WARMUP_RUNS {
        std::hint::black_box(f());
    }
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n {
        let started = Instant::now();
        let v = f();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.expect("n >= 1"))
}

fn main() {
    let mut hours = 0.25f64;
    let mut seed = 1985u64;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut repeat = 5usize;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--hours needs a number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--repeat needs a positive integer"));
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: pipebench [--hours H] [--seed S] [--workers N] [--repeat N] [--json]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }

    let out = generate(&WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed,
        duration_hours: hours,
        ..WorkloadConfig::default()
    })
    .unwrap_or_else(|e| die(&format!("generate: {e}")));
    let trace = &out.trace;
    let records = trace.len();

    let mut w = ArchiveWriter::new(Vec::new(), ArchiveOptions::default())
        .unwrap_or_else(|e| die(&format!("archive header: {e}")));
    for rec in trace.records() {
        w.write(rec)
            .unwrap_or_else(|e| die(&format!("archive write: {e}")));
    }
    let bytes = w
        .finish()
        .unwrap_or_else(|e| die(&format!("archive finish: {e}")))
        .0;
    let archive = Arc::new(
        Archive::from_bytes(bytes).unwrap_or_else(|e| die(&format!("reopen archive: {e}"))),
    );

    // Decode only: drain every block, count records. The serial side
    // is the sequential chunk reader; the pipelined side consumes
    // through `fill_next`, so its drained buffers recycle.
    let (dec_serial_ms, dec_serial_n) = best_ms(repeat, || {
        let mut n = 0usize;
        for b in archive.blocks(Corruption::Fail) {
            n += b
                .unwrap_or_else(|e| die(&format!("serial decode: {e}")))
                .len();
        }
        n
    });
    let (dec_pipe_ms, dec_pipe_n) = best_ms(repeat, || {
        let mut src = Arc::clone(&archive).pipelined(Corruption::Fail, workers);
        let mut block = fstrace::RecordBlock::new();
        let mut n = 0usize;
        while src.fill_next(&mut block) {
            n += block.len();
        }
        if !src.report().is_clean() {
            die("pipelined decode hit corruption in a fresh archive");
        }
        n
    });
    if dec_serial_n != records || dec_pipe_n != records {
        die("decode record counts diverged from the generated trace");
    }

    // Replay: decode plus a full cache simulation of one Table VI
    // cell. Serial interleaves decode and replay on one thread;
    // pipelined overlaps them, recycling buffers via `FillRecords`.
    let replay_config = CacheConfig {
        cache_bytes: 2 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        ..CacheConfig::default()
    };
    let (replay_serial_ms, serial_metrics) = best_ms(repeat, || {
        Simulator::run_blocks(
            archive
                .blocks(Corruption::Fail)
                .map(|b| b.unwrap_or_else(|e| die(&format!("serial replay decode: {e}")))),
            &replay_config,
        )
    });
    let (replay_pipe_ms, pipe_metrics) = best_ms(repeat, || {
        Simulator::run_stream(
            fstrace::FillRecords::new(Arc::clone(&archive).pipelined(Corruption::Fail, workers)),
            &replay_config,
        )
    });
    let identical = serial_metrics == pipe_metrics;

    // Full analysis: the entire Section 5 suite through the pipelined
    // reader, checked against the in-memory batch path.
    let (analysis_ms, pipe_suite) = best_ms(repeat, || {
        fsanalysis::run_analyzers_blocks(
            Arc::clone(&archive).pipelined(Corruption::Fail, workers),
            &WINDOWS,
        )
    });
    let serial_suite = fsanalysis::run_analyzers(trace.records(), &WINDOWS);
    let analysis_identical = format!("{pipe_suite:?}") == format!("{serial_suite:?}");

    let dec_serial_rps = records as f64 / (dec_serial_ms / 1e3).max(1e-9);
    let dec_pipe_rps = records as f64 / (dec_pipe_ms / 1e3).max(1e-9);
    let replay_serial_rps = records as f64 / (replay_serial_ms / 1e3).max(1e-9);
    let replay_pipe_rps = records as f64 / (replay_pipe_ms / 1e3).max(1e-9);
    let analysis_rps = records as f64 / (analysis_ms / 1e3).max(1e-9);
    let decode_speedup = dec_serial_ms / dec_pipe_ms.max(1e-9);
    let replay_speedup = replay_serial_ms / replay_pipe_ms.max(1e-9);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if json {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"pipeline\",\n");
        s.push_str(&format!("  \"hours\": {hours},\n"));
        s.push_str(&format!("  \"seed\": {seed},\n"));
        s.push_str(&format!("  \"workers\": {workers},\n"));
        s.push_str(&format!("  \"repeat\": {repeat},\n"));
        s.push_str(&format!("  \"warmup_runs\": {WARMUP_RUNS},\n"));
        s.push_str(&format!("  \"cores\": {cores},\n"));
        s.push_str(&format!("  \"records\": {records},\n"));
        s.push_str(&format!(
            "  \"decode_serial_records_s\": {dec_serial_rps:.0},\n"
        ));
        s.push_str(&format!(
            "  \"decode_pipelined_records_s\": {dec_pipe_rps:.0},\n"
        ));
        s.push_str(&format!("  \"decode_speedup\": {decode_speedup:.2},\n"));
        s.push_str(&format!(
            "  \"replay_serial_records_s\": {replay_serial_rps:.0},\n"
        ));
        s.push_str(&format!(
            "  \"replay_pipelined_records_s\": {replay_pipe_rps:.0},\n"
        ));
        s.push_str(&format!("  \"replay_speedup\": {replay_speedup:.2},\n"));
        s.push_str(&format!("  \"analysis_records_s\": {analysis_rps:.0},\n"));
        s.push_str(&format!("  \"identical\": {identical},\n"));
        s.push_str(&format!("  \"analysis_identical\": {analysis_identical}\n"));
        s.push('}');
        println!("{s}");
    } else {
        println!(
            "pipeline bench ({hours} h, seed {seed}, {workers} workers, best of {repeat}, \
             {cores} cores)"
        );
        println!("  records: {records}");
        println!(
            "  decode  serial: {dec_serial_rps:.0} rec/s, pipelined: {dec_pipe_rps:.0} rec/s \
             ({decode_speedup:.2}x)"
        );
        println!(
            "  replay  serial: {replay_serial_rps:.0} rec/s, pipelined: {replay_pipe_rps:.0} \
             rec/s ({replay_speedup:.2}x)"
        );
        println!("  full analysis (pipelined): {analysis_rps:.0} rec/s");
        println!("  replay identical: {identical}, analysis identical: {analysis_identical}");
    }
    if !identical {
        die("pipelined replay metrics diverged from serial replay");
    }
    if !analysis_identical {
        die("pipelined analysis suite diverged from the in-memory suite");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("pipebench: {msg}");
    std::process::exit(1);
}
