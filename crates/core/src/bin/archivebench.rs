//! `archivebench`: throughput, parallel-decode speedup, and recovery
//! checks for the `tracestore` archive layer.
//!
//! ```text
//! archivebench [--hours H] [--seed S] [--jobs N] [--chunk-kib K] [--json]
//! ```
//!
//! Generates one a5-profile trace, packs it into an in-memory archive,
//! and measures:
//!
//! * pack and unpack throughput (raw trace Mbytes per second) and the
//!   achieved compression ratio;
//! * single-threaded vs `--jobs`-way chunk-parallel decode time
//!   (best of five passes each after one untimed warm-up, so cold
//!   caches and scheduler noise cannot fake a regression) and the
//!   resulting speedup;
//! * scalar (record-at-a-time) vs columnar batched decode records/s
//!   over an uncompressed archive — the replay-hot-path comparison —
//!   plus end-to-end replay records/s through the batched pipeline;
//! * that a Table VI sweep over archive-decoded records is
//!   bit-identical to the same sweep over the in-memory trace;
//! * that flipping one byte in a mid-file chunk loses exactly that
//!   chunk: one chunk skipped, its record count lost, every other
//!   record recovered.
//!
//! ci.sh runs this as the archive smoke/perf gate (`BENCH_5.json`,
//! `BENCH_6.json`, `BENCH_archive_smoke.json`). The
//! `identical`/`recovery_ok` fields gate correctness on every machine;
//! the speedup fields are gated only where enough cores exist for the
//! timing to be stable (see the `cores` field and the ci.sh comments).

use std::sync::Arc;
use std::time::Instant;

use cachesim::{sweep, CacheConfig, WritePolicy};
use fstrace::{FillBlock, RecordBlock, TraceRecord};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption, RecoveryReport};
use workload::{generate, MachineProfile, WorkloadConfig};

/// Table VI cache sizes in kbytes (390 KB UNIX baseline to 16 MB).
const SIZES_KB: [u64; 6] = [390, 1024, 2048, 4096, 8192, 16_384];

fn grid() -> Vec<CacheConfig> {
    SIZES_KB
        .iter()
        .flat_map(|&size_kb| {
            WritePolicy::TABLE_VI
                .into_iter()
                .map(move |policy| CacheConfig {
                    cache_bytes: size_kb * 1024,
                    block_size: 4096,
                    write_policy: policy,
                    ..CacheConfig::default()
                })
        })
        .collect()
}

/// Untimed warm-up passes before each timed measurement, so cold
/// caches, lazy page faults, and first-touch allocation never count
/// against the first timed iteration. Reported as `warmup_runs` in
/// the JSON output so downstream gates know the policy.
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

/// Decodes the whole archive on `jobs` pipeline workers, skipping
/// damaged chunks.
fn read_pipelined(archive: &Archive, jobs: usize) -> (Vec<TraceRecord>, RecoveryReport) {
    let mut blocks = Arc::new(archive.clone()).pipelined(Corruption::Skip, jobs);
    let mut block = RecordBlock::new();
    let mut out = Vec::new();
    while blocks.fill_next(&mut block) {
        block.append_to(&mut out);
    }
    (out, blocks.report().clone())
}

fn main() {
    let mut hours = 0.25f64;
    let mut seed = 1985u64;
    let mut jobs = 4usize;
    let mut chunk_kib = 8usize;
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
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
            }
            "--chunk-kib" => {
                chunk_kib = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| die("--chunk-kib needs a positive integer"));
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: archivebench [--hours H] [--seed S] [--jobs N] [--chunk-kib K] [--json]");
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
    let raw_bytes = trace.to_binary().len() as u64;

    let opts = ArchiveOptions {
        chunk_target_bytes: chunk_kib << 10,
        compress: true,
        name: "a5".into(),
    };
    // Pack (best of 5): raw records -> framed, checksummed, compressed
    // archive bytes.
    let (pack_ms, bytes) = best_ms(5, || {
        let mut w = ArchiveWriter::new(Vec::new(), opts.clone())
            .unwrap_or_else(|e| die(&format!("archive header: {e}")));
        for rec in trace.records() {
            w.write(rec)
                .unwrap_or_else(|e| die(&format!("archive write: {e}")));
        }
        w.finish()
            .unwrap_or_else(|e| die(&format!("archive finish: {e}")))
            .0
    });
    let archive = Archive::from_bytes(bytes.clone())
        .unwrap_or_else(|e| die(&format!("reopen packed archive: {e}")));
    let chunks = archive.chunks().len();
    let stored: u64 = archive.chunks().iter().map(|c| c.stored_len as u64).sum();
    let raw_payload: u64 = archive.chunks().iter().map(|c| c.raw_len as u64).sum();
    let compression = obs::ratio(raw_payload, stored);

    // Decode: single-threaded vs chunk-parallel, best of 5 each.
    let (decode1_ms, (seq_records, seq_report)) = best_ms(5, || archive.read_all());
    let (decode_par_ms, (par_records, par_report)) = best_ms(5, || read_pipelined(&archive, jobs));
    if !seq_report.is_clean() || !par_report.is_clean() {
        die("fresh archive failed verification");
    }
    if par_records != seq_records || seq_records.len() != trace.len() {
        die("archive decode diverged from the written trace");
    }
    let par_speedup = decode1_ms / decode_par_ms.max(1e-9);
    let mb = raw_bytes as f64 / (1 << 20) as f64;
    let pack_mb_s = mb / (pack_ms / 1e3).max(1e-9);
    let unpack_mb_s = mb / (decode1_ms / 1e3).max(1e-9);

    // Columnar decode: scalar record-at-a-time vs batched RecordBlock
    // decode, over an *uncompressed* archive so varint decode itself is
    // measured rather than LZ77. Best of five passes each.
    let plain_opts = ArchiveOptions {
        chunk_target_bytes: chunk_kib << 10,
        compress: false,
        name: "a5".into(),
    };
    let mut w = ArchiveWriter::new(Vec::new(), plain_opts)
        .unwrap_or_else(|e| die(&format!("plain archive header: {e}")));
    for rec in trace.records() {
        w.write(rec)
            .unwrap_or_else(|e| die(&format!("plain archive write: {e}")));
    }
    let plain_bytes = w
        .finish()
        .unwrap_or_else(|e| die(&format!("plain archive finish: {e}")))
        .0;
    let plain = Archive::from_bytes(plain_bytes)
        .unwrap_or_else(|e| die(&format!("reopen plain archive: {e}")));
    let (scalar_ms, scalar_count) = best_ms(5, || {
        let (records, report) = plain.read_all_scalar();
        if !report.is_clean() {
            die("plain archive failed scalar verification");
        }
        std::hint::black_box(records.len())
    });
    let (block_ms, block_count) = best_ms(5, || {
        // One block reused across every chunk: the steady-state batched
        // reader allocates nothing after the first chunk.
        let mut blocks = plain.blocks(Corruption::Fail);
        let mut block = RecordBlock::new();
        let mut n = 0usize;
        while blocks.fill_next(&mut block) {
            n += std::hint::black_box(&block).len();
        }
        if let Some(bad) = blocks.report().bad_chunks.first() {
            die(&format!("batched decode of chunk {}: damaged", bad.index));
        }
        n
    });
    if scalar_count != trace.len() || block_count != trace.len() {
        die("columnar decode record counts diverged from the trace");
    }
    let decode_scalar_rps = trace.len() as f64 / (scalar_ms / 1e3).max(1e-9);
    let decode_block_rps = trace.len() as f64 / (block_ms / 1e3).max(1e-9);
    let decode_speedup = scalar_ms / block_ms.max(1e-9);

    // End-to-end replay throughput through the batched pipeline:
    // decode blocks and feed them straight to one Table VI cell.
    let replay_config = CacheConfig {
        cache_bytes: 2 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        ..CacheConfig::default()
    };
    let (replay_ms, _) = best_ms(5, || {
        cachesim::Simulator::run_blocks(
            plain
                .blocks(Corruption::Fail)
                .map(|b| b.unwrap_or_else(|e| die(&format!("batched decode during replay: {e}")))),
            &replay_config,
        )
    });
    let replay_rps = trace.len() as f64 / (replay_ms / 1e3).max(1e-9);

    // Sweep identity: Table VI over the archive replay must equal the
    // in-memory sweep bit for bit.
    let configs = grid();
    let baseline = sweep::run_with_jobs(trace, &configs, jobs);
    let replayed = sweep::run_source(|| par_records.iter(), &configs, jobs);
    let identical = baseline == replayed;

    // Recovery: flip one byte in the middle of the middle chunk.
    let victim = chunks / 2;
    let info = archive.chunks()[victim];
    let mut damaged_bytes = bytes;
    let at =
        info.offset as usize + tracestore::format::CHUNK_HEADER_LEN + info.stored_len as usize / 2;
    damaged_bytes[at] ^= 0xFF;
    let damaged = Archive::from_bytes(damaged_bytes)
        .unwrap_or_else(|e| die(&format!("reopen damaged archive: {e}")));
    let (recovered, report) = damaged.read_all();
    let chunks_skipped = report.chunks_skipped();
    let records_lost = report.records_lost();
    let recovery_ok = chunks_skipped == 1
        && report.bad_chunks[0].index == victim as u64
        && records_lost == info.records as u64
        && recovered.len() == trace.len() - info.records as usize;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if json {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"archive\",\n");
        s.push_str(&format!("  \"hours\": {hours},\n"));
        s.push_str(&format!("  \"seed\": {seed},\n"));
        s.push_str(&format!("  \"jobs\": {jobs},\n"));
        s.push_str(&format!("  \"cores\": {cores},\n"));
        s.push_str(&format!("  \"warmup_runs\": {WARMUP_RUNS},\n"));
        s.push_str(&format!("  \"records\": {},\n", trace.len()));
        s.push_str(&format!("  \"chunks\": {chunks},\n"));
        s.push_str(&format!("  \"raw_bytes\": {raw_bytes},\n"));
        s.push_str(&format!("  \"archive_bytes\": {},\n", archive.byte_len()));
        s.push_str(&format!("  \"compression_ratio\": {compression:.3},\n"));
        s.push_str(&format!("  \"pack_ms\": {pack_ms:.1},\n"));
        s.push_str(&format!("  \"pack_mb_s\": {pack_mb_s:.1},\n"));
        s.push_str(&format!("  \"unpack_mb_s\": {unpack_mb_s:.1},\n"));
        s.push_str(&format!("  \"decode1_ms\": {decode1_ms:.2},\n"));
        s.push_str(&format!("  \"decode_par_ms\": {decode_par_ms:.2},\n"));
        s.push_str(&format!("  \"par_speedup\": {par_speedup:.2},\n"));
        s.push_str(&format!(
            "  \"decode_scalar_records_s\": {decode_scalar_rps:.0},\n"
        ));
        s.push_str(&format!(
            "  \"decode_block_records_s\": {decode_block_rps:.0},\n"
        ));
        s.push_str(&format!("  \"decode_speedup\": {decode_speedup:.2},\n"));
        s.push_str(&format!("  \"replay_records_s\": {replay_rps:.0},\n"));
        s.push_str(&format!("  \"identical\": {identical},\n"));
        s.push_str(&format!(
            "  \"corrupt_chunks_skipped\": {chunks_skipped},\n"
        ));
        s.push_str(&format!("  \"corrupt_records_lost\": {records_lost},\n"));
        s.push_str(&format!("  \"records_recovered\": {},\n", recovered.len()));
        s.push_str(&format!("  \"recovery_ok\": {recovery_ok}\n"));
        s.push('}');
        println!("{s}");
    } else {
        println!("archive bench ({hours} h, seed {seed}, jobs {jobs}, {chunk_kib} KiB chunks)");
        println!("  records: {} in {chunks} chunks", trace.len());
        println!(
            "  raw trace: {raw_bytes} B, archive: {} B",
            archive.byte_len()
        );
        println!("  compression: {compression:.3}x");
        println!("  pack: {pack_ms:.1} ms ({pack_mb_s:.1} MB/s)");
        println!("  decode 1-way: {decode1_ms:.2} ms ({unpack_mb_s:.1} MB/s)");
        println!("  decode {jobs}-way: {decode_par_ms:.2} ms ({par_speedup:.2}x, {cores} cores)");
        println!(
            "  decode scalar: {decode_scalar_rps:.0} rec/s, batched: {decode_block_rps:.0} rec/s \
             ({decode_speedup:.2}x)"
        );
        println!("  replay (batched pipeline): {replay_rps:.0} rec/s");
        println!("  sweep identical: {identical}");
        println!(
            "  corruption drill: {chunks_skipped} chunk skipped, {records_lost} records lost, \
             {} recovered, ok={recovery_ok}",
            recovered.len()
        );
    }
    if !identical {
        die("archive-replayed sweep diverged from the in-memory sweep");
    }
    if !recovery_ok {
        die("corruption recovery did not isolate the damaged chunk");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("archivebench: {msg}");
    std::process::exit(1);
}
