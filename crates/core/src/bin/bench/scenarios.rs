//! The seven scenarios. Each takes its flags from [`Params`], measures,
//! checks what must be bit-identical, and returns its artifact.

use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use bsdtrace::experiments::{table6, table7};
use cachesim::{
    replay_events, sweep, CacheConfig, CacheMetrics, EventExpander, Fidelity, Replayer, Simulator,
    WritePolicy,
};
use fsanalysis::{run_analyzers, run_analyzers_blocks, AnalysisStream};
use fstrace::source::FleetMerge;
use fstrace::{
    FillBlock, FillRecords, IdOffsets, RecordBlock, RecordSink, Trace, TraceRecord, TraceSummary,
    TraceWriter,
};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption, RecoveryReport};
use tracestored::{
    render_suite, Client, IngestSink, ServerConfig, ServerStats, ShardPolicy, ShardSet,
};
use workload::{
    generate, generate_fleet_into, generate_into, FleetConfig, FleetStats, GeneratedTrace,
    MachineProfile, WorkloadConfig,
};

use crate::{cores, die, peak_rss_kb, per_s, speedup, OrDie, Params, Report, Timing};

/// The shared activity windows (600 s / 10 s, as in the paper).
const WINDOWS: [u64; 2] = [600, 10];

/// The a5-profile workload every single-machine scenario generates.
fn workload(p: &Params, default_hours: f64) -> WorkloadConfig {
    WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed: p.seed(),
        duration_hours: p.hours.unwrap_or(default_hours),
        ..WorkloadConfig::default()
    }
}

/// Generates `config`'s trace. Callers keep the whole output, file
/// system included, alive while they time: freeing it first would
/// change what the allocator hands the timed code.
fn generate_trace(config: &WorkloadConfig) -> GeneratedTrace {
    generate(config).or_die("generate")
}

/// The one Table VI cell the replay throughputs time: 2 MB, delayed
/// write, 4 KiB blocks.
fn replay_cell(fidelity: Fidelity) -> CacheConfig {
    CacheConfig {
        cache_bytes: 2 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        fidelity,
        ..CacheConfig::default()
    }
}

/// Packs `trace` into an in-memory archive.
fn pack(trace: &Trace, opts: ArchiveOptions) -> Vec<u8> {
    let mut w = ArchiveWriter::new(Vec::new(), opts).or_die("archive header");
    for rec in trace.records() {
        w.write(rec).or_die("archive write");
    }
    w.finish().or_die("archive finish").0
}

fn open_archive(bytes: Vec<u8>) -> Archive {
    Archive::from_bytes(bytes).or_die("reopen archive")
}

/// Generator → analyzers → cache replay, record by record.
struct PipelineSink {
    records: u64,
    analysis: AnalysisStream,
    expander: EventExpander,
    replayer: Replayer,
}

impl RecordSink for PipelineSink {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.records += 1;
        self.analysis.observe(rec);
        let replayer = &mut self.replayer;
        self.expander.feed(rec, &mut |ev| replayer.step(&ev));
        Ok(())
    }
}

/// `stream` (`--hours` 1): pipes the a5 generator's records straight
/// into every Section 5 analysis and a default-cache replay, so no
/// stage holds the trace. Reports digests of the results, the reorder
/// buffer's and live sessions' peaks, wall time and peak RSS; ci.sh
/// runs it under a hard `ulimit -v` as the bounded-memory check.
pub fn stream(p: &Params) -> Report {
    let config = workload(p, 1.0);
    let cache = CacheConfig::default();
    let (wall_ms, (records, mut suite, metrics)) = Timing::ONCE.ms(|| {
        let mut sink = PipelineSink {
            records: 0,
            analysis: AnalysisStream::new(&WINDOWS),
            expander: EventExpander::new(&cache),
            replayer: Replayer::new(&cache),
        };
        generate_into(&config, &mut sink).or_die("generate");
        (sink.records, sink.analysis.finish(), sink.replayer.finish())
    });
    let snap = obs::global().snapshot();
    let mut r = Report::default();
    r.put("hours", config.duration_hours)
        .put("seed", config.seed)
        .put("cores", cores())
        .put("records", records as f64)
        .put("total_bytes", suite.activity.total_bytes as f64)
        .put(
            "whole_file_fraction",
            suite.sequentiality.whole_file_fraction(),
        )
        .put("open_le_10s", suite.open_times.fraction_le_secs(10.0))
        .put("miss_ratio", metrics.miss_ratio())
        .put("disk_reads", metrics.disk_reads as f64)
        .put("disk_writes", metrics.disk_writes as f64)
        .put(
            "buffered_records_peak",
            snap.gauge("fstrace.pipeline.buffered_records_peak")
                .unwrap_or(0),
        )
        .put(
            "live_sessions_peak",
            snap.gauge("workload.live_sessions_peak").unwrap_or(0),
        )
        .num("wall_ms", wall_ms, 1)
        .put("peak_rss_kb", peak_rss_kb());
    r
}

/// A grid without stack-distance profiling: one expansion of the trace
/// (every cell of either grid shares one expansion key), then one
/// direct replay per cell, the cells split across `jobs` scoped
/// threads — what the sweep does for cells it cannot profile.
fn direct_sweep(
    trace: &Trace,
    configs: &[CacheConfig],
    jobs: usize,
) -> Vec<(CacheConfig, CacheMetrics)> {
    let events = replay_events(trace, &configs[0]);
    let per_thread = configs.len().div_ceil(jobs.max(1)).max(1);
    thread::scope(|s| {
        let workers: Vec<_> = configs
            .chunks(per_thread)
            .map(|cells| {
                s.spawn(|| {
                    cells
                        .iter()
                        .map(|c| (c.clone(), Simulator::run_events(&events, c)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("direct replay worker panicked"))
            .collect()
    })
}

/// `sweep` (`--hours` 0.25, `--jobs` all cores): the Table VI grid (one
/// 24-cell profile) and the Table VII grid (six 4-cell profiles, where
/// profiling gains least), each run through `cachesim::sweep` and
/// directly. Both sides must be bit-identical (`identical`,
/// `table7_identical`); the speedups are what ci.sh gates.
pub fn sweep(p: &Params) -> Report {
    let config = workload(p, 0.25);
    let jobs = p.jobs.unwrap_or_else(cores);
    let out = generate_trace(&config);
    let trace = &out.trace;
    // Profiled first (cold caches), direct second: any warm-up effect
    // biases against the speedup being claimed.
    let compare = |configs: &[CacheConfig]| {
        let (profiled_ms, profiled) =
            Timing::ONCE.ms(|| sweep::run_source(trace.records(), configs, jobs));
        let (direct_ms, direct) = Timing::ONCE.ms(|| direct_sweep(trace, configs, jobs));
        (direct_ms, profiled_ms, profiled == direct)
    };
    let configs = table6::grid(Fidelity::Block);
    let (direct_ms, profiled_ms, identical) = compare(&configs);
    // The profiler's counters describe the Table VI pass alone.
    let snap = obs::global().snapshot();
    let (t7_direct_ms, t7_profiled_ms, t7_identical) = compare(&table7::grid(Fidelity::Block));
    let mut r = Report::default();
    r.text("bench", "stack_sweep")
        .put("hours", config.duration_hours)
        .put("seed", config.seed)
        .put("jobs", jobs)
        .put("cores", cores())
        .put("records", trace.len())
        .put("cells", configs.len())
        .num("direct_ms", direct_ms, 1)
        .num("profiled_ms", profiled_ms, 1)
        .num("speedup", speedup(direct_ms, profiled_ms), 2)
        .put(
            "distances_recorded",
            snap.counter("cachesim.stack.distances_recorded")
                .unwrap_or(0),
        )
        .put(
            "tree_nodes_peak",
            snap.gauge("cachesim.stack.tree_nodes_peak").unwrap_or(0),
        )
        .identity(
            "identical",
            identical,
            "profiled sweep diverged from direct simulation",
        )
        .num("table7_direct_ms", t7_direct_ms, 1)
        .num("table7_profiled_ms", t7_profiled_ms, 1)
        .num("table7_speedup", speedup(t7_direct_ms, t7_profiled_ms), 2)
        .identity(
            "table7_identical",
            t7_identical,
            "profiled Table VII sweep diverged from direct simulation",
        );
    r
}

/// Target chunk size of the archives `archive` packs.
const ARCHIVE_CHUNK_BYTES: usize = 8 << 10;

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

/// `archive` (`--hours` 0.25, `--jobs` 4): packs the a5 trace into
/// 8 KiB-chunk archives and measures pack and unpack throughput,
/// one-way vs `--jobs`-way chunk-parallel decode, scalar vs columnar
/// decode over an uncompressed archive (so varint decode is what is
/// timed, not LZ77), and batched replay throughput. A Table VI sweep
/// over the decoded records must equal the in-memory sweep
/// (`identical`), and a byte flipped mid-chunk must lose exactly that
/// chunk (`recovery_ok`).
pub fn archive(p: &Params) -> Report {
    let config = workload(p, 0.25);
    let jobs = p.jobs.unwrap_or(4);
    let timing = Timing::BEST_OF_5;
    let out = generate_trace(&config);
    let trace = &out.trace;
    let raw_bytes = trace.to_binary().len() as u64;

    let opts = |compress| ArchiveOptions {
        chunk_target_bytes: ARCHIVE_CHUNK_BYTES,
        compress,
        name: "a5".into(),
    };
    let (pack_ms, bytes) = timing.ms(|| pack(trace, opts(true)));
    let archive = open_archive(bytes.clone());
    let chunks = archive.chunks().len();
    let stored: u64 = archive.chunks().iter().map(|c| c.stored_len as u64).sum();
    let raw_payload: u64 = archive.chunks().iter().map(|c| c.raw_len as u64).sum();

    let (decode1_ms, (seq_records, seq_report)) = timing.ms(|| archive.read_all());
    let (decode_par_ms, (par_records, par_report)) = timing.ms(|| read_pipelined(&archive, jobs));
    if !seq_report.is_clean() || !par_report.is_clean() {
        die("fresh archive failed verification");
    }
    if par_records != seq_records || seq_records.len() != trace.len() {
        die("archive decode diverged from the written trace");
    }
    let mb = raw_bytes as f64 / (1 << 20) as f64;

    let plain = open_archive(pack(trace, opts(false)));
    let (scalar_ms, scalar_count) = timing.ms(|| {
        let (records, report) = plain.read_all_scalar();
        if !report.is_clean() {
            die("plain archive failed scalar verification");
        }
        std::hint::black_box(records.len())
    });
    let (block_ms, block_count) = timing.ms(|| {
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
    let (replay_ms, _) = timing.ms(|| {
        Simulator::run_blocks(
            plain
                .blocks(Corruption::Fail)
                .map(|b| b.or_die("batched decode during replay")),
            &replay_cell(Fidelity::Block),
        )
    });

    let configs = table6::grid(Fidelity::Block);
    let identical = sweep::run_source(trace.records(), &configs, jobs)
        == sweep::run_source(par_records.iter(), &configs, jobs);

    // Recovery: flip one byte in the middle of the middle chunk.
    let victim = chunks / 2;
    let info = archive.chunks()[victim];
    let mut damaged_bytes = bytes;
    let at =
        info.offset as usize + tracestore::format::CHUNK_HEADER_LEN + info.stored_len as usize / 2;
    damaged_bytes[at] ^= 0xFF;
    let (recovered, report) = open_archive(damaged_bytes).read_all();
    let recovery_ok = report.chunks_skipped() == 1
        && report.bad_chunks[0].index == victim as u64
        && report.records_lost() == info.records as u64
        && recovered.len() == trace.len() - info.records as usize;

    let mut r = Report::default();
    r.text("bench", "archive")
        .put("hours", config.duration_hours)
        .put("seed", config.seed)
        .put("jobs", jobs)
        .put("cores", cores())
        .put("warmup_runs", timing.warmup)
        .put("records", trace.len())
        .put("chunks", chunks)
        .put("raw_bytes", raw_bytes)
        .put("archive_bytes", archive.byte_len())
        .num("compression_ratio", obs::ratio(raw_payload, stored), 3)
        .num("pack_ms", pack_ms, 1)
        .num("pack_mb_s", mb / (pack_ms / 1e3).max(1e-9), 1)
        .num("unpack_mb_s", mb / (decode1_ms / 1e3).max(1e-9), 1)
        .num("decode1_ms", decode1_ms, 2)
        .num("decode_par_ms", decode_par_ms, 2)
        .num("par_speedup", speedup(decode1_ms, decode_par_ms), 2)
        .num("decode_scalar_records_s", per_s(trace.len(), scalar_ms), 0)
        .num("decode_block_records_s", per_s(trace.len(), block_ms), 0)
        .num("decode_speedup", speedup(scalar_ms, block_ms), 2)
        .num("replay_records_s", per_s(trace.len(), replay_ms), 0)
        .identity(
            "identical",
            identical,
            "archive-replayed sweep diverged from the in-memory sweep",
        )
        .put("corrupt_chunks_skipped", report.chunks_skipped())
        .put("corrupt_records_lost", report.records_lost())
        .put("records_recovered", recovered.len())
        .identity(
            "recovery_ok",
            recovery_ok,
            "corruption recovery did not isolate the damaged chunk",
        );
    r
}

/// Materializes the merged stream and its canonical binary encoding,
/// so identity can be asserted at the byte level, not just record
/// equality.
struct ByteSink {
    records: Vec<TraceRecord>,
    writer: TraceWriter<Vec<u8>>,
}

impl RecordSink for ByteSink {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.records.push(*rec);
        self.writer.write_record(rec)
    }
}

/// Generates `config`'s fleet into memory: its stats, records and bytes.
fn generate_fleet(config: &FleetConfig) -> (FleetStats, Vec<TraceRecord>, Vec<u8>) {
    let mut sink = ByteSink {
        records: Vec::new(),
        writer: TraceWriter::new(Vec::new()).expect("vec write"),
    };
    let stats = generate_fleet_into(config, &mut sink).or_die("generate");
    let bytes = sink.writer.into_inner().expect("vec flush");
    (stats, sink.records, bytes)
}

/// `fleet` (`--machines` 8, `--hours` 0.1, `--jobs` one per core up to
/// the machine count): generates the same fleet (user scale 0.5,
/// one-minute epochs) on one worker thread and on `--jobs`; the two
/// merged traces must be byte-identical (`identical`), the fleet's
/// determinism contract.
pub fn fleet(p: &Params) -> Report {
    let machines = p.machines.unwrap_or(8);
    let jobs = p.jobs.unwrap_or_else(|| cores().clamp(1, machines));
    let serial = FleetConfig {
        machines,
        seed: p.seed(),
        duration_hours: p.hours.unwrap_or(0.1),
        user_scale: 0.5,
        epoch_ms: 60_000,
        jobs: 1,
        ..FleetConfig::default()
    };
    let (serial_ms, (_, recs1, bytes1)) = Timing::ONCE.ms(|| generate_fleet(&serial));
    let parallel = FleetConfig { jobs, ..serial };
    let (par_ms, (stats, recs_n, bytes_n)) = Timing::ONCE.ms(|| generate_fleet(&parallel));
    let records = stats.records as usize;
    let mut r = Report::default();
    r.put("machines", machines)
        .put("jobs", jobs)
        .put("cores", cores())
        .put("hours", parallel.duration_hours)
        .put("seed", parallel.seed)
        .put("records", records)
        .identity(
            "identical",
            recs1 == recs_n && bytes1 == bytes_n,
            "jobs=1 and jobs=N produced different traces",
        )
        .num("serial_wall_ms", serial_ms, 1)
        .num("parallel_wall_ms", par_ms, 1)
        .num("serial_records_s", per_s(records, serial_ms), 0)
        .num("parallel_records_s", per_s(records, par_ms), 0)
        .num("speedup", speedup(serial_ms, par_ms), 2)
        .put("merge_buffered_peak", stats.merge_buffered_peak)
        .put("ring_occupancy_peak", stats.ring_occupancy_peak)
        .put("merge_lag_ms_peak", stats.merge_lag_ms_peak)
        .put("errors", stats.total_errors())
        .put("peak_rss_kb", peak_rss_kb());
    r
}

/// `fidelity` (`--hours` 0.25): replays the a5 trace through one cache
/// cell at block, syscall and open fidelity. Coarser fidelities expand
/// fewer events and skip per-block byte accounting, so ci.sh gates
/// `syscall_speedup` against block replay.
pub fn fidelity(p: &Params) -> Report {
    let config = workload(p, 0.25);
    let timing = Timing::BEST_OF_5;
    let out = generate_trace(&config);
    let trace = &out.trace;
    let rates = Fidelity::ALL.map(|fidelity| {
        let cell = replay_cell(fidelity);
        let (ms, _) = timing.ms(|| Simulator::run(trace, &cell));
        per_s(trace.len(), ms)
    });
    let mut r = Report::default();
    r.text("bench", "fidelity_replay")
        .put("hours", config.duration_hours)
        .put("seed", config.seed)
        .put("repeat", timing.runs)
        .put("warmup_runs", timing.warmup)
        .put("cores", cores())
        .put("records", trace.len())
        .num("block_records_per_s", rates[0], 0)
        .num("syscall_records_per_s", rates[1], 0)
        .num("open_records_per_s", rates[2], 0)
        .num("syscall_speedup", rates[1] / rates[0].max(1e-9), 2)
        .num("open_speedup", rates[2] / rates[0].max(1e-9), 2);
    r
}

/// `pipe` (`--hours` 0.25, `--jobs` one per core): packs the a5 trace
/// into a compressed archive and measures records/s at three depths,
/// serial against the pipelined reader (chunk verify, decompress and
/// decode on `--jobs` workers, overlapped with the consumer): decode
/// only, decode plus replay of one cache cell, and decode plus the
/// whole Section 5 suite. Pipelined replay metrics must equal serial
/// ones (`identical`) and the pipelined suite the in-memory one
/// (`analysis_identical`).
pub fn pipe(p: &Params) -> Report {
    let config = workload(p, 0.25);
    let workers = p.jobs.unwrap_or_else(cores);
    let timing = Timing::BEST_OF_5;
    let out = generate_trace(&config);
    let trace = &out.trace;
    let records = trace.len();
    let archive = Arc::new(open_archive(pack(trace, ArchiveOptions::default())));

    let (dec_serial_ms, dec_serial_n) = timing.ms(|| {
        let mut n = 0usize;
        for b in archive.blocks(Corruption::Fail) {
            n += b.or_die("serial decode").len();
        }
        n
    });
    // The pipelined side consumes through `fill_next`, so its drained
    // buffers recycle to the decode workers.
    let (dec_pipe_ms, dec_pipe_n) = timing.ms(|| {
        let mut src = Arc::clone(&archive).pipelined(Corruption::Fail, workers);
        let mut block = RecordBlock::new();
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

    let cell = replay_cell(Fidelity::Block);
    let (replay_serial_ms, serial_metrics) = timing.ms(|| {
        Simulator::run_blocks(
            archive
                .blocks(Corruption::Fail)
                .map(|b| b.or_die("serial replay decode")),
            &cell,
        )
    });
    let (replay_pipe_ms, pipe_metrics) = timing.ms(|| {
        Simulator::run_stream(
            FillRecords::new(Arc::clone(&archive).pipelined(Corruption::Fail, workers)),
            &cell,
        )
    });
    let (analysis_ms, pipe_suite) = timing.ms(|| {
        run_analyzers_blocks(
            Arc::clone(&archive).pipelined(Corruption::Fail, workers),
            &WINDOWS,
        )
    });
    let serial_suite = run_analyzers(trace.records(), &WINDOWS);

    let mut r = Report::default();
    r.text("bench", "pipeline")
        .put("hours", config.duration_hours)
        .put("seed", config.seed)
        .put("workers", workers)
        .put("repeat", timing.runs)
        .put("warmup_runs", timing.warmup)
        .put("cores", cores())
        .put("records", records)
        .num("decode_serial_records_s", per_s(records, dec_serial_ms), 0)
        .num("decode_pipelined_records_s", per_s(records, dec_pipe_ms), 0)
        .num("decode_speedup", speedup(dec_serial_ms, dec_pipe_ms), 2)
        .num(
            "replay_serial_records_s",
            per_s(records, replay_serial_ms),
            0,
        )
        .num(
            "replay_pipelined_records_s",
            per_s(records, replay_pipe_ms),
            0,
        )
        .num(
            "replay_speedup",
            speedup(replay_serial_ms, replay_pipe_ms),
            2,
        )
        .num("analysis_records_s", per_s(records, analysis_ms), 0)
        .identity(
            "identical",
            serial_metrics == pipe_metrics,
            "pipelined replay metrics diverged from serial replay",
        )
        .identity(
            "analysis_identical",
            format!("{pipe_suite:?}") == format!("{serial_suite:?}"),
            "pipelined analysis suite diverged from the in-memory suite",
        );
    r
}

/// Generates one machine's full stream, un-remapped: the records the
/// fleet's epoch loop would send for it (`generate_into` over the
/// machine's config yields exactly those, `workload/tests/fleet.rs`).
fn machine_stream(config: &FleetConfig, m: usize) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    generate_into(&config.machine_config(m), &mut out).or_die(format!("machine {m}"));
    out
}

/// The offline reference: one [`FleetMerge`] of the streams with the
/// fleet's real offsets, written both to a record vector and through
/// an identically configured shard set.
fn offline_reference(
    streams: &[Vec<TraceRecord>],
    offsets: &[IdOffsets],
    policy: ShardPolicy,
) -> Vec<TraceRecord> {
    let mut merge = FleetMerge::new(offsets.to_vec());
    for (i, stream) in streams.iter().enumerate() {
        for rec in stream {
            merge.push(i, rec);
        }
        merge.finish_input(i);
    }
    let mut merged = Vec::new();
    merge.finish(&mut merged).or_die("offline merge");
    let mut shards = ShardSet::create(policy).or_die("offline shards");
    for rec in &merged {
        shards.write_record(rec).or_die("offline shards");
    }
    shards.finish().or_die("offline seal");
    merged
}

/// Every `.tsa` shard in `dir`: its file name and bytes, by name.
fn shards_in(dir: &Path) -> Vec<(OsString, Vec<u8>)> {
    let mut shards: Vec<(OsString, Vec<u8>)> = std::fs::read_dir(dir)
        .or_die(dir.display())
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "tsa"))
        .map(|p| {
            (
                p.file_name().unwrap_or_default().into(),
                std::fs::read(&p).or_die(p.display()),
            )
        })
        .collect();
    shards.sort();
    shards
}

/// Streams one machine into the daemon at `addr` over its own
/// connection, through an [`IngestSink`], which checks the ack.
fn ingest(addr: &str, machines: usize, m: usize, offsets: IdOffsets, stream: &[TraceRecord]) {
    let what = format!("machine {m}");
    let name = format!("bench-{m}");
    let mut sink =
        IngestSink::connect(addr, machines as u16, m as u16, offsets, &name).or_die(&what);
    for rec in stream {
        sink.write_record(rec).or_die(&what);
    }
    sink.finish().or_die(&what);
}

/// Asks the daemon at `addr` to shut down and returns what it stored.
fn stop(addr: &str, daemon: JoinHandle<io::Result<ServerStats>>) -> ServerStats {
    Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .or_die("shutdown");
    daemon
        .join()
        .unwrap_or_else(|_| die("server thread panicked"))
        .or_die("server")
}

/// `serve` (`--machines` 4, `--hours` 0.1, `--jobs` one query worker
/// per core up to 4): streams a fleet (user scale 0.5) into an
/// in-process `tracestored` from one client thread per machine, best of
/// five passes after a warm-up, each into a fresh daemon; then queries
/// the last pass's daemon. Its shard directory must be byte-identical
/// to an offline [`FleetMerge`] through an identically configured
/// [`ShardSet`] (`identical`), and the served `summary`, `analyze` and
/// `range` replies must equal local computation (`queries_match`).
pub fn serve(p: &Params) -> Report {
    let machines = p.machines.unwrap_or(4);
    if machines > u16::MAX as usize {
        die("--machines must fit the wire protocol's 16-bit machine ids");
    }
    let jobs = p.jobs.unwrap_or_else(|| cores().min(4));
    let fleet = FleetConfig {
        machines,
        seed: p.seed(),
        duration_hours: p.hours.unwrap_or(0.1),
        user_scale: 0.5,
        ..FleetConfig::default()
    };
    let streams: Vec<Vec<TraceRecord>> = (0..machines).map(|m| machine_stream(&fleet, m)).collect();
    let offsets: Vec<IdOffsets> = (0..machines).map(|m| fleet.machine_offsets(m)).collect();
    let records: usize = streams.iter().map(Vec::len).sum();

    let base = PathBuf::from("target/artifacts/bench_serve");
    let server_dir = base.join("server");
    let offline_dir = base.join("offline");
    for dir in [&server_dir, &offline_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Small enough shards that rotation actually happens at bench
    // scale; identical policy on both sides.
    let policy = ShardPolicy {
        dir: offline_dir.clone(),
        name: "served".into(),
        shard_target_bytes: 64 << 10,
        bucket_ms: 0,
        chunk_target_bytes: 64 << 10,
        compress: true,
    };
    let merged = offline_reference(&streams, &offsets, policy.clone());

    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: server_dir.clone(),
        shard_target_bytes: policy.shard_target_bytes,
        bucket_ms: policy.bucket_ms,
        chunk_target_bytes: policy.chunk_target_bytes,
        compress: policy.compress,
        backpressure_records: 1 << 20,
        analysis_windows: WINDOWS.to_vec(),
        query_jobs: jobs,
    };
    // Each pass ingests into a fresh daemon on an empty directory, as
    // the first `hello` fixes a daemon's session; only the ingest is
    // timed. The last pass's daemon answers the queries.
    let timing = Timing::BEST_OF_5;
    let mut daemon: Option<(String, _)> = None;
    let (ingest_ms, ()) = timing.best(|| {
        if let Some((addr, handle)) = daemon.take() {
            stop(&addr, handle);
        }
        let _ = std::fs::remove_dir_all(&server_dir);
        let (addr, handle) = tracestored::spawn(config.clone()).or_die("spawn");
        let addr = addr.to_string();
        let started = Instant::now();
        thread::scope(|scope| {
            for (m, stream) in streams.iter().enumerate() {
                let (addr, offsets) = (&addr, offsets[m]);
                scope.spawn(move || ingest(addr, machines, m, offsets, stream));
            }
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        daemon = Some((addr, handle));
        (ms, ())
    });
    let (addr, handle) = daemon.expect("a timed pass");

    let mut q = Client::connect(&addr).or_die("query connect");
    let summary_served = q.summary().or_die("summary");
    let summary_local = TraceSummary::compute(&Trace::from_records(merged.clone())).to_string();
    let (analyze_ms, suite_served) = Timing::ONCE.ms(|| q.analyze().or_die("analyze"));
    let suite_local = render_suite(&run_analyzers(merged.iter(), &WINDOWS));
    let last_ms = merged.last().map_or(0, |r| r.time.as_ms());
    let (from, to) = (last_ms / 4, last_ms / 2);
    let (range_ms, range_served) = Timing::ONCE.ms(|| q.range(from, to).or_die("range"));
    let in_range = |r: &&TraceRecord| r.time.as_ms() >= from && r.time.as_ms() < to;
    let range_local: Vec<TraceRecord> = merged.iter().filter(in_range).copied().collect();
    drop(q);
    let stats = stop(&addr, handle);

    let mut r = Report::default();
    r.put("machines", machines)
        .put("cores", cores())
        .put("jobs", jobs)
        .put("hours", fleet.duration_hours)
        .put("seed", fleet.seed)
        .put("records", records)
        .put("repeat", timing.runs)
        .put("warmup_runs", timing.warmup)
        .put("shards", stats.shards.len())
        .identity(
            "identical",
            stats.records_merged == merged.len() as u64
                && shards_in(&server_dir) == shards_in(&offline_dir),
            "server shards differ from the offline merge",
        )
        .identity(
            "queries_match",
            summary_served == summary_local
                && suite_served == suite_local
                && range_served == range_local,
            "served query replies differ from local computation",
        )
        .num("ingest_wall_ms", ingest_ms, 1)
        .num("ingest_records_s", per_s(records, ingest_ms), 0)
        .num("analyze_ms", analyze_ms, 1)
        .num("range_ms", range_ms, 1)
        .put("range_records", range_served.len())
        .put("peak_rss_kb", peak_rss_kb());
    r
}
