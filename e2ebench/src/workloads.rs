//! The three closed-loop workloads. Each has one op, a reference its
//! output is checked against (computed once per run through a
//! different public path), and a replay that repeats in-process the
//! work its op runs where the benchmark cannot time it from outside:
//! inside the daemon, or on the read pipeline's worker threads.
//!
//! Ops run the same code traced or not; an untraced [`Ctx`] records
//! nothing.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachesim::{sweep, CacheConfig, CacheMetrics, Simulator, WritePolicy};
use fsanalysis::{AnalysisStream, AnalysisSuite};
use fstrace::block::decode_block;
use fstrace::source::remap_record;
use fstrace::{FillBlock, FleetMerge, IdOffsets, RecordBlock, RecordSink, TraceRecord};
use tracestore::compress::decompress_into;
use tracestore::format::{chunk_crc, CHUNK_HEADER_LEN};
use tracestore::{Archive, Corruption};
use tracestored::{
    protocol, render_suite, Client, DataSnapshot, SealedShard, ShardPolicy, ShardSet,
};

use crate::daemon::{self, Daemon};
use crate::fleet::{self, Epoch};
use crate::trace::Ctx;

/// Worker threads behind `Archive::pipelined` in `offline` reads.
pub const PIPELINE_WORKERS: usize = 2;
/// Worker threads for the cache sweep.
pub const SWEEP_JOBS: usize = 2;
/// Client threads in an ingest session (`mktrace --serve --jobs 2`).
pub const CLIENTS: usize = 2;
/// An op slower than this counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(10);
/// Grid cells re-simulated directly to check the sweep: the first and
/// last cell of Table VI and of Table VII.
pub const CHECKED_CELLS: [usize; 4] = [0, 23, 24, 47];

/// The workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["offline", "ingest", "query"];

/// Activity windows of the analyzer suite: the daemon's own, so local
/// and served analyses agree.
pub fn windows() -> Vec<u64> {
    tracestored::ServerConfig::default().analysis_windows
}

/// The Table VI (6 sizes x 4 write policies, 4 KiB blocks) and Table
/// VII (6 block sizes x 4 cache sizes, delayed write) grid: 48 cells.
pub fn grid() -> Vec<CacheConfig> {
    use bsdtrace::paper::{TABLE_VII_BLOCK_KB, TABLE_VII_CACHE_KB, TABLE_VI_SIZES_KB};
    let table6 = TABLE_VI_SIZES_KB.iter().flat_map(|&kb| {
        WritePolicy::TABLE_VI
            .into_iter()
            .map(move |policy| CacheConfig {
                cache_bytes: kb * 1024,
                block_size: 4096,
                write_policy: policy,
                ..CacheConfig::default()
            })
    });
    let table7 = TABLE_VII_BLOCK_KB.iter().flat_map(|&bs_kb| {
        TABLE_VII_CACHE_KB.iter().map(move |&cache_kb| CacheConfig {
            block_size: bs_kb * 1024,
            cache_bytes: cache_kb * 1024,
            write_policy: WritePolicy::DelayedWrite,
            ..CacheConfig::default()
        })
    });
    table6.chain(table7).collect()
}

/// One op's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Wall time of the op proper.
    pub latency: Duration,
    /// Records the op processed.
    pub records: u64,
    /// Whether its output matched the reference (where checked at once).
    pub ok: bool,
}

/// A prepared workload: set up, with its reference, ready for ops.
pub trait Workload {
    /// Computes what ops are checked against. Not part of set-up time.
    fn reference(&mut self) -> Result<(), String>;
    /// Runs one op.
    fn op(&mut self, ctx: Ctx) -> Result<Done, String>;
    /// Repeats in-process, under `ctx`, the work `done`'s op ran out of
    /// the benchmark's sight.
    fn replay(&mut self, ctx: Ctx, done: &Done) -> Result<(), String>;
    /// Marks the start of the timed phase (resets the peak RSS).
    fn begin_timed(&mut self) -> Result<(), String>;
    /// Peak RSS of the process doing the ops since [`Workload::begin_timed`], KiB.
    fn peak_rss_kb(&mut self) -> Result<u64, String>;
    /// Stops any daemon; returns the stored archive or shard bytes of
    /// the data the ops read or wrote.
    fn finish(self: Box<Self>) -> Result<u64, String>;
    /// The frames an ingest session sends, where the workload sends one.
    fn frames(&self) -> Option<FrameShape> {
        None
    }
}

/// Refill spans around a block source: how long the consumer waited.
struct Waited<'a, S> {
    inner: S,
    ctx: Ctx<'a>,
}

impl<S: FillBlock> FillBlock for Waited<'_, S> {
    fn fill_next(&mut self, out: &mut RecordBlock) -> bool {
        let span = self.ctx.begin("tracestore.pipeline_wait");
        let more = self.inner.fill_next(out);
        span.end(if more { out.len() as u64 } else { 0 });
        more
    }
}

fn open_archive(path: &Path, ctx: Ctx) -> Result<Arc<Archive>, String> {
    ctx.time("tracestore.open", |_| {
        let archive = Archive::open(path);
        let bytes = archive.as_ref().map_or(0, |a| a.byte_len());
        (archive, bytes)
    })
    .map(Arc::new)
    .map_err(|e| format!("open {}: {e}", path.display()))
}

/// The Section-5 suite over pipelined reads of `archives`, then `tail`,
/// taken apart into the calls `fsanalysis::run_analyzers_blocks` (and
/// the daemon's `DataSnapshot::analyze`) make, so each can be timed.
/// Replays use it; ops call the program's own function.
fn analyze(archives: &[Arc<Archive>], tail: &[TraceRecord], ctx: Ctx) -> AnalysisSuite {
    let mut stream = AnalysisStream::new(&windows());
    let mut block = RecordBlock::new();
    let mut skipped = 0;
    for archive in archives {
        let mut source = Waited {
            inner: Arc::clone(archive).pipelined(Corruption::Fail, PIPELINE_WORKERS),
            ctx,
        };
        while source.fill_next(&mut block) {
            let n = block.len() as u64;
            ctx.time("fsanalysis.observe", |_| {
                stream.observe_block(&block);
                ((), n)
            });
        }
        skipped += source.inner.report().chunks_skipped();
    }
    ctx.time("fsanalysis.observe", |_| {
        for rec in tail {
            stream.observe(rec);
        }
        ((), tail.len() as u64)
    });
    ctx.count("tracestore.chunks_skipped", skipped as f64);
    ctx.count(
        "fsanalysis.live_sessions_peak",
        stream.live_sessions_peak() as f64,
    );
    ctx.time("fsanalysis.finish", |_| (stream.finish(), 0))
}

/// Chunk by chunk, the read stages the pipeline workers run: CRC,
/// decompress, decode. Returns (stored, raw) payload bytes.
fn read_stages(path: &Path, ctx: Ctx) -> Result<(u64, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let archive = Archive::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let (mut scratch, mut block) = (Vec::new(), RecordBlock::new());
    let (mut stored, mut raw) = (0u64, 0u64);
    for (i, info) in archive.chunks().iter().enumerate() {
        let bad = || format!("{} chunk {i} is damaged", path.display());
        let at = info.offset as usize + CHUNK_HEADER_LEN;
        let payload = bytes
            .get(at..at + info.stored_len as usize)
            .ok_or_else(bad)?;
        let crc = ctx.time("tracestore.verify", |_| {
            (chunk_crc(info, payload), payload.len() as u64)
        });
        if crc != info.crc {
            return Err(bad());
        }
        let body: &[u8] = if info.compressed {
            ctx.time("tracestore.decompress", |_| {
                let r = decompress_into(payload, info.raw_len as usize, &mut scratch);
                (r, u64::from(info.raw_len))
            })
            .map_err(|_| bad())?;
            &scratch
        } else {
            payload
        };
        let mut pos = 0;
        ctx.time("tracestore.decode", |_| {
            let r = decode_block(body, &mut pos, 0, body.len(), usize::MAX, &mut block);
            (r, u64::from(info.records))
        })
        .map_err(|_| bad())?;
        if block.len() != info.records as usize {
            return Err(bad());
        }
        stored += u64::from(info.stored_len);
        raw += u64::from(info.raw_len);
    }
    Ok((stored, raw))
}

fn count_compress_ratio(ctx: Ctx, (stored, raw): (u64, u64)) {
    if raw > 0 {
        ctx.count("tracestore.compress_ratio", stored as f64 / raw as f64);
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

// ---------------------------------------------------------------- offline

/// What `offline` ops are checked against.
struct OfflineReference {
    suite: String,
    /// [`CHECKED_CELLS`], in order, with sorted distributions.
    cells: Vec<CacheMetrics>,
}

/// `offline`: one caller opens the fleet archive, runs the Section-5
/// suite, then the 48-cell cache grid, both over pipelined reads.
pub struct Offline {
    fleet: PathBuf,
    reference: Option<OfflineReference>,
}

impl Offline {
    /// Prepares ops over the archive at `fleet`.
    pub fn new(fleet: &Path) -> Offline {
        Offline {
            fleet: fleet.to_path_buf(),
            reference: None,
        }
    }
}

impl Workload for Offline {
    /// `run_analyzers` over `Archive::read_all`, and [`CHECKED_CELLS`]
    /// by direct `Simulator::run_blocks`.
    fn reference(&mut self) -> Result<(), String> {
        let archive = Archive::open(&self.fleet)
            .map_err(|e| format!("open {}: {e}", self.fleet.display()))?;
        let (records, report) = archive.read_all();
        if !report.is_clean() {
            return Err(format!("{} has damaged chunks", self.fleet.display()));
        }
        let suite = render_suite(&fsanalysis::run_analyzers(records.iter(), &windows()));
        drop(records);
        let blocks = archive
            .blocks(Corruption::Fail)
            .collect::<Result<Vec<RecordBlock>, _>>()
            .map_err(|e| format!("blocks: {e}"))?;
        let configs = grid();
        let cells = CHECKED_CELLS
            .iter()
            .map(|&i| {
                let mut m = Simulator::run_blocks(blocks.iter(), &configs[i]);
                m.dirty_residency_ms.prepare();
                m
            })
            .collect();
        self.reference = Some(OfflineReference { suite, cells });
        Ok(())
    }

    fn op(&mut self, ctx: Ctx) -> Result<Done, String> {
        let configs = grid();
        let started = Instant::now();
        let op = ctx.begin("offline.op");
        let archive = open_archive(&self.fleet, op)?;
        let records = archive.meta().total_records;
        let suite = op.time("fsanalysis.run_analyzers_blocks", |analysis_ctx| {
            let source = Waited {
                inner: Arc::clone(&archive).pipelined(Corruption::Fail, PIPELINE_WORKERS),
                ctx: analysis_ctx,
            };
            (
                fsanalysis::run_analyzers_blocks(source, &windows()),
                records,
            )
        });
        let mut grid = op.time("cachesim.sweep", |sweep_ctx| {
            let expansions = cachesim::expansion_count();
            let counters = sweep_ctx.on().then(sweep_counters);
            let results = sweep::run_block_source(
                || Waited {
                    inner: Arc::clone(&archive).pipelined(Corruption::Fail, PIPELINE_WORKERS),
                    ctx: sweep_ctx,
                },
                &configs,
                SWEEP_JOBS,
            );
            sweep_ctx.count(
                "cachesim.expansions",
                (cachesim::expansion_count() - expansions) as f64,
            );
            if let (Some((p0, c0)), (p1, c1)) = (counters, sweep_counters()) {
                if c1 > c0 {
                    sweep_ctx.count(
                        "cachesim.profiled_cell_ratio",
                        (p1 - p0) as f64 / (c1 - c0) as f64,
                    );
                }
            }
            let grid: Vec<CacheMetrics> = results.into_iter().map(|(_, m)| m).collect();
            (grid, records * configs.len() as u64)
        });
        let suite = render_suite(&suite);
        op.end(records);
        let latency = started.elapsed();
        let reference = self
            .reference
            .as_ref()
            .ok_or("offline reference not computed")?;
        let ok = suite == reference.suite
            && grid.len() == configs.len()
            && CHECKED_CELLS
                .iter()
                .zip(&reference.cells)
                .all(|(&i, want)| {
                    grid[i].dirty_residency_ms.prepare();
                    grid[i] == *want
                });
        Ok(Done {
            latency,
            records,
            ok,
        })
    }

    /// The analysis call by call, then the pipeline workers' read
    /// stages chunk by chunk.
    fn replay(&mut self, ctx: Ctx, _done: &Done) -> Result<(), String> {
        // Not timed: the op's own open is.
        let archive = Archive::open(&self.fleet)
            .map_err(|e| format!("open {}: {e}", self.fleet.display()))?;
        let suite = render_suite(&analyze(&[Arc::new(archive)], &[], ctx));
        let reference = self
            .reference
            .as_ref()
            .ok_or("offline reference not computed")?;
        if suite != reference.suite {
            return Err(
                "the call-by-call replay of the analysis disagrees with the reference".into(),
            );
        }
        let ratio = read_stages(&self.fleet, ctx)?;
        count_compress_ratio(ctx, ratio);
        Ok(())
    }

    fn begin_timed(&mut self) -> Result<(), String> {
        daemon::reset_peak_rss("self").map_err(|e| format!("reset peak RSS: {e}"))
    }

    fn peak_rss_kb(&mut self) -> Result<u64, String> {
        daemon::peak_rss_kb("self").ok_or_else(|| "no VmHWM for this process".into())
    }

    fn finish(self: Box<Self>) -> Result<u64, String> {
        file_len(&self.fleet)
    }
}

/// `(cachesim.stack.profiled_cells, cachesim.sweep.cells)` so far.
fn sweep_counters() -> (u64, u64) {
    let snap = obs::global().snapshot();
    (
        snap.counter("cachesim.stack.profiled_cells").unwrap_or(0),
        snap.counter("cachesim.sweep.cells").unwrap_or(0),
    )
}

// ----------------------------------------------------------------- ingest

/// The fleet split into the per-machine streams clients send, each cut
/// into the epochs `mktrace --serve` sends it in.
pub struct Inputs {
    /// One machine-local stream per machine.
    pub streams: Vec<Vec<TraceRecord>>,
    /// Each stream's epochs: a `records` frame (unless empty) and a
    /// progress mark each.
    pub epochs: Vec<Vec<Epoch>>,
    /// Each machine's id offsets, declared in its `hello`.
    pub offsets: Vec<IdOffsets>,
    /// Records across all streams.
    pub records: u64,
}

/// The frames one ingest session sends, for the provenance line.
#[derive(Debug, Clone, Copy)]
pub struct FrameShape {
    /// `records` frames (epochs with records).
    pub records_frames: usize,
    /// Progress marks, `progress(MAX)` included.
    pub progress_marks: usize,
    /// Records in the largest frame.
    pub max_frame_records: usize,
}

impl Inputs {
    /// Splits `fleet` (the merged records of seed `seed`'s fleet).
    pub fn split(fleet_records: &[TraceRecord], seed: u64) -> Result<Inputs, String> {
        let config = fleet::config(seed);
        let streams = fleet::split_by_machine(fleet_records, &config)?;
        Ok(Inputs {
            epochs: streams
                .iter()
                .map(|s| fleet::epochs(s, config.epoch_ms))
                .collect(),
            offsets: (0..config.machines)
                .map(|m| config.machine_offsets(m))
                .collect(),
            records: fleet_records.len() as u64,
            streams,
        })
    }

    /// The frames a session sends.
    pub fn shape(&self) -> FrameShape {
        let all = || self.epochs.iter().flatten();
        FrameShape {
            records_frames: all().filter(|e| !e.records.is_empty()).count(),
            progress_marks: all().count(),
            max_frame_records: all().map(|e| e.records.len()).max().unwrap_or(0),
        }
    }

    /// The machines client `w` serves, in the order it serves them.
    fn machines_of(&self, w: usize) -> impl Iterator<Item = usize> {
        (w..self.streams.len()).step_by(CLIENTS)
    }
}

/// The shard policy the pinned daemon uses on `dir`.
fn shard_policy(dir: &Path) -> ShardPolicy {
    let config = daemon::config(dir);
    ShardPolicy {
        dir: config.dir,
        name: "served".into(),
        shard_target_bytes: config.shard_target_bytes,
        bucket_ms: config.bucket_ms,
        chunk_target_bytes: config.chunk_target_bytes,
        compress: config.compress,
    }
}

/// Counts an error reply from the daemon; every op that talks to the
/// daemon also records a zero, so the count exists when all is well.
fn client_err(ctx: Ctx, what: &str, e: std::io::Error) -> String {
    if e.to_string().starts_with("server error") {
        ctx.count("tracestored.err_replies", 1.0);
    }
    format!("{what}: {e}")
}

/// The client side of one ingest session, shaped like `mktrace --serve
/// --jobs 2`: [`CLIENTS`] threads, machines striped over them, one
/// connection per machine at a time. Each connection says `hello`, then
/// per epoch sends the epoch's records (no frame when it has none) and
/// a progress mark at its end; after the last epoch's records it sends
/// `progress(MAX)` and `fin`.
pub fn send_session(addr: &str, inputs: &Inputs, ctx: Ctx) -> Result<(), String> {
    let total = inputs.streams.len();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|w| {
                scope.spawn(move || -> Result<(), String> {
                    for m in inputs.machines_of(w) {
                        let stream = &inputs.streams[m];
                        let mut client = ctx
                            .time("tracestored.connect", |_| {
                                let c = Client::connect(addr).and_then(|mut c| {
                                    c.hello(total as u16, m as u16, inputs.offsets[m], "e2ebench")
                                        .map(|_| c)
                                });
                                (c, 0)
                            })
                            .map_err(|e| client_err(ctx, &format!("hello {m}"), e))?;
                        let epochs = &inputs.epochs[m];
                        for (i, epoch) in epochs.iter().enumerate() {
                            let frame = &stream[epoch.records.clone()];
                            let last = i + 1 == epochs.len();
                            ctx.time("tracestored.send", |_| {
                                let mut r = Ok(());
                                if !frame.is_empty() {
                                    r = client.send_records(frame);
                                }
                                if !last {
                                    r = r.and_then(|_| client.progress(epoch.end_ms));
                                }
                                (r, frame.len() as u64)
                            })
                            .map_err(|e| client_err(ctx, &format!("send {m}"), e))?;
                        }
                        let accepted = ctx
                            .time("tracestored.fin", |_| {
                                let r = client.progress(u64::MAX).and_then(|_| client.fin());
                                (r, 0)
                            })
                            .map_err(|e| client_err(ctx, &format!("fin {m}"), e))?;
                        if accepted != stream.len() as u64 {
                            return Err(format!(
                                "machine {m}: daemon accepted {accepted} of {}",
                                stream.len()
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Result<Vec<()>, String>>()
            .map(|_| ())
    })
}

fn shutdown(addr: &str, ctx: Ctx) -> Result<(), String> {
    ctx.time("tracestored.shutdown", |_| {
        (Client::connect(addr).and_then(|mut c| c.shutdown()), 0)
    })
    .map_err(|e| client_err(ctx, "shutdown", e))
}

fn shard_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tsa"))
        .collect();
    files.sort();
    Ok(files)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    shard_files(dir)?.iter().map(|p| file_len(p)).sum()
}

/// Same shard names, byte for byte the same contents.
fn dirs_identical(a: &Path, b: &Path) -> Result<bool, String> {
    let (fa, fb) = (shard_files(a)?, shard_files(b)?);
    if fa.len() != fb.len()
        || fa
            .iter()
            .zip(&fb)
            .any(|(x, y)| x.file_name() != y.file_name())
    {
        return Ok(false);
    }
    for (x, y) in fa.iter().zip(&fb) {
        let read = |p: &PathBuf| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
        if read(x)? != read(y)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The ingest reference: an offline [`FleetMerge`] of the inputs into a
/// [`ShardSet`] with the daemon's policy.
fn write_reference_shards(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut merge = FleetMerge::new(inputs.offsets.clone());
    for (m, stream) in inputs.streams.iter().enumerate() {
        for rec in stream {
            merge.push(m, rec);
        }
        merge.finish_input(m);
    }
    let mut shards = ShardSet::create(shard_policy(dir)).map_err(|e| format!("shards: {e}"))?;
    merge
        .finish(&mut shards)
        .map_err(|e| format!("reference merge: {e}"))?;
    shards
        .finish()
        .map_err(|e| format!("reference seal: {e}"))?;
    Ok(())
}

/// What the daemon does with one session, in-process: decode each
/// frame and push it into the merge with the offsets the connection
/// declared, apply each progress mark, and after each message release
/// into shards; then seal. Messages are taken in client order: the two
/// clients' messages alternate.
fn replay_daemon_ingest(inputs: &Inputs, dir: &Path, ctx: Ctx) -> Result<Vec<SealedShard>, String> {
    enum Step<'a> {
        Records(usize, &'a [TraceRecord]),
        Progress(usize, u64),
        Fin(usize),
    }
    let per_client: Vec<Vec<Step>> = (0..CLIENTS)
        .map(|w| {
            let mut steps = Vec::new();
            for m in inputs.machines_of(w) {
                let epochs = &inputs.epochs[m];
                for (i, epoch) in epochs.iter().enumerate() {
                    if !epoch.records.is_empty() {
                        steps.push(Step::Records(m, &inputs.streams[m][epoch.records.clone()]));
                    }
                    if i + 1 < epochs.len() {
                        steps.push(Step::Progress(m, epoch.end_ms));
                    }
                }
                steps.push(Step::Fin(m));
            }
            steps
        })
        .collect();
    let longest = per_client.iter().map(Vec::len).max().unwrap_or(0);
    let _ = std::fs::remove_dir_all(dir);
    let mut shards = ShardSet::create(shard_policy(dir)).map_err(|e| format!("shards: {e}"))?;
    let mut merge = FleetMerge::new(vec![IdOffsets::default(); inputs.streams.len()]);
    let mut released: Vec<TraceRecord> = Vec::new();
    let mut frame = Vec::new();
    for i in 0..longest {
        for steps in &per_client {
            let Some(step) = steps.get(i) else { continue };
            match *step {
                Step::Records(m, batch) => {
                    frame.clear();
                    protocol::encode_records(&mut frame, batch);
                    let records = ctx
                        .time("tracestored.frame_decode", |_| {
                            (protocol::decode_records(&frame), batch.len() as u64)
                        })
                        .map_err(|e| format!("frame decode: {e}"))?;
                    ctx.time("fstrace.merge", |_| {
                        for rec in &records {
                            merge.push(m, &remap_record(rec, inputs.offsets[m]));
                        }
                        (merge.release(&mut released), records.len() as u64)
                    })
                }
                Step::Progress(m, up_to_ms) => ctx.time("fstrace.merge", |_| {
                    merge.set_progress(m, up_to_ms);
                    (merge.release(&mut released), 0)
                }),
                Step::Fin(m) => ctx.time("fstrace.merge", |_| {
                    merge.set_progress(m, u64::MAX);
                    let r = merge.release(&mut released);
                    merge.finish_input(m);
                    (r.and_then(|_| merge.release(&mut released)), 0)
                }),
            }
            .map_err(|e| format!("merge: {e}"))?;
            if !released.is_empty() {
                ctx.time("tracestore.write", |_| {
                    let r = released.iter().try_for_each(|rec| shards.write_record(rec));
                    (r, released.len() as u64)
                })
                .map_err(|e| format!("shard write: {e}"))?;
                released.clear();
            }
        }
    }
    ctx.count("fstrace.merge_buffered_peak", merge.peak() as f64);
    let sealed = ctx
        .time("tracestore.seal", |_| (shards.finish(), 0))
        .map_err(|e| format!("seal: {e}"))?;
    ctx.count("tracestore.seals", sealed.len() as f64);
    Ok(sealed)
}

/// `ingest`: a daemon on an empty directory takes one session from two
/// client threads; the op ends at the `shutdown` ack, when every shard
/// is sealed and fsynced.
pub struct Ingest {
    exe: PathBuf,
    work: PathBuf,
    inputs: Inputs,
    peak_rss_kb: u64,
}

impl Ingest {
    /// Prepares ops over `inputs`; `work` holds the op and reference
    /// shard directories.
    pub fn new(exe: &Path, work: &Path, inputs: Inputs) -> Ingest {
        Ingest {
            exe: exe.to_path_buf(),
            work: work.to_path_buf(),
            inputs,
            peak_rss_kb: 0,
        }
    }
}

impl Workload for Ingest {
    fn reference(&mut self) -> Result<(), String> {
        write_reference_shards(&self.inputs, &self.work.join("ingest-reference"))
    }

    fn op(&mut self, ctx: Ctx) -> Result<Done, String> {
        let dir = self.work.join("ingest-op");
        let daemon = Daemon::start(&self.exe, &dir)?;
        let started = Instant::now();
        let op = ctx.begin("ingest.op");
        op.count("tracestored.err_replies", 0.0);
        send_session(&daemon.addr, &self.inputs, op)?;
        shutdown(&daemon.addr, op)?;
        op.end(self.inputs.records);
        let latency = started.elapsed();
        let exit = daemon.wait()?;
        op.count(
            "tracestored.backpressure_waits",
            exit.backpressure_waits as f64,
        );
        self.peak_rss_kb = self.peak_rss_kb.max(exit.peak_rss_kb);
        let ok = exit.records_merged == self.inputs.records
            && dirs_identical(&dir, &self.work.join("ingest-reference"))?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Done {
            latency,
            records: self.inputs.records,
            ok,
        })
    }

    fn replay(&mut self, ctx: Ctx, _done: &Done) -> Result<(), String> {
        let dir = self.work.join("ingest-replay");
        let sealed = replay_daemon_ingest(&self.inputs, &dir, ctx)?;
        if !dirs_identical(&dir, &self.work.join("ingest-reference"))? {
            return Err("the in-process replay of the daemon's ingest wrote other shards".into());
        }
        let mut ratio = (0, 0);
        for shard in &sealed {
            let archive = Archive::open(&shard.path)
                .map_err(|e| format!("open {}: {e}", shard.path.display()))?;
            for c in archive.chunks() {
                ratio.0 += u64::from(c.stored_len);
                ratio.1 += u64::from(c.raw_len);
            }
        }
        count_compress_ratio(ctx, ratio);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    fn begin_timed(&mut self) -> Result<(), String> {
        self.peak_rss_kb = 0;
        Ok(())
    }

    fn peak_rss_kb(&mut self) -> Result<u64, String> {
        Ok(self.peak_rss_kb)
    }

    fn finish(self: Box<Self>) -> Result<u64, String> {
        dir_bytes(&self.work.join("ingest-reference"))
    }

    fn frames(&self) -> Option<FrameShape> {
        Some(self.inputs.shape())
    }
}

// ------------------------------------------------------------------ query

/// `query`: one client, one connection, against a daemon preloaded with
/// one ingest session; an op is one `analyze` over all served data.
pub struct Query {
    daemon: Option<Daemon>,
    client: Client,
    dir: PathBuf,
    fleet_records: Vec<TraceRecord>,
    reference: String,
    preload: FrameShape,
}

impl Query {
    /// Starts the daemon on `work/query-shards` and ingests `inputs`.
    pub fn new(
        exe: &Path,
        work: &Path,
        fleet_records: Vec<TraceRecord>,
        inputs: &Inputs,
    ) -> Result<Query, String> {
        let dir = work.join("query-shards");
        let daemon = Daemon::start(exe, &dir)?;
        send_session(&daemon.addr, inputs, Ctx::off())?;
        let client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Query {
            daemon: Some(daemon),
            client,
            dir,
            fleet_records,
            reference: String::new(),
            preload: inputs.shape(),
        })
    }

    /// The snapshot the daemon answers from: its sealed shards in order,
    /// and the records of the open shard as the tail.
    fn snapshot(&self) -> Result<DataSnapshot, String> {
        let mut shards = shard_files(&self.dir)?;
        let mut sealed_records = 0u64;
        for (i, path) in shards.iter().enumerate() {
            match Archive::open(path) {
                Ok(archive) if !archive.footer_rebuilt() => {
                    sealed_records += archive.meta().total_records
                }
                // Only the newest shard can be open: no footer until it
                // is sealed, maybe not even a flushed header yet.
                _ if i + 1 == shards.len() => {
                    shards.pop();
                    break;
                }
                Ok(_) => return Err(format!("{} has no footer", path.display())),
                Err(e) => return Err(format!("open {}: {e}", path.display())),
            }
        }
        let tail = self
            .fleet_records
            .get(sealed_records as usize..)
            .ok_or("sealed shards hold more records than the fleet")?
            .to_vec();
        Ok(DataSnapshot { shards, tail })
    }
}

impl Workload for Query {
    /// `render_suite(run_analyzers(..))` over the fleet.
    fn reference(&mut self) -> Result<(), String> {
        self.reference = render_suite(&fsanalysis::run_analyzers(
            self.fleet_records.iter(),
            &windows(),
        ));
        Ok(())
    }

    fn op(&mut self, ctx: Ctx) -> Result<Done, String> {
        let records = self.fleet_records.len() as u64;
        let started = Instant::now();
        let op = ctx.begin("query.op");
        op.count("tracestored.err_replies", 0.0);
        let reply = op.time("tracestored.analyze", |_| (self.client.analyze(), 0));
        op.end(records);
        let latency = started.elapsed();
        let reply = reply.map_err(|e| client_err(op, "analyze", e))?;
        op.count("tracestored.reply_bytes", reply.len() as f64);
        Ok(Done {
            latency,
            records,
            ok: reply == self.reference,
        })
    }

    fn replay(&mut self, ctx: Ctx, done: &Done) -> Result<(), String> {
        let snapshot = self.snapshot()?;
        let started = Instant::now();
        let suite = ctx
            .time("tracestored.snapshot_analyze", |_| {
                (
                    snapshot.analyze(&windows(), daemon::QUERY_JOBS),
                    self.fleet_records.len() as u64,
                )
            })
            .map_err(|e| format!("snapshot analyze: {e}"))?;
        let text = ctx.time("tracestored.render", |_| (render_suite(&suite), 0));
        let in_process = started.elapsed();
        ctx.count(
            "tracestored.query_overhead_ms",
            (done.latency.as_secs_f64() - in_process.as_secs_f64()) * 1e3,
        );
        let archives = snapshot
            .shards
            .iter()
            .map(|p| open_archive(p, ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let decomposed = render_suite(&analyze(&archives, &snapshot.tail, ctx));
        if text != self.reference || decomposed != self.reference {
            return Err("the in-process replay of the query disagrees with the reference".into());
        }
        let mut ratio = (0, 0);
        for path in &snapshot.shards {
            let (s, r) = read_stages(path, ctx)?;
            ratio = (ratio.0 + s, ratio.1 + r);
        }
        count_compress_ratio(ctx, ratio);
        Ok(())
    }

    fn begin_timed(&mut self) -> Result<(), String> {
        let pid = self.daemon.as_ref().expect("daemon runs").pid();
        daemon::reset_peak_rss(&pid).map_err(|e| format!("reset daemon peak RSS: {e}"))
    }

    fn peak_rss_kb(&mut self) -> Result<u64, String> {
        let pid = self.daemon.as_ref().expect("daemon runs").pid();
        daemon::peak_rss_kb(&pid).ok_or_else(|| "no VmHWM for the daemon".into())
    }

    /// Stops the daemon cleanly, so every shard is sealed, then sizes
    /// them.
    fn finish(mut self: Box<Self>) -> Result<u64, String> {
        let daemon = self.daemon.take().expect("daemon runs until finish");
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        daemon.wait()?;
        dir_bytes(&self.dir)
    }

    /// The preload session's.
    fn frames(&self) -> Option<FrameShape> {
        Some(self.preload)
    }
}
