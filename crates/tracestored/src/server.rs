//! The daemon: concurrent ingest into one merged, sharded archive set,
//! plus queries over the wire.
//!
//! # Architecture
//!
//! One listener thread accepts; each connection gets a handler thread;
//! one shard-writer thread owns the [`ShardSet`].
//!
//! A handler reads frames with the reader clients read replies with
//! (`protocol`'s prefix read, its length rule, then
//! [`protocol::read_frame_body`]), through a buffer over an adapter
//! whose reads end as EOF does once shutdown is flagged. Only the
//! `GET ` sniff for `/metrics` on a connection's first four bytes and
//! the error reply to a bad length are the server's own. Batches
//! decode through [`protocol::decode_records`].
//!
//! The handlers share one mutex with a condvar. It covers the
//! [`FleetMerge`], which alone keeps each input's progress and whether
//! it has finished; each input's attach flag and record count; and the
//! sending end of the writer's queue. That is deliberate: the merge is
//! a *serializing* data structure (its whole point is one deterministic
//! output order), so a finer lock would buy nothing on the append path.
//! A handler decodes its frame outside the lock, then pushes and
//! releases under it; the release cuts the released records into
//! batches of at most [`WRITER_BATCH`] and queues them for the writer,
//! still under the lock, so the queue's order is the release order.
//!
//! The writer never takes the lock. It takes messages off its queue in
//! order: a record batch it encodes, compresses and writes into the
//! open shard (sealing and fsyncing shards as they fill); a snapshot
//! request it answers with its sealed paths and a copy of its tail; a
//! seal request it answers once the open shard is durable. A query
//! queues its snapshot request under the lock, so the snapshot holds
//! every record released before it, then waits for the reply and runs
//! on the handler thread without the lock, so an expensive analyzer
//! pass never stalls ingest. No handler thread encodes, compresses or
//! fsyncs under the lock.
//!
//! # Determinism
//!
//! Each connection is one merge input. Handlers remap their own records
//! by the offsets declared in `hello` *before* pushing (the merge's own
//! offsets are identity), then rely on [`FleetMerge`]'s
//! schedule-independence: the released stream is byte-identical to an
//! offline merge of the same per-input streams, no matter how the
//! connection threads interleave. The one writer writes that stream in
//! release order, so the shards are byte-identical too. The e2e tests
//! assert exactly that against [`fstrace::FleetMerge`] run offline.
//!
//! # Backpressure
//!
//! Two bounds, one per stage.
//!
//! *The merge* buffers only what the slowest input gates. A connection
//! that runs far ahead must wait, or an unbalanced fleet turns the
//! daemon into an unbounded buffer. After pushing a batch, a handler
//! waits on the condvar while the merge holds more than
//! `backpressure_records` *and* its own progress is strictly above the
//! fleet watermark, both as the merge reports them. The strict
//! comparison is the no-deadlock argument: the gating input (progress
//! equal to the watermark) never waits, so it keeps advancing the
//! watermark, which releases records and wakes the others.
//!
//! *The writer queue* holds [`WRITER_QUEUE`] messages. A release that
//! finds it full blocks, holding the lock, until the writer takes the
//! next message, so a slow disk slows ingest to the writer's pace
//! instead of growing the queue: at most `WRITER_QUEUE` + 2 batches of
//! released records are in memory (queued, being written, being cut).
//! The wait cannot deadlock, because the writer never takes the lock.
//! The gauge `tracestored.shard.writer_queue_peak` records how many
//! released records were at most waiting for the writer.
//!
//! # Metrics
//!
//! Metric names are bounded: the daemon registers totals
//! (`tracestored.conn.{opened,closed,killed}`,
//! `tracestored.ingest.records`, `tracestored.shard.{records_in,seals}`)
//! and no name per connection or shard, so `/metrics` does not grow
//! however many of either a daemon sees. Per-shard counts are in
//! [`ServerStats::shards`] and `tracefmt inspect DIR`.
//!
//! # Failure modes
//!
//! A connection that dies mid-frame loses at most that frame: frames
//! are decoded only when complete, so a partial `records` batch is
//! discarded wholesale and the input is force-finished — prior batches
//! stay merged, shards stay verifiable. A batch that goes back in time,
//! or whose ids the `hello` offsets would overflow, gets an error reply
//! and closes its connection before any of it reaches the merge. A
//! `shutdown` op closes ingest, force-finishes every input (attached
//! or not), drains the merge into the writer, waits out in-flight
//! queries, has the writer seal the open shard (fsync), then stops the
//! listener.
//!
//! A shard write error (a full disk, a removed directory) stops the
//! writer at that record and latches its message. From then on every
//! ingest op, query and `shutdown` gets an error reply naming it; a
//! `records` or `progress` frame, whose client reads no reply until
//! its next acknowledged op, also closes its connection. A handler
//! never waits on a dead writer: the writer's queue closes with it, so
//! a blocked send or a pending reply fails at once. `shutdown` still
//! stops the daemon, and [`Server::run`] returns the error.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use fstrace::codec::{get_varint, put_varint};
use fstrace::{FleetMerge, IdOffsets, RecordSink, TraceRecord};

use crate::protocol::{self, Hello};
use crate::query::{render_suite, DataSnapshot};
use crate::shard::{SealedShard, ShardPolicy, ShardSet};

/// How often an idle handler checks the shutdown flag.
const POLL: Duration = Duration::from_millis(50);
/// Most records one message to the shard writer carries.
pub const WRITER_BATCH: usize = 8192;
/// Messages the shard writer's queue holds before a send blocks.
pub const WRITER_QUEUE: usize = 2;

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Shard directory.
    pub dir: PathBuf,
    /// Shard stem and rotation rules; see [`ShardPolicy`].
    pub shard_target_bytes: u64,
    /// Wall-clock shard bucketing; `0` disables.
    pub bucket_ms: u64,
    /// Chunk rotation size inside each shard.
    pub chunk_target_bytes: usize,
    /// Compress chunk payloads.
    pub compress: bool,
    /// Merge occupancy above which a non-gating input waits.
    pub backpressure_records: usize,
    /// Activity windows for `analyze` queries (seconds).
    pub analysis_windows: Vec<u64>,
    /// Worker threads for pipelined query reads.
    pub query_jobs: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            dir: PathBuf::from("tracestored-data"),
            shard_target_bytes: 8 << 20,
            bucket_ms: 0,
            chunk_target_bytes: 64 << 10,
            compress: true,
            backpressure_records: 1 << 20,
            analysis_windows: vec![600, 10],
            query_jobs: 4,
        }
    }
}

/// What one completed daemon run produced.
#[derive(Debug)]
pub struct ServerStats {
    /// Every sealed shard, in stream order.
    pub shards: Vec<SealedShard>,
    /// Records accepted across all inputs (pre-merge count).
    pub records_in: u64,
    /// Records the merge released to the shard writer; all of them are
    /// in `shards` when `run` returns them.
    pub records_merged: u64,
}

/// Per-input ingest bookkeeping the merge does not keep; whether the
/// input has finished, and its progress, are the merge's.
struct InputState {
    attached: bool,
    /// Records accepted from this input.
    accepted: u64,
}

struct Ingest {
    merge: Option<FleetMerge>,
    inputs: Vec<InputState>,
    /// The shard writer's queue; `run` drops it to stop the writer.
    to_writer: Option<mpsc::SyncSender<ToWriter>>,
    queries_active: usize,
    /// Set by `shutdown`: refuse new ingest, wake waiters.
    closed: bool,
    records_in: u64,
}

impl Ingest {
    /// The merge. The first accepted `hello` creates it, so every
    /// handler that holds an input finds it.
    fn merge(&mut self) -> &mut FleetMerge {
        self.merge.as_mut().expect("merge exists after hello")
    }
}

struct Shared {
    state: Mutex<Ingest>,
    cond: Condvar,
    writer: Arc<WriterStatus>,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Shared {
    /// Queues `msg` on `to_writer`, the lock-held [`Ingest::to_writer`],
    /// so the queue order is the order of the lock's critical sections.
    fn to_writer(
        &self,
        to_writer: Option<&mpsc::SyncSender<ToWriter>>,
        msg: ToWriter,
    ) -> io::Result<()> {
        let tx = to_writer.ok_or_else(|| self.writer.error())?;
        tx.send(msg).map_err(|_| self.writer.error())
    }

    /// Queues a request built around a reply channel; the caller waits
    /// for the reply (without the lock) through [`Shared::reply`].
    fn ask<T>(
        &self,
        state: &Ingest,
        request: impl FnOnce(mpsc::SyncSender<T>) -> ToWriter,
    ) -> io::Result<mpsc::Receiver<T>> {
        let (reply, answer) = mpsc::sync_channel(1);
        self.to_writer(state.to_writer.as_ref(), request(reply))?;
        Ok(answer)
    }

    /// The writer's answer; fails at once if the writer stopped first.
    fn reply<T>(&self, answer: mpsc::Receiver<T>) -> io::Result<T> {
        answer.recv().map_err(|_| self.writer.error())
    }
}

/// What handlers queue for the shard writer, which applies them in
/// queue order.
enum ToWriter {
    /// Released records, in stream order.
    Records(Vec<TraceRecord>),
    /// A query's view of everything released before this message.
    Snapshot(mpsc::SyncSender<DataSnapshot>),
    /// Seal the open shard; answered once it is durable.
    Seal(mpsc::SyncSender<()>),
}

/// What the shard writer shares with handlers outside its queue.
struct WriterStatus {
    /// Released records queued and not yet written.
    queued: AtomicU64,
    /// High-water mark of `queued`.
    queue_peak: obs::Gauge,
    /// The writer's error, set once, just before it stops.
    failure: OnceLock<String>,
}

impl WriterStatus {
    fn new() -> WriterStatus {
        WriterStatus {
            queued: AtomicU64::new(0),
            queue_peak: obs::global().gauge("tracestored.shard.writer_queue_peak"),
            failure: OnceLock::new(),
        }
    }

    /// The latched write error, if the writer has stopped on one.
    fn failure(&self) -> Option<&str> {
        self.failure.get().map(String::as_str)
    }

    /// The error a handler reports once the writer is gone.
    fn error(&self) -> io::Error {
        io::Error::other(match self.failure() {
            Some(e) => format!("shard writer failed: {e}"),
            None => "shard writer stopped".into(),
        })
    }
}

/// The merge's sink under the lock: cuts released records into
/// batches of at most [`WRITER_BATCH`] and queues each for the writer.
struct Batches<'a> {
    shared: &'a Shared,
    to_writer: Option<&'a mpsc::SyncSender<ToWriter>>,
    batch: Vec<TraceRecord>,
}

impl Batches<'_> {
    fn send(&mut self) -> io::Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.batch);
        let n = batch.len() as u64;
        let status = &self.shared.writer;
        let queued = status.queued.fetch_add(n, Ordering::Relaxed) + n;
        status.queue_peak.record(queued);
        self.shared
            .to_writer(self.to_writer, ToWriter::Records(batch))
    }
}

impl RecordSink for Batches<'_> {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.batch.push(*rec);
        if self.batch.len() == WRITER_BATCH {
            self.send()?;
        }
        Ok(())
    }
}

/// The shard writer's body: applies each message in queue order, so
/// records land in release order and a snapshot or seal sees every
/// record released before it. Returns the sealed set once the queue
/// closes, or stops at the first error, which it latches in `status`
/// before its queue closes.
fn write_shards(
    mut shards: ShardSet,
    queue: mpsc::Receiver<ToWriter>,
    status: &WriterStatus,
) -> io::Result<Vec<SealedShard>> {
    let mut apply = |msg: ToWriter| -> io::Result<()> {
        match msg {
            ToWriter::Records(batch) => {
                for rec in &batch {
                    shards.write_record(rec)?;
                }
                status
                    .queued
                    .fetch_sub(batch.len() as u64, Ordering::Relaxed);
            }
            // A requester that gave up is not the writer's problem.
            ToWriter::Snapshot(reply) => {
                let _ = reply.send(DataSnapshot {
                    shards: shards.sealed().iter().map(|s| s.path.clone()).collect(),
                    tail: shards.tail().to_vec(),
                });
            }
            ToWriter::Seal(reply) => {
                shards.seal_open()?;
                let _ = reply.send(());
            }
        }
        Ok(())
    };
    let written = queue.iter().try_for_each(&mut apply);
    let written = written.and_then(|()| shards.finish());
    if let Err(e) = &written {
        let _ = status.failure.set(e.to_string());
    }
    written
}

/// The daemon. [`Server::bind`] then [`Server::run`]; `run` blocks
/// until a client sends the `shutdown` op.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    writer: JoinHandle<io::Result<Vec<SealedShard>>>,
}

impl Server {
    /// Binds the listener, prepares the shard directory, and starts the
    /// shard writer.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let shards = ShardSet::create(ShardPolicy {
            dir: config.dir.clone(),
            name: "served".into(),
            shard_target_bytes: config.shard_target_bytes,
            bucket_ms: config.bucket_ms,
            chunk_target_bytes: config.chunk_target_bytes,
            compress: config.compress,
        })?;
        let (to_writer, queue) = mpsc::sync_channel(WRITER_QUEUE);
        let status = Arc::new(WriterStatus::new());
        let writer = {
            let status = Arc::clone(&status);
            std::thread::Builder::new()
                .name("tracestored-writer".into())
                .spawn(move || write_shards(shards, queue, &status))?
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(Ingest {
                merge: None,
                inputs: Vec::new(),
                to_writer: Some(to_writer),
                queries_active: 0,
                closed: false,
                records_in: 0,
            }),
            cond: Condvar::new(),
            writer: status,
            shutdown: AtomicBool::new(false),
            config,
        });
        Ok(Server {
            listener,
            shared,
            writer,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown; returns what was ingested, or the shard
    /// writer's error.
    pub fn run(self) -> io::Result<ServerStats> {
        let served = self.serve_connections();
        // On every path, close the writer's queue and join it: it seals
        // the open shard and returns the set, or its latched error.
        let (records_in, records_merged) = {
            let mut state = self.shared.state.lock().expect("server lock");
            state.to_writer = None;
            let merged = state.merge.as_ref().map_or(0, |m| m.released());
            (state.records_in, merged)
        };
        let written = self
            .writer
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("shard writer panicked")));
        served?;
        Ok(ServerStats {
            shards: written?,
            records_in,
            records_merged,
        })
    }

    /// Accepts connections until a `shutdown` op, then joins their
    /// handlers.
    fn serve_connections(&self) -> io::Result<()> {
        let mut handlers = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let shared = Arc::clone(&self.shared);
            handlers.push(std::thread::spawn(move || {
                // A handler error is that connection's problem, not
                // the daemon's: log-free drop, state already repaired
                // by the kill path inside.
                let _ = Connection::new(shared).serve(stream);
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// The socket as the protocol's frame reader sees it. The socket's
/// read timeout wakes a blocked read every [`POLL`]; once shutdown is
/// flagged, the read ends as EOF does, which ends an idle connection
/// cleanly and tears a half-read frame.
struct Polled<'a> {
    stream: &'a TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Ok(0);
                    }
                }
                read => return read,
            }
        }
    }
}

/// One connection's handler state.
struct Connection {
    shared: Arc<Shared>,
    /// Merge input this connection drives, once `hello` arrives.
    input: Option<(usize, IdOffsets)>,
    /// Time of the last accepted record, for order validation.
    last_ticks: u64,
}

impl Connection {
    fn new(shared: Arc<Shared>) -> Connection {
        Connection {
            shared,
            input: None,
            last_ticks: 0,
        }
    }

    fn serve(mut self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(POLL))?;
        stream.set_nodelay(true).ok();
        let reg = obs::global();
        reg.counter("tracestored.conn.opened").inc();
        let result = self.serve_inner(&mut stream);
        reg.counter("tracestored.conn.closed").inc();
        // A connection that never said `fin` must not gate the merge
        // forever — whether it died, errored, or was shut down.
        self.finish_input_if_open();
        result
    }

    fn serve_inner(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        let (socket, shared) = (stream.try_clone()?, Arc::clone(&self.shared));
        let mut polled = Polled {
            stream: &socket,
            shutdown: &shared.shutdown,
        };
        // The first prefix is read unbuffered, so an HTTP request's
        // remaining head is still on the socket for `serve_metrics`.
        let Some(first) = protocol::read_prefix(&mut polled)? else {
            return Ok(());
        };
        if &first == b"GET " {
            // An HTTP client asking for /metrics; not our protocol.
            return self.serve_metrics(stream);
        }
        // Frames, from that first prefix on, go through a buffer: one
        // read of the socket takes a frame's prefix, op byte and short
        // payload together.
        let mut frames = BufReader::new(first.as_slice().chain(polled));
        loop {
            let Some(prefix) = protocol::read_prefix(&mut frames)? else {
                return Ok(());
            };
            if let Err(e) = protocol::frame_len(prefix) {
                protocol::write_err(stream, &e.to_string())?;
                return Err(e);
            }
            // A torn frame is an error: discard it, the kill path
            // cleans up.
            let (op, payload) = protocol::read_frame_body(&mut frames, prefix)?;
            // A failed writer fails every later op; `shutdown` still
            // stops the daemon, and reports the failure itself.
            if op != protocol::OP_SHUTDOWN && self.shared.writer.failure().is_some() {
                refuse(stream, op, &self.shared.writer.error())?;
                continue;
            }
            match op {
                protocol::OP_HELLO => self.op_hello(stream, &payload)?,
                protocol::OP_RECORDS => self.op_records(stream, &payload)?,
                protocol::OP_PROGRESS => self.op_progress(stream, &payload)?,
                protocol::OP_FIN => {
                    self.op_fin(stream)?;
                    // The input is done; keep serving (queries allowed).
                }
                protocol::OP_SUMMARY
                | protocol::OP_RANGE
                | protocol::OP_ANALYZE
                | protocol::OP_SWEEP => self.op_query(stream, op, &payload)?,
                protocol::OP_SHUTDOWN => {
                    self.op_shutdown(stream)?;
                    return Ok(());
                }
                other => {
                    protocol::write_err(stream, &format!("unknown op {other:#04x}"))?;
                }
            }
        }
    }

    fn op_hello(&mut self, stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
        let hello = match Hello::decode(payload) {
            Ok(h) => h,
            Err(e) => return protocol::write_err(stream, &format!("bad hello: {e}")),
        };
        if self.input.is_some() {
            return protocol::write_err(stream, "duplicate hello");
        }
        if hello.total_inputs == 0 || hello.input_index >= hello.total_inputs {
            return protocol::write_err(stream, "input index out of range");
        }
        let total = hello.total_inputs as usize;
        let index = hello.input_index as usize;
        {
            let mut state = self.shared.state.lock().expect("server lock");
            if state.closed {
                return protocol::write_err(stream, "server is shutting down");
            }
            match &state.merge {
                None => {
                    // First hello fixes the session geometry. The merge
                    // gets identity offsets: each handler remaps its own
                    // records before pushing, which is what makes the
                    // output byte-identical to an offline merge with the
                    // declared offsets.
                    state.merge = Some(FleetMerge::new(vec![IdOffsets::default(); total]));
                    state.inputs = (0..total)
                        .map(|_| InputState {
                            attached: false,
                            accepted: 0,
                        })
                        .collect();
                }
                Some(merge) => {
                    if merge.input_count() != total {
                        return protocol::write_err(
                            stream,
                            &format!(
                                "session has {} inputs, hello declared {total}",
                                merge.input_count()
                            ),
                        );
                    }
                }
            }
            if state.inputs[index].attached {
                return protocol::write_err(stream, &format!("input {index} already attached"));
            }
            state.inputs[index].attached = true;
        }
        self.input = Some((index, hello.offsets));
        protocol::write_ok(stream, &[])
    }

    fn op_records(&mut self, stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
        let Some((index, offsets)) = self.input else {
            return protocol::write_err(stream, "records before hello");
        };
        let mut records = match protocol::decode_records(payload) {
            Ok(r) => r,
            Err(e) => {
                protocol::write_err(stream, &format!("bad record batch: {e}"))?;
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
        };
        // Validate order and shift ids before touching the merge: one
        // bad client must not poison the shared state (FleetMerge
        // asserts on regress, and `hello` offsets may overflow an id).
        for rec in &mut records {
            let ticks = rec.time.as_ticks();
            if ticks < self.last_ticks {
                protocol::write_err(stream, "records out of order within input")?;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "records out of order",
                ));
            }
            self.last_ticks = ticks;
            let Some(shifted) = offsets.checked_remap(rec) else {
                protocol::write_err(
                    stream,
                    "bad record batch: an id overflows its input's offset",
                )?;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "id offset overflow",
                ));
            };
            *rec = shifted;
        }
        let n = records.len() as u64;
        let mut state = self.shared.state.lock().expect("server lock");
        if state.closed || state.merge().progress(index).is_none() {
            return protocol::write_err(stream, "input is closed");
        }
        let merge = state.merge();
        for rec in &records {
            merge.push(index, rec);
        }
        state.inputs[index].accepted += n;
        state.records_in += n;
        if let Err(e) = self.release_locked(&mut state) {
            drop(state);
            return refuse(stream, protocol::OP_RECORDS, &e);
        }
        obs::global().counter("tracestored.ingest.records").add(n);
        // Backpressure: wait while the merge is over budget and some
        // *other* input is strictly behind us (we are not the gate).
        loop {
            let merge = state.merge();
            let over = merge.buffered() > self.shared.config.backpressure_records;
            let behind_gate = (merge.progress(index).zip(merge.watermark()))
                .is_some_and(|(ours, gate)| ours > gate);
            if state.closed || !over || !behind_gate {
                break;
            }
            obs::global()
                .counter("tracestored.ingest.backpressure_waits")
                .inc();
            let (guard, _timeout) = self
                .shared
                .cond
                .wait_timeout(state, POLL)
                .expect("server lock");
            state = guard;
        }
        Ok(())
    }

    fn op_progress(&mut self, stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
        let Some((index, _)) = self.input else {
            return Ok(()); // Progress before hello: ignore, unacked op.
        };
        let mut pos = 0;
        let Ok(up_to_ms) = get_varint(payload, &mut pos) else {
            return Ok(());
        };
        let mut state = self.shared.state.lock().expect("server lock");
        if state.closed || state.merge().progress(index).is_none() {
            return Ok(());
        }
        state.merge().set_progress(index, up_to_ms);
        let released = self.release_locked(&mut state);
        self.shared.cond.notify_all();
        drop(state);
        released.or_else(|e| refuse(stream, protocol::OP_PROGRESS, &e))
    }

    fn op_fin(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        let Some((index, _)) = self.input else {
            return protocol::write_err(stream, "fin before hello");
        };
        let accepted = {
            let mut state = self.shared.state.lock().expect("server lock");
            let mut released = Ok(());
            if state.merge().progress(index).is_some() {
                state.merge().finish_input(index);
                released = self.release_locked(&mut state);
                self.shared.cond.notify_all();
            }
            released.map(|()| state.inputs[index].accepted)
        };
        match accepted {
            Ok(accepted) => {
                let mut reply = Vec::new();
                put_varint(&mut reply, accepted);
                protocol::write_ok(stream, &reply)
            }
            Err(e) => protocol::write_err(stream, &e.to_string()),
        }
    }

    /// Releases merge output to the shard writer. Call with the lock
    /// held.
    fn release_locked(&self, state: &mut Ingest) -> io::Result<()> {
        let Ingest {
            merge: Some(merge),
            to_writer,
            ..
        } = state
        else {
            return Ok(());
        };
        let mut batches = Batches {
            shared: &self.shared,
            to_writer: to_writer.as_ref(),
            batch: Vec::new(),
        };
        let released = merge.release(&mut batches)?;
        batches.send()?;
        if released > 0 {
            self.shared.cond.notify_all();
        }
        Ok(())
    }

    fn op_query(&mut self, stream: &mut TcpStream, op: u8, payload: &[u8]) -> io::Result<()> {
        let answer = {
            let mut state = self.shared.state.lock().expect("server lock");
            state.queries_active += 1;
            self.shared.ask(&state, ToWriter::Snapshot)
        };
        let result = answer
            .and_then(|answer| self.shared.reply(answer))
            .and_then(|snapshot| self.query(snapshot, op, payload));
        {
            let mut state = self.shared.state.lock().expect("server lock");
            state.queries_active -= 1;
            self.shared.cond.notify_all();
        }
        match result {
            Ok(reply) => protocol::write_ok(stream, &reply),
            Err(e) => protocol::write_err(stream, &e.to_string()),
        }
    }

    /// Runs query `op` over `snapshot`; returns the reply body.
    fn query(&self, snapshot: DataSnapshot, op: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
        let _query_span = obs::global().span("tracestored.query").start();
        let jobs = self.shared.config.query_jobs;
        let varint = |pos: &mut usize| {
            get_varint(payload, pos)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        };
        match op {
            protocol::OP_SUMMARY => snapshot.summary(jobs).map(|s| s.to_string().into_bytes()),
            protocol::OP_ANALYZE => snapshot
                .analyze(&self.shared.config.analysis_windows, jobs)
                .map(|suite| render_suite(&suite).into_bytes()),
            protocol::OP_RANGE => {
                let mut pos = 0;
                let from_ms = varint(&mut pos)?;
                let to_ms = varint(&mut pos)?;
                let records = snapshot.range(from_ms, to_ms)?;
                let mut out = Vec::new();
                protocol::encode_records(&mut out, &records);
                Ok(out)
            }
            protocol::OP_SWEEP => {
                let mut pos = 0;
                let count = varint(&mut pos)?;
                if count > protocol::MAX_SWEEP_SIZES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "sweep: {count} sizes requested, over the cap of {}",
                            protocol::MAX_SWEEP_SIZES
                        ),
                    ));
                }
                let sizes = (0..count)
                    .map(|_| varint(&mut pos))
                    .collect::<io::Result<Vec<u64>>>()?;
                snapshot.sweep(&sizes, jobs).map(String::into_bytes)
            }
            _ => unreachable!("dispatch only sends query ops"),
        }
    }

    fn op_shutdown(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        let sealed = self.drain_and_seal();
        // Stop even when the writer failed: `run` then returns its error.
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the accept loop so run() can join and return.
        if let Ok(addr) = stream.local_addr() {
            let _ = TcpStream::connect(addr);
        }
        match sealed {
            Ok(()) => protocol::write_ok(stream, &[]),
            Err(e) => protocol::write_err(stream, &e.to_string()),
        }
    }

    /// Closes ingest, drains the merge into the writer, waits out
    /// in-flight queries, and has the writer seal the open shard.
    fn drain_and_seal(&self) -> io::Result<()> {
        let sealed = {
            let mut state = self.shared.state.lock().expect("server lock");
            state.closed = true;
            // Force-finish every input, attached or not, so the merge
            // drains fully: an input that `hello` declared but that
            // never connected would otherwise hold the watermark.
            if let Some(merge) = state.merge.as_mut() {
                for i in 0..merge.input_count() {
                    merge.finish_input(i);
                }
            }
            let released = self.release_locked(&mut state);
            self.shared.cond.notify_all();
            // Drain in-flight queries before sealing under them.
            while state.queries_active > 0 {
                let (guard, _t) = self
                    .shared
                    .cond
                    .wait_timeout(state, POLL)
                    .expect("server lock");
                state = guard;
            }
            released.and_then(|()| self.shared.ask(&state, ToWriter::Seal))?
        };
        self.shared.reply(sealed)
    }

    /// Plain-text metrics for an HTTP GET on the same port.
    fn serve_metrics(&self, stream: &mut TcpStream) -> io::Result<()> {
        // Drain the request head; we answer any GET with the one page.
        let mut head = [0u8; 1024];
        let _ = stream.read(&mut head);
        let snap = obs::global().snapshot();
        let mut body = String::new();
        let clean = |name: &str| name.replace(['.', '-'], "_");
        for (name, value) in &snap.counters {
            body.push_str(&format!("{} {}\n", clean(name), value));
        }
        for (name, value) in &snap.gauges {
            body.push_str(&format!("{} {}\n", clean(name), value));
        }
        for (name, span) in &snap.spans {
            body.push_str(&format!("{}_count {}\n", clean(name), span.count));
            body.push_str(&format!("{}_total_ns {}\n", clean(name), span.total_ns));
        }
        for (name, hist) in &snap.histograms {
            body.push_str(&format!("{}_count {}\n", clean(name), hist.count));
        }
        let response = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(response.as_bytes())
    }

    /// The kill path: a connection that attached but never finished
    /// must not gate the merge forever.
    fn finish_input_if_open(&self) {
        let Some((index, _)) = self.input else {
            return;
        };
        let mut state = self.shared.state.lock().expect("server lock");
        if state.merge().progress(index).is_some() {
            state.merge().finish_input(index);
            let _ = self.release_locked(&mut state);
            obs::global().counter("tracestored.conn.killed").inc();
            self.shared.cond.notify_all();
        }
    }
}

/// Answers `op` with `err`. A `records` or `progress` frame's client
/// reads no reply until its next acknowledged op, so those frames also
/// close the connection rather than queue replies nobody reads.
fn refuse(stream: &mut TcpStream, op: u8, err: &io::Error) -> io::Result<()> {
    protocol::write_err(stream, &err.to_string())?;
    match op {
        protocol::OP_RECORDS | protocol::OP_PROGRESS => {
            Err(io::Error::new(err.kind(), err.to_string()))
        }
        _ => Ok(()),
    }
}

/// Spawns the server on a background thread; the common test/bench
/// harness. Returns the bound address and the join handle.
pub fn spawn(
    config: ServerConfig,
) -> io::Result<(SocketAddr, std::thread::JoinHandle<io::Result<ServerStats>>)> {
    let server = Server::bind(config)?;
    let addr = server.local_addr()?;
    let handle = std::thread::spawn(move || server.run());
    Ok((addr, handle))
}
