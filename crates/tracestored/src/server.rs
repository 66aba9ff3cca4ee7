//! The daemon: concurrent ingest into one merged, sharded archive set,
//! plus queries over the wire.
//!
//! # Architecture
//!
//! One listener thread accepts; each connection gets a handler thread.
//! All ingest state lives behind a single mutex with a condvar: the
//! [`FleetMerge`], which alone keeps each input's progress and whether
//! it has finished; each input's attach flag and record count; and the
//! [`ShardSet`]. That is deliberate: the merge is a *serializing* data
//! structure (its whole point is one deterministic output order), so a
//! finer lock would buy nothing on the append path. Queries copy a
//! [`DataSnapshot`] out under the lock and run on the handler thread
//! without it, so an expensive analyzer pass never stalls ingest.
//!
//! # Determinism
//!
//! Each connection is one merge input. Handlers remap their own records
//! by the offsets declared in `hello` *before* pushing (the merge's own
//! offsets are identity), then rely on [`FleetMerge`]'s
//! schedule-independence: the released stream is byte-identical to an
//! offline merge of the same per-input streams, no matter how the
//! connection threads interleave. The e2e tests assert exactly that
//! against [`fstrace::FleetMerge`] run offline.
//!
//! # Backpressure
//!
//! The merge buffers only what the slowest input gates. A connection
//! that runs far ahead must wait, or an unbalanced fleet turns the
//! daemon into an unbounded buffer. After pushing a batch, a handler
//! waits on the condvar while the merge holds more than
//! `backpressure_records` *and* its own progress is strictly above the
//! fleet watermark, both as the merge reports them. The strict
//! comparison is the no-deadlock argument: the gating input (progress
//! equal to the watermark) never waits, so it keeps advancing the
//! watermark, which releases records and wakes the others.
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
//! or not), drains the merge, seals every shard (fsync), waits out
//! in-flight queries, then stops the listener.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use fstrace::codec::{get_varint, put_varint};
use fstrace::{FleetMerge, IdOffsets};

use crate::protocol::{self, Hello};
use crate::query::{render_suite, DataSnapshot};
use crate::shard::{SealedShard, ShardPolicy, ShardSet};

/// How often an idle handler checks the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

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
    /// Records released through the merge into shards.
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
    shards: Option<ShardSet>,
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
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    config: ServerConfig,
}

/// The daemon. [`Server::bind`] then [`Server::run`]; `run` blocks
/// until a client sends the `shutdown` op.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and prepares the shard directory.
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
        let shared = Arc::new(Shared {
            state: Mutex::new(Ingest {
                merge: None,
                inputs: Vec::new(),
                shards: Some(shards),
                queries_active: 0,
                closed: false,
                records_in: 0,
            }),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown; returns what was ingested.
    pub fn run(self) -> io::Result<ServerStats> {
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
        let mut state = self.shared.state.lock().expect("server lock");
        let records_in = state.records_in;
        let merged = state.merge.as_ref().map_or(0, |m| m.released());
        let shards = state
            .shards
            .take()
            .expect("shards present until run() ends")
            .finish()?;
        Ok(ServerStats {
            shards,
            records_in,
            records_merged: merged,
        })
    }
}

/// How a blocking read ended.
enum ReadOutcome {
    Full,
    CleanEof,
    Shutdown,
}

/// One connection's handler state.
struct Connection {
    shared: Arc<Shared>,
    /// Merge input this connection drives, once `hello` arrives.
    input: Option<(usize, IdOffsets)>,
    /// Time of the last accepted record, for order validation.
    last_ticks: u64,
    conn_id: u64,
}

impl Connection {
    fn new(shared: Arc<Shared>) -> Connection {
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        Connection {
            shared,
            input: None,
            last_ticks: 0,
            conn_id,
        }
    }

    /// Fills `buf`, polling the shutdown flag while idle. Once bytes
    /// have arrived, EOF mid-buffer is an error (torn frame).
    fn read_full(&self, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        let mut got = 0;
        while got < buf.len() {
            match stream.read(&mut buf[got..]) {
                Ok(0) if got == 0 => return Ok(ReadOutcome::CleanEof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection dropped mid-frame",
                    ))
                }
                Ok(n) => got += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        return Ok(ReadOutcome::Shutdown);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(ReadOutcome::Full)
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
        let mut prefix = [0u8; 4];
        loop {
            match self.read_full(stream, &mut prefix)? {
                ReadOutcome::CleanEof | ReadOutcome::Shutdown => return Ok(()),
                ReadOutcome::Full => {}
            }
            if &prefix == b"GET " {
                // An HTTP client asking for /metrics; not our protocol.
                return self.serve_metrics(stream);
            }
            let len = u32::from_le_bytes(prefix);
            if len == 0 || len > protocol::MAX_FRAME {
                protocol::write_err(stream, &format!("bad frame length {len}"))?;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad frame length",
                ));
            }
            let body = protocol::read_body(len as usize, |buf| {
                match self.read_full(stream, buf)? {
                    ReadOutcome::Full => Ok(()),
                    // Torn frame: discard, kill path cleans up.
                    ReadOutcome::CleanEof | ReadOutcome::Shutdown => Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection dropped mid-frame",
                    )),
                }
            })?;
            let op = body[0];
            let payload = &body[1..];
            match op {
                protocol::OP_HELLO => self.op_hello(stream, payload)?,
                protocol::OP_RECORDS => self.op_records(stream, payload)?,
                protocol::OP_PROGRESS => self.op_progress(payload)?,
                protocol::OP_FIN => {
                    self.op_fin(stream)?;
                    // The input is done; keep serving (queries allowed).
                }
                protocol::OP_SUMMARY
                | protocol::OP_RANGE
                | protocol::OP_ANALYZE
                | protocol::OP_SWEEP => self.op_query(stream, op, payload)?,
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
        obs::global()
            .counter(&format!("tracestored.conn.{}.attached", self.conn_id))
            .inc();
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
        self.release_locked(&mut state)?;
        obs::global()
            .counter(&format!("tracestored.conn.{}.records_in", self.conn_id))
            .add(n);
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

    fn op_progress(&mut self, payload: &[u8]) -> io::Result<()> {
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
        self.release_locked(&mut state)?;
        self.shared.cond.notify_all();
        Ok(())
    }

    fn op_fin(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        let Some((index, _)) = self.input else {
            return protocol::write_err(stream, "fin before hello");
        };
        let accepted = {
            let mut state = self.shared.state.lock().expect("server lock");
            if state.merge().progress(index).is_some() {
                state.merge().finish_input(index);
                self.release_locked(&mut state)?;
                self.shared.cond.notify_all();
            }
            state.inputs[index].accepted
        };
        let mut reply = Vec::new();
        put_varint(&mut reply, accepted);
        protocol::write_ok(stream, &reply)
    }

    /// Releases merge output into the shards. Call with the lock held.
    fn release_locked(&self, state: &mut Ingest) -> io::Result<()> {
        let Ingest { merge, shards, .. } = state;
        let (Some(merge), Some(shards)) = (merge.as_mut(), shards.as_mut()) else {
            return Ok(());
        };
        let wrote = merge.release(shards)?;
        if wrote > 0 {
            self.shared.cond.notify_all();
        }
        Ok(())
    }

    fn op_query(&mut self, stream: &mut TcpStream, op: u8, payload: &[u8]) -> io::Result<()> {
        let snapshot = {
            let mut state = self.shared.state.lock().expect("server lock");
            let shards = state.shards.as_ref().expect("shards live while serving");
            let snapshot = DataSnapshot {
                shards: shards.sealed().iter().map(|s| s.path.clone()).collect(),
                tail: shards.tail().to_vec(),
            };
            state.queries_active += 1;
            snapshot
        };
        let _query_span = obs::global().span("tracestored.query").start();
        let jobs = self.shared.config.query_jobs;
        let result: io::Result<Vec<u8>> =
            match op {
                protocol::OP_SUMMARY => snapshot.summary(jobs).map(|s| s.to_string().into_bytes()),
                protocol::OP_ANALYZE => snapshot
                    .analyze(&self.shared.config.analysis_windows, jobs)
                    .map(|suite| render_suite(&suite).into_bytes()),
                protocol::OP_RANGE => (|| {
                    let mut pos = 0;
                    let from_ms = get_varint(payload, &mut pos)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    let to_ms = get_varint(payload, &mut pos)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    let records = snapshot.range(from_ms, to_ms)?;
                    let mut out = Vec::new();
                    protocol::encode_records(&mut out, &records);
                    Ok(out)
                })(),
                protocol::OP_SWEEP => (|| {
                    let mut pos = 0;
                    let count = get_varint(payload, &mut pos)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    if count > protocol::MAX_SWEEP_SIZES {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!(
                                "sweep: {count} sizes requested, over the cap of {}",
                                protocol::MAX_SWEEP_SIZES
                            ),
                        ));
                    }
                    let mut sizes = Vec::new();
                    for _ in 0..count {
                        sizes.push(get_varint(payload, &mut pos).map_err(|e| {
                            io::Error::new(io::ErrorKind::InvalidData, e.to_string())
                        })?);
                    }
                    snapshot.sweep(&sizes, jobs).map(String::into_bytes)
                })(),
                _ => unreachable!("dispatch only sends query ops"),
            };
        {
            let mut state = self.shared.state.lock().expect("server lock");
            state.queries_active -= 1;
            self.shared.cond.notify_all();
        }
        obs::global()
            .counter(&format!("tracestored.conn.{}.queries", self.conn_id))
            .inc();
        match result {
            Ok(reply) => protocol::write_ok(stream, &reply),
            Err(e) => protocol::write_err(stream, &e.to_string()),
        }
    }

    fn op_shutdown(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        {
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
            self.release_locked(&mut state)?;
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
            if let Some(shards) = state.shards.as_mut() {
                shards.seal_open()?;
            }
        }
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the accept loop so run() can join and return.
        if let Ok(addr) = stream.local_addr() {
            let _ = TcpStream::connect(addr);
        }
        protocol::write_ok(stream, &[])
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
