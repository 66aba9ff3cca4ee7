//! End-to-end daemon tests over a loopback port.
//!
//! The core contract under test: a daemon fed by N concurrent ingest
//! connections produces a shard directory **byte-identical** to an
//! offline [`FleetMerge`] of the same per-input streams run through an
//! identically configured [`ShardSet`] — and its query replies equal
//! the same analyses computed locally.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use fstrace::source::FleetMerge;
use fstrace::{AccessMode, FileId, IdOffsets, OpenId, TraceEvent, TraceRecord, UserId};
use tracestored::{
    fetch_metrics, protocol, render_suite, Client, ServerConfig, ShardPolicy, ShardSet,
};

/// A synthetic per-machine stream exercising every event kind, in
/// nondecreasing time order. Streams differ by seed so the merge
/// actually interleaves.
fn machine_stream(seed: u64, n: u64) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for i in 0..n {
        let t = i * (20 + seed * 7);
        let open = OpenId(i);
        let file = FileId(i % (5 + seed));
        let user = UserId((i % 3) as u32);
        out.push(TraceRecord::new(
            t,
            TraceEvent::Open {
                open_id: open,
                file_id: file,
                user_id: user,
                mode: if i % 2 == 0 {
                    AccessMode::ReadOnly
                } else {
                    AccessMode::WriteOnly
                },
                size: 512 * (i + 1),
                created: i % 4 == 0,
            },
        ));
        if i % 3 == 0 {
            out.push(TraceRecord::new(
                t + 5,
                TraceEvent::Seek {
                    open_id: open,
                    old_pos: 512,
                    new_pos: 0,
                },
            ));
        }
        out.push(TraceRecord::new(
            t + 10,
            TraceEvent::Close {
                open_id: open,
                final_pos: 512 * (i + 1),
            },
        ));
        if i % 7 == 0 {
            out.push(TraceRecord::new(
                t + 10,
                TraceEvent::Unlink {
                    file_id: file,
                    user_id: user,
                },
            ));
        }
        if i % 11 == 0 {
            out.push(TraceRecord::new(
                t + 10,
                TraceEvent::Execve {
                    file_id: file,
                    user_id: user,
                    size: 4096,
                },
            ));
        }
    }
    out
}

fn offsets_for(i: usize) -> IdOffsets {
    IdOffsets {
        open: i as u64 * 100_000,
        file: i as u64 * 100_000,
        user: i as u32 * 1_000,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracestored-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canonical offline result: FleetMerge of the raw streams with
/// the declared offsets, through an identically configured ShardSet.
fn offline_shards(
    streams: &[Vec<TraceRecord>],
    policy: ShardPolicy,
) -> (Vec<TraceRecord>, Vec<PathBuf>) {
    let offsets: Vec<IdOffsets> = (0..streams.len()).map(offsets_for).collect();
    let mut merge = FleetMerge::new(offsets);
    for (i, stream) in streams.iter().enumerate() {
        for rec in stream {
            merge.push(i, rec);
        }
        merge.set_progress(i, u64::MAX);
        merge.finish_input(i);
    }
    let mut merged = Vec::new();
    let merge2 = {
        // Release into both a record vector (for local analyses) and a
        // shard set (for byte comparison) — run the merge twice; it is
        // deterministic by contract.
        let offsets: Vec<IdOffsets> = (0..streams.len()).map(offsets_for).collect();
        let mut m = FleetMerge::new(offsets);
        for (i, stream) in streams.iter().enumerate() {
            for rec in stream {
                m.push(i, rec);
            }
            m.set_progress(i, u64::MAX);
            m.finish_input(i);
        }
        m
    };
    merge.finish(&mut merged).expect("offline merge");
    let mut shards = ShardSet::create(policy).expect("offline shard set");
    merge2.finish(&mut shards).expect("offline merge to shards");
    let sealed = shards.finish().expect("offline seal");
    (merged, sealed.into_iter().map(|s| s.path).collect())
}

fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("shard dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tsa"))
        .collect();
    files.sort();
    files
}

fn assert_dirs_byte_identical(server_dir: &Path, offline_dir: &Path) {
    let server = shard_files(server_dir);
    let offline = shard_files(offline_dir);
    let names = |v: &[PathBuf]| -> Vec<String> {
        v.iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(names(&server), names(&offline), "shard file sets differ");
    for (s, o) in server.iter().zip(&offline) {
        let sb = std::fs::read(s).expect("server shard");
        let ob = std::fs::read(o).expect("offline shard");
        assert_eq!(sb, ob, "shard {} differs from offline merge", s.display());
    }
}

fn stream_as_client(
    addr: &str,
    total: u16,
    index: u16,
    records: &[TraceRecord],
    batch: usize,
) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    client
        .hello(
            total,
            index,
            offsets_for(index as usize),
            &format!("m{index}"),
        )
        .expect("hello");
    for chunk in records.chunks(batch) {
        client.send_records(chunk).expect("send");
        client
            .progress(chunk.last().expect("non-empty chunk").time.as_ms())
            .expect("progress");
    }
    client.progress(u64::MAX).expect("final progress");
    client.fin().expect("fin")
}

#[test]
fn concurrent_ingest_matches_offline_merge_and_local_analyses() {
    const N: usize = 4;
    let server_dir = tmpdir("main-server");
    let offline_dir = tmpdir("main-offline");
    let policy = ShardPolicy {
        dir: offline_dir.clone(),
        name: "served".into(),
        shard_target_bytes: 16 << 10,
        bucket_ms: 0,
        chunk_target_bytes: 4 << 10,
        compress: true,
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: server_dir.clone(),
        shard_target_bytes: policy.shard_target_bytes,
        bucket_ms: policy.bucket_ms,
        chunk_target_bytes: policy.chunk_target_bytes,
        compress: policy.compress,
        backpressure_records: 1 << 20,
        analysis_windows: vec![600, 10],
        query_jobs: 2,
    };
    let streams: Vec<Vec<TraceRecord>> = (0..N).map(|i| machine_stream(i as u64, 400)).collect();
    let (merged, _) = offline_shards(&streams, policy);

    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();

    // N concurrent ingest clients, deliberately different batch sizes
    // so the push interleaving varies.
    let accepted: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                let addr = addr.clone();
                scope
                    .spawn(move || stream_as_client(&addr, N as u16, i as u16, stream, 37 + i * 53))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for (i, (&got, stream)) in accepted.iter().zip(&streams).enumerate() {
        assert_eq!(got, stream.len() as u64, "input {i} accepted count");
    }

    // Queries against the live daemon equal local computation.
    let mut q = Client::connect(&addr).expect("query client");
    let local_summary =
        fstrace::TraceSummary::compute(&fstrace::Trace::from_records(merged.clone()));
    assert_eq!(q.summary().expect("summary"), local_summary.to_string());
    let local_suite = fsanalysis::run_analyzers(merged.iter(), &[600, 10]);
    assert_eq!(q.analyze().expect("analyze"), render_suite(&local_suite));
    let (from, to) = (2_000, 6_000);
    let local_range: Vec<TraceRecord> = merged
        .iter()
        .filter(|r| r.time.as_ms() >= from && r.time.as_ms() < to)
        .copied()
        .collect();
    assert_eq!(q.range(from, to).expect("range"), local_range);
    let sweep = q.sweep(&[64, 400]).expect("sweep");
    assert_eq!(sweep.lines().count(), 3, "sweep rows: {sweep}");

    // /metrics over the same listener: the connection and ingest
    // totals are there.
    let metrics = fetch_metrics(&addr).expect("metrics");
    for total in ["tracestored_conn_opened ", "tracestored_ingest_records "] {
        assert!(metrics.contains(total), "no {total} in:\n{metrics}");
    }

    q.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.records_in, merged.len() as u64);
    assert_eq!(stats.records_merged, merged.len() as u64);
    assert!(!stats.shards.is_empty());

    // Seals are counted, and no metric name carries a connection or
    // shard number, so names stay bounded however many of either a
    // daemon sees. The registry is process-global, so read it directly.
    let snap = obs::global().snapshot();
    assert!(
        snap.counter("tracestored.shard.seals").unwrap_or(0) >= stats.shards.len() as u64,
        "seals not counted"
    );
    let names = (snap.counters.keys())
        .chain(snap.gauges.keys())
        .chain(snap.spans.keys())
        .chain(snap.histograms.keys());
    for name in names.filter(|n| n.starts_with("tracestored.")) {
        assert!(
            !name.split('.').any(|part| part.parse::<u64>().is_ok()),
            "metric name {name} carries a number"
        );
    }

    // The tentpole assertion: server shards == offline merge, byte for
    // byte.
    assert_dirs_byte_identical(&server_dir, &offline_dir);

    let _ = std::fs::remove_dir_all(&server_dir);
    let _ = std::fs::remove_dir_all(&offline_dir);
}

#[test]
fn sweep_past_the_size_cap_gets_an_error_and_the_daemon_keeps_serving() {
    let dir = tmpdir("sweep-cap");
    let config = ServerConfig {
        dir: dir.clone(),
        query_jobs: 2,
        ..ServerConfig::default()
    };
    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();
    stream_as_client(&addr, 1, 0, &machine_stream(0, 200), 50);

    let cap = protocol::MAX_SWEEP_SIZES;
    let sizes: Vec<u64> = (1..=cap + 1).collect();
    let mut q = Client::connect(&addr).expect("query client");
    let table = q.sweep(&sizes[..cap as usize]).expect("sweep at the cap");
    assert_eq!(
        table.lines().count() as u64,
        cap + 1,
        "header plus one row per size"
    );
    let err = q.sweep(&sizes).expect_err("one size past the cap");
    assert!(err.to_string().contains(&format!("cap of {cap}")), "{err}");
    // The error reply costs neither the connection nor the daemon.
    assert_eq!(
        q.sweep(&[64, 400])
            .expect("sweep after the error")
            .lines()
            .count(),
        3
    );
    q.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `hello` may declare id offsets that overflow the ids its records
/// carry. Each such batch gets an error reply naming it and costs its
/// connection; nothing of it reaches the merge, and the daemon keeps
/// serving the other inputs and fresh clients.
#[test]
fn overflowing_id_offsets_get_an_error_and_the_daemon_keeps_serving() {
    let dir = tmpdir("offset-overflow");
    let config = ServerConfig {
        dir: dir.clone(),
        query_jobs: 2,
        ..ServerConfig::default()
    };
    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();
    let open = TraceRecord::new(
        0,
        TraceEvent::Open {
            open_id: OpenId(1),
            file_id: FileId(1),
            user_id: UserId(1),
            mode: AccessMode::ReadOnly,
            size: 512,
            created: false,
        },
    );
    let overflows = [
        IdOffsets {
            open: u64::MAX,
            ..IdOffsets::default()
        },
        IdOffsets {
            file: u64::MAX,
            ..IdOffsets::default()
        },
        IdOffsets {
            user: u32::MAX,
            ..IdOffsets::default()
        },
    ];
    for (i, offsets) in overflows.into_iter().enumerate() {
        let mut raw = TcpStream::connect(&addr).expect("connect");
        let hello = protocol::Hello {
            total_inputs: 4,
            input_index: i as u16,
            offsets,
            name: format!("overflow-{i}"),
        };
        protocol::write_frame(&mut raw, protocol::OP_HELLO, &hello.encode()).expect("hello");
        protocol::read_reply(&mut raw).expect("hello ack");
        let mut payload = Vec::new();
        protocol::encode_records(&mut payload, &[open]);
        protocol::write_frame(&mut raw, protocol::OP_RECORDS, &payload).expect("batch");
        let err = protocol::read_reply(&mut raw).expect_err("an overflowing batch");
        assert!(
            err.to_string().contains("bad record batch"),
            "{offsets:?}: {err}"
        );
    }
    let survivor = machine_stream(0, 50);
    let accepted = stream_as_client(&addr, 4, 3, &survivor, 16);
    assert_eq!(accepted, survivor.len() as u64);

    let mut q = Client::connect(&addr).expect("query client");
    assert!(q
        .summary()
        .expect("summary after the errors")
        .contains("trace"));
    q.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.records_in, survivor.len() as u64);
    assert_eq!(stats.records_merged, survivor.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one frame length rule: a frame holds at least its op byte and at
/// most `MAX_FRAME` bytes. A prefix outside it gets an error reply naming
/// the length and closes that connection only.
#[test]
fn a_bad_frame_length_gets_an_error_and_costs_only_its_connection() {
    let dir = tmpdir("bad-length");
    let config = ServerConfig {
        dir: dir.clone(),
        query_jobs: 2,
        ..ServerConfig::default()
    };
    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();
    let stream = machine_stream(0, 50);
    assert_eq!(
        stream_as_client(&addr, 1, 0, &stream, 16),
        stream.len() as u64
    );
    for len in [0, protocol::MAX_FRAME + 1] {
        let mut raw = TcpStream::connect(&addr).expect("connect");
        raw.write_all(&len.to_le_bytes()).expect("prefix");
        let err = protocol::read_reply(&mut raw).expect_err("a bad length");
        assert!(
            err.to_string().contains(&format!("bad frame length {len}")),
            "{err}"
        );
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest)
            .expect("the daemon closes the connection");
        assert!(rest.is_empty(), "more after the error reply: {rest:?}");
    }
    let mut q = Client::connect(&addr).expect("query client");
    assert!(q.summary().expect("summary").contains("trace"));
    q.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.records_merged, stream.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_mid_frame_connection_corrupts_nothing() {
    let server_dir = tmpdir("kill-server");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: server_dir.clone(),
        compress: false,
        ..ServerConfig::default()
    };
    let survivor = machine_stream(0, 300);
    let victim_sent = machine_stream(1, 100);
    let victim_lost = machine_stream(1, 150)[victim_sent.len()..].to_vec();
    assert!(!victim_lost.is_empty());

    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();

    // The victim: hello, one complete batch, then half a frame, then a
    // dead socket.
    {
        let mut raw = TcpStream::connect(&addr).expect("victim connect");
        let hello = protocol::Hello {
            total_inputs: 2,
            input_index: 1,
            offsets: offsets_for(1),
            name: "victim".into(),
        };
        protocol::write_frame(&mut raw, protocol::OP_HELLO, &hello.encode()).expect("hello");
        protocol::read_reply(&mut raw).expect("hello ack");
        let mut payload = Vec::new();
        protocol::encode_records(&mut payload, &victim_sent);
        protocol::write_frame(&mut raw, protocol::OP_RECORDS, &payload).expect("batch");
        // Half a frame: full length prefix, half the body.
        let mut torn = Vec::new();
        protocol::encode_records(&mut torn, &victim_lost);
        let len = (1 + torn.len()) as u32;
        raw.write_all(&len.to_le_bytes()).expect("torn prefix");
        raw.write_all(&[protocol::OP_RECORDS]).expect("torn op");
        raw.write_all(&torn[..torn.len() / 2]).expect("torn body");
        // Drop: connection dies mid-frame.
    }

    // The survivor streams normally.
    let accepted = stream_as_client(&addr, 2, 0, &survivor, 64);
    assert_eq!(accepted, survivor.len() as u64);

    // Wait until the server has counted every complete record — the
    // victim's torn frame must never be part of that count.
    let expect = (survivor.len() + victim_sent.len()) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let metrics = fetch_metrics(&addr).expect("metrics");
        let got: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("tracestored_ingest_records "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if got >= expect {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never reached {expect} records (at {got})"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let mut q = Client::connect(&addr).expect("query client");
    q.shutdown().expect("shutdown");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.records_in, expect, "torn frame leaked records");

    // Every shard verifies clean and the data equals an offline merge
    // of [survivor, victim's *complete* batches only].
    let (merged, _) = offline_shards(
        &[survivor, victim_sent],
        ShardPolicy {
            dir: tmpdir("kill-offline"),
            name: "served".into(),
            compress: false,
            ..ShardPolicy::default()
        },
    );
    let mut back = Vec::new();
    for path in shard_files(&server_dir) {
        let archive = tracestore::Archive::open(&path).expect("shard opens");
        assert!(!archive.footer_rebuilt(), "shard lost its footer");
        for rec in archive.records(tracestore::Corruption::Fail) {
            back.push(rec.expect("shard record decodes"));
        }
    }
    assert_eq!(back, merged);

    let _ = std::fs::remove_dir_all(&server_dir);
}

/// A `fin` ack means the records entered the merge, so a clean
/// shutdown writes them even when an input the session's `hello`
/// declared never attached: that input cannot hold the watermark past
/// shutdown.
#[test]
fn shutdown_writes_acked_records_when_a_declared_input_never_attached() {
    let dir = tmpdir("shutdown-unattached");
    let config = ServerConfig {
        dir: dir.clone(),
        ..ServerConfig::default()
    };
    let stream: Vec<TraceRecord> = machine_stream(0, 100).into_iter().take(100).collect();
    assert_eq!(stream.len(), 100);

    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();
    // Input 0 of 2 sends everything and finishes; input 1 never connects.
    assert_eq!(stream_as_client(&addr, 2, 0, &stream, 100), 100);
    Client::connect(&addr)
        .expect("query client")
        .shutdown()
        .expect("shutdown");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.records_in, 100);
    assert_eq!(
        stats.records_merged, 100,
        "acked records never left the merge"
    );

    let shards = shard_files(&dir);
    assert_eq!(shards.len(), 1, "shutdown sealed no shard");
    let archive = tracestore::Archive::open(&shards[0]).expect("shard opens");
    let back: Vec<TraceRecord> = archive
        .records(tracestore::Corruption::Fail)
        .map(|rec| rec.expect("shard record decodes"))
        .collect();
    assert_eq!(back, stream, "input 0 has identity offsets");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_and_backpressure_under_small_limits() {
    let server_dir = tmpdir("rotate-server");
    let offline_dir = tmpdir("rotate-offline");
    let policy = ShardPolicy {
        dir: offline_dir.clone(),
        name: "served".into(),
        shard_target_bytes: 4 << 10,
        bucket_ms: 0,
        chunk_target_bytes: 1 << 10,
        compress: false,
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: server_dir.clone(),
        shard_target_bytes: policy.shard_target_bytes,
        bucket_ms: policy.bucket_ms,
        chunk_target_bytes: policy.chunk_target_bytes,
        compress: policy.compress,
        // Tiny: forces the faster input through the backpressure wait.
        backpressure_records: 64,
        analysis_windows: vec![600, 10],
        query_jobs: 2,
    };
    let streams: Vec<Vec<TraceRecord>> = (0..2).map(|i| machine_stream(i as u64, 1500)).collect();
    let (merged, _) = offline_shards(&streams, policy);

    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();
    std::thread::scope(|scope| {
        for (i, stream) in streams.iter().enumerate() {
            let addr = addr.clone();
            scope.spawn(move || stream_as_client(&addr, 2, i as u16, stream, 100));
        }
    });
    Client::connect(&addr)
        .expect("query client")
        .shutdown()
        .expect("shutdown");
    let stats = handle.join().expect("server thread").expect("server run");
    assert!(
        stats.shards.len() > 1,
        "expected shard rotation, got {}",
        stats.shards.len()
    );
    assert_eq!(stats.records_merged, merged.len() as u64);
    assert_dirs_byte_identical(&server_dir, &offline_dir);

    let _ = std::fs::remove_dir_all(&server_dir);
    let _ = std::fs::remove_dir_all(&offline_dir);
}

/// The shard writer applies its queue in order, and a query's snapshot
/// request joins that queue behind every record released before it: a
/// `range` sent right after the last `fin` ack sees every record, in
/// every one of many short sessions.
#[test]
fn a_query_after_the_last_fin_sees_every_released_record() {
    for session in 0..50u64 {
        let dir = tmpdir(&format!("read-your-release-{session}"));
        let offline_dir = tmpdir(&format!("read-your-release-offline-{session}"));
        let config = ServerConfig {
            dir: dir.clone(),
            shard_target_bytes: 2 << 10,
            chunk_target_bytes: 512,
            ..ServerConfig::default()
        };
        let streams: Vec<Vec<TraceRecord>> = (0..2)
            .map(|i| machine_stream(session % 5 + i, 30 + session * 7))
            .collect();
        let (merged, _) = offline_shards(
            &streams,
            ShardPolicy {
                dir: offline_dir.clone(),
                ..ShardPolicy::default()
            },
        );
        let (addr, handle) = tracestored::spawn(config).expect("spawn server");
        let addr = addr.to_string();
        // Input 1 finishes first; input 0's `fin` releases the rest.
        stream_as_client(&addr, 2, 1, &streams[1], 64);
        let mut last = Client::connect(&addr).expect("connect");
        last.hello(2, 0, offsets_for(0), "m0").expect("hello");
        for chunk in streams[0].chunks(25) {
            last.send_records(chunk).expect("send");
        }
        last.progress(u64::MAX).expect("final progress");
        assert_eq!(last.fin().expect("fin"), streams[0].len() as u64);
        let got = last.range(0, u64::MAX).expect("range");
        assert_eq!(got.len(), merged.len(), "session {session}");
        assert_eq!(got, merged, "session {session}");
        last.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&offline_dir);
    }
}

/// Runs `f` on a thread of its own and returns its result, failing the
/// test if that takes more than 10 s.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} did not return within 10 s"))
}

/// A shard write error stops the writer and latches: every later op
/// gets an error reply naming it, `shutdown` still stops the daemon
/// promptly, and `run` returns the error. Here the shard directory
/// disappears after the first seals, so the next shard cannot be
/// created.
#[test]
fn a_shard_write_error_fails_later_ops_and_run_without_hanging() {
    let dir = tmpdir("write-failure");
    let config = ServerConfig {
        dir: dir.clone(),
        shard_target_bytes: 1 << 10,
        chunk_target_bytes: 256,
        compress: false,
        ..ServerConfig::default()
    };
    let stream = machine_stream(0, 600);
    // Split between two distinct times, so progress to the first later
    // record releases everything before it.
    let split = (stream.len() / 2..)
        .find(|&i| stream[i].time > stream[i - 1].time)
        .expect("a later record");
    let (before, after) = stream.split_at(split);
    let (addr, handle) = tracestored::spawn(config).expect("spawn server");
    let addr = addr.to_string();
    // Input 1 is empty and done, so input 0's progress releases at once.
    assert_eq!(stream_as_client(&addr, 2, 1, &[], 1), 0);
    let mut input = Client::connect(&addr).expect("connect");
    input.hello(2, 0, offsets_for(0), "m0").expect("hello");
    input.send_records(before).expect("send");
    input.progress(after[0].time.as_ms()).expect("progress");
    // Answered after the writer took every record released above.
    assert_eq!(input.range(0, u64::MAX).expect("range").len(), before.len());
    assert!(shard_files(&dir).len() > 1, "no shard sealed yet");
    std::fs::remove_dir_all(&dir).expect("remove the shard dir");

    // The rest seals the open shard and needs a new one, which fails;
    // the query queued behind it gets the writer's error.
    input.send_records(after).expect("send");
    input.progress(u64::MAX).expect("progress");
    let err = input
        .range(0, u64::MAX)
        .expect_err("a query after the failure");
    assert!(err.to_string().contains("shard writer failed"), "{err}");
    let err = input.fin().expect_err("fin after the failure");
    assert!(err.to_string().contains("shard writer failed"), "{err}");
    let mut fresh = Client::connect(&addr).expect("connect");
    let err = fresh.summary().expect_err("summary after the failure");
    assert!(err.to_string().contains("shard writer failed"), "{err}");

    let err = within("shutdown", move || fresh.shutdown()).expect_err("shutdown after the failure");
    assert!(err.to_string().contains("shard writer failed"), "{err}");
    let run = within("run", move || handle.join().expect("server thread"));
    assert!(run.is_err(), "run succeeded after a write error");
    let _ = std::fs::remove_dir_all(&dir);
}
