//! A frame's length prefix is the peer's word: reading a frame must not
//! reserve memory by it before the body's bytes arrive, at either end
//! of a connection. Nor may a record batch's count, which is the peer's
//! word too. A test binary of its own, because it installs a counting
//! global allocator and reads its process-wide peak; its tests take
//! turns, since they share that peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use fstrace::codec::put_varint;
use tracestored::protocol::{decode_records, read_frame, write_frame, MAX_FRAME, OP_RECORDS};
use tracestored::{Client, ServerConfig};

/// The system allocator, counting live bytes and their high-water mark,
/// and each thread's allocations.
struct Counting;

thread_local! {
    /// Allocations made on this thread; a const-initialized `Cell`
    /// needs no lazy set-up, so the allocator may touch it.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.with(|n| n.set(n.get() + 1));
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Serializes the tests: each reads the process-wide counters.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restarts the peak from the live bytes; returns them.
fn reset() -> usize {
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    baseline
}

#[test]
fn client_reads_a_frame_body_as_it_arrives() {
    let _turn = one_at_a_time();
    // A header declaring the largest frame, then EOF.
    let wire = MAX_FRAME.to_le_bytes();
    let baseline = reset();
    let err = read_frame(&mut wire.as_slice()).expect_err("no body arrived");
    let peak = PEAK.load(Ordering::SeqCst) - baseline;
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        peak < 1 << 20,
        "a bare MAX_FRAME header peaked at {peak} bytes"
    );

    // An ingest-sized frame still reads in one allocation.
    let mut wire = Vec::new();
    write_frame(&mut wire, OP_RECORDS, &[7; 40_000]).unwrap();
    let before = ALLOCS.with(Cell::get);
    let (op, payload) = read_frame(&mut wire.as_slice()).unwrap().expect("a frame");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!((op, payload.len()), (OP_RECORDS, 40_000));
    assert_eq!(allocs, 1, "a 40 kB frame took {allocs} allocations");
}

#[test]
fn daemon_reads_a_frame_body_as_it_arrives() {
    let _turn = one_at_a_time();
    let dir = std::env::temp_dir().join(format!("tracestored-frame-alloc-{}", std::process::id()));
    let config = ServerConfig {
        dir: dir.clone(),
        ..ServerConfig::default()
    };
    let (addr, daemon) = tracestored::spawn(config).expect("spawn daemon");

    // A header declaring the largest frame, then EOF: the daemon drops
    // the torn frame and closes the connection.
    let baseline = reset();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&MAX_FRAME.to_le_bytes()).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest)
        .expect("the daemon closes the connection");
    let peak = PEAK.load(Ordering::SeqCst).saturating_sub(baseline);
    assert!(rest.is_empty(), "no reply to a torn frame");
    assert!(
        peak < 1 << 20,
        "the daemon peaked at {peak} bytes over a bare MAX_FRAME header"
    );

    // It still serves, and shuts down cleanly.
    Client::connect(&addr.to_string())
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_forged_batch_count_reserves_nothing_by_it() {
    let _turn = one_at_a_time();
    for len in [64 << 10, 1 << 20] {
        // A batch declaring one record per byte, as many as a count may
        // claim, whose first record has no valid tag.
        let mut batch = Vec::new();
        put_varint(&mut batch, len as u64);
        batch.resize(len, 0xff);
        let baseline = reset();
        let err = decode_records(&batch).expect_err("no record decodes");
        let peak = PEAK.load(Ordering::SeqCst) - baseline;
        assert!(
            peak < len,
            "a {len}-byte batch failing at its first record ({err}) peaked at {peak} bytes"
        );
    }
}
