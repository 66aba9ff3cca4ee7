//! A footer's chunk count is a length field read from the file: opening
//! an archive must not reserve memory by it before the entries it
//! promises are there. A test binary of its own, because it installs a
//! counting global allocator and reads its process-wide peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fstrace::codec::put_varint;
use tracestore::format::{ARCHIVE_MAGIC, ARCHIVE_VERSION, FOOTER_MAGIC};
use tracestore::Archive;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
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

#[test]
fn footer_chunk_count_does_not_size_the_index() {
    // A valid header, a 9-byte footer body that claims 2^20 index
    // entries and holds none, a correct body CRC, and the trailer.
    let mut body = Vec::new();
    put_varint(&mut body, 1); // name length
    body.push(b'x');
    for _ in 0..4 {
        put_varint(&mut body, 0); // total records, max open/file/user
    }
    put_varint(&mut body, 1 << 20); // chunk count
    assert_eq!(body.len(), 9);
    let mut bytes = ARCHIVE_MAGIC.to_vec();
    bytes.extend([ARCHIVE_VERSION, 0]);
    bytes.extend_from_slice(&body);
    bytes.extend(tracestore::crc32::crc32(&body).to_le_bytes());
    bytes.extend((body.len() as u32).to_le_bytes());
    bytes.extend(FOOTER_MAGIC);
    assert_eq!(bytes.len(), 27);

    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let archive = Archive::from_bytes(bytes).expect("a bad footer falls back to a scan");
    let peak = PEAK.load(Ordering::SeqCst) - baseline;

    assert!(archive.footer_rebuilt());
    assert!(archive.chunks().is_empty());
    assert!(peak < 64 << 10, "opening 27 bytes peaked at {peak} bytes");
}
