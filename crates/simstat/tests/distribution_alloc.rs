//! A distribution holds one entry per distinct value, not one per
//! observation: a million adds over a hundred values must not buffer a
//! million samples. A test binary of its own, because it installs a
//! counting global allocator and reads its process-wide peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use simstat::Distribution;

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
fn repeated_values_take_memory_per_distinct_value() {
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let mut d = Distribution::new();
    for i in 0..1_000_000u64 {
        d.add(i % 100 * 10, 1 + i % 3);
    }
    d.prepare();
    let peak = PEAK.load(Ordering::SeqCst) - baseline;

    assert_eq!(d.total_weight(), 2_000_000 - 1);
    assert_eq!(d.percentile(1.0), Some(990));
    assert!(
        peak < 64 << 10,
        "10^6 adds over 100 values peaked at {peak} bytes"
    );
}
