//! An observed rank that records nothing allocates nothing for its
//! record: no single allocation made while a collector is built,
//! installed on eight rank threads and finished may reach 64 KiB.
//!
//! Its own test binary, because it installs a global allocator that
//! tracks the largest single request made by any thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use louvain_obs::{Collector, TelemetryRow};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the only addition
// is an atomic `fetch_max`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

#[test]
fn idle_observed_ranks_allocate_no_event_buffer() {
    const RANKS: usize = 8;
    louvain_obs::set_enabled(false);
    LARGEST.store(0, Ordering::Relaxed);
    let mut collector = Collector::new(RANKS);
    collector.set_progress(Arc::new(|_: &TelemetryRow| {}));
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let c = &collector;
            s.spawn(move || drop(c.install(rank)));
        }
    });
    let trace = collector.finish();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(trace.total_events(), 0);
    assert!(
        largest < 64 << 10,
        "largest single allocation was {largest} bytes"
    );
}
