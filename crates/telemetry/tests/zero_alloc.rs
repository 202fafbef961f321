//! Proof that the instrumented hot path allocates nothing.
//!
//! A counting global allocator wraps the system allocator; every registry
//! operation a request touches (counter incr, gauge move, histogram observe,
//! tick start/stop) runs under the counter and must leave it
//! unchanged. The count is per thread, so what the test harness or a
//! concurrently running test allocates on other threads is not charged to
//! the measured window. Snapshots and dumps are explicitly *allowed* to
//! allocate — they run off the request path — and the test pins that
//! asymmetry.
//!
//! Lives in an integration test because the library itself is
//! `#![forbid(unsafe_code)]`; the `GlobalAlloc` impl needs `unsafe`.

use crowd_telemetry::{Clock, CounterId, GaugeId, HistogramId, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread; a `const` initializer, so reading
    /// it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn instrumented_checkin_hot_path_allocates_nothing() {
    // Construction happens here, outside the measured window, exactly as a
    // server does at startup.
    let reg = Registry::with_clock(Clock::logical());

    let (allocs, _) = allocations_during(|| {
        for _ in 0..1000 {
            // The full per-checkin instrumentation sequence, in hot-path
            // order: admit, ingest, merge, ack.
            let start = reg.start();
            reg.incr(CounterId::CheckinsApplied);
            reg.add(CounterId::WalAppendBytes, 128);
            reg.gauge_add(GaugeId::QueueDepth, 1);
            reg.gauge_add(GaugeId::QueueDepth, -1);
            reg.observe(HistogramId::EpochMergeUs, 37);
            reg.clock().advance(5);
            reg.observe_since(HistogramId::CheckinLatencyUs, start);
        }
    });
    assert_eq!(
        allocs, 0,
        "request-path metric ops must not touch the allocator"
    );
}

#[test]
fn snapshot_and_render_may_allocate_off_the_hot_path() {
    let reg = Registry::new();
    reg.incr(CounterId::CheckinsApplied);
    let (allocs, text) = allocations_during(|| reg.snapshot().render_text());
    // Sanity check the asymmetry: the scrape boundary is where allocation is
    // allowed to happen, and it demonstrably does.
    assert!(allocs > 0);
    assert!(text.contains("counter checkins_applied 1"));
}
