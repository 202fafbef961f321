//! Proof that ε bookkeeping on a known device allocates nothing: charging an
//! entity the ledger already holds, and checking a device's spend or
//! exhaustion on the server, look the entry up without building a key.
//!
//! A counting global allocator wraps the system allocator, per thread (the
//! pattern of `crowd-telemetry`'s `zero_alloc` test). It lives in an
//! integration test because the library is `#![forbid(unsafe_code)]`; the
//! `GlobalAlloc` impl needs `unsafe`.

use crowd_core::config::ServerConfig;
use crowd_core::server::Server;
use crowd_learning::dp::BudgetAccountant;
use crowd_learning::MulticlassLogistic;
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
fn charging_a_known_entity_allocates_nothing() {
    let mut ledger = BudgetAccountant::new(10.0);
    let (first, _) = allocations_during(|| ledger.record("42", 0.5).unwrap());
    assert!(first > 0, "a new entity's key is stored once");
    let (again, exhausted) = allocations_during(|| {
        ledger.record("42", 0.25).unwrap();
        ledger.charge("42", 0.25).unwrap();
        ledger.record("42", 0.0).unwrap()
    });
    assert_eq!(again, 0);
    assert!(!exhausted);
    assert_eq!(ledger.spent("42"), 1.0);
}

#[test]
fn server_budget_checks_allocate_nothing() {
    let model = MulticlassLogistic::new(2, 3).unwrap();
    let server = Server::new(model, ServerConfig::new().with_budget(0.5, 1.0)).unwrap();
    let (count, (spent, exhausted)) = allocations_during(|| {
        (
            server.budget_spent(18_446_744_073_709_551_615),
            server.budget_exhausted(7),
        )
    });
    assert_eq!(count, 0);
    assert_eq!(spent, 0.0);
    assert!(!exhausted);
}
