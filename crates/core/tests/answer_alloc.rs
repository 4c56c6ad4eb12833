//! Answer delivery costs no heap allocation per answer: a ground answer
//! shares its query's binding plan and reads its values off the tuple,
//! so draining a query allocates a bounded number of times however many
//! answers it yields.
//!
//! A counting global allocator counts every allocation in the process;
//! this file holds one test so no other test allocates beside it.

use coral_core::session::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per drain allowed whatever the answer count.
const BOUND: usize = 64;

/// Open `query`, drain it, and return (answers, allocations made while
/// draining). Each answer is dropped as it arrives, as a streaming
/// caller would.
fn drain(s: &Session, query: &str) -> (usize, usize) {
    let mut answers = s.query(query).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut n = 0;
    while let Some(a) = answers.next_answer().unwrap() {
        assert!(a.bindings().len() > 0, "{query}: answers bind variables");
        n += 1;
    }
    (n, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn draining_answers_allocates_a_bounded_number_of_times() {
    // A 150-node chain: its closure has 150 · 149 / 2 = 11 175 pairs.
    let mut src = String::new();
    for i in 0..149 {
        let _ = writeln!(src, "edge({i}, {}).", i + 1);
    }
    // 10 000 diagonal rows under the constant 1, beside rows the
    // pattern rejects on either the constant or the repeated variable.
    for i in 0..10_000 {
        let _ = writeln!(src, "t(1, {i}, {i}). t(1, {i}, {}). t(2, {i}, {i}).", i + 1);
    }
    src.push_str(
        "module tc.\n\
         export path(ff).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- path(X, Z), edge(Z, Y).\n\
         end_module.\n",
    );
    let s = Session::new();
    s.consult_str(&src).unwrap();
    // Warm: compile the query form and build any index a lookup wants.
    for q in ["path(X, Y)", "t(1, X, X)"] {
        s.query_all(q).unwrap();
    }

    for (query, want) in [("path(X, Y)", 11_175), ("t(1, X, X)", 10_000)] {
        let (n, allocs) = drain(&s, query);
        assert_eq!(n, want, "{query}: answer count");
        assert!(
            allocs <= BOUND,
            "{query}: {allocs} allocations draining {n} answers (bound {BOUND})"
        );
    }
}
