//! Deterministic pins on what emitting an event allocates.
//!
//! Names, categories and attribute keys are `&'static str`, so an event
//! owns one heap block — its `args` vector — and a span without attributes
//! owns none. The counts below are exact on a thread whose buffers have
//! grown: a change that turns a key or a name back into a `String`, or
//! boxes something per event, fails here and not on a noisy wall-clock bar.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dynmpi_obs::{
    count, counter_handle, enabled, instant, span_begin, span_end, span_end_args, Json, Recorder,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations (a `realloc`
/// arrives here as the `alloc` of its default implementation).
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` without a destructor, so touching
// it allocates nothing and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn send_instant(i: u64) {
    instant(
        "comm",
        "send",
        i,
        vec![
            ("peer", Json::UInt(i % 8)),
            ("tag", Json::UInt(7)),
            ("seq", Json::UInt(i)),
            ("bytes", Json::UInt(2048)),
            ("queued_ns", Json::UInt(0)),
        ],
    );
}

const EVENTS: u64 = 10_000;

/// Emits until the rank buffer (each new block as large as all before it)
/// has room for `EVENTS` more.
fn grow_buffers() {
    for i in 0..(1 << 14) + 1 {
        send_instant(i);
    }
    span_begin("sched", "run", 0);
    span_end(1);
}

#[test]
fn a_send_shaped_instant_allocates_once() {
    let rec = Recorder::new();
    let _guard = rec.install(0);
    grow_buffers();
    let n = allocations(|| (0..EVENTS).for_each(send_instant));
    assert!(
        n <= EVENTS,
        "{n} allocations: more than the `args` vector per instant"
    );
}

#[test]
fn a_span_pair_allocates_nothing() {
    let rec = Recorder::new();
    let _guard = rec.install(0);
    grow_buffers();
    let n = allocations(|| {
        for i in 0..EVENTS {
            span_begin("sched", "blocked", i);
            span_end(i + 1);
        }
    });
    assert_eq!(n, 0);
}

#[test]
fn emission_without_a_scope_allocates_nothing() {
    let n = allocations(|| {
        for i in 0..EVENTS {
            assert!(!enabled());
            span_begin("sched", "run", i);
            span_end_args(i + 1, Vec::new());
            instant("comm", "send", i, Vec::new());
            count("sim.msgs_sent", 1);
            assert!(counter_handle("sim.msgs_sent").is_none());
        }
    });
    assert_eq!(n, 0);
}
