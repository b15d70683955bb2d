//! The no-scope fast path: while no tracing scope exists anywhere in the
//! process, every entry point returns after one read of a process-wide
//! count. The count is not a per-thread answer: with a scope on one
//! thread, a thread that has none still records nothing, and the first
//! records everything.
//!
//! One test in its own binary, so no other test installs a scope while
//! the first half runs.

use std::sync::Barrier;

use dynmpi_obs::{
    begin_cycle, comm_recv, comm_send, count, counter_handle, detach_scope, enabled, instant,
    observe, sched_span, span_begin, span_end, span_end_args, span_end_blocked,
    span_end_charge_rows, span_end_collective, span_end_cycle, Json, Msg, Recorder, SchedState,
    BYTE_BUCKETS,
};

const COUNTER: &str = "no_scope.count";
const HIST: &str = "no_scope.bytes";

/// Calls every emitting entry point once, spans balanced: eleven events,
/// one count and one observation on a thread with a scope.
fn emit_everything() {
    let msg = Msg {
        peer: 1,
        tag: 2,
        seq: 3,
        bytes: 4,
    };
    span_begin("runtime", "outer", 10);
    span_end(20);
    span_begin("runtime", "args", 20);
    span_end_args(30, vec![("k", Json::UInt(1))]);
    span_begin("sched", "blocked", 30);
    span_end_blocked(40);
    begin_cycle(40, 1);
    span_begin("runtime", "end_cycle", 40);
    span_end_cycle(50, 1);
    span_begin("runtime", "charge_rows", 50);
    span_end_charge_rows(60, 8, 9, 10);
    span_begin("comm", "bcast", 60);
    span_end_collective(70, 4, 64);
    instant("runtime", "mark", 70, vec![]);
    sched_span(SchedState::Run, 70, 80, 10, 1);
    comm_send(80, msg, 0);
    comm_recv(90, msg, 0, 1, 2);
    count(COUNTER, 1);
    observe(HIST, &BYTE_BUCKETS, 64);
}

#[test]
fn without_a_scope_every_entry_point_is_a_no_op() {
    // No scope anywhere in the process.
    assert!(!enabled());
    emit_everything();
    assert!(counter_handle(COUNTER).is_none());
    // The detached guard is empty: a scope installed while it is held
    // survives its drop (a guard holding a scope would panic there).
    let detached = detach_scope();
    let rec = Recorder::new();
    let scope = rec.install(0);
    drop(detached);
    assert!(enabled());
    drop(scope);
    assert!(!enabled());
    assert!(rec.events().is_empty());
    assert_eq!(rec.merged_metrics().counter(COUNTER), 0);

    // A scope on one thread only.
    let rec = Recorder::new();
    let (installed, emitted) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            let _scope = rec.install(1);
            installed.wait();
            emitted.wait();
            assert!(enabled());
            emit_everything();
        });
        s.spawn(|| {
            installed.wait();
            assert!(!enabled());
            emit_everything();
            assert!(counter_handle(COUNTER).is_none());
            drop(detach_scope());
            emitted.wait();
        });
    });
    let events = rec.events();
    assert_eq!(events.len(), 11);
    assert!(events.iter().all(|e| e.rank() == 1));
    assert_eq!(rec.merged_metrics().counter(COUNTER), 1);
}
