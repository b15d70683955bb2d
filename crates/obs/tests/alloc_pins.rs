//! Deterministic pins on what emitting an event allocates.
//!
//! The hot kinds (scheduler spans, sends, receives, cycle bounds, row
//! charges, collectives) are typed events with their integers inline, so
//! emitting one allocates nothing; a generic event owns one heap block,
//! its boxed `args`, and a generic span without attributes owns none. A
//! rank's buffer allocates one block per [`BLOCK_EVENTS`] events. The
//! counts below are exact on a thread whose span stack and list of blocks
//! have grown: a change that turns a key or a name back into a `String`,
//! or boxes something per event, fails here and not on a noisy wall-clock
//! bar.

use dynmpi_obs::export::{chrome_trace, jsonl};
use dynmpi_obs::{
    begin_cycle, comm_recv, comm_send, count, counter_handle, enabled, instant, sched_span,
    span_begin, span_end, span_end_args, span_end_blocked, span_end_charge_rows,
    span_end_collective, span_end_cycle, EventSink, HealthMonitor, Json, Msg, Recorder, SchedState,
    TraceEvent, BLOCK_EVENTS, DEFAULT_WINDOW_NS,
};
use dynmpi_testkit::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn msg(i: u64) -> Msg {
    Msg {
        peer: i % 8,
        tag: 7,
        seq: i,
        bytes: 2048,
    }
}

/// A runtime decision: the kind that stays generic.
fn decision_instant(i: u64) {
    instant(
        "runtime",
        "redistributed",
        i,
        vec![
            ("cycle", Json::UInt(i)),
            ("moved_fraction", Json::Num(0.25)),
        ],
    );
}

const EVENTS: u64 = 10_000;

/// Fills 65 blocks exactly, so the next event opens a block and the list
/// of blocks (its capacity doubled to 128) has room for the 40 blocks
/// that `EVENTS` calls of up to 4 events fill; and grows the span stack.
fn grow_buffers() {
    for i in 0..65 * BLOCK_EVENTS as u64 - 1 {
        comm_send(i, msg(i), 0);
    }
    span_begin("sched", "blocked", 0);
    span_end_blocked(1);
}

/// The blocks that `EVENTS` calls of `per_call` events each open after
/// [`grow_buffers`]: one allocation each.
fn blocks(per_call: u64) -> u64 {
    (EVENTS * per_call).div_ceil(BLOCK_EVENTS as u64)
}

/// One scope, buffers grown, then the allocations of `EVENTS` runs of `f`.
fn per_event(f: impl Fn(u64)) -> u64 {
    let rec = Recorder::new();
    let _guard = rec.install(0);
    grow_buffers();
    allocations(|| (0..EVENTS).for_each(f))
}

#[test]
fn a_sched_span_allocates_nothing() {
    let n = per_event(|i| sched_span(SchedState::RunWait, i, i + 10, 5, 2));
    assert_eq!(n, blocks(1));
}

#[test]
fn a_blocked_span_allocates_nothing() {
    let n = per_event(|i| {
        span_begin("sched", "blocked", i);
        span_end_blocked(i + 1);
    });
    assert_eq!(n, blocks(1));
}

#[test]
fn a_send_allocates_nothing() {
    assert_eq!(per_event(|i| comm_send(i, msg(i), 3)), blocks(1));
}

#[test]
fn a_recv_allocates_nothing() {
    assert_eq!(per_event(|i| comm_recv(i, msg(i), 1, 2, 3)), blocks(1));
}

#[test]
fn cycle_bounds_allocate_nothing() {
    let n = per_event(|i| {
        begin_cycle(i, i + 1);
        span_begin("runtime", "end_cycle", i);
        span_end_cycle(i + 5, i + 1);
    });
    assert_eq!(n, blocks(2));
}

#[test]
fn a_charge_rows_span_allocates_nothing() {
    let n = per_event(|i| {
        span_begin("runtime", "charge_rows", i);
        span_end_charge_rows(i + 5, 64, 5, 1_000);
        span_begin("runtime", "grace_measure", i + 5);
        span_end_charge_rows(i + 9, 64, 4, 1_000);
    });
    assert_eq!(n, blocks(2));
}

#[test]
fn a_collective_span_allocates_nothing() {
    let n = per_event(|i| {
        span_begin("comm", "allreduce", i);
        span_end_collective(i + 5, 8, 16);
    });
    assert_eq!(n, blocks(1));
}

#[test]
fn a_span_pair_allocates_nothing() {
    let n = per_event(|i| {
        span_begin("redist", "pack", i);
        span_end(i + 1);
    });
    assert_eq!(n, blocks(1));
}

#[test]
fn a_send_shaped_instant_allocates_once() {
    // Through the generic emitter: the `args` vector, dropped once the
    // event is found to be a typed send.
    let n = per_event(|i| {
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
        )
    });
    assert_eq!(n, EVENTS + blocks(1));
}

#[test]
fn a_generic_instant_allocates_once() {
    // Its `args` vector, boxed in place: the literal's capacity is exact.
    assert_eq!(per_event(decision_instant), EVENTS + blocks(1));
}

#[test]
fn emission_without_a_scope_allocates_nothing() {
    let n = allocations(|| {
        for i in 0..EVENTS {
            assert!(!enabled());
            span_begin("sched", "run", i);
            span_end_args(i + 1, Vec::new());
            instant("comm", "send", i, Vec::new());
            sched_span(SchedState::Run, i, i + 1, 1, 1);
            comm_send(i, msg(i), 0);
            comm_recv(i, msg(i), 0, 0, 0);
            begin_cycle(i, 1);
            count("sim.msgs_sent", 1);
            assert!(counter_handle("sim.msgs_sent").is_none());
        }
    });
    assert_eq!(n, 0);
}

// ---------------------------------------------------------------------------
// Readers: the health fold and the exports
// ---------------------------------------------------------------------------

const RANKS: u64 = 8;

/// Events shaped like an adaptive Jacobi run's on 8 ranks, in the shares
/// its trace has (per 100: 41 scheduler runs, 18 sends, 18 receives,
/// 6 blocked spans, 6 + 6 cycle bounds, 5 row charges), over `rounds`
/// rounds of one cycle each, ≈ 150 µs apart, at timestamps with odd
/// nanoseconds.
fn adapt8_mix(rounds: u64) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for r in 0..rounds {
        let t0 = 1_000_000_007 + r * 150_013;
        for i in 0..100u64 {
            let (rank, ts_ns) = ((i % RANKS) as u32, t0 + i * 1_237);
            let dur_ns = 900 + i * 37;
            let msg = Msg {
                peer: (i + 1) % RANKS,
                tag: 4_294_987_776 + i % 3,
                seq: r * 100 + i,
                bytes: 8_192,
            };
            events.push(match i {
                0..=40 => TraceEvent::Sched {
                    state: SchedState::Run,
                    rank,
                    ts_ns,
                    dur_ns,
                    cpu_ns: dur_ns - 13,
                    slices: 1 + i % 4,
                },
                41..=58 => TraceEvent::Send {
                    rank,
                    ts_ns,
                    msg,
                    queued_ns: 0,
                },
                59..=76 => TraceEvent::Recv {
                    rank,
                    ts_ns,
                    msg,
                    rx_queued_ns: 21_017,
                    late_ns: 113_009,
                    net_ns: 16_384,
                },
                77..=82 => TraceEvent::Blocked {
                    rank,
                    ts_ns,
                    dur_ns,
                },
                83..=88 => TraceEvent::BeginCycle {
                    rank,
                    ts_ns,
                    cycle: r,
                },
                89..=94 => TraceEvent::EndCycle {
                    rank,
                    ts_ns,
                    dur_ns,
                    cycle: r,
                },
                _ => TraceEvent::ChargeRows {
                    grace: false,
                    rank,
                    ts_ns,
                    dur_ns: 131_072 + i,
                    rows: 64,
                    cpu_ns: 98_304 + i,
                    work_uflop: 163_840_000,
                },
            });
        }
    }
    events
}

#[test]
fn the_health_fold_allocates_nothing_in_covered_windows() {
    let monitor = HealthMonitor::new(DEFAULT_WINDOW_NS);
    let events = adapt8_mix(200);
    // The first pass lays out every window and node the second touches.
    events.iter().for_each(|ev| monitor.on_event(ev));
    let n = allocations(|| events.iter().for_each(|ev| monitor.on_event(ev)));
    assert_eq!(n, 0);
}

#[test]
fn the_health_jsonl_allocates_less_than_once_per_window() {
    let monitor = HealthMonitor::new(1_000_000);
    adapt8_mix(1_000).iter().for_each(|ev| monitor.on_event(ev));
    let report = monitor.report();
    assert!(
        report.windows.len() >= 100,
        "{} windows",
        report.windows.len()
    );
    let mut text = String::new();
    let n = allocations(|| text = report.to_jsonl());
    assert!(n < report.windows.len() as u64, "{n} allocations");
    assert_eq!(text.lines().count(), report.windows.len());
}

#[test]
fn the_exports_allocate_once_for_their_output() {
    let events = adapt8_mix(100);
    for export in [chrome_trace, jsonl] {
        let mut text = String::new();
        assert_eq!(allocations(|| text = export(&events)), 1);
        // The mix is as wordy as the run it imitates (≈ 135 B per event).
        assert!(text.len() > 125 * events.len(), "{} B", text.len());
    }
}

// ---------------------------------------------------------------------------
// The recording: rank blocks read in place
// ---------------------------------------------------------------------------

/// `flushes` scopes over 8 ranks (a rank re-installed after 8), each
/// emitting `per_flush` sends whose timestamps interleave across ranks.
fn recorded(flushes: u64, per_flush: u64) -> Recorder {
    let rec = Recorder::new();
    for f in 0..flushes {
        let _guard = rec.install((f % RANKS) as usize);
        for i in 0..per_flush {
            comm_send(i * 13 + f % 5, msg(i), 0);
        }
    }
    rec
}

#[test]
fn counting_a_recording_allocates_nothing() {
    let rec = recorded(12, 3_000);
    let mut len = 0;
    assert_eq!(allocations(|| len = rec.events().len()), 0);
    assert_eq!(len, 36_000);
}

#[test]
fn a_recordings_exports_allocate_their_document_once_it_is_walked() {
    for (flushes, per_flush) in [(1, 500), (12, 3_000), (40, 2_000)] {
        let rec = recorded(flushes, per_flush);
        let mut text = String::new();
        // The first walk merges: one sorted index vector per run, the
        // vector holding them, the heap of the runs' heads and the order.
        let merge = flushes + 3;
        assert_eq!(allocations(|| text = rec.chrome_trace()), merge + 1);
        for export in [Recorder::chrome_trace, Recorder::jsonl] {
            assert_eq!(allocations(|| text = export(&rec)), 1);
            assert!(text.len() > 100 * (flushes * per_flush) as usize);
        }
    }
}
