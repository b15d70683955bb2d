//! Deterministic pins on what emitting an event allocates.
//!
//! The hot kinds (scheduler spans, sends, receives, cycle bounds, row
//! charges, collectives) are typed events with their integers inline, so
//! emitting one allocates nothing; a generic event owns one heap block,
//! its boxed `args` (a generic span without attributes owns none), and
//! takes a slot in its rank's side table. A rank's buffer allocates one
//! chunk of [`CHUNK_BYTES`] for the encoded events that fill it. The
//! counts below are exact on a thread whose span stack and list of chunks
//! have grown: a change that turns a key or a name back into a `String`,
//! or boxes something per event, fails here and not on a noisy wall-clock
//! bar.

use dynmpi_obs::export::{chrome_trace, jsonl};
use dynmpi_obs::{
    begin_cycle, comm_recv, comm_send, count, counter_handle, enabled, instant, sched_span,
    span_begin, span_end, span_end_args, span_end_blocked, span_end_charge_rows,
    span_end_collective, span_end_cycle, EventSink, HealthMonitor, Json, Msg, Recorder, SchedState,
    TraceEvent, CHUNK_BYTES, DEFAULT_WINDOW_NS,
};
use dynmpi_testkit::{allocations, heap_bytes, CountingAlloc};

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

/// Fills 65 chunks exactly with blocked spans of 4 bytes each (a zero
/// delta, the length, the kind and a zero duration), so the next event
/// opens a chunk and the list of chunks (its capacity doubled to 128) has
/// room for the chunks that `EVENTS` calls fill; and grows the span stack.
fn grow_buffers() {
    for _ in 0..65 * CHUNK_BYTES / 4 {
        span_begin("sched", "blocked", 0);
        span_end_blocked(0);
    }
}

/// Bytes of `v` as a LEB128 varint.
fn varint(v: u64) -> u64 {
    (64 - u64::from((v | 1).leading_zeros())).div_ceil(7)
}

/// The chunks that events of the encoded `sizes` open after
/// [`grow_buffers`]: one allocation each. An event goes into the last
/// chunk if it fits, else into a new one.
fn chunks(sizes: impl IntoIterator<Item = u64>) -> u64 {
    let (mut opened, mut fill) = (0, CHUNK_BYTES as u64);
    for size in sizes {
        if fill + size > CHUNK_BYTES as u64 {
            opened += 1;
            fill = 0;
        }
        fill += size;
    }
    opened
}

/// The allocations of a rank's side table while it takes `n` generic
/// events: it grows to 4, then doubles whenever it is full.
fn side_table(n: u64) -> u64 {
    (0..n)
        .filter(|&k| k == 0 || (k >= 4 && k.is_power_of_two()))
        .count() as u64
}

/// One scope, buffers grown, then the allocations of `EVENTS` runs of `f`.
fn per_event(f: impl Fn(u64)) -> u64 {
    let rec = Recorder::new();
    let _guard = rec.install(0);
    grow_buffers();
    allocations(|| (0..EVENTS).for_each(f))
}

// Event `i` of each pin below is at `ts_ns` `i` (`10 * i`) or a few
// nanoseconds later and at or after every event before it, so every
// timestamp delta takes one byte, as do the length byte, the kind and
// each small integer.

#[test]
fn a_sched_span_allocates_nothing() {
    let n = per_event(|i| sched_span(SchedState::RunWait, i, i + 10, 5, 2));
    assert_eq!(n, chunks((0..EVENTS).map(|_| 6)));
}

#[test]
fn a_blocked_span_allocates_nothing() {
    let n = per_event(|i| {
        span_begin("sched", "blocked", i);
        span_end_blocked(i + 1);
    });
    assert_eq!(n, chunks((0..EVENTS).map(|_| 4)));
}

/// A send of [`msg`]`(i)`: its `seq` is `i`, its 2 048 `bytes` two bytes.
fn send_bytes(i: u64) -> u64 {
    7 + varint(i) + 1
}

#[test]
fn a_send_allocates_nothing() {
    let n = per_event(|i| comm_send(i, msg(i), 3));
    assert_eq!(n, chunks((0..EVENTS).map(send_bytes)));
}

#[test]
fn a_recv_allocates_nothing() {
    let n = per_event(|i| comm_recv(i, msg(i), 1, 2, 3));
    assert_eq!(n, chunks((0..EVENTS).map(|i| send_bytes(i) + 2)));
}

#[test]
fn cycle_bounds_allocate_nothing() {
    let n = per_event(|i| {
        begin_cycle(i, i + 1);
        span_begin("runtime", "end_cycle", i);
        span_end_cycle(i + 5, i + 1);
    });
    let sizes = (0..EVENTS).flat_map(|i| [3 + varint(i + 1), 4 + varint(i + 1)]);
    assert_eq!(n, chunks(sizes));
}

#[test]
fn a_charge_rows_span_allocates_nothing() {
    let n = per_event(|i| {
        span_begin("runtime", "charge_rows", 10 * i);
        span_end_charge_rows(10 * i + 5, 64, 5, 1_000);
        span_begin("runtime", "grace_measure", 10 * i + 5);
        span_end_charge_rows(10 * i + 9, 64, 4, 1_000);
    });
    assert_eq!(n, chunks((0..2 * EVENTS).map(|_| 8)));
}

#[test]
fn a_collective_span_allocates_nothing() {
    let n = per_event(|i| {
        span_begin("comm", "allreduce", i);
        span_end_collective(i + 5, 8, 16);
    });
    assert_eq!(n, chunks((0..EVENTS).map(|_| 6)));
}

#[test]
fn a_span_pair_allocates_nothing() {
    // A generic event: the stream holds its index in the side table.
    let n = per_event(|i| {
        span_begin("redist", "pack", i);
        span_end(i + 1);
    });
    let stream = chunks((0..EVENTS).map(|i| 3 + varint(i)));
    assert_eq!(n, stream + side_table(EVENTS));
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
    assert_eq!(n, EVENTS + chunks((0..EVENTS).map(send_bytes)));
}

#[test]
fn a_generic_instant_allocates_once() {
    // Its `args` vector, boxed in place: the literal's capacity is exact.
    let n = per_event(decision_instant);
    let stream = chunks((0..EVENTS).map(|i| 3 + varint(i)));
    assert_eq!(n, EVENTS + stream + side_table(EVENTS));
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
// The recording: rank runs, encoded, merged by cursor
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
fn a_recordings_exports_allocate_their_document_and_one_heap() {
    for (flushes, per_flush) in [(1, 500), (12, 3_000), (40, 2_000)] {
        let rec = recorded(flushes, per_flush);
        let mut text = String::new();
        // Every walk merges the runs afresh: its heap of the runs' next
        // events, and the document.
        for export in [
            Recorder::chrome_trace,
            Recorder::jsonl,
            Recorder::chrome_trace,
        ] {
            assert_eq!(allocations(|| text = export(&rec)), 2);
            assert!(text.len() > 100 * (flushes * per_flush) as usize);
        }
    }
}

/// Emits `ev`, a typed event, through the emitter the instrumented layers
/// use for its kind.
fn emit(ev: &TraceEvent) {
    let (ts, end) = (ev.ts_ns(), ev.ts_ns() + ev.dur_ns().unwrap_or(0));
    match *ev {
        TraceEvent::Sched {
            state,
            cpu_ns,
            slices,
            ..
        } => sched_span(state, ts, end, cpu_ns, slices),
        TraceEvent::Blocked { .. } => {
            span_begin("sched", "blocked", ts);
            span_end_blocked(end);
        }
        TraceEvent::Send { msg, queued_ns, .. } => comm_send(ts, msg, queued_ns),
        TraceEvent::Recv {
            msg,
            rx_queued_ns,
            late_ns,
            net_ns,
            ..
        } => comm_recv(ts, msg, rx_queued_ns, late_ns, net_ns),
        TraceEvent::BeginCycle { cycle, .. } => begin_cycle(ts, cycle),
        TraceEvent::EndCycle { cycle, .. } => {
            span_begin("runtime", "end_cycle", ts);
            span_end_cycle(end, cycle);
        }
        TraceEvent::ChargeRows {
            grace: false,
            rows,
            cpu_ns,
            work_uflop,
            ..
        } => {
            span_begin("runtime", "charge_rows", ts);
            span_end_charge_rows(end, rows, cpu_ns, work_uflop);
        }
        _ => unreachable!("adapt8_mix emits no other kind"),
    }
}

#[test]
fn a_recording_keeps_at_most_16_bytes_an_event() {
    let events = adapt8_mix(1_000);
    let (rec, bytes) = heap_bytes(|| {
        let rec = Recorder::new();
        for rank in 0..RANKS as usize {
            let _guard = rec.install(rank);
            events.iter().filter(|ev| ev.rank() == rank).for_each(emit);
        }
        rec
    });
    let per_event = bytes as f64 / events.len() as f64;
    assert!(per_event <= 16.0, "{per_event:.2} B an event");
    assert_eq!(&*rec.events(), &events[..]);
}
