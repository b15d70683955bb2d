//! The recorder's exports walk its rank runs through the merge, without
//! building the canonical slice. Each must equal the slice exporter over a
//! reference order built here: every event the test emitted, built from
//! the arguments of each tracing call (spans closed from the test's own
//! stack), stably sorted by `(ts_ns, rank)`.

use dynmpi_obs::export::{chrome_trace, jsonl, write_chrome_trace, write_jsonl};
use dynmpi_obs::{
    analyze, begin_cycle, comm_recv, comm_send, instant, sched_span, span_begin, span_end_args,
    Json, Msg, Recorder, SchedState, TraceEvent,
};
use dynmpi_testkit::{check_n, Rng};

/// What one installed rank emitted, in emission order.
struct Emitted<'a> {
    rank: u32,
    /// The open spans' names and starts, innermost last.
    open: Vec<(&'static str, u64)>,
    events: &'a mut Vec<TraceEvent>,
}

impl Emitted<'_> {
    fn begin(&mut self, name: &'static str, ts_ns: u64) {
        span_begin("runtime", name, ts_ns);
        self.open.push((name, ts_ns));
    }

    /// Closes the innermost span with `args`.
    fn end(&mut self, ts_ns: u64, args: Vec<(&'static str, Json)>) {
        let (name, start) = self.open.pop().expect("a span is open");
        span_end_args(ts_ns, args.clone());
        let ev = TraceEvent::span("runtime", name, self.rank, start, ts_ns - start, args);
        self.events.push(ev);
    }

    /// Emits `ev` (a sched span or an instant of this rank) through its
    /// tracing call.
    fn emit(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Sched {
                state,
                ts_ns,
                dur_ns,
                cpu_ns,
                slices,
                ..
            } => sched_span(state, ts_ns, ts_ns + dur_ns, cpu_ns, slices),
            TraceEvent::Send {
                ts_ns,
                msg,
                queued_ns,
                ..
            } => comm_send(ts_ns, msg, queued_ns),
            TraceEvent::Recv {
                ts_ns,
                msg,
                rx_queued_ns,
                late_ns,
                net_ns,
                ..
            } => comm_recv(ts_ns, msg, rx_queued_ns, late_ns, net_ns),
            TraceEvent::BeginCycle { ts_ns, cycle, .. } => begin_cycle(ts_ns, cycle),
            TraceEvent::Instant {
                cat,
                name,
                ts_ns,
                ref args,
                ..
            } => instant(cat, name, ts_ns, args.to_vec()),
            _ => unreachable!("not emitted here: {ev:?}"),
        }
        self.events.push(ev);
    }
}

/// `appended`, stably sorted by `(ts_ns, rank)`.
fn reference(mut appended: Vec<TraceEvent>) -> Vec<TraceEvent> {
    appended.sort_by_key(|ev| (ev.ts_ns(), ev.rank()));
    appended
}

fn msg(rng: &mut Rng) -> Msg {
    Msg {
        peer: rng.range_u64(0, 4),
        tag: 7,
        seq: rng.range_u64(0, 1 << 40),
        bytes: rng.range_u64(0, 1 << 20),
    }
}

/// `len` events of one rank: typed and generic kinds, nested spans that
/// close after what they contain, and coarse timestamps that collide
/// within the rank and across ranks.
fn session(rng: &mut Rng, len: usize, out: &mut Emitted) {
    let rank = out.rank;
    let mut now = rng.range_u64(0, 4) * 1_000;
    for _ in 0..len {
        match rng.range_u64(0, 7) {
            0 => out.begin("outer", now),
            1 if !out.open.is_empty() => out.end(now, vec![("k", Json::UInt(now))]),
            2 => out.emit(TraceEvent::Sched {
                state: SchedState::Run,
                rank,
                ts_ns: now,
                dur_ns: 1_500,
                cpu_ns: 1_000,
                slices: 2,
            }),
            3 => out.emit(TraceEvent::Send {
                rank,
                ts_ns: now,
                msg: msg(rng),
                queued_ns: 250,
            }),
            4 => out.emit(TraceEvent::Recv {
                rank,
                ts_ns: now,
                msg: msg(rng),
                rx_queued_ns: 10,
                late_ns: 20,
                net_ns: 30,
            }),
            5 => out.emit(TraceEvent::BeginCycle {
                rank,
                ts_ns: now,
                cycle: rng.range_u64(0, 100),
            }),
            _ => out.emit(TraceEvent::instant(
                "comm",
                "note \"q\"",
                rank,
                now,
                vec![("v", Json::Num(0.5))],
            )),
        }
        now += rng.range_u64(0, 3) * 500;
    }
    while !out.open.is_empty() {
        out.end(now, Vec::new());
    }
}

/// Records `flushes` random sessions over `ranks` ranks, each rank
/// re-installed as often as the draw says; returns the reference order.
fn record(rng: &mut Rng, ranks: usize, flushes: usize, len: usize) -> (Recorder, Vec<TraceEvent>) {
    let rec = Recorder::new();
    let mut appended = Vec::new();
    for _ in 0..flushes {
        let rank = rng.range_usize(0, ranks);
        let _guard = rec.install(rank);
        let len = rng.range_usize(0, len);
        let mut out = Emitted {
            rank: rank as u32,
            open: Vec::new(),
            events: &mut appended,
        };
        session(rng, len, &mut out);
    }
    (rec, reference(appended))
}

/// Every export of `rec` against the slice exporters over `reference`.
fn assert_exports_match(rec: &Recorder, reference: &[TraceEvent], file: &str) {
    assert_eq!(rec.events().len(), reference.len());
    assert_eq!(rec.chrome_trace(), chrome_trace(reference));
    assert_eq!(rec.jsonl(), jsonl(reference));
    assert_eq!(rec.profile(), analyze(reference));

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (chrome_path, jsonl_path) = (
        dir.join(format!("{file}.json")),
        dir.join(format!("{file}.jsonl")),
    );
    rec.write_chrome_trace(&chrome_path)
        .expect("the trace is written");
    rec.write_jsonl(&jsonl_path).expect("the stream is written");
    let mut want = String::new();
    write_chrome_trace(&mut want, reference).expect("a String takes any text");
    assert_eq!(
        std::fs::read_to_string(&chrome_path).expect("readable"),
        want
    );
    want.clear();
    write_jsonl(&mut want, reference).expect("a String takes any text");
    assert_eq!(
        std::fs::read_to_string(&jsonl_path).expect("readable"),
        want
    );

    // The view's slice and its element-wise comparison agree too.
    assert_eq!(&*rec.events(), reference);
    assert_eq!(rec.events(), rec.events());
}

#[test]
fn streamed_exports_equal_the_slice_exports_of_the_stable_sort() {
    check_n("streamed_exports", 60, |rng| {
        let ranks = rng.range_usize(1, 6);
        let flushes = rng.range_usize(1, 3 * ranks + 1);
        let (rec, reference) = record(rng, ranks, flushes, 400);
        assert_exports_match(&rec, &reference, "streamed_exports");
    });
}

#[test]
fn streamed_exports_cross_the_writers_chunks() {
    // Far more than one 4 096-event chunk, over several buffer chunks per
    // rank.
    let mut rng = Rng::new(7);
    let (rec, reference) = record(&mut rng, 3, 9, 6_000);
    assert!(rec.events().len() > 3 * 4_096, "{}", rec.events().len());
    assert_exports_match(&rec, &reference, "crossing_chunks");
}

/// A rank of 71 680 events, whose run fills dozens of buffer chunks and
/// whose tail sorts before its head.
#[test]
fn a_rank_of_many_chunks_exports_in_order() {
    let rec = Recorder::new();
    let mut appended = Vec::new();
    let per_rank = 70 * 1_024;
    for rank in [1, 0] {
        let _guard = rec.install(rank as usize);
        let mut out = Emitted {
            rank,
            open: Vec::new(),
            events: &mut appended,
        };
        // Outer spans close last: the run's tail sorts before its head.
        for i in 0..per_rank / 2 {
            out.begin("nest", i);
        }
        for i in 0..per_rank / 2 {
            out.emit(TraceEvent::Send {
                rank,
                ts_ns: per_rank / 2 + i % 3,
                msg: Msg {
                    peer: 0,
                    tag: 1,
                    seq: i,
                    bytes: 8,
                },
                queued_ns: 0,
            });
        }
        for _ in 0..per_rank / 2 {
            out.end(per_rank, Vec::new());
        }
    }
    let events = rec.events();
    assert_eq!(events.len() as u64, 2 * (per_rank / 2 + per_rank / 2));
    let keys: Vec<_> = events.iter().map(|ev| (ev.ts_ns(), ev.rank())).collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "out of order");
    assert_exports_match(&rec, &reference(appended), "many_chunks");
}
