//! The recorder's exports walk its rank runs through the merge, without
//! building the canonical slice. Each must equal the slice exporter over a
//! reference order built here: every event a sink saw, in append order,
//! stably sorted by `(ts_ns, rank)`.

use std::sync::{Arc, Mutex};

use dynmpi_obs::export::{chrome_trace, jsonl, write_chrome_trace, write_jsonl};
use dynmpi_obs::{
    analyze, begin_cycle, comm_recv, comm_send, instant, sched_span, span_begin, span_end,
    span_end_args, EventSink, Json, Msg, Recorder, SchedState, TraceEvent,
};
use dynmpi_testkit::{check_n, Rng};

/// Every emitted event, in the order the ranks emitted and flushed them
/// (the ranks here take turns on one thread).
#[derive(Default)]
struct Appended(Mutex<Vec<TraceEvent>>);

impl EventSink for Appended {
    fn on_event(&self, ev: &TraceEvent) {
        self.0
            .lock()
            .expect("no test thread panics")
            .push(ev.clone());
    }
}

impl Appended {
    fn reference(&self) -> Vec<TraceEvent> {
        let mut events = self.0.lock().expect("no test thread panics").clone();
        events.sort_by_key(|ev| (ev.ts_ns(), ev.rank()));
        events
    }
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
fn session(rng: &mut Rng, len: usize) {
    let mut now = rng.range_u64(0, 4) * 1_000;
    let mut open = 0;
    for _ in 0..len {
        match rng.range_u64(0, 7) {
            0 => {
                span_begin("runtime", "outer", now);
                open += 1;
            }
            1 if open > 0 => {
                span_end_args(now, vec![("k", Json::UInt(now))]);
                open -= 1;
            }
            2 => sched_span(SchedState::Run, now, now + 1_500, 1_000, 2),
            3 => comm_send(now, msg(rng), 250),
            4 => comm_recv(now, msg(rng), 10, 20, 30),
            5 => begin_cycle(now, rng.range_u64(0, 100)),
            _ => instant("comm", "note \"q\"", now, vec![("v", Json::Num(0.5))]),
        }
        now += rng.range_u64(0, 3) * 500;
    }
    for _ in 0..open {
        span_end(now);
    }
}

/// Records `flushes` random sessions over `ranks` ranks, each rank
/// re-installed as often as the draw says.
fn record(rng: &mut Rng, ranks: usize, flushes: usize, len: usize) -> (Recorder, Arc<Appended>) {
    let rec = Recorder::new();
    let appended = Arc::new(Appended::default());
    rec.subscribe(appended.clone());
    for _ in 0..flushes {
        let _guard = rec.install(rng.range_usize(0, ranks));
        let len = rng.range_usize(0, len);
        session(rng, len);
    }
    (rec, appended)
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
        let (rec, appended) = record(rng, ranks, flushes, 400);
        assert_exports_match(&rec, &appended.reference(), "streamed_exports");
    });
}

#[test]
fn streamed_exports_cross_the_writers_chunks() {
    // Far more than one 4 096-event chunk, over several buffer chunks per
    // rank.
    let mut rng = Rng::new(7);
    let (rec, appended) = record(&mut rng, 3, 9, 6_000);
    assert!(rec.events().len() > 3 * 4_096, "{}", rec.events().len());
    assert_exports_match(&rec, &appended.reference(), "crossing_chunks");
}

/// A rank of 71 680 events, whose run fills dozens of buffer chunks and
/// whose tail sorts before its head.
#[test]
fn a_rank_of_many_chunks_exports_in_order() {
    let rec = Recorder::new();
    let appended = Arc::new(Appended::default());
    rec.subscribe(appended.clone());
    let per_rank = 70 * 1_024;
    for rank in [1, 0] {
        let _guard = rec.install(rank);
        // Outer spans close last: the run's tail sorts before its head.
        for i in 0..per_rank / 2 {
            span_begin("runtime", "nest", i);
        }
        for i in 0..per_rank / 2 {
            comm_send(
                per_rank / 2 + i % 3,
                Msg {
                    peer: 0,
                    tag: 1,
                    seq: i,
                    bytes: 8,
                },
                0,
            );
        }
        for _ in 0..per_rank / 2 {
            span_end(per_rank);
        }
    }
    let events = rec.events();
    assert_eq!(events.len() as u64, 2 * (per_rank / 2 + per_rank / 2));
    let keys: Vec<_> = events.iter().map(|ev| (ev.ts_ns(), ev.rank())).collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "out of order");
    assert_exports_match(&rec, &appended.reference(), "many_chunks");
}
