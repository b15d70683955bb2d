//! The recorder's run-wise merge against a reference: every read of
//! `Recorder::events` must equal a stable sort by `(ts_ns, rank)` of all
//! events appended so far, in flush order and, within a flush, in the
//! order the rank emitted them (a span is emitted when it closes).

use dynmpi_obs::{instant, span_begin, span_end_args, Json, Recorder, TraceEvent};
use dynmpi_testkit::{check_n, Rng};

/// What every read is checked against: `(ts_ns, rank, id)` of each
/// appended event, in append order.
type Appended = Vec<(u64, usize, u64)>;

fn id_args(id: u64) -> Vec<(&'static str, Json)> {
    vec![("id", Json::UInt(id))]
}

/// `(ts_ns, rank, id)` of every event of a read.
fn read(events: &[TraceEvent]) -> Appended {
    (events.iter())
        .map(|ev| {
            let id = ev.args().to_vec()[0]
                .1
                .as_u64()
                .expect("every event has an id");
            (ev.ts_ns(), ev.rank(), id)
        })
        .collect()
}

fn reference(appended: &Appended) -> Appended {
    let mut sorted = appended.clone();
    sorted.sort_by_key(|&(ts, rank, _)| (ts, rank));
    sorted
}

/// One scope of `rank`: a random program of nested spans (some of zero
/// length), instants, and timestamps that repeat, within the rank and
/// across ranks. Appends each event as it is emitted.
fn session(rng: &mut Rng, rank: usize, next_id: &mut u64, appended: &mut Appended) {
    let mut emit = |ts: u64, appended: &mut Appended| {
        let id = *next_id;
        *next_id += 1;
        appended.push((ts, rank, id));
        id
    };
    // Coarse timestamps: most of them collide.
    let mut now = rng.range_u64(0, 4) * 100;
    let mut open: Vec<u64> = Vec::new();
    for _ in 0..rng.range_usize(0, 60) {
        match rng.range_u64(0, 4) {
            0 => {
                span_begin("runtime", "outer", now);
                open.push(now);
            }
            1 if !open.is_empty() => {
                let start = open.pop().expect("a span is open");
                let id = emit(start, appended);
                span_end_args(now, id_args(id));
            }
            2 => {
                // A zero-length span.
                span_begin("runtime", "mark", now);
                let id = emit(now, appended);
                span_end_args(now, id_args(id));
            }
            _ => {
                let id = emit(now, appended);
                instant("comm", "note", now, id_args(id));
            }
        }
        now += rng.range_u64(0, 3) * 100;
    }
    while let Some(start) = open.pop() {
        let id = emit(start, appended);
        span_end_args(now, id_args(id));
    }
}

#[test]
fn every_read_is_the_stable_sort_of_what_was_appended() {
    check_n("merge_order", 300, |rng| {
        let rec = Recorder::new();
        let mut appended = Appended::new();
        let mut next_id = 0;
        // A read some callers still hold, so a later merge copies first.
        let mut held = None;
        let ranks = rng.range_usize(1, 6);
        for _ in 0..rng.range_usize(1, 3 * ranks + 1) {
            // Ranks repeat: a re-installed rank flushes a second run.
            let rank = rng.range_usize(0, ranks);
            {
                let _guard = rec.install(rank);
                session(rng, rank, &mut next_id, &mut appended);
            }
            if rng.chance(0.3) {
                let events = rec.events();
                assert_eq!(read(&events), reference(&appended));
                if rng.chance(0.5) {
                    held = Some((events, appended.clone()));
                }
            }
        }
        assert_eq!(read(&rec.events()), reference(&appended));
        if let Some((events, then)) = held {
            assert_eq!(read(&events), reference(&then), "a held read changed");
        }
    });
}

/// Spans closed innermost first make a rank's buffer descend all the way:
/// the merge must fall back from insertion to a full sort and still keep
/// the order, across several buffer blocks.
#[test]
fn a_descending_rank_buffer_merges_in_order() {
    let rec = Recorder::new();
    let mut appended = Appended::new();
    for rank in [1, 0] {
        let _guard = rec.install(rank);
        let depth = 5_000;
        for i in 0..depth {
            span_begin("runtime", "nest", i / 2);
        }
        for i in (0..depth).rev() {
            let id = appended.len() as u64;
            appended.push((i / 2, rank, id));
            span_end_args(depth, id_args(id));
        }
    }
    assert_eq!(read(&rec.events()), reference(&appended));
}
