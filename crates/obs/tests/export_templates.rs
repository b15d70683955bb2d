//! The exporters against a plain renderer kept here: each event becomes a
//! `Json` tree of its fields, its attributes taken from `Args::to_vec()`,
//! and the tree's text is what the Chrome and JSONL writers must produce,
//! byte for byte — for every typed kind (whose constant text the writers
//! render from a template) and for generic events whose strings need
//! escaping.

use dynmpi_obs::export::{chrome_trace, jsonl, write_chrome_trace, write_jsonl, EXACT_US_BELOW_NS};
use dynmpi_obs::trace::{intern, intern_cat, COLLECTIVES, MAX_TS_NS};
use dynmpi_obs::{parse_jsonl, Json, Msg, SchedState, TraceEvent};
use dynmpi_testkit::{check_n, Rng};

/// `ns` in microseconds as the `f64` `ns / 1000` is written.
fn us(ns: u64) -> Json {
    if ns.is_multiple_of(1_000) {
        Json::UInt(ns / 1_000)
    } else {
        Json::Num(ns as f64 / 1_000.0)
    }
}

fn args(ev: &TraceEvent) -> Json {
    Json::Obj(
        (ev.args().to_vec().into_iter())
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn chrome_object(ev: &TraceEvent) -> Json {
    let ph = if ev.dur_ns().is_some() { "X" } else { "i" };
    let mut fields = vec![
        ("ph", Json::str(ph)),
        ("cat", Json::str(ev.cat())),
        ("name", Json::str(ev.name())),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(ev.rank() as u64)),
        ("ts", us(ev.ts_ns())),
    ];
    fields.push(match ev.dur_ns() {
        Some(dur_ns) => ("dur", us(dur_ns)),
        None => ("s", Json::str("t")),
    });
    fields.push(("args", args(ev)));
    Json::obj(fields)
}

fn jsonl_object(ev: &TraceEvent) -> Json {
    let kind = if ev.dur_ns().is_some() {
        "span"
    } else {
        "instant"
    };
    let mut fields = vec![
        ("kind", Json::str(kind)),
        ("cat", Json::str(ev.cat())),
        ("name", Json::str(ev.name())),
        ("rank", Json::UInt(ev.rank() as u64)),
        ("ts_ns", Json::UInt(ev.ts_ns())),
    ];
    if let Some(dur_ns) = ev.dur_ns() {
        fields.push(("dur_ns", Json::UInt(dur_ns)));
    }
    fields.push(("args", args(ev)));
    Json::obj(fields)
}

fn plain_chrome(events: &[TraceEvent]) -> String {
    let objects = events.iter().map(chrome_object).collect();
    let doc = Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(objects)),
    ]);
    doc.to_string()
}

fn plain_jsonl(events: &[TraceEvent]) -> String {
    (events.iter())
        .map(|ev| format!("{}\n", jsonl_object(ev)))
        .collect()
}

/// Integers at the edges of their decimal widths, `u64::MAX` among them.
fn edge_u64(rng: &mut Rng) -> u64 {
    match rng.range_u64(0, 5) {
        0 => u64::MAX - rng.range_u64(0, 2),
        1 => 10u64.pow(rng.range_u32(0, 20)) - rng.range_u64(0, 2),
        2 => rng.range_u64(0, 10),
        _ => rng.next_u64() >> rng.range_u64(0, 64),
    }
}

/// A span `(ts, dur)` that ends by `MAX_TS_NS`: at it, on both sides of
/// `EXACT_US_BELOW_NS`, with and without a fraction of a microsecond.
fn edge_times(rng: &mut Rng) -> (u64, u64) {
    let ts = match rng.range_u64(0, 5) {
        0 => MAX_TS_NS,
        1 => EXACT_US_BELOW_NS + rng.range_u64(0, 2_000),
        2 => EXACT_US_BELOW_NS - rng.range_u64(1, 2_000),
        3 => rng.range_u64(0, 3_000),
        _ => rng.next_u64() >> rng.range_u64(12, 64),
    };
    let dur = rng.range_u64(0, 5_000).min(MAX_TS_NS - ts);
    (ts, dur)
}

/// One event of typed kind `kind` (every kind for `kind` in `0..16`).
fn typed(rng: &mut Rng, kind: u64) -> TraceEvent {
    let (rank, (ts_ns, dur_ns)) = (rng.range_u32(0, 1 << 20), edge_times(rng));
    let mut v = || edge_u64(rng);
    let msg = Msg {
        peer: v(),
        tag: v(),
        seq: v(),
        bytes: v(),
    };
    match kind {
        0..=2 => TraceEvent::Sched {
            state: [SchedState::Run, SchedState::Wait, SchedState::RunWait][kind as usize],
            rank,
            ts_ns,
            dur_ns,
            cpu_ns: v(),
            slices: v(),
        },
        3 => TraceEvent::Blocked {
            rank,
            ts_ns,
            dur_ns,
        },
        4 => TraceEvent::Send {
            rank,
            ts_ns,
            msg,
            queued_ns: v(),
        },
        5 => TraceEvent::Recv {
            rank,
            ts_ns,
            msg,
            rx_queued_ns: v(),
            late_ns: v(),
            net_ns: v(),
        },
        6 => TraceEvent::BeginCycle {
            rank,
            ts_ns,
            cycle: v(),
        },
        7 => TraceEvent::EndCycle {
            rank,
            ts_ns,
            dur_ns,
            cycle: v(),
        },
        8 | 9 => TraceEvent::ChargeRows {
            grace: kind == 9,
            rank,
            ts_ns,
            dur_ns,
            rows: v(),
            cpu_ns: v(),
            work_uflop: v(),
        },
        _ => TraceEvent::Collective {
            name: COLLECTIVES[(kind - 10) as usize],
            rank,
            ts_ns,
            dur_ns,
            ranks: v(),
            bytes: v(),
        },
    }
}

/// A string that needs escaping more often than not.
fn awkward(rng: &mut Rng) -> String {
    const PIECES: &[&str] = &[
        "k", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "é", "😀", "/",
    ];
    (0..rng.range_usize(1, 6))
        .map(|_| PIECES[rng.range_usize(0, PIECES.len())])
        .collect()
}

fn generic(rng: &mut Rng) -> TraceEvent {
    let (rank, (ts, dur)) = (rng.range_u32(0, 1 << 20), edge_times(rng));
    let cat = intern_cat(&awkward(rng));
    let name = intern(&awkward(rng));
    let args = (0..rng.range_usize(0, 4))
        .map(|i| {
            let value = match i % 3 {
                0 => Json::UInt(edge_u64(rng)),
                1 => Json::Str(awkward(rng)),
                _ => Json::Arr(vec![Json::Num(-2.5), Json::Bool(true), Json::Null]),
            };
            (intern(&awkward(rng)), value)
        })
        .collect();
    match rng.chance(0.5) {
        true => TraceEvent::span(cat, name, rank, ts, dur, args),
        false => TraceEvent::instant(cat, name, rank, ts, args),
    }
}

#[test]
fn the_writers_equal_the_plain_renderer_for_every_kind() {
    check_n("export_templates", 200, |rng| {
        let mut events: Vec<TraceEvent> = (0..16).map(|kind| typed(rng, kind)).collect();
        events.extend((0..rng.range_usize(0, 6)).map(|_| generic(rng)));
        let (chrome, lines) = (chrome_trace(&events), jsonl(&events));
        assert_eq!(chrome, plain_chrome(&events));
        assert_eq!(lines, plain_jsonl(&events));
        assert_eq!(parse_jsonl(&lines).expect("exported JSONL parses"), events);
    });
}

/// The streaming writers render in chunks; a long stream crosses several
/// chunk boundaries and must still write the `String` exporters' bytes.
#[test]
fn streaming_writes_the_same_bytes_across_chunks() {
    let mut rng = Rng::new(7);
    let events: Vec<TraceEvent> = (0..10_000u64)
        .map(|i| match i % 50 {
            0 => generic(&mut rng),
            k => typed(&mut rng, k % 16),
        })
        .collect();
    let (mut chrome, mut lines) = (String::new(), String::new());
    write_chrome_trace(&mut chrome, &events).expect("a String takes every write");
    write_jsonl(&mut lines, &events).expect("a String takes every write");
    assert_eq!(chrome, chrome_trace(&events));
    assert_eq!(chrome, plain_chrome(&events));
    assert_eq!(lines, jsonl(&events));
    let (mut chrome, mut lines) = (String::new(), String::new());
    write_chrome_trace(&mut chrome, &[]).expect("a String takes every write");
    write_jsonl(&mut lines, &[]).expect("a String takes every write");
    assert_eq!((chrome, lines), (plain_chrome(&[]), String::new()));
}
