//! Properties of the one event path: what the exporters write, the order
//! the recorder hands events out in, which flushed runs a sink folds, and
//! what a malformed dump may do.

use std::path::Path;
use std::sync::{Arc, Mutex};

use dynmpi_obs::export::{chrome_trace, jsonl, EXACT_US_BELOW_NS};
use dynmpi_obs::trace::{
    intern, intern_cat, EventSink, COLLECTIVES, KNOWN_CATS, MAX_RANKS, MAX_TS_NS,
};
use dynmpi_obs::{
    instant, parse_jsonl, span_begin, span_end, span_end_args, span_end_charge_rows, ExplainEngine,
    HealthMonitor, Json, Msg, Recorder, SchedState, TraceEvent, DEFAULT_WINDOW_NS,
};
use dynmpi_testkit::{check_n, Rng};

// ---------------------------------------------------------------------------
// Exporters: the direct writers against a `Json` tree of the same event
// ---------------------------------------------------------------------------

fn random_string(rng: &mut Rng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '7', ' ', '/', '-', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
        '\u{7f}', 'é', 'ß', '\u{2028}', '数', '😀',
    ];
    rng.vec_in(0, 9, |r| ALPHABET[r.range_usize(0, ALPHABET.len())])
        .into_iter()
        .collect()
}

/// A value that `parse(write(v)) == v` holds for: finite floats that do not
/// print as a non-negative integer (those parse back as `UInt`).
fn random_value(rng: &mut Rng, depth: u32) -> Json {
    match rng.range_u64(0, if depth == 0 { 7 } else { 5 }) {
        0 => Json::UInt(rng.next_u64() >> rng.range_u64(0, 64)),
        1 => {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() && (f.fract() != 0.0 || f < 0.0) {
                Json::Num(f)
            } else {
                Json::Num(rng.range_f64(-1e6, 1e6) + 0.5)
            }
        }
        2 => Json::Bool(rng.chance(0.5)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Null,
        5 => Json::Arr(rng.vec_in(0, 4, |r| random_value(r, depth + 1))),
        _ => Json::Obj(rng.vec_in(0, 3, |r| (random_string(r), random_value(r, depth + 1)))),
    }
}

/// Timestamps on both sides of the Chrome exporter's integer-vs-fraction
/// rule, small and huge (a span of two still ends by `MAX_TS_NS`).
fn random_ns(rng: &mut Rng) -> u64 {
    let ns = rng.next_u64() >> rng.range_u64(12, 64);
    if rng.chance(0.5) {
        ns / 1_000 * 1_000
    } else {
        ns
    }
}

fn random_event(rng: &mut Rng) -> TraceEvent {
    let rank = rng.range_usize(0, MAX_RANKS) as u32;
    let ts_ns = random_ns(rng);
    if rng.chance(0.5) {
        return random_typed(rng, rank, ts_ns);
    }
    let cat = if rng.chance(0.5) {
        KNOWN_CATS[rng.range_usize(0, KNOWN_CATS.len())]
    } else {
        intern_cat(&random_string(rng))
    };
    let name = intern(&random_string(rng));
    let args = rng.vec_in(0, 6, |r| (intern(&random_string(r)), random_value(r, 0)));
    if rng.chance(0.5) {
        TraceEvent::span(cat, name, rank, ts_ns, random_ns(rng), args)
    } else {
        TraceEvent::instant(cat, name, rank, ts_ns, args)
    }
}

/// One of the typed kinds, with integers over the whole `u64` range.
fn random_typed(rng: &mut Rng, rank: u32, ts_ns: u64) -> TraceEvent {
    let mut int = || rng.next_u64() >> rng.range_u64(0, 64);
    let msg = Msg {
        peer: int(),
        tag: int(),
        seq: int(),
        bytes: int(),
    };
    let (a, b, c) = (int(), int(), int());
    let dur_ns = random_ns(rng);
    match rng.range_u64(0, 9) {
        0 => TraceEvent::Sched {
            state: [SchedState::Run, SchedState::Wait, SchedState::RunWait][(a % 3) as usize],
            rank,
            ts_ns,
            dur_ns,
            cpu_ns: b,
            slices: c,
        },
        1 => TraceEvent::Blocked {
            rank,
            ts_ns,
            dur_ns,
        },
        2 => TraceEvent::Send {
            rank,
            ts_ns,
            msg,
            queued_ns: a,
        },
        3 => TraceEvent::Recv {
            rank,
            ts_ns,
            msg,
            rx_queued_ns: a,
            late_ns: b,
            net_ns: c,
        },
        4 => TraceEvent::BeginCycle {
            rank,
            ts_ns,
            cycle: a,
        },
        5 => TraceEvent::EndCycle {
            rank,
            ts_ns,
            dur_ns,
            cycle: a,
        },
        6 | 7 => TraceEvent::ChargeRows {
            grace: a % 2 == 0,
            rank,
            ts_ns,
            dur_ns,
            rows: a,
            cpu_ns: b,
            work_uflop: c,
        },
        _ => TraceEvent::Collective {
            name: COLLECTIVES[(a % COLLECTIVES.len() as u64) as usize],
            rank,
            ts_ns,
            dur_ns,
            ranks: b,
            bytes: c,
        },
    }
}

fn args_tree(ev: &TraceEvent) -> Json {
    Json::Obj(
        ev.args()
            .to_vec()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn us(ns: u64) -> Json {
    if ns.is_multiple_of(1_000) {
        Json::UInt(ns / 1_000)
    } else {
        Json::Num(ns as f64 / 1_000.0)
    }
}

fn chrome_tree(ev: &TraceEvent) -> Json {
    let mut fields = vec![
        (
            "ph",
            Json::str(if ev.dur_ns().is_some() { "X" } else { "i" }),
        ),
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
    fields.push(("args", args_tree(ev)));
    Json::obj(fields)
}

fn jsonl_tree(ev: &TraceEvent) -> Json {
    let mut fields = vec![
        (
            "kind",
            Json::str(if ev.dur_ns().is_some() {
                "span"
            } else {
                "instant"
            }),
        ),
        ("cat", Json::str(ev.cat())),
        ("name", Json::str(ev.name())),
        ("rank", Json::UInt(ev.rank() as u64)),
        ("ts_ns", Json::UInt(ev.ts_ns())),
    ];
    if let Some(dur_ns) = ev.dur_ns() {
        fields.push(("dur_ns", Json::UInt(dur_ns)));
    }
    fields.push(("args", args_tree(ev)));
    Json::obj(fields)
}

#[test]
fn direct_writers_equal_the_json_tree_and_jsonl_round_trips() {
    check_n("export_equals_tree", 256, |rng| {
        let events = rng.vec_in(0, 5, random_event);
        let tree = Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            (
                "traceEvents",
                Json::Arr(events.iter().map(chrome_tree).collect()),
            ),
        ]);
        assert_eq!(chrome_trace(&events), tree.to_string());
        let lines: String = events
            .iter()
            .map(|ev| format!("{}\n", jsonl_tree(ev)))
            .collect();
        let text = jsonl(&events);
        assert_eq!(text, lines);
        assert_eq!(parse_jsonl(&text).expect("exported JSONL parses"), events);
    });
}

/// The `ts` and `dur` texts the Chrome exporter writes for a span of
/// `dur_ns` starting at `ts_ns`, next to what the `Json` tree writes.
fn chrome_times(ts_ns: u64, dur_ns: u64) -> (String, String) {
    let ev = TraceEvent::span("sched", "run", 0, ts_ns, dur_ns, vec![]);
    let tree = format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        chrome_tree(&ev)
    );
    (chrome_trace(&[ev]), tree)
}

#[test]
fn chrome_times_are_the_f64_texts_at_every_boundary() {
    let mut points = vec![0, 1, 999, 1_000, 1_001];
    for k in 1..=15 {
        let p = 10u64.pow(k);
        points.extend([p - 1, p, p + 1]);
    }
    let cutoff = EXACT_US_BELOW_NS;
    points.extend([cutoff - 1, cutoff, cutoff + 1, MAX_TS_NS - 1, MAX_TS_NS]);
    for ns in points {
        let (direct, tree) = chrome_times(ns, ns);
        assert_eq!(direct, tree, "ts = dur = {ns} ns");
    }
}

#[test]
fn chrome_times_are_the_f64_texts_for_log_uniform_draws() {
    let mut rng = Rng::new(0x00e5_7a11);
    let mut draw = || (rng.range_f64(0.0, 53.0).exp2() as u64).min(MAX_TS_NS);
    for _ in 0..100_000 {
        let (ts_ns, dur_ns) = (draw(), draw());
        let (direct, tree) = chrome_times(ts_ns, dur_ns);
        assert_eq!(direct, tree, "ts {ts_ns} ns, dur {dur_ns} ns");
    }
}

#[test]
fn integers_are_written_as_to_string_writes_them() {
    let mut values = vec![u64::MAX - 1, u64::MAX];
    for k in 0..=19 {
        let p = 10u64.pow(k);
        values.extend([p - 1, p, p + 1]);
    }
    for v in values {
        assert_eq!(Json::UInt(v).to_string(), v.to_string());
        // And through a typed event's attributes.
        let msg = Msg {
            peer: v,
            tag: 0,
            seq: 0,
            bytes: 0,
        };
        let line = jsonl(&[TraceEvent::Send {
            rank: 0,
            ts_ns: 0,
            msg,
            queued_ns: 0,
        }]);
        assert!(line.contains(&format!("\"peer\":{v},")), "{line}");
    }
}

// ---------------------------------------------------------------------------
// Recorder: one stable sort over append order
// ---------------------------------------------------------------------------

/// One rank's emission script: `(ts, dur)` with `dur == None` an instant.
/// Spans open and close at once, so they are emitted in script order too.
type Script = Vec<(u64, Option<u64>)>;

fn emit(script: &Script, first_seq: usize) {
    for (i, (ts, dur)) in script.iter().enumerate() {
        let seq = vec![("seq", Json::UInt((first_seq + i) as u64))];
        match dur {
            Some(d) => {
                span_begin("sched", "run", *ts);
                span_end_args(ts + d, seq);
            }
            None => instant("comm", "send", *ts, seq),
        }
    }
}

/// `(ts, rank, seq)` of every event of `events`, in order.
fn keys(events: &[TraceEvent]) -> Vec<(u64, usize, u64)> {
    events
        .iter()
        .map(|ev| {
            let seq = ev.args().to_vec()[0].1.as_u64().expect("seq");
            (ev.ts_ns(), ev.rank(), seq)
        })
        .collect()
}

fn oracle(scripts: &[Script]) -> Vec<(u64, usize, u64)> {
    let mut triples: Vec<_> = scripts
        .iter()
        .enumerate()
        .flat_map(|(rank, s)| {
            s.iter()
                .enumerate()
                .map(move |(seq, (ts, _))| (*ts, rank, seq as u64))
        })
        .collect();
    triples.sort_unstable();
    triples
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for at in 0..n {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

fn random_script(rng: &mut Rng) -> Script {
    // Few distinct timestamps: most keys collide, within and across ranks.
    rng.vec_in(0, 12, |r| {
        (
            r.range_u64(0, 4) * 500,
            r.chance(0.4).then(|| r.range_u64(0, 3)),
        )
    })
}

#[test]
fn events_order_is_ts_rank_seq_in_every_flush_order() {
    check_n("recorder_order", 200, |rng| {
        let ranks = rng.range_usize(1, 5);
        let scripts = rng.vec(ranks, random_script);
        let expected = oracle(&scripts);
        for order in permutations(ranks) {
            let rec = Recorder::new();
            for &rank in &order {
                let _guard = rec.install(rank);
                emit(&scripts[rank], 0);
            }
            assert_eq!(keys(&rec.events()), expected, "flush order {order:?}");
        }
    });
}

/// The merge as a stable sort by `(ts, rank)` over append order.
fn stable_oracle(mut appended: Vec<(u64, usize, u64)>) -> Vec<(u64, usize, u64)> {
    appended.sort_by_key(|&(ts, rank, _)| (ts, rank));
    appended
}

/// `(ts, rank, seq)` of `script` as `rank` emits it from `first_seq` on.
fn appended(script: &Script, rank: usize, first_seq: usize) -> Vec<(u64, usize, u64)> {
    (script.iter().enumerate())
        .map(|(i, (ts, _))| (*ts, rank, (first_seq + i) as u64))
        .collect()
}

/// Long enough to fill several of a rank's buffer blocks (1 024 events,
/// then each block as large as all before it).
fn long_script(rng: &mut Rng) -> Script {
    let len = rng.range_usize(1_025, 5_000);
    rng.vec(len, |r| {
        (
            r.range_u64(0, 64) * 500,
            r.chance(0.4).then(|| r.range_u64(0, 3)),
        )
    })
}

#[test]
fn events_order_holds_across_blocks_and_under_a_held_read() {
    check_n("recorder_order_blocks", 12, |rng| {
        let ranks = rng.range_usize(2, 4);
        let scripts = rng.vec(ranks, |r| {
            if r.chance(0.7) {
                long_script(r)
            } else {
                random_script(r)
            }
        });
        for order in permutations(ranks) {
            let rec = Recorder::new();
            let mut flushed = Vec::new();
            for &rank in &order {
                let _guard = rec.install(rank);
                emit(&scripts[rank], 0);
                flushed.extend(appended(&scripts[rank], rank, 0));
            }
            let before = rec.events();
            let expected = stable_oracle(flushed);
            assert_eq!(keys(&before), expected, "flush order {order:?}");

            // A rank comes back and flushes more blocks while `before` is
            // still held, so the merge copies the stream first.
            let (rank, more) = (order[0], long_script(rng));
            {
                let _guard = rec.install(rank);
                emit(&more, scripts[rank].len());
            }
            let mut flushed = expected.clone();
            flushed.extend(appended(&more, rank, scripts[rank].len()));
            assert_eq!(keys(&rec.events()), stable_oracle(flushed));
            assert_eq!(keys(&before), expected, "an earlier read changed");
        }
    });
}

#[test]
fn reinstall_after_a_read_extends_the_stream() {
    check_n("recorder_reinstall", 200, |rng| {
        let first = rng.vec(2, random_script);
        let rec = Recorder::new();
        for (rank, script) in first.iter().enumerate() {
            let _guard = rec.install(rank);
            emit(script, 0);
        }
        let before = rec.events();
        assert_eq!(keys(&before), oracle(&first));

        // Rank 0 comes back while `before` is still held by its reader.
        let more = random_script(rng);
        {
            let _guard = rec.install(0);
            emit(&more, first[0].len());
        }
        let mut both = first.clone();
        both[0].extend(more);
        assert_eq!(keys(&rec.events()), oracle(&both));
        assert_eq!(keys(&before), oracle(&first), "an earlier read changed");
    });
}

// ---------------------------------------------------------------------------
// Sinks: each flushed run, folded into the sinks subscribed then
// ---------------------------------------------------------------------------

#[test]
fn a_late_subscriber_sees_the_rank() {
    let rec = Recorder::new();
    let guard = rec.install(0);
    let health = Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS));
    rec.subscribe(health.clone());
    span_begin("runtime", "charge_rows", 1_000);
    span_end_charge_rows(6_000, 8, 4_000, 9_000);
    drop(guard);
    let report = health.report();
    assert_eq!(report.nodes, 1);
    let node = &report.windows[0].nodes[0];
    assert_eq!((node.busy_ns, node.cpu_ns), (5_000, 4_000));
}

/// Every event it was handed: `(rank, ts_ns)`, in the order handed.
#[derive(Default)]
struct Seen(Mutex<Vec<(usize, u64)>>);

impl EventSink for Seen {
    fn on_event(&self, ev: &TraceEvent) {
        self.0.lock().unwrap().push((ev.rank(), ev.ts_ns()));
    }
}

#[test]
fn a_sink_folds_each_run_that_flushes_after_it_subscribes() {
    let rec = Recorder::new();
    let flush = |rank, ts_ns| {
        let _guard = rec.install(rank);
        // The span closes last but sorts first in its run.
        span_begin("app", "outer", ts_ns);
        instant("app", "tick", ts_ns + 2, vec![]);
        span_end(ts_ns + 5);
    };
    flush(0, 10);
    let seen = Arc::new(Seen::default());
    rec.subscribe(seen.clone());
    flush(1, 30);
    flush(0, 0);
    // Not the run flushed before it subscribed; the others once each, in
    // flush order and each in its run's order.
    let got = seen.0.lock().unwrap().clone();
    assert_eq!(got, [(1, 30), (1, 32), (0, 0), (0, 2)]);
}

// ---------------------------------------------------------------------------
// Malformed dumps
// ---------------------------------------------------------------------------

#[test]
fn parse_jsonl_rejects_a_rank_at_or_above_max_ranks() {
    let line = |rank: &str| {
        format!(
            "{{\"kind\":\"instant\",\"cat\":\"comm\",\"name\":\"send\",\"rank\":{rank},\"ts_ns\":5,\"args\":{{}}}}"
        )
    };
    for rank in ["18446744073709551615", &MAX_RANKS.to_string()] {
        let err = parse_jsonl(&format!("{}\n{}\n", line("0"), line(rank))).unwrap_err();
        assert!(
            err.msg.contains("line 2") && err.msg.contains("MAX_RANKS"),
            "{err}"
        );
    }
    let ok = parse_jsonl(&line(&(MAX_RANKS - 1).to_string())).expect("largest rank parses");
    assert_eq!(ok[0].rank(), MAX_RANKS - 1);
}

#[test]
fn parse_jsonl_rejects_an_event_past_max_ts_ns() {
    let line = |ts: u64, dur: u64| {
        format!(
            "{{\"kind\":\"span\",\"cat\":\"sched\",\"name\":\"blocked\",\"rank\":0,\"ts_ns\":{ts},\"dur_ns\":{dur},\"args\":{{}}}}"
        )
    };
    for (ts, dur) in [(u64::MAX, 0), (MAX_TS_NS, 1), (7, u64::MAX)] {
        let err = parse_jsonl(&format!("{}\n{}\n", line(0, 5), line(ts, dur))).unwrap_err();
        assert!(
            err.msg.contains("line 2") && err.msg.contains("MAX_TS_NS"),
            "{err}"
        );
    }
    let ok = parse_jsonl(&line(MAX_TS_NS - 1, 1)).expect("the latest span parses");
    assert_eq!(ok[0].ts_ns(), MAX_TS_NS - 1);
}

#[test]
fn health_monitor_ignores_an_event_past_max_ts_ns() {
    let health = HealthMonitor::new(DEFAULT_WINDOW_NS);
    let explain = ExplainEngine::new(DEFAULT_WINDOW_NS);
    let recv = |ts_ns| TraceEvent::Recv {
        rank: 0,
        ts_ns,
        msg: Msg {
            peer: 1,
            tag: 0,
            seq: 1,
            bytes: 8,
        },
        rx_queued_ns: 0,
        late_ns: 3,
        net_ns: 2,
    };
    let decision = |name, ts_ns, c| {
        let args = vec![("cycle", Json::UInt(c)), ("node", Json::UInt(1))];
        TraceEvent::instant("runtime", name, 0, ts_ns, args)
    };
    let events = [
        recv(5),
        recv(u64::MAX),
        TraceEvent::Blocked {
            rank: 0,
            ts_ns: 7,
            dur_ns: u64::MAX - 7,
        },
        // A span end past u64::MAX, and decisions that would make a card
        // and a flight record, all out of range.
        TraceEvent::EndCycle {
            rank: 0,
            ts_ns: 5,
            dur_ns: u64::MAX - 1,
            cycle: 3,
        },
        decision("redistributed", MAX_TS_NS + 1, 3),
        decision("node-confirmed-dead", u64::MAX, 4),
    ];
    for ev in &events {
        health.on_event(ev);
        explain.on_event(ev);
    }
    // Only the in-range event laid out a window.
    let report = health.report();
    assert_eq!(report.windows.len(), 1);
    assert!(report.decisions().is_empty());
    let explained = explain.report();
    assert!(explained.cards.is_empty(), "{:?}", explained.cards);
    assert!(explained.flights.is_empty(), "{:?}", explained.flights);
}

#[test]
fn sinks_ignore_a_peer_at_or_above_max_ranks() {
    let line = |ts: u64, peer: u64| {
        format!(
            "{{\"kind\":\"instant\",\"cat\":\"comm\",\"name\":\"send\",\"rank\":0,\"ts_ns\":{ts},\
             \"args\":{{\"peer\":{peer},\"tag\":0,\"seq\":{ts},\"bytes\":8,\"queued_ns\":0}}}}\n"
        )
    };
    let dump = line(5, 1 << 40) + &line(6, 1);
    let events = parse_jsonl(&dump).expect("well-formed lines");
    assert!(events.iter().all(|e| matches!(e, TraceEvent::Send { .. })));
    let health = HealthMonitor::new(DEFAULT_WINDOW_NS);
    let explain = ExplainEngine::new(DEFAULT_WINDOW_NS);
    for ev in &events {
        health.on_event(ev);
        explain.on_event(ev);
    }
    // Only the in-range peer sized the tables: nodes 0 and 1.
    let report = health.report();
    assert_eq!(report.windows[0].nodes.len(), 2);
    assert_eq!(report.windows[0].nodes[1].queue_depth, 1);
    assert_eq!(explain.report().cards.len(), 0);
}

// ---------------------------------------------------------------------------
// Categories
// ---------------------------------------------------------------------------

/// Every string literal passed as the category of a `span_begin(` or
/// `instant(` call in `text`.
fn category_literals(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for call in ["span_begin(", "instant("] {
        for (at, _) in text.match_indices(call) {
            let rest = text[at + call.len()..].trim_start();
            if let Some(lit) = rest.strip_prefix('"') {
                out.push(&lit[..lit.find('"').expect("closed literal")]);
            }
        }
    }
    out
}

fn rust_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_emitted_category_is_a_known_cat() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    let mut seen = 0;
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source file");
        // Unit-test modules invent categories; the instrumentation is above.
        let code = text.split("#[cfg(test)]").next().expect("first piece");
        for cat in category_literals(code) {
            seen += 1;
            assert!(
                KNOWN_CATS.contains(&cat),
                "{}: category {cat:?} is not in KNOWN_CATS",
                file.display()
            );
        }
    }
    // The hot kinds left this count for their typed emitters (whose
    // categories are checked below): 23 literal sites before, 19 after.
    assert!(seen >= 15, "the scan found only {seen} emission sites");
    let mut rng = Rng::new(1);
    for _ in 0..200 {
        let ev = random_typed(&mut rng, 0, 0);
        assert!(KNOWN_CATS.contains(&ev.cat()), "{ev:?}");
    }
}
