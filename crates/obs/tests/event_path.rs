//! Properties of the one event path: what the exporters write, the order
//! the recorder hands events out in, and what a malformed dump may do.

use std::path::Path;

use dynmpi_obs::export::{chrome_trace, jsonl};
use dynmpi_obs::trace::{intern, intern_cat, EventSink, KNOWN_CATS, MAX_RANKS, MAX_TS_NS};
use dynmpi_obs::{
    instant, parse_jsonl, span_begin, span_end_args, ExplainEngine, HealthMonitor, Json, Recorder,
    TraceEvent, DEFAULT_WINDOW_NS,
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
    let cat = if rng.chance(0.5) {
        KNOWN_CATS[rng.range_usize(0, KNOWN_CATS.len())]
    } else {
        intern_cat(&random_string(rng))
    };
    let name = intern(&random_string(rng));
    let rank = rng.range_usize(0, MAX_RANKS);
    let ts_ns = random_ns(rng);
    let args = rng.vec_in(0, 6, |r| (intern(&random_string(r)), random_value(r, 0)));
    if rng.chance(0.5) {
        TraceEvent::Complete {
            cat,
            name,
            rank,
            ts_ns,
            dur_ns: random_ns(rng),
            args,
        }
    } else {
        TraceEvent::Instant {
            cat,
            name,
            rank,
            ts_ns,
            args,
        }
    }
}

fn args_tree(args: &[(&'static str, Json)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
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
    match ev {
        TraceEvent::Complete {
            cat,
            name,
            rank,
            ts_ns,
            dur_ns,
            args,
        } => Json::obj([
            ("ph", Json::str("X")),
            ("cat", Json::str(*cat)),
            ("name", Json::str(*name)),
            ("pid", Json::UInt(0)),
            ("tid", Json::UInt(*rank as u64)),
            ("ts", us(*ts_ns)),
            ("dur", us(*dur_ns)),
            ("args", args_tree(args)),
        ]),
        TraceEvent::Instant {
            cat,
            name,
            rank,
            ts_ns,
            args,
        } => Json::obj([
            ("ph", Json::str("i")),
            ("cat", Json::str(*cat)),
            ("name", Json::str(*name)),
            ("pid", Json::UInt(0)),
            ("tid", Json::UInt(*rank as u64)),
            ("ts", us(*ts_ns)),
            ("s", Json::str("t")),
            ("args", args_tree(args)),
        ]),
    }
}

fn jsonl_tree(ev: &TraceEvent) -> Json {
    match ev {
        TraceEvent::Complete {
            cat,
            name,
            rank,
            ts_ns,
            dur_ns,
            args,
        } => Json::obj([
            ("kind", Json::str("span")),
            ("cat", Json::str(*cat)),
            ("name", Json::str(*name)),
            ("rank", Json::UInt(*rank as u64)),
            ("ts_ns", Json::UInt(*ts_ns)),
            ("dur_ns", Json::UInt(*dur_ns)),
            ("args", args_tree(args)),
        ]),
        TraceEvent::Instant {
            cat,
            name,
            rank,
            ts_ns,
            args,
        } => Json::obj([
            ("kind", Json::str("instant")),
            ("cat", Json::str(*cat)),
            ("name", Json::str(*name)),
            ("rank", Json::UInt(*rank as u64)),
            ("ts_ns", Json::UInt(*ts_ns)),
            ("args", args_tree(args)),
        ]),
    }
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
            let (TraceEvent::Complete { args, .. } | TraceEvent::Instant { args, .. }) = ev;
            (ev.ts_ns(), ev.rank(), args[0].1.as_u64().expect("seq"))
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
    let instant = |cat, name, ts_ns, args| TraceEvent::Instant {
        cat,
        name,
        rank: 0,
        ts_ns,
        args,
    };
    let cycle = |c| vec![("cycle", Json::UInt(c)), ("node", Json::UInt(1))];
    let events = [
        instant("comm", "recv", 5, Vec::new()),
        instant("comm", "recv", u64::MAX, Vec::new()),
        TraceEvent::Complete {
            cat: "sched",
            name: "blocked",
            rank: 0,
            ts_ns: 7,
            dur_ns: u64::MAX - 7,
            args: Vec::new(),
        },
        // A span end past u64::MAX, and decisions that would make a card
        // and a flight record, all out of range.
        TraceEvent::Complete {
            cat: "runtime",
            name: "end_cycle",
            rank: 0,
            ts_ns: 5,
            dur_ns: u64::MAX - 1,
            args: cycle(3),
        },
        instant("runtime", "redistributed", MAX_TS_NS + 1, cycle(3)),
        instant("runtime", "node-confirmed-dead", u64::MAX, cycle(4)),
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
    let dump = "{\"kind\":\"instant\",\"cat\":\"comm\",\"name\":\"send\",\"rank\":0,\"ts_ns\":5,\"args\":{\"peer\":1099511627776}}\n\
                {\"kind\":\"instant\",\"cat\":\"comm\",\"name\":\"send\",\"rank\":0,\"ts_ns\":6,\"args\":{\"peer\":1}}\n";
    let events = parse_jsonl(dump).expect("well-formed lines");
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
    assert!(seen >= 20, "the scan found only {seen} emission sites");
}
