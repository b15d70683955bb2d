//! Trace exporters: Chrome `trace_event` JSON and a JSONL event stream.
//!
//! The Chrome format (loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>) wants timestamps in *microseconds*; our events
//! carry virtual nanoseconds, so `ts`/`dur` are emitted as fractional
//! microseconds to preserve sub-µs precision. `pid` is always 0 (one
//! simulated job); `tid` is the rank, so each rank gets its own track.

use std::fmt::{self, Write};

use crate::json::{push_uint, write_escaped, Json, JsonError};
use crate::trace::{intern, intern_cat, Args, TraceEvent, View, KINDS, MAX_RANKS, MAX_TS_NS};

/// Below this many nanoseconds, 10^12 µs < 2^43 µs, an `f64` count of
/// microseconds has an ulp of at most 2^-10 < 0.001.
pub const EXACT_US_BELOW_NS: u64 = 1_000_000_000_000_000;

/// Runs a `fmt::Write` writer over `buf`, which cannot fail.
fn push_fmt(buf: &mut String, write: impl FnOnce(&mut String) -> fmt::Result) {
    write(buf).expect("writing to a String cannot fail");
}

/// `ns` in microseconds as the `f64` `ns / 1000` writes. Below
/// [`EXACT_US_BELOW_NS`] that is `ns / 1000` and 1–3 fraction digits,
/// trailing zeros stripped: the `f64` is the double nearest that decimal,
/// and any other as short lies ≥ 0.001 away, more than an ulp.
fn push_us(buf: &mut String, ns: u64) {
    let mut frac = ns % 1_000;
    if frac != 0 && ns >= EXACT_US_BELOW_NS {
        return push_fmt(buf, |out| Json::Num(ns as f64 / 1_000.0).write_to(out));
    }
    push_uint(buf, ns / 1_000);
    if frac != 0 {
        buf.push('.');
    }
    let mut unit = 100;
    while frac > 0 {
        buf.push(char::from(b'0' + (frac / unit) as u8));
        frac %= unit;
        unit /= 10;
    }
}

/// A generic event's `"cat":…,"name":…`, escaped.
fn push_cat_name(buf: &mut String, ev: &TraceEvent) {
    push_fmt(buf, |out| {
        out.write_str("\"cat\":")?;
        write_escaped(out, ev.cat())?;
        out.write_str(",\"name\":")?;
        write_escaped(out, ev.name())
    });
}

/// `,"args":{…}}` — the attributes, closing the event object. A typed
/// kind writes each integer after its key's constant head, exactly as
/// the `Json::UInt` attributes of a generic event would be written.
fn push_args(buf: &mut String, ev: View<'_>) {
    buf.push_str(",\"args\":{");
    match ev {
        View::Typed(t) => {
            for (head, v) in KINDS[t.index].key_heads.iter().zip(t.values) {
                buf.push_str(head);
                push_uint(buf, v);
            }
        }
        View::Other(ev) => match ev.args() {
            Args::Json(pairs) => push_fmt(buf, |out| {
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    v.write_to(out)?;
                }
                Ok(())
            }),
            // A collective named off the list: its keys are plain
            // identifiers.
            Args::Ints { keys, values } => {
                for (i, (k, &v)) in keys.iter().zip(&values).enumerate() {
                    buf.push_str(if i > 0 { ",\"" } else { "\"" });
                    buf.push_str(k);
                    buf.push_str("\":");
                    push_uint(buf, v);
                }
            }
        },
    }
    buf.push_str("}}");
}

/// One event's Chrome object, preceded by a comma unless it is the first.
fn push_chrome(buf: &mut String, first: bool, ev: View<'_>) {
    if !first {
        buf.push(',');
    }
    let dur_ns = ev.dur_ns();
    match ev {
        View::Typed(t) => buf.push_str(KINDS[t.index].chrome_head),
        View::Other(ev) => {
            buf.push_str(match dur_ns {
                Some(_) => "{\"ph\":\"X\",",
                None => "{\"ph\":\"i\",",
            });
            push_cat_name(buf, ev);
            buf.push_str(",\"pid\":0,\"tid\":");
        }
    }
    push_uint(buf, ev.rank());
    buf.push_str(",\"ts\":");
    push_us(buf, ev.ts_ns());
    match dur_ns {
        Some(d) => {
            buf.push_str(",\"dur\":");
            push_us(buf, d);
        }
        None => buf.push_str(",\"s\":\"t\""),
    }
    push_args(buf, ev);
}

/// One event's JSONL line.
fn push_jsonl(buf: &mut String, _first: bool, ev: View<'_>) {
    let dur_ns = ev.dur_ns();
    match ev {
        View::Typed(t) => buf.push_str(KINDS[t.index].jsonl_head),
        View::Other(ev) => {
            buf.push_str(match dur_ns {
                Some(_) => "{\"kind\":\"span\",",
                None => "{\"kind\":\"instant\",",
            });
            push_cat_name(buf, ev);
            buf.push_str(",\"rank\":");
        }
    }
    push_uint(buf, ev.rank());
    buf.push_str(",\"ts_ns\":");
    push_uint(buf, ev.ts_ns());
    if let Some(d) = dur_ns {
        buf.push_str(",\"dur_ns\":");
        push_uint(buf, d);
    }
    push_args(buf, ev);
    buf.push('\n');
}

/// A document: its opening text, one rendering per event, its closing text.
pub(crate) struct Doc {
    open: &'static str,
    push: fn(&mut String, bool, View<'_>),
    close: &'static str,
}

pub(crate) const CHROME: Doc = Doc {
    open: "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
    push: push_chrome,
    close: "]}",
};

pub(crate) const JSONL: Doc = Doc {
    open: "",
    push: push_jsonl,
    close: "",
};

/// Bytes to reserve per event, in either format: above the ≈ 135 B the
/// instrumented layers' events average, so the buffer never grows.
const BYTES_PER_EVENT: usize = 192;

/// Events rendered per write when streaming a document.
const CHUNK: usize = 4_096;

impl Doc {
    pub(crate) fn to_string<'a>(&self, events: impl ExactSizeIterator<Item = View<'a>>) -> String {
        let mut buf = String::with_capacity(
            self.open.len() + events.len() * BYTES_PER_EVENT + self.close.len(),
        );
        buf.push_str(self.open);
        for (i, ev) in events.enumerate() {
            (self.push)(&mut buf, i == 0, ev);
        }
        buf.push_str(self.close);
        buf
    }

    /// Streams the document to `out` a chunk of events at a time.
    pub(crate) fn write<'a, E>(
        &self,
        mut out: impl FnMut(&str) -> Result<(), E>,
        events: impl ExactSizeIterator<Item = View<'a>>,
    ) -> Result<(), E> {
        out(self.open)?;
        let mut buf = String::with_capacity(CHUNK.min(events.len()) * BYTES_PER_EVENT);
        for (i, ev) in events.enumerate() {
            (self.push)(&mut buf, i == 0, ev);
            if (i + 1) % CHUNK == 0 {
                out(&buf)?;
                buf.clear();
            }
        }
        out(&buf)?;
        out(self.close)
    }
}

/// Write events as a Chrome `trace_event` document:
/// `{"displayTimeUnit":"ns","traceEvents":[...]}`.
pub fn write_chrome_trace<W: Write>(out: &mut W, events: &[TraceEvent]) -> fmt::Result {
    CHROME.write(|text| out.write_str(text), events.iter().map(View::of))
}

/// Write events as JSONL: one event object per line, same fields as the
/// Chrome export but with exact nanosecond `ts_ns`/`dur_ns` timestamps.
pub fn write_jsonl<W: Write>(out: &mut W, events: &[TraceEvent]) -> fmt::Result {
    JSONL.write(|text| out.write_str(text), events.iter().map(View::of))
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    CHROME.to_string(events.iter().map(View::of))
}

/// [`write_jsonl`] into a `String`.
pub fn jsonl(events: &[TraceEvent]) -> String {
    JSONL.to_string(events.iter().map(View::of))
}

/// Parse a JSONL stream produced by [`jsonl`] back into [`TraceEvent`]s,
/// preserving exact nanosecond timestamps, attribute order, and the event
/// order of the stream. Blank lines are skipped. Together with
/// [`analysis::analyze`](crate::analysis::analyze) this makes offline
/// profiling of dumped traces possible without the original `Recorder`.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, JsonError> {
    let bad = |msg: String| JsonError { pos: 0, msg };
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Attach the 1-based line number to any JSON-level error so a bad
        // line in a long dump is findable (the inner `pos` is the byte
        // offset *within* the line).
        let j = Json::parse(line).map_err(|e| JsonError {
            pos: e.pos,
            msg: format!("line {}: {}", lineno + 1, e.msg),
        })?;
        let field_str = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("line {}: missing string `{k}`", lineno + 1)))
        };
        let field_u64 = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("line {}: missing integer `{k}`", lineno + 1)))
        };
        let (cat, name) = (field_str("cat")?, field_str("name")?);
        let rank = match field_u64("rank")? {
            r if r < MAX_RANKS as u64 => r as u32,
            r => {
                return Err(bad(format!(
                    "line {}: rank {r} is not below MAX_RANKS = {MAX_RANKS}",
                    lineno + 1
                )))
            }
        };
        let ts_ns = field_u64("ts_ns")?;
        let dur_ns = match field_str("kind")? {
            "span" => Some(field_u64("dur_ns")?),
            "instant" => None,
            other => return Err(bad(format!("line {}: unknown kind `{other}`", lineno + 1))),
        };
        let pairs = match j.get("args") {
            Some(Json::Obj(pairs)) => pairs.as_slice(),
            _ => &[],
        };
        // A typed kind resolves against its static schema; only a generic
        // event interns its strings.
        let ev = TraceEvent::typed(cat, name, rank, ts_ns, dur_ns, pairs).unwrap_or_else(|| {
            let (cat, name) = (intern_cat(cat), intern(name));
            let args = pairs.iter().map(|(k, v)| (intern(k), v.clone())).collect();
            match dur_ns {
                Some(dur_ns) => TraceEvent::Complete {
                    cat,
                    name,
                    rank,
                    ts_ns,
                    dur_ns,
                    args,
                },
                None => TraceEvent::Instant {
                    cat,
                    name,
                    rank,
                    ts_ns,
                    args,
                },
            }
        });
        if !ev.in_time_range() {
            return Err(bad(format!(
                "line {}: the event at ts_ns {ts_ns} does not end by MAX_TS_NS = {MAX_TS_NS}",
                lineno + 1
            )));
        }
        out.push(ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Msg, SchedState};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::span(
                "sched",
                "run",
                0,
                1_500,
                10_000,
                vec![("work", Json::Num(5.5))],
            ),
            TraceEvent::instant("runtime", "load-change", 2, 2_000_000, vec![]),
        ]
    }

    /// The `traceEvents` of a Chrome document, as generic JSON.
    fn chrome_events(text: &str) -> Vec<Json> {
        let doc = Json::parse(text).unwrap();
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec()
    }

    /// A Chrome time field in nanoseconds.
    fn ns(ev: &Json, key: &str) -> u64 {
        (ev.get(key).and_then(Json::as_f64).unwrap() * 1_000.0).round() as u64
    }

    #[test]
    fn chrome_trace_round_trips() {
        let parsed = chrome_events(&chrome_trace(&sample()));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(parsed[0].get("cat").and_then(Json::as_str), Some("sched"));
        assert_eq!(ns(&parsed[0], "ts"), 1_500); // fractional µs decoded exactly
        assert_eq!(ns(&parsed[0], "dur"), 10_000);
        assert_eq!(parsed[1].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(parsed[1].get("tid").and_then(Json::as_u64), Some(2));
        assert_eq!(ns(&parsed[1], "ts"), 2_000_000);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let text = jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let j = Json::parse(line).unwrap();
            assert!(j.get("kind").is_some());
            assert!(j.get("ts_ns").unwrap().as_u64().is_some());
        }
    }

    #[test]
    fn jsonl_round_trips_events_exactly() {
        let events = sample();
        let parsed = parse_jsonl(&jsonl(&events)).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn chrome_parse_preserves_args_in_order() {
        let args = vec![
            ("peer", Json::UInt(3)),
            ("seq", Json::UInt(7)),
            ("bytes", Json::UInt(1024)),
        ];
        let ev = TraceEvent::instant("comm", "send", 1, 42, args);
        let parsed = chrome_events(&chrome_trace(std::slice::from_ref(&ev)));
        let Some(Json::Obj(args)) = parsed[0].get("args") else {
            panic!("no args object: {:?}", parsed[0]);
        };
        assert_eq!(args.len(), 3);
        assert_eq!(args[0].0, "peer");
        assert_eq!(args[1], ("seq".to_string(), Json::UInt(7)));
        assert_eq!(args[2].1.as_u64(), Some(1024));
    }

    #[test]
    fn parse_jsonl_reports_line_numbers_for_bad_json() {
        // Two good lines, then a truncated third: the error must name
        // line 3, not panic or point at byte 0 of the whole stream.
        let mut text = jsonl(&sample());
        text.push_str("{\"kind\":\"span\",\"cat\":\"sched\"");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.msg.contains("line 3"), "{err}");

        let err = parse_jsonl("{\"kind\":\"span\"}\ngarbage here\n").unwrap_err();
        assert!(err.msg.contains("line 1"), "{err}");
        let err = parse_jsonl("\n\ngarbage here\n").unwrap_err();
        assert!(err.msg.contains("line 3"), "{err}");
    }

    #[test]
    fn parse_jsonl_survives_truncated_and_binary_garbage() {
        // Truncation mid-escape, mid-number, mid-object — all errors with
        // a line number, never a panic.
        for frag in [
            "{\"kind\":\"span\",\"name\":\"a\\",
            "{\"kind\":\"span\",\"ts_ns\":12",
            "{",
            "\u{0}\u{1}\u{2}",
            "{\"kind\":\"instant\",\"cat\":\"x\",\"name\":\"n\",\"rank\":-1,\"ts_ns\":0}",
        ] {
            let err = parse_jsonl(frag).unwrap_err();
            assert!(err.msg.contains("line 1"), "{frag:?} -> {err}");
        }
    }

    #[test]
    fn parse_jsonl_rejects_malformed_lines() {
        assert!(parse_jsonl(
            "{\"kind\":\"mystery\",\"cat\":\"x\",\"name\":\"n\",\"rank\":0,\"ts_ns\":0}"
        )
        .is_err());
        assert!(parse_jsonl("{\"kind\":\"span\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert_eq!(parse_jsonl("\n\n").unwrap().len(), 0);
    }

    fn msg(peer: u64) -> Msg {
        Msg {
            peer,
            tag: 7,
            seq: 9,
            bytes: 2048,
        }
    }

    /// One event of every typed kind, each with the JSONL line and the
    /// Chrome object that the generic `(key, Json)` form of the same event
    /// was exported as before the kinds were typed.
    fn typed_pins() -> Vec<(TraceEvent, &'static str, &'static str)> {
        let sched = |state, ts_ns, dur_ns, cpu_ns, slices| TraceEvent::Sched {
            state,
            rank: 2,
            ts_ns,
            dur_ns,
            cpu_ns,
            slices,
        };
        let rows = |grace, ts_ns, dur_ns, cpu_ns| TraceEvent::ChargeRows {
            grace,
            rank: 1,
            ts_ns,
            dur_ns,
            rows: 64,
            cpu_ns,
            work_uflop: 5_000_000,
        };
        vec![
            (
                sched(SchedState::Run, 1_500, 10_000, 7_250, 3),
                r#"{"kind":"span","cat":"sched","name":"run","rank":2,"ts_ns":1500,"dur_ns":10000,"args":{"cpu":7250,"slices":3}}"#,
                r#"{"ph":"X","cat":"sched","name":"run","pid":0,"tid":2,"ts":1.5,"dur":10,"args":{"cpu":7250,"slices":3}}"#,
            ),
            (
                sched(SchedState::Wait, 11_500, 4_000, 0, 2),
                r#"{"kind":"span","cat":"sched","name":"wait","rank":2,"ts_ns":11500,"dur_ns":4000,"args":{"cpu":0,"slices":2}}"#,
                r#"{"ph":"X","cat":"sched","name":"wait","pid":0,"tid":2,"ts":11.5,"dur":4,"args":{"cpu":0,"slices":2}}"#,
            ),
            (
                sched(SchedState::RunWait, 15_500, 6_001, 3_000, 5),
                r#"{"kind":"span","cat":"sched","name":"run+wait","rank":2,"ts_ns":15500,"dur_ns":6001,"args":{"cpu":3000,"slices":5}}"#,
                r#"{"ph":"X","cat":"sched","name":"run+wait","pid":0,"tid":2,"ts":15.5,"dur":6.001,"args":{"cpu":3000,"slices":5}}"#,
            ),
            (
                TraceEvent::Blocked {
                    rank: 0,
                    ts_ns: 12_000,
                    dur_ns: 3_001,
                },
                r#"{"kind":"span","cat":"sched","name":"blocked","rank":0,"ts_ns":12000,"dur_ns":3001,"args":{}}"#,
                r#"{"ph":"X","cat":"sched","name":"blocked","pid":0,"tid":0,"ts":12,"dur":3.001,"args":{}}"#,
            ),
            (
                TraceEvent::Send {
                    rank: 1,
                    ts_ns: 42,
                    msg: msg(3),
                    queued_ns: 15,
                },
                r#"{"kind":"instant","cat":"comm","name":"send","rank":1,"ts_ns":42,"args":{"peer":3,"tag":7,"seq":9,"bytes":2048,"queued_ns":15}}"#,
                r#"{"ph":"i","cat":"comm","name":"send","pid":0,"tid":1,"ts":0.042,"s":"t","args":{"peer":3,"tag":7,"seq":9,"bytes":2048,"queued_ns":15}}"#,
            ),
            (
                TraceEvent::Recv {
                    rank: 3,
                    ts_ns: 2_000_000,
                    msg: msg(1),
                    rx_queued_ns: 4,
                    late_ns: 1_000,
                    net_ns: 250,
                },
                r#"{"kind":"instant","cat":"comm","name":"recv","rank":3,"ts_ns":2000000,"args":{"peer":1,"tag":7,"seq":9,"bytes":2048,"rx_queued_ns":4,"late_ns":1000,"net_ns":250}}"#,
                r#"{"ph":"i","cat":"comm","name":"recv","pid":0,"tid":3,"ts":2000,"s":"t","args":{"peer":1,"tag":7,"seq":9,"bytes":2048,"rx_queued_ns":4,"late_ns":1000,"net_ns":250}}"#,
            ),
            (
                TraceEvent::BeginCycle {
                    rank: 0,
                    ts_ns: 5_000,
                    cycle: 12,
                },
                r#"{"kind":"instant","cat":"runtime","name":"begin_cycle","rank":0,"ts_ns":5000,"args":{"cycle":12}}"#,
                r#"{"ph":"i","cat":"runtime","name":"begin_cycle","pid":0,"tid":0,"ts":5,"s":"t","args":{"cycle":12}}"#,
            ),
            (
                TraceEvent::EndCycle {
                    rank: 0,
                    ts_ns: 6_000,
                    dur_ns: 777,
                    cycle: 12,
                },
                r#"{"kind":"span","cat":"runtime","name":"end_cycle","rank":0,"ts_ns":6000,"dur_ns":777,"args":{"cycle":12}}"#,
                r#"{"ph":"X","cat":"runtime","name":"end_cycle","pid":0,"tid":0,"ts":6,"dur":0.777,"args":{"cycle":12}}"#,
            ),
            (
                rows(false, 7_000, 1_234, 1_200),
                r#"{"kind":"span","cat":"runtime","name":"charge_rows","rank":1,"ts_ns":7000,"dur_ns":1234,"args":{"rows":64,"cpu_ns":1200,"work_uflop":5000000}}"#,
                r#"{"ph":"X","cat":"runtime","name":"charge_rows","pid":0,"tid":1,"ts":7,"dur":1.234,"args":{"rows":64,"cpu_ns":1200,"work_uflop":5000000}}"#,
            ),
            (
                rows(true, 9_000, 2_000, 1_900),
                r#"{"kind":"span","cat":"runtime","name":"grace_measure","rank":1,"ts_ns":9000,"dur_ns":2000,"args":{"rows":64,"cpu_ns":1900,"work_uflop":5000000}}"#,
                r#"{"ph":"X","cat":"runtime","name":"grace_measure","pid":0,"tid":1,"ts":9,"dur":2,"args":{"rows":64,"cpu_ns":1900,"work_uflop":5000000}}"#,
            ),
            (
                TraceEvent::Collective {
                    name: "allreduce",
                    rank: 2,
                    ts_ns: 8_000,
                    dur_ns: 999,
                    ranks: 8,
                    bytes: 16,
                },
                r#"{"kind":"span","cat":"comm","name":"allreduce","rank":2,"ts_ns":8000,"dur_ns":999,"args":{"ranks":8,"bytes":16}}"#,
                r#"{"ph":"X","cat":"comm","name":"allreduce","pid":0,"tid":2,"ts":8,"dur":0.999,"args":{"ranks":8,"bytes":16}}"#,
            ),
        ]
    }

    fn is_generic(ev: &TraceEvent) -> bool {
        matches!(ev, TraceEvent::Complete { .. } | TraceEvent::Instant { .. })
    }

    #[test]
    fn typed_kinds_export_the_generic_forms_bytes() {
        for (ev, line, object) in typed_pins() {
            let one = std::slice::from_ref(&ev);
            assert_eq!(jsonl(one), format!("{line}\n"));
            let doc = format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{object}]}}");
            assert_eq!(chrome_trace(one), doc);
        }
    }

    #[test]
    fn typed_kinds_parse_back_typed() {
        for (ev, line, _) in typed_pins() {
            let parsed = parse_jsonl(line).unwrap();
            assert_eq!(parsed, std::slice::from_ref(&ev));
            assert!(!is_generic(&parsed[0]), "{line}");
            // The generic constructors build the same typed event.
            let args = ev.args().to_vec();
            let (cat, name, rank, ts) = (ev.cat(), ev.name(), ev.rank() as u32, ev.ts_ns());
            let built = match ev.dur_ns() {
                Some(dur) => TraceEvent::span(cat, name, rank, ts, dur, args),
                None => TraceEvent::instant(cat, name, rank, ts, args),
            };
            assert_eq!(built, ev);
        }
    }

    #[test]
    fn a_line_off_a_kinds_schema_parses_generic() {
        let recv = typed_pins()[5].1;
        let off_schema = [
            // A missing key, a renamed one, an extra one, a float value, a
            // negative one, keys out of order.
            recv.replace(",\"net_ns\":250", ""),
            recv.replace("late_ns", "late"),
            recv.replace("\"net_ns\":250", "\"net_ns\":250,\"extra\":1"),
            recv.replace("\"net_ns\":250", "\"net_ns\":2.5"),
            recv.replace("\"net_ns\":250", "\"net_ns\":-250"),
            recv.replace("\"peer\":1,\"tag\":7", "\"tag\":7,\"peer\":1"),
            // The right keys on an instant that should be a span, and on an
            // unknown collective.
            typed_pins()[7]
                .1
                .replace("\"kind\":\"span\"", "\"kind\":\"instant\"")
                .replace(",\"dur_ns\":777", ""),
            typed_pins()[10].1.replace("allreduce", "scan"),
        ];
        for line in off_schema {
            let parsed = parse_jsonl(&line).unwrap();
            assert!(is_generic(&parsed[0]), "{line} parsed as {:?}", parsed[0]);
            assert_eq!(jsonl(&parsed), format!("{line}\n"));
        }
    }

    #[test]
    fn a_collective_named_off_the_list_exports_its_own_name() {
        let ev = TraceEvent::Collective {
            name: "scan",
            rank: 2,
            ts_ns: 8_000,
            dur_ns: 999,
            ranks: 8,
            bytes: 16,
        };
        let (_, line, object) = typed_pins()[10];
        let one = std::slice::from_ref(&ev);
        assert_eq!(
            jsonl(one),
            format!("{}\n", line.replace("allreduce", "scan"))
        );
        let doc = format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{object}]}}");
        assert_eq!(chrome_trace(one), doc.replace("allreduce", "scan"));
    }
}
