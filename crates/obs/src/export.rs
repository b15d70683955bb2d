//! Trace exporters: Chrome `trace_event` JSON and a JSONL event stream.
//!
//! The Chrome format (loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>) wants timestamps in *microseconds*; our events
//! carry virtual nanoseconds, so `ts`/`dur` are emitted as fractional
//! microseconds to preserve sub-µs precision. `pid` is always 0 (one
//! simulated job); `tid` is the rank, so each rank gets its own track.

use std::fmt::{self, Write};

use crate::json::{write_escaped, Json, JsonError};
use crate::trace::{intern, intern_cat, TraceEvent, MAX_RANKS, MAX_TS_NS};

fn us(ns: u64) -> Json {
    if ns.is_multiple_of(1_000) {
        Json::UInt(ns / 1_000)
    } else {
        Json::Num(ns as f64 / 1_000.0)
    }
}

/// `"cat":…,"name":…` — the two string fields both formats share.
fn write_cat_name<W: Write>(out: &mut W, ev: &TraceEvent) -> fmt::Result {
    out.write_str("\"cat\":")?;
    write_escaped(out, ev.cat())?;
    out.write_str(",\"name\":")?;
    write_escaped(out, ev.name())
}

/// `,"args":{…}}` — the attributes, closing the event object.
fn write_args<W: Write>(out: &mut W, args: &[(&'static str, Json)]) -> fmt::Result {
    out.write_str(",\"args\":{")?;
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_escaped(out, k)?;
        out.write_char(':')?;
        v.write_to(out)?;
    }
    out.write_str("}}")
}

/// Bytes to reserve per event: what an event of the instrumented layers
/// serialises to on average, in either format.
const BYTES_PER_EVENT: usize = 192;

/// Write events as a Chrome `trace_event` document:
/// `{"displayTimeUnit":"ns","traceEvents":[...]}`.
pub fn write_chrome_trace<W: Write>(out: &mut W, events: &[TraceEvent]) -> fmt::Result {
    out.write_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        let (ph, dur_ns, args) = match ev {
            TraceEvent::Complete { dur_ns, args, .. } => ('X', Some(*dur_ns), args),
            TraceEvent::Instant { args, .. } => ('i', None, args),
        };
        write!(out, "{{\"ph\":\"{ph}\",")?;
        write_cat_name(out, ev)?;
        write!(out, ",\"pid\":0,\"tid\":{},\"ts\":", ev.rank())?;
        us(ev.ts_ns()).write_to(out)?;
        match dur_ns {
            Some(d) => {
                out.write_str(",\"dur\":")?;
                us(d).write_to(out)?;
            }
            None => out.write_str(",\"s\":\"t\"")?,
        }
        write_args(out, args)?;
    }
    out.write_str("]}")
}

/// Write events as JSONL: one event object per line, same fields as the
/// Chrome export but with exact nanosecond `ts_ns`/`dur_ns` timestamps.
pub fn write_jsonl<W: Write>(out: &mut W, events: &[TraceEvent]) -> fmt::Result {
    for ev in events {
        let (kind, dur_ns, args) = match ev {
            TraceEvent::Complete { dur_ns, args, .. } => ("span", Some(*dur_ns), args),
            TraceEvent::Instant { args, .. } => ("instant", None, args),
        };
        write!(out, "{{\"kind\":\"{kind}\",")?;
        write_cat_name(out, ev)?;
        write!(out, ",\"rank\":{},\"ts_ns\":{}", ev.rank(), ev.ts_ns())?;
        if let Some(d) = dur_ns {
            write!(out, ",\"dur_ns\":{d}")?;
        }
        write_args(out, args)?;
        out.write_char('\n')?;
    }
    Ok(())
}

fn to_string(
    events: &[TraceEvent],
    write: fn(&mut String, &[TraceEvent]) -> fmt::Result,
) -> String {
    let mut out = String::with_capacity(events.len() * BYTES_PER_EVENT);
    write(&mut out, events).expect("writing to a String cannot fail");
    out
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    to_string(events, write_chrome_trace)
}

/// [`write_jsonl`] into a `String`.
pub fn jsonl(events: &[TraceEvent]) -> String {
    to_string(events, write_jsonl)
}

/// A span decoded from an exported Chrome trace (round-trip direction).
/// Timestamps are back in nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedEvent {
    pub phase: char,
    pub cat: String,
    pub name: String,
    pub pid: u64,
    pub tid: u64,
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Span/instant attributes, in emission order.
    pub args: Vec<(String, Json)>,
}

/// Parse a Chrome `trace_event` document produced by [`chrome_trace`] back
/// into its events. Used by round-trip tests and by external tooling that
/// wants to post-process exported traces.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ParsedEvent>, JsonError> {
    let doc = Json::parse(text)?;
    let bad = |msg: &str| JsonError {
        pos: 0,
        msg: msg.to_string(),
    };
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing traceEvents array"))?;
    let mut out = Vec::with_capacity(events.len());
    for (idx, ev) in events.iter().enumerate() {
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: format!("traceEvents[{idx}]: {msg}"),
        };
        let field_str = |k: &str| {
            ev.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing string field `{k}`")))
        };
        let field_u64 = |k: &str| {
            ev.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("missing integer field `{k}`")))
        };
        // ts/dur may be fractional µs; decode to ns with rounding.
        let field_ns = |k: &str, required: bool| -> Result<u64, JsonError> {
            match ev.get(k).and_then(Json::as_f64) {
                Some(v) if v >= 0.0 => Ok((v * 1_000.0).round() as u64),
                Some(_) => Err(bad(&format!("negative time field `{k}`"))),
                None if required => Err(bad(&format!("missing time field `{k}`"))),
                None => Ok(0),
            }
        };
        let ph = field_str("ph")?;
        let args = match ev.get("args") {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        };
        out.push(ParsedEvent {
            phase: ph.chars().next().ok_or_else(|| bad("empty ph"))?,
            cat: field_str("cat")?,
            name: field_str("name")?,
            pid: field_u64("pid")?,
            tid: field_u64("tid")?,
            ts_ns: field_ns("ts", true)?,
            dur_ns: field_ns("dur", ph == "X")?,
            args,
        });
    }
    Ok(out)
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
        let cat = intern_cat(field_str("cat")?);
        let name = intern(field_str("name")?);
        let rank = match field_u64("rank")? {
            r if r < MAX_RANKS as u64 => r as usize,
            r => {
                return Err(bad(format!(
                    "line {}: rank {r} is not below MAX_RANKS = {MAX_RANKS}",
                    lineno + 1
                )))
            }
        };
        let ts_ns = field_u64("ts_ns")?;
        let args = match j.get("args") {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, v)| (intern(k), v.clone())).collect(),
            _ => Vec::new(),
        };
        let ev = match field_str("kind")? {
            "span" => TraceEvent::Complete {
                cat,
                name,
                rank,
                ts_ns,
                dur_ns: field_u64("dur_ns")?,
                args,
            },
            "instant" => TraceEvent::Instant {
                cat,
                name,
                rank,
                ts_ns,
                args,
            },
            other => return Err(bad(format!("line {}: unknown kind `{other}`", lineno + 1))),
        };
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

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Complete {
                cat: "sched",
                name: "run",
                rank: 0,
                ts_ns: 1_500,
                dur_ns: 10_000,
                args: vec![("work", Json::Num(5.5))],
            },
            TraceEvent::Instant {
                cat: "runtime",
                name: "load-change",
                rank: 2,
                ts_ns: 2_000_000,
                args: vec![],
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips() {
        let text = chrome_trace(&sample());
        let parsed = parse_chrome_trace(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].phase, 'X');
        assert_eq!(parsed[0].cat, "sched");
        assert_eq!(parsed[0].ts_ns, 1_500); // fractional µs decoded exactly
        assert_eq!(parsed[0].dur_ns, 10_000);
        assert_eq!(parsed[1].phase, 'i');
        assert_eq!(parsed[1].tid, 2);
        assert_eq!(parsed[1].ts_ns, 2_000_000);
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
    fn parse_rejects_non_trace_documents() {
        assert!(parse_chrome_trace("[1,2,3]").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": [{}]}").is_err());
    }

    #[test]
    fn jsonl_round_trips_events_exactly() {
        let events = sample();
        let parsed = parse_jsonl(&jsonl(&events)).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn chrome_parse_preserves_args_in_order() {
        let ev = TraceEvent::Instant {
            cat: "comm",
            name: "send",
            rank: 1,
            ts_ns: 42,
            args: vec![
                ("peer", Json::UInt(3)),
                ("seq", Json::UInt(7)),
                ("bytes", Json::UInt(1024)),
            ],
        };
        let parsed = parse_chrome_trace(&chrome_trace(std::slice::from_ref(&ev))).unwrap();
        assert_eq!(parsed[0].args.len(), 3);
        assert_eq!(parsed[0].args[0].0, "peer");
        assert_eq!(parsed[0].args[1], ("seq".to_string(), Json::UInt(7)));
        assert_eq!(parsed[0].args[2].1.as_u64(), Some(1024));
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
    fn chrome_parse_errors_name_the_offending_event() {
        let doc = r#"{"traceEvents":[
            {"ph":"i","cat":"a","name":"n","pid":0,"tid":0,"ts":1,"args":{}},
            {"ph":"X","cat":"a","name":"n","pid":0,"tid":0,"args":{}}
        ]}"#;
        let err = parse_chrome_trace(doc).unwrap_err();
        assert!(err.msg.contains("traceEvents[1]"), "{err}");
        assert!(err.msg.contains("`ts`"), "{err}");

        let neg = r#"{"traceEvents":[{"ph":"i","cat":"a","name":"n","pid":0,"tid":0,"ts":-5}]}"#;
        let err = parse_chrome_trace(neg).unwrap_err();
        assert!(err.msg.contains("traceEvents[0]"), "{err}");
        assert!(err.msg.contains("negative"), "{err}");
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
}
