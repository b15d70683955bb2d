//! The benchmark's own span recorder: spans around the calls into each
//! layer, kept in memory and written once at the end. Timestamps are
//! `host::now_ns`, which every process on the host shares, so spans from
//! child processes merge onto one timeline.

use dynmpi_obs::Json;

use crate::host::now_ns;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    pub name: String,
    /// What all spans of one unit of work share: the workload's name, or
    /// `probes` for the layer probes and differential runs.
    pub ident: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::UInt(self.id)),
            ("parent", self.parent.map_or(Json::Null, Json::UInt)),
            ("name", Json::str(self.name.clone())),
            ("ident", Json::str(self.ident.clone())),
            ("start_ns", Json::UInt(self.start_ns)),
            ("end_ns", Json::UInt(self.end_ns)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Span> {
        Some(Span {
            id: j.get("id")?.as_u64()?,
            parent: j.get("parent")?.as_u64(),
            name: j.get("name")?.as_str()?.to_string(),
            ident: j.get("ident")?.as_str()?.to_string(),
            start_ns: j.get("start_ns")?.as_u64()?,
            end_ns: j.get("end_ns")?.as_u64()?,
        })
    }
}

/// Spans as one JSON array: how a child hands them to its parent.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(spans.iter().map(Span::to_json).collect())
}

/// The inverse of [`to_json`]; anything malformed is dropped.
pub fn from_json(j: Option<&Json>) -> Vec<Span> {
    j.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Span::from_json).collect())
        .unwrap_or_default()
}

/// Records nested spans on one thread. A disabled log records nothing, so
/// the same code path serves traced and untraced repetitions.
pub struct SpanLog {
    enabled: bool,
    ident: String,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first.
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(ident: &str) -> SpanLog {
        SpanLog {
            enabled: true,
            ident: ident.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::new("")
        }
    }

    /// Runs `f` inside a span named `name`, child of the span open on
    /// entry. `f` receives the log so it can open spans of its own.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u64,
            parent: self.open.last().map(|&p| self.spans[p].id),
            name: name.to_string(),
            ident: self.ident.clone(),
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Appends `more` (one log's spans, ids local to it) to `all`, shifting
/// ids so they stay unique.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.iter().map(|s| s.id + 1).max().unwrap_or(0);
    all.extend(more.into_iter().map(|s| Span {
        id: s.id + base,
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Overlapping children are counted once and
/// children are clipped to the parent. Returned in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome `trace_event` document: one complete event per span, one `tid`
/// per `ident`, timestamps relative to the earliest span.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut idents: Vec<&str> = spans.iter().map(|s| s.ident.as_str()).collect();
    idents.sort_unstable();
    idents.dedup();
    let events = spans
        .iter()
        .map(|s| {
            let tid = idents.iter().position(|i| *i == s.ident).unwrap_or(0);
            Json::obj([
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.ident.clone())),
                ("ph", Json::str("X")),
                ("ts", Json::Num((s.start_ns - origin) as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(tid as u64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::UInt(s.id)),
                        ("parent", s.parent.map_or(Json::Null, Json::UInt)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            ident: "w".to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40), // sibling a
            span(2, Some(0), 50, 70), // sibling b
            span(3, Some(1), 15, 25), // nested in a: not subtracted from root
            span(4, None, 200, 230),  // a second root, no children
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 30]);
        // Self times of a tree sum to its root's duration.
        let tree: u64 = self_times(&spans)[..4].iter().sum();
        assert_eq!(tree, spans[0].dur_ns());
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 120, 160),
            span(2, Some(0), 150, 180), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn scope_nests_and_links_parents() {
        let mut log = SpanLog::new("w");
        log.scope("outer", |log| {
            log.scope("a", |_| ());
            log.scope("b", |log| log.scope("c", |_| ()));
        });
        let spans = log.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "a", "b", "c"]);
        let parents: Vec<Option<u64>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.scope("x", |_| 7), 7);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn merge_keeps_ids_unique_and_links_intact() {
        let mut all = vec![span(0, None, 0, 10), span(1, Some(0), 2, 4)];
        merge(
            &mut all,
            vec![span(0, None, 20, 30), span(1, Some(0), 22, 24)],
        );
        let ids: Vec<u64> = all.iter().map(|s| s.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(all[3].parent, Some(2));
    }

    #[test]
    fn spans_round_trip_through_json() {
        let s = span(3, Some(1), 5, 9);
        let text = s.to_json().to_string();
        assert_eq!(Span::from_json(&Json::parse(&text).unwrap()), Some(s));
        let root = span(0, None, 1, 2);
        let text = root.to_json().to_string();
        assert_eq!(Span::from_json(&Json::parse(&text).unwrap()), Some(root));
    }
}
