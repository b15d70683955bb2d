//! Span/event tracing stamped with **virtual** time.
//!
//! The simulator's clock is a `u64` nanosecond count since simulation start,
//! so every tracing call takes an explicit `ts_ns` — guards cannot observe
//! virtual time at drop, and wallclock would be meaningless inside a
//! discrete-event run. A thread-local scope, installed per rank thread by
//! the cluster runner, buffers events locally; nothing is shared until the
//! scope flushes into its [`Recorder`](crate::Recorder). With no scope
//! installed every call is a no-op, so instrumented code costs almost
//! nothing outside traced runs.

use std::cell::RefCell;
use std::sync::Arc;

use crate::json::Json;
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::Recorder;

/// A streaming consumer of trace events, notified *at emission time* on the
/// emitting rank's thread — before anything reaches the [`Recorder`]'s
/// buffers. This is the hook the online health monitor
/// ([`health`](crate::health)) hangs off: it sees every span close and
/// instant as the simulated run produces them, rather than parsing the
/// trace after the run ends.
///
/// Implementations must be `Send + Sync`: ranks run on separate threads and
/// call into the same sink concurrently. A sink that wants deterministic
/// *output* must therefore fold events with commutative operations keyed by
/// virtual timestamp (the monitor's sliding windows do exactly this), since
/// cross-rank arrival order at the sink is scheduling-dependent.
///
/// Subscribe with [`Recorder::subscribe`] **before** installing rank
/// scopes; scopes capture the sink list at install time.
pub trait EventSink: Send + Sync {
    /// An event was emitted: a span closed or an instant fired.
    fn on_event(&self, ev: &TraceEvent);

    /// A span opened on `rank` at `ts_ns`. Default: ignored. (Useful for
    /// low-watermark tracking; the matching close arrives via
    /// [`on_event`](EventSink::on_event).)
    fn on_span_open(&self, _rank: usize, _cat: &'static str, _name: &str, _ts_ns: u64) {}

    /// `rank`'s tracing scope flushed (its thread finished or unwound).
    fn on_rank_flush(&self, _rank: usize) {}
}

/// One trace event, timestamps in virtual nanoseconds. Category, name and
/// attribute keys are `&'static str` — literals at every emission site,
/// [`intern`]ed when a dump is parsed back — so emitting an event
/// allocates its `args` vector and nothing else.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A closed span (`ph: "X"` in Chrome trace_event terms).
    Complete {
        cat: &'static str,
        name: &'static str,
        /// Rank that emitted the span (exported as `tid`).
        rank: usize,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, Json)>,
    },
    /// A point event (`ph: "i"`).
    Instant {
        cat: &'static str,
        name: &'static str,
        rank: usize,
        ts_ns: u64,
        args: Vec<(&'static str, Json)>,
    },
}

impl TraceEvent {
    pub fn ts_ns(&self) -> u64 {
        match self {
            TraceEvent::Complete { ts_ns, .. } | TraceEvent::Instant { ts_ns, .. } => *ts_ns,
        }
    }

    pub fn rank(&self) -> usize {
        match self {
            TraceEvent::Complete { rank, .. } | TraceEvent::Instant { rank, .. } => *rank,
        }
    }

    pub fn cat(&self) -> &'static str {
        match self {
            TraceEvent::Complete { cat, .. } | TraceEvent::Instant { cat, .. } => cat,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Complete { name, .. } | TraceEvent::Instant { name, .. } => name,
        }
    }

    /// Do the timestamp and, for a span, its end lie within [`MAX_TS_NS`]?
    pub fn in_time_range(&self) -> bool {
        let dur_ns = match self {
            TraceEvent::Complete { dur_ns, .. } => *dur_ns,
            TraceEvent::Instant { .. } => 0,
        };
        let end = self.ts_ns().checked_add(dur_ns);
        end.is_some_and(|end| end <= MAX_TS_NS)
    }
}

/// Ranks (and the `peer` / `node` attributes naming one) are below this
/// bound in every event a consumer accepts: [`parse_jsonl`](crate::parse_jsonl)
/// rejects a larger `rank`, and the streaming sinks, which size per-node
/// tables by the largest index seen, ignore a larger attribute.
pub const MAX_RANKS: usize = 1 << 20;

/// Virtual timestamps, and span ends `ts_ns + dur_ns`, are at or below
/// this bound in every event a consumer accepts: the health monitor lays
/// its windows out from time 0 to the last one seen, so an unchecked
/// timestamp sizes its report. [`parse_jsonl`](crate::parse_jsonl) rejects
/// a later one and the monitor ignores it
/// ([`TraceEvent::in_time_range`]). 2^53 ns ≈ 104 days of virtual time:
/// the range in which the Chrome export's `f64` microseconds stay exact.
pub const MAX_TS_NS: u64 = 1 << 53;

/// The span categories the instrumentation layers emit; [`intern_cat`]
/// resolves these without taking the [`intern`] lock.
pub const KNOWN_CATS: &[&str] = &[
    "sched", "comm", "runtime", "redist", "ckpt", "sim", "net", "app",
];

/// Map a string to a `&'static str` with the same content, leaking
/// (deduplicated) storage the first time it is seen. Needed when parsing
/// serialized traces back into [`TraceEvent`]s; the leak is bounded by the
/// number of *distinct* categories, names and attribute keys ever parsed.
pub fn intern(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(k) = pool.get(s) {
        return k;
    }
    let leaked: &'static str = Box::leak(s.into());
    pool.insert(leaked);
    leaked
}

/// [`intern`] for category strings, reusing the [`KNOWN_CATS`] entries.
pub fn intern_cat(cat: &str) -> &'static str {
    match KNOWN_CATS.iter().find(|k| **k == cat) {
        Some(k) => k,
        None => intern(cat),
    }
}

struct OpenSpan {
    cat: &'static str,
    name: &'static str,
    ts_ns: u64,
}

struct RankScope {
    recorder: Recorder,
    rank: usize,
    registry: Registry,
    /// Emitted events in blocks that are never reallocated: a full block
    /// is followed by one as large as everything before it. A doubling
    /// `Vec` would leave its outgrown copies behind as holes in this
    /// thread's allocator arena, and how much of that a later run's rank
    /// reuses depends on which arena the allocator hands it, so the
    /// process's peak memory drifted from run to run.
    events: Vec<Vec<TraceEvent>>,
    stack: Vec<OpenSpan>,
    /// Streaming sinks captured from the recorder at install time. Empty
    /// for un-subscribed recorders, in which case emission cost is
    /// unchanged from before sinks existed.
    sinks: Arc<[Arc<dyn EventSink>]>,
}

impl RankScope {
    /// Buffer `ev` for the recorder and stream it to every sink.
    fn emit(&mut self, ev: TraceEvent) {
        for sink in self.sinks.iter() {
            sink.on_event(&ev);
        }
        match self.events.last_mut() {
            Some(block) if block.len() < block.capacity() => block.push(ev),
            _ => {
                let held: usize = self.events.iter().map(Vec::len).sum();
                let mut block = Vec::with_capacity(held.max(1024));
                block.push(ev);
                self.events.push(block);
            }
        }
    }
}

thread_local! {
    static SCOPE: RefCell<Option<RankScope>> = const { RefCell::new(None) };
}

/// RAII handle returned by [`Recorder::install`]. Dropping it — including
/// during a panic unwind — flushes the rank's buffered events and metrics
/// snapshot into the recorder and clears the thread-local scope.
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            if let Some(mut scope) = s.borrow_mut().take() {
                // Close any spans left open (panic unwind mid-span): give
                // them zero duration at their start time so the trace stays
                // well-formed.
                while let Some(open) = scope.stack.pop() {
                    let ev = TraceEvent::Complete {
                        cat: open.cat,
                        name: open.name,
                        rank: scope.rank,
                        ts_ns: open.ts_ns,
                        dur_ns: 0,
                        args: vec![("truncated", Json::Bool(true))],
                    };
                    scope.emit(ev);
                }
                for sink in scope.sinks.iter() {
                    sink.on_rank_flush(scope.rank);
                }
                scope
                    .recorder
                    .absorb(scope.rank, scope.events, scope.registry.snapshot());
            }
        });
    }
}

pub(crate) fn install_scope(recorder: Recorder, rank: usize) -> ScopeGuard {
    let sinks = recorder.sinks();
    SCOPE.with(|s| {
        let prev = s.borrow_mut().replace(RankScope {
            recorder,
            rank,
            registry: Registry::new(),
            events: Vec::new(),
            stack: Vec::new(),
            sinks,
        });
        assert!(prev.is_none(), "tracing scope already installed on thread");
    });
    ScopeGuard { _priv: () }
}

/// Is a tracing scope installed on this thread?
pub fn enabled() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

fn with_scope<T>(f: impl FnOnce(&mut RankScope) -> T) -> Option<T> {
    SCOPE.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Open a span at virtual time `ts_ns`. Pair with [`span_end`]; spans on one
/// rank must close in LIFO order (they nest).
pub fn span_begin(cat: &'static str, name: &'static str, ts_ns: u64) {
    with_scope(|scope| {
        for sink in scope.sinks.iter() {
            sink.on_span_open(scope.rank, cat, name, ts_ns);
        }
        scope.stack.push(OpenSpan { cat, name, ts_ns });
    });
}

/// Close the innermost open span at virtual time `ts_ns`.
pub fn span_end(ts_ns: u64) {
    span_end_args(ts_ns, Vec::new());
}

/// Close the innermost open span, attaching `args` to the emitted event.
pub fn span_end_args(ts_ns: u64, args: Vec<(&'static str, Json)>) {
    with_scope(|scope| {
        let Some(open) = scope.stack.pop() else {
            debug_assert!(false, "span_end with no open span");
            return;
        };
        let rank = scope.rank;
        scope.emit(TraceEvent::Complete {
            cat: open.cat,
            name: open.name,
            rank,
            ts_ns: open.ts_ns,
            dur_ns: ts_ns.saturating_sub(open.ts_ns),
            args,
        });
    });
}

/// Emit a point event at virtual time `ts_ns`.
pub fn instant(cat: &'static str, name: &'static str, ts_ns: u64, args: Vec<(&'static str, Json)>) {
    with_scope(|scope| {
        let rank = scope.rank;
        scope.emit(TraceEvent::Instant {
            cat,
            name,
            rank,
            ts_ns,
            args,
        });
    });
}

/// Add `n` to the counter `name` in this rank's registry (no-op untraced).
pub fn count(name: &str, n: u64) {
    with_scope(|scope| scope.registry.counter(name).add(n));
}

/// Set the gauge `name` in this rank's registry (no-op untraced).
pub fn gauge_set(name: &str, value: f64) {
    with_scope(|scope| scope.registry.gauge(name).set(value));
}

/// Record `value` into histogram `name` with `bounds` (no-op untraced).
pub fn observe(name: &str, bounds: &[u64], value: u64) {
    with_scope(|scope| scope.registry.histogram(name, bounds).record(value));
}

/// Handles for hot paths that record many times: resolves once, then each
/// record is a bare atomic. `None` when tracing is off for this thread.
pub fn counter_handle(name: &str) -> Option<Counter> {
    with_scope(|scope| scope.registry.counter(name))
}

pub fn gauge_handle(name: &str) -> Option<Gauge> {
    with_scope(|scope| scope.registry.gauge(name))
}

pub fn histogram_handle(name: &str, bounds: &[u64]) -> Option<Histogram> {
    with_scope(|scope| scope.registry.histogram(name, bounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_without_scope() {
        assert!(!enabled());
        span_begin("cat", "x", 0);
        span_end(10);
        instant("cat", "p", 5, vec![]);
        count("c", 1);
        assert!(counter_handle("c").is_none());
    }

    #[test]
    fn spans_nest_and_flush_on_drop() {
        let rec = Recorder::new();
        {
            let _guard = rec.install(3);
            assert!(enabled());
            span_begin("runtime", "outer", 100);
            span_begin("runtime", "inner", 150);
            count("events", 2);
            span_end(180);
            instant("runtime", "mark", 190, vec![("k", Json::UInt(1))]);
            span_end(200);
        }
        assert!(!enabled());
        let events = rec.events();
        assert_eq!(events.len(), 3);
        // Sorted by start time: outer (100) precedes inner (150).
        let TraceEvent::Complete {
            name,
            ts_ns,
            dur_ns,
            rank,
            ..
        } = &events[0]
        else {
            panic!("expected span");
        };
        assert_eq!((*name, *ts_ns, *dur_ns, *rank), ("outer", 100, 100, 3));
        let TraceEvent::Complete {
            name,
            ts_ns,
            dur_ns,
            ..
        } = &events[1]
        else {
            panic!("expected span");
        };
        assert_eq!((*name, *ts_ns, *dur_ns), ("inner", 150, 30));
        assert_eq!(rec.merged_metrics().counter("events"), 2);
    }

    #[test]
    fn intern_cat_reuses_known_and_dedups_unknown() {
        assert_eq!(intern_cat("sched"), "sched");
        let a = intern_cat("custom-cat");
        let b = intern_cat("custom-cat");
        assert!(std::ptr::eq(a, b), "unknown cats must dedup to one leak");
    }

    #[test]
    fn open_spans_truncate_on_unwind() {
        let rec = Recorder::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = rec.install(0);
            span_begin("runtime", "doomed", 50);
            panic!("boom");
        }));
        assert!(r.is_err());
        let events = rec.events();
        assert_eq!(events.len(), 1);
        let TraceEvent::Complete {
            name, dur_ns, args, ..
        } = &events[0]
        else {
            panic!("expected span");
        };
        assert_eq!(*name, "doomed");
        assert_eq!(*dur_ns, 0);
        assert_eq!(args[0].0, "truncated");
    }
}
