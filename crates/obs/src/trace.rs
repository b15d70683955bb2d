//! Span/event tracing stamped with **virtual** time.
//!
//! The simulator's clock is a `u64` nanosecond count since simulation start,
//! so every tracing call takes an explicit `ts_ns` — guards cannot observe
//! virtual time at drop, and wallclock would be meaningless inside a
//! discrete-event run. A thread-local scope, installed per rank by the
//! cluster runner, buffers events locally; nothing is shared until the
//! scope flushes into its [`Recorder`]. Ranks that take
//! turns on one thread set their scope aside while another runs
//! ([`detach_scope`]). With no scope installed every call is a no-op, so
//! instrumented code costs almost nothing outside traced runs.

use std::cell::RefCell;
use std::sync::Arc;

use crate::json::Json;
use crate::metrics::{Counter, Registry};
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

/// The attributes of a generic event: boxed, so the rare kinds that carry
/// them cost the hot ones no size, and an empty list owns no heap block.
pub type Attrs = Box<[(&'static str, Json)]>;

/// What a `sched` span (other than `blocked`) covers: its rank ran the
/// whole stretch, sat out competitors' slices, or both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedState {
    Run,
    Wait,
    RunWait,
}

impl SchedState {
    /// The span name: `run`, `wait` or `run+wait`.
    pub const fn name(self) -> &'static str {
        match self {
            SchedState::Run => "run",
            SchedState::Wait => "wait",
            SchedState::RunWait => "run+wait",
        }
    }

    fn from_name(name: &str) -> Option<SchedState> {
        match name {
            "run" => Some(SchedState::Run),
            "wait" => Some(SchedState::Wait),
            "run+wait" => Some(SchedState::RunWait),
            _ => None,
        }
    }
}

/// The message a `comm/send` or `comm/recv` instant names. `peer` is the
/// other rank; `seq` the sender's program-order id, so `(sender, seq)`
/// links a receive to its send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Msg {
    pub peer: u64,
    pub tag: u64,
    pub seq: u64,
    pub bytes: u64,
}

/// The span names of the comm layer's collectives: a `comm` span with one
/// of these names and `ranks`/`bytes` attributes is a
/// [`TraceEvent::Collective`].
pub const COLLECTIVES: &[&str] = &[
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "allgatherv",
    "alltoallv",
];

/// One trace event, timestamps in virtual nanoseconds; `rank` is the rank
/// that emitted it (exported as `tid`).
///
/// The kinds the simulator and the runtime emit by the tens of thousands
/// are typed: their integer attributes sit inline, so such an event owns
/// no heap block. Every other event is a generic [`Complete`] span or
/// [`Instant`] whose category, name and attribute keys are `&'static str`
/// (literals at every emission site, [`intern`]ed when a dump is parsed
/// back). An event has one form: [`TraceEvent::span`] and
/// [`TraceEvent::instant`] build the typed variant whenever the category,
/// name and attribute keys are a typed kind's, and the parser does the
/// same, so a typed kind never appears as a generic event.
///
/// [`Complete`]: TraceEvent::Complete
/// [`Instant`]: TraceEvent::Instant
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// `sched/{run,wait,run+wait}` span, args `cpu`, `slices`: the exact
    /// CPU the rank consumed in it and the scheduler quanta it spans.
    Sched {
        state: SchedState,
        rank: u32,
        ts_ns: u64,
        dur_ns: u64,
        cpu_ns: u64,
        slices: u64,
    },
    /// `sched/blocked` span, no args: a receive waiting for its message.
    Blocked { rank: u32, ts_ns: u64, dur_ns: u64 },
    /// `comm/send` instant, args `peer`, `tag`, `seq`, `bytes`,
    /// `queued_ns` (the sender-NIC share of the flight time).
    Send {
        rank: u32,
        ts_ns: u64,
        msg: Msg,
        queued_ns: u64,
    },
    /// `comm/recv` instant, args `peer`, `tag`, `seq`, `bytes`,
    /// `rx_queued_ns`, `late_ns`, `net_ns`: the receiver-NIC contention,
    /// and the call's blocked time before and after the sender posted.
    Recv {
        rank: u32,
        ts_ns: u64,
        msg: Msg,
        rx_queued_ns: u64,
        late_ns: u64,
        net_ns: u64,
    },
    /// `runtime/begin_cycle` instant, arg `cycle`.
    BeginCycle { rank: u32, ts_ns: u64, cycle: u64 },
    /// `runtime/end_cycle` span, arg `cycle`.
    EndCycle {
        rank: u32,
        ts_ns: u64,
        dur_ns: u64,
        cycle: u64,
    },
    /// `runtime/charge_rows` span, or `runtime/grace_measure` when `grace`
    /// (rows timed one by one), args `rows`, `cpu_ns`, `work_uflop`.
    ChargeRows {
        grace: bool,
        rank: u32,
        ts_ns: u64,
        dur_ns: u64,
        rows: u64,
        cpu_ns: u64,
        work_uflop: u64,
    },
    /// `comm/<collective>` span (`name` one of [`COLLECTIVES`]), args
    /// `ranks`, `bytes`.
    Collective {
        name: &'static str,
        rank: u32,
        ts_ns: u64,
        dur_ns: u64,
        ranks: u64,
        bytes: u64,
    },
    /// Any other closed span (`ph: "X"` in Chrome trace_event terms).
    Complete {
        cat: &'static str,
        name: &'static str,
        rank: u32,
        ts_ns: u64,
        dur_ns: u64,
        args: Attrs,
    },
    /// Any other point event (`ph: "i"`).
    Instant {
        cat: &'static str,
        name: &'static str,
        rank: u32,
        ts_ns: u64,
        args: Attrs,
    },
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 72);

/// An event's attributes, in export order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Args<'a> {
    /// A typed kind's integers: `values[i]` is the value of `keys[i]`.
    Ints {
        keys: &'static [&'static str],
        values: [u64; 7],
    },
    /// A generic event's attributes.
    Json(&'a [(&'static str, Json)]),
}

impl Args<'_> {
    /// The attributes as owned `(key, value)` pairs.
    pub fn to_vec(&self) -> Vec<(&'static str, Json)> {
        match self {
            Args::Ints { keys, values } => keys
                .iter()
                .zip(values)
                .map(|(k, v)| (*k, Json::UInt(*v)))
                .collect(),
            Args::Json(pairs) => pairs.to_vec(),
        }
    }
}

/// [`Args::Ints`] of a kind with `N` integer attributes.
fn ints<const N: usize>(keys: &'static [&'static str; N], v: [u64; N]) -> Args<'static> {
    let mut values = [0; 7];
    values[..N].copy_from_slice(&v);
    Args::Ints { keys, values }
}

impl TraceEvent {
    /// A closed span of `cat`/`name`: the typed variant when `args` match
    /// a typed kind's keys and are all unsigned integers, else
    /// [`TraceEvent::Complete`].
    pub fn span(
        cat: &'static str,
        name: &'static str,
        rank: u32,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, Json)>,
    ) -> TraceEvent {
        TraceEvent::typed(cat, name, rank, ts_ns, Some(dur_ns), &args).unwrap_or_else(|| {
            TraceEvent::Complete {
                cat,
                name,
                rank,
                ts_ns,
                dur_ns,
                args: args.into(),
            }
        })
    }

    /// A point event of `cat`/`name`: the typed variant when `args` match
    /// a typed kind's keys and are all unsigned integers, else
    /// [`TraceEvent::Instant`].
    pub fn instant(
        cat: &'static str,
        name: &'static str,
        rank: u32,
        ts_ns: u64,
        args: Vec<(&'static str, Json)>,
    ) -> TraceEvent {
        TraceEvent::typed(cat, name, rank, ts_ns, None, &args).unwrap_or_else(|| {
            TraceEvent::Instant {
                cat,
                name,
                rank,
                ts_ns,
                args: args.into(),
            }
        })
    }

    /// The typed kind a span (`dur_ns` given) or instant of `cat`/`name`
    /// with `args` is, if any: every key must be the kind's, in its order,
    /// and every value a [`Json::UInt`]. Resolves against the static
    /// schemas, so it takes no lock and leaks nothing.
    pub(crate) fn typed<K: AsRef<str>>(
        cat: &str,
        name: &str,
        rank: u32,
        ts_ns: u64,
        dur_ns: Option<u64>,
        args: &[(K, Json)],
    ) -> Option<TraceEvent> {
        let mut v = [0u64; 7];
        if args.len() > v.len() {
            return None;
        }
        for (slot, (_, value)) in v.iter_mut().zip(args) {
            let Json::UInt(x) = value else {
                return None;
            };
            *slot = *x;
        }
        let msg = Msg {
            peer: v[0],
            tag: v[1],
            seq: v[2],
            bytes: v[3],
        };
        let ev = match (dur_ns, cat, name) {
            (Some(dur_ns), "sched", "blocked") => TraceEvent::Blocked {
                rank,
                ts_ns,
                dur_ns,
            },
            (Some(dur_ns), "sched", _) => TraceEvent::Sched {
                state: SchedState::from_name(name)?,
                rank,
                ts_ns,
                dur_ns,
                cpu_ns: v[0],
                slices: v[1],
            },
            (None, "comm", "send") => TraceEvent::Send {
                rank,
                ts_ns,
                msg,
                queued_ns: v[4],
            },
            (None, "comm", "recv") => TraceEvent::Recv {
                rank,
                ts_ns,
                msg,
                rx_queued_ns: v[4],
                late_ns: v[5],
                net_ns: v[6],
            },
            (Some(dur_ns), "comm", _) => TraceEvent::Collective {
                name: COLLECTIVES.iter().find(|c| **c == name)?,
                rank,
                ts_ns,
                dur_ns,
                ranks: v[0],
                bytes: v[1],
            },
            (None, "runtime", "begin_cycle") => TraceEvent::BeginCycle {
                rank,
                ts_ns,
                cycle: v[0],
            },
            (Some(dur_ns), "runtime", "end_cycle") => TraceEvent::EndCycle {
                rank,
                ts_ns,
                dur_ns,
                cycle: v[0],
            },
            (Some(dur_ns), "runtime", "charge_rows" | "grace_measure") => TraceEvent::ChargeRows {
                grace: name == "grace_measure",
                rank,
                ts_ns,
                dur_ns,
                rows: v[0],
                cpu_ns: v[1],
                work_uflop: v[2],
            },
            _ => return None,
        };
        let Args::Ints { keys, .. } = ev.args() else {
            unreachable!("a typed kind has integer args");
        };
        let same_keys = keys.len() == args.len()
            && keys
                .iter()
                .zip(args)
                .all(|(k, (given, _))| *k == given.as_ref());
        same_keys.then_some(ev)
    }

    pub fn ts_ns(&self) -> u64 {
        match self {
            TraceEvent::Sched { ts_ns, .. }
            | TraceEvent::Blocked { ts_ns, .. }
            | TraceEvent::Send { ts_ns, .. }
            | TraceEvent::Recv { ts_ns, .. }
            | TraceEvent::BeginCycle { ts_ns, .. }
            | TraceEvent::EndCycle { ts_ns, .. }
            | TraceEvent::ChargeRows { ts_ns, .. }
            | TraceEvent::Collective { ts_ns, .. }
            | TraceEvent::Complete { ts_ns, .. }
            | TraceEvent::Instant { ts_ns, .. } => *ts_ns,
        }
    }

    /// The emitting rank, below [`MAX_RANKS`] (stored as a `u32`).
    pub fn rank(&self) -> usize {
        match self {
            TraceEvent::Sched { rank, .. }
            | TraceEvent::Blocked { rank, .. }
            | TraceEvent::Send { rank, .. }
            | TraceEvent::Recv { rank, .. }
            | TraceEvent::BeginCycle { rank, .. }
            | TraceEvent::EndCycle { rank, .. }
            | TraceEvent::ChargeRows { rank, .. }
            | TraceEvent::Collective { rank, .. }
            | TraceEvent::Complete { rank, .. }
            | TraceEvent::Instant { rank, .. } => *rank as usize,
        }
    }

    /// A span's duration; `None` for an instant.
    pub fn dur_ns(&self) -> Option<u64> {
        match self {
            TraceEvent::Sched { dur_ns, .. }
            | TraceEvent::Blocked { dur_ns, .. }
            | TraceEvent::EndCycle { dur_ns, .. }
            | TraceEvent::ChargeRows { dur_ns, .. }
            | TraceEvent::Collective { dur_ns, .. }
            | TraceEvent::Complete { dur_ns, .. } => Some(*dur_ns),
            TraceEvent::Send { .. }
            | TraceEvent::Recv { .. }
            | TraceEvent::BeginCycle { .. }
            | TraceEvent::Instant { .. } => None,
        }
    }

    pub fn cat(&self) -> &'static str {
        match self {
            TraceEvent::Sched { .. } | TraceEvent::Blocked { .. } => "sched",
            TraceEvent::Send { .. } | TraceEvent::Recv { .. } | TraceEvent::Collective { .. } => {
                "comm"
            }
            TraceEvent::BeginCycle { .. }
            | TraceEvent::EndCycle { .. }
            | TraceEvent::ChargeRows { .. } => "runtime",
            TraceEvent::Complete { cat, .. } | TraceEvent::Instant { cat, .. } => cat,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Sched { state, .. } => state.name(),
            TraceEvent::Blocked { .. } => "blocked",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Recv { .. } => "recv",
            TraceEvent::BeginCycle { .. } => "begin_cycle",
            TraceEvent::EndCycle { .. } => "end_cycle",
            TraceEvent::ChargeRows { grace: false, .. } => "charge_rows",
            TraceEvent::ChargeRows { grace: true, .. } => "grace_measure",
            TraceEvent::Collective { name, .. }
            | TraceEvent::Complete { name, .. }
            | TraceEvent::Instant { name, .. } => name,
        }
    }

    /// The attributes, in the order both exporters write them.
    pub fn args(&self) -> Args<'_> {
        match *self {
            TraceEvent::Sched { cpu_ns, slices, .. } => ints(&["cpu", "slices"], [cpu_ns, slices]),
            TraceEvent::Blocked { .. } => ints(&[], []),
            TraceEvent::Send { msg, queued_ns, .. } => ints(
                &["peer", "tag", "seq", "bytes", "queued_ns"],
                [msg.peer, msg.tag, msg.seq, msg.bytes, queued_ns],
            ),
            TraceEvent::Recv {
                msg,
                rx_queued_ns,
                late_ns,
                net_ns,
                ..
            } => ints(
                &[
                    "peer",
                    "tag",
                    "seq",
                    "bytes",
                    "rx_queued_ns",
                    "late_ns",
                    "net_ns",
                ],
                [
                    msg.peer,
                    msg.tag,
                    msg.seq,
                    msg.bytes,
                    rx_queued_ns,
                    late_ns,
                    net_ns,
                ],
            ),
            TraceEvent::BeginCycle { cycle, .. } | TraceEvent::EndCycle { cycle, .. } => {
                ints(&["cycle"], [cycle])
            }
            TraceEvent::ChargeRows {
                rows,
                cpu_ns,
                work_uflop,
                ..
            } => ints(
                &["rows", "cpu_ns", "work_uflop"],
                [rows, cpu_ns, work_uflop],
            ),
            TraceEvent::Collective { ranks, bytes, .. } => {
                ints(&["ranks", "bytes"], [ranks, bytes])
            }
            TraceEvent::Complete { ref args, .. } | TraceEvent::Instant { ref args, .. } => {
                Args::Json(args)
            }
        }
    }

    /// Do the timestamp and, for a span, its end lie within [`MAX_TS_NS`]?
    pub fn in_time_range(&self) -> bool {
        let end = self.ts_ns().checked_add(self.dur_ns().unwrap_or(0));
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
    /// Below [`MAX_RANKS`], as every event stores it.
    rank: u32,
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
                    let args = vec![("truncated", Json::Bool(true))];
                    let ev = TraceEvent::span(open.cat, open.name, scope.rank, open.ts_ns, 0, args);
                    scope.emit(ev);
                }
                for sink in scope.sinks.iter() {
                    sink.on_rank_flush(scope.rank as usize);
                }
                scope
                    .recorder
                    .absorb(scope.rank as usize, scope.events, scope.registry.snapshot());
            }
        });
    }
}

pub(crate) fn install_scope(recorder: Recorder, rank: usize) -> ScopeGuard {
    assert!(
        rank < MAX_RANKS,
        "rank {rank} is not below MAX_RANKS = {MAX_RANKS}"
    );
    let rank = rank as u32;
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

/// The calling thread's tracing scope, moved off the thread by
/// [`detach_scope`]; dropping it puts the scope back. Several ranks that
/// take turns on one thread each keep their own scope this way: a rank
/// sets its scope aside before it gives up the thread and has it back when
/// it resumes. Holds nothing when the thread had no scope.
#[must_use = "dropping the guard is what puts the scope back"]
pub struct DetachedScope(Option<RankScope>);

/// Moves the calling thread's tracing scope, if any, aside until the
/// returned guard drops: meanwhile the thread emits nothing and may
/// install another scope, which must be gone again by then.
pub fn detach_scope() -> DetachedScope {
    DetachedScope(SCOPE.with(|s| s.borrow_mut().take()))
}

impl Drop for DetachedScope {
    fn drop(&mut self) {
        if let Some(scope) = self.0.take() {
            SCOPE.with(|s| {
                let prev = s.borrow_mut().replace(scope);
                assert!(
                    prev.is_none(),
                    "tracing scope installed over a detached one"
                );
            });
        }
    }
}

/// Is a tracing scope installed on this thread?
pub fn enabled() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

fn with_scope<T>(f: impl FnOnce(&mut RankScope) -> T) -> Option<T> {
    SCOPE.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Open a span at virtual time `ts_ns`. Pair with [`span_end`] or a typed
/// closer; spans on one rank must close in LIFO order (they nest).
pub fn span_begin(cat: &'static str, name: &'static str, ts_ns: u64) {
    with_scope(|scope| {
        for sink in scope.sinks.iter() {
            sink.on_span_open(scope.rank as usize, cat, name, ts_ns);
        }
        scope.stack.push(OpenSpan { cat, name, ts_ns });
    });
}

/// Close the innermost open span at virtual time `ts_ns`, emitting the
/// event `close` builds from it, this rank and the span's duration.
fn close_span(ts_ns: u64, close: impl FnOnce(OpenSpan, u32, u64) -> TraceEvent) {
    with_scope(|scope| {
        let Some(open) = scope.stack.pop() else {
            debug_assert!(false, "span_end with no open span");
            return;
        };
        let dur_ns = ts_ns.saturating_sub(open.ts_ns);
        let ev = close(open, scope.rank, dur_ns);
        scope.emit(ev);
    });
}

/// Emit the point event `make` builds for this rank.
fn emit_instant(make: impl FnOnce(u32) -> TraceEvent) {
    with_scope(|scope| {
        let ev = make(scope.rank);
        scope.emit(ev);
    });
}

/// Close the innermost open span at virtual time `ts_ns`.
pub fn span_end(ts_ns: u64) {
    span_end_args(ts_ns, Vec::new());
}

/// Close the innermost open span, attaching `args` to the emitted event.
pub fn span_end_args(ts_ns: u64, args: Vec<(&'static str, Json)>) {
    close_span(ts_ns, |open, rank, dur_ns| {
        TraceEvent::span(open.cat, open.name, rank, open.ts_ns, dur_ns, args)
    });
}

/// Emit a point event at virtual time `ts_ns`.
pub fn instant(cat: &'static str, name: &'static str, ts_ns: u64, args: Vec<(&'static str, Json)>) {
    emit_instant(|rank| TraceEvent::instant(cat, name, rank, ts_ns, args));
}

/// Emit a [`TraceEvent::Sched`] span from `ts_ns` to `end_ns`: it opens
/// (sinks see [`EventSink::on_span_open`]) and closes at once.
pub fn sched_span(state: SchedState, ts_ns: u64, end_ns: u64, cpu_ns: u64, slices: u64) {
    with_scope(|scope| {
        for sink in scope.sinks.iter() {
            sink.on_span_open(scope.rank as usize, "sched", state.name(), ts_ns);
        }
        let ev = TraceEvent::Sched {
            state,
            rank: scope.rank,
            ts_ns,
            dur_ns: end_ns.saturating_sub(ts_ns),
            cpu_ns,
            slices,
        };
        scope.emit(ev);
    });
}

/// Close the innermost open span, a `sched/blocked` one, as a
/// [`TraceEvent::Blocked`].
pub fn span_end_blocked(ts_ns: u64) {
    close_span(ts_ns, |open, rank, dur_ns| {
        debug_assert_eq!((open.cat, open.name), ("sched", "blocked"));
        TraceEvent::Blocked {
            rank,
            ts_ns: open.ts_ns,
            dur_ns,
        }
    });
}

/// Emit a [`TraceEvent::Send`] instant.
pub fn comm_send(ts_ns: u64, msg: Msg, queued_ns: u64) {
    emit_instant(|rank| TraceEvent::Send {
        rank,
        ts_ns,
        msg,
        queued_ns,
    });
}

/// Emit a [`TraceEvent::Recv`] instant.
pub fn comm_recv(ts_ns: u64, msg: Msg, rx_queued_ns: u64, late_ns: u64, net_ns: u64) {
    emit_instant(|rank| TraceEvent::Recv {
        rank,
        ts_ns,
        msg,
        rx_queued_ns,
        late_ns,
        net_ns,
    });
}

/// Emit a [`TraceEvent::BeginCycle`] instant.
pub fn begin_cycle(ts_ns: u64, cycle: u64) {
    emit_instant(|rank| TraceEvent::BeginCycle { rank, ts_ns, cycle });
}

/// Close the innermost open span, a `runtime/end_cycle` one, as a
/// [`TraceEvent::EndCycle`].
pub fn span_end_cycle(ts_ns: u64, cycle: u64) {
    close_span(ts_ns, |open, rank, dur_ns| {
        debug_assert_eq!((open.cat, open.name), ("runtime", "end_cycle"));
        TraceEvent::EndCycle {
            rank,
            ts_ns: open.ts_ns,
            dur_ns,
            cycle,
        }
    });
}

/// Close the innermost open span, a `runtime/charge_rows` or
/// `runtime/grace_measure` one, as a [`TraceEvent::ChargeRows`].
pub fn span_end_charge_rows(ts_ns: u64, rows: u64, cpu_ns: u64, work_uflop: u64) {
    close_span(ts_ns, |open, rank, dur_ns| {
        debug_assert_eq!(open.cat, "runtime");
        debug_assert!(matches!(open.name, "charge_rows" | "grace_measure"));
        TraceEvent::ChargeRows {
            grace: open.name == "grace_measure",
            rank,
            ts_ns: open.ts_ns,
            dur_ns,
            rows,
            cpu_ns,
            work_uflop,
        }
    });
}

/// Close the innermost open span, a `comm` span named after one of
/// [`COLLECTIVES`], as a [`TraceEvent::Collective`].
pub fn span_end_collective(ts_ns: u64, ranks: u64, bytes: u64) {
    close_span(ts_ns, |open, rank, dur_ns| {
        debug_assert_eq!(open.cat, "comm");
        debug_assert!(COLLECTIVES.contains(&open.name), "{}", open.name);
        TraceEvent::Collective {
            name: open.name,
            rank,
            ts_ns: open.ts_ns,
            dur_ns,
            ranks,
            bytes,
        }
    });
}

/// Add `n` to the counter `name` in this rank's registry (no-op untraced).
pub fn count(name: &str, n: u64) {
    with_scope(|scope| scope.registry.counter(name).add(n));
}

/// Record `value` into histogram `name` with `bounds` (no-op untraced).
pub fn observe(name: &str, bounds: &[u64], value: u64) {
    with_scope(|scope| scope.registry.histogram(name, bounds).record(value));
}

/// Handle for hot paths that count many times: resolves once, then each
/// add is a bare atomic. `None` when tracing is off for this thread.
pub fn counter_handle(name: &str) -> Option<Counter> {
    with_scope(|scope| scope.registry.counter(name))
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
