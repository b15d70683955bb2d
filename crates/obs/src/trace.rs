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
//! instrumented code costs almost nothing outside traced runs: while no
//! scope exists anywhere in the process, a call reads one process-wide
//! count and returns without touching the thread-local.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::json::Json;
use crate::metrics::{Counter, Histogram, Registry};
use crate::run::RunBuffer;
use crate::Recorder;

/// A consumer of trace events, subscribed with [`Recorder::subscribe`].
/// Emission only encodes; when a rank scope flushes, the recorder folds
/// the flushed run into every sink subscribed at that moment, one event
/// at a time in the run's order, outside its lock. A sink sees every run
/// that flushes after it subscribes, whenever the rank was installed.
///
/// Implementations must be `Send + Sync`: ranks on separate threads
/// flush into the same sink concurrently, and the runs of different ranks
/// arrive in flush order. A sink that wants deterministic *output* must
/// therefore fold events with commutative operations keyed by virtual
/// timestamp (the health monitor's windows do exactly this).
pub trait EventSink: Send + Sync {
    /// One event of a flushed run: a closed span or an instant.
    fn on_event(&self, ev: &TraceEvent);
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
    pub fn name(self) -> &'static str {
        KINDS[self as usize].name
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

/// A typed kind's schema: its category, name and attribute keys, and
/// the constant text both exporters write around its integers, rendered
/// at compile time from the same literals.
pub(crate) struct Kind {
    pub cat: &'static str,
    pub name: &'static str,
    /// A span (it has a duration), not an instant.
    pub span: bool,
    /// The attribute keys, in export order.
    pub keys: &'static [&'static str],
    /// `{"ph":…,"cat":…,"name":…,"pid":0,"tid":` — the Chrome object up
    /// to its rank.
    pub chrome_head: &'static str,
    /// `{"kind":…,"cat":…,"name":…,"rank":` — the JSONL line up to its
    /// rank.
    pub jsonl_head: &'static str,
    /// `"k0":`, `,"k1":`, …: what precedes each attribute's value.
    pub key_heads: &'static [&'static str],
}

macro_rules! kind {
    (span $cat:literal $name:literal [$($key:literal),*]) => {
        kind!(@ "X" "span" true $cat $name [$($key),*])
    };
    (instant $cat:literal $name:literal [$($key:literal),*]) => {
        kind!(@ "i" "instant" false $cat $name [$($key),*])
    };
    (@ $ph:literal $kind:literal $span:literal $cat:literal $name:literal [$($key:literal),*]) => {
        Kind {
            cat: $cat,
            name: $name,
            span: $span,
            keys: &[$($key),*],
            chrome_head: concat!(
                "{\"ph\":\"", $ph, "\",\"cat\":\"", $cat, "\",\"name\":\"", $name,
                "\",\"pid\":0,\"tid\":"
            ),
            jsonl_head: concat!(
                "{\"kind\":\"", $kind, "\",\"cat\":\"", $cat, "\",\"name\":\"", $name,
                "\",\"rank\":"
            ),
            key_heads: kind!(@heads $($key),*),
        }
    };
    (@heads) => { &[] };
    (@heads $first:literal $(, $key:literal)*) => {
        &[concat!("\"", $first, "\":") $(, concat!(",\"", $key, "\":"))*]
    };
}

/// Every typed kind, in [`TraceEvent::kind`]'s order: the three
/// [`SchedState`]s, then one entry per other variant and name, the
/// collectives last in [`COLLECTIVES`] order.
pub(crate) static KINDS: [Kind; 16] = [
    kind!(span "sched" "run" ["cpu", "slices"]),
    kind!(span "sched" "wait" ["cpu", "slices"]),
    kind!(span "sched" "run+wait" ["cpu", "slices"]),
    kind!(span "sched" "blocked" []),
    kind!(instant "comm" "send" ["peer", "tag", "seq", "bytes", "queued_ns"]),
    kind!(instant "comm" "recv" ["peer", "tag", "seq", "bytes", "rx_queued_ns", "late_ns", "net_ns"]),
    kind!(instant "runtime" "begin_cycle" ["cycle"]),
    kind!(span "runtime" "end_cycle" ["cycle"]),
    kind!(span "runtime" "charge_rows" ["rows", "cpu_ns", "work_uflop"]),
    kind!(span "runtime" "grace_measure" ["rows", "cpu_ns", "work_uflop"]),
    kind!(span "comm" "barrier" ["ranks", "bytes"]),
    kind!(span "comm" "bcast" ["ranks", "bytes"]),
    kind!(span "comm" "reduce" ["ranks", "bytes"]),
    kind!(span "comm" "allreduce" ["ranks", "bytes"]),
    kind!(span "comm" "allgatherv" ["ranks", "bytes"]),
    kind!(span "comm" "alltoallv" ["ranks", "bytes"]),
];

/// The index of the first collective in [`KINDS`].
const FIRST_COLLECTIVE: usize = KINDS.len() - COLLECTIVES.len();

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

/// A typed event as a recording's stream holds it: its kind's position
/// in [`KINDS`] and its integers, which is what both exporters render.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Typed {
    pub index: usize,
    pub rank: u32,
    pub ts_ns: u64,
    /// `Some` exactly for a span.
    pub dur_ns: Option<u64>,
    /// The kind's integers in its keys' order, zero-padded.
    pub values: [u64; 7],
}

/// An event as a walk of a recording yields it: a typed one decoded into
/// its parts, any other one borrowed whole.
#[derive(Clone, Copy, Debug)]
pub(crate) enum View<'a> {
    Typed(Typed),
    Other(&'a TraceEvent),
}

impl<'a> View<'a> {
    /// `ev` split into its parts where it is a typed kind.
    pub fn of(ev: &'a TraceEvent) -> View<'a> {
        match ev.kind_index() {
            Some(index) => View::Typed(Typed {
                index,
                rank: ev.rank() as u32,
                ts_ns: ev.ts_ns(),
                dur_ns: ev.dur_ns(),
                values: ev.values(),
            }),
            None => View::Other(ev),
        }
    }

    /// The event itself: built from a typed one's parts, else borrowed.
    pub fn event(self) -> Cow<'a, TraceEvent> {
        match self {
            View::Typed(t) => Cow::Owned(TraceEvent::of_kind(
                t.index,
                t.rank,
                t.ts_ns,
                t.dur_ns.unwrap_or(0),
                t.values,
            )),
            View::Other(ev) => Cow::Borrowed(ev),
        }
    }

    pub fn rank(&self) -> u64 {
        match self {
            View::Typed(t) => t.rank.into(),
            View::Other(ev) => ev.rank() as u64,
        }
    }

    pub fn ts_ns(&self) -> u64 {
        match self {
            View::Typed(t) => t.ts_ns,
            View::Other(ev) => ev.ts_ns(),
        }
    }

    pub fn dur_ns(&self) -> Option<u64> {
        match self {
            View::Typed(t) => t.dur_ns,
            View::Other(ev) => ev.dur_ns(),
        }
    }
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
        let index = (KINDS.iter())
            .position(|k| k.cat == cat && k.name == name && k.span == dur_ns.is_some())?;
        let keys = KINDS[index].keys;
        if keys.len() != args.len() {
            return None;
        }
        let mut values = [0u64; 7];
        for ((slot, key), (given, value)) in values.iter_mut().zip(keys).zip(args) {
            match value {
                Json::UInt(x) if *key == given.as_ref() => *slot = *x,
                _ => return None,
            }
        }
        Some(TraceEvent::of_kind(
            index,
            rank,
            ts_ns,
            dur_ns.unwrap_or(0),
            values,
        ))
    }

    /// The event of typed kind `KINDS[index]`: `values` are the kind's
    /// integers in its keys' order, and `dur_ns` is ignored for an
    /// instant.
    pub(crate) fn of_kind(
        index: usize,
        rank: u32,
        ts_ns: u64,
        dur_ns: u64,
        v: [u64; 7],
    ) -> TraceEvent {
        let msg = Msg {
            peer: v[0],
            tag: v[1],
            seq: v[2],
            bytes: v[3],
        };
        match index {
            0..=2 => TraceEvent::Sched {
                state: [SchedState::Run, SchedState::Wait, SchedState::RunWait][index],
                rank,
                ts_ns,
                dur_ns,
                cpu_ns: v[0],
                slices: v[1],
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
                queued_ns: v[4],
            },
            5 => TraceEvent::Recv {
                rank,
                ts_ns,
                msg,
                rx_queued_ns: v[4],
                late_ns: v[5],
                net_ns: v[6],
            },
            6 => TraceEvent::BeginCycle {
                rank,
                ts_ns,
                cycle: v[0],
            },
            7 => TraceEvent::EndCycle {
                rank,
                ts_ns,
                dur_ns,
                cycle: v[0],
            },
            8 | 9 => TraceEvent::ChargeRows {
                grace: index == 9,
                rank,
                ts_ns,
                dur_ns,
                rows: v[0],
                cpu_ns: v[1],
                work_uflop: v[2],
            },
            _ => TraceEvent::Collective {
                name: KINDS[index].name,
                rank,
                ts_ns,
                dur_ns,
                ranks: v[0],
                bytes: v[1],
            },
        }
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
            TraceEvent::Complete { cat, .. } | TraceEvent::Instant { cat, .. } => cat,
            typed => typed.schema().cat,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Collective { name, .. }
            | TraceEvent::Complete { name, .. }
            | TraceEvent::Instant { name, .. } => name,
            typed => typed.schema().name,
        }
    }

    /// The typed kind's schema and templates, `None` for a generic event
    /// (and for a hand-built collective named off [`COLLECTIVES`]).
    pub(crate) fn kind(&self) -> Option<&'static Kind> {
        Some(&KINDS[self.kind_index()?])
    }

    /// The typed kind's position in [`KINDS`], `None` where [`kind`] is.
    ///
    /// [`kind`]: TraceEvent::kind
    pub(crate) fn kind_index(&self) -> Option<usize> {
        let index = match *self {
            TraceEvent::Sched { state, .. } => state as usize,
            TraceEvent::Blocked { .. } => 3,
            TraceEvent::Send { .. } => 4,
            TraceEvent::Recv { .. } => 5,
            TraceEvent::BeginCycle { .. } => 6,
            TraceEvent::EndCycle { .. } => 7,
            TraceEvent::ChargeRows { grace, .. } => 8 + grace as usize,
            TraceEvent::Collective { name, .. } => {
                FIRST_COLLECTIVE + COLLECTIVES.iter().position(|c| *c == name)?
            }
            TraceEvent::Complete { .. } | TraceEvent::Instant { .. } => return None,
        };
        Some(index)
    }

    /// `f` of a typed event's kind (its position in [`KINDS`]) and
    /// fields, in the order a recording stores them: a span's duration,
    /// then the kind's integers in its keys' order. `None` where
    /// [`kind`](TraceEvent::kind) is.
    #[inline]
    pub(crate) fn with_fields<R>(&self, f: impl FnOnce(usize, &[u64]) -> R) -> Option<R> {
        Some(match *self {
            TraceEvent::Sched {
                state,
                dur_ns,
                cpu_ns,
                slices,
                ..
            } => f(state as usize, &[dur_ns, cpu_ns, slices]),
            TraceEvent::Blocked { dur_ns, .. } => f(3, &[dur_ns]),
            TraceEvent::Send { msg, queued_ns, .. } => {
                f(4, &[msg.peer, msg.tag, msg.seq, msg.bytes, queued_ns])
            }
            TraceEvent::Recv {
                msg,
                rx_queued_ns,
                late_ns,
                net_ns,
                ..
            } => f(
                5,
                &[
                    msg.peer,
                    msg.tag,
                    msg.seq,
                    msg.bytes,
                    rx_queued_ns,
                    late_ns,
                    net_ns,
                ],
            ),
            TraceEvent::BeginCycle { cycle, .. } => f(6, &[cycle]),
            TraceEvent::EndCycle { dur_ns, cycle, .. } => f(7, &[dur_ns, cycle]),
            TraceEvent::ChargeRows {
                grace,
                dur_ns,
                rows,
                cpu_ns,
                work_uflop,
                ..
            } => f(8 + usize::from(grace), &[dur_ns, rows, cpu_ns, work_uflop]),
            TraceEvent::Collective {
                dur_ns,
                ranks,
                bytes,
                ..
            } => f(self.kind_index()?, &[dur_ns, ranks, bytes]),
            TraceEvent::Complete { .. } | TraceEvent::Instant { .. } => return None,
        })
    }

    /// A typed kind's integers, in its keys' order (zero-padded), and a
    /// collective's named off [`COLLECTIVES`]; zeros for a generic event.
    pub(crate) fn values(&self) -> [u64; 7] {
        let mut values = [0; 7];
        let mut copy = |ints: &[u64]| values[..ints.len()].copy_from_slice(ints);
        match *self {
            TraceEvent::Collective { ranks, bytes, .. } => copy(&[ranks, bytes]),
            _ => {
                self.with_fields(|index, fields| copy(&fields[usize::from(KINDS[index].span)..]));
            }
        }
        values
    }

    /// A typed event's category and keys: its kind's, where a collective
    /// named off [`COLLECTIVES`] takes the collectives' (its name is its
    /// own).
    fn schema(&self) -> &'static Kind {
        self.kind().unwrap_or(&KINDS[FIRST_COLLECTIVE])
    }

    /// The attributes, in the order both exporters write them.
    pub fn args(&self) -> Args<'_> {
        match self {
            TraceEvent::Complete { args, .. } | TraceEvent::Instant { args, .. } => {
                Args::Json(args)
            }
            typed => Args::Ints {
                keys: typed.schema().keys,
                values: typed.values(),
            },
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
/// rejects a larger `rank`, and the sinks, which size per-node
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

/// Bytes per chunk of a rank scope's buffer: a rank allocates once per
/// chunk it fills with encoded events (≈ 1 300 of the instrumented
/// layers' events), and an event that would overrun one opens the next.
pub const CHUNK_BYTES: usize = 16 * 1_024;

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
    /// The metrics this scope has named, by the address of the name (and
    /// the bounds) it was named with: a repeated [`count`] or [`observe`]
    /// finds its handle by pointer and skips the registry's lock.
    counters: Vec<(&'static str, Counter)>,
    hists: Vec<(&'static str, &'static [u64], Histogram)>,
    /// Emitted events, encoded into chunks of [`CHUNK_BYTES`]; the flush
    /// sorts them into the run the recorder keeps.
    events: RunBuffer,
    stack: Vec<OpenSpan>,
}

thread_local! {
    /// Boxed: a rank that gives up its turn moves its scope aside (and
    /// back) at every switch, a pointer and not the scope.
    static SCOPE: RefCell<Option<Box<RankScope>>> = const { RefCell::new(None) };
}

/// Scopes installed and not yet dropped, on any thread, detached ones
/// included. Zero means no thread has a scope, so every entry point can
/// return before it looks the thread-local up. A non-zero count says
/// nothing about the calling thread; the thread-local decides then. Relaxed
/// suffices: a thread always sees its own install, so a thread with a
/// scope never reads zero.
static SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Could the calling thread have a scope? `false` only when none exists.
fn any_scope() -> bool {
    SCOPES.load(Ordering::Relaxed) != 0
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
            if let Some(scope) = s.borrow_mut().take() {
                let mut scope = *scope;
                // Close any spans left open (panic unwind mid-span): give
                // them zero duration at their start time so the trace stays
                // well-formed.
                while let Some(open) = scope.stack.pop() {
                    let args = vec![("truncated", Json::Bool(true))];
                    let ev = TraceEvent::span(open.cat, open.name, scope.rank, open.ts_ns, 0, args);
                    scope.events.push(ev);
                }
                let run = scope.events.finish(scope.rank);
                (scope.recorder).absorb(scope.rank as usize, run, scope.registry.snapshot());
                SCOPES.fetch_sub(1, Ordering::Relaxed);
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
    SCOPE.with(|s| {
        let prev = s.borrow_mut().replace(Box::new(RankScope {
            recorder,
            rank,
            registry: Registry::new(),
            counters: Vec::new(),
            hists: Vec::new(),
            events: RunBuffer::default(),
            stack: Vec::new(),
        }));
        assert!(prev.is_none(), "tracing scope already installed on thread");
    });
    SCOPES.fetch_add(1, Ordering::Relaxed);
    ScopeGuard { _priv: () }
}

/// The calling thread's tracing scope, moved off the thread by
/// [`detach_scope`]; dropping it puts the scope back. Several ranks that
/// take turns on one thread each keep their own scope this way: a rank
/// sets its scope aside before it gives up the thread and has it back when
/// it resumes. Holds nothing when the thread had no scope.
#[must_use = "dropping the guard is what puts the scope back"]
pub struct DetachedScope(Option<Box<RankScope>>);

/// Moves the calling thread's tracing scope, if any, aside until the
/// returned guard drops: meanwhile the thread emits nothing and may
/// install another scope, which must be gone again by then.
pub fn detach_scope() -> DetachedScope {
    if !any_scope() {
        return DetachedScope(None);
    }
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
    any_scope() && SCOPE.with(|s| s.borrow().is_some())
}

fn with_scope<T>(f: impl FnOnce(&mut RankScope) -> T) -> Option<T> {
    if !any_scope() {
        return None;
    }
    SCOPE.with(|s| s.borrow_mut().as_deref_mut().map(f))
}

/// Open a span at virtual time `ts_ns`. Pair with [`span_end`] or a typed
/// closer; spans on one rank must close in LIFO order (they nest).
pub fn span_begin(cat: &'static str, name: &'static str, ts_ns: u64) {
    with_scope(|scope| scope.stack.push(OpenSpan { cat, name, ts_ns }));
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
        scope.events.push(ev);
    });
}

/// Emit the point event `make` builds for this rank.
fn emit_instant(make: impl FnOnce(u32) -> TraceEvent) {
    with_scope(|scope| {
        let ev = make(scope.rank);
        scope.events.push(ev);
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

/// Emit a [`TraceEvent::Sched`] span from `ts_ns` to `end_ns`.
pub fn sched_span(state: SchedState, ts_ns: u64, end_ns: u64, cpu_ns: u64, slices: u64) {
    with_scope(|scope| {
        let ev = TraceEvent::Sched {
            state,
            rank: scope.rank,
            ts_ns,
            dur_ns: end_ns.saturating_sub(ts_ns),
            cpu_ns,
            slices,
        };
        scope.events.push(ev);
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
/// The scope resolves each name once; later calls are an atomic add.
pub fn count(name: &'static str, n: u64) {
    with_scope(|scope| {
        let cached = scope.counters.iter().find(|(k, _)| std::ptr::eq(*k, name));
        match cached {
            Some((_, c)) => c.add(n),
            None => {
                let c = scope.registry.counter(name);
                c.add(n);
                scope.counters.push((name, c));
            }
        }
    });
}

/// Record `value` into histogram `name` with `bounds` (no-op untraced).
/// The scope resolves each `(name, bounds)` once; later calls only
/// record. Panics if `name` was registered with different bounds.
pub fn observe(name: &'static str, bounds: &'static [u64], value: u64) {
    with_scope(|scope| {
        let cached = (scope.hists.iter())
            .find(|(k, b, _)| std::ptr::eq(*k, name) && std::ptr::eq(*b, bounds));
        match cached {
            Some((.., h)) => h.record(value),
            None => {
                let h = scope.registry.histogram(name, bounds);
                h.record(value);
                scope.hists.push((name, bounds, h));
            }
        }
    });
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
