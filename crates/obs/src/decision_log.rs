//! The one fold of the runtime's replicated decisions (DESIGN.md §11).
//!
//! The runtime makes each adaptation decision once, from replicated
//! broadcast data, and every rank mirrors it as a `runtime` trace event
//! carrying the same inputs. A [`DecisionLog`] keeps one record per
//! decision and one bound per `(cycle, rank)`, each an earliest-wins fold,
//! so what it holds is a pure function of the event *set*. The health
//! monitor holds one (and explain reads that one); the profiler folds one
//! over the recorded slice.

use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::RangeInclusive;

use crate::json::Json;
use crate::trace::TraceEvent;

type Args = [(&'static str, Json)];

fn arg<'a>(args: &'a Args, key: &str) -> Option<&'a Json> {
    args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

pub(crate) fn arg_u64(args: &Args, key: &str) -> Option<u64> {
    arg(args, key).and_then(Json::as_u64)
}

pub(crate) fn arg_f64(args: &Args, key: &str) -> Option<f64> {
    arg(args, key).and_then(Json::as_f64)
}

pub(crate) fn arg_bool(args: &Args, key: &str) -> Option<bool> {
    arg(args, key).and_then(Json::as_bool)
}

/// An array attribute of node indices (or per-node counts).
pub(crate) fn arg_usize_arr(args: &Args, key: &str) -> Option<Vec<usize>> {
    let values = arg(args, key)?.as_arr()?.iter().filter_map(Json::as_u64);
    Some(values.map(|v| v as usize).collect())
}

/// Outcome window length in cycles, on each side of a decision.
const OUTCOME_WINDOW: u64 = 3;

/// Cycles skipped after a decision before its "after" window starts (the
/// control-pipeline lag pollutes them).
const OUTCOME_SETTLE: u64 = 2;

/// The cycles just before a decision at `cycle` — `[max(1, c−3), c−1]`,
/// `None` at cycle ≤ 1. Explain's outcomes and the profiler's audits both
/// judge a decision on this window and [`after_window`].
pub(crate) fn before_window(cycle: u64) -> Option<RangeInclusive<u64>> {
    (cycle > 1).then(|| cycle.saturating_sub(OUTCOME_WINDOW).max(1)..=cycle - 1)
}

/// The cycles a decision at `cycle` is judged after: `[c+2, c+4]`.
pub(crate) fn after_window(cycle: u64) -> RangeInclusive<u64> {
    cycle + OUTCOME_SETTLE..=cycle + OUTCOME_SETTLE + OUTCOME_WINDOW - 1
}

/// One replicated event as its earliest `(ts, rank)` copy carried it.
pub(crate) struct Logged {
    pub ts_ns: u64,
    pub rank: usize,
    pub args: Vec<(&'static str, Json)>,
}

#[derive(Default)]
pub(crate) struct DecisionLog {
    /// `(cycle, kind)` → every `runtime` instant carrying a `cycle`,
    /// `begin_cycle` aside.
    pub decisions: BTreeMap<(u64, &'static str), Logged>,
    /// `(cycle, node)` → earliest `node-suspected` timestamp.
    pub suspects: BTreeMap<(u64, usize), u64>,
    /// cycle → the `balance` span; `ts_ns` is its earliest end.
    pub balances: BTreeMap<u64, Logged>,
    /// `cycles[cycle][rank]`: the earliest `begin_cycle` instant and the
    /// earliest `end_cycle` span end, `u64::MAX` until seen; dense, as
    /// cycles count up from 0 or 1. A cycle replayed after a rollback
    /// keeps its first, pre-crash bounds.
    cycles: Vec<Vec<[u64; 2]>>,
}

/// Cycles at or above this carry no bounds: a malformed dump's cycle
/// number must not size the dense table. No run here comes near a
/// million cycles.
const MAX_CYCLES: u64 = 1 << 20;

fn keep_earliest<K: Ord>(map: &mut BTreeMap<K, Logged>, key: K, at: (u64, usize), args: &Args) {
    let (ts_ns, rank) = at;
    let logged = || Logged {
        ts_ns,
        rank,
        args: args.to_vec(),
    };
    match map.entry(key) {
        Entry::Occupied(e) if (e.get().ts_ns, e.get().rank) <= at => {}
        Entry::Occupied(mut e) => *e.get_mut() = logged(),
        Entry::Vacant(e) => {
            e.insert(logged());
        }
    }
}

impl DecisionLog {
    /// Folds one event. The caller passes only events within
    /// [`MAX_TS_NS`](crate::trace::MAX_TS_NS), so a span's end is exact.
    pub fn fold(&mut self, ev: &TraceEvent) {
        let (rank, ts) = (ev.rank(), ev.ts_ns());
        match *ev {
            TraceEvent::BeginCycle { cycle, .. } => self.min_bound((cycle, rank), 0, ts),
            TraceEvent::EndCycle { dur_ns, cycle, .. } => {
                self.min_bound((cycle, rank), 1, ts + dur_ns)
            }
            TraceEvent::Complete {
                cat: "runtime",
                name: "balance",
                dur_ns,
                ref args,
                ..
            } => {
                if let Some(cycle) = arg_u64(args, "cycle") {
                    keep_earliest(&mut self.balances, cycle, (ts + dur_ns, rank), args)
                }
            }
            TraceEvent::Instant {
                cat: "runtime",
                name,
                ref args,
                ..
            } => {
                let Some(cycle) = arg_u64(args, "cycle") else {
                    return;
                };
                if name == "node-suspected" {
                    if let Some(node) = arg_u64(args, "node") {
                        let first = self.suspects.entry((cycle, node as usize)).or_insert(ts);
                        *first = (*first).min(ts);
                    }
                }
                keep_earliest(&mut self.decisions, (cycle, name), (ts, rank), args);
            }
            _ => {}
        }
    }

    /// The decisions of `kind`, in cycle order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = (u64, &'a Logged)> + 'a {
        self.decisions
            .iter()
            .filter(move |((_, k), _)| *k == kind)
            .map(|((cycle, _), d)| (*cycle, d))
    }

    /// Min-folds `ts` into bound `i` (0 begin, 1 end) of a `(cycle, rank)`.
    fn min_bound(&mut self, (cycle, rank): (u64, usize), i: usize, ts: u64) {
        if cycle >= MAX_CYCLES {
            return;
        }
        let cycle = cycle as usize;
        if cycle >= self.cycles.len() {
            self.cycles.resize_with(cycle + 1, Vec::new);
        }
        let row = &mut self.cycles[cycle];
        if rank >= row.len() {
            row.resize(rank + 1, [u64::MAX; 2]);
        }
        row[rank][i] = row[rank][i].min(ts);
    }

    /// `rank`'s wall time in `cycle`, when both bounds are known and in order.
    pub fn cycle_wall_ns(&self, cycle: u64, rank: usize) -> Option<u64> {
        let row = self.cycles.get(usize::try_from(cycle).ok()?)?;
        let &[b, e] = row.get(rank)?;
        (e != u64::MAX && e > b).then(|| e - b)
    }

    /// Every known `(cycle, rank, wall time)`, in `(cycle, rank)` order.
    pub fn cycle_walls(&self) -> impl Iterator<Item = (u64, usize, u64)> + '_ {
        (0u64..).zip(&self.cycles).flat_map(move |(cycle, row)| {
            (0..row.len())
                .filter_map(move |rank| Some((cycle, rank, self.cycle_wall_ns(cycle, rank)?)))
        })
    }
}
