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
    /// `(cycle, rank)` → earliest `begin_cycle` instant and earliest
    /// `end_cycle` span end, `u64::MAX` until seen. A cycle replayed after
    /// a rollback keeps its first, pre-crash bounds.
    pub cycles: BTreeMap<(u64, usize), [u64; 2]>,
}

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
        let (TraceEvent::Complete { args, .. } | TraceEvent::Instant { args, .. }) = ev;
        if ev.cat() != "runtime" {
            return;
        }
        let Some(cycle) = arg_u64(args, "cycle") else {
            return;
        };
        let (name, rank, ts) = (ev.name(), ev.rank(), ev.ts_ns());
        match (ev, name) {
            (TraceEvent::Complete { dur_ns, .. }, "balance") => {
                keep_earliest(&mut self.balances, cycle, (ts + dur_ns, rank), args)
            }
            (TraceEvent::Complete { dur_ns, .. }, "end_cycle") => {
                self.min_bound((cycle, rank), 1, ts + dur_ns)
            }
            (TraceEvent::Complete { .. }, _) => {}
            (TraceEvent::Instant { .. }, "begin_cycle") => self.min_bound((cycle, rank), 0, ts),
            (TraceEvent::Instant { .. }, _) => {
                if name == "node-suspected" {
                    if let Some(node) = arg_u64(args, "node") {
                        let first = self.suspects.entry((cycle, node as usize)).or_insert(ts);
                        *first = (*first).min(ts);
                    }
                }
                keep_earliest(&mut self.decisions, (cycle, name), (ts, rank), args);
            }
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
    fn min_bound(&mut self, key: (u64, usize), i: usize, ts: u64) {
        let bound = &mut self.cycles.entry(key).or_insert([u64::MAX; 2])[i];
        *bound = (*bound).min(ts);
    }

    /// `rank`'s wall time in `cycle`, when both bounds are known and in order.
    pub fn cycle_wall_ns(&self, cycle: u64, rank: usize) -> Option<u64> {
        let &[b, e] = self.cycles.get(&(cycle, rank))?;
        (e != u64::MAX && e > b).then(|| e - b)
    }
}
