//! Decision audit & causal explanation (DESIGN.md §15).
//!
//! The health monitor (§11) describes *state* and the profiler (§10)
//! describes *time*; this module explains *actions*. From a
//! [`HealthMonitor`]'s decision log and the alerts of its
//! [`HealthReport`], [`ExplainReport::from_monitor`] reconstructs, for
//! every runtime decision, the full causal chain:
//!
//! * **inputs** — the decision's complete argument snapshot (per-node
//!   loads, margins, predicted vs. measured cycle times), taken from the
//!   exact-u64 `*_ns`/`*_ppm` trace attributes the runtime events carry;
//! * **counterfactual** — the predicted makespan-per-cycle had the
//!   decision gone the other way. Both branches of every go/no-go rule
//!   (`should_drop`, the expansion rule) are computed by the runtime from
//!   the same replicated control data, so the not-taken branch is already
//!   in the event: for a drop that happened, keeping the node predicts the
//!   *measured* steady state; for a drop that did not, dropping predicts
//!   the `predicted_unloaded` model value. Deterministic by construction.
//! * **trigger chain** — which health alerts (straggler / interference /
//!   silent), on which nodes, preceded the decision on the virtual
//!   timeline, followed by the upstream runtime events (load-change,
//!   grace-complete, arrival) that carried the episode to the decision;
//! * **realized outcome** — the measured makespan-per-cycle in a window
//!   after the post-decision settling cycles, against the card's
//!   prediction. This generalizes the profiler's per-redistribution
//!   [`CycleAudit`](crate::CycleAudit) to every decision kind.
//!
//! Confirmed deaths additionally produce a **flight record**: detection
//! latency (first Suspect → Confirmed, in cycles and virtual ns), replay
//! cost (rollback depth, restored rows, recovery wall time), the buddy
//! that held the checkpoint, and — when the harness reports it — whether
//! the final checksum survived intact.
//!
//! Determinism contract: the report reads nothing but the monitor's
//! commutative folds — its decision log and its alert windows — so it is
//! a pure function of the event *set*: byte-identical across `--threads`
//! and fast vs. stepped engine modes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use crate::analysis::BlameEntry;
use crate::decision_log::{arg_bool, arg_f64, arg_u64, arg_usize_arr, DecisionLog, Logged};
use crate::health::{Alert, HealthMonitor, HealthReport};
use crate::json::Json;
use crate::trace::{EventSink, TraceEvent};

/// Cycles skipped after a decision before its "after" outcome window
/// starts (control-pipeline lag pollutes them) — mirrors the profiler's
/// audit settle.
pub const EXPLAIN_SETTLE: u64 = 2;

/// Outcome window length in cycles, on each side of a decision — mirrors
/// the profiler's audit window.
pub const EXPLAIN_WINDOW: u64 = 3;

/// Decision kinds that get a card of their own. The remaining runtime
/// events (load-change, grace-complete, arrivals, drops-enacted,
/// suspect/confirm/recover) appear inside cards as chain links or flight
/// records rather than as cards.
const CARD_KINDS: &[&str] = &[
    "redistributed",
    "redist-skipped",
    "drop-evaluated",
    "expand-evaluated",
    "node-rejoined",
];

/// A [`HealthMonitor`] whose report is the explain report. The figures
/// build both reports from one monitor with
/// [`ExplainReport::from_monitor`]; this type stays only for the host-cost
/// benchmark, which subscribes it beside a monitor
/// (`benchmark/src/workloads.rs`) and replays events through it
/// (`benchmark/src/probes.rs`), and goes when that benchmark is next
/// revised.
pub struct ExplainEngine {
    monitor: HealthMonitor,
    checksum_intact: OnceLock<bool>,
}

impl ExplainEngine {
    pub fn new(window_ns: u64) -> Self {
        ExplainEngine {
            monitor: HealthMonitor::new(window_ns),
            checksum_intact: OnceLock::new(),
        }
    }

    pub fn window_ns(&self) -> u64 {
        self.monitor.window_ns()
    }

    /// Harness hook: record whether the run's final checksum matched the
    /// crash-free baseline. Shown on every flight record; the first
    /// verdict stands.
    pub fn set_checksum_intact(&self, intact: bool) {
        let _ = self.checksum_intact.set(intact);
    }

    pub fn report(&self) -> ExplainReport {
        let checksum_intact = self.checksum_intact.get().copied();
        ExplainReport::from_monitor(&self.monitor, &self.monitor.report(), checksum_intact)
    }
}

impl EventSink for ExplainEngine {
    fn on_event(&self, ev: &TraceEvent) {
        self.monitor.on_event(ev);
    }
}

fn decision_link(kind: &str, cycle: u64, ts_ns: u64) -> ChainLink {
    ChainLink::Decision {
        kind: kind.to_string(),
        cycle,
        ts_ns,
    }
}

/// Most recent decision of `kind` at or before `ts`, optionally on a
/// specific node.
fn latest<'a>(
    log: &'a DecisionLog,
    kind: &'a str,
    ts: u64,
    node: Option<usize>,
) -> Option<(u64, &'a Logged)> {
    log.of_kind(kind)
        .filter(|(_, d)| {
            d.ts_ns <= ts && node.is_none_or(|n| arg_u64(&d.args, "node") == Some(n as u64))
        })
        .max_by_key(|(cycle, d)| (d.ts_ns, *cycle))
}

/// Chain link to the [`latest`] decision of `kind`.
fn latest_link(log: &DecisionLog, kind: &str, ts: u64, node: Option<usize>) -> Option<ChainLink> {
    latest(log, kind, ts, node).map(|(cycle, d)| decision_link(kind, cycle, d.ts_ns))
}

/// Alerts preceding `ts` on the implicated nodes (all nodes when none
/// are), latest per (node, rule), in timeline order.
fn triggers_for(alerts: &[&Alert], ts: u64, nodes: &[usize]) -> Vec<ChainLink> {
    let mut latest_alert: BTreeMap<(usize, &'static str), &Alert> = BTreeMap::new();
    for &a in alerts {
        if a.ts_ns <= ts && (nodes.is_empty() || nodes.contains(&a.node)) {
            let e = latest_alert.entry((a.node, a.rule)).or_insert(a);
            if a.ts_ns > e.ts_ns {
                *e = a;
            }
        }
    }
    let mut links: Vec<ChainLink> = latest_alert
        .values()
        .map(|a| ChainLink::Alert {
            rule: a.rule,
            node: a.node,
            state: a.state.name(),
            value: a.value,
            ts_ns: a.ts_ns,
        })
        .collect();
    links.sort_by_key(|a| a.sort_key());
    links
}

/// One card per [`CARD_KINDS`] decision, in timeline order.
fn cards(log: &DecisionLog, alerts: &[&Alert]) -> Vec<DecisionCard> {
    // Per-cycle realized wall time: max (makespan-per-cycle) and mean
    // across ranks reporting both bounds.
    let mut walls: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(cycle, rank) in log.cycles.keys() {
        if let Some(wall) = log.cycle_wall_ns(cycle, rank) {
            walls.entry(cycle).or_default().push(wall);
        }
    }
    let max_wall: BTreeMap<u64, u64> = walls
        .iter()
        .map(|(&c, v)| (c, *v.iter().max().unwrap()))
        .collect();
    let mean_wall: BTreeMap<u64, u64> = walls
        .iter()
        .map(|(&c, v)| {
            let sum: u128 = v.iter().map(|&x| x as u128).sum();
            (c, (sum / v.len() as u128) as u64)
        })
        .collect();
    let window_mean = |map: &BTreeMap<u64, u64>, lo: u64, hi: u64| -> Option<u64> {
        let vals: Vec<u64> = (lo..=hi).filter_map(|c| map.get(&c).copied()).collect();
        (!vals.is_empty()).then(|| {
            let sum: u128 = vals.iter().map(|&x| x as u128).sum();
            (sum / vals.len() as u128) as u64
        })
    };
    let outcome_for = |cycle: u64, predicted: Option<u64>| -> Outcome {
        let before = (cycle > 1)
            .then(|| {
                let lo = cycle.saturating_sub(EXPLAIN_WINDOW).max(1);
                window_mean(&max_wall, lo, cycle - 1)
            })
            .flatten();
        let after = window_mean(
            &max_wall,
            cycle + EXPLAIN_SETTLE,
            cycle + EXPLAIN_SETTLE + EXPLAIN_WINDOW - 1,
        );
        Outcome {
            before_ns: before,
            after_ns: after,
            delta_vs_predicted_ns: match (after, predicted) {
                (Some(a), Some(p)) => Some(a as i64 - p as i64),
                _ => None,
            },
        }
    };

    let mut cards: Vec<DecisionCard> = Vec::new();
    for (&(cycle, kind), d) in &log.decisions {
        if !CARD_KINDS.contains(&kind) {
            continue;
        }
        let ts = d.ts_ns;
        // Implicated nodes, prediction, and counterfactual per kind.
        let mut taken = kind.to_string();
        let mut nodes: Vec<usize> = Vec::new();
        let mut predicted = None;
        let mut counterfactual = None;
        match kind {
            "drop-evaluated" => {
                nodes = arg_usize_arr(&d.args, "loaded").unwrap_or_default();
                let pred_unloaded = arg_u64(&d.args, "predicted_unloaded_ns");
                let measured = arg_u64(&d.args, "measured_max_ns");
                if arg_bool(&d.args, "dropped") == Some(true) {
                    taken = "drop".to_string();
                    predicted = pred_unloaded;
                    counterfactual = measured;
                } else {
                    taken = "keep".to_string();
                    predicted = measured;
                    counterfactual = pred_unloaded;
                }
            }
            "expand-evaluated" => {
                nodes = arg_u64(&d.args, "node")
                    .map(|n| n as usize)
                    .into_iter()
                    .collect();
                let pred_with = arg_u64(&d.args, "predicted_with_ns");
                let measured = arg_u64(&d.args, "measured_max_ns");
                if arg_bool(&d.args, "admitted") == Some(true) {
                    taken = "admit".to_string();
                    predicted = pred_with;
                    counterfactual = measured;
                } else {
                    taken = "reject".to_string();
                    predicted = measured;
                    counterfactual = pred_with;
                }
            }
            "redistributed" | "redist-skipped" => {
                taken = if kind == "redistributed" {
                    "redistribute".to_string()
                } else {
                    "skip".to_string()
                };
                // Implicated: the loaded nodes of the episode's load
                // vector (the most recent load-change broadcast).
                if let Some((_, lc)) = latest(log, "load-change", ts, None) {
                    nodes = arg_usize_arr(&lc.args, "loads")
                        .unwrap_or_default()
                        .iter()
                        .enumerate()
                        .filter(|(_, &l)| l > 0)
                        .map(|(n, _)| n)
                        .collect();
                }
                // The balancer predicts a post-balance *imbalance*;
                // scaled by the pre-move mean cycle time it becomes a
                // predicted makespan-per-cycle. Skipping keeps the
                // measured status quo — that is the counterfactual
                // (and the prediction, when the move was skipped).
                let lo = cycle.saturating_sub(EXPLAIN_WINDOW).max(1);
                let before_mean = (cycle > 1)
                    .then(|| window_mean(&mean_wall, lo, cycle - 1))
                    .flatten();
                let before_max = (cycle > 1)
                    .then(|| window_mean(&max_wall, lo, cycle - 1))
                    .flatten();
                let pred = log
                    .balances
                    .get(&cycle)
                    .and_then(|b| arg_f64(&b.args, "predicted_imbalance"));
                let balanced = match (before_mean, pred) {
                    (Some(mean), Some(pred)) if pred.is_finite() && pred > 0.0 => {
                        Some((mean as f64 * pred).round() as u64)
                    }
                    _ => None,
                };
                if kind == "redistributed" {
                    predicted = balanced;
                    counterfactual = before_max;
                } else {
                    predicted = before_max;
                    counterfactual = balanced;
                }
            }
            "node-rejoined" => {
                taken = "rejoin".to_string();
                nodes = arg_u64(&d.args, "node")
                    .map(|n| n as usize)
                    .into_iter()
                    .collect();
            }
            _ => {}
        }

        // Chain: alerts, then the upstream runtime events, then the
        // decision itself, then its enactment (if any).
        let mut chain = triggers_for(alerts, ts, &nodes);
        match kind {
            "redistributed" | "redist-skipped" | "drop-evaluated" => {
                chain.extend(latest_link(log, "load-change", ts, None));
                chain.extend(latest_link(log, "grace-complete", ts, None));
            }
            "expand-evaluated" => {
                chain.extend(latest_link(log, "node-arrived", ts, nodes.first().copied()));
                chain.extend(latest_link(log, "grace-complete", ts, None));
            }
            _ => {}
        }
        chain.push(decision_link(kind, cycle, ts));
        let enact_kind = match (kind, taken.as_str()) {
            ("drop-evaluated", "drop") => Some("nodes-dropped"),
            ("expand-evaluated", "admit") => Some("node-admitted"),
            _ => None,
        };
        if let Some(ek) = enact_kind {
            if let Some(e) = log.decisions.get(&(cycle, ek)) {
                chain.push(decision_link(ek, cycle, e.ts_ns));
            }
        }

        cards.push(DecisionCard {
            kind: kind.to_string(),
            cycle,
            ts_ns: ts,
            taken,
            nodes,
            inputs: d
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            predicted_ns: predicted,
            counterfactual_ns: counterfactual,
            outcome: outcome_for(cycle, predicted),
            chain,
        });
    }
    cards.sort_by(|a, b| (a.ts_ns, a.cycle, &a.kind).cmp(&(b.ts_ns, b.cycle, &b.kind)));
    cards
}

/// One flight record per confirmed death, in timeline order.
fn flights(
    log: &DecisionLog,
    alerts: &[&Alert],
    checksum_intact: Option<bool>,
) -> Vec<FlightRecord> {
    let mut flights: Vec<FlightRecord> = Vec::new();
    for (cycle, d) in log.of_kind("node-confirmed-dead") {
        let ts = d.ts_ns;
        let Some(node) = arg_u64(&d.args, "node").map(|n| n as usize) else {
            continue;
        };
        let silent_cycles = arg_u64(&d.args, "silent_cycles").unwrap_or(0) as u32;
        // First Suspect of the streak that ended in this confirmation.
        let streak_lo = cycle.saturating_sub(u64::from(silent_cycles).saturating_sub(1));
        let suspected_ts = log
            .suspects
            .iter()
            .filter(|(&(c, n), &sts)| n == node && c >= streak_lo && c <= cycle && sts <= ts)
            .map(|(_, &sts)| sts)
            .min()
            .unwrap_or(ts);
        let recovered = log.decisions.get(&(cycle, "node-recovered"));
        let mut chain = triggers_for(alerts, ts, &[node]);
        if let Some(&sts) = log.suspects.get(&(streak_lo, node)) {
            chain.push(decision_link("node-suspected", streak_lo, sts));
        }
        chain.push(decision_link("node-confirmed-dead", cycle, ts));
        if let Some(r) = recovered {
            chain.push(decision_link("node-recovered", cycle, r.ts_ns));
        }
        let rollback_to = recovered.and_then(|r| arg_u64(&r.args, "rollback_to"));
        flights.push(FlightRecord {
            node,
            confirmed_cycle: cycle,
            confirmed_ts_ns: ts,
            suspected_ts_ns: suspected_ts,
            detection_ns: ts - suspected_ts,
            silent_cycles,
            rollback_to,
            replay_cycles: rollback_to.map(|rb| cycle.saturating_sub(rb)),
            restored_rows: recovered.and_then(|r| arg_u64(&r.args, "restored_rows")),
            holder: recovered
                .and_then(|r| arg_u64(&r.args, "holder"))
                .map(|h| h as usize),
            recovery_ns: recovered.map(|r| r.ts_ns.saturating_sub(ts)),
            checksum_intact,
            chain,
        });
    }
    flights.sort_by_key(|f| (f.confirmed_ts_ns, f.node));
    flights
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One link in a card's causal chain, in timeline order.
#[derive(Clone, Debug, PartialEq)]
pub enum ChainLink {
    /// A health alert that preceded (and is implicated in) the decision.
    Alert {
        rule: &'static str,
        node: usize,
        state: &'static str,
        value: f64,
        ts_ns: u64,
    },
    /// A runtime event on the path to (or enacting) the decision.
    Decision {
        kind: String,
        cycle: u64,
        ts_ns: u64,
    },
}

impl ChainLink {
    pub fn ts_ns(&self) -> u64 {
        match self {
            ChainLink::Alert { ts_ns, .. } | ChainLink::Decision { ts_ns, .. } => *ts_ns,
        }
    }

    fn sort_key(&self) -> (u64, usize, String) {
        match self {
            ChainLink::Alert {
                ts_ns, node, rule, ..
            } => (*ts_ns, *node, (*rule).to_string()),
            ChainLink::Decision { ts_ns, kind, .. } => (*ts_ns, usize::MAX, kind.clone()),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            ChainLink::Alert {
                rule,
                node,
                state,
                value,
                ts_ns,
            } => Json::obj([
                ("type", Json::str("alert")),
                ("rule", Json::str(*rule)),
                ("node", Json::UInt(*node as u64)),
                ("state", Json::str(*state)),
                ("value", Json::Num(*value)),
                ("ts_ns", Json::UInt(*ts_ns)),
            ]),
            ChainLink::Decision { kind, cycle, ts_ns } => Json::obj([
                ("type", Json::str("decision")),
                ("kind", Json::str(kind.clone())),
                ("cycle", Json::UInt(*cycle)),
                ("ts_ns", Json::UInt(*ts_ns)),
            ]),
        }
    }
}

/// Realized outcome around a decision: measured makespan-per-cycle before
/// it and after the settling window, and the delta against the card's
/// prediction (positive: slower than predicted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub before_ns: Option<u64>,
    pub after_ns: Option<u64>,
    pub delta_vs_predicted_ns: Option<i64>,
}

/// One decision card: inputs, counterfactual, trigger chain, outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionCard {
    /// The runtime event kind (`drop-evaluated`, `redistributed`, ...).
    pub kind: String,
    pub cycle: u64,
    pub ts_ns: u64,
    /// What the runtime chose: `drop`/`keep`, `admit`/`reject`,
    /// `redistribute`/`skip`, `rejoin`.
    pub taken: String,
    /// Nodes implicated in the decision (loaded nodes for drop and
    /// redistribution episodes, the candidate for expansion/rejoin).
    pub nodes: Vec<usize>,
    /// The decision instant's complete argument snapshot.
    pub inputs: Vec<(String, Json)>,
    /// Predicted makespan-per-cycle of the branch actually taken.
    pub predicted_ns: Option<u64>,
    /// Predicted makespan-per-cycle had the decision gone the other way.
    pub counterfactual_ns: Option<u64>,
    pub outcome: Outcome,
    /// Causal chain: alerts → upstream events → decision → enactment.
    pub chain: Vec<ChainLink>,
}

/// Post-mortem for one confirmed death (DESIGN.md §14 fault path).
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecord {
    pub node: usize,
    pub confirmed_cycle: u64,
    pub confirmed_ts_ns: u64,
    /// First Suspect instant of the streak that confirmed.
    pub suspected_ts_ns: u64,
    /// Virtual time from first Suspect to Confirmed.
    pub detection_ns: u64,
    /// Silent control cycles the sustain rule counted.
    pub silent_cycles: u32,
    pub rollback_to: Option<u64>,
    /// Cycles replayed: confirmation cycle minus the rollback stamp.
    pub replay_cycles: Option<u64>,
    pub restored_rows: Option<u64>,
    /// Buddy (world rank) whose mirror restored the dead node's rows.
    pub holder: Option<usize>,
    /// Virtual time from Confirmed to recovery complete.
    pub recovery_ns: Option<u64>,
    /// Harness verdict: final checksum matched the crash-free baseline.
    pub checksum_intact: Option<bool>,
    pub chain: Vec<ChainLink>,
}

/// The engine's full output.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainReport {
    pub window_ns: u64,
    /// Decision cards in timeline order.
    pub cards: Vec<DecisionCard>,
    /// One flight record per confirmed death, in timeline order.
    pub flights: Vec<FlightRecord>,
}

fn opt_u64(fields: &mut Vec<(String, Json)>, key: &str, v: Option<u64>) {
    if let Some(x) = v {
        fields.push((key.to_string(), Json::UInt(x)));
    }
}

impl ExplainReport {
    /// Assembles the report from what `monitor` folded: its decision log
    /// and the alerts of `health`, the report that same monitor gave.
    /// `checksum_intact` is the harness's post-run verdict — did the final
    /// checksum match the crash-free baseline? — shown on every flight
    /// record.
    pub fn from_monitor(
        monitor: &HealthMonitor,
        health: &HealthReport,
        checksum_intact: Option<bool>,
    ) -> ExplainReport {
        let alerts = health.alerts();
        let window_ns = monitor.window_ns();
        monitor.with_log(|log| ExplainReport {
            window_ns,
            cards: cards(log, &alerts),
            flights: flights(log, &alerts, checksum_intact),
        })
    }

    /// JSONL: a header object (schema tag + the critical-path blame
    /// table), then one object per decision card, then one per flight
    /// record. `blame` comes from the profiler
    /// ([`ProfileReport::blame`](crate::ProfileReport)); pass `&[]` when
    /// no profile was computed.
    pub fn to_jsonl(&self, blame: &[BlameEntry]) -> String {
        let mut out = String::new();
        let header = Json::obj([
            ("explain", Json::str("v1")),
            ("window_ns", Json::UInt(self.window_ns)),
            ("cards", Json::UInt(self.cards.len() as u64)),
            ("flights", Json::UInt(self.flights.len() as u64)),
            (
                "blame",
                Json::Arr(
                    blame
                        .iter()
                        .take(8)
                        .map(|b| {
                            Json::obj([
                                ("node", Json::UInt(b.node as u64)),
                                ("cause", Json::str(b.cause)),
                                ("ns", Json::UInt(b.ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
        for c in &self.cards {
            let mut fields = vec![
                ("card".to_string(), Json::str("decision")),
                ("kind".to_string(), Json::str(c.kind.clone())),
                ("cycle".to_string(), Json::UInt(c.cycle)),
                ("ts_ns".to_string(), Json::UInt(c.ts_ns)),
                ("taken".to_string(), Json::str(c.taken.clone())),
                (
                    "nodes".to_string(),
                    Json::Arr(c.nodes.iter().map(|&n| Json::UInt(n as u64)).collect()),
                ),
                ("inputs".to_string(), Json::Obj(c.inputs.clone())),
            ];
            opt_u64(&mut fields, "predicted_ns", c.predicted_ns);
            opt_u64(&mut fields, "counterfactual_ns", c.counterfactual_ns);
            let mut outcome = Vec::new();
            opt_u64(&mut outcome, "before_ns", c.outcome.before_ns);
            opt_u64(&mut outcome, "after_ns", c.outcome.after_ns);
            if let Some(d) = c.outcome.delta_vs_predicted_ns {
                outcome.push(("delta_vs_predicted_ns".to_string(), Json::Num(d as f64)));
            }
            fields.push(("outcome".to_string(), Json::Obj(outcome)));
            fields.push((
                "chain".to_string(),
                Json::Arr(c.chain.iter().map(ChainLink::to_json).collect()),
            ));
            // Card-local blame reference: the culprit rows for the
            // implicated nodes, from the same table as the header.
            fields.push((
                "blame".to_string(),
                Json::Arr(
                    blame
                        .iter()
                        .filter(|b| c.nodes.contains(&b.node))
                        .take(4)
                        .map(|b| {
                            Json::obj([
                                ("node", Json::UInt(b.node as u64)),
                                ("cause", Json::str(b.cause)),
                                ("ns", Json::UInt(b.ns)),
                            ])
                        })
                        .collect(),
                ),
            ));
            out.push_str(&Json::Obj(fields).to_string());
            out.push('\n');
        }
        for f in &self.flights {
            let mut fields = vec![
                ("card".to_string(), Json::str("flight-record")),
                ("node".to_string(), Json::UInt(f.node as u64)),
                ("confirmed_cycle".to_string(), Json::UInt(f.confirmed_cycle)),
                ("confirmed_ts_ns".to_string(), Json::UInt(f.confirmed_ts_ns)),
                ("suspected_ts_ns".to_string(), Json::UInt(f.suspected_ts_ns)),
                ("detection_ns".to_string(), Json::UInt(f.detection_ns)),
                (
                    "silent_cycles".to_string(),
                    Json::UInt(u64::from(f.silent_cycles)),
                ),
            ];
            opt_u64(&mut fields, "rollback_to", f.rollback_to);
            opt_u64(&mut fields, "replay_cycles", f.replay_cycles);
            opt_u64(&mut fields, "restored_rows", f.restored_rows);
            opt_u64(&mut fields, "holder", f.holder.map(|h| h as u64));
            opt_u64(&mut fields, "recovery_ns", f.recovery_ns);
            if let Some(ok) = f.checksum_intact {
                fields.push(("checksum_intact".to_string(), Json::Bool(ok)));
            }
            fields.push((
                "chain".to_string(),
                Json::Arr(f.chain.iter().map(ChainLink::to_json).collect()),
            ));
            out.push_str(&Json::Obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable report: blame table, decision cards with their
    /// causal chains and counterfactuals, flight records.
    pub fn render_text(&self, blame: &[BlameEntry]) -> String {
        let secs = |ns: u64| ns as f64 / 1e9;
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Explain: {} decision card(s), {} flight record(s), window {}ms ==",
            self.cards.len(),
            self.flights.len(),
            self.window_ns / 1_000_000
        );
        if !blame.is_empty() {
            let total: u64 = blame.iter().map(|b| b.ns).sum();
            let _ = writeln!(out, "critical-path blame (top culprits):");
            for b in blame.iter().take(8) {
                let _ = writeln!(
                    out,
                    "  node {:>3}  {:<12} {:>10.6}s  ({:.1}%)",
                    b.node,
                    b.cause,
                    secs(b.ns),
                    if total == 0 {
                        0.0
                    } else {
                        100.0 * b.ns as f64 / total as f64
                    },
                );
            }
        }
        for c in &self.cards {
            let _ = writeln!(
                out,
                "\n[{}] cycle {} @{:.3}s — took `{}` on node(s) {:?}",
                c.kind,
                c.cycle,
                secs(c.ts_ns),
                c.taken,
                c.nodes
            );
            for link in &c.chain {
                match link {
                    ChainLink::Alert {
                        rule,
                        node,
                        state,
                        value,
                        ts_ns,
                    } => {
                        let _ = writeln!(
                            out,
                            "    alert    {rule} node {node} ({state}) value {value:.2} @{:.3}s",
                            secs(*ts_ns)
                        );
                    }
                    ChainLink::Decision { kind, cycle, ts_ns } => {
                        let _ = writeln!(
                            out,
                            "    event    {kind} cycle {cycle} @{:.3}s",
                            secs(*ts_ns)
                        );
                    }
                }
            }
            if let (Some(p), Some(cf)) = (c.predicted_ns, c.counterfactual_ns) {
                let _ = writeln!(
                    out,
                    "    predicted {:.3}ms/cycle; counterfactual (other branch) {:.3}ms/cycle",
                    ms(p),
                    ms(cf)
                );
            }
            if let Some(a) = c.outcome.after_ns {
                let _ = write!(out, "    realized {:.3}ms/cycle", ms(a));
                if let Some(b) = c.outcome.before_ns {
                    let _ = write!(out, " (was {:.3}ms)", ms(b));
                }
                if let Some(d) = c.outcome.delta_vs_predicted_ns {
                    let _ = write!(out, ", {:+.3}ms vs predicted", d as f64 / 1e6);
                }
                out.push('\n');
            }
        }
        for f in &self.flights {
            let _ = writeln!(
                out,
                "\n[flight-record] node {} confirmed dead at cycle {} @{:.3}s",
                f.node,
                f.confirmed_cycle,
                secs(f.confirmed_ts_ns)
            );
            let _ = writeln!(
                out,
                "    detection: {:.3}ms ({} silent cycles from first suspect @{:.3}s)",
                ms(f.detection_ns),
                f.silent_cycles,
                secs(f.suspected_ts_ns)
            );
            if let (Some(rb), Some(replay)) = (f.rollback_to, f.replay_cycles) {
                let _ = writeln!(
                    out,
                    "    replay: {} cycle(s) back to {}, {} row(s) restored from buddy {}{}",
                    replay,
                    rb,
                    f.restored_rows.unwrap_or(0),
                    f.holder.map_or("?".to_string(), |h| h.to_string()),
                    f.recovery_ns
                        .map(|r| format!(", recovery {:.3}ms", ms(r)))
                        .unwrap_or_default()
                );
            }
            if let Some(ok) = f.checksum_intact {
                let _ = writeln!(
                    out,
                    "    checksum: {}",
                    if ok { "intact" } else { "MISMATCH" }
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(
        kind: &'static str,
        rank: usize,
        ts: u64,
        mut args: Vec<(&'static str, Json)>,
    ) -> TraceEvent {
        args.insert(0, ("cycle", Json::UInt(10)));
        TraceEvent::Instant {
            cat: "runtime",
            name: kind,
            rank,
            ts_ns: ts,
            args,
        }
    }

    fn cycle_bounds(engine: &ExplainEngine, cycle: u64, rank: usize, b: u64, e: u64) {
        engine.on_event(&TraceEvent::Instant {
            cat: "runtime",
            name: "begin_cycle",
            rank,
            ts_ns: b,
            args: vec![("cycle", Json::UInt(cycle))],
        });
        engine.on_event(&TraceEvent::Complete {
            cat: "runtime",
            name: "end_cycle",
            rank,
            ts_ns: e,
            dur_ns: 0,
            args: vec![("cycle", Json::UInt(cycle))],
        });
    }

    fn u(k: &'static str, v: u64) -> (&'static str, Json) {
        (k, Json::UInt(v))
    }

    #[test]
    fn drop_card_carries_counterfactual_and_outcome() {
        let engine = ExplainEngine::new(100);
        // Cycles 7..9 run at 200ns, 12..14 at 100ns: the drop paid off.
        for c in 7..=9u64 {
            cycle_bounds(&engine, c, 0, c * 1000, c * 1000 + 200);
        }
        for c in 12..=14u64 {
            cycle_bounds(&engine, c, 0, c * 1000, c * 1000 + 100);
        }
        engine.on_event(&decision(
            "drop-evaluated",
            0,
            9_500,
            vec![
                u("predicted_unloaded_ns", 110),
                u("measured_max_ns", 200),
                u("margin_ppm", 1_000_000),
                ("loaded", Json::Arr(vec![Json::UInt(1)])),
                ("dropped", Json::Bool(true)),
            ],
        ));
        let report = engine.report();
        assert_eq!(report.cards.len(), 1);
        let card = &report.cards[0];
        assert_eq!(card.taken, "drop");
        assert_eq!(card.nodes, vec![1]);
        assert_eq!(card.predicted_ns, Some(110));
        assert_eq!(card.counterfactual_ns, Some(200));
        assert_eq!(card.outcome.before_ns, Some(200));
        assert_eq!(card.outcome.after_ns, Some(100));
        assert_eq!(card.outcome.delta_vs_predicted_ns, Some(-10));
        assert!(matches!(
            card.chain.last(),
            Some(ChainLink::Decision { kind, .. }) if kind == "drop-evaluated"
        ));
    }

    #[test]
    fn report_is_order_independent() {
        let mk = |order_rev: bool| {
            let engine = ExplainEngine::new(100);
            let mut evs = vec![
                decision(
                    "load-change",
                    0,
                    8_000,
                    vec![("loads", Json::Arr(vec![Json::UInt(0), Json::UInt(2)]))],
                ),
                decision("redistributed", 1, 9_010, vec![u("seconds_ns", 500)]),
                decision("redistributed", 0, 9_000, vec![u("seconds_ns", 500)]),
                decision("grace-complete", 0, 8_500, vec![]),
            ];
            if order_rev {
                evs.reverse();
            }
            for e in &evs {
                engine.on_event(e);
            }
            cycle_bounds(&engine, 8, 0, 8_000, 8_200);
            cycle_bounds(&engine, 8, 1, 8_000, 8_300);
            let r = engine.report();
            r.to_jsonl(&[])
        };
        assert_eq!(mk(false), mk(true));
        // Min-ts dedup: the card carries the earliest rank's timestamp,
        // and the implicated nodes come from the load-change broadcast
        // (load-change itself appears in the chain, not as a card).
        let engine = ExplainEngine::new(100);
        engine.on_event(&decision(
            "load-change",
            0,
            8_000,
            vec![("loads", Json::Arr(vec![Json::UInt(0), Json::UInt(2)]))],
        ));
        engine.on_event(&decision("redistributed", 1, 9_010, vec![]));
        engine.on_event(&decision("redistributed", 0, 9_000, vec![]));
        let r = engine.report();
        assert_eq!(r.cards.len(), 1);
        let card = &r.cards[0];
        assert_eq!(card.ts_ns, 9_000);
        assert_eq!(card.taken, "redistribute");
        assert_eq!(card.nodes, vec![1]); // only index 1 has load > 0
        assert!(card
            .chain
            .iter()
            .any(|l| matches!(l, ChainLink::Decision { kind, .. } if kind == "load-change")));
    }

    #[test]
    fn flight_record_links_suspects_and_recovery() {
        let engine = ExplainEngine::new(100);
        for (c, ts) in [(8u64, 800u64), (9, 900), (10, 1_000)] {
            engine.on_event(&TraceEvent::Instant {
                cat: "runtime",
                name: "node-suspected",
                rank: 0,
                ts_ns: ts,
                args: vec![u("cycle", c), u("node", 2), u("silent_cycles", c - 7)],
            });
        }
        engine.on_event(&decision(
            "node-confirmed-dead",
            0,
            1_050,
            vec![u("node", 2), u("silent_cycles", 3)],
        ));
        engine.on_event(&decision(
            "node-recovered",
            0,
            1_400,
            vec![
                u("node", 2),
                u("rollback_to", 6),
                u("restored_rows", 48),
                u("holder", 3),
            ],
        ));
        engine.set_checksum_intact(true);
        let report = engine.report();
        assert_eq!(report.flights.len(), 1);
        let f = &report.flights[0];
        assert_eq!(f.node, 2);
        assert_eq!(f.confirmed_cycle, 10);
        assert_eq!(f.suspected_ts_ns, 800);
        assert_eq!(f.detection_ns, 250);
        assert_eq!(f.silent_cycles, 3);
        assert_eq!(f.rollback_to, Some(6));
        assert_eq!(f.replay_cycles, Some(4));
        assert_eq!(f.restored_rows, Some(48));
        assert_eq!(f.holder, Some(3));
        assert_eq!(f.recovery_ns, Some(350));
        assert_eq!(f.checksum_intact, Some(true));
        let jsonl = report.to_jsonl(&[]);
        assert!(jsonl.contains("\"checksum_intact\":true"));
        assert!(jsonl.contains("\"card\":\"flight-record\""));
        let text = report.render_text(&[]);
        assert!(text.contains("flight-record"));
        assert!(text.contains("checksum: intact"));
    }
}
