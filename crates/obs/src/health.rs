//! Online health monitoring: streaming per-node statistics, declarative
//! alert rules, and live classification (DESIGN.md §11).
//!
//! A [`HealthMonitor`] subscribes to a [`Recorder`](crate::Recorder) as an
//! [`EventSink`] and folds trace events into fixed-width **virtual-time
//! windows** *as they are emitted* — no post-run parse. Everything it keeps
//! per `(window, node)` is a commutative fold (u64 sums assigned by event
//! timestamp, booleans OR-ed, min-timestamps), so the final report is a
//! pure function of the event *set*: byte-identical output regardless of
//! cross-thread arrival order, sweep thread count, or fast vs. stepped
//! engine mode.
//!
//! Mode-invariance discipline: window statistics are derived only from
//! events whose shape is identical between the fast-forward and stepped
//! engines — `runtime` spans (`charge_rows`/`grace_measure` with exact
//! integer `cpu_ns`/`work_uflop` attributes, `balance` with the predicted
//! imbalance), `sched/blocked` spans, `comm` instants (with the receiver's
//! locally computed `late_ns`/`net_ns` wait split), and `runtime` decision
//! instants. Non-blocked `sched` spans differ in *aggregation* between the
//! two modes (one fast-forwarded span covers many stepped slices), so they
//! contribute only interval-coverage (an OR) and watermarks (a max), both
//! invariant under aggregation. Spans that straddle window boundaries are
//! split exactly: wall overlap per window, and integer attributes by
//! cumulative rounding so per-window shares always sum to the attribute.
//!
//! The alert engine evaluates declarative [`AlertRule`]s — metric,
//! comparison, threshold, sustained-for-N-windows — per node per window,
//! classifying each node [`HealthState::Healthy`] / `Degraded` /
//! `Straggler` / `SuspectDead`. Alerts are stamped with the **virtual**
//! end time of the window that tripped them, which puts them on the same
//! timeline as the runtime's adaptation decisions (also collected here),
//! so "the monitor saw the straggler before the balancer acted" is a
//! plain timestamp comparison.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::decision_log::{arg_f64, arg_u64, arg_usize_arr, DecisionLog};
use crate::json::Json;
use crate::trace::{EventSink, TraceEvent, MAX_RANKS};

/// Default sliding-window width: 20 virtual milliseconds. Small enough
/// that a sustained-2-windows rule trips inside one grace period of the
/// quick-mode fig4 scenario; large enough to smooth per-cycle jitter.
pub const DEFAULT_WINDOW_NS: u64 = 20_000_000;

/// Node classification, in increasing severity (the `Ord` the rule engine
/// uses when several rules are active at once).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    Healthy,
    /// Losing cycles to interference or backlog, but keeping up.
    Degraded,
    /// Effective compute rate well below the cluster median.
    Straggler,
    /// Emitting nothing while the rest of the cluster makes progress.
    SuspectDead,
}

impl HealthState {
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Straggler => "straggler",
            HealthState::SuspectDead => "suspect-dead",
        }
    }
}

/// What a rule measures, per node per window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleMetric {
    /// `(busy - cpu) / busy`: the share of compute wall time lost to
    /// competing processes. No value when the node did not compute.
    InterferenceShare,
    /// Late-sender wait in the window over the window width.
    LateWaitShare,
    /// Node's effective flop rate *while computing* (`work / busy`)
    /// relative to the cluster median. No value when the median is
    /// undefined (nobody computed).
    RelativeFlopRate,
    /// Outstanding messages destined to this node at the window's end.
    QueueDepth,
    /// Consecutive windows with no events from this node while the rest
    /// of the cluster is active.
    SilentWindows,
}

/// Comparison direction for a rule's threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleOp {
    Above,
    Below,
}

/// One declarative alert rule: `metric OP threshold`, held for `sustain`
/// consecutive windows, classifies the node as `classify`.
///
/// Windows where the metric has no value (e.g. interference share on a
/// window without compute) neither extend nor reset the streak — a
/// straggler does not become healthy by idling through a redistribution.
#[derive(Clone, Debug)]
pub struct AlertRule {
    pub name: &'static str,
    pub metric: RuleMetric,
    pub op: RuleOp,
    pub threshold: f64,
    /// Consecutive windows the comparison must hold before the rule fires.
    pub sustain: u32,
    pub classify: HealthState,
}

impl AlertRule {
    fn hit(&self, value: f64) -> bool {
        match self.op {
            RuleOp::Above => value > self.threshold,
            RuleOp::Below => value < self.threshold,
        }
    }
}

/// The default rule set: interference and receive backlog degrade a node,
/// a relative compute-rate collapse marks a straggler, and prolonged
/// silence marks it suspect-dead.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "interference",
            metric: RuleMetric::InterferenceShare,
            op: RuleOp::Above,
            threshold: 0.20,
            sustain: 2,
            classify: HealthState::Degraded,
        },
        AlertRule {
            name: "late-waits",
            metric: RuleMetric::LateWaitShare,
            op: RuleOp::Above,
            threshold: 0.40,
            sustain: 3,
            classify: HealthState::Degraded,
        },
        AlertRule {
            name: "backlog",
            metric: RuleMetric::QueueDepth,
            op: RuleOp::Above,
            threshold: 64.0,
            sustain: 2,
            classify: HealthState::Degraded,
        },
        AlertRule {
            name: "straggler",
            metric: RuleMetric::RelativeFlopRate,
            op: RuleOp::Below,
            threshold: 0.70,
            sustain: 2,
            classify: HealthState::Straggler,
        },
        AlertRule {
            name: "silent",
            metric: RuleMetric::SilentWindows,
            op: RuleOp::Above,
            threshold: 2.5,
            sustain: 1,
            classify: HealthState::SuspectDead,
        },
    ]
}

/// Per-(window, node) accumulated facts. Every field is a commutative
/// fold, which is what makes the monitor's output order-independent.
#[derive(Clone, Debug, Default, PartialEq)]
struct NodeWindow {
    /// Wall nanoseconds inside `charge_rows`/`grace_measure` spans
    /// (exact interval overlap with the window).
    busy_ns: u64,
    /// Exact CPU nanoseconds consumed by those spans (cumulative-rounded
    /// split across windows; per-window shares sum to the span total).
    cpu_ns: u64,
    /// Micro-flops of application work charged (same split).
    work_uflop: u64,
    /// Wall nanoseconds blocked at receives (`sched/blocked` overlap).
    wait_ns: u64,
    /// Late-sender share of resolved waits, attributed at recv time.
    late_ns: u64,
    /// Network-flight share of resolved waits.
    net_ns: u64,
    /// Messages sent *to* this node (from the senders' `comm/send`).
    sends_to: u64,
    /// Messages received *by* this node (`comm/recv`).
    recvs_by: u64,
    /// Did this node emit or cover any event in the window?
    active: bool,
}

/// Runtime decision instants the monitor mirrors onto the health timeline.
const DECISION_KINDS: &[&str] = &[
    "load-change",
    "grace-complete",
    "redistributed",
    "redist-skipped",
    "drop-evaluated",
    "nodes-dropped",
    "node-rejoined",
    "node-arrived",
    "expand-evaluated",
    "node-admitted",
    "node-suspected",
    "node-confirmed-dead",
    "node-recovered",
];

#[derive(Default)]
struct MonitorInner {
    /// Highest rank seen + 1.
    nodes: usize,
    /// Window index → per-node facts (vector grows with `nodes`).
    windows: BTreeMap<u64, Vec<NodeWindow>>,
    /// The runtime's decisions, one record each: the load vectors, the
    /// balancer's predictions and the removal timeline come from here.
    log: DecisionLog,
    /// Per-rank high watermark: max event end seen (live progress only —
    /// report *content* never depends on it).
    watermark: Vec<u64>,
    /// Ranks whose scope flushed (finished).
    flushed: BTreeSet<usize>,
}

impl MonitorInner {
    /// Grows the per-node tables to hold `rank`; `false` (and no growth)
    /// for an index at or above [`MAX_RANKS`], which the caller ignores.
    fn note_rank(&mut self, rank: usize) -> bool {
        if rank >= MAX_RANKS {
            return false;
        }
        if rank >= self.nodes {
            self.nodes = rank + 1;
        }
        if rank >= self.watermark.len() {
            self.watermark.resize(rank + 1, 0);
        }
        true
    }

    fn window_mut(&mut self, widx: u64, rank: usize) -> &mut NodeWindow {
        let nodes = self.nodes;
        let v = self.windows.entry(widx).or_default();
        if v.len() < nodes {
            v.resize(nodes, NodeWindow::default());
        }
        &mut v[rank]
    }
}

/// The streaming health monitor. Create one, [`subscribe`](crate::Recorder::subscribe)
/// it to the run's recorder, then pull [`report`](HealthMonitor::report)s —
/// live (the `--watch` dashboard re-renders it while ranks still run) or
/// once at the end for the `--health-out` JSONL.
pub struct HealthMonitor {
    window_ns: u64,
    rules: Vec<AlertRule>,
    inner: Mutex<MonitorInner>,
}

impl HealthMonitor {
    /// Monitor with the given window width and the [`default_rules`].
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window width must be positive");
        HealthMonitor {
            window_ns,
            rules: default_rules(),
            inner: Mutex::new(MonitorInner::default()),
        }
    }

    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, MonitorInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` over the decisions folded so far.
    pub(crate) fn with_log<T>(&self, f: impl FnOnce(&DecisionLog) -> T) -> T {
        f(&self.locked().log)
    }

    /// Mark every window overlapping `[ts, ts+dur)` active for `rank`.
    /// (OR-fold: invariant under span aggregation, since fast and stepped
    /// sched spans tile the same intervals.)
    fn mark_active(&self, m: &mut MonitorInner, rank: usize, ts: u64, dur: u64) {
        let w = self.window_ns;
        let (first_w, last_w) = (ts / w, if dur == 0 { ts / w } else { (ts + dur - 1) / w });
        for widx in first_w..=last_w {
            m.window_mut(widx, rank).active = true;
        }
    }

    /// Add the exact overlap of `[ts, ts+dur)` with each window to the
    /// field selected by `f`.
    fn add_overlap(
        &self,
        m: &mut MonitorInner,
        rank: usize,
        ts: u64,
        dur: u64,
        f: impl Fn(&mut NodeWindow, u64),
    ) {
        let w = self.window_ns;
        if dur == 0 {
            return;
        }
        let end = ts + dur;
        let mut t = ts;
        while t < end {
            let widx = t / w;
            let wend = (widx + 1) * w;
            let chunk = end.min(wend) - t;
            f(m.window_mut(widx, rank), chunk);
            t += chunk;
        }
    }

    /// Split integer attribute `attr` of span `[ts, ts+dur)` across the
    /// windows it overlaps by cumulative rounding: window `i` receives
    /// `prefix(end_i) - prefix(start_i)` with
    /// `prefix(t) = attr * (t - ts) / dur` in `u128`. The shares are exact
    /// integers summing to `attr`, and each window's share depends only on
    /// the span itself — order-independent and u64-exact.
    fn split_attr(
        &self,
        m: &mut MonitorInner,
        rank: usize,
        ts: u64,
        dur: u64,
        attr: u64,
        f: impl Fn(&mut NodeWindow, u64),
    ) {
        let w = self.window_ns;
        if attr == 0 {
            return;
        }
        if dur == 0 {
            f(m.window_mut(ts / w, rank), attr);
            return;
        }
        let prefix = |t: u64| -> u64 { ((attr as u128 * (t - ts) as u128) / dur as u128) as u64 };
        let end = ts + dur;
        let mut t = ts;
        let mut given = 0u64;
        while t < end {
            let widx = t / w;
            let wend = ((widx + 1) * w).min(end);
            let upto = prefix(wend);
            let share = upto - given;
            given = upto;
            if share > 0 {
                f(m.window_mut(widx, rank), share);
            }
            t = wend;
        }
        debug_assert_eq!(given, attr);
    }

    /// Current virtual-time progress: (max event end seen, min unflushed
    /// rank's watermark). Live-view aids only; never part of report content.
    pub fn progress(&self) -> (u64, u64) {
        let m = self.locked();
        let hi = m.watermark.iter().copied().max().unwrap_or(0);
        let lo = m
            .watermark
            .iter()
            .enumerate()
            .filter(|(r, _)| !m.flushed.contains(r))
            .map(|(_, &t)| t)
            .min()
            .unwrap_or(hi);
        (hi, lo)
    }

    /// Compute the full health report from everything streamed so far.
    /// A pure function of the accumulated (commutative) state: calling it
    /// mid-run gives the live view, calling it after the run gives the
    /// deterministic final report.
    pub fn report(&self) -> HealthReport {
        let m = self.locked();
        let w = self.window_ns;
        let nodes = m.nodes;
        let Some(last_widx) = m.windows.keys().next_back().copied() else {
            return HealthReport {
                window_ns: w,
                nodes,
                windows: Vec::new(),
            };
        };
        // Per-rank last activity (max event end), for the silence rule.
        let mut last_event = vec![0u64; nodes];
        for (widx, v) in &m.windows {
            for (rank, nw) in v.iter().enumerate() {
                if nw.active {
                    last_event[rank] = last_event[rank].max((widx + 1) * w);
                }
            }
        }

        // Everything below reads the decision log through timelines, each
        // consumed up to the end of the window being built. Load vectors
        // and predictions go in cycle order, each at its decision's
        // earliest timestamp.
        let log = &m.log;
        let mut loads = log
            .of_kind("load-change")
            .filter_map(|(_, d)| Some((d.ts_ns, arg_usize_arr(&d.args, "loads")?)))
            .peekable();
        let mut current_loads: Option<Vec<usize>> = None;
        let mut predictions = log
            .balances
            .values()
            .filter_map(|b| Some((b.ts_ns, arg_f64(&b.args, "predicted_imbalance")?)))
            .peekable();
        let mut current_pred: Option<f64> = None;
        // Removal timeline: drops and confirmed deaths take a node *out*
        // (its silence is the runtime's own doing — or already acted upon
        // — so the alert rules must not keep firing on it); rejoins and
        // admissions bring it *back* under the rules. A tie puts out
        // before back, which only matters in the degenerate
        // same-timestamp case.
        let mut removals: Vec<(u64, bool, Vec<usize>)> = Vec::new();
        for ((_, kind), d) in &log.decisions {
            let node = || arg_u64(&d.args, "node").map(|n| vec![n as usize]);
            let change = match *kind {
                "nodes-dropped" => arg_usize_arr(&d.args, "nodes").map(|ns| (false, ns)),
                "node-confirmed-dead" => node().map(|ns| (false, ns)),
                "node-rejoined" | "node-admitted" => node().map(|ns| (true, ns)),
                _ => None,
            };
            removals.extend(change.map(|(back, ns)| (d.ts_ns, back, ns)));
        }
        removals.sort_by_key(|&(ts, back, _)| (ts, back));
        let mut removals = removals.into_iter().peekable();
        // The decisions shown on the timeline, in presentation order.
        let mut timeline: Vec<Decision> = log
            .decisions
            .iter()
            .filter(|((_, kind), _)| DECISION_KINDS.contains(kind))
            .map(|(&(cycle, kind), d)| Decision {
                kind: kind.to_string(),
                cycle,
                ts_ns: d.ts_ns,
            })
            .collect();
        timeline.sort_by(|a, b| (a.ts_ns, a.cycle, &a.kind).cmp(&(b.ts_ns, b.cycle, &b.kind)));
        let mut timeline = timeline.into_iter().peekable();

        let mut removed: BTreeSet<usize> = BTreeSet::new();
        let empty = Vec::new();
        let mut depth = vec![0i64; nodes];
        let mut silent = vec![0u32; nodes];
        let mut streaks = vec![vec![0u32; self.rules.len()]; nodes];
        let mut windows: Vec<WindowReport> = Vec::with_capacity(last_widx as usize + 1);

        for widx in 0..=last_widx {
            let t_start = widx * w;
            let t_end = (widx + 1) * w;
            let stats = m.windows.get(&widx).unwrap_or(&empty);
            while let Some((_, l)) = loads.next_if(|(ts, _)| *ts < t_end) {
                current_loads = Some(l);
            }
            while let Some((_, p)) = predictions.next_if(|(ts, _)| *ts < t_end) {
                current_pred = Some(p);
            }
            while let Some((_, back, ns)) = removals.next_if(|(ts, ..)| *ts < t_end) {
                for n in ns {
                    if back {
                        removed.remove(&n);
                    } else {
                        removed.insert(n);
                    }
                }
            }

            // Effective flop rates while computing, and the cluster median.
            let rate = |nw: &NodeWindow| -> Option<f64> {
                (nw.busy_ns > 0).then(|| nw.work_uflop as f64 * 1e3 / nw.busy_ns as f64)
            };
            let mut rates: Vec<f64> = (0..nodes)
                .filter(|n| !removed.contains(n))
                .filter_map(|n| stats.get(n).and_then(rate))
                .collect();
            rates.sort_by(f64::total_cmp);
            let median_rate = (!rates.is_empty()).then(|| rates[rates.len() / 2]);

            let cluster_active = stats.iter().any(|nw| nw.active);
            let mut node_rows = Vec::with_capacity(nodes);
            let mut alerts = Vec::new();
            let mut busys: Vec<u64> = Vec::new();

            for node in 0..nodes {
                let nw = stats.get(node).cloned().unwrap_or_default();
                depth[node] += nw.sends_to as i64 - nw.recvs_by as i64;
                if nw.active {
                    silent[node] = 0;
                } else if cluster_active && !removed.contains(&node) && last_event[node] > t_end {
                    silent[node] += 1;
                }
                if !removed.contains(&node) && nw.busy_ns > 0 {
                    busys.push(nw.busy_ns);
                }

                let interference = (nw.busy_ns > 0)
                    .then(|| nw.busy_ns.saturating_sub(nw.cpu_ns) as f64 / nw.busy_ns as f64);
                let late_share = nw.late_ns as f64 / w as f64;
                let rel_rate = match (rate(&nw), median_rate) {
                    (Some(r), Some(med)) if med > 0.0 => Some(r / med),
                    _ => None,
                };

                let mut state = HealthState::Healthy;
                if !removed.contains(&node) {
                    for (ri, rule) in self.rules.iter().enumerate() {
                        let value = match rule.metric {
                            RuleMetric::InterferenceShare => interference,
                            RuleMetric::LateWaitShare => Some(late_share),
                            RuleMetric::RelativeFlopRate => rel_rate,
                            RuleMetric::QueueDepth => Some(depth[node] as f64),
                            RuleMetric::SilentWindows => Some(silent[node] as f64),
                        };
                        let streak = &mut streaks[node][ri];
                        match value {
                            Some(v) if rule.hit(v) => {
                                *streak += 1;
                                if *streak >= rule.sustain {
                                    state = state.max(rule.classify);
                                    if *streak == rule.sustain {
                                        alerts.push(Alert {
                                            rule: rule.name,
                                            node,
                                            state: rule.classify,
                                            value: v,
                                            ts_ns: t_end,
                                        });
                                    }
                                }
                            }
                            Some(_) => *streak = 0,
                            // No data: hold the streak (idling through a
                            // redistribution neither clears nor advances).
                            None => {}
                        }
                    }
                } else {
                    streaks[node].iter_mut().for_each(|s| *s = 0);
                }

                node_rows.push(NodeHealth {
                    node,
                    state,
                    removed: removed.contains(&node),
                    eff_mflops: rate(&nw).map_or(0.0, |r| r / 1e6),
                    interference_share: interference.unwrap_or(0.0),
                    late_wait_share: late_share,
                    queue_depth: depth[node],
                    busy_ns: nw.busy_ns,
                    cpu_ns: nw.cpu_ns,
                    wait_ns: nw.wait_ns,
                    ncp: current_loads
                        .as_ref()
                        .and_then(|l| l.get(node))
                        .map_or(0, |&l| l as u32),
                });
            }

            let measured_imbalance = if busys.is_empty() {
                1.0
            } else {
                let max = *busys.iter().max().unwrap() as f64;
                let mean = busys.iter().sum::<u64>() as f64 / busys.len() as f64;
                max / mean
            };

            windows.push(WindowReport {
                index: widx,
                t_start_ns: t_start,
                t_end_ns: t_end,
                nodes: node_rows,
                alerts,
                decisions: std::iter::from_fn(|| timeline.next_if(|d| d.ts_ns < t_end)).collect(),
                measured_imbalance,
                predicted_imbalance: current_pred,
            });
        }
        HealthReport {
            window_ns: w,
            nodes,
            windows,
        }
    }
}

impl EventSink for HealthMonitor {
    fn on_event(&self, ev: &TraceEvent) {
        // Windows are laid out from time 0 to the last timestamp seen:
        // an out-of-range one (malformed dump) must not size the report.
        if !ev.in_time_range() {
            return;
        }
        let mut m = self.locked();
        let rank = ev.rank();
        if !m.note_rank(rank) {
            return;
        }
        m.log.fold(ev);
        match ev {
            TraceEvent::Complete {
                cat,
                name,
                ts_ns,
                dur_ns,
                args,
                ..
            } => {
                let (ts, dur) = (*ts_ns, *dur_ns);
                m.watermark[rank] = m.watermark[rank].max(ts + dur);
                self.mark_active(&mut m, rank, ts, dur);
                match (*cat, *name) {
                    ("runtime", "charge_rows") | ("runtime", "grace_measure") => {
                        self.add_overlap(&mut m, rank, ts, dur, |nw, c| nw.busy_ns += c);
                        if let Some(cpu) = arg_u64(args, "cpu_ns") {
                            self.split_attr(&mut m, rank, ts, dur, cpu, |nw, c| nw.cpu_ns += c);
                        }
                        if let Some(work) = arg_u64(args, "work_uflop") {
                            self.split_attr(&mut m, rank, ts, dur, work, |nw, c| {
                                nw.work_uflop += c
                            });
                        }
                    }
                    ("sched", "blocked") => {
                        self.add_overlap(&mut m, rank, ts, dur, |nw, c| nw.wait_ns += c);
                    }
                    _ => {}
                }
            }
            TraceEvent::Instant {
                cat,
                name,
                ts_ns,
                args,
                ..
            } => {
                let ts = *ts_ns;
                m.watermark[rank] = m.watermark[rank].max(ts);
                self.mark_active(&mut m, rank, ts, 0);
                match (*cat, *name) {
                    ("comm", "send") => {
                        let peer = arg_u64(args, "peer").and_then(|p| usize::try_from(p).ok());
                        if let Some(peer) = peer.filter(|p| m.note_rank(*p)) {
                            m.window_mut(ts / self.window_ns, peer).sends_to += 1;
                        }
                    }
                    ("comm", "recv") => {
                        let widx = ts / self.window_ns;
                        let nw = m.window_mut(widx, rank);
                        nw.recvs_by += 1;
                        if let Some(late) = arg_u64(args, "late_ns") {
                            nw.late_ns += late;
                        }
                        if let Some(net) = arg_u64(args, "net_ns") {
                            nw.net_ns += net;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_span_open(&self, rank: usize, _cat: &'static str, _name: &str, ts_ns: u64) {
        let mut m = self.locked();
        if m.note_rank(rank) {
            m.watermark[rank] = m.watermark[rank].max(ts_ns);
        }
    }

    fn on_rank_flush(&self, rank: usize) {
        let mut m = self.locked();
        if m.note_rank(rank) {
            m.flushed.insert(rank);
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One node's health in one window.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeHealth {
    pub node: usize,
    pub state: HealthState,
    /// The runtime dropped this node in an earlier cycle.
    pub removed: bool,
    /// Effective compute rate while executing, Mflop/s (0 when idle).
    pub eff_mflops: f64,
    pub interference_share: f64,
    pub late_wait_share: f64,
    /// Outstanding messages destined to this node at window end.
    pub queue_depth: i64,
    pub busy_ns: u64,
    pub cpu_ns: u64,
    pub wait_ns: u64,
    /// Competing processes per the runtime's last broadcast load vector.
    pub ncp: u32,
}

/// An alert that fired (its rule's streak reached `sustain`) in a window.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    pub rule: &'static str,
    pub node: usize,
    pub state: HealthState,
    /// The metric value that tripped the rule.
    pub value: f64,
    /// Virtual timestamp: the end of the tripping window.
    pub ts_ns: u64,
}

/// A runtime adaptation decision mirrored onto the health timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    pub kind: String,
    pub cycle: u64,
    pub ts_ns: u64,
}

/// One window of the health timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowReport {
    pub index: u64,
    pub t_start_ns: u64,
    pub t_end_ns: u64,
    pub nodes: Vec<NodeHealth>,
    pub alerts: Vec<Alert>,
    pub decisions: Vec<Decision>,
    /// max/mean busy time across active nodes (1.0 when idle).
    pub measured_imbalance: f64,
    /// The balancer's latest predicted post-redistribution imbalance.
    pub predicted_imbalance: Option<f64>,
}

/// The monitor's full output: every window since t = 0.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthReport {
    pub window_ns: u64,
    pub nodes: usize,
    pub windows: Vec<WindowReport>,
}

impl HealthReport {
    /// `HealthSnapshot` JSONL: one object per window (DESIGN.md §11 schema).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            let nodes = Json::Arr(
                w.nodes
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("node", Json::UInt(n.node as u64)),
                            ("state", Json::str(n.state.name())),
                            ("removed", Json::Bool(n.removed)),
                            ("eff_mflops", Json::Num(n.eff_mflops)),
                            ("interference_share", Json::Num(n.interference_share)),
                            ("late_wait_share", Json::Num(n.late_wait_share)),
                            ("queue_depth", Json::Num(n.queue_depth as f64)),
                            ("busy_ns", Json::UInt(n.busy_ns)),
                            ("cpu_ns", Json::UInt(n.cpu_ns)),
                            ("wait_ns", Json::UInt(n.wait_ns)),
                            ("ncp", Json::UInt(n.ncp as u64)),
                        ])
                    })
                    .collect(),
            );
            let alerts = Json::Arr(
                w.alerts
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("rule", Json::str(a.rule)),
                            ("node", Json::UInt(a.node as u64)),
                            ("state", Json::str(a.state.name())),
                            ("value", Json::Num(a.value)),
                            ("ts_ns", Json::UInt(a.ts_ns)),
                        ])
                    })
                    .collect(),
            );
            let decisions = Json::Arr(
                w.decisions
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("kind", Json::str(d.kind.clone())),
                            ("cycle", Json::UInt(d.cycle)),
                            ("ts_ns", Json::UInt(d.ts_ns)),
                        ])
                    })
                    .collect(),
            );
            let mut imbalance = vec![("measured".to_string(), Json::Num(w.measured_imbalance))];
            if let Some(p) = w.predicted_imbalance {
                imbalance.push(("predicted".to_string(), Json::Num(p)));
            }
            let doc = Json::obj([
                ("window", Json::UInt(w.index)),
                ("t_start_ns", Json::UInt(w.t_start_ns)),
                ("t_end_ns", Json::UInt(w.t_end_ns)),
                ("nodes", nodes),
                ("alerts", alerts),
                ("decisions", decisions),
                ("imbalance", Json::Obj(imbalance)),
            ]);
            out.push_str(&doc.to_string());
            out.push('\n');
        }
        out
    }

    /// Text dashboard frame: node table for the latest window, currently
    /// sustained alerts, and the most recent decisions. Pure rendering —
    /// the `--watch` loop in the bench harness re-prints it in place.
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        let Some(last) = self.windows.last() else {
            return "health: no events yet\n".to_string();
        };
        let _ = writeln!(
            out,
            "Dyn-MPI health — virtual t={:.3}s, window {}ms, #{}",
            last.t_end_ns as f64 / 1e9,
            self.window_ns / 1_000_000,
            last.index
        );
        let _ = writeln!(
            out,
            "{:<5} {:<12} {:>11} {:>8} {:>7} {:>7} {:>4}",
            "node", "state", "eff Mflop/s", "interf%", "late%", "qdepth", "ncp"
        );
        for n in &last.nodes {
            let state = if n.removed { "removed" } else { n.state.name() };
            let _ = writeln!(
                out,
                "{:<5} {:<12} {:>11.2} {:>8.0} {:>7.0} {:>7} {:>4}",
                n.node,
                state,
                n.eff_mflops,
                n.interference_share * 100.0,
                n.late_wait_share * 100.0,
                n.queue_depth,
                n.ncp
            );
        }
        let _ = writeln!(
            out,
            "imbalance: measured {:.2}{}",
            last.measured_imbalance,
            last.predicted_imbalance
                .map(|p| format!(", balancer predicted {p:.2}"))
                .unwrap_or_default()
        );
        let active: Vec<&Alert> = self
            .windows
            .iter()
            .flat_map(|w| &w.alerts)
            .filter(|a| {
                // An alert is "active" if its node still carries the
                // classification in the latest window.
                last.nodes
                    .get(a.node)
                    .is_some_and(|n| n.state >= a.state && n.state != HealthState::Healthy)
            })
            .collect();
        if active.is_empty() {
            let _ = writeln!(out, "alerts: none active");
        } else {
            let _ = writeln!(out, "alerts:");
            for a in active.iter().rev().take(6) {
                let _ = writeln!(
                    out,
                    "  {} node {} ({}) value {:.2} @{:.3}s",
                    a.rule,
                    a.node,
                    a.state.name(),
                    a.value,
                    a.ts_ns as f64 / 1e9
                );
            }
        }
        let decisions: Vec<&Decision> = self.windows.iter().flat_map(|w| &w.decisions).collect();
        if decisions.is_empty() {
            let _ = writeln!(out, "decisions: none yet");
        } else {
            let _ = writeln!(out, "decisions:");
            let skip = decisions.len().saturating_sub(5);
            for d in decisions.into_iter().skip(skip) {
                let _ = writeln!(
                    out,
                    "  {} cycle {} @{:.3}s",
                    d.kind,
                    d.cycle,
                    d.ts_ns as f64 / 1e9
                );
            }
        }
        out
    }

    /// All alerts across all windows, in timeline order.
    pub fn alerts(&self) -> Vec<&Alert> {
        self.windows.iter().flat_map(|w| &w.alerts).collect()
    }

    /// All decisions across all windows, in timeline order.
    pub fn decisions(&self) -> Vec<&Decision> {
        self.windows.iter().flat_map(|w| &w.decisions).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        cat: &'static str,
        name: &'static str,
        rank: usize,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, Json)>,
    ) -> TraceEvent {
        TraceEvent::Complete {
            cat,
            name,
            rank,
            ts_ns: ts,
            dur_ns: dur,
            args,
        }
    }

    fn charge(rank: usize, ts: u64, dur: u64, cpu: u64, work: u64) -> TraceEvent {
        span(
            "runtime",
            "charge_rows",
            rank,
            ts,
            dur,
            vec![
                ("rows", Json::UInt(10)),
                ("cpu_ns", Json::UInt(cpu)),
                ("work_uflop", Json::UInt(work)),
            ],
        )
    }

    #[test]
    fn split_attr_is_exact_across_boundaries() {
        let mon = HealthMonitor::new(100);
        // A span crossing three windows with an attr that does not divide
        // evenly: shares must sum exactly.
        mon.on_event(&charge(0, 50, 230, 77, 1_000_003));
        let m = mon.locked();
        let cpu: u64 = m.windows.values().map(|v| v[0].cpu_ns).sum();
        let work: u64 = m.windows.values().map(|v| v[0].work_uflop).sum();
        let busy: u64 = m.windows.values().map(|v| v[0].busy_ns).sum();
        assert_eq!(cpu, 77);
        assert_eq!(work, 1_000_003);
        assert_eq!(busy, 230);
        assert_eq!(m.windows.len(), 3);
    }

    #[test]
    fn order_independent_report() {
        let events = [
            charge(0, 0, 90, 90, 500),
            charge(1, 0, 180, 90, 500),
            span("sched", "blocked", 0, 90, 90, vec![]),
            TraceEvent::Instant {
                cat: "comm",
                name: "recv",
                rank: 0,
                ts_ns: 180,
                args: vec![("late_ns", Json::UInt(60)), ("net_ns", Json::UInt(30))],
            },
        ];
        let fwd = HealthMonitor::new(100);
        events.iter().for_each(|e| fwd.on_event(e));
        let rev = HealthMonitor::new(100);
        events.iter().rev().for_each(|e| rev.on_event(e));
        assert_eq!(fwd.report(), rev.report());
        assert_eq!(fwd.report().to_jsonl(), rev.report().to_jsonl());
    }

    #[test]
    fn straggler_fires_after_sustain_windows() {
        let mon = HealthMonitor::new(100);
        // Node 1 computes at half node 0's rate from window 2 onward.
        for w in 0..6u64 {
            let slow = w >= 2;
            mon.on_event(&charge(0, w * 100, 80, 80, 800));
            let work = if slow { 400 } else { 800 };
            mon.on_event(&charge(1, w * 100, 80, if slow { 40 } else { 80 }, work));
        }
        let report = mon.report();
        let alerts = report.alerts();
        let strag: Vec<_> = alerts.iter().filter(|a| a.rule == "straggler").collect();
        assert_eq!(strag.len(), 1, "{alerts:?}");
        assert_eq!(strag[0].node, 1);
        // sustain = 2: hit in windows 2 and 3 ⇒ fires at end of window 3.
        assert_eq!(strag[0].ts_ns, 400);
        // And the node is classified Straggler from window 3 onward.
        assert_eq!(report.windows[3].nodes[1].state, HealthState::Straggler);
        assert_eq!(report.windows[1].nodes[1].state, HealthState::Healthy);
    }

    #[test]
    fn interference_marks_degraded() {
        let mon = HealthMonitor::new(100);
        for w in 0..4u64 {
            // busy 80, cpu 40 ⇒ interference share 0.5 > 0.2.
            mon.on_event(&charge(0, w * 100, 80, 40, 400));
            mon.on_event(&charge(1, w * 100, 80, 80, 400));
        }
        let report = mon.report();
        assert!(report
            .alerts()
            .iter()
            .any(|a| a.rule == "interference" && a.node == 0));
        assert_eq!(report.windows[3].nodes[0].state, HealthState::Degraded);
        assert_eq!(report.windows[3].nodes[1].state, HealthState::Healthy);
    }

    #[test]
    fn silence_marks_suspect_dead() {
        let mon = HealthMonitor::new(100);
        // Node 1 emits through window 9 (so last_event stays ahead), but
        // goes silent from window 2 on while node 0 keeps computing.
        mon.on_event(&charge(1, 0, 150, 150, 500));
        mon.on_event(&charge(1, 950, 40, 40, 100));
        for w in 0..10u64 {
            mon.on_event(&charge(0, w * 100, 80, 80, 400));
        }
        let report = mon.report();
        let dead: Vec<_> = report
            .alerts()
            .into_iter()
            .filter(|a| a.rule == "silent")
            .collect();
        assert!(!dead.is_empty());
        assert!(dead.iter().all(|a| a.node == 1));
    }

    #[test]
    fn decisions_dedup_across_ranks_by_min_ts() {
        let mon = HealthMonitor::new(100);
        for rank in 0..3 {
            mon.on_event(&TraceEvent::Instant {
                cat: "runtime",
                name: "redistributed",
                rank,
                ts_ns: 250 + rank as u64, // each rank stamps its own time
                args: vec![("cycle", Json::UInt(15))],
            });
        }
        let report = mon.report();
        let ds = report.decisions();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].ts_ns, 250);
        assert_eq!(ds[0].cycle, 15);
    }

    #[test]
    fn queue_depth_accumulates_across_windows() {
        let mon = HealthMonitor::new(100);
        for i in 0..5u64 {
            mon.on_event(&TraceEvent::Instant {
                cat: "comm",
                name: "send",
                rank: 0,
                ts_ns: i * 40,
                args: vec![("peer", Json::UInt(1))],
            });
        }
        mon.on_event(&TraceEvent::Instant {
            cat: "comm",
            name: "recv",
            rank: 1,
            ts_ns: 150,
            args: vec![],
        });
        let report = mon.report();
        // Windows: sends at 0,40,80 (w0) and 120,160 (w1); recv in w1.
        assert_eq!(report.windows[0].nodes[1].queue_depth, 3);
        assert_eq!(report.windows[1].nodes[1].queue_depth, 4);
    }

    #[test]
    fn dashboard_renders() {
        let mon = HealthMonitor::new(100);
        mon.on_event(&charge(0, 0, 80, 40, 400));
        let text = mon.report().render_dashboard();
        assert!(text.contains("Dyn-MPI health"));
        assert!(text.contains("node"));
        assert!(HealthMonitor::new(1)
            .report()
            .render_dashboard()
            .contains("no events"));
    }
}
