//! Trace analysis: wait-state attribution, cross-rank critical path, and
//! per-adaptation-cycle audits over [`TraceEvent`] streams.
//!
//! The paper's whole argument (§4.2–4.4) is that per-iteration time
//! decomposes into compute, competing-process interference, communication
//! wait, and redistribution cost. The raw traces only *record* spans; this
//! module turns them into numbers:
//!
//! * **Per-rank buckets** ([`Buckets`]): every nanosecond of each rank's
//!   makespan is classified into exactly one of seven exclusive buckets —
//!   `compute` (CPU actually consumed by the application), `interference`
//!   (scheduler slices lost to competing processes), `late_wait`
//!   (blocked at a receive before the matching send was even issued),
//!   `network` (blocked while the message was serializing or queued on a
//!   NIC), `redist` (inside a `redistribute` span), `runtime` (inside the
//!   monitor/balancer pipeline: `end_cycle`, `finish_grace`, `balance`,
//!   `drop_eval`), and `other` (untraced time, e.g. virtual sleeps). The
//!   buckets sum to the rank's makespan *exactly* — no double counting.
//! * **Critical path** ([`CritSegment`]): a backward replay from the
//!   last-finishing rank. Whenever the walk reaches a blocked receive it
//!   follows the message (linked by the `seq` attribute) to its sender and
//!   continues there, so the segments partition `[0, makespan]` across
//!   ranks: work segments on one rank, transfer segments hopping between
//!   them.
//! * **Cycle audits** ([`CycleAudit`]): for every redistribution, the
//!   balancer's predicted post-balance imbalance (from the `balance` span)
//!   against the *measured* max/mean cycle-time imbalance in windows
//!   before and after the move.
//!
//! ## Input contract
//!
//! `analyze` takes events in the order [`Recorder::events`](crate::Recorder::events)
//! returns them — sorted by `(ts_ns, rank, emission seq)` — and never
//! re-sorts. Streams parsed back from disk via
//! [`parse_jsonl`](crate::export::parse_jsonl) preserve that order.
//!
//! ## Span-aggregation equivalence
//!
//! The simulator's fast path aggregates thousands of scheduler quanta into
//! one `sched` span; stepped mode (`DYNMPI_SIM_STEPPED=1`) emits them one
//! by one. Both attach exact `cpu`/`slices` attributes, and this analyzer
//! attributes from those sums rather than from span counts, so the
//! resulting buckets, critical path, and audits are bit-identical between
//! the two modes (see `crates/sim/tests/profile_equivalence.rs`).

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::json::Json;
use crate::trace::TraceEvent;

/// Runtime-pipeline span names whose contents count as runtime overhead
/// (monitor + balancer), not application time.
const RUNTIME_OVERHEAD_SPANS: &[&str] = &[
    "end_cycle",
    "finish_grace",
    "balance",
    "drop_eval",
    "arrival_eval",
    "crash_recovery",
];

/// Measured-imbalance window length (cycles) on each side of a
/// redistribution.
const AUDIT_WINDOW: u64 = 3;

/// Cycles skipped right after a redistribution before the "after" window
/// starts (the control-plane pipeline lag pollutes them).
const AUDIT_SETTLE: u64 = 2;

fn arg_u64(args: &[(&'static str, Json)], key: &str) -> Option<u64> {
    args.iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_u64())
}

fn arg_f64(args: &[(&'static str, Json)], key: &str) -> Option<f64> {
    args.iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_f64())
}

// ---------------------------------------------------------------------------
// Public result types
// ---------------------------------------------------------------------------

/// Exclusive per-rank time buckets, in virtual nanoseconds. They sum to the
/// rank's makespan exactly (`total() == makespan_ns`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Buckets {
    /// CPU consumed by application code (including per-row grace timing).
    pub compute_ns: u64,
    /// Wall time inside application `sched` spans not spent running: the
    /// scheduler slices of competing processes.
    pub interference_ns: u64,
    /// Blocked at a receive before the matching send was issued
    /// (late-sender / late-receiver wait).
    pub late_wait_ns: u64,
    /// Blocked while the matching message was in the network
    /// (serialization plus NIC queueing — see
    /// [`RankAttribution::contention_ns`] for the queued share).
    pub network_ns: u64,
    /// Everything inside a `redistribute` span: pack, exchange, unpack.
    pub redist_ns: u64,
    /// Everything inside the runtime adaptation pipeline (`end_cycle`,
    /// `finish_grace`, `balance`, `drop_eval`): monitor + balancer cost.
    pub runtime_ns: u64,
    /// Untraced time (virtual sleeps, gaps). Small by construction.
    pub other_ns: u64,
}

impl Buckets {
    /// Sum of all buckets — equals the rank's makespan.
    pub fn total(&self) -> u64 {
        self.compute_ns
            + self.interference_ns
            + self.late_wait_ns
            + self.network_ns
            + self.redist_ns
            + self.runtime_ns
            + self.other_ns
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("compute_ns", Json::UInt(self.compute_ns)),
            ("interference_ns", Json::UInt(self.interference_ns)),
            ("late_wait_ns", Json::UInt(self.late_wait_ns)),
            ("network_ns", Json::UInt(self.network_ns)),
            ("redist_ns", Json::UInt(self.redist_ns)),
            ("runtime_ns", Json::UInt(self.runtime_ns)),
            ("other_ns", Json::UInt(self.other_ns)),
        ])
    }
}

/// One rank's attribution row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankAttribution {
    pub rank: usize,
    /// End of this rank's last traced event (virtual ns since start).
    pub makespan_ns: u64,
    pub buckets: Buckets,
    /// Total CPU this rank actually consumed, across all contexts
    /// (compute plus the CPU share of redist/runtime spans).
    pub busy_ns: u64,
    /// Share of `buckets.network_ns` spent queued behind a busy NIC
    /// rather than serializing — the contention component.
    pub contention_ns: u64,
}

impl RankAttribution {
    /// Percentage of the makespan attributed to a traced bucket (i.e.
    /// everything except `other`). 100.0 when fully covered.
    pub fn coverage_pct(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 100.0;
        }
        100.0 * (1.0 - self.buckets.other_ns as f64 / self.makespan_ns as f64)
    }
}

/// What a critical-path segment was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// The rank was executing (compute, local waits, runtime work).
    Work { rank: usize },
    /// The path followed a message from `src` to `dst`.
    Transfer {
        src: usize,
        dst: usize,
        bytes: u64,
        tag: u64,
    },
}

/// One segment of the cross-rank critical path. Segments are returned in
/// time order and partition `[0, makespan_ns]` with no gaps or overlaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CritSegment {
    pub kind: SegKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl CritSegment {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(self) -> Json {
        let mut fields = vec![
            ("start_ns".to_string(), Json::UInt(self.start_ns)),
            ("end_ns".to_string(), Json::UInt(self.end_ns)),
        ];
        match self.kind {
            SegKind::Work { rank } => {
                fields.insert(0, ("kind".to_string(), Json::str("work")));
                fields.push(("rank".to_string(), Json::UInt(rank as u64)));
            }
            SegKind::Transfer {
                src,
                dst,
                bytes,
                tag,
            } => {
                fields.insert(0, ("kind".to_string(), Json::str("transfer")));
                fields.push(("src".to_string(), Json::UInt(src as u64)));
                fields.push(("dst".to_string(), Json::UInt(dst as u64)));
                fields.push(("bytes".to_string(), Json::UInt(bytes)));
                fields.push(("tag".to_string(), Json::UInt(tag)));
            }
        }
        Json::Obj(fields)
    }
}

/// Predicted vs. realized imbalance around one redistribution.
///
/// Imbalance is the max/mean ratio of per-rank mean cycle wall time over a
/// [`AUDIT_WINDOW`]-cycle window; `None` when the window has no data (run
/// ended, fewer than two ranks reporting).
#[derive(Clone, Debug, PartialEq)]
pub struct CycleAudit {
    /// Phase cycle the redistribution executed in.
    pub cycle: u64,
    /// Wall seconds the redistribution itself took.
    pub redist_seconds: f64,
    pub rows_moved: u64,
    /// Fraction of rows that changed owner.
    pub moved_fraction: Option<f64>,
    /// The balancer's predicted post-balance imbalance (from the `balance`
    /// span's attributes).
    pub predicted_imbalance: Option<f64>,
    /// Measured imbalance over the cycles just before the grace period's
    /// redistribution fired.
    pub imbalance_before: Option<f64>,
    /// Measured imbalance after the move (skipping the pipeline-lag
    /// settle cycles).
    pub imbalance_after: Option<f64>,
}

impl CycleAudit {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycle".to_string(), Json::UInt(self.cycle)),
            ("seconds".to_string(), Json::Num(self.redist_seconds)),
            ("rows_moved".to_string(), Json::UInt(self.rows_moved)),
        ];
        let opt = |fields: &mut Vec<(String, Json)>, key: &str, v: Option<f64>| {
            if let Some(x) = v {
                if x.is_finite() {
                    fields.push((key.to_string(), Json::Num(x)));
                }
            }
        };
        opt(&mut fields, "moved_fraction", self.moved_fraction);
        opt(&mut fields, "predicted_imbalance", self.predicted_imbalance);
        opt(&mut fields, "imbalance_before", self.imbalance_before);
        opt(&mut fields, "imbalance_after", self.imbalance_after);
        Json::Obj(fields)
    }
}

/// One row of the critical-path blame table: exact nanoseconds of the
/// cross-rank critical path charged to a `(node, cause)` bucket. The
/// causes reuse the [`Buckets`] vocabulary plus `transfer` (the path rode
/// a message, blamed on the sending node). Entries sum exactly to the
/// critical-path length, so the table answers "who, doing what, set the
/// makespan".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlameEntry {
    pub node: usize,
    pub cause: &'static str,
    pub ns: u64,
}

impl BlameEntry {
    fn to_json(self) -> Json {
        Json::obj([
            ("node", Json::UInt(self.node as u64)),
            ("cause", Json::str(self.cause)),
            ("ns", Json::UInt(self.ns)),
        ])
    }
}

/// The full analysis result: per-rank attribution, critical path, audits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// End of the last traced event across all ranks.
    pub makespan_ns: u64,
    /// One row per rank, sorted by rank.
    pub ranks: Vec<RankAttribution>,
    /// Time-ordered critical path partitioning `[0, makespan_ns]`.
    pub critical_path: Vec<CritSegment>,
    /// One audit per redistribution, in cycle order.
    pub cycles: Vec<CycleAudit>,
    /// Critical-path blame, largest share first (ties by node, cause).
    pub blame: Vec<BlameEntry>,
}

impl ProfileReport {
    /// Total duration of the critical path (== `makespan_ns` whenever the
    /// trace is non-empty, since the segments partition it).
    pub fn critical_path_ns(&self) -> u64 {
        self.critical_path.iter().map(CritSegment::dur_ns).sum()
    }

    /// Worst per-rank coverage: the smallest share of any rank's makespan
    /// that landed in a traced (non-`other`) bucket.
    pub fn min_coverage_pct(&self) -> f64 {
        self.ranks
            .iter()
            .map(RankAttribution::coverage_pct)
            .fold(100.0, f64::min)
    }

    /// The `n` longest critical-path segments, longest first.
    pub fn top_segments(&self, n: usize) -> Vec<CritSegment> {
        let mut segs = self.critical_path.clone();
        segs.sort_by_key(|s| std::cmp::Reverse(s.dur_ns()));
        segs.truncate(n);
        segs
    }

    /// The `n` largest blame entries (the top-culprit table).
    pub fn top_blame(&self, n: usize) -> &[BlameEntry] {
        &self.blame[..n.min(self.blame.len())]
    }

    /// JSON document (schema documented in DESIGN.md §10).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("makespan_ns", Json::UInt(self.makespan_ns)),
            ("critical_path_ns", Json::UInt(self.critical_path_ns())),
            ("min_coverage_pct", Json::Num(self.min_coverage_pct())),
            (
                "ranks",
                Json::Arr(
                    self.ranks
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("rank", Json::UInt(r.rank as u64)),
                                ("makespan_ns", Json::UInt(r.makespan_ns)),
                                ("busy_ns", Json::UInt(r.busy_ns)),
                                ("contention_ns", Json::UInt(r.contention_ns)),
                                ("buckets", r.buckets.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "critical_path",
                Json::Arr(self.critical_path.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "cycles",
                Json::Arr(self.cycles.iter().map(CycleAudit::to_json).collect()),
            ),
            (
                "blame",
                Json::Arr(self.blame.iter().map(|b| b.to_json()).collect()),
            ),
        ])
    }

    /// Human-readable report: attribution table, top critical-path
    /// segments, redistribution audits.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let secs = |ns: u64| ns as f64 / 1e9;
        let pct = |ns: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total as f64
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Profile: makespan {:.6}s, {} ranks, critical path {} segments ({:.6}s) ==",
            secs(self.makespan_ns),
            self.ranks.len(),
            self.critical_path.len(),
            secs(self.critical_path_ns()),
        );
        let _ = writeln!(
            out,
            "{:>4}  {:>11}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}",
            "rank", "makespan(s)", "comp%", "intf%", "late%", "net%", "redist%", "rt%", "other%"
        );
        for r in &self.ranks {
            let b = &r.buckets;
            let m = r.makespan_ns;
            let _ = writeln!(
                out,
                "{:>4}  {:>11.6}  {:>7.2}  {:>7.2}  {:>7.2}  {:>7.2}  {:>7.2}  {:>7.2}  {:>7.2}",
                r.rank,
                secs(m),
                pct(b.compute_ns, m),
                pct(b.interference_ns, m),
                pct(b.late_wait_ns, m),
                pct(b.network_ns, m),
                pct(b.redist_ns, m),
                pct(b.runtime_ns, m),
                pct(b.other_ns, m),
            );
        }
        let _ = writeln!(out, "-- top critical-path segments --");
        for s in self.top_segments(10) {
            match s.kind {
                SegKind::Work { rank } => {
                    let _ = writeln!(
                        out,
                        "  [rank {rank}] work {:.6}s  (t={:.6}s..{:.6}s)",
                        secs(s.dur_ns()),
                        secs(s.start_ns),
                        secs(s.end_ns),
                    );
                }
                SegKind::Transfer {
                    src,
                    dst,
                    bytes,
                    tag,
                } => {
                    let _ = writeln!(
                        out,
                        "  [{src}->{dst}] transfer {:.6}s  ({bytes} B, tag {tag}, t={:.6}s..{:.6}s)",
                        secs(s.dur_ns()),
                        secs(s.start_ns),
                        secs(s.end_ns),
                    );
                }
            }
        }
        if !self.blame.is_empty() {
            let _ = writeln!(out, "-- critical-path blame (top culprits) --");
            for b in self.top_blame(8) {
                let _ = writeln!(
                    out,
                    "  node {:>3}  {:<12} {:>10.6}s  ({:.1}% of path)",
                    b.node,
                    b.cause,
                    secs(b.ns),
                    pct(b.ns, self.critical_path_ns()),
                );
            }
        }
        if !self.cycles.is_empty() {
            let _ = writeln!(out, "-- redistribution audits --");
            for c in &self.cycles {
                let fmt_opt = |v: Option<f64>| match v {
                    Some(x) if x.is_finite() => format!("{x:.3}"),
                    _ => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  cycle {:>4}: moved {} rows in {:.4}s; imbalance predicted {} | before {} | after {}",
                    c.cycle,
                    c.rows_moved,
                    c.redist_seconds,
                    fmt_opt(c.predicted_imbalance),
                    fmt_opt(c.imbalance_before),
                    fmt_opt(c.imbalance_after),
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Internal timeline model
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Interval {
    start: u64,
    end: u64,
}

/// A blocked-receive wait, linked (when the recv was traced with `peer`
/// and `seq` attributes) to the `(sender rank, seq)` of the message that
/// resolved it.
#[derive(Clone, Copy, Debug)]
struct BlockedWait {
    start: u64,
    end: u64,
    link: Option<(usize, u64)>,
    /// RX-NIC queueing charged to the resolving message (`rx_queued_ns`).
    rx_queued: u64,
}

/// A scheduler leaf span: the only thing (besides blocked waits and
/// untraced sleeps) that consumes virtual time on a rank.
#[derive(Clone, Copy, Debug)]
struct SchedLeaf {
    start: u64,
    end: u64,
    cpu: u64,
}

/// One message-send record, keyed by `(sender rank, seq)` — sequence
/// numbers are per-sender program order, so the pair is globally unique.
#[derive(Clone, Copy, Debug)]
struct SendRec {
    rank: usize,
    ts: u64,
    bytes: u64,
    tag: u64,
    queued: u64,
}

#[derive(Default)]
struct Lane {
    makespan: u64,
    sched: Vec<SchedLeaf>,
    blocked: Vec<BlockedWait>,
    redist_ctx: Vec<Interval>,
    runtime_ctx: Vec<Interval>,
    begin_cycle: BTreeMap<u64, u64>,
    end_cycle: BTreeMap<u64, u64>,
}

/// Merge possibly nested/overlapping intervals into a disjoint sorted list.
fn merge(mut v: Vec<Interval>) -> Vec<Interval> {
    v.sort_by_key(|i| (i.start, i.end));
    let mut out: Vec<Interval> = Vec::with_capacity(v.len());
    for i in v {
        match out.last_mut() {
            Some(last) if i.start <= last.end => last.end = last.end.max(i.end),
            _ => out.push(i),
        }
    }
    out
}

/// Is `[start, end)` contained in one of the merged `intervals`?
fn contained(intervals: &[Interval], start: u64, end: u64) -> bool {
    let idx = intervals.partition_point(|i| i.start <= start);
    idx > 0 && intervals[idx - 1].end >= end
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// Analyze a trace-event stream (in [`Recorder::events`](crate::Recorder::events)
/// order) into a [`ProfileReport`].
pub fn analyze(events: &[TraceEvent]) -> ProfileReport {
    let mut lanes: BTreeMap<usize, Lane> = BTreeMap::new();
    let mut sends: HashMap<(usize, u64), SendRec> = HashMap::new();
    // Redistribution instants, deduped by cycle: (seconds, rows_moved).
    let mut redists: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    // `balance` span attributes, keyed by cycle.
    let mut balances: BTreeMap<u64, (Option<f64>, Option<f64>)> = BTreeMap::new();

    for ev in events {
        let rank = ev.rank();
        let lane = lanes.entry(rank).or_default();
        match ev {
            TraceEvent::Complete {
                cat,
                name,
                ts_ns,
                dur_ns,
                args,
                ..
            } => {
                let (start, end) = (*ts_ns, ts_ns + dur_ns);
                lane.makespan = lane.makespan.max(end);
                match *cat {
                    "sched" => {
                        if *name == "blocked" {
                            lane.blocked.push(BlockedWait {
                                start,
                                end,
                                link: None,
                                rx_queued: 0,
                            });
                        } else {
                            // Fall back on the span name when the exact
                            // `cpu` attribute is absent (legacy traces).
                            let cpu = arg_u64(args, "cpu").unwrap_or(if *name == "run" {
                                end - start
                            } else {
                                0
                            });
                            lane.sched.push(SchedLeaf {
                                start,
                                end,
                                cpu: cpu.min(end - start),
                            });
                        }
                    }
                    "redist" if *name == "redistribute" => {
                        lane.redist_ctx.push(Interval { start, end });
                    }
                    "runtime" if RUNTIME_OVERHEAD_SPANS.contains(name) => {
                        lane.runtime_ctx.push(Interval { start, end });
                        if *name == "end_cycle" {
                            if let Some(c) = arg_u64(args, "cycle") {
                                lane.end_cycle.entry(c).or_insert(end);
                            }
                        }
                        if *name == "balance" {
                            if let Some(c) = arg_u64(args, "cycle") {
                                balances.entry(c).or_insert((
                                    arg_f64(args, "predicted_imbalance"),
                                    arg_f64(args, "moved_fraction"),
                                ));
                            }
                        }
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
                lane.makespan = lane.makespan.max(*ts_ns);
                match (*cat, *name) {
                    ("comm", "send") => {
                        if let Some(seq) = arg_u64(args, "seq") {
                            sends.insert(
                                (rank, seq),
                                SendRec {
                                    rank,
                                    ts: *ts_ns,
                                    bytes: arg_u64(args, "bytes").unwrap_or(0),
                                    tag: arg_u64(args, "tag").unwrap_or(0),
                                    queued: arg_u64(args, "queued_ns").unwrap_or(0),
                                },
                            );
                        }
                    }
                    ("comm", "recv") => {
                        // Link the wait that this receive resolved: the
                        // receiver pops the message at the instant its
                        // blocked span ends, so the timestamps coincide.
                        // Seqs are per-sender, so the link key needs the
                        // peer (sending rank) too.
                        if let Some(last) = lane.blocked.last_mut() {
                            if last.end == *ts_ns && last.link.is_none() {
                                if let (Some(peer), Some(seq)) =
                                    (arg_u64(args, "peer"), arg_u64(args, "seq"))
                                {
                                    last.link = Some((peer as usize, seq));
                                    last.rx_queued = arg_u64(args, "rx_queued_ns").unwrap_or(0);
                                }
                            }
                        }
                    }
                    ("runtime", "begin_cycle") => {
                        if let Some(c) = arg_u64(args, "cycle") {
                            lane.begin_cycle.entry(c).or_insert(*ts_ns);
                        }
                    }
                    ("runtime", "redistributed") => {
                        if let Some(c) = arg_u64(args, "cycle") {
                            redists.entry(c).or_insert((
                                arg_f64(args, "seconds").unwrap_or(0.0),
                                arg_u64(args, "rows_moved").unwrap_or(0),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Context intervals become disjoint unions for containment queries.
    for lane in lanes.values_mut() {
        lane.redist_ctx = merge(std::mem::take(&mut lane.redist_ctx));
        lane.runtime_ctx = merge(std::mem::take(&mut lane.runtime_ctx));
    }

    let makespan = lanes.values().map(|l| l.makespan).max().unwrap_or(0);
    let ranks = attribute(&lanes, &sends);
    let critical_path = critical_path(&lanes, &sends, makespan);
    let cycles = cycle_audits(&lanes, &redists, &balances);
    let blame = blame(&lanes, &sends, &critical_path);

    ProfileReport {
        makespan_ns: makespan,
        ranks,
        critical_path,
        cycles,
        blame,
    }
}

/// Overlap of `[a_start, a_end)` with `[b_start, b_end)` in ns.
fn overlap(a_start: u64, a_end: u64, b_start: u64, b_end: u64) -> u64 {
    a_end.min(b_end).saturating_sub(a_start.max(b_start))
}

/// Fold the critical path into the `(node, cause)` blame table. Work
/// segments are re-classified against the owning rank's lane exactly like
/// [`attribute`] classifies whole spans — redist/runtime context first,
/// then compute vs. interference (a partial leaf overlap splits its CPU
/// by the same u128 cumulative-prefix rule as the health monitor's
/// `split_attr`, so shares are exact and order-independent), blocked
/// waits by the late/network boundary at the matching send's timestamp.
/// Transfer segments are blamed on the sending node as `transfer`.
/// Uncovered path time stays `other`. Entries sum exactly to the
/// critical-path length.
fn blame(
    lanes: &BTreeMap<usize, Lane>,
    sends: &HashMap<(usize, u64), SendRec>,
    path: &[CritSegment],
) -> Vec<BlameEntry> {
    let mut table: BTreeMap<(usize, &'static str), u64> = BTreeMap::new();
    let mut add = |node: usize, cause: &'static str, ns: u64| {
        if ns > 0 {
            *table.entry((node, cause)).or_insert(0) += ns;
        }
    };
    for seg in path {
        match seg.kind {
            SegKind::Transfer { src, .. } => add(src, "transfer", seg.dur_ns()),
            SegKind::Work { rank } => {
                let lane = &lanes[&rank];
                let mut covered = 0u64;
                for s in &lane.sched {
                    let ov = overlap(s.start, s.end, seg.start_ns, seg.end_ns);
                    if ov == 0 {
                        continue;
                    }
                    covered += ov;
                    if contained(&lane.redist_ctx, s.start, s.end) {
                        add(rank, "redist", ov);
                    } else if contained(&lane.runtime_ctx, s.start, s.end) {
                        add(rank, "runtime", ov);
                    } else {
                        let dur = s.end - s.start;
                        let (lo, hi) = (seg.start_ns.max(s.start), seg.end_ns.min(s.end));
                        let prefix = |t: u64| -> u64 {
                            ((s.cpu as u128 * (t - s.start) as u128) / dur as u128) as u64
                        };
                        let cpu_share = prefix(hi) - prefix(lo);
                        add(rank, "compute", cpu_share);
                        add(rank, "interference", ov - cpu_share);
                    }
                }
                for w in &lane.blocked {
                    let ov = overlap(w.start, w.end, seg.start_ns, seg.end_ns);
                    if ov == 0 {
                        continue;
                    }
                    covered += ov;
                    if contained(&lane.redist_ctx, w.start, w.end) {
                        add(rank, "redist", ov);
                    } else if contained(&lane.runtime_ctx, w.start, w.end) {
                        add(rank, "runtime", ov);
                    } else {
                        match w.link.and_then(|k| sends.get(&k)) {
                            Some(send) => {
                                let boundary = send.ts.clamp(w.start, w.end);
                                let (lo, hi) = (seg.start_ns.max(w.start), seg.end_ns.min(w.end));
                                let late = overlap(lo, hi, w.start, boundary);
                                add(rank, "late-wait", late);
                                add(rank, "network", ov - late);
                            }
                            None => add(rank, "late-wait", ov),
                        }
                    }
                }
                add(rank, "other", seg.dur_ns().saturating_sub(covered));
            }
        }
    }
    let mut out: Vec<BlameEntry> = table
        .into_iter()
        .map(|((node, cause), ns)| BlameEntry { node, cause, ns })
        .collect();
    out.sort_by_key(|b| (std::cmp::Reverse(b.ns), b.node, b.cause));
    out
}

fn attribute(
    lanes: &BTreeMap<usize, Lane>,
    sends: &HashMap<(usize, u64), SendRec>,
) -> Vec<RankAttribution> {
    let mut out = Vec::with_capacity(lanes.len());
    for (&rank, lane) in lanes {
        let mut b = Buckets::default();
        let mut busy = 0u64;
        let mut contention = 0u64;
        let mut covered_ns = 0u64;
        for s in &lane.sched {
            let dur = s.end - s.start;
            covered_ns += dur;
            busy += s.cpu;
            if contained(&lane.redist_ctx, s.start, s.end) {
                b.redist_ns += dur;
            } else if contained(&lane.runtime_ctx, s.start, s.end) {
                b.runtime_ns += dur;
            } else {
                b.compute_ns += s.cpu;
                b.interference_ns += dur - s.cpu;
            }
        }
        for w in &lane.blocked {
            let dur = w.end - w.start;
            covered_ns += dur;
            if contained(&lane.redist_ctx, w.start, w.end) {
                b.redist_ns += dur;
                continue;
            }
            if contained(&lane.runtime_ctx, w.start, w.end) {
                b.runtime_ns += dur;
                continue;
            }
            match w.link.and_then(|k| sends.get(&k)) {
                Some(send) => {
                    // Up to the send instant the wait is the sender's
                    // fault; from the send to delivery it is the network's.
                    let boundary = send.ts.clamp(w.start, w.end);
                    b.late_wait_ns += boundary - w.start;
                    let net = w.end - boundary;
                    b.network_ns += net;
                    // Contention = TX-side plus RX-side NIC queueing of
                    // the resolving message, capped at the network share.
                    contention += (send.queued + w.rx_queued).min(net);
                }
                // No matching send traced (e.g. truncated stream): the
                // whole wait is a late-sender wait.
                None => b.late_wait_ns += dur,
            }
        }
        b.other_ns = lane.makespan.saturating_sub(covered_ns);
        out.push(RankAttribution {
            rank,
            makespan_ns: lane.makespan,
            buckets: b,
            busy_ns: busy,
            contention_ns: contention,
        });
    }
    out
}

/// Backward replay: start at the end of the last-finishing rank and walk
/// toward t=0, hopping to the sender whenever a linked blocked receive
/// gated progress. Produces a gap-free partition of `[0, makespan]`.
fn critical_path(
    lanes: &BTreeMap<usize, Lane>,
    sends: &HashMap<(usize, u64), SendRec>,
    makespan: u64,
) -> Vec<CritSegment> {
    if makespan == 0 || lanes.is_empty() {
        return Vec::new();
    }
    let mut cur = 0usize;
    let mut best = 0u64;
    for (&r, lane) in lanes {
        if lane.makespan > best {
            best = lane.makespan;
            cur = r;
        }
    }
    let mut t = makespan;
    let mut segs: Vec<CritSegment> = Vec::new();
    let mut visited: HashSet<(usize, usize)> = HashSet::new();
    loop {
        let lane = &lanes[&cur];
        let pick = lane
            .blocked
            .iter()
            .enumerate()
            .rev()
            .find(|(i, w)| {
                w.end <= t
                    && w.link.map(|k| sends.contains_key(&k)).unwrap_or(false)
                    && !visited.contains(&(cur, *i))
            })
            .map(|(i, w)| (i, *w));
        let Some((i, w)) = pick else {
            if t > 0 {
                segs.push(CritSegment {
                    kind: SegKind::Work { rank: cur },
                    start_ns: 0,
                    end_ns: t,
                });
            }
            break;
        };
        visited.insert((cur, i));
        if t > w.end {
            segs.push(CritSegment {
                kind: SegKind::Work { rank: cur },
                start_ns: w.end,
                end_ns: t,
            });
        }
        let send = sends[&w.link.expect("picked waits are linked")];
        let s_ts = send.ts.min(w.end);
        if w.end > s_ts {
            segs.push(CritSegment {
                kind: SegKind::Transfer {
                    src: send.rank,
                    dst: cur,
                    bytes: send.bytes,
                    tag: send.tag,
                },
                start_ns: s_ts,
                end_ns: w.end,
            });
        }
        cur = send.rank;
        t = s_ts;
        if t == 0 {
            break;
        }
    }
    segs.reverse();
    segs
}

/// Max/mean ratio of per-rank mean cycle wall time over cycles
/// `[lo, hi]`. `None` without at least two ranks reporting.
fn window_imbalance(lanes: &BTreeMap<usize, Lane>, lo: u64, hi: u64) -> Option<f64> {
    let mut per_rank: Vec<f64> = Vec::new();
    for lane in lanes.values() {
        let mut total = 0u64;
        let mut n = 0u64;
        for c in lo..=hi {
            if let (Some(&b), Some(&e)) = (lane.begin_cycle.get(&c), lane.end_cycle.get(&c)) {
                if e > b {
                    total += e - b;
                    n += 1;
                }
            }
        }
        if n > 0 {
            per_rank.push(total as f64 / n as f64);
        }
    }
    if per_rank.len() < 2 {
        return None;
    }
    let max = per_rank.iter().fold(0.0f64, |a, &b| a.max(b));
    let mean = per_rank.iter().sum::<f64>() / per_rank.len() as f64;
    (mean > 0.0).then(|| max / mean)
}

fn cycle_audits(
    lanes: &BTreeMap<usize, Lane>,
    redists: &BTreeMap<u64, (f64, u64)>,
    balances: &BTreeMap<u64, (Option<f64>, Option<f64>)>,
) -> Vec<CycleAudit> {
    redists
        .iter()
        .map(|(&cycle, &(seconds, rows_moved))| {
            let (predicted, moved_fraction) = balances.get(&cycle).copied().unwrap_or((None, None));
            let before = (cycle > 1).then(|| {
                let lo = cycle.saturating_sub(AUDIT_WINDOW).max(1);
                window_imbalance(lanes, lo, cycle - 1)
            });
            let after = window_imbalance(
                lanes,
                cycle + AUDIT_SETTLE,
                cycle + AUDIT_SETTLE + AUDIT_WINDOW - 1,
            );
            CycleAudit {
                cycle,
                redist_seconds: seconds,
                rows_moved,
                moved_fraction,
                predicted_imbalance: predicted,
                imbalance_before: before.flatten(),
                imbalance_after: after,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &'static str, rank: usize, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent::Complete {
            cat,
            name,
            rank,
            ts_ns: ts,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    fn span_args(
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

    fn inst(
        name: &'static str,
        rank: usize,
        ts: u64,
        args: Vec<(&'static str, Json)>,
    ) -> TraceEvent {
        TraceEvent::Instant {
            cat: "comm",
            name,
            rank,
            ts_ns: ts,
            args,
        }
    }

    fn u(k: &'static str, v: u64) -> (&'static str, Json) {
        (k, Json::UInt(v))
    }

    /// Rank 1 computes 100ns, sends to rank 0 who blocked at t=10; the
    /// message was issued at 110 and arrived at 150.
    fn two_rank_trace() -> Vec<TraceEvent> {
        vec![
            // rank 0: 10ns compute, then blocked 10..150, then 50 compute.
            span_args("sched", "run", 0, 0, 10, vec![u("cpu", 10), u("slices", 1)]),
            span("sched", "blocked", 0, 10, 140),
            // rank 1: 110ns compute (55 cpu under 1 competitor), send.
            span_args(
                "sched",
                "run+wait",
                1,
                0,
                110,
                vec![u("cpu", 55), u("slices", 11)],
            ),
            inst(
                "send",
                1,
                110,
                vec![
                    u("peer", 0),
                    u("tag", 7),
                    u("seq", 42),
                    u("bytes", 64),
                    u("queued_ns", 3),
                ],
            ),
            inst(
                "recv",
                0,
                150,
                vec![
                    u("peer", 1),
                    u("tag", 7),
                    u("seq", 42),
                    u("bytes", 64),
                    u("rx_queued_ns", 2),
                ],
            ),
            span_args(
                "sched",
                "run",
                0,
                150,
                50,
                vec![u("cpu", 50), u("slices", 1)],
            ),
        ]
    }

    #[test]
    fn buckets_sum_to_makespan_and_split_waits() {
        let report = analyze(&two_rank_trace());
        assert_eq!(report.makespan_ns, 200);
        let r0 = &report.ranks[0];
        assert_eq!(r0.makespan_ns, 200);
        assert_eq!(r0.buckets.total(), 200);
        assert_eq!(r0.buckets.compute_ns, 60);
        // Blocked 10..150 with the send issued at 110: 100ns late-sender
        // wait, 40ns network.
        assert_eq!(r0.buckets.late_wait_ns, 100);
        assert_eq!(r0.buckets.network_ns, 40);
        // TX queueing (3) + RX queueing (2), both under the 40ns net share.
        assert_eq!(r0.contention_ns, 5);
        let r1 = &report.ranks[1];
        assert_eq!(r1.buckets.compute_ns, 55);
        assert_eq!(r1.buckets.interference_ns, 55);
        assert_eq!(r1.buckets.total(), r1.makespan_ns);
        // Rank 1's trace ends at 110: the remaining 0 is exact coverage.
        assert_eq!(r1.buckets.other_ns, 0);
    }

    #[test]
    fn critical_path_partitions_makespan_and_crosses_ranks() {
        let report = analyze(&two_rank_trace());
        assert_eq!(report.critical_path_ns(), report.makespan_ns);
        // Expected: work on rank 1 up to the send, transfer 1->0, work on
        // rank 0 from the wake to the end.
        assert_eq!(report.critical_path.len(), 3);
        assert_eq!(
            report.critical_path[0].kind,
            SegKind::Work { rank: 1 },
            "{:?}",
            report.critical_path
        );
        assert_eq!(
            report.critical_path[1].kind,
            SegKind::Transfer {
                src: 1,
                dst: 0,
                bytes: 64,
                tag: 7
            }
        );
        assert_eq!(
            (
                report.critical_path[1].start_ns,
                report.critical_path[1].end_ns
            ),
            (110, 150)
        );
        assert_eq!(report.critical_path[2].kind, SegKind::Work { rank: 0 });
        // Contiguous partition.
        assert_eq!(report.critical_path[0].start_ns, 0);
        for w in report.critical_path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
    }

    #[test]
    fn context_spans_reclassify_contained_time() {
        let events = vec![
            span("runtime", "end_cycle", 0, 0, 100),
            span_args("sched", "run", 0, 10, 30, vec![u("cpu", 30)]),
            span("sched", "blocked", 0, 40, 50),
            span("redist", "redistribute", 0, 100, 100),
            span_args("sched", "run", 0, 120, 60, vec![u("cpu", 60)]),
        ];
        let report = analyze(&events);
        let r0 = &report.ranks[0];
        // Both leaves inside end_cycle count as runtime overhead; the one
        // inside redistribute counts as redistribution.
        assert_eq!(r0.buckets.runtime_ns, 80);
        assert_eq!(r0.buckets.redist_ns, 60);
        assert_eq!(r0.buckets.compute_ns, 0);
        assert_eq!(r0.buckets.other_ns, 200 - 140);
        assert_eq!(r0.buckets.total(), r0.makespan_ns);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let report = analyze(&[]);
        assert_eq!(report.makespan_ns, 0);
        assert!(report.ranks.is_empty());
        assert!(report.critical_path.is_empty());
        assert_eq!(report.min_coverage_pct(), 100.0);
    }

    #[test]
    fn report_json_has_schema_fields() {
        let report = analyze(&two_rank_trace());
        let j = report.to_json();
        assert!(j.get("makespan_ns").and_then(Json::as_u64).is_some());
        assert!(j.get("ranks").and_then(Json::as_arr).is_some());
        let segs = j.get("critical_path").and_then(Json::as_arr).unwrap();
        assert!(!segs.is_empty());
        assert!(segs[0].get("kind").and_then(Json::as_str).is_some());
        let text = report.render_text();
        assert!(text.contains("critical path"));
        assert!(text.contains("rank"));
    }

    #[test]
    fn blame_tiles_critical_path_and_names_culprits() {
        let report = analyze(&two_rank_trace());
        let total: u64 = report.blame.iter().map(|b| b.ns).sum();
        assert_eq!(total, report.critical_path_ns());
        // The path rides rank 1's compute (55 cpu of the 110ns segment,
        // rest interference), the 40ns transfer blamed on the sender, and
        // rank 0's tail compute.
        assert!(report
            .blame
            .iter()
            .any(|b| b.node == 1 && b.cause == "transfer" && b.ns == 40));
        assert!(report
            .blame
            .iter()
            .any(|b| b.node == 1 && b.cause == "interference" && b.ns == 55));
        assert!(report
            .blame
            .iter()
            .any(|b| b.node == 0 && b.cause == "compute" && b.ns == 50));
        // Sorted descending; top_blame truncates.
        assert!(report.blame.windows(2).all(|w| w[0].ns >= w[1].ns));
        assert_eq!(report.top_blame(2).len(), 2);
        let text = report.render_text();
        assert!(text.contains("critical-path blame"));
    }

    #[test]
    fn self_send_zero_progress_terminates() {
        // A rank whose blocked wait resolves from a message it sent itself
        // at the very same timestamp must not loop forever.
        let events = vec![
            inst(
                "send",
                0,
                50,
                vec![u("peer", 0), u("seq", 1), u("bytes", 0), u("tag", 1)],
            ),
            span("sched", "blocked", 0, 40, 10),
            inst(
                "recv",
                0,
                50,
                vec![u("peer", 0), u("seq", 1), u("bytes", 0), u("tag", 1)],
            ),
            span_args("sched", "run", 0, 50, 10, vec![u("cpu", 10)]),
        ];
        let report = analyze(&events);
        assert_eq!(report.critical_path_ns(), report.makespan_ns);
    }
}
