//! The `rep` child process: one workload, one seed, pinned to one CPU.
//!
//! It sets up (pin, seed → inputs, reference load), runs one cold
//! repetition and then timed repetitions for the time it was given,
//! checks every repetition, and reports one JSON object per line on
//! standard output. The parent (`runner`) never simulates anything.

use std::time::Instant;

use dynmpi::RuntimeEvent;
use dynmpi_obs::Json;

use crate::host::{self, Usage};
use crate::metrics::{values_to_json, Value, Values};
use crate::reference;
use crate::spans::{self, SpanLog};
use crate::stats::median;
use crate::workloads::{run_rep, Inputs, Rep, Workload};

/// Timed repetitions a child runs however short its time budget.
pub const MIN_TIMED_REPS: usize = 3;

pub struct RepArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Time budget of the timed repetitions, seconds.
    pub seconds: f64,
    /// The parent's `host::now_ns()` just before it spawned this process.
    pub spawned_at_ns: Option<u64>,
    /// Add one recorded repetition with spans after the timed ones.
    pub traced: bool,
    /// Stop once set up (set-up time is sampled several times per run).
    pub setup_only: bool,
    /// Stop after the cold repetition.
    pub cold_only: bool,
    /// Write the cold repetition's outputs as the committed reference.
    pub bless: bool,
}

fn emit(kind: &str, fields: Vec<(&str, Json)>) {
    let mut all = vec![("kind", Json::str(kind))];
    all.extend(fields);
    println!("{}", Json::obj(all));
}

/// One untraced repetition as the derived metrics need it.
struct Sample {
    wall_s: f64,
    usage: Option<Usage>,
    net_messages: u64,
}

fn count_kind(events: &[RuntimeEvent], kind: &str) -> u64 {
    events.iter().filter(|e| e.kind() == kind).count() as u64
}

/// Cycles from first suspicion to confirmation, and cycles replayed
/// after the rollback (the `fig9_node_crash` definitions).
fn crash_cycles(events: &[RuntimeEvent]) -> (u64, u64) {
    let first = |pick: fn(&RuntimeEvent) -> Option<u64>| events.iter().find_map(pick);
    let suspected = first(|e| match e {
        RuntimeEvent::NodeSuspected { cycle, .. } => Some(*cycle),
        _ => None,
    });
    let confirmed = first(|e| match e {
        RuntimeEvent::NodeConfirmedDead { cycle, .. } => Some(*cycle),
        _ => None,
    });
    let rollback_to = first(|e| match e {
        RuntimeEvent::NodeRecovered { rollback_to, .. } => Some(*rollback_to),
        _ => None,
    });
    match (suspected, confirmed, rollback_to) {
        (Some(s), Some(c), Some(r)) => (c - s + 1, c.saturating_sub(r)),
        _ => (0, 0),
    }
}

/// The per-layer metrics read off the workload itself: counts from the
/// recorded repetition, host costs from the untraced timed ones.
fn workload_metrics(cold: &Sample, timed: &[Sample], traced: &Rep) -> Values {
    let mut v = Values::new();
    let mut put = |name: &str, value: Value| {
        v.insert(name.to_string(), value);
    };
    let ratio = |num: f64, den: f64| {
        if den > 0.0 {
            Value::Num(num / den)
        } else {
            Value::Num(0.0)
        }
    };
    let counts = traced
        .recorded
        .as_ref()
        .expect("the traced repetition is recorded");
    let counter = |name: &str| Value::Count(counts.metrics.counter(name));

    let walls: Vec<f64> = timed.iter().map(|s| s.wall_s).collect();
    let wall: f64 = walls.iter().sum();
    let msgs: u64 = timed.iter().map(|s| s.net_messages).sum();
    let usage: Option<Vec<Usage>> = timed.iter().map(|s| s.usage).collect();
    put("sim.engine.events", Value::Count(traced.engine_events));
    put(
        "sim.engine.turn_bypasses",
        Value::Count(traced.turn_bypasses),
    );
    match &usage {
        Some(u) => {
            let switches: u64 = u.iter().map(|u| u.ctx_switches).sum();
            let sys: f64 = u.iter().map(|u| u.sys_s).sum();
            let user: f64 = u.iter().map(|u| u.user_s).sum();
            put(
                "sim.engine.ctx_switches_per_msg",
                ratio(switches as f64, msgs as f64),
            );
            put("sim.engine.sys_share", ratio(sys, sys + user));
        }
        None => {
            put("sim.engine.ctx_switches_per_msg", Value::Unresolved);
            put("sim.engine.sys_share", Value::Unresolved);
        }
    }
    put("sim.engine.host_us_per_msg", ratio(wall * 1e6, msgs as f64));
    put("sim.cpu.quanta", counter("sim.sched.quanta"));
    let runs = &traced.observed.runs;
    put(
        "sim.net.messages",
        Value::Count(runs.iter().map(|r| r.net_messages).sum()),
    );
    put(
        "sim.net.bytes",
        Value::Count(runs.iter().map(|r| r.net_bytes).sum()),
    );
    put("comm.bytes_copied", counter(dynmpi_comm::BYTES_COPIED));
    put(
        "comm.coll.large_dispatches",
        Value::Count(
            counts.metrics.counter("comm.coll.bcast_large")
                + counts.metrics.counter("comm.coll.allreduce_large"),
        ),
    );
    let events = &traced.events;
    put(
        "core.runtime.redistributions",
        Value::Count(count_kind(events, "redistributed")),
    );
    put(
        "core.runtime.drops",
        Value::Count(count_kind(events, "nodes-dropped")),
    );
    put(
        "core.runtime.deaths_confirmed",
        Value::Count(count_kind(events, "node-confirmed-dead")),
    );
    put(
        "core.runtime.virt_ctrl_share",
        ratio(counts.runtime_ns as f64, counts.rank_makespan_ns as f64),
    );
    put("core.redist.rows_moved", counter("redist.rows_moved"));
    put("core.redist.bytes_sent", counter("redist.bytes_sent"));
    put(
        "core.redist.schedule_builds",
        counter(dynmpi::redist::SCHEDULE_BUILDS),
    );
    put(
        "core.redist.ghost_needs_evals",
        counter(dynmpi::redist::GHOST_NEEDS_EVALS),
    );
    put("core.redist.virt_seconds", Value::Num(traced.redist_virt_s));
    put("core.ckpt.refreshes", counter(dynmpi::CKPT_REFRESHES));
    put("core.ckpt.bytes_sent", counter(dynmpi::CKPT_BYTES_SENT));
    put(
        "core.ckpt.refresh_timeouts",
        counter(dynmpi::CKPT_REFRESH_TIMEOUTS),
    );
    let (detect, replay) = crash_cycles(events);
    put("core.ckpt.detect_cycles", Value::Count(detect));
    put("core.ckpt.replay_cycles", Value::Count(replay));
    put("obs.events", Value::Count(counts.trace_events));
    let warm = median(&walls).unwrap_or(0.0);
    put("bench.trace_overhead_ratio", ratio(traced.wall_s, warm));
    put("bench.cold_rep_ratio", ratio(cold.wall_s, warm));
    v
}

/// Runs the child. Returns whether every repetition passed its checks.
pub fn run(args: &RepArgs) -> bool {
    let pinned = host::pin_to_one_cpu();
    let inputs = Inputs::generate(args.workload, args.seed);
    let reference = match reference::load(args.workload, args.seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: unreadable reference: {e}");
            return false;
        }
    };
    let setup_s = args
        .spawned_at_ns
        .map(|t0| host::now_ns().saturating_sub(t0) as f64 * 1e-9);
    emit(
        "ready",
        vec![
            ("setup_s", setup_s.map_or(Json::Null, Json::Num)),
            ("pinned_cpu", host::cpu_json(pinned)),
        ],
    );
    if args.setup_only {
        return true;
    }

    let mut expected = reference;
    let mut all_ok = true;
    let mut cold: Option<Sample> = None;
    let mut timed: Vec<Sample> = Vec::new();
    let mut timed_start = Instant::now();
    loop {
        let is_cold = cold.is_none();
        let before = host::usage_self();
        let rep = run_rep(&inputs, false, is_cold, &mut SpanLog::disabled());
        let usage = host::usage_self()
            .zip(before)
            .map(|(after, before)| after.since(&before));
        let got = rep.observed.to_json();
        if is_cold && args.bless {
            match reference::bless(args.workload, args.seed, &rep.observed) {
                Ok(()) => expected = Some(got.clone()),
                Err(e) => {
                    eprintln!("benchmark: cannot write reference: {e}");
                    all_ok = false;
                }
            }
        }
        // A seed without a committed reference is held to its own first
        // repetition.
        let want = expected.get_or_insert_with(|| got.clone());
        let error = reference::first_difference(want, &got)
            .map(|d| format!("output differs from reference at {d}"))
            .or(rep.cross_check_error);
        all_ok &= error.is_none();
        emit(
            "rep",
            vec![
                ("cold", Json::Bool(is_cold)),
                ("wall_s", Json::Num(rep.wall_s)),
                ("makespan_ns", Json::UInt(rep.observed.makespan_ns())),
                ("usage", usage.map_or(Json::Null, Usage::to_json)),
                ("error", error.map_or(Json::Null, Json::str)),
            ],
        );
        let sample = Sample {
            wall_s: rep.wall_s,
            usage,
            net_messages: rep.observed.runs.iter().map(|r| r.net_messages).sum(),
        };
        if is_cold {
            cold = Some(sample);
            if args.cold_only {
                break;
            }
            timed_start = Instant::now();
            continue;
        }
        timed.push(sample);
        let walls: Vec<f64> = timed.iter().map(|s| s.wall_s).collect();
        let next = median(&walls).unwrap_or(0.0);
        let spent = timed_start.elapsed().as_secs_f64();
        if timed.len() >= MIN_TIMED_REPS && spent + next > args.seconds {
            break;
        }
    }
    // Peak RSS is read here, before a recorded repetition inflates it.
    emit(
        "timed_done",
        vec![(
            "usage",
            host::usage_self().map_or(Json::Null, Usage::to_json),
        )],
    );

    if args.traced && !args.cold_only {
        let mut spans = SpanLog::new(args.workload.name());
        let rep = spans.scope("rep", |spans| run_rep(&inputs, true, false, spans));
        let want = expected.as_ref().expect("set by the cold repetition");
        let error = reference::first_difference(want, &rep.observed.to_json())
            .map(|d| format!("traced output differs from reference at {d}"));
        all_ok &= error.is_none();
        let metrics = workload_metrics(cold.as_ref().expect("ran"), &timed, &rep);
        emit(
            "traced",
            vec![
                ("wall_s", Json::Num(rep.wall_s)),
                ("error", error.map_or(Json::Null, Json::str)),
                ("metrics", values_to_json(&metrics)),
                ("spans", spans::to_json(&spans.into_spans())),
            ],
        );
    }
    emit("done", Vec::new());
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_cycles_follow_fig9() {
        let events = vec![
            RuntimeEvent::NodeSuspected {
                cycle: 40,
                node: 3,
                silent_cycles: 1,
            },
            RuntimeEvent::NodeSuspected {
                cycle: 41,
                node: 3,
                silent_cycles: 2,
            },
            RuntimeEvent::NodeConfirmedDead {
                cycle: 42,
                node: 3,
                silent_cycles: 3,
            },
            RuntimeEvent::NodeRecovered {
                cycle: 42,
                node: 3,
                rollback_to: 30,
                restored_rows: 24,
                holder: 4,
            },
        ];
        assert_eq!(crash_cycles(&events), (3, 12));
        assert_eq!(crash_cycles(&[]), (0, 0));
    }
}
