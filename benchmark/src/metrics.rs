//! The metric catalogue: every end-to-end and per-layer metric by name,
//! with its unit, direction and — for end-to-end metrics — its bound.
//! `BENCHMARK.json` declares the same names; a unit test holds the two
//! together.

use std::collections::BTreeMap;

use dynmpi_obs::Json;

use crate::workloads::Workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A measured value. `Unresolved` stands where a host-time metric was
/// taken without CPU pinning and therefore measures scheduler noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Count(u64),
    Num(f64),
    Unresolved,
}

impl Value {
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::Count(c) => Some(c as f64),
            Value::Num(x) => Some(x),
            Value::Unresolved => None,
        }
    }

    pub fn to_json(self) -> Json {
        match self {
            Value::Count(c) => Json::UInt(c),
            Value::Num(x) => Json::Num(x),
            Value::Unresolved => Json::str("unresolved"),
        }
    }

    pub fn from_json(j: &Json) -> Option<Value> {
        match j {
            Json::UInt(c) => Some(Value::Count(*c)),
            Json::Num(x) => Some(Value::Num(*x)),
            Json::Str(s) if s == "unresolved" => Some(Value::Unresolved),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Count(c) => write!(f, "{c}"),
            Value::Num(x) if x.abs() >= 100.0 => write!(f, "{x:.1}"),
            Value::Num(x) => write!(f, "{x:.4}"),
            Value::Unresolved => f.write_str("unresolved"),
        }
    }
}

pub type Values = BTreeMap<String, Value>;

pub fn values_to_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect(),
    )
}

pub fn values_from_json(j: &Json) -> Option<Values> {
    j.to_map()?
        .into_iter()
        .map(|(k, v)| Some((k.to_string(), Value::from_json(v)?)))
        .collect()
}

/// A metric a user of the simulator would see, reported per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the earlier value by which a later one may be worse
    /// before it counts as a regression. Declared in `BENCHMARK.json`.
    pub bound: f64,
    /// Differences below this many units never count (a 25 % bound on a
    /// two-millisecond set-up is inside timer noise).
    pub floor: f64,
    /// Repeats bit for bit for a given seed; `selfcheck` demands identity.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        floor: 2.0,
        exact: false,
    },
    // For one seed this is bit-exact, and every repetition is held to the
    // committed reference. The bound is only there because the contract
    // driver compares medians over different seeds, whose inputs differ.
    EndToEnd {
        name: "virt_makespan_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.05,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.020,
        exact: false,
    },
];

/// Where a per-layer metric is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Read off the traced workload itself: one value per workload.
    Workload,
    /// A differential run defined on one workload's inputs. Measured on
    /// those inputs whichever workload the traced run was asked for.
    Home(Workload),
    /// A micro-probe of one public function; no workload involved.
    Probe,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit for bit; anything else is a host-time measurement.
    pub exact: bool,
    pub scope: Scope,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    scope: Scope,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact,
        scope,
    }
}

use Better::{Higher, Lower};
use Scope::{Home, Probe};
use Workload::{Adapt8Bare, Adapt8Obs, Crash8, JacobiKernel2, Ring64, SorDrop32};
const W: Scope = Scope::Workload;

pub const PER_LAYER: &[Layer] = &[
    // sim.engine — engine.rs, ctx.rs, equeue.rs
    layer("sim.engine.events", "count", Lower, true, W),
    layer("sim.engine.turn_bypasses", "count", Higher, true, W),
    layer("sim.engine.ctx_switches_per_msg", "1/msg", Lower, false, W),
    layer("sim.engine.sys_share", "ratio", Lower, false, W),
    layer("sim.engine.host_us_per_msg", "us", Lower, false, W),
    layer(
        "sim.engine.cycle_host_us_p50",
        "us",
        Lower,
        false,
        Home(Ring64),
    ),
    layer(
        "sim.engine.cycle_host_us_p99",
        "us",
        Lower,
        false,
        Home(Ring64),
    ),
    layer(
        "sim.engine.spawn_join_us_per_rank",
        "us",
        Lower,
        false,
        Probe,
    ),
    layer(
        "sim.engine.unpinned_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(SorDrop32),
    ),
    // sim.cpu — cpu.rs, timeline.rs
    layer("sim.cpu.quanta", "count", Lower, true, W),
    layer("sim.cpu.ff_script_ns_per_call", "ns", Lower, false, Probe),
    layer(
        "sim.cpu.stepped_wall_ratio",
        "ratio",
        Higher,
        false,
        Home(Adapt8Bare),
    ),
    // sim.net — network.rs, mailbox.rs
    layer("sim.net.messages", "count", Lower, true, W),
    layer("sim.net.bytes", "B", Lower, true, W),
    layer("sim.net.model_ns_per_msg", "ns", Lower, false, Probe),
    // sim.shard — shard.rs
    layer(
        "sim.shard.s2_pinned_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Ring64),
    ),
    layer(
        "sim.shard.s2_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Ring64),
    ),
    // comm — ops.rs, sim_transport.rs, datatype.rs
    layer("comm.bytes_copied", "B", Lower, true, W),
    layer("comm.coll.large_dispatches", "count", Higher, true, W),
    layer("comm.probe.bcast_1mib_host_us", "us", Lower, false, Probe),
    layer(
        "comm.probe.allreduce_1mib_host_us",
        "us",
        Lower,
        false,
        Probe,
    ),
    layer("comm.probe.allreduce_8b_host_us", "us", Lower, false, Probe),
    layer("comm.probe.alltoallv_host_us", "us", Lower, false, Probe),
    // core.runtime — runtime.rs, timing.rs, config.rs
    layer("core.runtime.redistributions", "count", Lower, true, W),
    layer("core.runtime.drops", "count", Lower, true, W),
    layer("core.runtime.deaths_confirmed", "count", Lower, true, W),
    layer(
        "core.runtime.adapt_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Adapt8Bare),
    ),
    layer("core.runtime.virt_ctrl_share", "ratio", Lower, true, W),
    // core.balance
    layer("core.balance.solve_us_n32", "us", Lower, false, Probe),
    // core.redist
    layer("core.redist.rows_moved", "count", Lower, true, W),
    layer("core.redist.bytes_sent", "B", Lower, true, W),
    layer("core.redist.schedule_builds", "count", Lower, true, W),
    layer("core.redist.ghost_needs_evals", "count", Lower, true, W),
    layer("core.redist.virt_seconds", "s", Lower, true, W),
    layer(
        "core.redist.schedule_build_us_n32",
        "us",
        Lower,
        false,
        Probe,
    ),
    // core.ckpt — checkpoint.rs
    layer("core.ckpt.refreshes", "count", Lower, true, W),
    layer("core.ckpt.bytes_sent", "B", Lower, true, W),
    layer("core.ckpt.refresh_timeouts", "count", Lower, true, W),
    layer("core.ckpt.detect_cycles", "count", Lower, true, W),
    layer("core.ckpt.replay_cycles", "count", Lower, true, W),
    layer(
        "core.ckpt.virt_overhead_ratio",
        "ratio",
        Lower,
        true,
        Home(Crash8),
    ),
    layer(
        "core.ckpt.guard_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Crash8),
    ),
    // apps
    layer(
        "apps.kernel.mpoints_per_s",
        "Mpt/s",
        Higher,
        false,
        Home(JacobiKernel2),
    ),
    layer(
        "apps.kernel.wall_share",
        "ratio",
        Lower,
        false,
        Home(JacobiKernel2),
    ),
    // obs — trace.rs, health.rs, explain.rs, analysis.rs, export.rs
    layer("obs.events", "count", Lower, true, W),
    layer(
        "obs.recorder_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.health_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.all_sinks_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.health.ns_per_event",
        "ns",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.explain.ns_per_event",
        "ns",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.analysis.ns_per_event",
        "ns",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.export.chrome_ns_per_event",
        "ns",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.export.jsonl_ns_per_event",
        "ns",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer(
        "obs.export.parse_jsonl_ns_per_event",
        "ns",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    layer("obs.events_sort_ms", "ms", Lower, false, Home(Adapt8Obs)),
    layer(
        "obs.rss_bytes_per_event",
        "B",
        Lower,
        false,
        Home(Adapt8Obs),
    ),
    // testkit
    layer(
        "testkit.sweep.t2_wall_ratio",
        "ratio",
        Lower,
        false,
        Home(Adapt8Bare),
    ),
    // the benchmark itself
    layer("bench.trace_overhead_ratio", "ratio", Lower, false, W),
    layer("bench.cold_rep_ratio", "ratio", Lower, false, W),
];

pub fn layer_named(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// Replaces every host-time value with `Unresolved`: what a run that
/// could not pin itself reports. Host times are the inexact per-layer
/// metrics and the inexact end-to-end metrics measured in seconds (peak
/// RSS does not depend on pinning).
pub fn unresolve_host_times(values: &mut Values) {
    for (name, v) in values.iter_mut() {
        let host_time = match layer_named(name) {
            Some(layer) => !layer.exact,
            None => END_TO_END
                .iter()
                .any(|m| m.name == name && !m.exact && m.unit == "s"),
        };
        if host_time {
            *v = Value::Unresolved;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn manifest_declares_exactly_the_catalogue() {
        let m = manifest();
        let e2e = m.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), def.name);
            assert_eq!(field(j, "unit"), def.unit);
            assert_eq!(field(j, "better"), def.better.name());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let layers = m.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), def.name);
            assert_eq!(field(j, "unit"), def.unit);
            assert_eq!(field(j, "better"), def.better.name());
        }
        let workloads = m.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn values_round_trip_through_json_text() {
        let mut v = Values::new();
        v.insert("a".into(), Value::Count(u64::MAX));
        v.insert("b".into(), Value::Num(0.125));
        v.insert("c".into(), Value::Unresolved);
        let text = values_to_json(&v).to_string();
        assert_eq!(values_from_json(&Json::parse(&text).unwrap()), Some(v));
    }

    #[test]
    fn unpinned_runs_keep_exact_values_only() {
        let mut v = Values::new();
        v.insert("wall_s".into(), Value::Num(1.0));
        v.insert("peak_rss_mb".into(), Value::Num(9.0));
        v.insert("virt_makespan_s".into(), Value::Num(2.0));
        v.insert("sim.engine.events".into(), Value::Count(5));
        v.insert("sim.engine.sys_share".into(), Value::Num(0.8));
        unresolve_host_times(&mut v);
        assert_eq!(v["wall_s"], Value::Unresolved);
        assert_eq!(v["peak_rss_mb"], Value::Num(9.0));
        assert_eq!(v["virt_makespan_s"], Value::Num(2.0));
        assert_eq!(v["sim.engine.events"], Value::Count(5));
        assert_eq!(v["sim.engine.sys_share"], Value::Unresolved);
    }
}
