//! Runtime event log.
//!
//! Every adaptation decision the runtime takes is recorded so harnesses
//! (and the figure generators) can reconstruct the timeline: when load was
//! detected, how long redistribution took, which nodes were dropped and
//! why.

use dynmpi_obs::Json;

use crate::timing::TimingMode;

/// Seconds → exact nanoseconds for trace attributes. Decision quantities
/// are all small non-negative cycle times, far below u64 range.
fn secs_to_ns(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e9).round() as u64
}

/// Dimensionless ratio (margin, fraction) → exact parts-per-million.
fn to_ppm(ratio: f64) -> u64 {
    (ratio.max(0.0) * 1e6).round() as u64
}

/// One adaptation event, stamped with the phase cycle it occurred in.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeEvent {
    /// The per-cycle load vector diverged from the last stable one; the
    /// grace period begins.
    LoadChangeDetected { cycle: u64, loads: Vec<u32> },
    /// Grace-period measurement finished with the given timing mode.
    GraceComplete { cycle: u64, mode: TimingMode },
    /// A redistribution was executed.
    Redistributed {
        cycle: u64,
        seconds: f64,
        rows_moved: usize,
        counts: Vec<usize>,
    },
    /// The balancer's new assignment moved too few rows to be worth it.
    RedistributionSkipped { cycle: u64, moved_fraction: f64 },
    /// The node-removal decision was evaluated after the
    /// post-redistribution grace period.
    DropEvaluated {
        cycle: u64,
        predicted_unloaded: f64,
        measured_max: f64,
        /// `drop_margin` the rule was evaluated with.
        margin: f64,
        /// Loaded members (world ranks) that a drop would remove.
        loaded: Vec<usize>,
        dropped: bool,
    },
    /// Loaded nodes were physically removed.
    NodesDropped { cycle: u64, nodes: Vec<usize> },
    /// A previously removed node was re-admitted (extension feature).
    NodeRejoined { cycle: u64, node: usize },
    /// A brand-new node (beyond the seed world) came online and entered
    /// the arrival grace period (malleability extension).
    NodeArrived { cycle: u64, node: usize },
    /// The expansion decision was evaluated for an arriving node: admit
    /// only if the predicted cycle time with the newcomer beats the
    /// measured one by the margin and amortizes the redistribution cost.
    ExpandEvaluated {
        cycle: u64,
        node: usize,
        predicted_with: f64,
        measured_max: f64,
        redist_cost: f64,
        /// `expand_margin` the rule was evaluated with.
        margin: f64,
        /// Cycles the redistribution cost must amortize over.
        horizon_cycles: u32,
        admitted: bool,
    },
    /// An arriving node was admitted into the computation and will
    /// receive rows in the accompanying redistribution.
    NodeAdmitted {
        cycle: u64,
        node: usize,
        /// Rows the newcomer receives in the admission redistribution.
        rows: usize,
    },
    /// The failure detector saw a silent control cycle from a node whose
    /// monitor also reads dead — the Suspect half of Suspect→Confirmed.
    NodeSuspected {
        cycle: u64,
        node: usize,
        silent_cycles: u32,
    },
    /// The detector's sustain rule fired: the node is Confirmed dead on
    /// every survivor (identically — the decision replays from broadcast
    /// control data). Recovery follows.
    NodeConfirmedDead {
        cycle: u64,
        node: usize,
        /// Consecutive silent control cycles that tripped the sustain rule.
        silent_cycles: u32,
    },
    /// Crash recovery completed: survivors rolled back to the checkpoint
    /// cycle, the dead node's rows were restored from its buddy, and the
    /// group was rebalanced.
    NodeRecovered {
        cycle: u64,
        node: usize,
        rollback_to: u64,
        restored_rows: usize,
        /// World rank of the buddy that held the dead node's checkpoint.
        holder: usize,
    },
}

impl RuntimeEvent {
    /// The phase cycle the event happened in.
    pub fn cycle(&self) -> u64 {
        match self {
            RuntimeEvent::LoadChangeDetected { cycle, .. }
            | RuntimeEvent::GraceComplete { cycle, .. }
            | RuntimeEvent::Redistributed { cycle, .. }
            | RuntimeEvent::RedistributionSkipped { cycle, .. }
            | RuntimeEvent::DropEvaluated { cycle, .. }
            | RuntimeEvent::NodesDropped { cycle, .. }
            | RuntimeEvent::NodeRejoined { cycle, .. }
            | RuntimeEvent::NodeArrived { cycle, .. }
            | RuntimeEvent::ExpandEvaluated { cycle, .. }
            | RuntimeEvent::NodeAdmitted { cycle, .. }
            | RuntimeEvent::NodeSuspected { cycle, .. }
            | RuntimeEvent::NodeConfirmedDead { cycle, .. }
            | RuntimeEvent::NodeRecovered { cycle, .. } => *cycle,
        }
    }

    /// Trace-instant attributes for this event: the cycle plus the
    /// decision-specific quantities analyzers need (redistribution cost
    /// and volume, drop predictions, load vectors). Keys are stable —
    /// they are part of the exported trace schema (DESIGN.md §10).
    ///
    /// Decision events additionally carry their time-valued inputs as
    /// exact-u64 nanoseconds (`*_ns`) and their margins as exact-u64
    /// parts-per-million (`*_ppm`), so downstream sinks (the explain
    /// engine, DESIGN.md §15) can reproduce the decision byte-identically
    /// without re-parsing floats.
    pub fn trace_args(&self) -> Vec<(&'static str, Json)> {
        let mut args = vec![("cycle", Json::UInt(self.cycle()))];
        let mut push = |k, v| args.push((k, v));
        match self {
            RuntimeEvent::LoadChangeDetected { loads, .. } => {
                push(
                    "loads",
                    Json::Arr(loads.iter().map(|&l| Json::UInt(l as u64)).collect()),
                );
            }
            RuntimeEvent::GraceComplete { mode, .. } => {
                push("mode", Json::str(format!("{mode:?}")));
            }
            RuntimeEvent::Redistributed {
                seconds,
                rows_moved,
                counts,
                ..
            } => {
                push("seconds", Json::Num(*seconds));
                push("seconds_ns", Json::UInt(secs_to_ns(*seconds)));
                push("rows_moved", Json::UInt(*rows_moved as u64));
                push(
                    "counts",
                    Json::Arr(counts.iter().map(|&c| Json::UInt(c as u64)).collect()),
                );
            }
            RuntimeEvent::RedistributionSkipped { moved_fraction, .. } => {
                push("moved_fraction", Json::Num(*moved_fraction));
                push("moved_fraction_ppm", Json::UInt(to_ppm(*moved_fraction)));
            }
            RuntimeEvent::DropEvaluated {
                predicted_unloaded,
                measured_max,
                margin,
                loaded,
                dropped,
                ..
            } => {
                push("predicted_unloaded", Json::Num(*predicted_unloaded));
                push(
                    "predicted_unloaded_ns",
                    Json::UInt(secs_to_ns(*predicted_unloaded)),
                );
                push("measured_max", Json::Num(*measured_max));
                push("measured_max_ns", Json::UInt(secs_to_ns(*measured_max)));
                push("margin_ppm", Json::UInt(to_ppm(*margin)));
                push(
                    "loaded",
                    Json::Arr(loaded.iter().map(|&n| Json::UInt(n as u64)).collect()),
                );
                push("dropped", Json::Bool(*dropped));
            }
            RuntimeEvent::NodesDropped { nodes, .. } => {
                push(
                    "nodes",
                    Json::Arr(nodes.iter().map(|&n| Json::UInt(n as u64)).collect()),
                );
            }
            RuntimeEvent::NodeRejoined { node, .. } | RuntimeEvent::NodeArrived { node, .. } => {
                push("node", Json::UInt(*node as u64));
            }
            RuntimeEvent::ExpandEvaluated {
                node,
                predicted_with,
                measured_max,
                redist_cost,
                margin,
                horizon_cycles,
                admitted,
                ..
            } => {
                push("node", Json::UInt(*node as u64));
                push("predicted_with", Json::Num(*predicted_with));
                push("predicted_with_ns", Json::UInt(secs_to_ns(*predicted_with)));
                push("measured_max", Json::Num(*measured_max));
                push("measured_max_ns", Json::UInt(secs_to_ns(*measured_max)));
                push("redist_cost", Json::Num(*redist_cost));
                push("redist_cost_ns", Json::UInt(secs_to_ns(*redist_cost)));
                push("margin_ppm", Json::UInt(to_ppm(*margin)));
                push("horizon_cycles", Json::UInt(u64::from(*horizon_cycles)));
                push("admitted", Json::Bool(*admitted));
            }
            RuntimeEvent::NodeAdmitted { node, rows, .. } => {
                push("node", Json::UInt(*node as u64));
                push("rows", Json::UInt(*rows as u64));
            }
            RuntimeEvent::NodeConfirmedDead {
                node,
                silent_cycles,
                ..
            } => {
                push("node", Json::UInt(*node as u64));
                push("silent_cycles", Json::UInt(u64::from(*silent_cycles)));
            }
            RuntimeEvent::NodeSuspected {
                node,
                silent_cycles,
                ..
            } => {
                push("node", Json::UInt(*node as u64));
                push("silent_cycles", Json::UInt(u64::from(*silent_cycles)));
            }
            RuntimeEvent::NodeRecovered {
                node,
                rollback_to,
                restored_rows,
                holder,
                ..
            } => {
                push("node", Json::UInt(*node as u64));
                push("rollback_to", Json::UInt(*rollback_to));
                push("restored_rows", Json::UInt(*restored_rows as u64));
                push("holder", Json::UInt(*holder as u64));
            }
        }
        args
    }

    /// Short tag for summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            RuntimeEvent::LoadChangeDetected { .. } => "load-change",
            RuntimeEvent::GraceComplete { .. } => "grace-complete",
            RuntimeEvent::Redistributed { .. } => "redistributed",
            RuntimeEvent::RedistributionSkipped { .. } => "redist-skipped",
            RuntimeEvent::DropEvaluated { .. } => "drop-evaluated",
            RuntimeEvent::NodesDropped { .. } => "nodes-dropped",
            RuntimeEvent::NodeRejoined { .. } => "node-rejoined",
            RuntimeEvent::NodeArrived { .. } => "node-arrived",
            RuntimeEvent::ExpandEvaluated { .. } => "expand-evaluated",
            RuntimeEvent::NodeAdmitted { .. } => "node-admitted",
            RuntimeEvent::NodeSuspected { .. } => "node-suspected",
            RuntimeEvent::NodeConfirmedDead { .. } => "node-confirmed-dead",
            RuntimeEvent::NodeRecovered { .. } => "node-recovered",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_and_kind_accessors() {
        let e = RuntimeEvent::Redistributed {
            cycle: 12,
            seconds: 0.5,
            rows_moved: 100,
            counts: vec![50, 50],
        };
        assert_eq!(e.cycle(), 12);
        assert_eq!(e.kind(), "redistributed");
        let d = RuntimeEvent::DropEvaluated {
            cycle: 30,
            predicted_unloaded: 1.0,
            measured_max: 2.0,
            margin: 1.0,
            loaded: vec![1],
            dropped: true,
        };
        assert_eq!(d.cycle(), 30);
        assert_eq!(d.kind(), "drop-evaluated");
    }

    #[test]
    fn trace_args_carry_decision_payload() {
        let e = RuntimeEvent::Redistributed {
            cycle: 12,
            seconds: 0.5,
            rows_moved: 100,
            counts: vec![50, 50],
        };
        let args = e.trace_args();
        assert_eq!(args[0], ("cycle", Json::UInt(12)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "seconds" && v.as_f64() == Some(0.5)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "seconds_ns" && *v == Json::UInt(500_000_000)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "rows_moved" && v.as_u64() == Some(100)));
        let d = RuntimeEvent::DropEvaluated {
            cycle: 30,
            predicted_unloaded: 1.0,
            measured_max: 2.0,
            margin: 1.05,
            loaded: vec![1, 3],
            dropped: true,
        };
        let args = d.trace_args();
        assert!(args
            .iter()
            .any(|(k, v)| *k == "dropped" && *v == Json::Bool(true)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "predicted_unloaded_ns" && *v == Json::UInt(1_000_000_000)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "measured_max_ns" && *v == Json::UInt(2_000_000_000)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "margin_ppm" && *v == Json::UInt(1_050_000)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "loaded" && *v == Json::Arr(vec![Json::UInt(1), Json::UInt(3)])));
    }

    #[test]
    fn arrival_events_carry_decision_payload() {
        let a = RuntimeEvent::NodeArrived { cycle: 7, node: 4 };
        assert_eq!(a.kind(), "node-arrived");
        assert_eq!(a.cycle(), 7);
        assert!(a
            .trace_args()
            .iter()
            .any(|(k, v)| *k == "node" && v.as_u64() == Some(4)));
        let e = RuntimeEvent::ExpandEvaluated {
            cycle: 12,
            node: 4,
            predicted_with: 0.8,
            measured_max: 1.0,
            redist_cost: 0.1,
            margin: 1.0,
            horizon_cycles: 50,
            admitted: true,
        };
        assert_eq!(e.kind(), "expand-evaluated");
        let args = e.trace_args();
        assert!(args
            .iter()
            .any(|(k, v)| *k == "predicted_with" && v.as_f64() == Some(0.8)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "predicted_with_ns" && *v == Json::UInt(800_000_000)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "redist_cost" && v.as_f64() == Some(0.1)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "redist_cost_ns" && *v == Json::UInt(100_000_000)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "horizon_cycles" && v.as_u64() == Some(50)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "admitted" && *v == Json::Bool(true)));
        let n = RuntimeEvent::NodeAdmitted {
            cycle: 12,
            node: 4,
            rows: 120,
        };
        assert_eq!(n.kind(), "node-admitted");
        assert_eq!(n.cycle(), 12);
        assert!(n
            .trace_args()
            .iter()
            .any(|(k, v)| *k == "rows" && v.as_u64() == Some(120)));
    }

    #[test]
    fn failure_events_carry_decision_payload() {
        let s = RuntimeEvent::NodeSuspected {
            cycle: 9,
            node: 2,
            silent_cycles: 2,
        };
        assert_eq!(s.kind(), "node-suspected");
        assert_eq!(s.cycle(), 9);
        assert!(s
            .trace_args()
            .iter()
            .any(|(k, v)| *k == "silent_cycles" && v.as_u64() == Some(2)));
        let c = RuntimeEvent::NodeConfirmedDead {
            cycle: 11,
            node: 2,
            silent_cycles: 3,
        };
        assert_eq!(c.kind(), "node-confirmed-dead");
        let args = c.trace_args();
        assert!(args
            .iter()
            .any(|(k, v)| *k == "node" && v.as_u64() == Some(2)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "silent_cycles" && v.as_u64() == Some(3)));
        let r = RuntimeEvent::NodeRecovered {
            cycle: 11,
            node: 2,
            rollback_to: 8,
            restored_rows: 40,
            holder: 3,
        };
        assert_eq!(r.kind(), "node-recovered");
        let args = r.trace_args();
        assert!(args
            .iter()
            .any(|(k, v)| *k == "rollback_to" && v.as_u64() == Some(8)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "restored_rows" && v.as_u64() == Some(40)));
        assert!(args
            .iter()
            .any(|(k, v)| *k == "holder" && v.as_u64() == Some(3)));
    }
}
