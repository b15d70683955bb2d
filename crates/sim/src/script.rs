//! Load scripts: scheduled competing-process changes.
//!
//! The paper's experiments script load changes like "start one competing
//! process on node 0 at the 10th iteration" (§5.1) or "terminate the
//! competing process at the end of the second period" (§5.2). A
//! [`LoadScript`] expresses both time-based and phase-cycle-based triggers.

use crate::params::NodeSpec;
use crate::time::{SimDur, SimTime};

/// When a load change fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// At an absolute virtual time.
    AtTime(SimTime),
    /// When the target node's application completes its n-th phase cycle
    /// (1-based: `AtPhaseCycle(10)` fires at the end of cycle 10).
    AtPhaseCycle(u64),
}

/// One scripted change: set the competing-process count on a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadEvent {
    pub node: usize,
    pub trigger: Trigger,
    pub ncp: u32,
}

/// A scripted node arrival: a brand-new node (with its own hardware
/// description) comes online mid-run — the malleability counterpart of the
/// paper's node *removal*. The cluster allocates one extra rank per
/// arrival, numbered after the seed nodes in script order; the node's
/// monitors read as offline (`dmpi_ps` = 0) until `at + cold_start`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeArrival {
    /// Virtual time the node is requested (e.g. the spot instance is won).
    pub at: SimTime,
    /// Hardware of the arriving node.
    pub spec: NodeSpec,
    /// Boot/provisioning delay: the node is online at `at + cold_start`.
    pub cold_start: SimDur,
    /// NIC bandwidth of the arriving node in bytes/s (`None` = the
    /// cluster-wide [`crate::NetParams::bandwidth`]).
    pub nic_bandwidth: Option<f64>,
}

impl NodeArrival {
    /// Virtual time the node's monitors start reporting it as online.
    pub fn online_at(&self) -> SimTime {
        self.at + self.cold_start
    }
}

/// How a scripted crash manifests (both kill the node's NIC; the kinds
/// differ in what happens to the local process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// The node halts: its ranks stop executing at the crash time and its
    /// monitors go silent.
    FailStop,
    /// The node is cut off the network but keeps running: its ranks
    /// continue locally (and can observe their own timeouts), but no
    /// message crosses its NIC and remote monitor reads go silent.
    Partition,
}

/// A scripted fail-stop or partition fault on a virtual node.
///
/// Crash triggers are *absolute virtual times* (never phase cycles): the
/// engine must decide "is this NIC dead at arrival `t`?" when it lands a
/// frame, which can be before the crashing node's own rank has executed
/// up to `t` — only a statically known crash time allows that, the same
/// reason arrivals are time-based. To crash *during* a redistribution, aim
/// the time inside the redistribution window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeCrash {
    pub at: SimTime,
    pub node: usize,
    pub kind: CrashKind,
}

/// A full experiment load schedule.
#[derive(Clone, Debug, Default)]
pub struct LoadScript {
    events: Vec<LoadEvent>,
    arrivals: Vec<NodeArrival>,
    crashes: Vec<NodeCrash>,
}

impl LoadScript {
    /// An empty script: all nodes stay dedicated.
    pub fn dedicated() -> Self {
        LoadScript::default()
    }

    /// Adds a time-triggered change.
    pub fn at_time(mut self, node: usize, t: SimTime, ncp: u32) -> Self {
        self.events.push(LoadEvent {
            node,
            trigger: Trigger::AtTime(t),
            ncp,
        });
        self
    }

    /// Adds a phase-cycle-triggered change.
    pub fn at_cycle(mut self, node: usize, cycle: u64, ncp: u32) -> Self {
        assert!(cycle > 0, "phase cycles are 1-based");
        self.events.push(LoadEvent {
            node,
            trigger: Trigger::AtPhaseCycle(cycle),
            ncp,
        });
        self
    }

    /// Adds a node arrival. The arriving node gets the next rank after the
    /// seed nodes (in arrival insertion order) and reads as offline until
    /// `at + cold_start`.
    pub fn node_arrival(mut self, at: SimTime, spec: NodeSpec, cold_start: SimDur) -> Self {
        self.arrivals.push(NodeArrival {
            at,
            spec,
            cold_start,
            nic_bandwidth: None,
        });
        self
    }

    /// Adds a node arrival with an explicit NIC bandwidth (bytes/s).
    pub fn node_arrival_with_nic(
        mut self,
        at: SimTime,
        spec: NodeSpec,
        cold_start: SimDur,
        nic_bandwidth: f64,
    ) -> Self {
        assert!(nic_bandwidth > 0.0, "NIC bandwidth must be positive");
        self.arrivals.push(NodeArrival {
            at,
            spec,
            cold_start,
            nic_bandwidth: Some(nic_bandwidth),
        });
        self
    }

    /// Schedules a fail-stop crash: node `node` halts at virtual time
    /// `at`. Its ranks stop executing at the next operation boundary, all
    /// in-flight and future messages from/to the node are dropped, and
    /// remote monitor reads of it return 0.
    pub fn node_crash(mut self, at: SimTime, node: usize) -> Self {
        assert!(
            !self.crashes.iter().any(|c| c.node == node),
            "node {node} already has a scripted crash"
        );
        self.crashes.push(NodeCrash {
            at,
            node,
            kind: CrashKind::FailStop,
        });
        self
    }

    /// Schedules a network partition: node `node` is cut off the network
    /// at `at` but its ranks keep running locally. Survivors observe
    /// exactly the same silence as a fail-stop crash.
    pub fn node_partition(mut self, at: SimTime, node: usize) -> Self {
        assert!(
            !self.crashes.iter().any(|c| c.node == node),
            "node {node} already has a scripted crash"
        );
        self.crashes.push(NodeCrash {
            at,
            node,
            kind: CrashKind::Partition,
        });
        self
    }

    /// Scripted crashes, in insertion order.
    pub fn crashes(&self) -> &[NodeCrash] {
        &self.crashes
    }

    /// The scripted crash of `node`, if any.
    pub fn crash_of(&self, node: usize) -> Option<NodeCrash> {
        self.crashes.iter().find(|c| c.node == node).copied()
    }

    /// All events, in insertion order.
    pub fn events(&self) -> &[LoadEvent] {
        &self.events
    }

    /// Scripted node arrivals, in insertion order (= rank order after the
    /// seed nodes).
    pub fn arrivals(&self) -> &[NodeArrival] {
        &self.arrivals
    }

    /// Splits the script per node: `(time events, cycle events)`, each
    /// sorted by their trigger. Used by the cluster builder.
    #[allow(clippy::type_complexity)]
    pub fn split_for_node(&self, node: usize) -> (Vec<(SimTime, u32)>, Vec<(u64, u32)>) {
        let mut times = Vec::new();
        let mut cycles = Vec::new();
        for e in &self.events {
            if e.node != node {
                continue;
            }
            match e.trigger {
                Trigger::AtTime(t) => times.push((t, e.ncp)),
                Trigger::AtPhaseCycle(c) => cycles.push((c, e.ncp)),
            }
        }
        times.sort_by_key(|&(t, _)| t);
        cycles.sort_by_key(|&(c, _)| c);
        (times, cycles)
    }

    /// True when the script never loads any node.
    pub fn is_dedicated(&self) -> bool {
        self.events.iter().all(|e| e.ncp == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_filters_and_sorts() {
        let s = LoadScript::dedicated()
            .at_cycle(1, 20, 0)
            .at_cycle(1, 10, 1)
            .at_time(0, SimTime::from_secs(5), 2)
            .at_time(0, SimTime::from_secs(1), 1)
            .at_cycle(2, 3, 1);
        let (t0, c0) = s.split_for_node(0);
        assert_eq!(
            t0,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(5), 2)]
        );
        assert!(c0.is_empty());
        let (t1, c1) = s.split_for_node(1);
        assert!(t1.is_empty());
        assert_eq!(c1, vec![(10, 1), (20, 0)]);
        let (_, c2) = s.split_for_node(2);
        assert_eq!(c2, vec![(3, 1)]);
    }

    #[test]
    fn dedicated_detection() {
        assert!(LoadScript::dedicated().is_dedicated());
        assert!(LoadScript::dedicated().at_cycle(0, 5, 0).is_dedicated());
        assert!(!LoadScript::dedicated().at_cycle(0, 5, 1).is_dedicated());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn cycle_zero_rejected() {
        let _ = LoadScript::dedicated().at_cycle(0, 0, 1);
    }

    #[test]
    fn arrivals_record_order_and_online_time() {
        let s = LoadScript::dedicated()
            .node_arrival(
                SimTime::from_secs(1),
                NodeSpec::with_speed(2e6),
                SimDur::from_millis(500),
            )
            .node_arrival_with_nic(
                SimTime::from_secs(3),
                NodeSpec::with_speed(1e6),
                SimDur::ZERO,
                6.25e6,
            );
        assert_eq!(s.arrivals().len(), 2);
        assert_eq!(s.arrivals()[0].online_at(), SimTime::from_millis(1500));
        assert_eq!(s.arrivals()[0].nic_bandwidth, None);
        assert_eq!(s.arrivals()[1].online_at(), SimTime::from_secs(3));
        assert_eq!(s.arrivals()[1].nic_bandwidth, Some(6.25e6));
        // Arrivals alone keep the script "dedicated": no competing load.
        assert!(s.is_dedicated());
    }

    #[test]
    fn crashes_record_kind_and_lookup() {
        let s = LoadScript::dedicated()
            .node_crash(SimTime::from_secs(2), 1)
            .node_partition(SimTime::from_secs(4), 3);
        assert_eq!(s.crashes().len(), 2);
        assert_eq!(
            s.crash_of(1),
            Some(NodeCrash {
                at: SimTime::from_secs(2),
                node: 1,
                kind: CrashKind::FailStop,
            })
        );
        assert_eq!(s.crash_of(3).unwrap().kind, CrashKind::Partition);
        assert_eq!(s.crash_of(0), None);
        // Crashes alone keep the script "dedicated": no competing load.
        assert!(s.is_dedicated());
    }

    #[test]
    #[should_panic(expected = "already has a scripted crash")]
    fn duplicate_crash_rejected() {
        let _ = LoadScript::dedicated()
            .node_crash(SimTime::from_secs(1), 0)
            .node_partition(SimTime::from_secs(2), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_nic_bandwidth_rejected() {
        let _ = LoadScript::dedicated().node_arrival_with_nic(
            SimTime::ZERO,
            NodeSpec::default(),
            SimDur::ZERO,
            0.0,
        );
    }
}
