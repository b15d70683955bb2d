//! Runtime configuration.

/// Which distribution algorithm the runtime uses (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancerKind {
    /// Proportional to relative power `speed / (1 + ncp)` — the "naive"
    /// baseline the paper attributes to CRAUL-style systems.
    RelativePower,
    /// Successive balancing: relative power corrected by the CPU cost of
    /// communication on loaded nodes (the paper's contribution).
    SuccessiveBalancing,
}

/// What to do with nodes whose participation hurts (§4.4, §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropPolicy {
    /// Never remove nodes; keep rebalancing over everyone.
    Never,
    /// Decide from the post-redistribution measurement vs. the predicted
    /// unloaded-configuration time (the paper's automatic policy).
    Auto,
    /// Always remove loaded nodes after the post-redistribution grace
    /// period (used by the Figure 6 harness to force the Drop arm).
    Always,
    /// *Logical* dropping: loaded nodes stay in the computation with a
    /// minimum share so ranks remain static (§2.2's alternative).
    Logical,
}

/// Tunables of the Dyn-MPI runtime. Defaults follow the paper.
#[derive(Clone, Debug)]
pub struct DynMpiConfig {
    /// Master switch: with adaptation off the runtime only monitors
    /// (the "no Dyn-MPI" arm of every experiment).
    pub adapt: bool,
    /// Cycles of measurement after a load change before redistributing
    /// (paper default: 5).
    pub grace_period: u32,
    /// Cycles of measurement after a redistribution before the node
    /// removal decision (paper default: 10).
    pub post_redist_period: u32,
    /// Distribution algorithm.
    pub balancer: BalancerKind,
    /// Node removal policy.
    pub drop_policy: DropPolicy,
    /// Minimum rows kept by a logically dropped node.
    pub min_rows_logical: usize,
    /// Re-admit removed nodes when their load clears (future-work
    /// extension; off by default to match the paper).
    pub allow_rejoin: bool,
    /// Consecutive load-free cycles a removed node must show to rejoin.
    pub rejoin_after_cycles: u32,
    /// Expected scheduler-slice wait per blocking receive per competing
    /// process, as a fraction of the quantum. With the OS wake-up boost
    /// the residual wait is small (default 0.05); refined by the
    /// micro-benchmark calibration of §4.3.
    pub wait_factor: f64,
    /// Stop reacting to load changes after this many redistributions
    /// (the Figure 5 "Redist Once" arm). `None` = unlimited.
    pub max_redistributions: Option<u32>,
    /// World ranks `0..seed_world` start in the computation; ranks at or
    /// beyond it are reserved for *arrivals* — brand-new nodes that come
    /// online mid-run and must be admitted through the expansion decision
    /// before receiving rows. `None` = the whole world is seeded (no
    /// malleability, the paper's model).
    pub seed_world: Option<usize>,
    /// Relative speed of each world rank's node (flops relative to a
    /// reference node), for heterogeneous balancing. Empty = all 1.0.
    pub node_speeds: Vec<f64>,
    /// Admit an arriving node only if the predicted cycle time with it is
    /// at least this much faster than the measured one (1.0 = any
    /// improvement).
    pub expand_margin: f64,
    /// Evaluate pending arrivals every this many cycles (a deterministic
    /// retry gate, so a rejected newcomer is reconsidered as conditions
    /// change without re-measuring every cycle).
    pub arrival_retry_cycles: u32,
    /// Master switch for the fail-stop failure path: timeout-guarded
    /// control receives, the replicated failure detector, buddy
    /// checkpoints and crash recovery. Off by default — classic runs stay
    /// byte-identical with earlier releases (no extra control payload).
    pub failure_detection: bool,
    /// Seconds a control-plane or ghost receive waits before reporting a
    /// peer timeout (the detector's per-cycle silence probe).
    pub peer_timeout_seconds: f64,
    /// Consecutive silent cycles before a Suspect escalates to Confirmed
    /// dead — the detector's sustain rule, mirroring the health monitor's.
    pub failure_confirm_cycles: u32,
    /// Refresh buddy checkpoints every this many cycles *between*
    /// redistributions (they always refresh at setup and on every
    /// redistribution). 0 = piggyback-only refreshes.
    pub checkpoint_interval_cycles: u32,
}

impl Default for DynMpiConfig {
    fn default() -> Self {
        DynMpiConfig {
            adapt: true,
            grace_period: 5,
            post_redist_period: 10,
            balancer: BalancerKind::SuccessiveBalancing,
            drop_policy: DropPolicy::Auto,
            min_rows_logical: 1,
            allow_rejoin: false,
            rejoin_after_cycles: 3,
            wait_factor: 0.05,
            max_redistributions: None,
            seed_world: None,
            node_speeds: Vec::new(),
            expand_margin: 1.0,
            arrival_retry_cycles: 8,
            failure_detection: false,
            peer_timeout_seconds: 0.5,
            failure_confirm_cycles: 3,
            checkpoint_interval_cycles: 0,
        }
    }
}

impl DynMpiConfig {
    /// The paper's configuration with adaptation disabled entirely.
    pub fn no_adapt() -> Self {
        DynMpiConfig {
            adapt: false,
            ..Default::default()
        }
    }

    /// Validates invariants; called by `DynMpi::init`.
    pub fn validate(&self) {
        assert!(
            self.grace_period >= 1,
            "grace period must be at least 1 cycle"
        );
        assert!(
            self.post_redist_period >= 1,
            "post-redistribution period must be ≥ 1"
        );
        assert!(self.wait_factor >= 0.0);
        if let Some(seed) = self.seed_world {
            assert!(seed >= 1, "seed world must have at least one rank");
        }
        assert!(
            self.node_speeds.iter().all(|&s| s > 0.0),
            "node speeds must be positive"
        );
        assert!(self.expand_margin > 0.0);
        assert!(
            self.arrival_retry_cycles >= 1,
            "arrival retry gate must be ≥ 1 cycle"
        );
        if self.failure_detection {
            assert!(
                self.adapt,
                "failure detection rides on the adaptive control plane"
            );
            assert!(
                self.peer_timeout_seconds > 0.0,
                "peer timeout must be positive when failure detection is on"
            );
            assert!(
                self.failure_confirm_cycles >= 1,
                "failure confirmation must sustain ≥ 1 cycle"
            );
        }
    }

    /// Relative speed of world rank `r`'s node (1.0 when unspecified).
    pub fn speed_of(&self, r: usize) -> f64 {
        self.node_speeds.get(r).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DynMpiConfig::default();
        assert_eq!(c.grace_period, 5);
        assert_eq!(c.post_redist_period, 10);
        assert_eq!(c.balancer, BalancerKind::SuccessiveBalancing);
        assert_eq!(c.drop_policy, DropPolicy::Auto);
        assert!(c.adapt);
        c.validate();
    }

    #[test]
    fn no_adapt_preset() {
        let c = DynMpiConfig::no_adapt();
        assert!(!c.adapt);
        c.validate();
    }

    #[test]
    fn speed_of_defaults_to_unity_beyond_vector() {
        let c = DynMpiConfig {
            node_speeds: vec![1.0, 2.0],
            ..Default::default()
        };
        assert_eq!(c.speed_of(1), 2.0);
        assert_eq!(c.speed_of(5), 1.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_node_speed_rejected() {
        let c = DynMpiConfig {
            node_speeds: vec![1.0, 0.0],
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retry gate")]
    fn zero_arrival_retry_rejected() {
        let c = DynMpiConfig {
            arrival_retry_cycles: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn failure_detection_off_by_default() {
        let c = DynMpiConfig::default();
        assert!(!c.failure_detection);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "peer timeout")]
    fn zero_peer_timeout_rejected_when_detecting() {
        let c = DynMpiConfig {
            failure_detection: true,
            peer_timeout_seconds: 0.0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "control plane")]
    fn failure_detection_requires_adapt() {
        let c = DynMpiConfig {
            adapt: false,
            failure_detection: true,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sustain")]
    fn zero_confirm_cycles_rejected_when_detecting() {
        let c = DynMpiConfig {
            failure_detection: true,
            failure_confirm_cycles: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "grace period")]
    fn zero_grace_rejected() {
        let c = DynMpiConfig {
            grace_period: 0,
            ..Default::default()
        };
        c.validate();
    }
}
