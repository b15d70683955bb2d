//! Failure-injection and edge-case tests for the runtime: degenerate
//! clusters, hostile load patterns, and misuse that must fail loudly.

#[allow(dead_code)] // the time-triggered scenarios live in `runtime::tests`
mod drive;

use drive::{cluster, drive, RankOut, Scenario};
use dynmpi::{DropPolicy, DynMpi, DynMpiConfig};
use dynmpi_comm::SimTransport;
use dynmpi_sim::{LoadScript, NodeSpec, SimDur};

/// Runs the halo application (ghost exchange every step) under `script`;
/// data integrity and replica agreement are checked inside the driver.
fn run(
    nodes: usize,
    nrows: usize,
    steps: u64,
    cfg: DynMpiConfig,
    script: LoadScript,
) -> Vec<RankOut> {
    let mut sc = Scenario::new(nodes, nrows, steps, cfg).script(script);
    sc.ghosts = true;
    drive(&sc).into_iter().flatten().collect()
}

#[test]
fn single_node_cluster_is_a_noop() {
    // A load change on the only node: grace runs, but there is nowhere to
    // move work and no one to drop.
    let script = LoadScript::dedicated().at_cycle(0, 2, 3);
    let out = run(1, 8, 12, DynMpiConfig::default(), script);
    assert!(out[0].participating);
    assert_eq!(out[0].rows, 8);
    assert!(out[0].kinds().contains(&"grace-complete"));
}

#[test]
fn all_nodes_loaded_never_drops() {
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Auto,
        grace_period: 2,
        ..Default::default()
    };
    let script = (0..3).fold(LoadScript::dedicated(), |s, n| s.at_cycle(n, 2, 2));
    let out = run(3, 24, 20, cfg, script);
    for o in &out {
        assert!(
            o.participating,
            "uniformly loaded cluster must keep everyone"
        );
        assert!(!o.kinds().contains(&"nodes-dropped"));
        // Uniform load ⇒ balanced shares stay (roughly) even.
        assert!(o.rows >= 7, "{:?}", o.counts);
    }
}

#[test]
fn load_spike_during_post_redist_window_is_deferred() {
    // A second load change while the runtime is inside grace/post-redist
    // must not wedge the state machine; it is handled at the next stable
    // cycle.
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Never,
        grace_period: 3,
        ..Default::default()
    };
    let script = LoadScript::dedicated().at_cycle(1, 2, 1).at_cycle(2, 7, 2);
    for o in run(3, 24, 40, cfg, script) {
        let kinds = o.kinds();
        assert!(
            o.count("load-change") >= 2,
            "second change must eventually be processed: {kinds:?}"
        );
    }
}

#[test]
fn oscillating_load_does_not_thrash_forever() {
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Never,
        grace_period: 1,
        ..Default::default()
    };
    // Load flips every 6 cycles.
    let script = (1..7).fold(LoadScript::dedicated(), |s, k| {
        s.at_cycle(1, 6 * k, (k % 2) as u32)
    });
    let out = run(2, 16, 40, cfg, script);
    for o in &out {
        assert!(o.participating);
        assert!(o.rows > 0);
    }
    assert_eq!(out.iter().map(|o| o.rows).sum::<usize>(), 16);
}

#[test]
fn max_redistributions_caps_adaptation() {
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Never,
        grace_period: 1,
        max_redistributions: Some(1),
        ..Default::default()
    };
    let script = LoadScript::dedicated().at_cycle(1, 2, 2).at_cycle(1, 15, 0);
    for o in run(2, 16, 40, cfg, script) {
        assert_eq!(o.count("redistributed"), 1, "{:?}", o.kinds());
    }
}

/// Regression: a rank admitted after `max_redistributions` was reached
/// used to enter with a redistribution count of 0, so the next load change
/// sent it alone into a grace period, where it blocked in the weight
/// allgather — a simulation deadlock. Under a cap the joiner's status tail
/// ships the count.
#[test]
fn joiner_inherits_the_redistribution_cap() {
    let cfg = DynMpiConfig {
        seed_world: Some(2),
        max_redistributions: Some(1),
        grace_period: 2,
        arrival_retry_cycles: 1,
        drop_policy: DropPolicy::Never,
        ..Default::default()
    };
    let sc = Scenario::new(2, 30, 60, cfg);
    let arrival = sc.at(0.3);
    let script = LoadScript::dedicated()
        .at_cycle(0, 2, 2)
        .node_arrival(arrival, NodeSpec::with_speed(1e6), SimDur::ZERO)
        .at_cycle(1, 40, 2);
    let outs: Vec<RankOut> = drive(&sc.script(script)).into_iter().flatten().collect();
    for o in &outs[..2] {
        // The second load change comes after the cap: nobody reacts.
        assert_eq!(o.count("load-change"), 1, "{:?}", o.kinds());
        assert_eq!(o.count("redistributed"), 1, "{:?}", o.kinds());
    }
    assert_eq!(outs[2].kinds(), ["node-admitted"], "the newcomer joined");
    assert!(outs.iter().all(|o| o.members == [0, 1, 2]), "{outs:?}");
}

/// Regression: the apps call `request_rebalance` on every rank, removed or
/// not. A rank dropped before the actives consumed the request used to keep
/// it, rejoin, and enter a grace period alone, blocking in the weight
/// allgather — a simulation deadlock. Every admission now drops the
/// request (`State::transition`); each request here lands before node 2's
/// rejoin.
#[test]
fn rebalance_request_does_not_outlive_a_removal() {
    let cfg = DynMpiConfig {
        allow_rejoin: true,
        rejoin_after_cycles: 2,
        drop_policy: DropPolicy::Always,
        grace_period: 2,
        post_redist_period: 2,
        ..Default::default()
    };
    let script = LoadScript::dedicated().at_cycle(2, 1, 2).at_cycle(2, 12, 0);
    for at in (2..=16).step_by(2) {
        let mut sc = Scenario::new(3, 60, 30, cfg.clone()).script(script.clone());
        sc.rebalance_at = Some(at);
        let outs: Vec<RankOut> = drive(&sc).into_iter().flatten().collect();
        let kinds = outs[0].kinds();
        assert!(kinds.contains(&"nodes-dropped"), "{at}: {kinds:?}");
        assert!(kinds.contains(&"node-rejoined"), "{at}: {kinds:?}");
        assert!(outs.iter().all(|o| o.participating), "{at}: {outs:?}");
    }
}

/// Regression: the seed ranks consume a rebalance request only in
/// `Stable`. One made just before an arrival was consumed without the
/// newcomer, which kept it; one made inside the arrival's grace window
/// (cycles 9–11 here) outlived the window on the seed ranks. Either way
/// the replicas could split at the admission, and one side entered a grace
/// period alone, blocking in the weight allgather. Every admission now
/// clears the request on every side: it has just redistributed.
#[test]
fn rebalance_request_does_not_outlive_an_admission() {
    let cfg = DynMpiConfig {
        seed_world: Some(2),
        grace_period: 2,
        arrival_retry_cycles: 1,
        expand_margin: 1e-6,
        drop_policy: DropPolicy::Never,
        ..Default::default()
    };
    let sc = Scenario::new(2, 30, 30, cfg);
    let arrival = sc.at(0.3);
    let script =
        LoadScript::dedicated().node_arrival(arrival, NodeSpec::with_speed(1e6), SimDur::ZERO);
    for at in 6..=14 {
        let mut sc = sc.clone().script(script.clone());
        sc.rebalance_at = Some(at);
        let outs: Vec<RankOut> = drive(&sc).into_iter().flatten().collect();
        assert_eq!(outs[2].kinds()[0], "node-admitted", "{at}: {outs:?}");
        assert!(
            outs.iter().all(|o| o.members == [0, 1, 2]),
            "{at}: {outs:?}"
        );
    }
}

#[test]
fn setup_misuse_fails_loudly() {
    let r = std::panic::catch_unwind(|| {
        cluster(1).run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let mut rt = DynMpi::init(&t, 8, DynMpiConfig::default());
            rt.register_dense("A", 8);
            // Wrong number of arrays at setup.
            rt.setup(&mut []);
        });
    });
    assert!(r.is_err());
}

#[test]
fn fewer_rows_than_ranks_rejected() {
    let r = std::panic::catch_unwind(|| {
        cluster(4).run_spmd(|ctx| {
            let _ = DynMpi::init(&SimTransport::new(ctx), 2, DynMpiConfig::default());
        });
    });
    assert!(r.is_err());
}
