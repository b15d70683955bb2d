//! Failure-injection and edge-case tests for the runtime: degenerate
//! clusters, hostile load patterns, and misuse that must fail loudly.

#[allow(dead_code)] // the time-triggered scenarios live in `runtime::tests`
mod drive;

use drive::{cluster, drive, RankOut, Scenario};
use dynmpi::{DropPolicy, DynMpi, DynMpiConfig};
use dynmpi_comm::SimTransport;
use dynmpi_sim::LoadScript;

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
