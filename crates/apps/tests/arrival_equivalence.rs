//! Engine-mode equivalence for the malleability paths: a Jacobi run with
//! a scripted node arrival (and one with a drop → clear → rejoin) must
//! produce bit-identical per-rank results under the stepped and
//! fast-forward simulator engines, and adaptation must never change the
//! numerical answer.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{run_sim, run_sim_on};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::{AppSpec, Experiment, SimRunResult};
use dynmpi_sim::{LoadScript, NodeSpec, SimDur, SimTime};

/// Runs the experiment under both engines and asserts every output is
/// bit-identical. Returns the fast-mode result.
fn assert_engine_equivalent(exp: &Experiment) -> SimRunResult {
    let stepped = run_sim_on(exp, exp.cluster().with_stepped(true));
    let fast = run_sim(exp);
    assert_eq!(
        stepped.per_rank, fast.per_rank,
        "per-rank results diverged between engines"
    );
    assert!(
        stepped.makespan == fast.makespan,
        "makespan diverged: {} vs {}",
        stepped.makespan,
        fast.makespan
    );
    assert_eq!(stepped.net_messages, fast.net_messages);
    assert_eq!(stepped.net_bytes, fast.net_bytes);
    fast
}

#[test]
fn jacobi_node_arrival_is_engine_invariant_and_absorbed() {
    let p = JacobiParams::small(48, 60);
    let script = LoadScript::dedicated().node_arrival(
        SimTime::from_millis(60),
        NodeSpec::with_speed(1e6),
        SimDur::from_millis(20),
    );
    let cfg = DynMpiConfig {
        arrival_retry_cycles: 4,
        ..Default::default()
    };
    let exp = Experiment::new(AppSpec::Jacobi(p.clone()), 2)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_cfg(cfg);
    let out = assert_engine_equivalent(&exp);

    assert_eq!(out.per_rank.len(), 3, "arrival allocates a third rank");
    assert!(
        out.events().iter().any(|e| e.kind() == "node-admitted"),
        "newcomer must be admitted: {:?}",
        out.events()
    );
    assert!(
        out.per_rank[2].participating && out.per_rank[2].final_rows > 0,
        "admitted rank owns rows at the end: {:?}",
        out.per_rank[2].final_rows
    );

    // Growing the job never changes the answer.
    let baseline =
        run_sim(&Experiment::new(AppSpec::Jacobi(p), 2).with_node_spec(NodeSpec::with_speed(1e6)));
    assert_eq!(out.checksum(), baseline.checksum());
}

#[test]
fn jacobi_node_removal_is_engine_invariant() {
    // Pure shrink: one seed node gets permanent competing load and is
    // dropped for good (no rejoin). The removal collective — including the
    // dropped rank's early exit — must be invisible to the engine mode.
    let p = JacobiParams::small(48, 60);
    let script = LoadScript::dedicated().at_cycle(3, 8, 2);
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Always,
        ..Default::default()
    };
    let exp = Experiment::new(AppSpec::Jacobi(p.clone()), 4)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_cfg(cfg);
    let out = assert_engine_equivalent(&exp);

    let kinds: Vec<&str> = out.events().iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"nodes-dropped"), "{kinds:?}");
    assert!(
        !out.per_rank[3].participating,
        "loaded node stays dropped without rejoin"
    );
    assert!(
        out.per_rank[..3].iter().all(|r| r.participating),
        "survivors finish the computation"
    );

    let baseline =
        run_sim(&Experiment::new(AppSpec::Jacobi(p), 4).with_node_spec(NodeSpec::with_speed(1e6)));
    assert_eq!(out.checksum(), baseline.checksum());
}

#[test]
fn jacobi_drop_then_rejoin_is_engine_invariant() {
    // Recovery scenario: a seed node gets loaded, is dropped, clears, and
    // is re-admitted through the rejoin path — all engine-invariant. The
    // monitor daemon samples once per virtual second, so the script's
    // load/clear events are observed with up to 1 s lag; 100 cycles give
    // the full drop → clear → rejoin arc room to complete.
    let p = JacobiParams::small(48, 100);
    let script = LoadScript::dedicated().at_cycle(2, 8, 2).at_cycle(2, 30, 0);
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Always,
        allow_rejoin: true,
        rejoin_after_cycles: 3,
        grace_period: 2,
        post_redist_period: 2,
        ..Default::default()
    };
    let exp = Experiment::new(AppSpec::Jacobi(p.clone()), 3)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_cfg(cfg);
    let out = assert_engine_equivalent(&exp);

    let kinds: Vec<&str> = out.events().iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"nodes-dropped"), "{kinds:?}");
    assert!(kinds.contains(&"node-rejoined"), "{kinds:?}");
    assert!(
        out.per_rank.iter().all(|r| r.participating),
        "everyone is back at the end"
    );

    let baseline =
        run_sim(&Experiment::new(AppSpec::Jacobi(p), 3).with_node_spec(NodeSpec::with_speed(1e6)));
    assert_eq!(out.checksum(), baseline.checksum());
}
