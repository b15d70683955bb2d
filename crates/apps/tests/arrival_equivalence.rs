//! Engine-mode equivalence for the malleability paths: a Jacobi run with
//! a scripted node arrival (and one with a drop → clear → rejoin) must
//! produce bit-identical per-rank results, makespan and traffic under the
//! stepped and fast-forward simulator engines, and adaptation must never
//! change the numerical answer: the checksum and the state digest equal
//! a dedicated run's, exactly.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{judge, Engines, Reference};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::{AppSpec, Experiment};
use dynmpi_sim::{LoadScript, NodeSpec, SimDur, SimTime};

#[test]
fn jacobi_node_arrival_is_engine_invariant_and_absorbed() {
    let base = Experiment::new(AppSpec::Jacobi(JacobiParams::small(48, 60)), 2)
        .with_node_spec(NodeSpec::with_speed(1e6));
    let script = LoadScript::dedicated().node_arrival(
        SimTime::from_millis(60),
        NodeSpec::with_speed(1e6),
        SimDur::from_millis(20),
    );
    let cfg = DynMpiConfig {
        arrival_retry_cycles: 4,
        ..Default::default()
    };
    let exp = base.clone().with_script(script).with_cfg(cfg);
    let v = judge(&exp, &Reference::of(&base), Engines::Both);
    assert_eq!(v.engine_diffs, Some(vec![]));

    let out = &v.run;
    assert_eq!(out.per_rank.len(), 3, "arrival allocates a third rank");
    assert!(
        v.kinds.contains(&"node-admitted"),
        "newcomer must be admitted: {:?}",
        out.events()
    );
    assert!(
        out.per_rank[2].participating && out.per_rank[2].final_rows > 0,
        "admitted rank owns rows at the end: {:?}",
        out.per_rank[2].final_rows
    );

    // Growing the job never changes the answer.
    assert!(v.checksum_exact && v.digest_exact);
}

#[test]
fn jacobi_node_removal_is_engine_invariant() {
    // Pure shrink: one seed node gets permanent competing load and is
    // dropped for good (no rejoin). The removal collective — including the
    // dropped rank's early exit — must be invisible to the engine mode.
    let base = Experiment::new(AppSpec::Jacobi(JacobiParams::small(48, 60)), 4)
        .with_node_spec(NodeSpec::with_speed(1e6));
    let script = LoadScript::dedicated().at_cycle(3, 8, 2);
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Always,
        ..Default::default()
    };
    let exp = base.clone().with_script(script).with_cfg(cfg);
    let v = judge(&exp, &Reference::of(&base), Engines::Both);
    assert_eq!(v.engine_diffs, Some(vec![]));

    assert!(v.kinds.contains(&"nodes-dropped"), "{:?}", v.kinds);
    // The loaded node stays dropped without rejoin; the others finish.
    assert_eq!(v.survivors, [0, 1, 2]);

    assert!(v.checksum_exact && v.digest_exact);
}

#[test]
fn jacobi_drop_then_rejoin_is_engine_invariant() {
    // Recovery scenario: a seed node gets loaded, is dropped, clears, and
    // is re-admitted through the rejoin path — all engine-invariant. The
    // monitor daemon samples once per virtual second, so the script's
    // load/clear events are observed with up to 1 s lag; 100 cycles give
    // the full drop → clear → rejoin arc room to complete.
    let base = Experiment::new(AppSpec::Jacobi(JacobiParams::small(48, 100)), 3)
        .with_node_spec(NodeSpec::with_speed(1e6));
    let script = LoadScript::dedicated().at_cycle(2, 8, 2).at_cycle(2, 30, 0);
    let cfg = DynMpiConfig {
        drop_policy: DropPolicy::Always,
        allow_rejoin: true,
        rejoin_after_cycles: 3,
        grace_period: 2,
        post_redist_period: 2,
        ..Default::default()
    };
    let exp = base.clone().with_script(script).with_cfg(cfg);
    let v = judge(&exp, &Reference::of(&base), Engines::Both);
    assert_eq!(v.engine_diffs, Some(vec![]));

    assert!(v.kinds.contains(&"nodes-dropped"), "{:?}", v.kinds);
    assert!(v.kinds.contains(&"node-rejoined"), "{:?}", v.kinds);
    assert_eq!(v.survivors, [0, 1, 2], "everyone is back at the end");

    assert!(v.checksum_exact && v.digest_exact);
}
