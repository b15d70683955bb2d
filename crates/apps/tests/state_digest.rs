//! The state digest on the virtual cluster: Jacobi's, SOR's and
//! particle's final grid is the 1-rank dedicated run's bit for bit, at
//! any node count, across a rebalance and a drop, and under either
//! engine. The checksum, which
//! sums the same rows in partition order, can only be held to a
//! tolerance; the digest is exact.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{judge, Engines, Reference};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::particle::ParticleParams;
use dynmpi_apps::sor::SorParams;
use dynmpi_apps::{AppSpec, Experiment};
use dynmpi_sim::{LoadScript, NodeSpec};

fn apps() -> [AppSpec; 3] {
    [
        AppSpec::Jacobi(JacobiParams::small(48, 60)),
        AppSpec::Sor(SorParams::small(48, 60)),
        AppSpec::Particle(ParticleParams::small(48, 16, 60)),
    ]
}

/// One digest at 1–4 nodes, where the checksum's last bits move with
/// the partition; a run one sweep short has another digest.
#[test]
fn digest_is_the_one_rank_runs_at_every_node_count() {
    for app in apps() {
        let one = Experiment::new(app.clone(), 1).with_cfg(DynMpiConfig::no_adapt());
        let reference = Reference::of(&one);
        let mut checksum_moved = false;
        for nodes in 2..=4 {
            let exp = Experiment::new(app.clone(), nodes).with_cfg(DynMpiConfig::no_adapt());
            let v = judge(&exp, &reference, Engines::Fast(None));
            assert!(v.digest_exact, "{} on {nodes} nodes", app.name());
            checksum_moved |= !v.checksum_exact;
        }
        assert!(
            checksum_moved,
            "{}: the checksum rounds by partition",
            app.name()
        );
    }
    let short = Experiment::new(AppSpec::Jacobi(JacobiParams::small(48, 59)), 1);
    let jacobi = Reference::of(&Experiment::new(apps()[0].clone(), 1));
    let v = judge(
        &short.with_cfg(DynMpiConfig::no_adapt()),
        &jacobi,
        Engines::Fast(None),
    );
    assert_ne!(v.run.state_digest(), jacobi.one_rank_digest);
}

/// An explicit mid-run rebalance on a loaded cluster moves rows; the
/// final grid is the one a single rank computes.
#[test]
fn digest_survives_a_rebalance() {
    let p = JacobiParams {
        rebalance_at: Some(30),
        ..JacobiParams::small(48, 60)
    };
    let exp = Experiment::new(AppSpec::Jacobi(p), 3)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_script(LoadScript::dedicated().at_cycle(1, 5, 2))
        .with_cfg(DynMpiConfig {
            grace_period: 2,
            ..Default::default()
        });
    let one = Experiment::new(exp.app.clone(), 1).with_cfg(DynMpiConfig::no_adapt());
    let v = judge(&exp, &Reference::of(&one), Engines::Fast(None));
    assert!(v.kinds.contains(&"redistributed"), "{:?}", v.kinds);
    assert!(v.digest_exact);
}

/// An adaptive run that redistributes away from a loaded node and then
/// drops it ends with the dedicated answer, and the stepped engine
/// agrees with the fast one on every output.
#[test]
fn digest_survives_a_drop_under_both_engines() {
    for app in apps() {
        let exp = Experiment::new(app.clone(), 4)
            .with_node_spec(NodeSpec::with_speed(1e6))
            .with_script(LoadScript::dedicated().at_cycle(3, 8, 2))
            .with_cfg(DynMpiConfig {
                drop_policy: DropPolicy::Always,
                ..Default::default()
            });
        let one = Experiment::new(app.clone(), 1).with_cfg(DynMpiConfig::no_adapt());
        let v = judge(&exp, &Reference::of(&one), Engines::Both);
        assert!(
            v.kinds.contains(&"nodes-dropped"),
            "{}: {:?}",
            app.name(),
            v.kinds
        );
        assert_eq!(v.engine_diffs, Some(vec![]), "{}", app.name());
        assert!(v.digest_exact, "{}", app.name());
    }
}
