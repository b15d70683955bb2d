//! The state digest on the virtual cluster: Jacobi's, SOR's and
//! particle's final grid is the 1-rank dedicated run's bit for bit, at
//! any node count, across a rebalance and a drop, and under either
//! engine. The checksum, which
//! sums the same rows in partition order, can only be held to a
//! tolerance; the digest is exact.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{run_sim, run_sim_on};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::particle::ParticleParams;
use dynmpi_apps::sor::SorParams;
use dynmpi_apps::{AppSpec, Experiment, SimRunResult};
use dynmpi_sim::{LoadScript, NodeSpec};

fn exp(app: &AppSpec, nodes: usize, script: LoadScript, cfg: DynMpiConfig) -> Experiment {
    Experiment::new(app.clone(), nodes)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_cfg(cfg)
}

fn dedicated(app: &AppSpec, nodes: usize) -> SimRunResult {
    run_sim(&exp(
        app,
        nodes,
        LoadScript::dedicated(),
        DynMpiConfig::no_adapt(),
    ))
}

fn kinds(out: &SimRunResult) -> Vec<&'static str> {
    out.events().iter().map(|e| e.kind()).collect()
}

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
        let one = dedicated(&app, 1);
        assert_ne!(one.state_digest(), 0, "{}", app.name());
        let mut checksum_moved = false;
        for nodes in 2..=4 {
            let out = dedicated(&app, nodes);
            assert_eq!(
                out.state_digest(),
                one.state_digest(),
                "{} on {nodes} nodes",
                app.name()
            );
            checksum_moved |= out.checksum() != one.checksum();
        }
        assert!(
            checksum_moved,
            "{}: the checksum rounds by partition",
            app.name()
        );
    }
    let short = dedicated(&AppSpec::Jacobi(JacobiParams::small(48, 59)), 1);
    assert_ne!(
        short.state_digest(),
        dedicated(&apps()[0], 1).state_digest()
    );
}

/// An explicit mid-run rebalance on a loaded cluster moves rows; the
/// final grid is the one a single rank computes.
#[test]
fn digest_survives_a_rebalance() {
    let p = JacobiParams {
        rebalance_at: Some(30),
        ..JacobiParams::small(48, 60)
    };
    let app = AppSpec::Jacobi(p);
    let script = LoadScript::dedicated().at_cycle(1, 5, 2);
    let cfg = DynMpiConfig {
        grace_period: 2,
        ..Default::default()
    };
    let out = run_sim(&exp(&app, 3, script, cfg));
    assert!(kinds(&out).contains(&"redistributed"), "{:?}", kinds(&out));
    assert_eq!(out.state_digest(), dedicated(&app, 1).state_digest());
}

/// An adaptive run that redistributes away from a loaded node and then
/// drops it ends with the dedicated answer, under both engines.
#[test]
fn digest_survives_a_drop_under_both_engines() {
    for app in apps() {
        let e = exp(
            &app,
            4,
            LoadScript::dedicated().at_cycle(3, 8, 2),
            DynMpiConfig {
                drop_policy: DropPolicy::Always,
                ..Default::default()
            },
        );
        let fast = run_sim(&e);
        assert!(
            kinds(&fast).contains(&"nodes-dropped"),
            "{}: {:?}",
            app.name(),
            kinds(&fast)
        );
        let stepped = run_sim_on(&e, e.cluster().with_stepped(true));
        assert_eq!(
            fast.state_digest(),
            stepped.state_digest(),
            "{}",
            app.name()
        );
        assert_eq!(
            fast.state_digest(),
            dedicated(&app, 1).state_digest(),
            "{}",
            app.name()
        );
    }
}
