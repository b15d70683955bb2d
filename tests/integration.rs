//! Cross-crate integration tests: full applications on the virtual
//! cluster, exercising detection → grace → redistribution → removal →
//! rejoin end to end, and proving adaptation never changes answers.

use dynmpi::{BalancerKind, DropPolicy, DynMpiConfig};
use dynmpi_apps::cg::CgParams;
use dynmpi_apps::harness::{judge, run_sim, AppSpec, Engines, Experiment, Reference};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::particle::ParticleParams;
use dynmpi_apps::sor::SorParams;
use dynmpi_sim::{LoadScript, NodeSpec};

fn slow() -> NodeSpec {
    NodeSpec::with_speed(2e6)
}

#[test]
fn full_pipeline_detect_grace_redistribute() {
    let p = JacobiParams {
        n: 128,
        iters: 60,
        exercise_kernel: true,
        rebalance_at: None,
    };
    let script = LoadScript::dedicated().at_cycle(2, 8, 2);
    let r = run_sim(
        &Experiment::new(AppSpec::Jacobi(p), 4)
            .with_node_spec(slow())
            .with_cfg(DynMpiConfig {
                drop_policy: DropPolicy::Never,
                ..Default::default()
            })
            .with_script(script),
    );
    let kinds: Vec<&str> = r.events().iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"load-change"), "{kinds:?}");
    assert!(kinds.contains(&"grace-complete"));
    assert!(kinds.contains(&"redistributed"));
    // The loaded node ends with fewer rows than the others.
    let rows: Vec<usize> = r.per_rank.iter().map(|x| x.final_rows).collect();
    assert!(rows[2] < rows[0], "{rows:?}");
    assert_eq!(rows.iter().sum::<usize>(), 126); // phase covers 1..127
}

#[test]
fn adaptation_never_changes_answers_across_configs() {
    let p = JacobiParams {
        n: 96,
        iters: 40,
        exercise_kernel: true,
        rebalance_at: None,
    };
    let exp = Experiment::new(AppSpec::Jacobi(p), 3)
        .with_node_spec(slow())
        .with_script(LoadScript::dedicated().at_cycle(1, 6, 2));
    let reference = Reference::of(&exp.clone().with_cfg(DynMpiConfig::no_adapt()));
    let mut checksums = Vec::new();
    for cfg in [
        DynMpiConfig::no_adapt(),
        DynMpiConfig {
            drop_policy: DropPolicy::Never,
            ..Default::default()
        },
        DynMpiConfig {
            drop_policy: DropPolicy::Always,
            grace_period: 2,
            ..Default::default()
        },
        DynMpiConfig {
            balancer: BalancerKind::RelativePower,
            drop_policy: DropPolicy::Logical,
            min_rows_logical: 2,
            ..Default::default()
        },
    ] {
        let v = judge(&exp.clone().with_cfg(cfg), &reference, Engines::Fast(None));
        assert!(v.digest_exact, "not the 1-rank run's grid");
        checksums.push(v.run.checksum().unwrap());
    }
    for c in &checksums[1..] {
        assert!(
            (c - checksums[0]).abs() < 1e-9 * checksums[0].abs().max(1.0),
            "checksums diverged: {checksums:?}"
        );
    }
}

#[test]
fn simulation_runs_are_bit_deterministic() {
    let mk = || {
        let p = SorParams {
            n: 96,
            iters: 30,
            omega: 1.5,
            exercise_kernel: true,
        };
        let script = LoadScript::dedicated().at_cycle(3, 5, 1);
        let r = run_sim(
            &Experiment::new(AppSpec::Sor(p), 4)
                .with_node_spec(slow())
                .with_script(script),
        );
        (
            r.makespan,
            r.checksum(),
            r.net_messages,
            r.per_rank
                .iter()
                .map(|x| x.cycle_times.clone())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(mk(), mk());
}

#[test]
fn forced_drop_then_completion() {
    // Very slow nodes so the run spans several virtual seconds — the
    // 1 Hz dmpi_ps monitor needs whole seconds to observe the load.
    let p = SorParams {
        n: 64,
        iters: 50,
        omega: 1.5,
        exercise_kernel: true,
    };
    let script = LoadScript::dedicated().at_cycle(3, 5, 3);
    let base = Experiment::new(AppSpec::Sor(p), 4)
        .with_node_spec(NodeSpec::with_speed(2e5))
        .with_cfg(DynMpiConfig::no_adapt())
        .with_script(script);
    let exp = base.clone().with_cfg(DynMpiConfig {
        drop_policy: DropPolicy::Always,
        grace_period: 2,
        post_redist_period: 3,
        ..Default::default()
    });
    let reference = Reference::of(&base);
    let v = judge(&exp, &reference, Engines::Fast(None));
    let r = &v.run;
    assert!(r.events().iter().any(|e| e.kind() == "nodes-dropped"));
    assert!(!r.per_rank[3].participating);
    assert_eq!(r.per_rank[3].final_rows, 0);
    // Survivors own the whole interior and the answer matches no-adapt.
    let total: usize = r.per_rank.iter().map(|x| x.final_rows).sum();
    assert_eq!(total, 62);
    assert!(v.digest_exact, "not the 1-rank run's grid");
    let (a, b) = (reference.run.checksum().unwrap(), r.checksum().unwrap());
    assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
}

#[test]
fn drop_and_rejoin_lifecycle() {
    let p = SorParams {
        n: 64,
        iters: 110,
        omega: 1.5,
        exercise_kernel: true,
    };
    let script = LoadScript::dedicated().at_cycle(3, 5, 3).at_cycle(3, 60, 0);
    let r = run_sim(
        &Experiment::new(AppSpec::Sor(p), 4)
            .with_node_spec(NodeSpec::with_speed(2e5))
            .with_cfg(DynMpiConfig {
                drop_policy: DropPolicy::Always,
                allow_rejoin: true,
                rejoin_after_cycles: 3,
                grace_period: 2,
                post_redist_period: 3,
                ..Default::default()
            })
            .with_script(script),
    );
    assert!(r.events().iter().any(|e| e.kind() == "nodes-dropped"));
    assert!(
        r.per_rank[3].participating,
        "node 3 must be re-admitted once its load clears"
    );
    assert!(r.per_rank[3].final_rows > 0);
}

#[test]
fn particle_mass_conserved_across_drop() {
    let mut p = ParticleParams::small(32, 16, 60);
    p.hot_rows = Some(0..8);
    let expect = {
        let init = dynmpi_apps::gen::particle_counts(32, 16, p.base, p.hot, 0..8, p.seed);
        init.iter().flatten().sum::<f64>()
    };
    let base = Experiment::new(AppSpec::Particle(p), 4)
        .with_node_spec(slow())
        .with_cfg(DynMpiConfig::no_adapt())
        .with_script(LoadScript::dedicated().at_cycle(2, 5, 3));
    let exp = base.clone().with_cfg(DynMpiConfig {
        drop_policy: DropPolicy::Always,
        grace_period: 2,
        post_redist_period: 3,
        ..Default::default()
    });
    let v = judge(&exp, &Reference::of(&base), Engines::Fast(None));
    assert!(v.kinds.contains(&"nodes-dropped"), "{:?}", v.kinds);
    assert!(v.digest_exact, "not the 1-rank run's grid");
    let mass = v.run.checksum().unwrap();
    assert!(
        (mass - expect).abs() < 1e-9 * expect,
        "mass {mass} vs {expect} (redistribution must not lose particles)"
    );
}

#[test]
fn cg_converges_identically_under_load() {
    let p = CgParams::small(80, 25);
    let script = LoadScript::dedicated().at_cycle(1, 5, 2);
    let clean = run_sim(
        &Experiment::new(AppSpec::Cg(p.clone()), 3)
            .with_node_spec(slow())
            .with_cfg(DynMpiConfig::no_adapt()),
    );
    let adapted = run_sim(
        &Experiment::new(AppSpec::Cg(p), 3)
            .with_node_spec(slow())
            .with_cfg(DynMpiConfig {
                drop_policy: DropPolicy::Never,
                ..Default::default()
            })
            .with_script(script),
    );
    let (a, b) = (clean.checksum().unwrap(), adapted.checksum().unwrap());
    assert!(a < 1e-8, "CG must converge: {a}");
    assert!((a - b).abs() <= 1e-12 + 1e-6 * a.abs(), "{a} vs {b}");
}

#[test]
fn monitoring_overhead_is_modest() {
    // The pipelined control plane must cost little on an unloaded run.
    // Paper-like per-cycle compute (tens of ms) at a realistic per-message
    // CPU cost relative to node speed.
    let p = JacobiParams {
        n: 512,
        iters: 40,
        exercise_kernel: false,
        rebalance_at: None,
    };
    let spec = NodeSpec::with_speed(2e7);
    let off = run_sim(
        &Experiment::new(AppSpec::Jacobi(p.clone()), 4)
            .with_node_spec(spec)
            .with_cfg(DynMpiConfig::no_adapt()),
    );
    let on = run_sim(
        &Experiment::new(AppSpec::Jacobi(p), 4)
            .with_node_spec(spec)
            .with_cfg(DynMpiConfig::default()),
    );
    let overhead = on.makespan / off.makespan - 1.0;
    assert!(
        overhead < 0.08,
        "monitoring overhead {:.1}%",
        overhead * 100.0
    );
}

#[test]
fn logical_drop_keeps_ranks_static() {
    let p = SorParams {
        n: 64,
        iters: 40,
        omega: 1.5,
        exercise_kernel: true,
    };
    let script = LoadScript::dedicated().at_cycle(3, 5, 3);
    let r = run_sim(
        &Experiment::new(AppSpec::Sor(p), 4)
            .with_node_spec(slow())
            .with_cfg(DynMpiConfig {
                drop_policy: DropPolicy::Logical,
                min_rows_logical: 2,
                grace_period: 2,
                ..Default::default()
            })
            .with_script(script),
    );
    assert!(r.per_rank.iter().all(|x| x.participating));
    assert!(
        r.per_rank[3].final_rows >= 1,
        "{:?}",
        r.per_rank[3].final_rows
    );
}
