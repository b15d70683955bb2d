//! End-to-end fail-stop tests on the virtual cluster: a scripted node
//! crash is detected by the replicated timeout detector, the survivors
//! restore the dead node's rows from its buddy checkpoint, roll the
//! application back, and finish with the final grid of a crash-free run.
//! The verdict is exact: the run's state digest (a wrapping sum of each
//! final row's FNV-1a, which no partition can move) must equal both the
//! crash-free run's and the 1-rank dedicated run's. The checksum is also
//! held, to a ~1-ulp relative tolerance only: the survivors' final
//! sum-reduction is grouped over a different partition than the
//! baseline's, which legitimately rounds differently. Within one
//! partition, crash handling must be *bit*-invisible to the engine mode,
//! like every other output.

use dynmpi::{DropPolicy, DynMpiConfig, RuntimeEvent, CKPT_BYTES_SENT, CKPT_REFRESHES};
use dynmpi_apps::harness::{run_sim, run_sim_on, run_sim_with};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::particle::ParticleParams;
use dynmpi_apps::sor::SorParams;
use dynmpi_apps::{AppSpec, Experiment, SimRunResult};
use dynmpi_obs::Recorder;
use dynmpi_sim::{LoadScript, NodeSpec, SimTime};

/// Failure-path configuration for the small test scenarios: quick
/// confirmation, periodic refreshes so the rollback stays shallow.
fn crash_cfg() -> DynMpiConfig {
    DynMpiConfig {
        failure_detection: true,
        peer_timeout_seconds: 0.05,
        failure_confirm_cycles: 2,
        checkpoint_interval_cycles: 5,
        drop_policy: DropPolicy::Never,
        ..Default::default()
    }
}

fn jacobi_exp(p: &JacobiParams, nodes: usize, script: LoadScript) -> Experiment {
    Experiment::new(AppSpec::Jacobi(p.clone()), nodes)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_script(script)
        .with_cfg(crash_cfg())
}

/// Checksums agree up to reduction-regrouping rounding (different
/// partitions sum the same per-row values in a different association).
fn checksums_close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-12 * y.abs().max(1.0),
        _ => false,
    }
}

/// The state digest of `app` run on one dedicated node.
fn one_rank_digest(app: AppSpec) -> u64 {
    run_sim(&Experiment::new(app, 1).with_cfg(DynMpiConfig::no_adapt())).state_digest()
}

/// Asserts that `out` ended with the final grid of the crash-free
/// `baseline` and of the 1-rank dedicated run (digest `one_rank`): equal
/// digests, exactly, and checksums within the regrouping tolerance.
fn assert_same_answer(out: &SimRunResult, baseline: &SimRunResult, one_rank: u64, ctx: &str) {
    assert!(
        checksums_close(out.checksum(), baseline.checksum()),
        "{ctx}: the answer changed: {:?} vs {:?}",
        out.checksum(),
        baseline.checksum()
    );
    assert_ne!(one_rank, 0, "{ctx}: the kernel ran");
    assert_eq!(
        out.state_digest(),
        baseline.state_digest(),
        "{ctx}: final grid differs from the crash-free run's"
    );
    assert_eq!(
        out.state_digest(),
        one_rank,
        "{ctx}: final grid differs from the 1-rank dedicated run's"
    );
}

/// Asserts the crashed run ended correctly relative to its crash-free
/// baseline: the survivors finished (see [`assert_survived`]), and the
/// restored computation produced the identical final grid.
fn assert_recovered(
    out: &SimRunResult,
    baseline: &SimRunResult,
    one_rank: u64,
    dead: usize,
    ctx: &str,
) {
    assert_survived(out, dead, ctx);
    assert_same_answer(out, baseline, one_rank, ctx);
}

/// Asserts the dead rank yields no result, every survivor participates,
/// and a full suspect → confirm → recover arc was recorded.
fn assert_survived(out: &SimRunResult, dead: usize, ctx: &str) {
    assert!(
        out.per_rank[dead].checksum.is_none() && !out.per_rank[dead].participating,
        "{ctx}: crashed rank must yield no result"
    );
    for (r, res) in out.per_rank.iter().enumerate() {
        if r != dead {
            assert!(res.participating, "{ctx}: survivor {r} must finish");
        }
    }
    let kinds: Vec<&str> = out.events().iter().map(|e| e.kind()).collect();
    for k in ["node-suspected", "node-confirmed-dead", "node-recovered"] {
        assert!(kinds.contains(&k), "{ctx}: missing {k} in {kinds:?}");
    }
}

#[test]
fn jacobi_crash_recovery_matches_crash_free_checksum() {
    let p = JacobiParams::small(48, 60);
    let baseline = run_sim(&jacobi_exp(&p, 4, LoadScript::dedicated()));
    // Kill node 2 around 40% through the crash-free makespan: well past
    // the baseline checkpoint, well before the end.
    let t_crash = SimTime::from_secs_f64(baseline.makespan * 0.4);
    let script = LoadScript::dedicated().node_crash(t_crash, 2);
    let out = run_sim(&jacobi_exp(&p, 4, script));
    let one_rank = one_rank_digest(AppSpec::Jacobi(p));
    assert_recovered(&out, &baseline, one_rank, 2, "crash@40%");
    assert!(
        out.makespan > baseline.makespan,
        "recovery (rollback + replay) costs time"
    );
}

#[test]
fn jacobi_crash_is_engine_invariant() {
    let p = JacobiParams::small(48, 50);
    let baseline = run_sim(&jacobi_exp(&p, 4, LoadScript::dedicated()));
    let t_crash = SimTime::from_secs_f64(baseline.makespan * 0.5);
    let exp = jacobi_exp(&p, 4, LoadScript::dedicated().node_crash(t_crash, 1));

    let fast = run_sim(&exp);
    let one_rank = one_rank_digest(AppSpec::Jacobi(p));
    assert_recovered(&fast, &baseline, one_rank, 1, "fast");
    let stepped = run_sim_on(&exp, exp.cluster().with_stepped(true));
    assert_eq!(
        fast.per_rank, stepped.per_rank,
        "per-rank results diverged between engines"
    );
    assert!(
        fast.makespan == stepped.makespan,
        "makespan diverged between engines"
    );
}

/// SOR rolls back like Jacobi: the survivors restore the checkpointed
/// rows and must also replay the cycles lost since that checkpoint, or the
/// answer silently drifts while `node-recovered` is still logged.
#[test]
fn sor_crash_recovery_matches_crash_free_checksum() {
    let exp = |script| {
        Experiment::new(AppSpec::Sor(SorParams::small(48, 60)), 4)
            .with_node_spec(NodeSpec::with_speed(1e6))
            .with_script(script)
            .with_cfg(crash_cfg())
    };
    let baseline = run_sim(&exp(LoadScript::dedicated()));
    let t_crash = SimTime::from_secs_f64(baseline.makespan * 0.4);
    let out = run_sim(&exp(LoadScript::dedicated().node_crash(t_crash, 2)));
    let one_rank = one_rank_digest(AppSpec::Sor(SorParams::small(48, 60)));
    assert_recovered(&out, &baseline, one_rank, 2, "sor crash@40%");
}

/// Particle recovers through the cycle driver too: its boundary flux
/// crosses in the runtime's neighbour exchange, which gives a dead
/// neighbour's payload up instead of hanging. Every row adds its flux in
/// one order under any partition, so the survivors end with the
/// crash-free and the 1-rank run's grid to the digest. Each survivor's
/// cycle count must also show the replay: `iters` plus the cycles from
/// its `node-recovered` rollback point to the recovery.
#[test]
fn particle_crash_recovery_conserves_mass() {
    let p = ParticleParams::small(48, 32, 60);
    let exp = |script| {
        Experiment::new(AppSpec::Particle(p.clone()), 4)
            .with_node_spec(NodeSpec::with_speed(1e6))
            .with_script(script)
            .with_cfg(crash_cfg())
    };
    let baseline = run_sim(&exp(LoadScript::dedicated()));
    let t_crash = SimTime::from_secs_f64(baseline.makespan * 0.4);
    let out = run_sim(&exp(LoadScript::dedicated().node_crash(t_crash, 2)));
    let one_rank = one_rank_digest(AppSpec::Particle(p.clone()));
    assert_recovered(&out, &baseline, one_rank, 2, "particle crash@40%");
    assert!(out.makespan > baseline.makespan, "recovery costs time");
    for (r, res) in out.per_rank.iter().enumerate().filter(|&(r, _)| r != 2) {
        let replayed: Vec<u64> = (res.events.iter())
            .filter_map(|e| match *e {
                RuntimeEvent::NodeRecovered {
                    cycle, rollback_to, ..
                } => Some(cycle - rollback_to),
                _ => None,
            })
            .collect();
        assert!(
            replayed.len() == 1 && replayed[0] > 0,
            "survivor {r}: one recovery that loses cycles, not {replayed:?}"
        );
        assert_eq!(
            res.cycle_times.len() as u64,
            p.iters as u64 + replayed[0],
            "survivor {r} ran iters + the replayed cycles"
        );
    }
}

/// Property sweep: random crash times × nodes (deterministic LCG). For
/// every sample the survivors terminate and reproduce the crash-free
/// final grid bit for bit.
#[test]
fn jacobi_random_crash_times_always_recover_exactly() {
    let p = JacobiParams::small(40, 44);
    let baseline = run_sim(&jacobi_exp(&p, 4, LoadScript::dedicated()));
    let one_rank = one_rank_digest(AppSpec::Jacobi(p.clone()));
    let mut state = 0x243F_6A88_85A3_08D3u64; // LCG seed (π digits)
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for sample in 0..5 {
        // Crash fraction in (0.15, 0.85); never the root (out of scope).
        let frac = 0.15 + 0.7 * rand();
        let dead = 1 + (rand() * 3.0) as usize % 3;
        let t_crash = SimTime::from_secs_f64(baseline.makespan * frac);
        let out = run_sim(&jacobi_exp(
            &p,
            4,
            LoadScript::dedicated().node_crash(t_crash, dead),
        ));
        assert_recovered(
            &out,
            &baseline,
            one_rank,
            dead,
            &format!("sample {sample}: node {dead} at {:.0}%", frac * 100.0),
        );
    }
}

/// The detector's sustain rule under pure overload: competing load slows
/// a node (its control samples may time out), but its monitor keeps
/// answering — it must never be confirmed dead, and the answer must not
/// change.
#[test]
fn jacobi_overload_is_never_confirmed_dead() {
    let p = JacobiParams::small(48, 60);
    let baseline = run_sim(&jacobi_exp(&p, 4, LoadScript::dedicated()));
    // Node 2 picks up 3 competing processes a few cycles in — a 4×
    // compute stretch, far beyond the control-plane timeout.
    let script = LoadScript::dedicated().at_cycle(2, 8, 3);
    let out = run_sim(&jacobi_exp(&p, 4, script));
    let kinds: Vec<&str> = out.events().iter().map(|e| e.kind()).collect();
    assert!(
        !kinds.contains(&"node-confirmed-dead") && !kinds.contains(&"node-recovered"),
        "overload escalated to death: {kinds:?}"
    );
    assert!(out.per_rank.iter().all(|r| r.participating));
    let one_rank = one_rank_digest(AppSpec::Jacobi(p));
    assert_same_answer(&out, &baseline, one_rank, "overload");
}

/// A partition is the same silence as a crash from the survivors' side;
/// the cut-off rank withdraws on its own instead of blocking forever.
#[test]
fn jacobi_partition_recovers_like_a_crash() {
    let p = JacobiParams::small(48, 50);
    let baseline = run_sim(&jacobi_exp(&p, 4, LoadScript::dedicated()));
    let t_cut = SimTime::from_secs_f64(baseline.makespan * 0.5);
    let out = run_sim(&jacobi_exp(
        &p,
        4,
        LoadScript::dedicated().node_partition(t_cut, 2),
    ));
    for (r, res) in out.per_rank.iter().enumerate() {
        if r != 2 {
            assert!(res.participating, "survivor {r} must finish");
        }
    }
    let kinds: Vec<&str> = out.events().iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"node-confirmed-dead"), "{kinds:?}");
    let one_rank = one_rank_digest(AppSpec::Jacobi(p));
    assert_same_answer(&out, &baseline, one_rank, "partition");
}

/// What arming the fault path costs a crash-free run, pinned exactly: the
/// 4-node adaptive Jacobi of the health-monitor tests (n = 256, 120
/// cycles, a competing process on node 3 from cycle 10, 5 Mflop/s nodes)
/// with failure detection and a buddy-checkpoint refresh every 5 cycles.
/// The refresh traffic is simulated communication, so the overhead is
/// virtual and deterministic: 88 refreshes mirror 22 MiB and stretch the
/// makespan 1.2010×, under the 1.25× bar for leaving the fault path on.
#[test]
fn checkpoint_refresh_overhead_is_pinned() {
    let p = JacobiParams {
        n: 256,
        iters: 120,
        exercise_kernel: false,
        rebalance_at: None,
    };
    let exp = Experiment::new(AppSpec::Jacobi(p), 4)
        .with_node_spec(NodeSpec::with_speed(5e6))
        .with_cfg(DynMpiConfig::default())
        .with_script(LoadScript::dedicated().at_cycle(3, 10, 1));
    let bare = run_sim(&exp);
    let rec = Recorder::new();
    let guarded = run_sim_with(
        &exp.clone().with_cfg(DynMpiConfig {
            failure_detection: true,
            peer_timeout_seconds: 0.05,
            failure_confirm_cycles: 3,
            checkpoint_interval_cycles: 5,
            ..Default::default()
        }),
        Some(rec.clone()),
    );
    let metrics = rec.merged_metrics();
    assert_eq!(metrics.counter(CKPT_REFRESHES), 88, "checkpoint refreshes");
    assert_eq!(
        metrics.counter(CKPT_BYTES_SENT),
        23_068_672,
        "checkpoint bytes"
    );
    let overhead = guarded.makespan / bare.makespan;
    assert_eq!(format!("{overhead:.4}"), "1.2010", "virtual makespan ratio");
    assert!(
        overhead < 1.25,
        "checkpoint overhead {overhead:.4}× over the 1.25× bar"
    );
}
