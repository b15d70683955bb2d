//! End-to-end fail-stop tests on the virtual cluster: a scripted node
//! crash is detected by the replicated timeout detector, the survivors
//! restore the dead node's rows from its buddy checkpoint, roll the
//! application back, and finish with the final grid of a crash-free run.
//! The harness's [`judge`] holds each run to it exactly: the state digest
//! (a wrapping sum of each final row's FNV-1a, which no partition can
//! move) must equal the crash-free and the 1-rank dedicated run's, and
//! every survivor must have run the replayed cycles on top of the app's.
//! The checksum is held to a ~1-ulp relative tolerance only: the
//! survivors' final sum-reduction is grouped over a different partition
//! than the baseline's. Within one partition, crash handling must be
//! *bit*-invisible to the engine mode, like every other output.

use dynmpi::{DropPolicy, DynMpiConfig, CKPT_BYTES_SENT, CKPT_REFRESHES};
use dynmpi_apps::harness::{judge, run_sim, run_sim_with, Engines, Reference, Verdict};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::particle::ParticleParams;
use dynmpi_apps::sor::SorParams;
use dynmpi_apps::{AppSpec, Experiment};
use dynmpi_obs::Recorder;
use dynmpi_sim::{LoadScript, NodeSpec, SimTime};

/// `app` on 4 slow nodes with the failure path armed: quick
/// confirmation, periodic refreshes so the rollback stays shallow.
fn crash_exp(app: AppSpec) -> Experiment {
    Experiment::new(app, 4)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_cfg(DynMpiConfig {
            failure_detection: true,
            peer_timeout_seconds: 0.05,
            failure_confirm_cycles: 2,
            checkpoint_interval_cycles: 5,
            drop_policy: DropPolicy::Never,
            ..Default::default()
        })
}

/// Crashes node `dead` of `exp` at `frac` of the crash-free makespan,
/// judges the run against `reference` and asserts that it recovered
/// exactly: the dead rank yields no result, every survivor finishes, a
/// full suspect → confirm → recover arc was recorded, one recovery lost
/// cycles and every survivor replayed them, and the final grid is the
/// crash-free and the 1-rank run's.
fn crash(exp: &Experiment, reference: &Reference, frac: f64, dead: usize, e: Engines) -> Verdict {
    let t_crash = SimTime::from_secs_f64(reference.run.makespan * frac);
    let script = LoadScript::dedicated().node_crash(t_crash, dead);
    let v = judge(&exp.clone().with_script(script), reference, e);
    let ctx = format!("node {dead} at {:.0}%", frac * 100.0);
    assert_eq!(v.silent, [dead], "{ctx}: crashed rank must yield no result");
    assert_eq!(v.survivors.len(), exp.nodes - 1, "{ctx}: a survivor quit");
    for k in ["node-suspected", "node-confirmed-dead", "node-recovered"] {
        assert!(v.kinds.contains(&k), "{ctx}: missing {k} in {:?}", v.kinds);
    }
    assert!(
        matches!(v.recoveries[..], [(cycle, back)] if cycle > back),
        "{ctx}: one recovery that loses cycles, not {:?}",
        v.recoveries
    );
    assert!(v.replay_accounted, "{ctx}: cycles run {:?}", v.cycles);
    assert!(v.digest_exact, "{ctx}: the final grid differs");
    assert!(v.checksum_close, "{ctx}: the answer changed");
    v
}

#[test]
fn jacobi_crash_recovery_matches_crash_free_checksum() {
    let exp = crash_exp(AppSpec::Jacobi(JacobiParams::small(48, 60)));
    let reference = Reference::of(&exp);
    // Kill node 2 around 40% through the crash-free makespan: well past
    // the baseline checkpoint, well before the end.
    let v = crash(&exp, &reference, 0.4, 2, Engines::Fast(None));
    // Rollback and replay cost time.
    assert!(v.run.makespan > reference.run.makespan);
}

#[test]
fn jacobi_crash_is_engine_invariant() {
    let exp = crash_exp(AppSpec::Jacobi(JacobiParams::small(48, 50)));
    let v = crash(&exp, &Reference::of(&exp), 0.5, 1, Engines::Both);
    assert_eq!(
        v.engine_diffs,
        Some(vec![]),
        "outputs diverged between engines"
    );
}

/// SOR rolls back like Jacobi: the survivors restore the checkpointed
/// rows and must also replay the cycles lost since that checkpoint, or the
/// answer silently drifts while `node-recovered` is still logged.
#[test]
fn sor_crash_recovery_matches_crash_free_checksum() {
    let exp = crash_exp(AppSpec::Sor(SorParams::small(48, 60)));
    crash(&exp, &Reference::of(&exp), 0.4, 2, Engines::Fast(None));
}

/// Particle recovers through the cycle driver too: its boundary flux
/// crosses in the runtime's neighbour exchange, which gives a dead
/// neighbour's payload up instead of hanging. Every row adds its flux in
/// one order under any partition, so the survivors end with the
/// crash-free and the 1-rank run's grid to the digest.
#[test]
fn particle_crash_recovery_conserves_mass() {
    let exp = crash_exp(AppSpec::Particle(ParticleParams::small(48, 32, 60)));
    let reference = Reference::of(&exp);
    let v = crash(&exp, &reference, 0.4, 2, Engines::Fast(None));
    // Recovery costs time.
    assert!(v.run.makespan > reference.run.makespan);
}

/// Property sweep: random crash times × nodes (deterministic LCG). For
/// every sample the survivors terminate and reproduce the crash-free
/// final grid bit for bit.
#[test]
fn jacobi_random_crash_times_always_recover_exactly() {
    let exp = crash_exp(AppSpec::Jacobi(JacobiParams::small(40, 44)));
    let reference = Reference::of(&exp);
    let mut state = 0x243F_6A88_85A3_08D3u64; // LCG seed (π digits)
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for _ in 0..5 {
        // Crash fraction in (0.15, 0.85); never the root (out of scope).
        let frac = 0.15 + 0.7 * rand();
        let dead = 1 + (rand() * 3.0) as usize % 3;
        crash(&exp, &reference, frac, dead, Engines::Fast(None));
    }
}

/// The detector's sustain rule under pure overload: competing load slows
/// a node (its control samples may time out), but its monitor keeps
/// answering — it must never be confirmed dead, and the answer must not
/// change.
#[test]
fn jacobi_overload_is_never_confirmed_dead() {
    let exp = crash_exp(AppSpec::Jacobi(JacobiParams::small(48, 60)));
    // Node 2 picks up 3 competing processes a few cycles in — a 4×
    // compute stretch, far beyond the control-plane timeout.
    let script = LoadScript::dedicated().at_cycle(2, 8, 3);
    let v = judge(
        &exp.clone().with_script(script),
        &Reference::of(&exp),
        Engines::Fast(None),
    );
    assert!(
        !v.kinds.contains(&"node-confirmed-dead") && !v.kinds.contains(&"node-recovered"),
        "overload escalated to death: {:?}",
        v.kinds
    );
    assert_eq!(v.survivors, [0, 1, 2, 3]);
    assert!(
        v.replay_accounted && v.digest_exact && v.checksum_close,
        "overload"
    );
}

/// A partition is the same silence as a crash from the survivors' side;
/// the cut-off rank withdraws on its own instead of blocking forever.
#[test]
fn jacobi_partition_recovers_like_a_crash() {
    let exp = crash_exp(AppSpec::Jacobi(JacobiParams::small(48, 50)));
    let reference = Reference::of(&exp);
    let t_cut = SimTime::from_secs_f64(reference.run.makespan * 0.5);
    let script = LoadScript::dedicated().node_partition(t_cut, 2);
    let v = judge(
        &exp.clone().with_script(script),
        &reference,
        Engines::Fast(None),
    );
    assert_eq!(v.survivors, [0, 1, 3], "survivors must finish");
    assert!(v.kinds.contains(&"node-confirmed-dead"), "{:?}", v.kinds);
    assert!(
        v.replay_accounted && v.digest_exact && v.checksum_close,
        "partition"
    );
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
