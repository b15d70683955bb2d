//! End-to-end fail-stop tests on the virtual cluster: a scripted node
//! crash is detected by the replicated timeout detector, the survivors
//! restore the dead node's rows from its buddy checkpoint, roll the
//! application back, and finish with the checksum of a crash-free run.
//! The comparison is to a ~1-ulp relative tolerance: the survivors'
//! final sum-reduction is grouped over a different partition than the
//! baseline's, which legitimately rounds differently. Within one
//! partition, crash handling must be *bit*-invisible to the engine mode
//! and the shard count, like every other output.

use dynmpi::{DropPolicy, DynMpiConfig, CKPT_BYTES_SENT, CKPT_REFRESHES};
use dynmpi_apps::harness::{run_sim, run_sim_with};
use dynmpi_apps::jacobi::JacobiParams;
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

/// Asserts the crashed run ended correctly relative to its crash-free
/// baseline: the dead rank yields no result, every survivor participates,
/// a full suspect → confirm → recover arc was recorded, and the restored
/// computation produced the identical checksum.
fn assert_recovered(out: &SimRunResult, baseline: &SimRunResult, dead: usize, ctx: &str) {
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
    assert!(
        checksums_close(out.checksum(), baseline.checksum()),
        "{ctx}: recovery changed the answer: {:?} vs {:?}",
        out.checksum(),
        baseline.checksum()
    );
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
    assert_recovered(&out, &baseline, 2, "crash@40%");
    assert!(
        out.makespan > baseline.makespan,
        "recovery (rollback + replay) costs time"
    );
}

#[test]
fn jacobi_crash_is_engine_and_shard_invariant() {
    let p = JacobiParams::small(48, 50);
    let baseline = run_sim(&jacobi_exp(&p, 4, LoadScript::dedicated()));
    let t_crash = SimTime::from_secs_f64(baseline.makespan * 0.5);
    let exp = jacobi_exp(&p, 4, LoadScript::dedicated().node_crash(t_crash, 1));

    let fast = run_sim(&exp.clone().with_stepped(false));
    assert_recovered(&fast, &baseline, 1, "fast");
    for (stepped, shards) in [(true, 1), (false, 2), (true, 2)] {
        let other = run_sim(&exp.clone().with_stepped(stepped).with_shards(shards));
        assert_eq!(
            fast.per_rank, other.per_rank,
            "per-rank results diverged at stepped={stepped} shards={shards}"
        );
        assert!(
            fast.makespan == other.makespan,
            "makespan diverged at stepped={stepped} shards={shards}"
        );
    }
}

/// Property sweep: random crash times × nodes (deterministic LCG). For
/// every sample the survivors terminate and reproduce the crash-free
/// checksum bit-for-bit.
#[test]
fn jacobi_random_crash_times_always_recover_exactly() {
    let p = JacobiParams::small(40, 44);
    let baseline = run_sim(&jacobi_exp(&p, 4, LoadScript::dedicated()));
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
    assert!(
        checksums_close(out.checksum(), baseline.checksum()),
        "{:?} vs {:?}",
        out.checksum(),
        baseline.checksum()
    );
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
    assert!(
        checksums_close(out.checksum(), baseline.checksum()),
        "{:?} vs {:?}",
        out.checksum(),
        baseline.checksum()
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
