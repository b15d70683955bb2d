//! Integration tests for the online health monitor (ISSUE 6 tentpole):
//! attaching the monitor must not perturb the simulation in any way, its
//! output must be deterministic, and on the paper's competing-process
//! scenario it must flag the loaded node as a straggler *before* the
//! balancer's redistribution lands on the same virtual timeline.

use std::sync::Arc;

use dynmpi::DynMpiConfig;
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment, SimRunResult};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_obs::{HealthMonitor, HealthState, Recorder};
use dynmpi_sim::{LoadScript, NodeSpec};

/// The fig4 competing-process scenario, scaled down: Jacobi on 4 nodes,
/// one competing process appearing on the last node at its 10th cycle.
fn loaded_experiment() -> Experiment {
    Experiment::new(
        AppSpec::Jacobi(JacobiParams {
            n: 256,
            iters: 60,
            exercise_kernel: false,
            rebalance_at: None,
        }),
        4,
    )
    .with_node_spec(NodeSpec::with_speed(5e6))
    .with_cfg(DynMpiConfig::default())
    .with_script(LoadScript::dedicated().at_cycle(3, 10, 1))
}

fn fingerprint(r: &SimRunResult) -> (u64, u64, u64, Vec<u64>, Vec<String>) {
    (
        r.makespan.to_bits(),
        r.net_messages,
        r.net_bytes,
        r.per_rank
            .iter()
            .flat_map(|a| a.cycle_times.iter().map(|t| t.to_bits()))
            .collect(),
        r.events().iter().map(|e| format!("{e:?}")).collect(),
    )
}

/// Monitor off ⇒ bit-identical results; monitor on ⇒ the subscriber is
/// purely passive: the run's virtual outputs and the recorder's event
/// stream are unchanged by its presence (fast-path-equivalence style).
#[test]
fn monitor_presence_does_not_perturb_run() {
    let exp = loaded_experiment();
    let plain = run_sim_with(&exp, None);

    let rec_only = Recorder::new();
    let traced = run_sim_with(&exp, Some(rec_only.clone()));

    let rec_mon = Recorder::new();
    let monitor = Arc::new(HealthMonitor::new(20_000_000));
    rec_mon.subscribe(monitor.clone());
    let monitored = run_sim_with(&exp, Some(rec_mon.clone()));

    assert_eq!(fingerprint(&plain), fingerprint(&traced));
    assert_eq!(fingerprint(&plain), fingerprint(&monitored));
    // The recorder sees the identical event stream with and without the
    // streaming subscriber attached.
    assert_eq!(rec_only.events(), rec_mon.events());
    // And the monitor actually saw the run.
    let report = monitor.report();
    assert_eq!(report.nodes, 4);
    assert!(!report.windows.is_empty());
}

/// Feeding the recorder's (already deterministic) event stream to a fresh
/// monitor post-hoc reproduces the streaming report byte for byte — the
/// streaming fold is a pure function of the event set.
#[test]
fn streaming_equals_posthoc_replay() {
    let exp = loaded_experiment();
    let rec = Recorder::new();
    let streaming = Arc::new(HealthMonitor::new(20_000_000));
    rec.subscribe(streaming.clone());
    run_sim_with(&exp, Some(rec.clone()));

    let replay = HealthMonitor::new(20_000_000);
    for ev in rec.events().iter() {
        use dynmpi_obs::trace::EventSink;
        replay.on_event(ev);
    }
    assert_eq!(streaming.report(), replay.report());
    assert_eq!(streaming.report().to_jsonl(), replay.report().to_jsonl());
}

/// Acceptance criterion: the competing-process scenario produces a
/// `Straggler` alert on the loaded node *before* the balancer's
/// redistribution event on the same (virtual) timeline.
#[test]
fn straggler_alert_precedes_redistribution() {
    let exp = loaded_experiment();
    let rec = Recorder::new();
    let monitor = Arc::new(HealthMonitor::new(20_000_000));
    rec.subscribe(monitor.clone());
    run_sim_with(&exp, Some(rec));

    let report = monitor.report();
    let alerts = report.alerts();
    let first_straggler = alerts
        .iter()
        .find(|a| a.state == HealthState::Straggler && a.node == 3)
        .unwrap_or_else(|| panic!("no straggler alert on the loaded node; alerts: {alerts:?}"));
    let decisions = report.decisions();
    let redistributed = decisions
        .iter()
        .find(|d| d.kind == "redistributed")
        .unwrap_or_else(|| panic!("no redistribution decision; decisions: {decisions:?}"));
    assert!(
        first_straggler.ts_ns < redistributed.ts_ns,
        "straggler alert at {} ns did not precede redistribution at {} ns",
        first_straggler.ts_ns,
        redistributed.ts_ns
    );
    // The loaded node's dashboard row reflects the classification in the
    // windows between detection and redistribution.
    let widx = (first_straggler.ts_ns / report.window_ns - 1) as usize;
    assert_eq!(report.windows[widx].nodes[3].state, HealthState::Straggler);
}
