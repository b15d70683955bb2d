//! Figure 8 (extension): true node arrival — growing the job.
//!
//! The paper only ever *shrinks* the computation (§4.4 node removal plus
//! the future-work rejoin of already-seeded ranks). This harness measures
//! the malleability extension: a brand-new node — its own speed, NIC and
//! cold-start delay — arrives mid-run, is measured through an arrival
//! grace window, passes the expansion decision, and receives rows.
//!
//! Two scenario families:
//!
//! * **grow** — Jacobi on 2/4/8 seed nodes; an equal-speed node arrives
//!   at a fixed virtual time. Reported: the cycle the arrival was first
//!   evaluated, the cycle it was admitted, the rows it received, and the
//!   settled per-cycle gain vs. the no-arrival baseline.
//! * **readd** — one seed node gets competing load and is physically
//!   dropped; a fresh node arrives afterwards and restores the lost
//!   capacity — recovery from removal by re-adding.
//!
//! Every simulated configuration is deterministic: rows (and `--health-out`
//! snapshots) are byte-identical at any `--threads` value. The binary runs
//! the fast engine; that arrivals run alike on the stepped test oracle
//! (`Cluster::with_stepped(true)`) is held by the runtime's `tests/drive`
//! arrival scenarios and by `dynmpi-apps`' `tests/arrival_equivalence.rs`.

use dynmpi::{DropPolicy, DynMpiConfig, RuntimeEvent};
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_obs::Recorder;
use dynmpi_sim::{LoadScript, NodeSpec, SimDur, SimTime};

use super::{settled_cycle, Figure, SIM};
use crate::{fmt_s, log_info, print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "fig8_node_arrival",
    honours: SIM,
    rows,
    print,
};

row! {
    figure: &'static str,
    scenario: &'static str,
    nodes: usize,
    admitted: bool,
    arrived_cycle: u64,
    admitted_cycle: u64,
    new_rows: u64,
    base_cycle_s: f64,
    with_cycle_s: f64,
    /// Positive: the grown configuration is faster per cycle.
    gain_pct: f64,
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let (n, iters, node) = if args.quick {
        (256, 220usize, NodeSpec::with_speed(20e6))
    } else {
        (1024, 400usize, NodeSpec::ultra5_360())
    };
    let extra = iters;
    // readd: the replacement must come online after the drop completed
    // (detection lags the script by the monitor's 1 s sampling period)
    // but well before the short run ends — both are virtual-time points
    // that scale with the input size.
    let readd_arrival_ms: u64 = if args.quick { 1400 } else { 2600 };

    // grow on 2/4/8 seed nodes, then the removal-recovery scenario.
    let items: Vec<(&'static str, usize)> =
        vec![("grow", 2), ("grow", 4), ("grow", 8), ("readd", 4)];
    // Instrumentation records the first sweep item's arrival (short) run.
    dynmpi_testkit::sweep(&items, args.threads, |i, item| {
        let (scenario, nodes) = *item;
        let run = |script: LoadScript, iters: usize, rec: Option<Recorder>| {
            let p = JacobiParams {
                n,
                iters,
                exercise_kernel: false,
                rebalance_at: None,
            };
            run_sim_with(
                &Experiment::new(AppSpec::Jacobi(p), nodes)
                    .with_node_spec(node)
                    .with_cfg(DynMpiConfig {
                        drop_policy: DropPolicy::Always,
                        arrival_retry_cycles: 4,
                        ..Default::default()
                    })
                    .with_script(script),
                rec,
            )
        };
        let base_script = match scenario {
            // readd baseline: the load and the drop, but no spare capacity.
            "readd" => LoadScript::dedicated().at_cycle(nodes - 1, 10, 3),
            _ => LoadScript::dedicated(),
        };
        let arrival_at = match scenario {
            // After the drop has surely completed (monitor daemon samples
            // once per virtual second, so detection lags the script).
            "readd" => SimTime::from_millis(readd_arrival_ms),
            _ => SimTime::from_millis(80),
        };
        let with_script =
            base_script
                .clone()
                .node_arrival(arrival_at, node, SimDur::from_millis(25));

        let base_short = run(base_script.clone(), iters, None);
        let base_long = run(base_script, iters + extra, None);
        let with_short = run(with_script.clone(), iters, inst.recorder_for(i == 0));
        let with_long = run(with_script, iters + extra, None);

        let base_cycle_s = settled_cycle(base_short.makespan, base_long.makespan, extra);
        let with_cycle_s = settled_cycle(with_short.makespan, with_long.makespan, extra);

        let mut arrived_cycle = 0;
        let mut admitted_cycle = 0;
        let mut admitted = false;
        for e in with_short.events() {
            match e {
                RuntimeEvent::NodeArrived { cycle, .. } if arrived_cycle == 0 => {
                    arrived_cycle = *cycle;
                }
                RuntimeEvent::NodeAdmitted { cycle, .. } if !admitted => {
                    admitted = true;
                    admitted_cycle = *cycle;
                }
                _ => {}
            }
        }
        let new_rows = with_short.per_rank[nodes].final_rows as u64;
        let row = Row {
            figure: "fig8",
            scenario,
            nodes,
            admitted,
            arrived_cycle,
            admitted_cycle,
            new_rows,
            base_cycle_s,
            with_cycle_s,
            gain_pct: (base_cycle_s - with_cycle_s) / base_cycle_s * 100.0,
        };
        log_info!(
            "fig8 {scenario} nodes={nodes}: arrived c{arrived_cycle} admitted({}) c{admitted_cycle} \
             rows {new_rows}, cycle {} -> {} ({:+.1}%)",
            row.admitted,
            fmt_s(base_cycle_s),
            fmt_s(with_cycle_s),
            row.gain_pct
        );
        row
    })
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.nodes.to_string(),
                r.admitted.to_string(),
                r.arrived_cycle.to_string(),
                r.admitted_cycle.to_string(),
                r.new_rows.to_string(),
                fmt_s(r.base_cycle_s),
                fmt_s(r.with_cycle_s),
                format!("{:+.1}", r.gain_pct),
            ]
        })
        .collect();
    print_table(
        "Figure 8 — Jacobi: growing the job with a true node arrival",
        &[
            "scenario",
            "seed",
            "admitted",
            "arrived@",
            "admitted@",
            "new rows",
            "base(s)",
            "grown(s)",
            "gain %",
        ],
        &table,
    );
    println!(
        "\nexpected shape: the arrival is absorbed on every cluster size; the per-cycle \
         gain shrinks as the seed cluster grows (1/(n+1) marginal capacity), and the \
         readd scenario recovers the capacity lost to the drop"
    );
}
