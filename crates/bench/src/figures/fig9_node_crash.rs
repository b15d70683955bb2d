//! Figure 9 (extension): fail-stop node crash — detect, restore, replay.
//!
//! The paper removes nodes *voluntarily* (§4.4): the runtime decides, the
//! node cooperates, no state is lost. This harness measures the fault
//! extension: a node fail-stops mid-run without warning. The survivors'
//! timeout detector confirms the death from broadcast control data, the
//! dead node's rows are restored from its ring-buddy's in-memory
//! checkpoint, the group shrinks and rebalances, and the application
//! replays from the checkpointed cycle.
//!
//! Sweep: crash time (fraction of the crash-free makespan) × cluster
//! size. Reported per configuration:
//!
//! * **detection latency** — cycles from the first Suspect sentinel to
//!   Confirmed (the sustain window, plus any cycles the death stayed
//!   masked by pipelined control samples);
//! * **recovery cost** — the rollback depth (cycles replayed) and the
//!   rows restored from the buddy mirror;
//! * **end-to-end slowdown vs. an oracle** — a perfect instant failover
//!   composed from two crash-free runs: the full cluster up to the
//!   crash instant, the survivor set thereafter (same capacity loss,
//!   but no detection wait, no lost work, no rollback). The gap is the
//!   true price of the fault path.
//!
//! Every run is deterministic: rows are byte-identical at any
//! `--threads` and under both simulator engines.

use dynmpi::{DropPolicy, DynMpiConfig, RuntimeEvent};
use dynmpi_apps::harness::{judge, run_sim, Engines, Reference};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::{AppSpec, Experiment};
use dynmpi_sim::{LoadScript, NodeSpec, SimTime};

use super::{Figure, SIM};
use crate::{fmt_s, log_info, print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "fig9_node_crash",
    honours: SIM,
    rows,
    print,
};

row! {
    figure: &'static str,
    nodes: usize,
    crash_frac: f64,
    dead: usize,
    detect_cycles: u64,
    confirmed_cycle: u64,
    replay_cycles: u64,
    restored_rows: u64,
    base_s: f64,
    oracle_s: f64,
    crash_s: f64,
    /// (crash − oracle) / oracle: the fault path's cost over a perfect
    /// instant failover at the same instant.
    slowdown_pct: f64,
    /// The crashed run ended with the crash-free and the 1-rank run's
    /// grid: equal state digests, and checksums within the regrouping
    /// tolerance (the harness's [`judge`]).
    checksum_ok: bool,
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let (n, iters, node_spec) = if args.quick {
        (96, 80usize, NodeSpec::with_speed(2e6))
    } else {
        (512, 200usize, NodeSpec::ultra5_360())
    };
    let fracs: &[f64] = if args.quick {
        &[0.3, 0.6]
    } else {
        &[0.2, 0.4, 0.6, 0.8]
    };
    let sizes: &[usize] = if args.quick { &[4] } else { &[4, 8] };

    let cfg = DynMpiConfig {
        failure_detection: true,
        peer_timeout_seconds: 0.05,
        failure_confirm_cycles: 3,
        checkpoint_interval_cycles: 10,
        drop_policy: DropPolicy::Always,
        ..Default::default()
    };

    let mut items: Vec<(usize, f64)> = Vec::new();
    for &nodes in sizes {
        for &f in fracs {
            items.push((nodes, f));
        }
    }

    let app = AppSpec::Jacobi(JacobiParams {
        n,
        iters,
        exercise_kernel: true,
        rebalance_at: None,
    });
    let one_rank_digest =
        run_sim(&Experiment::new(app.clone(), 1).with_cfg(DynMpiConfig::no_adapt())).state_digest();
    let rows: Vec<Row> = dynmpi_testkit::sweep(&items, args.threads, |i, item| {
        let (nodes, crash_frac) = *item;
        // Kill a mid-ring node: never the root (out of scope, DESIGN.md
        // §14), and not the last rank, so both ghost neighbors survive.
        let dead = nodes / 2;
        let exp = |nodes: usize| {
            Experiment::new(app.clone(), nodes)
                .with_node_spec(node_spec)
                .with_cfg(cfg.clone())
        };

        let reference = Reference {
            run: run_sim(&exp(nodes)),
            one_rank_digest,
        };
        let base = &reference.run;
        let t_crash = SimTime::from_secs_f64(base.makespan * crash_frac);
        // The oracle: perfect instant failover — the full cluster up to
        // the crash instant, the survivor set (same capacity, rebalanced
        // for free) for the rest. Composed from two crash-free runs, it
        // has zero detection wait, zero lost work, zero redistribution
        // cost; the gap to the real crash run is the fault path's whole
        // price.
        let survivors_only = run_sim(&exp(nodes - 1));
        let oracle_s = crash_frac * base.makespan + (1.0 - crash_frac) * survivors_only.makespan;
        let crashed = exp(nodes).with_script(LoadScript::dedicated().node_crash(t_crash, dead));
        let v = judge(
            &crashed,
            &reference,
            Engines::Fast(inst.recorder_for(i == 0)),
        );
        let out = &v.run;

        let mut suspect_first = 0u64;
        let mut confirmed_cycle = 0u64;
        let mut restored_rows = 0u64;
        for e in out.events() {
            match e {
                RuntimeEvent::NodeSuspected { cycle, .. } if suspect_first == 0 => {
                    suspect_first = *cycle;
                }
                RuntimeEvent::NodeConfirmedDead { cycle, .. } if confirmed_cycle == 0 => {
                    confirmed_cycle = *cycle;
                }
                RuntimeEvent::NodeRecovered {
                    restored_rows: rr, ..
                } if restored_rows == 0 => {
                    restored_rows = *rr as u64;
                }
                _ => {}
            }
        }
        let rollback_to = v.recoveries.first().map_or(0, |&(_, back)| back);
        assert!(
            confirmed_cycle > 0,
            "fig9 nodes={nodes} frac={crash_frac}: crash was never confirmed"
        );
        let row = Row {
            figure: "fig9",
            nodes,
            crash_frac,
            dead,
            detect_cycles: confirmed_cycle - suspect_first + 1,
            confirmed_cycle,
            replay_cycles: confirmed_cycle.saturating_sub(rollback_to),
            restored_rows,
            base_s: base.makespan,
            oracle_s,
            crash_s: out.makespan,
            slowdown_pct: (out.makespan - oracle_s) / oracle_s * 100.0,
            checksum_ok: v.digest_exact && v.checksum_close,
        };
        log_info!(
            "fig9 nodes={nodes} crash@{:.0}%: confirmed c{confirmed_cycle} \
             (detect {} cyc), replay {} cyc / {} rows, {} vs oracle {} ({:+.1}%) checksum_ok={}",
            crash_frac * 100.0,
            row.detect_cycles,
            row.replay_cycles,
            row.restored_rows,
            fmt_s(row.crash_s),
            fmt_s(row.oracle_s),
            row.slowdown_pct,
            row.checksum_ok
        );
        row
    });
    // Flight records carry the harness's post-run verdict: item 0 is the
    // instrumented run, so its digest and checksum comparison is the one
    // the explain report's confirmed-death records should show.
    if let Some(row) = rows.first() {
        inst.set_checksum_intact(row.checksum_ok);
    }
    rows
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                format!("{:.0}%", r.crash_frac * 100.0),
                r.dead.to_string(),
                r.detect_cycles.to_string(),
                r.replay_cycles.to_string(),
                r.restored_rows.to_string(),
                fmt_s(r.base_s),
                fmt_s(r.oracle_s),
                fmt_s(r.crash_s),
                format!("{:+.1}", r.slowdown_pct),
                r.checksum_ok.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 9 — Jacobi: fail-stop crash, timeout detection, buddy-checkpoint recovery",
        &[
            "nodes",
            "crash@",
            "dead",
            "detect cyc",
            "replay cyc",
            "rows",
            "base(s)",
            "oracle(s)",
            "crash(s)",
            "vs oracle %",
            "checksum ok",
        ],
        &table,
    );
    println!(
        "\nexpected shape: detection latency is flat (the sustain window plus the control \
         pipeline's masking depth); replay stays bounded by the checkpoint interval plus \
         the detection window; the slowdown over the instant-failover oracle is the fault \
         path's whole price — detection wait, lost work, restore, and redistribution"
    );
}
