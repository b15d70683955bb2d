//! Figure 5: multiple redistribution points.
//!
//! Jacobi on 4 nodes, 2048×2048, three equal periods. A competing process
//! runs on one node during the second period only. Three arms:
//!
//! * **No Redist** — adaptation off;
//! * **Redist Once** — adapt when the CP appears, but not when it leaves;
//! * **Redist Twice** — adapt at both transitions.
//!
//! Run for *Short Execution* (period = 50 cycles) and *Long Execution*
//! (period = 500), as in the paper. The short run shows the second
//! redistribution's cost canceling its benefit; the long run shows it
//! paying off.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_sim::{LoadScript, NodeSpec};

use super::{Figure, SIM};
use crate::{fmt_s, log_info, print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "fig5_redist_points",
    honours: SIM,
    rows,
    print,
};

row! {
    figure: &'static str,
    execution: &'static str,
    variant: &'static str,
    period1_s: f64,
    period2_s: f64,
    period3_s: f64,
    redist_s: f64,
    total_s: f64,
}

fn period_sum(per_rank: &[dynmpi_apps::AppResult], range: std::ops::Range<usize>) -> f64 {
    // The job advances at the pace of the slowest rank each cycle.
    (range.start..range.end)
        .map(|c| {
            per_rank
                .iter()
                .filter_map(|r| r.cycle_times.get(c))
                .cloned()
                .fold(0.0, f64::max)
        })
        .sum()
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let (n, node) = if args.quick {
        (512, NodeSpec::with_speed(5e6))
    } else {
        (2048, NodeSpec::xeon_550())
    };
    // Every (execution, variant) arm is an independent run: build the six
    // items up front and hand them to the parallel sweep.
    let variants = |period: usize| {
        [
            ("no-redist", DynMpiConfig::no_adapt()),
            (
                "redist-once",
                DynMpiConfig {
                    drop_policy: DropPolicy::Never,
                    max_redistributions: Some(1),
                    ..Default::default()
                },
            ),
            (
                "redist-twice",
                DynMpiConfig {
                    drop_policy: DropPolicy::Never,
                    ..Default::default()
                },
            ),
        ]
        .map(|(variant, cfg)| (variant, cfg, period))
    };
    let items: Vec<(&'static str, DynMpiConfig, usize, &'static str)> =
        [("short", 50usize), ("long", 500usize)]
            .into_iter()
            .flat_map(|(execution, period)| {
                variants(period).map(|(variant, cfg, period)| (variant, cfg, period, execution))
            })
            .collect();
    // --trace-out/--profile-out record the first adaptive arm: item 1 (short, redist-once).
    dynmpi_testkit::sweep(&items, args.threads, |i, item| {
        let (variant, cfg, period, execution) = item;
        let (variant, period, execution) = (*variant, *period, *execution);
        // The CP lands on the last node (not the control root).
        let script = LoadScript::dedicated()
            .at_cycle(3, period as u64, 1)
            .at_cycle(3, (2 * period) as u64, 0);
        let p = JacobiParams {
            n,
            iters: 3 * period,
            exercise_kernel: false,
            rebalance_at: None,
        };
        let r = run_sim_with(
            &Experiment::new(AppSpec::Jacobi(p), 4)
                .with_node_spec(node)
                .with_cfg(cfg.clone())
                .with_script(script)
                .with_shards(args.shards),
            inst.recorder_for(i == 1),
        );
        let row = Row {
            figure: "fig5",
            execution,
            variant,
            period1_s: period_sum(&r.per_rank, 0..period),
            period2_s: period_sum(&r.per_rank, period..2 * period),
            period3_s: period_sum(&r.per_rank, 2 * period..3 * period),
            redist_s: r.redist_seconds(),
            total_s: r.makespan,
        };
        log_info!(
            "fig5 {execution} {variant}: total {:.2}s (p1 {:.2} p2 {:.2} p3 {:.2} redist {:.3})",
            row.total_s,
            row.period1_s,
            row.period2_s,
            row.period3_s,
            row.redist_s
        );
        row
    })
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.execution.to_string(),
                row.variant.to_string(),
                fmt_s(row.period1_s),
                fmt_s(row.period2_s),
                fmt_s(row.period3_s),
                fmt_s(row.redist_s),
                fmt_s(row.total_s),
            ]
        })
        .collect();
    print_table(
        "Figure 5 — Jacobi, 4 nodes: periods 1–3, CP on one node during period 2 only",
        &[
            "execution",
            "variant",
            "period1(s)",
            "period2(s)",
            "period3(s)",
            "redist(s)",
            "total(s)",
        ],
        &table,
    );

    // Paper headlines: redistributing after period 1 speeds the whole run
    // ~16.7%; the second redistribution only pays off for long runs.
    for exec_name in ["short", "long"] {
        let get = |v: &str| {
            rows.iter()
                .find(|r| r.execution == exec_name && r.variant == v)
                .unwrap()
                .total_s
        };
        let no = get("no-redist");
        let once = get("redist-once");
        let twice = get("redist-twice");
        println!(
            "{exec_name}: once {:.1}% faster than none; twice {:+.1}% vs once (paper: \
             ~16.7% for the first redistribution; second helps only long runs, +7.9%)",
            (no - once) / no * 100.0,
            (once - twice) / once * 100.0,
        );
    }
}
