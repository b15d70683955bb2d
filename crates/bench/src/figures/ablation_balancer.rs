//! Ablation: successive balancing vs relative power ("naive").
//!
//! The abstract claims a 25 % improvement over standard adaptive load
//! balancing. This harness runs SOR with both balancers across CP counts
//! and reports the settled cycle time of each.

use dynmpi::{BalancerKind, DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::sor::SorParams;
use dynmpi_obs::Recorder;
use dynmpi_sim::{LoadScript, NodeSpec};

use super::{settled_cycle, Figure, SIM};
use crate::{fmt_s, print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "ablation_balancer",
    honours: SIM,
    rows,
    print,
};

row! {
    table: &'static str,
    nodes: usize,
    cps: u32,
    naive_cycle_s: f64,
    sb_cycle_s: f64,
    gain_pct: f64,
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let (n, iters, node) = if args.quick {
        (512, 90usize, NodeSpec::with_speed(20e6))
    } else {
        (1024, 150usize, NodeSpec::ultra5_360())
    };
    let items: Vec<(usize, u32)> = [8usize, 16]
        .into_iter()
        .flat_map(|nodes| [1u32, 2, 3].map(|cps| (nodes, cps)))
        .collect();
    // --trace-out/--profile-out record the long successive-balancing run
    // of the first configuration (8 nodes, 1 CP).
    dynmpi_testkit::sweep(&items, args.threads, |i, item| {
        let (nodes, cps) = *item;
        let script = LoadScript::dedicated().at_cycle(nodes - 1, 10, cps);
        let settled = |balancer: BalancerKind, rec: Option<Recorder>| {
            let mk = |iters: usize, rec: Option<Recorder>| {
                let p = SorParams {
                    n,
                    iters,
                    omega: 1.5,
                    exercise_kernel: false,
                };
                run_sim_with(
                    &Experiment::new(AppSpec::Sor(p), nodes)
                        .with_node_spec(node)
                        .with_cfg(DynMpiConfig {
                            balancer,
                            drop_policy: DropPolicy::Never,
                            ..Default::default()
                        })
                        .with_script(script.clone()),
                    rec,
                )
            };
            let short = mk(iters, None);
            let long = mk(2 * iters, rec);
            settled_cycle(short.makespan, long.makespan, iters)
        };
        let naive = settled(BalancerKind::RelativePower, None);
        let sb = settled(BalancerKind::SuccessiveBalancing, inst.recorder_for(i == 0));
        Row {
            table: "ablation_balancer",
            nodes,
            cps,
            naive_cycle_s: naive,
            sb_cycle_s: sb,
            gain_pct: (naive - sb) / naive * 100.0,
        }
    })
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.nodes.to_string(),
                row.cps.to_string(),
                fmt_s(row.naive_cycle_s),
                fmt_s(row.sb_cycle_s),
                format!("{:+.1}%", row.gain_pct),
            ]
        })
        .collect();
    print_table(
        "Ablation — settled SOR cycle time: relative power vs successive balancing",
        &["nodes", "CPs", "naive(s)", "succ-bal(s)", "gain"],
        &table,
    );
}
