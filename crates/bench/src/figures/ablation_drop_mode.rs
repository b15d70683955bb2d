//! Ablation: physical vs logical node dropping (§2.2).
//!
//! Logical dropping keeps a "removed" node in the computation with a
//! minimum share so ranks stay static; physical dropping removes it and
//! reassigns relative ranks. The paper states the difference "can be
//! significant". This harness measures both on SOR with a heavily loaded
//! node.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::sor::SorParams;
use dynmpi_obs::Recorder;
use dynmpi_sim::{LoadScript, NodeSpec};

use super::{settled_cycle, Figure, UNSHARDED};
use crate::{fmt_s, print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "ablation_drop_mode",
    honours: UNSHARDED,
    rows,
    print,
};

row! {
    table: &'static str,
    nodes: usize,
    cps: u32,
    logical_cycle_s: f64,
    physical_cycle_s: f64,
    physical_gain_pct: f64,
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let (n, iters, node) = if args.quick {
        (512, 90usize, NodeSpec::with_speed(20e6))
    } else {
        (1024, 150usize, NodeSpec::ultra5_360())
    };
    let items = [8usize, 16, 32];
    // --trace-out/--profile-out record the long physical-drop run of the
    // first configuration (8 nodes).
    dynmpi_testkit::sweep(&items, args.threads, |i, nodes| {
        let nodes = *nodes;
        let cps = 3u32;
        let script = LoadScript::dedicated().at_cycle(nodes - 1, 10, cps);
        let settled = |policy: DropPolicy, rec: Option<Recorder>| {
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
                            drop_policy: policy,
                            min_rows_logical: 2,
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
        let logical = settled(DropPolicy::Logical, None);
        let physical = settled(DropPolicy::Always, inst.recorder_for(i == 0));
        Row {
            table: "ablation_drop_mode",
            nodes,
            cps,
            logical_cycle_s: logical,
            physical_cycle_s: physical,
            physical_gain_pct: (logical - physical) / logical * 100.0,
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
                fmt_s(row.logical_cycle_s),
                fmt_s(row.physical_cycle_s),
                format!("{:+.1}%", row.physical_gain_pct),
            ]
        })
        .collect();
    print_table(
        "Ablation — settled SOR cycle time: logical vs physical node dropping (3 CPs)",
        &["nodes", "CPs", "logical(s)", "physical(s)", "physical gain"],
        &table,
    );
}
