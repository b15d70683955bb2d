//! Figure 6: node removal.
//!
//! Red-Black SOR (1024×1024) on 8, 16, and 32 Ultra-Sparc-5-class nodes.
//! One node receives 1, 2, or 3 competing processes; after Dyn-MPI's
//! redistribution we measure the average phase-cycle time when the loaded
//! node is **kept** (with a successive-balancing distribution) vs. when
//! it is **dropped**. The paper's shape: dropping loses on 8 nodes, wins
//! slightly on 16 (2/7/8 %), and clearly on 32 (4/14/25 %) — removal pays
//! when the computation/communication ratio is low.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::sor::SorParams;
use dynmpi_obs::Recorder;
use dynmpi_sim::{LoadScript, NodeSpec};

use super::{settled_cycle, Figure, SIM};
use crate::{fmt_s, log_info, print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "fig6_node_removal",
    honours: SIM,
    rows,
    print,
};

row! {
    figure: &'static str,
    nodes: usize,
    cps: u32,
    keep_cycle_s: f64,
    drop_cycle_s: f64,
    /// Positive: dropping is faster.
    drop_gain_pct: f64,
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let (n, iters, node) = if args.quick {
        (512, 90usize, NodeSpec::with_speed(20e6))
    } else {
        (1024, 150usize, NodeSpec::ultra5_360())
    };
    let extra = iters; // long run doubles the cycles
    let items: Vec<(usize, u32)> = [8usize, 16, 32]
        .into_iter()
        .flat_map(|nodes| [1u32, 2, 3].map(|cps| (nodes, cps)))
        .collect();
    // --trace-out/--profile-out record the first drop-enabled short run (8 nodes, 1 CP,
    // sweep item 0). Each item runs four sims (keep/drop × short/long).
    dynmpi_testkit::sweep(&items, args.threads, |i, item| {
        let (nodes, cps) = *item;
        let script = LoadScript::dedicated().at_cycle(nodes - 1, 10, cps);
        let run_pair = |policy: DropPolicy, rec: Option<Recorder>| {
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
                            ..Default::default()
                        })
                        .with_script(script.clone())
                        .with_shards(args.shards),
                    rec,
                )
            };
            let short = mk(iters, rec);
            let long = mk(iters + extra, None);
            settled_cycle(short.makespan, long.makespan, extra)
        };
        let kc = run_pair(DropPolicy::Never, None);
        let dc = run_pair(DropPolicy::Always, inst.recorder_for(i == 0));
        let row = Row {
            figure: "fig6",
            nodes,
            cps,
            keep_cycle_s: kc,
            drop_cycle_s: dc,
            drop_gain_pct: (kc - dc) / kc * 100.0,
        };
        log_info!(
            "fig6 nodes={nodes} cps={cps}: keep {kc:.4}s drop {dc:.4}s gain {:+.1}%",
            row.drop_gain_pct
        );
        row
    })
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.nodes.to_string(),
                row.cps.to_string(),
                fmt_s(row.keep_cycle_s),
                fmt_s(row.drop_cycle_s),
                format!("{:+.1}", row.drop_gain_pct),
            ]
        })
        .collect();
    print_table(
        "Figure 6 — SOR avg phase-cycle time after redistribution: keep loaded node vs drop",
        &["nodes", "CPs", "keep(s)", "drop(s)", "drop gain %"],
        &table,
    );
    println!(
        "\npaper shape: dropping always worse on 8 nodes; 16 nodes: +2/+7/+8 %; \
         32 nodes: +4/+14/+25 % for 1/2/3 CPs"
    );
}
