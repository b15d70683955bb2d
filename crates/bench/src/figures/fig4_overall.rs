//! Figure 4: overall results.
//!
//! Each of the four applications runs on 2, 4, and 8 nodes in three
//! variants: all nodes **dedicated**; one competing process introduced on
//! node 0 at the 10th phase cycle with **no adaptation**; and the same
//! load with **Dyn-MPI** adapting. Times are normalized to the dedicated
//! run, as in the paper's bars (smaller is better).

use dynmpi::DynMpiConfig;
use dynmpi_apps::cg::CgParams;
use dynmpi_apps::harness::{run_sim, run_sim_with, AppSpec, Experiment};
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::particle::ParticleParams;
use dynmpi_apps::sor::SorParams;
use dynmpi_sim::{LoadScript, NodeSpec};

use super::{Figure, SIM};
use crate::{fmt_s, fmt_x, log_info, print_table, BenchArgs, Honours, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "fig4_overall",
    honours: Honours { only: true, ..SIM },
    rows,
    print,
};

row! {
    figure: &'static str,
    app: &'static str,
    nodes: usize,
    dedicated_s: f64,
    no_adapt_s: f64,
    dynmpi_s: f64,
    no_adapt_norm: f64,
    dynmpi_norm: f64,
    redist_s: f64,
}

/// The paper's input for `app` on `nodes` nodes, or its scaled-down
/// `--quick` twin.
fn app_spec(app: &str, nodes: usize, quick: bool) -> AppSpec {
    let scale = |full: usize, quick_v: usize| if quick { quick_v } else { full };
    match app {
        "jacobi" => AppSpec::Jacobi(JacobiParams {
            n: scale(2048, 512),
            iters: scale(250, 100),
            exercise_kernel: false,
            rebalance_at: None,
        }),
        "sor" => AppSpec::Sor(SorParams {
            n: scale(1024, 512),
            iters: scale(250, 100),
            omega: 1.5,
            exercise_kernel: false,
        }),
        "cg" => AppSpec::Cg(CgParams {
            n: scale(14_000, 1_400),
            offdiag_per_row: scale(132, 24),
            iters: scale(250, 100),
            seed: 1,
        }),
        _ => {
            let mut p = ParticleParams::paper(nodes);
            p.iters = scale(200, 100);
            AppSpec::Particle(p)
        }
    }
}

/// One row per `(app, nodes)` configuration `--only` keeps; empty when it
/// keeps none.
pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    // Pre-build every (app, nodes) configuration, then run them through the
    // parallel sweep: each item is three independent deterministic sims, so
    // results (and thus the JSONL) are identical at any --threads value.
    // `--only app/nodes` (substring match, e.g. `--only jacobi/8`) trims
    // the sweep to the configurations of interest — mainly for profiling
    // one run without paying for the other eleven.
    let items: Vec<(&'static str, usize, AppSpec, NodeSpec)> = ["jacobi", "sor", "cg", "particle"]
        .into_iter()
        .flat_map(|name| {
            // Quick mode shrinks the problem but also slows the nodes, so
            // virtual cycle times (and hence the 1 Hz monitor's behaviour)
            // stay paper-like.
            let node = if args.quick && name != "particle" {
                NodeSpec::with_speed(5e6)
            } else {
                NodeSpec::xeon_550()
            };
            [2usize, 4, 8]
                .into_iter()
                .map(move |nodes| (name, nodes, app_spec(name, nodes, args.quick), node))
                .collect::<Vec<_>>()
        })
        .filter(|(name, nodes, _, _)| args.keeps(&format!("{name}/{nodes}")))
        .collect();

    // Rough per-arm cost estimates steer the weighted sweep's claim order
    // so the big 8-node arms start first instead of tail-blocking the pool
    // from the back of the input list. Only the ordering matters.
    let weights: Vec<f64> = items
        .iter()
        .map(|(name, nodes, _, _)| {
            let app_cost = match *name {
                "cg" => 3.0, // all-reduce every iteration: traffic ∝ nodes
                "particle" => 1.5,
                _ => 1.0,
            };
            app_cost * (*nodes as f64)
        })
        .collect();
    // With --trace-out/--profile-out/--health-out/--watch, the first
    // Dyn-MPI run (the smallest selected adaptive configuration, pinned to
    // sweep item 0) is instrumented; later runs would overlay the same
    // virtual-time axis in one trace.
    dynmpi_testkit::sweep_weighted(&items, &weights, args.threads, |i, item| {
        let (name, nodes, spec, node) = item;
        let (name, nodes) = (*name, *nodes);
        // The competing process appears at the 10th phase cycle on one
        // node (§5.1) — the last one for the uniform apps, but for the
        // particle simulation the paper puts it on the node that also
        // holds twice the particles (node 0).
        let cp_node = if name == "particle" { 0 } else { nodes - 1 };
        let loaded_script = LoadScript::dedicated().at_cycle(cp_node, 10, 1);
        let ded = run_sim(
            &Experiment::new(spec.clone(), nodes)
                .with_node_spec(*node)
                .with_cfg(DynMpiConfig::no_adapt())
                .with_shards(args.shards),
        );
        let noad = run_sim(
            &Experiment::new(spec.clone(), nodes)
                .with_node_spec(*node)
                .with_cfg(DynMpiConfig::no_adapt())
                .with_script(loaded_script.clone())
                .with_shards(args.shards),
        );
        let dyn_ = run_sim_with(
            &Experiment::new(spec.clone(), nodes)
                .with_node_spec(*node)
                .with_cfg(DynMpiConfig::default())
                .with_script(loaded_script.clone())
                .with_shards(args.shards),
            inst.recorder_for(i == 0),
        );
        log_info!(
            "fig4 {name} n={nodes}: ded {:.2}s noadapt {:.2}s dynmpi {:.2}s",
            ded.makespan,
            noad.makespan,
            dyn_.makespan
        );
        Row {
            figure: "fig4",
            app: name,
            nodes,
            dedicated_s: ded.makespan,
            no_adapt_s: noad.makespan,
            dynmpi_s: dyn_.makespan,
            no_adapt_norm: noad.makespan / ded.makespan,
            dynmpi_norm: dyn_.makespan / ded.makespan,
            redist_s: dyn_.redist_seconds(),
        }
    })
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.app.to_string(),
                row.nodes.to_string(),
                fmt_s(row.dedicated_s),
                fmt_s(row.no_adapt_s),
                fmt_s(row.dynmpi_s),
                fmt_x(row.no_adapt_norm),
                fmt_x(row.dynmpi_norm),
                fmt_s(row.redist_s),
            ]
        })
        .collect();
    print_table(
        "Figure 4 — execution time relative to all-dedicated (1 CP on one node at cycle 10)",
        &[
            "app",
            "nodes",
            "dedicated(s)",
            "no-adapt(s)",
            "dynmpi(s)",
            "no-adapt×",
            "dynmpi×",
            "redist(s)",
        ],
        &table,
    );
    let improvements: Vec<f64> = rows
        .iter()
        .map(|r| (r.no_adapt_s - r.dynmpi_s) / r.no_adapt_s * 100.0)
        .collect();
    let mean_impr = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let max_ratio = rows
        .iter()
        .map(|r| r.no_adapt_s / r.dynmpi_s)
        .fold(0.0, f64::max);
    let mean_slow = rows
        .iter()
        .map(|r| (r.dynmpi_norm - 1.0) * 100.0)
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "\nsummary: Dyn-MPI vs no-adapt improvement mean {mean_impr:.0}% (paper: 72% avg), \
         best ratio {max_ratio:.2}× (paper: up to ~3×); slowdown vs dedicated mean \
         {mean_slow:.0}% (paper: 29% avg)"
    );
}
