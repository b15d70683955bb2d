//! Figure 7: grace-period length under nonuniform iterations.
//!
//! The particle simulation on 8 nodes, 256×256 cells, with `Part`
//! particles per cell in the top half of P0's rows (10 or 50). Iterations
//! run under the 10 ms `/proc` tick, so the grace period must use
//! min-of-`gethrtime` wallclock timing; with GP = 1 a single sample keeps
//! competing-process context-switch spikes in the row weights and the
//! resulting distribution is worse. The paper measures 13 % (Part = 10)
//! and 16 % (Part = 50) better post-redistribution execution with GP = 5.

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::harness::{run_sim_with, AppSpec, Experiment};
use dynmpi_apps::particle::ParticleParams;
use dynmpi_obs::Recorder;
use dynmpi_sim::LoadScript;

use super::{settled_cycle, Figure, SIM};
use crate::{fmt_s, log_info, print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "fig7_grace_period",
    honours: SIM,
    rows,
    print,
};

row! {
    figure: &'static str,
    part: f64,
    gp: u32,
    settled_cycle_s: f64,
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let iters = if args.quick { 120 } else { 200 };
    let extra = iters;
    let items: Vec<(f64, u32)> = [10.0f64, 50.0]
        .into_iter()
        .flat_map(|part| [1u32, 5].map(|gp| (part, gp)))
        .collect();
    // --trace-out/--profile-out record the long run of the first arm
    // (Part = 10, GP = 1, sweep item 0).
    dynmpi_testkit::sweep(&items, args.threads, |i, item| {
        let (part, gp) = *item;
        // Per §5.4 the competing process lands on P0 — the node that
        // also holds the imbalanced hot rows, so mismeasuring them
        // corrupts exactly the weights that matter.
        let script = LoadScript::dedicated().at_cycle(0, 10, 1);
        let cfg = DynMpiConfig {
            grace_period: gp,
            drop_policy: DropPolicy::Never,
            ..Default::default()
        };
        let mk = |iters: usize, rec: Option<Recorder>| {
            let mut p = ParticleParams::fig7(part);
            p.iters = iters;
            run_sim_with(
                &Experiment::new(AppSpec::Particle(p), 8)
                    .with_cfg(cfg.clone())
                    .with_script(script.clone())
                    .with_shards(args.shards),
                rec,
            )
        };
        let short = mk(iters, None);
        let long = mk(iters + extra, inst.recorder_for(i == 0));
        let settled = settled_cycle(short.makespan, long.makespan, extra);
        log_info!("fig7 part={part} gp={gp}: settled {settled:.4}s/cycle");
        Row {
            figure: "fig7",
            part,
            gp,
            settled_cycle_s: settled,
        }
    })
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                format!("{}", row.part),
                row.gp.to_string(),
                fmt_s(row.settled_cycle_s),
            ]
        })
        .collect();
    print_table(
        "Figure 7 — particle sim, 8 nodes: settled cycle time by grace period",
        &["Part", "GP", "cycle(s)"],
        &table,
    );
    for part in [10.0f64, 50.0] {
        let get = |gp: u32| {
            rows.iter()
                .find(|r| r.part == part && r.gp == gp)
                .unwrap()
                .settled_cycle_s
        };
        let (g1, g5) = (get(1), get(5));
        println!(
            "Part={part}: GP=5 is {:.1}% better than GP=1 (paper: {}%)",
            (g1 - g5) / g1 * 100.0,
            if part == 10.0 { 13 } else { 16 },
        );
    }
}
