//! §4.3 micro-benchmark table: two-node computation/communication
//! sweeps.
//!
//! For each (comp/comm ratio, CP count) point, sweep the loaded node's
//! work fraction in the simulator, report the measured optimum against
//! the naive relative-power fraction, and fit the penalty model's wait
//! factor — the calibration step behind successive balancing.

use dynmpi::microbench::{fit_wait_factor, probe, ProbePoint};

use super::{Figure, PLAIN};
use crate::{print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "tab_microbench",
    honours: PLAIN,
    rows,
    print,
};

row! {
    table: &'static str,
    total_work: f64,
    msg_bytes: usize,
    ncp: u32,
    naive_fraction: f64,
    best_fraction: f64,
    naive_cycle_s: f64,
    best_cycle_s: f64,
    gain_pct: f64,
}

/// Xeon-class node speed of both probe nodes.
const SPEED: f64 = 100e6;

pub fn rows(args: &BenchArgs, _: &Instrumentation) -> Vec<Row> {
    let (grid, cycles) = if args.quick { (8, 10) } else { (16, 30) };
    let mut rows = Vec::new();
    // Comp/comm ratios from compute-heavy to comm-heavy (message 16 KB ≈
    // one 2048-double ghost row).
    for total_work in [8.0e6, 2.0e6, 0.5e6] {
        for ncp in [1u32, 2, 3] {
            let p = ProbePoint {
                total_work,
                msg_bytes: 16_384,
                ncp,
            };
            let r = probe(SPEED, p, grid, cycles);
            rows.push(Row {
                table: "microbench",
                total_work,
                msg_bytes: p.msg_bytes,
                ncp,
                naive_fraction: r.naive_fraction,
                best_fraction: r.best_fraction,
                naive_cycle_s: r.naive_cycle,
                best_cycle_s: r.best_cycle,
                gain_pct: (r.naive_cycle - r.best_cycle) / r.naive_cycle * 100.0,
            });
        }
    }
    rows
}

/// The table, then the wait factor fitted to a coarse re-probe of every
/// point.
pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1e}", r.total_work),
                r.ncp.to_string(),
                format!("{:.3}", r.naive_fraction),
                format!("{:.3}", r.best_fraction),
                format!("{:.2}ms", r.naive_cycle_s * 1e3),
                format!("{:.2}ms", r.best_cycle_s * 1e3),
                format!("{:+.1}%", r.gain_pct),
            ]
        })
        .collect();
    print_table(
        "§4.3 micro-benchmarks — loaded-node work fraction: naive vs measured best",
        &[
            "work",
            "CPs",
            "naive frac",
            "best frac",
            "naive cycle",
            "best cycle",
            "gain",
        ],
        &table,
    );
    let probes: Vec<_> = rows
        .iter()
        .map(|r| {
            probe(
                SPEED,
                ProbePoint {
                    total_work: r.total_work,
                    msg_bytes: r.msg_bytes,
                    ncp: r.ncp,
                },
                4,
                6,
            )
        })
        .collect();
    let wf = fit_wait_factor(&probes, 0.010);
    println!("\nfitted wait factor: {wf:.2} (config default 0.05)");
}
