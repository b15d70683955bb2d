//! Ablation: `dmpi_ps` vs `vmstat` load measurement (§4.2).
//!
//! The paper reports `vmstat`-style sampling is unreliable: an
//! application blocked at a receive vanishes from the run queue, so the
//! sampled load misses it. This harness runs a communication-bound
//! two-node program with competing processes and compares what the two
//! monitors report against the truth, per sampled second.

use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimTime};

use super::{Figure, SIM};
use crate::{print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "ablation_monitor",
    honours: SIM,
    rows,
    print,
};

row! {
    table: &'static str,
    ncp: u32,
    samples: usize,
    dmpi_ps_correct_pct: f64,
    vmstat_correct_pct: f64,
}

pub fn rows(args: &BenchArgs, inst: &Instrumentation) -> Vec<Row> {
    let seconds = if args.quick { 20 } else { 60 };
    let items = [1u32, 2, 3];
    // --trace-out/--profile-out record the first configuration (1 CP).
    dynmpi_testkit::sweep(&items, args.threads, |i, ncp| {
        let ncp = *ncp;
        let script = LoadScript::dedicated().at_time(0, SimTime::ZERO, ncp);
        let mut c = Cluster::homogeneous(2, NodeSpec::with_speed(1e7)).with_script(script);
        if let Some(rec) = inst.recorder_for(i == 0) {
            c = c.with_recorder(rec);
        }
        let out = c.run_spmd(move |ctx| {
            let me = ctx.rank();
            let other = 1 - me;
            let mut ps_hits = 0usize;
            let mut vm_hits = 0usize;
            let mut samples = 0usize;
            // Communication-bound loop in lockstep iterations: node 0
            // spends most time blocked at receives — exactly where vmstat
            // loses it. Node 1 computes ~40 ms per round.
            let iters = seconds as usize * 25 + 10;
            for _ in 0..iters {
                if me == 0 {
                    ctx.send(other, 1, vec![0u8; 64]);
                    let _ = ctx.recv(other, 2);
                    ctx.advance(5_000.0);
                    let now = ctx.now();
                    if now.floor_to_second() > SimTime::from_secs(samples as u64)
                        && now < SimTime::from_secs(seconds)
                    {
                        samples += 1;
                        // Truth: the application + ncp CPs live on node 0.
                        let truth = ncp + 1;
                        if ctx.dmpi_ps(0) == truth {
                            ps_hits += 1;
                        }
                        if ctx.vmstat(0) == truth {
                            vm_hits += 1;
                        }
                    }
                } else {
                    let _ = ctx.recv(other, 1);
                    ctx.advance(400_000.0);
                    ctx.send(other, 2, vec![0u8; 64]);
                }
            }
            (samples, ps_hits, vm_hits)
        });
        let (samples, ps, vm) = out.results[0];
        Row {
            table: "ablation_monitor",
            ncp,
            samples,
            dmpi_ps_correct_pct: ps as f64 / samples.max(1) as f64 * 100.0,
            vmstat_correct_pct: vm as f64 / samples.max(1) as f64 * 100.0,
        }
    })
}

pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.ncp.to_string(),
                row.samples.to_string(),
                format!("{:.0}%", row.dmpi_ps_correct_pct),
                format!("{:.0}%", row.vmstat_correct_pct),
            ]
        })
        .collect();
    print_table(
        "Ablation — monitor accuracy on a comm-bound node (correct load readings)",
        &["CPs", "samples", "dmpi_ps", "vmstat"],
        &table,
    );
    println!(
        "\n`dmpi_ps` always counts the monitored application (§4.2); `vmstat` misses it \
         whenever the sample lands while it is blocked at a receive."
    );
}
