//! Sparse conjugate gradient under load (§5.1's case study, scaled).
//!
//! Solves a random SPD system with the Dyn-MPI **sparse** array (a vector
//! of column-sorted rows): the matrix and the solution vectors all
//! redistribute when a competing process appears. Global reductions use
//! the removed-aware collective, so the solve would stay correct even
//! across node removal.
//!
//! ```sh
//! cargo run --release --example sparse_cg
//! ```

use dynmpi::DynMpiConfig;
use dynmpi_apps::cg::{self, CgParams};
use dynmpi_apps::harness::{run_sim, AppSpec, Experiment};
use dynmpi_comm::run_threads;
use dynmpi_sim::{LoadScript, NodeSpec};

fn main() {
    let params = CgParams {
        n: 1_000,
        offdiag_per_row: 12,
        iters: 60,
        seed: 7,
    };

    // First on real threads (no cluster model): prove the solver itself.
    println!(
        "thread transport: solving {}×{} system on 4 rank threads…",
        params.n, params.n
    );
    let thread_res = run_threads(4, |t| cg::run(t, &params, DynMpiConfig::no_adapt()));
    let residual = thread_res[0].checksum.unwrap();
    println!("  final residual ‖r‖ = {residual:.3e}");
    assert!(
        residual < 1e-8,
        "CG must converge on a diagonally dominant system"
    );

    // Then on the virtual cluster with a competing process at cycle 10.
    println!("\nvirtual cluster: same solve, 1 CP lands on node 3 at cycle 10…");
    let script = LoadScript::dedicated().at_cycle(3, 10, 1);
    let node = NodeSpec::with_speed(5e6);
    let no_adapt = run_sim(
        &Experiment::new(AppSpec::Cg(params.clone()), 4)
            .with_node_spec(node)
            .with_cfg(DynMpiConfig::no_adapt())
            .with_script(script.clone()),
    );
    let adapt = run_sim(
        &Experiment::new(AppSpec::Cg(params), 4)
            .with_node_spec(node)
            .with_cfg(DynMpiConfig::default())
            .with_script(script),
    );
    println!("  no adaptation : {:7.2}s", no_adapt.makespan);
    println!(
        "  Dyn-MPI       : {:7.2}s  ({} events, redistribution {:.3}s)",
        adapt.makespan,
        adapt.events().len(),
        adapt.redist_seconds()
    );
    let (a, b) = (no_adapt.checksum().unwrap(), adapt.checksum().unwrap());
    println!("  residuals agree: {a:.3e} vs {b:.3e}");
    assert!((a - b).abs() <= 1e-12 + 1e-6 * a.abs());
    assert!((residual - a).abs() <= 1e-12 + 1e-6 * residual.abs());
    println!("\nsame answer on every transport and configuration.");
}
