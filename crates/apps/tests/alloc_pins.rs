//! Deterministic pins on what the applications' numeric kernels allocate:
//! nothing. Jacobi's sweep writes each row into storage it already holds,
//! recycled from a finished source row or its own, so a cycle that runs
//! the kernel allocates exactly what a cycle that skips it does.

use dynmpi::DynMpiConfig;
use dynmpi_apps::harness::run_sim;
use dynmpi_apps::jacobi::JacobiParams;
use dynmpi_apps::{AppSpec, Experiment};
use dynmpi_sim::NodeSpec;
use dynmpi_testkit::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of a whole adaptive 4-node Jacobi run of `iters` cycles on
/// a 64 × 64 grid, with or without its numeric kernel.
fn jacobi_allocations(iters: usize, kernel: bool) -> u64 {
    let p = JacobiParams {
        exercise_kernel: kernel,
        ..JacobiParams::small(64, iters)
    };
    let exp = Experiment::new(AppSpec::Jacobi(p), 4)
        .with_node_spec(NodeSpec::with_speed(1e6))
        .with_cfg(DynMpiConfig::default());
    allocations(|| {
        run_sim(&exp);
    })
}

/// Allocations per cycle: the growth from 70 to 120 cycles, the same in
/// each of those 50 (no per-cycle list doubles in between). A first run
/// fills the thread's pool of rank stacks.
fn per_cycle(kernel: bool) -> u64 {
    jacobi_allocations(1, kernel);
    let grown = jacobi_allocations(120, kernel) - jacobi_allocations(70, kernel);
    assert_eq!(grown % 50, 0, "{grown} allocations over 50 cycles");
    grown / 50
}

#[test]
fn a_jacobi_sweep_allocates_nothing() {
    assert_eq!(per_cycle(true), per_cycle(false));
}
