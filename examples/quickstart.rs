//! Quickstart: a Dyn-MPI heat-diffusion stencil on real threads.
//!
//! Four rank threads solve a small Laplace problem; partway through we
//! ask the runtime to rebalance (the `REDISTRIBUTE` annotation analogue)
//! and show that the distribution changes while the numerical result does
//! not.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig};
use dynmpi_comm::run_threads;

fn main() {
    const N: usize = 64;
    const STEPS: usize = 40;

    let results = run_threads(4, |t| {
        let mut rt = DynMpi::init(t, N, DynMpiConfig::default());
        let a = rt.register_dense("grid", N);
        let ph = rt.init_phase(1, N - 1, CommPattern::NearestNeighbor);
        rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));

        let mut grid = DenseMatrix::<f64>::new(N, N);
        rt.setup(&mut [&mut grid]);
        // Hot left wall, cold elsewhere.
        grid.fill_rows(&rt.local_rows(a), |_, j| if j == 0 { 100.0 } else { 0.0 });

        let before = rt.distribution().counts();
        // The runtime owns the loop: it runs the body once per cycle and
        // adapts (here: rebalances) between cycles.
        rt.run_cycles(
            STEPS,
            &mut grid,
            |g| [g],
            |rt, grid, step| {
                if step == 10 {
                    rt.request_rebalance();
                }
                if rt.participating() {
                    rt.ghost_exchange(a, grid);
                    let (lo, hi) = rt.my_range(ph).expect("non-empty block");
                    for i in lo..=hi {
                        let up = grid.row(i - 1).to_vec();
                        let down = grid.row(i + 1).to_vec();
                        let row = grid.row_mut(i);
                        for j in 1..N - 1 {
                            row[j] = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
                        }
                    }
                    rt.charge_rows(ph, |_| 5.0 * N as f64);
                }
            },
        );

        let local: f64 = rt
            .my_rows(ph)
            .iter()
            .map(|i| grid.row(i).iter().sum::<f64>())
            .sum();
        let total = rt.allreduce_sum(&[local])[0];
        (before, rt.distribution().counts(), total, rt.events().len())
    });

    let (before, after, total, nevents) = &results[0];
    println!("initial distribution : {before:?}");
    println!("after rebalance      : {after:?}");
    println!("adaptation events    : {nevents}");
    println!("heat checksum        : {total:.6}");
    for (r, (_, _, t, _)) in results.iter().enumerate() {
        assert!((t - total).abs() < 1e-9, "rank {r} disagrees");
    }
    println!("all ranks agree on the answer — redistribution is transparent.");
}
