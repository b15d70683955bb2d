//! Quickstart: a Dyn-MPI heat-diffusion stencil on a simulated cluster of
//! four nodes, written against the runtime's own API.
//!
//! The top quarter of the grid is a refined region: its rows cost four
//! times as much, so the even initial split leaves node 0 with most of the
//! work. Partway through we ask the runtime to rebalance (the
//! `REDISTRIBUTE` annotation analogue): it times every row through a grace
//! period and moves rows off node 0. Each sweep reads one buffer and
//! writes the other, so no cell depends on which rank computed it: the
//! final grid is bit for bit the one a run without the rebalance computes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig};
use dynmpi_comm::SimTransport;
use dynmpi_sim::{Cluster, NodeSpec};

const N: usize = 64;
const STEPS: usize = 40;
const REBALANCE_AT: usize = 10;

/// What one rank reports: the distribution before and after, its
/// adaptation events, and the final grid rows it owns (as bits).
#[derive(Default)]
struct RankOut {
    before: Vec<usize>,
    after: Vec<usize>,
    events: usize,
    rows: Vec<(usize, Vec<u64>)>,
}

/// Runs the stencil on four simulated nodes; `rebalance` asks for the
/// redistribution at step [`REBALANCE_AT`].
fn run(rebalance: bool) -> Vec<RankOut> {
    let cluster = Cluster::homogeneous(4, NodeSpec::with_speed(1e6));
    let outcome = cluster.run_spmd(|ctx| {
        let t = SimTransport::new(ctx);
        let mut rt = DynMpi::init(&t, N, DynMpiConfig::default());
        let a = rt.register_dense("A", N);
        let b = rt.register_dense("B", N);
        let ph = rt.init_phase(1, N - 1, CommPattern::NearestNeighbor);
        // Both buffers are alternately read (with a halo) and written.
        rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
        rt.add_access(ph, b, AccessMode::ReadWrite, Drsd::with_halo(1));

        let mut grids = (DenseMatrix::<f64>::new(N, N), DenseMatrix::new(N, N));
        rt.setup(&mut [&mut grids.0, &mut grids.1]);
        // Hot left wall, cold elsewhere.
        let hot_wall = |_, j| if j == 0 { 100.0 } else { 0.0 };
        grids.0.fill_rows(rt.local_rows(a), hot_wall);
        grids.1.fill_rows(rt.local_rows(b), hot_wall);

        let before = rt.distribution().counts();
        // The runtime owns the loop: it runs the body once per cycle and
        // adapts (here: rebalances) between cycles.
        rt.run_cycles(
            STEPS,
            &mut grids,
            |(ga, gb)| [ga, gb],
            |rt, (ga, gb), step| {
                if rebalance && step == REBALANCE_AT {
                    rt.request_rebalance();
                }
                if rt.participating() {
                    // Even steps read A and write B, odd steps the reverse.
                    let (src_id, src, dst) = if step.is_multiple_of(2) {
                        (a, ga, gb)
                    } else {
                        (b, gb, ga)
                    };
                    rt.ghost_exchange(src_id, &mut *src);
                    for i in rt.my_rows(ph) {
                        let (up, mid, down) = (src.row(i - 1), src.row(i), src.row(i + 1));
                        let row = dst.row_mut(i);
                        for j in 1..N - 1 {
                            row[j] = 0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
                        }
                    }
                    // A refined row costs four times as much.
                    rt.charge_rows(ph, |i| if i < N / 4 { 20.0 } else { 5.0 } * N as f64);
                }
            },
        );

        // The buffer the last step wrote.
        let last = [&grids.0, &grids.1][STEPS % 2];
        let rows = rt
            .my_rows(ph)
            .map(|i| (i, last.row(i).iter().map(|v| v.to_bits()).collect()))
            .collect();
        RankOut {
            before,
            after: rt.distribution().counts(),
            events: rt.events().len(),
            rows,
        }
    });
    outcome.results
}

/// The interior rows of the final grid, assembled from every rank's.
fn grid(ranks: &[RankOut]) -> Vec<Vec<u64>> {
    let mut rows: Vec<_> = ranks.iter().flat_map(|r| r.rows.iter().cloned()).collect();
    rows.sort_by_key(|&(i, _)| i);
    assert_eq!(rows.len(), N - 2, "every interior row is owned once");
    rows.into_iter().map(|(_, row)| row).collect()
}

fn main() {
    let adapted = run(true);
    let fixed = run(false);
    let rank0 = &adapted[0];
    println!("initial distribution : {:?}", rank0.before);
    println!("after rebalance      : {:?}", rank0.after);
    println!("adaptation events    : {}", rank0.events);
    assert_ne!(rank0.before, rank0.after, "the rebalance moved rows");
    assert!(
        adapted.iter().all(|r| r.after == rank0.after),
        "every rank holds the same distribution"
    );
    assert_eq!(fixed[0].after, fixed[0].before, "no rebalance, no move");
    assert!(
        grid(&adapted) == grid(&fixed),
        "the rebalanced run computed a different grid"
    );
    let sum: f64 = (grid(&adapted).iter().flatten())
        .map(|&v| f64::from_bits(v))
        .sum();
    println!("heat checksum        : {sum:.6}");
    println!(
        "the final grid equals the unbalanced run's bit for bit — redistribution is transparent."
    );
}
