//! Red-Black successive over-relaxation (§5, §5.3).
//!
//! In-place Gauss-Seidel with red/black ordering: each phase cycle runs a
//! red half-sweep and a black half-sweep, each preceded by a boundary-row
//! exchange — twice the communication of Jacobi per unit of compute,
//! which is why the paper uses SOR for the node-removal study (Figure 6).

use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig};
use dynmpi_comm::HostMeters;

use crate::result::{checksum_and_digest, AppResult};
use crate::work;

/// SOR parameters.
#[derive(Clone, Debug)]
pub struct SorParams {
    /// Grid dimension (Figure 6 uses 1024).
    pub n: usize,
    /// Phase cycles.
    pub iters: usize,
    /// Relaxation factor.
    pub omega: f64,
    /// Execute the real numeric kernel.
    pub exercise_kernel: bool,
}

impl SorParams {
    /// The Figure 6 configuration.
    pub fn paper() -> Self {
        SorParams {
            n: 1024,
            iters: 250,
            omega: 1.5,
            exercise_kernel: true,
        }
    }

    /// A small configuration for tests.
    pub fn small(n: usize, iters: usize) -> Self {
        SorParams {
            n,
            iters,
            ..Self::paper()
        }
    }
}

fn initial(i: usize, j: usize, n: usize) -> f64 {
    if i == 0 || j == 0 || i == n - 1 || j == n - 1 {
        ((i + 2 * j) % 7) as f64
    } else {
        0.0
    }
}

/// One half-sweep over row `i`, updating points of the given color
/// (`(i + j) % 2 == color`) in place. The points sit at `start`,
/// `start + 2`, …, `< n - 1`, so each pair `[j, j + 1]` holds one of them
/// and its right neighbour; the left one is carried from the previous
/// pair. Both neighbours are the other color, which this half-sweep only
/// reads.
fn half_sweep_row(g: &mut DenseMatrix<f64>, i: usize, n: usize, color: usize, omega: f64) {
    let (up, row, down) = g.stencil_mut(i);
    let start = if (i + 1) % 2 == color { 1 } else { 2 };
    let mut left = row[start - 1];
    let pairs = row[start..n]
        .chunks_exact_mut(2)
        .zip(up[start..n].chunks_exact(2))
        .zip(down[start..n].chunks_exact(2));
    for ((pair, u), d) in pairs {
        let avg = 0.25 * (u[0] + d[0] + left + pair[1]);
        pair[0] += omega * (avg - pair[0]);
        left = pair[1];
    }
}

/// Runs Red-Black SOR on one rank.
pub fn run<T: HostMeters>(t: &T, p: &SorParams, cfg: DynMpiConfig) -> AppResult {
    let n = p.n;
    assert!(n >= 4, "grid too small");
    let mut rt = DynMpi::init(t, n, cfg);
    let g_id = rt.register_dense("G", n);
    // Two phases per cycle: red then black, each nearest-neighbor.
    let ph_red = rt.init_phase(1, n - 1, CommPattern::NearestNeighbor);
    let ph_black = rt.init_phase(1, n - 1, CommPattern::NearestNeighbor);
    rt.add_access(ph_red, g_id, AccessMode::ReadWrite, Drsd::with_halo(1));
    rt.add_access(ph_black, g_id, AccessMode::ReadWrite, Drsd::with_halo(1));

    let mut g = DenseMatrix::<f64>::new(n, n);
    rt.setup(&mut [&mut g]);
    g.fill_rows(rt.local_rows(g_id), |i, j| initial(i, j, n));

    // Each half-sweep touches half the points of a row.
    let row_work = (n - 2) as f64 * 0.5 * work::SOR_POINT;
    rt.run_cycles(
        p.iters,
        &mut g,
        |g| [g],
        |rt, g, _| {
            if rt.participating() {
                for (phase, color) in [(ph_red, 0usize), (ph_black, 1usize)] {
                    rt.ghost_exchange(g_id, g);
                    if p.exercise_kernel {
                        for i in rt.my_rows(phase) {
                            half_sweep_row(g, i, n, color, p.omega);
                        }
                    }
                    rt.charge_rows(phase, |_| row_work);
                }
            }
        },
    );

    let (local, state_digest) = if rt.participating() && p.exercise_kernel {
        checksum_and_digest(&g, rt.my_rows(ph_red))
    } else {
        (0.0, 0)
    };
    let checksum = rt.allreduce_sum(&[local])[0];
    let checksum = p.exercise_kernel.then_some(checksum);
    AppResult::new(&rt, ph_red, checksum, state_digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmpi_comm::run_threads;

    fn reference(n: usize, iters: usize, omega: f64) -> f64 {
        let mut g: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| initial(i, j, n)).collect())
            .collect();
        for _ in 0..iters {
            for color in [0usize, 1] {
                for i in 1..n - 1 {
                    for j in 1..n - 1 {
                        if (i + j) % 2 == color {
                            let avg =
                                0.25 * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
                            g[i][j] += omega * (avg - g[i][j]);
                        }
                    }
                }
            }
        }
        g[1..n - 1].iter().map(|r| r.iter().sum::<f64>()).sum()
    }

    #[test]
    fn matches_sequential_reference() {
        let n = 14;
        let iters = 6;
        let p = SorParams::small(n, iters);
        let expect = reference(n, iters, p.omega);
        for ranks in [1usize, 2, 4] {
            let outs = run_threads(ranks, |t| run(t, &p, DynMpiConfig::no_adapt()));
            for r in &outs {
                let c = r.checksum.unwrap();
                assert!(
                    (c - expect).abs() < 1e-9 * expect.abs().max(1.0),
                    "{ranks} ranks: {c} vs {expect}"
                );
            }
        }
    }

    /// Exact checksum bits: the tolerance comparisons above would let a
    /// reassociated half-sweep pass. Sixty cycles, because the first few
    /// on integer boundaries round exactly whatever the association.
    #[test]
    fn checksum_bits_are_pinned() {
        for (ranks, bits) in [
            (1usize, 0x40a1_6fc0_d563_a3c1_u64),
            (2, 0x40a1_6fc0_d563_a3c2),
            (3, 0x40a1_6fc0_d563_a3c2),
        ] {
            let outs = run_threads(ranks, |t| {
                run(t, &SorParams::small(29, 60), DynMpiConfig::no_adapt())
            });
            for r in &outs {
                assert_eq!(r.checksum.unwrap().to_bits(), bits, "{ranks} ranks");
            }
        }
    }

    #[test]
    fn red_black_ordering_is_gauss_seidel_not_jacobi() {
        // The black half-sweep must see red's fresh values: with ω = 1
        // and one iteration this differs from a Jacobi sweep.
        let n = 8;
        let mut p = SorParams::small(n, 1);
        p.omega = 1.0;
        let expect = reference(n, 1, 1.0);
        let outs = run_threads(2, |t| run(t, &p, DynMpiConfig::no_adapt()));
        let c = outs[0].checksum.unwrap();
        assert!((c - expect).abs() < 1e-12 * expect.abs().max(1.0));
    }
}
