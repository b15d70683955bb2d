//! Particle simulation — a scaled-down MP3D analogue (§5, §5.4).
//!
//! Particles live in an `rows × cols` cell grid; each time step a fixed
//! fraction of every cell's particles drifts to the neighboring cells
//! (deterministically, so runs are reproducible). Rows are
//! block-distributed; flux into a row owned by another node crosses in
//! the runtime's neighbour exchange. Per-row compute cost is proportional
//! to the particles in the row, so iterations are **nonuniform** — the
//! case that forces per-iteration grace-period timing (§4.2) and the
//! Figure 7 study.

use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig};
use dynmpi_comm::HostMeters;

use crate::gen;
use crate::result::{checksum_and_digest, AppResult};
use crate::{vector, work};

/// Particle-simulation parameters.
#[derive(Clone, Debug)]
pub struct ParticleParams {
    /// Grid rows (paper: 256).
    pub rows: usize,
    /// Grid columns (paper: 256).
    pub cols: usize,
    /// Baseline particles per cell (paper: 1–2).
    pub base: f64,
    /// Particles per cell in the hot region (Fig. 7's `Part`).
    pub hot: f64,
    /// Hot region: the top half of node 0's initial rows (per §5.4) when
    /// `hot_rows` is `None`; otherwise the explicit row range.
    pub hot_rows: Option<std::ops::Range<usize>>,
    /// Time steps (paper: 200).
    pub iters: usize,
    /// Fraction of a cell's particles drifting to each vertical neighbor
    /// per step.
    pub drift: f64,
    pub seed: u64,
}

impl ParticleParams {
    /// The §5.1 configuration: one node with twice the particles.
    pub fn paper(nodes: usize) -> Self {
        let block = 256 / nodes;
        ParticleParams {
            rows: 256,
            cols: 256,
            base: 1.5,
            hot: 3.0,
            hot_rows: Some(0..block),
            iters: 200,
            drift: 0.05,
            seed: 11,
        }
    }

    /// The Figure 7 configuration: `part` particles per cell in the top
    /// half of P0's rows, 8 nodes.
    pub fn fig7(part: f64) -> Self {
        let block = 256 / 8;
        ParticleParams {
            rows: 256,
            cols: 256,
            base: 1.5,
            hot: part,
            hot_rows: Some(0..block / 2),
            iters: 200,
            drift: 0.05,
            seed: 11,
        }
    }

    /// A small configuration for tests.
    pub fn small(rows: usize, cols: usize, iters: usize) -> Self {
        ParticleParams {
            rows,
            cols,
            base: 2.0,
            hot: 8.0,
            hot_rows: Some(0..rows / 4),
            iters,
            drift: 0.1,
            seed: 11,
        }
    }
}

/// Runs the particle simulation on one rank; the checksum is the total
/// particle mass (conserved).
pub fn run<T: HostMeters>(t: &T, p: &ParticleParams, cfg: DynMpiConfig) -> AppResult {
    let (nr, nc) = (p.rows, p.cols);
    let mut rt = DynMpi::init(t, nr, cfg);
    let c_id = rt.register_dense("cells", nr);
    let ph = rt.init_phase(0, nr, CommPattern::NearestNeighbor);
    rt.add_access(ph, c_id, AccessMode::ReadWrite, Drsd::iter_space());

    let mut cells = DenseMatrix::<f64>::new(nr, nc);
    rt.setup(&mut [&mut cells]);
    let hot_rows = p.hot_rows.clone().unwrap_or(0..nr / 8);
    let init = gen::particle_counts(nr, nc, p.base, p.hot, hot_rows, p.seed);
    cells.fill_rows(rt.my_rows(ph), |i, j| init[i][j]);

    rt.run_cycles(
        p.iters,
        &mut cells,
        |c| [c],
        |rt, cells, _| {
            if rt.participating() {
                step_cells(rt, ph, cells, p);
                rt.charge_rows(ph, |i| cells.row(i).iter().sum::<f64>() * work::PARTICLE);
            }
        },
    );

    let (local, state_digest) = checksum_and_digest(&cells, rt.my_rows(ph));
    let checksum = rt.allreduce_sum(&[local])[0];
    AppResult::new(&rt, ph, Some(checksum), state_digest)
}

/// One drift step: horizontal drift within rows, vertical drift between
/// rows, the block's boundary rows' outflow crossing to its neighbours.
fn step_cells<T: HostMeters>(
    rt: &DynMpi<'_, T>,
    ph: usize,
    cells: &mut DenseMatrix<f64>,
    p: &ParticleParams,
) {
    let Some((lo, hi)) = rt.my_range(ph) else {
        return;
    };
    let (nr, d) = (p.rows, p.drift);

    // Vertical outflow per row, staged so updates don't cascade. A row
    // loses the same amount upward and downward, so it is computed once.
    let mut outflow: Vec<Vec<f64>> = Vec::with_capacity(hi + 1 - lo);
    vector::run(
        #[inline(always)]
        || {
            for i in lo..=hi {
                outflow.push(drift(cells.row_mut(i), d, i > 0, i + 1 < nr));
            }
        },
    );

    // The boundary rows' outflow goes to the neighbouring blocks, whose
    // flux comes in. Then every row adds the flux from below before the
    // flux from above, in the order one rank holding every row adds them,
    // so the grid's bits do not depend on the distribution: all upward
    // local flux, the block below's, all downward local flux, the block
    // above's.
    let (above, below) = rt.neighbor_exchange(ph, &outflow[0], &outflow[hi - lo]);
    for i in lo + 1..=hi {
        add_flux(cells.row_mut(i - 1), &outflow[i - lo]);
    }
    if let Some(flux) = below {
        add_flux(cells.row_mut(hi), &flux);
    }
    for i in lo..hi {
        add_flux(cells.row_mut(i + 1), &outflow[i - lo]);
    }
    if let Some(flux) = above {
        add_flux(cells.row_mut(lo), &flux);
    }
}

/// One row's drift, in place; returns the row's vertical outflow.
/// Horizontal drift first (purely local): a fraction `d` of every cell
/// shifts right, wrapping, so each cell gains what its left neighbour
/// loses and the first cell gains what the last loses. Every cell's
/// outflow is computed before any cell changes, so no value is carried
/// from one cell to the next and [`vector::run`] can compile the loops at
/// the host's vector width; each cell still computes `(c - m) + carry`.
/// Then the vertical outflow, which the row loses upward when `up` and
/// downward when `down`.
#[inline(always)]
pub(crate) fn drift(row: &mut [f64], d: f64, up: bool, down: bool) -> Vec<f64> {
    let nc = row.len();
    let mut flux: Vec<f64> = row.iter().map(|c| c * d).collect();
    row[0] = (row[0] - flux[0]) + flux[nc - 1];
    for ((c, m), carry) in row[1..].iter_mut().zip(&flux[1..]).zip(&flux[..nc - 1]) {
        *c = (*c - m) + carry;
    }
    for (f, c) in flux.iter_mut().zip(row.iter()) {
        *f = c * d;
    }
    for (c, f) in row.iter_mut().zip(&flux) {
        if up {
            *c -= f;
        }
        if down {
            *c -= f;
        }
    }
    flux
}

/// `row += flux`, cell by cell.
fn add_flux(row: &mut [f64], flux: &[f64]) {
    assert_eq!(row.len(), flux.len(), "flux does not match the row");
    for (c, f) in row.iter_mut().zip(flux) {
        *c += f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmpi_comm::run_threads;

    fn total(p: &ParticleParams) -> f64 {
        let init = gen::particle_counts(
            p.rows,
            p.cols,
            p.base,
            p.hot,
            p.hot_rows.clone().unwrap(),
            p.seed,
        );
        init.iter().flatten().sum()
    }

    #[test]
    fn mass_is_conserved() {
        let p = ParticleParams::small(16, 8, 10);
        let expect = total(&p);
        for ranks in [1usize, 2, 4] {
            let outs = run_threads(ranks, |t| run(t, &p, DynMpiConfig::no_adapt()));
            for r in &outs {
                let c = r.checksum.unwrap();
                assert!(
                    (c - expect).abs() < 1e-9 * expect,
                    "{ranks} ranks: mass {c} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn results_agree_across_rank_counts() {
        let p = ParticleParams::small(12, 6, 6);
        let a = run_threads(1, |t| run(t, &p, DynMpiConfig::no_adapt()))[0]
            .checksum
            .unwrap();
        let b = run_threads(3, |t| run(t, &p, DynMpiConfig::no_adapt()))[0]
            .checksum
            .unwrap();
        assert!((a - b).abs() < 1e-9 * a);
    }

    /// Exact checksum bits: mass is conserved only to rounding, so the
    /// tolerance comparisons above would let a reassociated drift pass.
    #[test]
    fn checksum_bits_are_pinned() {
        for (ranks, bits) in [
            (1usize, 0x4084_a000_0000_0000_u64),
            (2, 0x4084_a000_0000_0001),
            (3, 0x4084_a000_0000_0000),
        ] {
            let outs = run_threads(ranks, |t| {
                run(
                    t,
                    &ParticleParams::small(18, 11, 9),
                    DynMpiConfig::no_adapt(),
                )
            });
            for r in &outs {
                assert_eq!(r.checksum.unwrap().to_bits(), bits, "{ranks} ranks");
            }
        }
    }

    #[test]
    fn hot_region_makes_rows_nonuniform() {
        let p = ParticleParams::small(16, 8, 1);
        let init = gen::particle_counts(16, 8, p.base, p.hot, 0..4, p.seed);
        let hot_row: f64 = init[0].iter().sum();
        let cold_row: f64 = init[10].iter().sum();
        assert!(hot_row > 2.0 * cold_row);
    }
}
