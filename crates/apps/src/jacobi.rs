//! Jacobi iteration (§5: first benchmark application).
//!
//! Solves a Laplace problem on an `n × n` grid with fixed boundaries by
//! repeated 5-point averaging between two buffers. Rows are
//! block-distributed; each cycle exchanges boundary rows with the
//! neighbors and sweeps the owned interior rows. This is the paper's
//! Figure 1/2 program, written against the Dyn-MPI API.

use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig};
use dynmpi_comm::HostMeters;

use crate::result::{checksum_and_digest, AppResult};
use crate::{vector, work};

/// Jacobi parameters.
#[derive(Clone, Debug)]
pub struct JacobiParams {
    /// Grid dimension (paper default 2048).
    pub n: usize,
    /// Phase cycles (paper default 250).
    pub iters: usize,
    /// Execute the real numeric kernel (disable for large timing-only
    /// sweeps; virtual timings are identical either way).
    pub exercise_kernel: bool,
    /// Request an explicit rebalance before this cycle (testing and the
    /// REDISTRIBUTE-annotation analogue).
    pub rebalance_at: Option<usize>,
}

impl JacobiParams {
    /// The paper's §5.1 configuration.
    pub fn paper() -> Self {
        JacobiParams {
            n: 2048,
            iters: 250,
            exercise_kernel: true,
            rebalance_at: None,
        }
    }

    /// A small configuration for tests.
    pub fn small(n: usize, iters: usize) -> Self {
        JacobiParams {
            n,
            iters,
            ..Self::paper()
        }
    }
}

/// Boundary condition: hot left edge, cold elsewhere.
fn initial(j: usize) -> f64 {
    if j == 0 {
        100.0
    } else {
        0.0
    }
}

/// Runs Jacobi on one rank. SPMD: call from every rank with identical
/// parameters.
pub fn run<T: HostMeters>(t: &T, p: &JacobiParams, cfg: DynMpiConfig) -> AppResult {
    let n = p.n;
    assert!(n >= 4, "grid too small");
    let mut rt = DynMpi::init(t, n, cfg);
    let a_id = rt.register_dense("A", n);
    let b_id = rt.register_dense("B", n);
    let ph = rt.init_phase(1, n - 1, CommPattern::NearestNeighbor);
    // Both buffers are alternately read (with a halo) and written.
    rt.add_access(ph, a_id, AccessMode::ReadWrite, Drsd::with_halo(1));
    rt.add_access(ph, b_id, AccessMode::ReadWrite, Drsd::with_halo(1));

    let mut ma = DenseMatrix::<f64>::new(n, n);
    let mut mb = DenseMatrix::<f64>::new(n, n);
    rt.setup(&mut [&mut ma, &mut mb]);
    ma.fill_rows(rt.local_rows(a_id), |_, j| initial(j));
    mb.fill_rows(rt.local_rows(b_id), |_, j| initial(j));

    let row_work = (n - 2) as f64 * work::JACOBI_POINT;
    let mut grids = (ma, mb);
    rt.run_cycles(
        p.iters,
        &mut grids,
        |(a, b)| [a, b],
        |rt, (ma, mb), step| {
            if p.rebalance_at == Some(step) {
                rt.request_rebalance();
            }
            if rt.participating() {
                // Even steps read B / write A, odd steps the reverse.
                let (src_id, src, dst) = if step.is_multiple_of(2) {
                    (b_id, mb, ma)
                } else {
                    (a_id, ma, mb)
                };
                rt.ghost_exchange(src_id, &mut *src);
                let rows = rt.my_rows(ph);
                // Row i is written into the storage of source row i − 2,
                // which is still warm: it was last read for row i − 1, and
                // the next step rewrites it. The boundary columns come
                // along unchanged, as `initial` does not depend on the
                // row. The last step keeps its source intact: the checksum
                // and the digest read it.
                let recycle = step + 1 < p.iters;
                if p.exercise_kernel {
                    vector::run(
                        #[inline(always)]
                        || {
                            for i in rows.clone() {
                                if recycle && i >= rows.start + 2 {
                                    dst.swap_row_storage(i, src, i - 2);
                                }
                                sweep_row(src, dst, i, n);
                            }
                        },
                    );
                }
                rt.charge_rows(ph, |_| row_work);
            }
        },
    );

    // Checksum and digest over the last step's *source*: the grid after
    // `iters − 1` sweeps (the initial grid when `iters` is 1), not the
    // last step's output. This is why the last step keeps its source
    // intact. Reading the output instead would move every committed
    // checksum.
    let final_m = if p.iters % 2 == 1 { &grids.1 } else { &grids.0 };
    let (local, state_digest) = if rt.participating() && p.exercise_kernel {
        checksum_and_digest(final_m, rt.my_rows(ph))
    } else {
        (0.0, 0)
    };
    let checksum = rt.allreduce_sum(&[local])[0];
    AppResult::new(&rt, ph, p.exercise_kernel.then_some(checksum), state_digest)
}

/// One row of the 5-point sweep: `dst[i] ← avg of src neighbors`, written
/// in place. The source and destination are different matrices, so nothing
/// aliases.
#[inline(always)]
fn sweep_row(src: &DenseMatrix<f64>, dst: &mut DenseMatrix<f64>, i: usize, n: usize) {
    sweep(
        src.row(i - 1),
        src.row(i),
        src.row(i + 1),
        &mut dst.row_mut(i)[..n],
    );
}

/// The sweep's body over one row's slices, all of `d`'s length, which
/// lets the loop run without bounds checks. The fixed boundary columns
/// keep the destination's own initial condition. [`vector::run`] compiles
/// it at the host's vector width.
#[inline(always)]
pub(crate) fn sweep(up: &[f64], mid: &[f64], down: &[f64], d: &mut [f64]) {
    let n = d.len();
    let (up, mid, down) = (&up[..n], &mid[..n], &down[..n]);
    for j in 1..n - 1 {
        d[j] = 0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmpi_comm::run_threads;

    /// Sequential reference sweep: the checksum and the digest of the
    /// grid the distributed run reads back, which is the last step's
    /// source (the grid after `iters − 1` sweeps), not its output.
    fn reference(n: usize, iters: usize) -> (f64, u64) {
        let mut a: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(initial).collect()).collect();
        let mut b = a.clone();
        for step in 0..iters {
            let (src, dst) = if step % 2 == 0 {
                (&b, &mut a)
            } else {
                (&a, &mut b)
            };
            // Mirror the distributed structure exactly: read src, write
            // only dst's interior.
            let mut next = dst.clone();
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    next[i][j] =
                        0.25 * (src[i - 1][j] + src[i + 1][j] + src[i][j - 1] + src[i][j + 1]);
                }
            }
            *dst = next;
        }
        let last = if iters % 2 == 1 { &b } else { &a };
        let mut m = DenseMatrix::new(n, n);
        m.fill_rows(1..n - 1, |i, j| last[i][j]);
        checksum_and_digest(&m, 1..n - 1)
    }

    #[test]
    fn matches_sequential_reference() {
        let n = 16;
        let iters = 7;
        let expect = reference(n, iters).0;
        for ranks in [1usize, 2, 3] {
            let outs = run_threads(ranks, |t| {
                run(t, &JacobiParams::small(n, iters), DynMpiConfig::no_adapt())
            });
            for r in &outs {
                let c = r.checksum.unwrap();
                assert!(
                    (c - expect).abs() < 1e-9 * expect.abs().max(1.0),
                    "{ranks} ranks: {c} vs {expect}"
                );
            }
        }
    }

    /// The recycled source rows change no bit: one rank's checksum is
    /// the reference's bit for bit, and the ranks' digest shares add up to
    /// its digest. At 1–3 steps the first and the last step meet; on the
    /// 8-row grid no rank owns the three rows that recycling needs.
    #[test]
    fn short_runs_and_tiny_blocks_match_the_reference_bits() {
        let short = (1..=3).flat_map(|iters| (1..=3).map(move |ranks| (16, iters, ranks)));
        for (n, iters, ranks) in short.chain([(8, 5, 3)]) {
            let (checksum, digest) = reference(n, iters);
            let outs = run_threads(ranks, |t| {
                run(t, &JacobiParams::small(n, iters), DynMpiConfig::no_adapt())
            });
            let shares = outs.iter().map(|r| r.state_digest);
            let sum = shares.fold(0, u64::wrapping_add);
            assert_eq!(sum, digest, "n {n}, {iters} steps, {ranks} ranks");
            if ranks == 1 {
                assert_eq!(outs[0].checksum.unwrap().to_bits(), checksum.to_bits());
            }
        }
    }

    #[test]
    fn rebalance_does_not_change_answer() {
        let n = 16;
        let iters = 12;
        let expect = reference(n, iters).0;
        let outs = run_threads(3, |t| {
            let cfg = DynMpiConfig {
                grace_period: 2,
                ..Default::default()
            };
            let mut p = JacobiParams::small(n, iters);
            p.rebalance_at = Some(3);
            run(t, &p, cfg)
        });
        for r in &outs {
            let c = r.checksum.unwrap();
            assert!(
                (c - expect).abs() < 1e-9 * expect.abs().max(1.0),
                "{c} vs {expect}"
            );
            // A load-change event must have been processed.
            assert!(r.events.iter().any(|e| e.kind() == "load-change"));
        }
    }

    /// Exact checksum bits, so a reassociated kernel fails here even
    /// where the 1e-9 comparisons above would let it pass. An odd width
    /// leaves a remainder after any vectorised body.
    #[test]
    fn checksum_bits_are_pinned() {
        for (ranks, bits) in [
            (1usize, 0x40ce_5578_ede9_df69_u64),
            (2, 0x40ce_5578_ede9_df6c),
            (3, 0x40ce_5578_ede9_df6c),
        ] {
            let outs = run_threads(ranks, |t| {
                run(t, &JacobiParams::small(37, 60), DynMpiConfig::no_adapt())
            });
            for r in &outs {
                assert_eq!(r.checksum.unwrap().to_bits(), bits, "{ranks} ranks");
            }
        }
    }

    #[test]
    fn kernel_skip_still_reports_times() {
        let outs = run_threads(2, |t| {
            let mut p = JacobiParams::small(12, 5);
            p.exercise_kernel = false;
            run(t, &p, DynMpiConfig::no_adapt())
        });
        for r in &outs {
            assert!(r.checksum.is_none());
            assert_eq!(r.state_digest, 0);
            assert_eq!(r.cycle_times.len(), 5);
        }
    }
}
