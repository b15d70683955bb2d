//! Conjugate Gradient on an unstructured sparse system (§5: the NAS CG
//! analogue).
//!
//! Solves `A x = b` for a random symmetric diagonally dominant `A`
//! (NAS-style, adjustable density). `A` is row-distributed as a Dyn-MPI
//! **sparse** array (a vector of column-sorted rows); the solution vectors
//! are rowlen-1 dense arrays. Each iteration allgathers `p`, computes the
//! local mat-vec, and reduces the dot products globally — the reductions
//! use the removed-aware collective, so dropped nodes stay current (§4.4).
//! Neither the gather nor the reductions are death-aware, so CG is
//! outside the fault envelope (DESIGN.md §14).

use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig, SparseMatrix};
use dynmpi_comm::HostMeters;

use crate::gen;
use crate::result::AppResult;
use crate::work;

/// CG parameters.
#[derive(Clone, Debug)]
pub struct CgParams {
    /// System dimension (paper: 14000).
    pub n: usize,
    /// Off-diagonal nonzeros per row (paper-scale ≈ 132 for NAS class A
    /// density).
    pub offdiag_per_row: usize,
    /// CG iterations (phase cycles).
    pub iters: usize,
    /// Matrix seed.
    pub seed: u64,
}

impl CgParams {
    /// The §5.1 configuration (density reduced to keep memory sane while
    /// preserving the compute/communication ratio via the work model).
    pub fn paper() -> Self {
        CgParams {
            n: 14_000,
            offdiag_per_row: 132,
            iters: 250,
            seed: 1,
        }
    }

    /// A small configuration for tests.
    pub fn small(n: usize, iters: usize) -> Self {
        CgParams {
            n,
            offdiag_per_row: 6,
            iters,
            ..Self::paper()
        }
    }
}

/// Runs CG on one rank; returns the final residual norm as the checksum.
pub fn run<T: HostMeters>(t: &T, p: &CgParams, cfg: DynMpiConfig) -> AppResult {
    let n = p.n;
    let mut rt = DynMpi::init(t, n, cfg);
    let a_id = rt.register_sparse("A", n);
    let x_id = rt.register_dense("x", n);
    let r_id = rt.register_dense("r", n);
    let p_id = rt.register_dense("p", n);
    let ph = rt.init_phase(0, n, CommPattern::Global);
    rt.add_access(ph, a_id, AccessMode::Read, Drsd::iter_space());
    rt.add_access(ph, x_id, AccessMode::ReadWrite, Drsd::iter_space());
    rt.add_access(ph, r_id, AccessMode::ReadWrite, Drsd::iter_space());
    rt.add_access(ph, p_id, AccessMode::ReadWrite, Drsd::iter_space());

    let mut a = SparseMatrix::<f64>::new(n, n);
    let mut x = DenseMatrix::<f64>::new(n, 1);
    let mut r = DenseMatrix::<f64>::new(n, 1);
    let mut pv = DenseMatrix::<f64>::new(n, 1);
    rt.setup(&mut [&mut a, &mut x, &mut r, &mut pv]);

    // Deterministic global generation; keep owned rows.
    let mine = rt.my_rows(ph);
    for (i, j, v) in gen::spd_coords(n, p.offdiag_per_row, p.seed) {
        if mine.contains(&i) {
            let row = a.row_mut(i);
            let cur = row.get(j).copied().unwrap_or(0.0);
            row.set(j, cur + v);
        }
    }
    // x₀ = 0, b = 1 ⇒ r₀ = b, p₀ = r₀.
    x.fill_rows(mine.clone(), |_, _| 0.0);
    r.fill_rows(mine.clone(), |_, _| 1.0);
    pv.fill_rows(mine, |_, _| 1.0);

    let mut final_rr = f64::NAN;
    let mut q: Vec<(usize, f64)> = Vec::new();
    let mut sys = (a, x, r, pv);
    rt.run_cycles(
        p.iters,
        &mut sys,
        |(a, x, r, p)| [a, x, r, p],
        |rt, (a, x, r, pv), _| {
            // Ownership changes only between cycles.
            let mine = rt.my_rows(ph);
            let (mut rr_local, mut pq_local) = (0.0, 0.0);
            q.clear();
            if rt.participating() {
                // Assemble the full p vector from all active blocks.
                let my_p: Vec<f64> = mine.clone().map(|i| pv.row(i)[0]).collect();
                let full_p = rt.allgather(&my_p);
                debug_assert_eq!(full_p.len(), n);
                // q = A·p on my rows; accumulate r·r and p·q.
                for i in mine.clone() {
                    let mut qi = 0.0;
                    for (c, v) in a.row(i).iter() {
                        qi += v * full_p[c as usize];
                    }
                    q.push((i, qi));
                    rr_local += r.row(i)[0] * r.row(i)[0];
                    pq_local += pv.row(i)[0] * qi;
                }
                rt.charge_rows(ph, |i| {
                    a.row(i).nnz() as f64 * work::CG_NNZ + 3.0 * work::CG_VEC
                });
            }
            // Global reductions — every world rank calls these.
            let sums = rt.allreduce_sum(&[rr_local, pq_local]);
            let (rr, pq) = (sums[0], sums[1]);
            let alpha = if pq.abs() > 0.0 { rr / pq } else { 0.0 };
            let mut rr_new_local = 0.0;
            if rt.participating() {
                for &(i, qi) in &q {
                    x.row_mut(i)[0] += alpha * pv.row(i)[0];
                    let ri = r.row(i)[0] - alpha * qi;
                    r.row_mut(i)[0] = ri;
                    rr_new_local += ri * ri;
                }
            }
            let rr_new = rt.allreduce_sum(&[rr_new_local])[0];
            let beta = if rr.abs() > 0.0 { rr_new / rr } else { 0.0 };
            if rt.participating() {
                for i in mine {
                    let v = r.row(i)[0] + beta * pv.row(i)[0];
                    pv.row_mut(i)[0] = v;
                }
            }
            final_rr = rr_new;
        },
    );
    AppResult::new(&rt, ph, Some(final_rr.sqrt()), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_sim, AppSpec, Experiment};
    use dynmpi::DropPolicy;
    use dynmpi_comm::run_threads;
    use dynmpi_sim::{LoadScript, NodeSpec};

    /// Dense sequential CG for validation.
    fn reference(n: usize, offdiag: usize, seed: u64, iters: usize) -> f64 {
        let mut dense = vec![vec![0.0f64; n]; n];
        for (i, j, v) in gen::spd_coords(n, offdiag, seed) {
            dense[i][j as usize] += v;
        }
        let mut x = vec![0.0f64; n];
        let mut r = vec![1.0f64; n];
        let mut p = r.clone();
        let mut rr_new = 0.0;
        for _ in 0..iters {
            let q: Vec<f64> = (0..n)
                .map(|i| (0..n).map(|j| dense[i][j] * p[j]).sum())
                .collect();
            let rr: f64 = r.iter().map(|v| v * v).sum();
            let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            let alpha = if pq.abs() > 0.0 { rr / pq } else { 0.0 };
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            rr_new = r.iter().map(|v| v * v).sum();
            let beta = if rr.abs() > 0.0 { rr_new / rr } else { 0.0 };
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
        }
        rr_new.sqrt()
    }

    #[test]
    fn matches_sequential_reference() {
        let (n, off, seed, iters) = (40, 4, 9, 8);
        let expect = reference(n, off, seed, iters);
        for ranks in [1usize, 3] {
            let outs = run_threads(ranks, |t| {
                let p = CgParams {
                    n,
                    offdiag_per_row: off,
                    iters,
                    seed,
                };
                run(t, &p, DynMpiConfig::no_adapt())
            });
            for res in &outs {
                let c = res.checksum.unwrap();
                assert!(
                    (c - expect).abs() < 1e-8 * expect.max(1.0),
                    "{ranks} ranks: {c} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn residual_decreases() {
        let outs = run_threads(2, |t| {
            let p = CgParams::small(60, 20);
            run(t, &p, DynMpiConfig::no_adapt())
        });
        // Diagonally dominant ⇒ CG converges fast: residual far below
        // the initial ‖b‖ = √60.
        let c = outs[0].checksum.unwrap();
        assert!(c < 1e-6, "residual {c}");
    }

    /// The residual's bits, recorded before the sparse row became two
    /// vectors: storage that reorders one floating-point sum (the mat-vec,
    /// or a row rebuilt differently by a redistribution) moves them.
    #[test]
    fn residual_bits_are_pinned() {
        for (ranks, bits) in [
            (1usize, 0x3f25_62c2_ac21_767f_u64),
            (3, 0x3f25_62c2_ac21_7688),
        ] {
            let outs = run_threads(ranks, |t| {
                run(t, &CgParams::small(80, 12), DynMpiConfig::no_adapt())
            });
            for res in &outs {
                assert_eq!(res.checksum.unwrap().to_bits(), bits, "{ranks} ranks");
            }
        }

        // Two competing processes on node 1 from cycle 2: rows of `A` move
        // at cycle 8 of 16.
        let sim = run_sim(
            &Experiment::new(AppSpec::Cg(CgParams::small(200, 16)), 4)
                .with_node_spec(NodeSpec::with_speed(4e4))
                .with_cfg(DynMpiConfig {
                    drop_policy: DropPolicy::Never,
                    ..Default::default()
                })
                .with_script(LoadScript::dedicated().at_cycle(1, 2, 2)),
        );
        assert!(
            sim.events().iter().any(|e| e.kind() == "redistributed"),
            "the simulated run must redistribute mid-solve: {:?}",
            sim.events()
        );
        assert_eq!(sim.checksum().unwrap().to_bits(), 0x3ee1_18bc_00f1_fa4d);
    }

    #[test]
    fn rebalance_mid_solve_preserves_solution() {
        let (n, off, seed, iters) = (40, 4, 9, 10);
        let expect = reference(n, off, seed, iters);
        let outs = run_threads(3, |t| {
            // Adaptation on; force a redistribution via request_rebalance
            // within the runtime by toggling? Not exposed per-app here;
            // instead run with tiny grace and no load: adaptation stays
            // quiet but the full control path runs every cycle.
            let p = CgParams {
                n,
                offdiag_per_row: off,
                iters,
                seed,
            };
            run(t, &p, DynMpiConfig::default())
        });
        for res in &outs {
            let c = res.checksum.unwrap();
            assert!(
                (c - expect).abs() < 1e-8 * expect.max(1.0),
                "{c} vs {expect}"
            );
        }
    }
}
