//! Data-distribution algorithms (§4.3).
//!
//! Given per-row unloaded work weights and per-node load information, pick
//! a variable block distribution.
//!
//! * [`relative_power`] — the traditional method: node `i`'s share of work
//!   is proportional to `speed_i / (1 + ncp_i)`. The paper calls this the
//!   "naive" distribution.
//! * [`successive_balance`] — the paper's method: relative power corrected
//!   by the **CPU cost of communication**. A loaded node that blocks at a
//!   receive re-enters the OS run queue behind its competitors and waits
//!   up to `ncp × quantum` for a slice, so each phase cycle carries a
//!   fixed per-node penalty that pure relative power ignores. Successive
//!   balancing runs rounds that pair loaded nodes against the unloaded
//!   pool, converging on an assignment that equalizes *penalty-inclusive*
//!   completion times.

use crate::dist::Distribution;

/// Per-node load information at balancing time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeLoad {
    /// Competing processes on the node (from `dmpi_ps`).
    pub ncp: u32,
    /// Relative unloaded speed (1.0 for a homogeneous cluster).
    pub speed: f64,
}

impl NodeLoad {
    /// Available fraction of a reference node: `speed / (1 + ncp)`.
    pub fn availability(&self) -> f64 {
        self.speed / f64::from(self.ncp + 1)
    }

    pub fn unloaded(speed: f64) -> Self {
        NodeLoad { ncp: 0, speed }
    }
}

/// Communication-cost model parameters for the penalty term.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommModel {
    /// Blocking receives per phase cycle on one node (from the registered
    /// phase patterns).
    pub blocking_recvs_per_cycle: f64,
    /// OS scheduler quantum, seconds.
    pub quantum: f64,
    /// Expected wait per blocking receive per competing process, as a
    /// fraction of the quantum (0.5 under uniform re-entry; calibrated by
    /// micro-benchmarks).
    pub wait_factor: f64,
}

impl CommModel {
    /// Expected extra wall time per phase cycle on a node with `ncp`
    /// competitors, due to waiting for scheduler slices after receives.
    pub fn penalty(&self, ncp: u32) -> f64 {
        self.blocking_recvs_per_cycle * self.wait_factor * self.quantum * f64::from(ncp)
    }

    /// A model with no communication cost (reduces successive balancing
    /// to relative power — used in tests and ablations).
    pub fn zero() -> Self {
        CommModel {
            blocking_recvs_per_cycle: 0.0,
            quantum: 0.0,
            wait_factor: 0.0,
        }
    }
}

/// Splits `row_weights` into contiguous blocks whose weight sums are
/// proportional to `shares` (non-negative, positive total). Returns the
/// per-node row counts.
pub fn partition_rows(row_weights: &[f64], shares: &[f64], min_rows: usize) -> Vec<usize> {
    let n = shares.len();
    assert!(n > 0, "no nodes");
    let nrows = row_weights.len();
    assert!(min_rows * n <= nrows, "min_rows too large");
    let total_share: f64 = shares.iter().sum();
    assert!(total_share > 0.0, "all shares zero");
    let total_w: f64 = row_weights.iter().sum();
    if total_w <= 0.0 {
        // Degenerate weights: fall back to row counts ∝ shares.
        return Distribution::block_from_weights(nrows, shares, min_rows).counts();
    }

    // Walk rows once, cutting at cumulative-share targets; then enforce
    // the per-node floor by stealing from the largest block.
    let mut counts = vec![0usize; n];
    let mut acc = 0.0;
    let mut node = 0usize;
    let mut target = shares[0] / total_share * total_w;
    for &w in row_weights {
        // Advance to the node whose target covers the running sum; the
        // half-weight offset assigns a boundary row to the side holding
        // more of it.
        while node + 1 < n && acc + w * 0.5 > target {
            node += 1;
            target += shares[node] / total_share * total_w;
        }
        counts[node] += 1;
        acc += w;
    }
    if min_rows > 0 {
        while let Some(deficit) = (0..n).find(|&i| counts[i] < min_rows) {
            let donor = (0..n).max_by_key(|&i| counts[i]).expect("nonempty");
            assert!(counts[donor] > min_rows, "cannot satisfy min_rows");
            counts[donor] -= 1;
            counts[deficit] += 1;
        }
    }
    counts
}

/// The relative-power ("naive") distribution: shares ∝ availability.
pub fn relative_power(row_weights: &[f64], loads: &[NodeLoad], min_rows: usize) -> Distribution {
    let shares: Vec<f64> = loads.iter().map(NodeLoad::availability).collect();
    Distribution::block_from_counts(&partition_rows(row_weights, &shares, min_rows))
}

/// Successive balancing (§4.3): equalizes `work_i / avail_i + penalty_i`
/// across nodes by iterating balancing rounds between the loaded nodes and
/// the unloaded pool, then applies the participation floor
/// (`floor_frac` of each node's relative-power share): balancing alone
/// never idles a node — physical *removal* (§4.4) is the separate
/// facility for that. Pass `floor_frac = 0` for the unfloored optimum.
pub fn successive_balance_with_floor(
    row_weights: &[f64],
    loads: &[NodeLoad],
    comm: &CommModel,
    min_rows: usize,
    floor_frac: f64,
) -> Distribution {
    let n = loads.len();
    assert!(n > 0, "no nodes");
    let avail: Vec<f64> = loads.iter().map(NodeLoad::availability).collect();
    let pen: Vec<f64> = loads.iter().map(|l| comm.penalty(l.ncp)).collect();
    let total_w: f64 = row_weights.iter().sum::<f64>().max(f64::MIN_POSITIVE);

    // Round structure per the paper: start from the naive assignment;
    // each round recomputes the loaded nodes' shares against the pool's
    // completion time, then rebalances the remainder over the unloaded
    // nodes; stop when the unloaded assignment stops changing.
    let mut work: Vec<f64> = {
        let s: f64 = avail.iter().sum();
        avail.iter().map(|a| a / s * total_w).collect()
    };
    let unloaded: Vec<usize> = (0..n).filter(|&i| loads[i].ncp == 0).collect();
    let loaded: Vec<usize> = (0..n).filter(|&i| loads[i].ncp > 0).collect();

    if loaded.is_empty() || unloaded.is_empty() {
        // Nothing to pair against: solve the makespan equalization
        // directly (all-loaded clusters still balance penalties).
        let t = solve_makespan(&avail, &pen, total_w);
        for i in 0..n {
            work[i] = avail[i] * (t - pen[i]).max(0.0);
        }
    } else {
        let pool_avail: f64 = unloaded.iter().map(|&i| avail[i]).sum();
        for _round in 0..64 {
            // Pool completion time under the current assignment.
            let pool_work: f64 = unloaded.iter().map(|&i| work[i]).sum();
            let t_pool = pool_work / pool_avail;
            // Two-node balance of each loaded node against the pool.
            for &i in &loaded {
                work[i] = avail[i] * (t_pool - pen[i]).max(0.0);
            }
            let loaded_work: f64 = loaded.iter().map(|&i| work[i]).sum();
            let remaining = (total_w - loaded_work).max(0.0);
            // Rebalance the remainder over the unloaded pool.
            let mut max_delta: f64 = 0.0;
            for &i in &unloaded {
                let nw = avail[i] / pool_avail * remaining;
                max_delta = max_delta.max((nw - work[i]).abs());
                work[i] = nw;
            }
            if max_delta / total_w < 1e-9 {
                break;
            }
        }
    }

    if floor_frac > 0.0 {
        let a_sum: f64 = avail.iter().sum();
        for i in 0..n {
            let naive = avail[i] / a_sum * total_w;
            work[i] = work[i].max(naive * floor_frac);
        }
    }
    Distribution::block_from_counts(&partition_rows(
        row_weights,
        &shares_or_uniform(&work),
        min_rows,
    ))
}

/// [`successive_balance_with_floor`] with a 50 % participation floor (the
/// runtime's own balancer keeps 80 %).
pub fn successive_balance(
    row_weights: &[f64],
    loads: &[NodeLoad],
    comm: &CommModel,
    min_rows: usize,
) -> Distribution {
    successive_balance_with_floor(row_weights, loads, comm, min_rows, 0.5)
}

/// Smallest `T` with `Σ avail_i · max(0, T − pen_i) = W` (water-filling).
fn solve_makespan(avail: &[f64], pen: &[f64], w: f64) -> f64 {
    // A NaN penalty (degenerate availability on a fully loaded node) acts
    // like an infinite one: the node never activates, the water level
    // settles on the healthy nodes. Sanitizing keeps the level-vs-next
    // comparison meaningful; total_cmp keeps the sort panic-free even for
    // unsanitized exotic values.
    let pen: Vec<f64> = pen
        .iter()
        .map(|&p| if p.is_nan() { f64::INFINITY } else { p })
        .collect();
    let mut idx: Vec<usize> = (0..avail.len()).collect();
    idx.sort_by(|&a, &b| pen[a].total_cmp(&pen[b]));
    let mut a_sum = 0.0;
    let mut ap_sum = 0.0;
    let mut t = f64::INFINITY;
    for (k, &i) in idx.iter().enumerate() {
        a_sum += avail[i];
        ap_sum += avail[i] * pen[i];
        let cand = (w + ap_sum) / a_sum;
        let next_pen = idx.get(k + 1).map_or(f64::INFINITY, |&j| pen[j]);
        if cand <= next_pen {
            t = cand;
            break;
        }
    }
    t
}

/// Returns the work shares unchanged, or uniform shares when they sum to
/// nothing (every node fully loaded). Despite the old name ("normalize"),
/// this never rescales — `partition_rows` only cares about relative
/// proportions — it exists solely to keep a degenerate all-zero share
/// vector from producing an empty distribution.
fn shares_or_uniform(work: &[f64]) -> Vec<f64> {
    let s: f64 = work.iter().sum();
    if s <= 0.0 {
        vec![1.0; work.len()]
    } else {
        work.to_vec()
    }
}

/// Predicted per-cycle execution time of a configuration (§4.4): compute
/// balanced over the given nodes plus a measured communication baseline.
/// Used for the node-removal decision, where the unloaded-only
/// configuration "can be predicted with high accuracy".
pub fn predict_cycle_time(
    total_work: f64,
    loads: &[NodeLoad],
    comm: &CommModel,
    comm_baseline: f64,
) -> f64 {
    let avail: Vec<f64> = loads.iter().map(NodeLoad::availability).collect();
    let pen: Vec<f64> = loads.iter().map(|l| comm.penalty(l.ncp)).collect();
    solve_makespan(&avail, &pen, total_work) + comm_baseline
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn partition_uniform_even() {
        let c = partition_rows(&uniform(12), &[1.0, 1.0, 1.0], 0);
        assert_eq!(c, vec![4, 4, 4]);
    }

    #[test]
    fn partition_weighted_shares() {
        let c = partition_rows(&uniform(8), &[2.0, 1.0, 1.0], 0);
        assert_eq!(c.iter().sum::<usize>(), 8);
        assert_eq!(c, vec![4, 2, 2]);
    }

    #[test]
    fn partition_nonuniform_rows() {
        // First 4 rows are 3× heavier; equal shares should cut so weight,
        // not count, balances.
        let mut w = vec![3.0; 4];
        w.extend(vec![1.0; 12]); // total 24, per node 12
        let c = partition_rows(&w, &[1.0, 1.0], 0);
        assert_eq!(c.iter().sum::<usize>(), 16);
        // Node 0 should take 4 heavy rows (12.0); node 1 the 12 light.
        assert_eq!(c, vec![4, 12]);
    }

    #[test]
    fn partition_min_rows() {
        let c = partition_rows(&uniform(10), &[1.0, 0.0], 2);
        assert_eq!(c, vec![8, 2]);
    }

    #[test]
    fn relative_power_shares() {
        // 1 CP on node 0 → availability 0.5 vs 1.0.
        let loads = [NodeLoad { ncp: 1, speed: 1.0 }, NodeLoad::unloaded(1.0)];
        let d = relative_power(&uniform(12), &loads, 0);
        assert_eq!(d.counts(), vec![4, 8]);
    }

    #[test]
    fn successive_balance_zero_comm_equals_relative_power() {
        let loads = [
            NodeLoad { ncp: 1, speed: 1.0 },
            NodeLoad::unloaded(1.0),
            NodeLoad::unloaded(1.0),
        ];
        let sb = successive_balance(&uniform(100), &loads, &CommModel::zero(), 0);
        let rp = relative_power(&uniform(100), &loads, 0);
        assert_eq!(sb.counts(), rp.counts());
    }

    #[test]
    fn successive_balance_gives_loaded_node_less_than_naive() {
        let loads = [
            NodeLoad { ncp: 2, speed: 1.0 },
            NodeLoad::unloaded(1.0),
            NodeLoad::unloaded(1.0),
            NodeLoad::unloaded(1.0),
        ];
        let comm = CommModel {
            blocking_recvs_per_cycle: 2.0,
            quantum: 0.010,
            wait_factor: 0.5,
        };
        // 100 rows of 1 ms each: total 0.1 s of work; the loaded node's
        // penalty (2 recvs × 0.5 × 10 ms × 2 CPs = 20 ms) is substantial.
        let w = vec![0.001; 100];
        let sb = successive_balance(&w, &loads, &comm, 0).counts();
        let rp = relative_power(&w, &loads, 0).counts();
        assert!(
            sb[0] < rp[0],
            "successive balancing must shave the loaded node: {sb:?} vs {rp:?}"
        );
        assert_eq!(sb.iter().sum::<usize>(), 100);
    }

    #[test]
    fn hopeless_node_gets_zero_work() {
        // Penalty alone exceeds the achievable makespan → zero rows.
        let loads = [NodeLoad { ncp: 3, speed: 1.0 }, NodeLoad::unloaded(1.0)];
        let comm = CommModel {
            blocking_recvs_per_cycle: 2.0,
            quantum: 0.010,
            wait_factor: 0.5,
        };
        let w = vec![0.0001; 100]; // 10 ms total work, 30 ms penalty
        let d = successive_balance_with_floor(&w, &loads, &comm, 0, 0.0);
        assert_eq!(d.counts()[0], 0, "{:?}", d.counts());
        // With the participation floor the node keeps a small share.
        let df = successive_balance(&w, &loads, &comm, 0);
        assert!(df.counts()[0] > 0, "{:?}", df.counts());
    }

    #[test]
    fn all_loaded_cluster_still_balances() {
        let loads = [
            NodeLoad { ncp: 1, speed: 1.0 },
            NodeLoad { ncp: 1, speed: 1.0 },
        ];
        let comm = CommModel {
            blocking_recvs_per_cycle: 2.0,
            quantum: 0.010,
            wait_factor: 0.5,
        };
        let d = successive_balance(&uniform(10), &loads, &comm, 0);
        assert_eq!(d.counts(), vec![5, 5]);
    }

    #[test]
    fn heterogeneous_speeds_respected() {
        let loads = [NodeLoad::unloaded(2.0), NodeLoad::unloaded(1.0)];
        let d = successive_balance(&uniform(9), &loads, &CommModel::zero(), 0);
        assert_eq!(d.counts(), vec![6, 3]);
    }

    #[test]
    fn solve_makespan_waterfill() {
        // Two nodes, equal availability; penalties 0 and 0.1; W = 1.
        // T solves 1·T + 1·(T − 0.1) = 1 → T = 0.55.
        let t = solve_makespan(&[1.0, 1.0], &[0.0, 0.1], 1.0);
        assert!((t - 0.55).abs() < 1e-12);
        // If the penalty is huge, node 1 is excluded: T = W / a0 = 1.
        let t = solve_makespan(&[1.0, 1.0], &[0.0, 5.0], 1.0);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_cycle_time_adds_baseline() {
        let loads = [NodeLoad::unloaded(1.0); 2];
        let t = predict_cycle_time(1.0, &loads, &CommModel::zero(), 0.25);
        assert!((t - 0.75).abs() < 1e-12);
    }

    #[test]
    fn makespan_tolerates_nan_penalty() {
        // A degenerate node feeding a NaN penalty must not panic the sort
        // (the old partial_cmp().unwrap()) and must not receive water:
        // the level settles as if the node had infinite penalty.
        let avail = [1.0, 1.0, 1.0];
        let pen = [0.0, 0.0, f64::NAN];
        let t = solve_makespan(&avail, &pen, 4.0);
        assert_eq!(t, 2.0);
    }

    #[test]
    fn makespan_degenerate_penalty_property() {
        // Property: any mix of normal / NaN / ∞ penalties yields a
        // non-NaN level, finite whenever at least one node is healthy.
        let cases: &[&[f64]] = &[
            &[0.0, f64::NAN],
            &[f64::NAN, f64::NAN],
            &[0.1, f64::INFINITY, f64::NAN],
            &[f64::NAN, 0.0, 0.2],
            &[f64::INFINITY, f64::INFINITY],
        ];
        for pen in cases {
            let avail = vec![1.0; pen.len()];
            let t = solve_makespan(&avail, pen, 8.0);
            assert!(!t.is_nan(), "pen {pen:?} → NaN level");
            if pen.iter().any(|p| p.is_finite()) {
                assert!(t.is_finite(), "pen {pen:?} → {t}");
            }
        }
    }

    #[test]
    fn predict_cycle_time_survives_degenerate_comm_model() {
        // An unbounded wait factor makes the zero-ncp penalty NaN
        // (∞ × 0); prediction must degrade to "no finite improvement"
        // rather than panic.
        let comm = CommModel {
            blocking_recvs_per_cycle: 1.0,
            quantum: 0.01,
            wait_factor: f64::INFINITY,
        };
        let loads = [NodeLoad::unloaded(1.0), NodeLoad { ncp: 2, speed: 1.0 }];
        let t = predict_cycle_time(1.0, &loads, &comm, 0.1);
        assert!(!t.is_nan());
    }

    #[test]
    fn work_conservation_property() {
        // Counts always partition the row space exactly.
        let comm = CommModel {
            blocking_recvs_per_cycle: 2.0,
            quantum: 0.01,
            wait_factor: 0.5,
        };
        for nrows in [1usize, 17, 256] {
            for ncp in [0u32, 1, 3] {
                let loads = [
                    NodeLoad { ncp, speed: 1.0 },
                    NodeLoad::unloaded(1.0),
                    NodeLoad::unloaded(0.5),
                ];
                let w: Vec<f64> = (0..nrows).map(|i| 0.0005 + (i % 7) as f64 * 1e-4).collect();
                let d = successive_balance(&w, &loads, &comm, 0);
                assert_eq!(d.counts().iter().sum::<usize>(), nrows);
            }
        }
    }
}
