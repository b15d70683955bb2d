//! Data distributions over the first (distributed) array dimension.
//!
//! Dyn-MPI's model (§2.1): a *variable block* distribution assigns each
//! node a contiguous (possibly unequal) run of rows; a *cyclic*
//! distribution assigns rows modulo the node count. Distributions are
//! expressed over the **active** node set (relative ranks), since removed
//! nodes own nothing.

use std::ops::Range;

use crate::rowset::RowSet;

/// An assignment of `nrows` rows to `n` (active) nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Distribution {
    /// Contiguous blocks: node `k` owns `starts[k]..starts[k+1]`.
    /// Invariant: `starts[0] == 0`, non-decreasing, `starts[n] == nrows`.
    Block { starts: Vec<usize> },
    /// Row `r` belongs to node `r % nnodes`.
    Cyclic { nnodes: usize, nrows: usize },
}

impl Distribution {
    /// An even block distribution (the usual starting point).
    pub fn block_even(nrows: usize, nnodes: usize) -> Distribution {
        let w = vec![1.0; nnodes];
        Distribution::block_from_weights(nrows, &w, 0)
    }

    /// Explicit per-node row counts.
    pub fn block_from_counts(counts: &[usize]) -> Distribution {
        assert!(!counts.is_empty(), "no nodes");
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0;
        starts.push(0);
        for &c in counts {
            acc += c;
            starts.push(acc);
        }
        Distribution::Block { starts }
    }

    /// Blocks proportional to `weights` via the largest-remainder method,
    /// with an optional per-node floor of `min_rows` (used by *logical*
    /// node dropping, where a "removed" node keeps a minimum share so
    /// ranks stay static — §2.2).
    ///
    /// Weights must be non-negative with a positive sum.
    pub fn block_from_weights(nrows: usize, weights: &[f64], min_rows: usize) -> Distribution {
        let n = weights.len();
        assert!(n > 0, "no nodes");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite: {weights:?}"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        assert!(
            min_rows * n <= nrows,
            "min_rows {min_rows} × {n} nodes exceeds {nrows} rows"
        );

        // Largest remainder over the rows above the floor.
        let free = nrows - min_rows * n;
        let mut counts = vec![min_rows; n];
        let mut floors = 0usize;
        let mut rema: Vec<(f64, usize)> = Vec::with_capacity(n);
        for (i, &w) in weights.iter().enumerate() {
            let t = w / total * free as f64;
            let fl = t.floor() as usize;
            counts[i] += fl;
            floors += fl;
            rema.push((t - fl as f64, i));
        }
        // Hand out the remainder to the largest fractional parts;
        // ties break toward lower index for determinism.
        rema.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        for k in 0..(free - floors) {
            counts[rema[k].1] += 1;
        }
        Distribution::block_from_counts(&counts)
    }

    /// A cyclic distribution.
    pub fn cyclic(nrows: usize, nnodes: usize) -> Distribution {
        assert!(nnodes > 0, "no nodes");
        Distribution::Cyclic { nnodes, nrows }
    }

    /// Number of active nodes.
    pub fn nnodes(&self) -> usize {
        match self {
            Distribution::Block { starts } => starts.len() - 1,
            Distribution::Cyclic { nnodes, .. } => *nnodes,
        }
    }

    /// Total rows distributed.
    pub fn nrows(&self) -> usize {
        match self {
            Distribution::Block { starts } => *starts.last().unwrap(),
            Distribution::Cyclic { nrows, .. } => *nrows,
        }
    }

    /// Owner (relative rank) of `row`.
    pub fn owner(&self, row: usize) -> usize {
        assert!(row < self.nrows(), "row {row} out of {}", self.nrows());
        match self {
            Distribution::Block { starts } => {
                // starts is sorted; find k with starts[k] <= row < starts[k+1].
                starts.partition_point(|&s| s <= row) - 1
            }
            Distribution::Cyclic { nnodes, .. } => row % nnodes,
        }
    }

    /// Rows owned by relative rank `node`.
    pub fn rows_of(&self, node: usize) -> RowSet {
        assert!(node < self.nnodes());
        match self {
            Distribution::Block { starts } => RowSet::from_range(starts[node]..starts[node + 1]),
            Distribution::Cyclic { nnodes, nrows } => RowSet::strided(node, *nrows, *nnodes),
        }
    }

    /// Rows owned by relative rank `node` within `rows`: `rows_of(node)`
    /// intersected with the range, built directly as the one result set.
    pub(crate) fn rows_of_in(&self, node: usize, rows: Range<usize>) -> RowSet {
        assert!(node < self.nnodes());
        match self {
            Distribution::Block { starts } => {
                RowSet::from_range(starts[node].max(rows.start)..starts[node + 1].min(rows.end))
            }
            Distribution::Cyclic { nnodes, nrows } => {
                // The first row at or after `rows.start` congruent to `node`.
                let first = node + rows.start.saturating_sub(node).div_ceil(*nnodes) * nnodes;
                RowSet::strided(first, rows.end.min(*nrows), *nnodes)
            }
        }
    }

    /// The contiguous row range `[lo, hi]` (inclusive) of `node`, for
    /// block distributions; `None` when empty or cyclic.
    pub fn block_range(&self, node: usize) -> Option<(usize, usize)> {
        match self {
            Distribution::Block { starts } => {
                let (lo, hi) = (starts[node], starts[node + 1]);
                (lo < hi).then(|| (lo, hi - 1))
            }
            Distribution::Cyclic { .. } => None,
        }
    }

    /// Per-node row counts.
    pub fn counts(&self) -> Vec<usize> {
        match self {
            Distribution::Block { starts } => starts.windows(2).map(|w| w[1] - w[0]).collect(),
            Distribution::Cyclic { nnodes, nrows } => (0..*nnodes)
                .map(|k| nrows.saturating_sub(k).div_ceil(*nnodes))
                .collect(),
        }
    }

    /// The row transfers needed to move from `self` to `new`: a list of
    /// `(src_rel_old_dist, dst_rel_new_dist, rows)` with non-empty row
    /// sets. Relative ranks refer to each distribution's own node set, so
    /// callers must map them to world ranks appropriately.
    pub fn transfers_to(&self, new: &Distribution) -> Vec<(usize, usize, RowSet)> {
        assert_eq!(self.nrows(), new.nrows(), "row-space mismatch");
        let mut out = Vec::new();
        for src in 0..self.nnodes() {
            let have = self.rows_of(src);
            for dst in 0..new.nnodes() {
                let want = new.rows_of(dst);
                let mv = have.intersect(&want);
                if !mv.is_empty() {
                    out.push((src, dst, mv));
                }
            }
        }
        out
    }
}

#[cfg(test)]
// Single-range arrays are exactly what `ranges()` assertions compare against.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;

    #[test]
    fn rows_of_in_is_the_intersection() {
        let dists = [
            Distribution::block_even(17, 4),
            Distribution::block_from_counts(&[0, 9, 0, 8]),
            Distribution::Cyclic {
                nnodes: 1,
                nrows: 17,
            },
            Distribution::Cyclic {
                nnodes: 3,
                nrows: 17,
            },
            Distribution::Cyclic {
                nnodes: 5,
                nrows: 17,
            },
        ];
        for d in &dists {
            for node in 0..d.nnodes() {
                for lo in 0..=18 {
                    for hi in 0..=18 {
                        let want = d.rows_of(node).intersect(&RowSet::from_range(lo..hi));
                        assert_eq!(
                            d.rows_of_in(node, lo..hi),
                            want,
                            "{d:?} node {node} {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn even_blocks() {
        let d = Distribution::block_even(10, 3);
        assert_eq!(d.counts(), vec![4, 3, 3]);
        assert_eq!(d.rows_of(0).ranges(), &[0..4]);
        assert_eq!(d.rows_of(2).ranges(), &[7..10]);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(4), 1);
        assert_eq!(d.owner(9), 2);
        assert_eq!(d.block_range(1), Some((4, 6)));
    }

    #[test]
    fn weighted_blocks() {
        // 2:1:1 over 8 rows → 4,2,2.
        let d = Distribution::block_from_weights(8, &[2.0, 1.0, 1.0], 0);
        assert_eq!(d.counts(), vec![4, 2, 2]);
    }

    #[test]
    fn weights_partition_exactly() {
        for nrows in [1usize, 7, 100, 2048] {
            for weights in [
                vec![1.0, 1.0],
                vec![0.3, 0.2, 0.5],
                vec![5.0, 1e-6, 2.0, 2.0],
            ] {
                let d = Distribution::block_from_weights(nrows, &weights, 0);
                assert_eq!(d.counts().iter().sum::<usize>(), nrows);
            }
        }
    }

    #[test]
    fn zero_weight_gets_zero_rows() {
        let d = Distribution::block_from_weights(10, &[1.0, 0.0, 1.0], 0);
        assert_eq!(d.counts(), vec![5, 0, 5]);
        // The empty node has an empty row set and no block range.
        assert!(d.rows_of(1).is_empty());
        assert_eq!(d.block_range(1), None);
    }

    #[test]
    fn min_rows_floor_applies() {
        // Logical drop: loaded node keeps at least 2 rows.
        let d = Distribution::block_from_weights(100, &[1.0, 0.0, 1.0], 2);
        let c = d.counts();
        assert_eq!(c[1], 2);
        assert_eq!(c.iter().sum::<usize>(), 100);
    }

    #[test]
    fn cyclic_ownership() {
        let d = Distribution::cyclic(10, 3);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(4), 1);
        assert_eq!(d.owner(8), 2);
        assert_eq!(d.rows_of(1).iter().collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(d.counts(), vec![4, 3, 3]);
        // More nodes than rows: the last ones own nothing.
        assert_eq!(Distribution::cyclic(2, 4).counts(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn transfers_between_blocks() {
        let old = Distribution::block_from_counts(&[6, 2]);
        let new = Distribution::block_from_counts(&[3, 5]);
        let t = old.transfers_to(&new);
        // Node 0 keeps 0..3, sends 3..6 to node 1; node 1 keeps 6..8.
        assert_eq!(
            t,
            vec![
                (0, 0, RowSet::from_range(0..3)),
                (0, 1, RowSet::from_range(3..6)),
                (1, 1, RowSet::from_range(6..8)),
            ]
        );
    }

    #[test]
    fn transfers_change_node_count() {
        // Physical drop: 3 nodes → 2 nodes.
        let old = Distribution::block_from_counts(&[3, 3, 3]);
        let new = Distribution::block_from_counts(&[5, 4]);
        let t = old.transfers_to(&new);
        let moved: usize = t
            .iter()
            .filter(|(s, d, _)| s != d)
            .map(|(_, _, rs)| rs.len())
            .sum();
        assert!(moved >= 3, "the dropped node's rows must move");
        // Every row lands exactly once.
        let mut all = RowSet::new();
        let mut total = 0;
        for (_, _, rs) in &t {
            total += rs.len();
            all = all.union(rs);
        }
        assert_eq!(total, 9);
        assert_eq!(all.ranges(), &[0..9]);
    }

    #[test]
    fn block_cyclic_conversion_transfers() {
        let old = Distribution::block_even(6, 2);
        let new = Distribution::cyclic(6, 2);
        let t = old.transfers_to(&new);
        let total: usize = t.iter().map(|(_, _, rs)| rs.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    #[should_panic(expected = "min_rows")]
    fn min_rows_overflow_rejected() {
        let _ = Distribution::block_from_weights(5, &[1.0, 1.0, 1.0], 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn owner_out_of_range_panics() {
        let d = Distribution::block_even(4, 2);
        let _ = d.owner(4);
    }
}
