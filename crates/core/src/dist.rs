//! Data distributions over the first (distributed) array dimension.
//!
//! Dyn-MPI's model (§2.1): a *variable block* distribution assigns each
//! node a contiguous (possibly unequal) run of rows. Distributions are
//! expressed over the **active** node set (relative ranks), since removed
//! nodes own nothing.

use std::ops::Range;

/// An assignment of `nrows` rows to `n` (active) nodes in contiguous
/// blocks: node `k` owns `starts[k]..starts[k+1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distribution {
    /// Invariant: `starts[0] == 0`, non-decreasing, `starts[n] == nrows`.
    starts: Vec<usize>,
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
        Distribution { starts }
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

    /// Number of active nodes.
    pub fn nnodes(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total rows distributed.
    pub fn nrows(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Owner (relative rank) of `row`.
    pub fn owner(&self, row: usize) -> usize {
        assert!(row < self.nrows(), "row {row} out of {}", self.nrows());
        // starts is sorted; find k with starts[k] <= row < starts[k+1].
        self.starts.partition_point(|&s| s <= row) - 1
    }

    /// Rows owned by relative rank `node`.
    pub fn rows_of(&self, node: usize) -> Range<usize> {
        self.starts[node]..self.starts[node + 1]
    }

    /// Rows owned by relative rank `node` within `rows`: `rows_of(node)`
    /// clipped to the range (empty ranges start at the clip's start).
    pub(crate) fn rows_of_in(&self, node: usize, rows: Range<usize>) -> Range<usize> {
        let lo = self.starts[node].max(rows.start);
        lo..self.starts[node + 1].min(rows.end).max(lo)
    }

    /// Relative ranks whose blocks can intersect the inclusive row
    /// interval `[lo, hi]`: a binary search on the block boundaries.
    pub(crate) fn overlapping(&self, lo: usize, hi: usize) -> Range<usize> {
        let starts = &self.starts;
        let a = starts.partition_point(|&s| s <= lo).saturating_sub(1);
        let b = starts.partition_point(|&s| s <= hi).min(starts.len() - 1);
        a..b.max(a)
    }

    /// Per-node row counts.
    pub fn counts(&self) -> Vec<usize> {
        self.starts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The row transfers needed to move from `self` to `new`: a list of
    /// `(src_rel_old_dist, dst_rel_new_dist, rows)` with non-empty row
    /// ranges. Relative ranks refer to each distribution's own node set,
    /// so callers must map them to world ranks appropriately.
    pub fn transfers_to(&self, new: &Distribution) -> Vec<(usize, usize, Range<usize>)> {
        assert_eq!(self.nrows(), new.nrows(), "row-space mismatch");
        let mut out = Vec::new();
        for src in 0..self.nnodes() {
            let have = self.rows_of(src);
            for dst in 0..new.nnodes() {
                let want = new.rows_of(dst);
                let mv = have.start.max(want.start)..have.end.min(want.end);
                if !mv.is_empty() {
                    out.push((src, dst, mv));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_of_in_is_the_intersection() {
        let dists = [
            Distribution::block_even(17, 4),
            Distribution::block_from_counts(&[0, 9, 0, 8]),
            Distribution::block_from_counts(&[17]),
        ];
        for d in &dists {
            for node in 0..d.nnodes() {
                for lo in 0..=18 {
                    for hi in 0..=18 {
                        let got = d.rows_of_in(node, lo..hi);
                        let want: Vec<usize> =
                            d.rows_of(node).filter(|r| (lo..hi).contains(r)).collect();
                        assert_eq!(
                            got.clone().collect::<Vec<_>>(),
                            want,
                            "{d:?} node {node} {lo}..{hi}"
                        );
                        assert!(got.start <= got.end, "{got:?} is inverted");
                    }
                }
            }
        }
    }

    #[test]
    fn even_blocks() {
        let d = Distribution::block_even(10, 3);
        assert_eq!(d.counts(), vec![4, 3, 3]);
        assert_eq!(d.rows_of(0), 0..4);
        assert_eq!(d.rows_of(1), 4..7);
        assert_eq!(d.rows_of(2), 7..10);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(4), 1);
        assert_eq!(d.owner(9), 2);
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
        // The empty node owns an empty range.
        assert!(d.rows_of(1).is_empty());
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
    fn transfers_between_blocks() {
        let old = Distribution::block_from_counts(&[6, 2]);
        let new = Distribution::block_from_counts(&[3, 5]);
        let t = old.transfers_to(&new);
        // Node 0 keeps 0..3, sends 3..6 to node 1; node 1 keeps 6..8.
        assert_eq!(t, vec![(0, 0, 0..3), (0, 1, 3..6), (1, 1, 6..8)]);
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
        let mut seen = vec![0; 9];
        for (_, _, rs) in &t {
            rs.clone().for_each(|r| seen[r] += 1);
        }
        assert_eq!(seen, vec![1; 9]);
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
