//! Dense matrices with the 2-D projection allocation scheme (§4.1.1).
//!
//! An N-dimensional array is projected onto two dimensions: a top-level
//! vector indexed by the distributed (first) dimension, each entry pointing
//! to one *extended row* — the product of the remaining dimensions, stored
//! contiguously. Redistribution then (1) communicates whole extended rows
//! in single messages and (2) reuses the storage of rows that do not move:
//! only the top-level pointer vector is touched.
//!
//! [`ContiguousMatrix`] is the baseline the paper compares against
//! (Figure 3): one flat allocation holding the node's contiguous row
//! range, which must be fully reallocated and shifted whenever the range
//! changes.

use std::any::Any;

use dynmpi_comm::{from_bytes, to_bytes, Pod};

use crate::array::{AllocStats, RedistArray};
use crate::rowset::RowSet;

/// A dense matrix in 2-D projection layout. Rows may be absent (not
/// stored on this node); present rows are either owned or ghost copies —
/// ownership is the runtime's concern, storage is this type's.
pub struct DenseMatrix<P: Pod> {
    nrows: usize,
    row_len: usize,
    rows: Vec<Option<Box<[P]>>>,
    fill: P,
    stats: AllocStats,
}

impl<P: Pod + Default> DenseMatrix<P> {
    /// An `nrows × row_len` matrix with no rows allocated yet.
    pub fn new(nrows: usize, row_len: usize) -> Self {
        assert!(row_len > 0, "extended rows must have at least one element");
        DenseMatrix {
            nrows,
            row_len,
            rows: (0..nrows).map(|_| None).collect(),
            fill: P::default(),
            stats: AllocStats::default(),
        }
    }
}

impl<P: Pod> DenseMatrix<P> {
    /// Total rows in the global matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Elements per extended row.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Is row `i` stored locally?
    pub fn has_row(&self, i: usize) -> bool {
        self.rows[i].is_some()
    }

    /// Allocates storage for `rows` (no-op for rows already present).
    pub fn alloc_rows(&mut self, rows: &RowSet) {
        for i in rows.iter() {
            if self.rows[i].is_none() {
                self.rows[i] = Some(vec![self.fill; self.row_len].into_boxed_slice());
                self.stats.bytes_allocated += (self.row_len * std::mem::size_of::<P>()) as u64;
                self.stats.allocations += 1;
            }
        }
    }

    /// Immutable access to row `i`. Panics if the row is not local —
    /// that is always a distribution bug worth failing loudly on.
    pub fn row(&self, i: usize) -> &[P] {
        self.rows[i]
            .as_deref()
            .unwrap_or_else(|| panic!("row {i} is not stored on this node"))
    }

    /// Mutable access to row `i` (allocating it if absent).
    pub fn row_mut(&mut self, i: usize) -> &mut [P] {
        if self.rows[i].is_none() {
            self.rows[i] = Some(vec![self.fill; self.row_len].into_boxed_slice());
            self.stats.bytes_allocated += (self.row_len * std::mem::size_of::<P>()) as u64;
            self.stats.allocations += 1;
        }
        self.rows[i].as_deref_mut().unwrap()
    }

    /// Two rows mutably at once (red/black sweeps, row swaps).
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [P], &mut [P]) {
        assert_ne!(a, b, "two_rows_mut requires distinct rows");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = self.rows.split_at_mut(hi);
        let lo_row = left[lo].as_deref_mut().expect("row not stored");
        let hi_row = right[0].as_deref_mut().expect("row not stored");
        if a < b {
            (lo_row, hi_row)
        } else {
            (hi_row, lo_row)
        }
    }

    /// Fills `rows` with values from `f(row, col)`, allocating as needed.
    pub fn fill_rows(&mut self, rows: &RowSet, mut f: impl FnMut(usize, usize) -> P) {
        self.alloc_rows(rows);
        for i in rows.iter() {
            let row = self.rows[i].as_deref_mut().unwrap();
            for (j, v) in row.iter_mut().enumerate() {
                *v = f(i, j);
            }
        }
    }

    /// Overwrites one whole row from a slice.
    pub fn set_row(&mut self, i: usize, data: &[P]) {
        assert_eq!(data.len(), self.row_len, "row length mismatch");
        self.row_mut(i).copy_from_slice(data);
    }
}

impl<P: Pod> RedistArray for DenseMatrix<P> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn alloc_rows(&mut self, rows: &RowSet) {
        DenseMatrix::alloc_rows(self, rows);
    }

    fn pack_rows(&mut self, rows: &RowSet, take: bool) -> Vec<u8> {
        let mut flat: Vec<P> = Vec::with_capacity(rows.len() * self.row_len);
        for i in rows.iter() {
            let row = self.rows[i]
                .as_deref()
                .unwrap_or_else(|| panic!("packing absent row {i}"));
            flat.extend_from_slice(row);
            if take {
                self.rows[i] = None;
            }
        }
        to_bytes(&flat)
    }

    fn unpack_rows(&mut self, rows: &RowSet, bytes: &[u8]) {
        let flat: Vec<P> = from_bytes(bytes);
        assert_eq!(
            flat.len(),
            rows.len() * self.row_len,
            "payload does not match {} rows × {}",
            rows.len(),
            self.row_len
        );
        for (k, i) in rows.iter().enumerate() {
            let src = &flat[k * self.row_len..(k + 1) * self.row_len];
            self.set_row(i, src);
        }
    }

    fn drop_rows(&mut self, rows: &RowSet) {
        for i in rows.iter() {
            self.rows[i] = None;
        }
    }

    fn present_rows(&self) -> RowSet {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i))
            .collect()
    }

    fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The contiguous-allocation baseline (Figure 3, left): the node's rows
/// live in one flat buffer covering a contiguous range. Changing the range
/// requires allocating a new buffer and copying every surviving row.
pub struct ContiguousMatrix<P: Pod> {
    nrows: usize,
    row_len: usize,
    lo: usize,
    data: Vec<P>,
    fill: P,
    stats: AllocStats,
}

impl<P: Pod + Default> ContiguousMatrix<P> {
    /// A matrix holding rows `lo..hi` of an `nrows × row_len` global
    /// array.
    pub fn new(nrows: usize, row_len: usize, lo: usize, hi: usize) -> Self {
        assert!(row_len > 0 && lo <= hi && hi <= nrows);
        let mut m = ContiguousMatrix {
            nrows,
            row_len,
            lo,
            data: Vec::new(),
            fill: P::default(),
            stats: AllocStats::default(),
        };
        m.data = vec![m.fill; (hi - lo) * row_len];
        m.stats.bytes_allocated = (m.data.len() * std::mem::size_of::<P>()) as u64;
        m.stats.allocations = 1;
        m
    }
}

impl<P: Pod> ContiguousMatrix<P> {
    /// Currently held row range.
    pub fn range(&self) -> (usize, usize) {
        (self.lo, self.lo + self.data.len() / self.row_len)
    }

    /// Access to row `i` (must be within the held range).
    pub fn row(&self, i: usize) -> &[P] {
        let (lo, hi) = self.range();
        assert!(i >= lo && i < hi, "row {i} outside held range {lo}..{hi}");
        &self.data[(i - lo) * self.row_len..(i - lo + 1) * self.row_len]
    }

    /// Mutable access to row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [P] {
        let (lo, hi) = self.range();
        assert!(i >= lo && i < hi, "row {i} outside held range {lo}..{hi}");
        &mut self.data[(i - lo) * self.row_len..(i - lo + 1) * self.row_len]
    }

    /// Changes the held range to `new_lo..new_hi`: allocates a fresh
    /// buffer and copies every row that survives — the full-reallocation
    /// cost the projection scheme avoids.
    pub fn reshape(&mut self, new_lo: usize, new_hi: usize) {
        assert!(new_lo <= new_hi && new_hi <= self.nrows);
        let (old_lo, old_hi) = self.range();
        let mut new_data = vec![self.fill; (new_hi - new_lo) * self.row_len];
        self.stats.bytes_allocated += (new_data.len() * std::mem::size_of::<P>()) as u64;
        self.stats.allocations += 1;
        let keep_lo = old_lo.max(new_lo);
        let keep_hi = old_hi.min(new_hi);
        if keep_lo < keep_hi {
            let n = (keep_hi - keep_lo) * self.row_len;
            let src = (keep_lo - old_lo) * self.row_len;
            let dst = (keep_lo - new_lo) * self.row_len;
            new_data[dst..dst + n].copy_from_slice(&self.data[src..src + n]);
            self.stats.bytes_copied += (n * std::mem::size_of::<P>()) as u64;
        }
        self.data = new_data;
        self.lo = new_lo;
    }

    /// Memory-operation counters.
    pub fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    /// Total rows in the global matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut m = DenseMatrix::<f64>::new(10, 4);
        assert!(!m.has_row(3));
        m.alloc_rows(&RowSet::from_range(2..5));
        assert!(m.has_row(3));
        m.row_mut(3)[1] = 7.5;
        assert_eq!(m.row(3), &[0.0, 7.5, 0.0, 0.0]);
        assert_eq!(m.alloc_stats().allocations, 3);
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn absent_row_panics() {
        let m = DenseMatrix::<f64>::new(4, 2);
        let _ = m.row(0);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut a = DenseMatrix::<f64>::new(8, 3);
        let rows = RowSet::from_ranges([1..3, 5..6]);
        a.fill_rows(&rows, |i, j| (i * 10 + j) as f64);
        let bytes = a.pack_rows(&rows, false);
        assert_eq!(bytes.len(), 3 * 3 * 8);

        let mut b = DenseMatrix::<f64>::new(8, 3);
        b.unpack_rows(&rows, &bytes);
        for i in rows.iter() {
            assert_eq!(b.row(i), a.row(i));
        }
    }

    #[test]
    fn pack_take_releases_rows() {
        let mut a = DenseMatrix::<f64>::new(4, 2);
        let rows = RowSet::from_range(0..2);
        a.fill_rows(&rows, |i, _| i as f64);
        let _ = a.pack_rows(&rows, true);
        assert!(!a.has_row(0));
        assert!(!a.has_row(1));
        assert!(a.present_rows().is_empty());
    }

    #[test]
    fn untouched_rows_keep_storage_identity() {
        // The projection scheme's whole point: rows that do not move are
        // not copied or reallocated.
        let mut m = DenseMatrix::<f64>::new(6, 2);
        m.fill_rows(&RowSet::from_range(0..6), |i, _| i as f64);
        let p_before = m.row(3).as_ptr();
        let stats_before = m.alloc_stats();
        // Drop some rows, unpack others; row 3 is untouched.
        m.drop_rows(&RowSet::from_range(0..2));
        m.unpack_rows(&RowSet::from_range(4..5), &to_bytes(&[9.0f64, 9.0]));
        assert_eq!(m.row(3).as_ptr(), p_before);
        assert_eq!(m.alloc_stats().allocations, stats_before.allocations);
    }

    #[test]
    fn two_rows_mut_order() {
        let mut m = DenseMatrix::<f64>::new(4, 1);
        m.fill_rows(&RowSet::from_range(0..4), |i, _| i as f64);
        let (a, b) = m.two_rows_mut(2, 0);
        assert_eq!(a[0], 2.0);
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn unpack_length_mismatch_panics() {
        let mut m = DenseMatrix::<f64>::new(4, 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.unpack_rows(&RowSet::from_range(0..2), &to_bytes(&[1.0f64]));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn contiguous_reshape_copies_survivors() {
        let mut m = ContiguousMatrix::<f64>::new(10, 2, 0, 5);
        for i in 0..5 {
            m.row_mut(i)[0] = i as f64;
        }
        m.reshape(2, 8);
        assert_eq!(m.range(), (2, 8));
        for i in 2..5 {
            assert_eq!(m.row(i)[0], i as f64, "surviving row {i}");
        }
        assert_eq!(m.row(6)[0], 0.0, "new rows are fresh");
        let s = m.alloc_stats();
        assert_eq!(s.allocations, 2);
        // 3 surviving rows × 2 els × 8 bytes copied.
        assert_eq!(s.bytes_copied, 48);
    }

    #[test]
    fn contiguous_vs_projected_copy_volume() {
        // Shrinking by one row: contiguous copies everything that
        // survives; projected copies nothing.
        let mut c = ContiguousMatrix::<f64>::new(100, 16, 0, 50);
        c.reshape(1, 50);
        assert_eq!(c.alloc_stats().bytes_copied, 49 * 16 * 8);

        let mut d = DenseMatrix::<f64>::new(100, 16);
        d.fill_rows(&RowSet::from_range(0..50), |_, _| 0.0);
        let copied_before = d.alloc_stats().bytes_copied;
        d.drop_rows(&RowSet::from_range(0..1));
        assert_eq!(d.alloc_stats().bytes_copied, copied_before);
    }
}
