//! Sparse matrices as a vector of independently allocated rows (§4.1.2).
//!
//! Each stored row is two parallel vectors, column ids and values, sorted
//! by column — its own wire form, so a send copies the two slices and a
//! receive lets the decoded vectors become the row (§4.4). The paper keeps
//! a linked list per row; what it needs of one is kept: every row is its
//! own allocation, moves as one unit of data + metadata through the same
//! [`RedistArray`] path as dense rows, and stays untouched when it stays.

use std::any::Any;
use std::ops::Range;

use dynmpi_comm::{from_bytes, to_bytes_into, Pod};

use crate::array::{AllocStats, RedistArray};

/// One sparse row: `(col, value)` pairs sorted by column, columns unique.
pub struct SparseRow<P> {
    cols: Vec<u32>,
    vals: Vec<P>,
}

fn strictly_increasing(cols: &[u32]) -> bool {
    cols.windows(2).all(|w| w[0] < w[1])
}

impl<P: Pod> SparseRow<P> {
    /// An empty row.
    pub fn new() -> Self {
        SparseRow {
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Number of stored elements.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Inserts or overwrites the element at `col`.
    pub fn set(&mut self, col: u32, val: P) {
        match self.cols.binary_search(&col) {
            Ok(k) => self.vals[k] = val,
            Err(k) => {
                self.cols.insert(k, col);
                self.vals.insert(k, val);
            }
        }
    }

    /// Value at `col`, if stored.
    pub fn get(&self, col: u32) -> Option<&P> {
        let k = self.cols.binary_search(&col).ok()?;
        Some(&self.vals[k])
    }

    /// Removes the element at `col`; returns whether it existed.
    pub fn remove(&mut self, col: u32) -> bool {
        let Ok(k) = self.cols.binary_search(&col) else {
            return false;
        };
        self.cols.remove(k);
        self.vals.remove(k);
        true
    }

    /// Iterates `(col, &value)` in column order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &P)> + '_ {
        self.cols.iter().copied().zip(&self.vals)
    }

    /// Applies `f` to every element in place.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(u32, &mut P)) {
        for (&c, v) in self.cols.iter().zip(&mut self.vals) {
            f(c, v);
        }
    }

    /// Copies out `(cols, vals)` — the packed wire form.
    pub fn to_vectors(&self) -> (Vec<u32>, Vec<P>) {
        (self.cols.clone(), self.vals.clone())
    }

    /// Builds a row from packed vectors (columns must be sorted and
    /// unique — the format `to_vectors` emits).
    pub fn from_vectors(cols: &[u32], vals: &[P]) -> Self {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        assert!(strictly_increasing(cols), "columns must be sorted unique");
        SparseRow {
            cols: cols.to_vec(),
            vals: vals.to_vec(),
        }
    }
}

impl<P: Pod> Default for SparseRow<P> {
    fn default() -> Self {
        SparseRow::new()
    }
}

/// A sparse matrix: a vector of optional rows, mirroring the dense
/// projection layout with a [`SparseRow`] per extended row.
pub struct SparseMatrix<P: Pod> {
    nrows: usize,
    ncols: usize,
    rows: Vec<Option<SparseRow<P>>>,
    stats: AllocStats,
}

impl<P: Pod> SparseMatrix<P> {
    /// An `nrows × ncols` matrix with no rows stored.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        SparseMatrix {
            nrows,
            ncols,
            rows: (0..nrows).map(|_| None).collect(),
            stats: AllocStats::default(),
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Is row `i` stored locally?
    pub fn has_row(&self, i: usize) -> bool {
        self.rows[i].is_some()
    }

    /// Read access to a stored row.
    pub fn row(&self, i: usize) -> &SparseRow<P> {
        self.rows[i]
            .as_ref()
            .unwrap_or_else(|| panic!("sparse row {i} is not stored on this node"))
    }

    /// Mutable access, allocating an empty row if absent.
    pub fn row_mut(&mut self, i: usize) -> &mut SparseRow<P> {
        if self.rows[i].is_none() {
            self.rows[i] = Some(SparseRow::new());
            self.stats.allocations += 1;
        }
        self.rows[i].as_mut().unwrap()
    }

    /// Sets element `(i, col)`.
    pub fn set(&mut self, i: usize, col: u32, val: P) {
        assert!(
            (col as usize) < self.ncols,
            "column {col} out of {}",
            self.ncols
        );
        self.row_mut(i).set(col, val);
    }

    /// Stored elements in row-major `(row, col, &value)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, &P)> + '_ {
        self.rows.iter().enumerate().flat_map(|(i, r)| {
            r.iter()
                .flat_map(move |row| row.iter().map(move |(c, v)| (i, c, v)))
        })
    }

    /// Total stored elements across present rows.
    pub fn nnz(&self) -> usize {
        self.rows.iter().flatten().map(SparseRow::nnz).sum()
    }
}

// Wire format per row: [nnz: u64][cols: u32 × nnz][vals: P × nnz],
// concatenated in row order.
impl<P: Pod> RedistArray for SparseMatrix<P> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn alloc_rows(&mut self, rows: Range<usize>) {
        for i in rows {
            let _ = self.row_mut(i);
        }
    }

    fn pack_rows(&mut self, rows: Range<usize>, take: bool) -> Vec<u8> {
        let mut out = Vec::new();
        let mut image = Vec::new();
        for i in rows {
            let row = self.rows[i]
                .as_ref()
                .unwrap_or_else(|| panic!("packing absent sparse row {i}"));
            self.stats.bytes_copied +=
                (row.cols.len() * 4 + std::mem::size_of_val(&row.vals[..])) as u64;
            out.extend_from_slice(&(row.nnz() as u64).to_le_bytes());
            to_bytes_into(&row.cols, &mut image);
            out.extend_from_slice(&image);
            to_bytes_into(&row.vals, &mut image);
            out.extend_from_slice(&image);
            if take {
                self.rows[i] = None;
            }
        }
        out
    }

    // `bytes` came off the wire: lengths in checked arithmetic, and the row
    // invariant verified before the decoded vectors become a row.
    fn unpack_rows(&mut self, rows: Range<usize>, bytes: &[u8]) {
        let mut rest = bytes;
        for i in rows {
            let mut take = |len: Option<usize>| {
                let len = len
                    .filter(|&len| len <= rest.len())
                    .unwrap_or_else(|| panic!("truncated sparse payload at row {i}"));
                let (head, tail) = rest.split_at(len);
                rest = tail;
                head
            };
            let nnz = u64::from_le_bytes(take(Some(8)).try_into().expect("took 8 bytes"));
            let nnz = usize::try_from(nnz).ok();
            let cols: Vec<u32> = from_bytes(take(nnz.and_then(|n| n.checked_mul(4))));
            let vals: Vec<P> = from_bytes(take(
                nnz.and_then(|n| n.checked_mul(std::mem::size_of::<P>())),
            ));
            assert!(
                strictly_increasing(&cols)
                    && cols.last().is_none_or(|&c| (c as usize) < self.ncols),
                "sparse payload for row {i}: columns must be strictly increasing and below {}",
                self.ncols
            );
            self.stats.allocations += 1;
            self.stats.bytes_allocated +=
                (cols.len() * 4 + std::mem::size_of_val(&vals[..])) as u64;
            self.rows[i] = Some(SparseRow { cols, vals });
        }
        assert!(rest.is_empty(), "sparse payload has trailing bytes");
    }

    fn drop_rows(&mut self, rows: Range<usize>) {
        self.rows[rows].fill_with(|| None);
    }

    fn retain_rows(&mut self, keep: Range<usize>) {
        let (below, rest) = self.rows.split_at_mut(keep.start);
        below.fill_with(|| None);
        rest[keep.len()..].fill_with(|| None);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dynmpi_comm::to_bytes;

    #[test]
    fn row_set_get_sorted() {
        let mut r = SparseRow::<f64>::new();
        r.set(5, 5.0);
        r.set(1, 1.0);
        r.set(3, 3.0);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.get(3), Some(&3.0));
        assert_eq!(r.get(2), None);
        let cols: Vec<u32> = r.iter().map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3, 5]);
    }

    #[test]
    fn set_overwrites() {
        let mut r = SparseRow::<f64>::new();
        r.set(2, 1.0);
        r.set(2, 9.0);
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(2), Some(&9.0));
    }

    #[test]
    fn remove_elements() {
        let mut r = SparseRow::<f64>::new();
        for c in [1u32, 2, 3] {
            r.set(c, f64::from(c));
        }
        assert!(r.remove(2));
        assert!(!r.remove(2));
        assert_eq!(r.nnz(), 2);
        assert_eq!(r.iter().map(|(c, _)| c).collect::<Vec<_>>(), vec![1, 3]);
        assert!(r.remove(1));
        assert!(r.remove(3));
        assert_eq!(r.nnz(), 0);
        assert!(r.iter().next().is_none());
    }

    #[test]
    fn for_each_mut_updates() {
        let mut r = SparseRow::<f64>::new();
        r.set(0, 1.0);
        r.set(7, 2.0);
        r.for_each_mut(|_, v| *v *= 10.0);
        assert_eq!(r.get(7), Some(&20.0));
    }

    #[test]
    fn vector_round_trip() {
        let mut r = SparseRow::<f64>::new();
        for c in [4u32, 0, 9] {
            r.set(c, f64::from(c) * 1.5);
        }
        let (cols, vals) = r.to_vectors();
        let r2 = SparseRow::from_vectors(&cols, &vals);
        assert_eq!(r2.nnz(), 3);
        for (c, v) in r2.iter() {
            assert_eq!(*v, f64::from(c) * 1.5);
        }
    }

    #[test]
    fn matrix_pack_unpack_round_trip() {
        let mut a = SparseMatrix::<f64>::new(6, 100);
        a.set(1, 3, 1.3);
        a.set(1, 50, 1.5);
        a.set(2, 0, 2.0);
        a.set(3, 99, 3.0);
        a.row_mut(4); // present but empty row
        let bytes = a.pack_rows(1..5, false);

        let mut b = SparseMatrix::<f64>::new(6, 100);
        b.unpack_rows(1..5, &bytes);
        assert_eq!(b.row(1).get(3), Some(&1.3));
        assert_eq!(b.row(1).get(50), Some(&1.5));
        assert_eq!(b.row(2).get(0), Some(&2.0));
        assert_eq!(b.row(3).get(99), Some(&3.0));
        assert_eq!(b.row(4).nnz(), 0);
        assert_eq!(b.nnz(), 4);
    }

    #[test]
    fn pack_take_removes_rows() {
        let mut a = SparseMatrix::<f64>::new(3, 10);
        a.set(0, 1, 1.0);
        let _ = a.pack_rows(0..1, true);
        assert!(!a.has_row(0));
    }

    #[test]
    fn matrix_iter_row_major() {
        let mut a = SparseMatrix::<i64>::new(3, 10);
        a.set(2, 1, 21);
        a.set(0, 5, 5);
        a.set(0, 2, 2);
        let got: Vec<(usize, u32, i64)> = a.iter().map(|(i, c, v)| (i, c, *v)).collect();
        assert_eq!(got, vec![(0, 2, 2), (0, 5, 5), (2, 1, 21)]);
    }

    #[test]
    fn unpack_corrupt_payload_panics() {
        let mut a = SparseMatrix::<f64>::new(2, 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.unpack_rows(0..1, &[1, 2, 3]);
        }));
        assert!(r.is_err());
    }

    /// Row 0 of a 2 × 4 matrix unpacked from a hand-built payload.
    fn unpack_row0(nnz: u64, cols: &[u32], vals: &[f64]) -> SparseMatrix<f64> {
        let mut bytes = nnz.to_le_bytes().to_vec();
        bytes.extend(to_bytes(cols));
        bytes.extend(to_bytes(vals));
        let mut a = SparseMatrix::<f64>::new(2, 4);
        a.unpack_rows(0..1, &bytes);
        a
    }

    #[test]
    fn unpack_accepts_the_last_column() {
        let a = unpack_row0(2, &[0, 3], &[1.0, 2.0]);
        assert_eq!(a.row(0).get(3), Some(&2.0));
    }

    #[test]
    #[should_panic(expected = "row 0: columns must be strictly increasing and below 4")]
    fn unpack_rejects_column_out_of_range() {
        unpack_row0(1, &[1_000_000_000], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "row 0: columns must be strictly increasing")]
    fn unpack_rejects_unsorted_columns() {
        unpack_row0(2, &[3, 1], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row 0: columns must be strictly increasing")]
    fn unpack_rejects_duplicate_columns() {
        unpack_row0(2, &[1, 1], &[1.0, 2.0]);
    }

    /// `nnz * 4` and `nnz * 8` both wrap to 0 at 2⁶²: unchecked, an empty
    /// body passes the length check and yields a silently empty row.
    #[test]
    #[should_panic(expected = "truncated sparse payload at row 0")]
    fn unpack_rejects_overflowing_nnz() {
        unpack_row0(1 << 62, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn column_bound_checked() {
        let mut a = SparseMatrix::<f64>::new(2, 4);
        a.set(0, 4, 1.0);
    }
}
