//! Deterministic pins on what moving dense rows allocates and copies.
//!
//! `DenseMatrix::pack_rows` copies each row straight into one payload of
//! the exact size, and `unpack_rows` copies payload slices straight into
//! the rows: one allocation and one copy on the sending side, none and one
//! on the receiving side when the rows are already there (a ghost refresh).
//! `comm.bytes_copied` charges exactly those two copies.

use dynmpi::{DenseMatrix, RedistArray, RowSet};
use dynmpi_comm::BYTES_COPIED;
use dynmpi_obs::Recorder;
use dynmpi_testkit::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROW_LEN: usize = 1024;

/// Rows 3..5 and 9 of a 16-row matrix: two ranges, three rows.
fn rows() -> RowSet {
    RowSet::from_ranges([3..5, 9..10])
}

fn filled() -> DenseMatrix<f64> {
    let mut m = DenseMatrix::new(16, ROW_LEN);
    m.fill_rows(&RowSet::from_range(0..16), |i, j| (i * ROW_LEN + j) as f64);
    m
}

#[test]
fn pack_rows_allocates_exactly_its_payload() {
    let mut m = filled();
    let rows = rows();
    let mut payload = Vec::new();
    assert_eq!(allocations(|| payload = m.pack_rows(&rows, false)), 1);
    assert_eq!(payload.len(), 3 * ROW_LEN * 8);
    assert_eq!(
        payload.capacity(),
        payload.len(),
        "allocated at its final size"
    );
}

#[test]
fn unpack_rows_into_present_rows_allocates_nothing() {
    let mut src = filled();
    let rows = rows();
    let payload = src.pack_rows(&rows, false);
    let mut dst = DenseMatrix::<f64>::new(16, ROW_LEN);
    dst.alloc_rows(&rows);
    assert_eq!(allocations(|| dst.unpack_rows(&rows, &payload)), 0);
    for i in rows.iter() {
        assert_eq!(dst.row(i), src.row(i), "row {i}");
    }
    // Absent rows are allocated, one block each, and nothing else.
    let mut fresh = DenseMatrix::<f64>::new(16, ROW_LEN);
    assert_eq!(allocations(|| fresh.unpack_rows(&rows, &payload)), 3);
    assert_eq!(fresh.row(9), src.row(9));
}

#[test]
fn pack_and_unpack_each_charge_the_payload_once() {
    let mut src = filled();
    let mut dst = DenseMatrix::<f64>::new(16, ROW_LEN);
    let rec = Recorder::new();
    {
        let _scope = rec.install(0);
        let payload = src.pack_rows(&rows(), true);
        dst.unpack_rows(&rows(), &payload);
    }
    assert_eq!(
        rec.merged_metrics().counter(BYTES_COPIED),
        2 * 3 * ROW_LEN as u64 * 8
    );
    assert!(!src.has_row(9), "`take` released the packed rows");
}
