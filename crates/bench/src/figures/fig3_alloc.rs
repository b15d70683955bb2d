//! Figure 3 / §4.1: memory-allocation schemes under redistribution.
//!
//! Compares the paper's 2-D projection layout (vector of extended rows;
//! only moved rows are touched) against contiguous allocation (full
//! reallocation and shift whenever the held range changes), for dense and
//! sparse matrices, across redistribution magnitudes. Reports both real
//! time and the memory-operation counters.
//!
//! This figure stays serial on purpose (`--threads` is accepted but
//! unused): it measures real wall-clock time with `Instant`, and running
//! configurations concurrently would contend for cores and corrupt the
//! timings. The virtual-time figures are the ones that sweep in parallel.

use std::time::Instant;

use dynmpi::{ContiguousMatrix, DenseMatrix, RedistArray, RowSet, SparseMatrix};

use super::{Figure, PLAIN};
use crate::{print_table, BenchArgs, Instrumentation};

pub const FIGURE: Figure<Row> = Figure {
    name: "fig3_alloc",
    honours: PLAIN,
    rows,
    print,
};

row! {
    figure: &'static str,
    kind: &'static str,
    rows_total: usize,
    rows_moved: usize,
    scheme: &'static str,
    micros: f64,
    bytes_allocated: u64,
    bytes_copied: u64,
}

/// Per magnitude: a dense projected row followed by its contiguous twin;
/// then the sparse pack + unpack rows.
pub fn rows(args: &BenchArgs, _: &Instrumentation) -> Vec<Row> {
    let (n, row_len) = if args.quick { (512, 512) } else { (2048, 2048) };
    let row = |kind, rows_moved, scheme, micros, bytes_allocated, bytes_copied| Row {
        figure: "fig3",
        kind,
        rows_total: n,
        rows_moved,
        scheme,
        micros,
        bytes_allocated,
        bytes_copied,
    };
    let mut rows = Vec::new();

    for moved in [n / 64, n / 16, n / 4] {
        // --- dense, projected -------------------------------------------
        let mut m = DenseMatrix::<f64>::new(n, row_len);
        m.fill_rows(&RowSet::from_range(0..n / 2), |i, j| (i + j) as f64);
        let t0 = Instant::now();
        // Shift the held range down by `moved` rows: drop the head, take
        // on a new tail (the data for which arrives by message; here we
        // materialize it locally).
        m.drop_rows(&RowSet::from_range(0..moved));
        m.alloc_rows(&RowSet::from_range(n / 2..n / 2 + moved));
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        let bytes = (moved * row_len * 8) as u64;
        rows.push(row("dense", moved, "projected", dt, bytes, 0));

        // --- dense, contiguous ------------------------------------------
        let mut c = ContiguousMatrix::<f64>::new(n, row_len, 0, n / 2);
        for i in 0..n / 2 {
            c.row_mut(i)[0] = i as f64;
        }
        let before = c.alloc_stats();
        let t0 = Instant::now();
        c.reshape(moved, n / 2 + moved);
        let dt_c = t0.elapsed().as_secs_f64() * 1e6;
        let after = c.alloc_stats();
        rows.push(row(
            "dense",
            moved,
            "contiguous",
            dt_c,
            after.bytes_allocated - before.bytes_allocated,
            after.bytes_copied - before.bytes_copied,
        ));
    }

    // --- sparse: pack/unpack round trip vs full rebuild -----------------
    for moved in [n / 64, n / 16] {
        let mut sm = SparseMatrix::<f64>::new(n, n);
        for i in 0..n / 2 {
            for k in 0..8u32 {
                sm.set(
                    i,
                    (i as u32).wrapping_mul(7).wrapping_add(k * 131) % n as u32,
                    1.0,
                );
            }
        }
        let mv = RowSet::from_range(0..moved);
        let t0 = Instant::now();
        let bytes = sm.pack_rows(&mv, true);
        let mut recv = SparseMatrix::<f64>::new(n, n);
        recv.unpack_rows(&mv, &bytes);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        let len = bytes.len() as u64;
        rows.push(row("sparse", moved, "projected(pack+unpack)", dt, len, len));
    }
    rows
}

pub fn print(rows: &[Row]) {
    let mut table = Vec::new();
    let mut it = rows.iter();
    while let Some(r) = it.next() {
        let (contig, ratio) = if r.kind == "dense" {
            let c = it
                .next()
                .expect("a contiguous row follows each projected one");
            (
                format!("{:.0}", c.micros),
                format!("{:.1}", c.micros / r.micros.max(1e-9)),
            )
        } else {
            ("-".into(), "-".into())
        };
        table.push(vec![
            r.kind.to_string(),
            r.rows_moved.to_string(),
            format!("{:.0}", r.micros),
            contig,
            ratio,
        ]);
    }
    print_table(
        "Figure 3 — redistribution memory work: projected vs contiguous",
        &[
            "kind",
            "rows moved",
            "projected(us)",
            "contiguous(us)",
            "contig/proj",
        ],
        &table,
    );
    println!(
        "\nThe projection scheme touches only the moved rows; contiguous allocation \
         reallocates and copies the node's entire partition (§4.1, Figure 3)."
    );
}
