//! Per-row costs of the sorted two-vector sparse row (§4.1.2): the dot
//! product of CG's mat-vec, `set` in random column order — the one
//! operation where a vector pays a `memmove` per insert — and the
//! pack/unpack copy. The linked-list numbers this layout replaced are
//! recorded in EXPERIMENTS.md ("Host cost: sparse rows").

use dynmpi::SparseRow;
use dynmpi_testkit::{bench, Rng};

fn main() {
    println!("== sparse_row ==");
    let mut rng = Rng::new(1);
    for nnz in [128usize, 1024, 8192] {
        let mut order: Vec<u32> = (0..nnz as u32).map(|k| k * 3).collect();
        for k in (1..nnz).rev() {
            order.swap(k, rng.range_usize(0, k + 1));
        }
        let mut row = SparseRow::<f64>::new();
        bench(&format!("set_random/{nnz}"), || {
            row = SparseRow::new();
            for &c in &order {
                row.set(c, f64::from(c / 3));
            }
            row.nnz()
        });
        let x: Vec<f64> = (0..nnz * 3).map(|i| i as f64 * 0.5).collect();
        bench(&format!("dot/{nnz}"), || {
            let mut acc = 0.0;
            for (cidx, v) in row.iter() {
                acc += v * x[cidx as usize];
            }
            acc
        });
        bench(&format!("pack_unpack/{nnz}"), || {
            let (c2, v2) = row.to_vectors();
            SparseRow::from_vectors(&c2, &v2).nnz()
        });
    }
}
