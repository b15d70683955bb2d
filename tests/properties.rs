//! Property-based tests on the core invariants, driven by the seeded
//! `dynmpi_testkit` harness: each property runs over many generated cases
//! and failures report the reproducing seed.

use dynmpi::{
    partition_rows, relative_power, successive_balance, successive_balance_with_floor, CommModel,
    Distribution, Drsd, NodeLoad,
};
use dynmpi_testkit::{check, check_n};
use std::collections::BTreeSet;

// ---------------- distributions -----------------------------------

#[test]
fn block_weights_partition_rows() {
    check("block_weights_partition_rows", |rng| {
        let nrows = rng.range_usize(1, 500);
        let weights = rng.vec_in(1, 9, |r| r.range_f64(0.0, 10.0));
        if weights.iter().sum::<f64>() <= 0.0 {
            return;
        }
        let d = Distribution::block_from_weights(nrows, &weights, 0);
        assert_eq!(d.counts().iter().sum::<usize>(), nrows);
        // Every row has exactly one owner, consistent with rows_of.
        for row in 0..nrows {
            let o = d.owner(row);
            assert!(d.rows_of(o).contains(&row));
        }
    });
}

#[test]
fn transfers_conserve_rows() {
    check("transfers_conserve_rows", |rng| {
        let nrows = rng.range_usize(2, 300);
        let w1 = rng.vec_in(2, 6, |r| r.range_f64(0.1, 5.0));
        let w2 = rng.vec_in(2, 6, |r| r.range_f64(0.1, 5.0));
        let old = Distribution::block_from_weights(nrows, &w1, 0);
        let new = Distribution::block_from_weights(nrows, &w2, 0);
        let t = old.transfers_to(&new);
        let mut all = BTreeSet::new();
        let mut total = 0usize;
        for (_, _, rs) in &t {
            total += rs.len();
            all.extend(rs.clone());
        }
        assert_eq!(total, nrows, "every row lands exactly once");
        assert!(all.into_iter().eq(0..nrows));
    });
}

// ---------------- balancers ---------------------------------------

#[test]
fn balancers_conserve_work() {
    check("balancers_conserve_work", |rng| {
        let nrows = rng.range_usize(4, 400);
        let ncps = rng.vec_in(2, 8, |r| r.range_u32(0, 4));
        let recvs = rng.range_f64(0.0, 6.0);
        let loads: Vec<NodeLoad> = ncps
            .iter()
            .map(|&n| NodeLoad { ncp: n, speed: 1.0 })
            .collect();
        if nrows < loads.len() {
            return;
        }
        let w: Vec<f64> = (0..nrows).map(|i| 0.5 + (i % 5) as f64).collect();
        let comm = CommModel {
            blocking_recvs_per_cycle: recvs,
            quantum: 0.01,
            wait_factor: 0.05,
        };
        for d in [
            relative_power(&w, &loads, 0),
            successive_balance(&w, &loads, &comm, 0),
            successive_balance_with_floor(&w, &loads, &comm, 0, 0.0),
        ] {
            assert_eq!(d.counts().iter().sum::<usize>(), nrows);
        }
    });
}

#[test]
fn successive_balance_never_gives_loaded_more_than_unloaded() {
    check("successive_balance_loaded_vs_unloaded", |rng| {
        let nrows = rng.range_usize(50, 400);
        let ncp = rng.range_u32(1, 4);
        let loads = [
            NodeLoad { ncp, speed: 1.0 },
            NodeLoad::unloaded(1.0),
            NodeLoad::unloaded(1.0),
        ];
        let w = vec![1.0; nrows];
        let comm = CommModel {
            blocking_recvs_per_cycle: 2.0,
            quantum: 0.01,
            wait_factor: 0.05,
        };
        let c = successive_balance(&w, &loads, &comm, 0).counts();
        assert!(c[0] <= c[1] + 1, "loaded {} vs unloaded {}", c[0], c[1]);
        assert!(c[0] <= c[2] + 1);
    });
}

#[test]
fn partition_respects_min_rows() {
    check("partition_respects_min_rows", |rng| {
        let nrows = rng.range_usize(20, 300);
        let shares = rng.vec_in(2, 6, |r| r.range_f64(0.0, 5.0));
        let min_rows = rng.range_usize(0, 4);
        if shares.iter().sum::<f64>() <= 0.0 || min_rows * shares.len() > nrows {
            return;
        }
        let w = vec![1.0; nrows];
        let counts = partition_rows(&w, &shares, min_rows);
        assert_eq!(counts.iter().sum::<usize>(), nrows);
        for c in counts {
            assert!(c >= min_rows);
        }
    });
}

// ---------------- DRSDs -------------------------------------------

#[test]
fn drsd_eval_stays_in_bounds() {
    check("drsd_eval_stays_in_bounds", |rng| {
        let lo = rng.range_usize(0, 100);
        let span = rng.range_usize(0, 100);
        let halo = rng.range_i64(0, 5);
        let nrows = rng.range_usize(1, 250);
        let hi = lo + span;
        let d = Drsd::with_halo(halo);
        let s = d.eval(lo, hi, nrows);
        assert!(s.start <= s.end);
        if !s.is_empty() {
            assert!(s.end <= nrows);
        }
    });
}

#[test]
fn drsd_halo_superset_of_iter_space() {
    check("drsd_halo_superset_of_iter_space", |rng| {
        let lo = rng.range_usize(0, 50);
        let span = rng.range_usize(0, 50);
        let nrows = rng.range_usize(100, 200);
        let hi = lo + span;
        let base = Drsd::iter_space().eval(lo, hi, nrows);
        let widened = Drsd::with_halo(2).eval(lo, hi, nrows);
        assert!(base.is_empty() || (widened.start <= base.start && base.end <= widened.end));
    });
}

// ---------------- wire formats -------------------------------------

#[test]
fn dense_pack_unpack_round_trip() {
    check("dense_pack_unpack_round_trip", |rng| {
        use dynmpi::{DenseMatrix, RedistArray};
        let start = rng.range_usize(0, 200);
        let rows = start..rng.range_usize(start, 201);
        let row_len = rng.range_usize(1, 16);
        let mut a = DenseMatrix::<f64>::new(200, row_len);
        a.fill_rows(rows.clone(), |i, j| (i * 31 + j) as f64);
        let bytes = a.pack_rows(rows.clone(), false);
        let mut b = DenseMatrix::<f64>::new(200, row_len);
        b.unpack_rows(rows.clone(), &bytes);
        for i in 0..200 {
            assert_eq!(b.has_row(i), rows.contains(&i), "row {i}");
        }
        for i in rows {
            assert_eq!(a.row(i), b.row(i));
        }
    });
}

#[test]
fn sparse_pack_unpack_round_trip() {
    check("sparse_pack_unpack_round_trip", |rng| {
        use dynmpi::{RedistArray, SparseMatrix};
        let entries = rng.vec_in(0, 80, |r| {
            (
                r.range_usize(0, 40),
                r.range_u32(0, 60),
                r.range_f64(-10.0, 10.0),
            )
        });
        let start = rng.range_usize(0, 40);
        let rows = start..rng.range_usize(start, 41);
        let mut a = SparseMatrix::<f64>::new(40, 60);
        a.alloc_rows(rows.clone());
        for &(i, c, v) in entries.iter().filter(|e| rows.contains(&e.0)) {
            a.set(i, c, v);
        }
        let bytes = a.pack_rows(rows.clone(), false);
        let mut b = SparseMatrix::<f64>::new(40, 60);
        b.unpack_rows(rows.clone(), &bytes);
        assert!((0..40).all(|i| b.has_row(i) == rows.contains(&i)));
        assert_eq!(a.nnz(), b.nnz());
        for (i, c, v) in a.iter() {
            assert_eq!(b.row(i).get(c), Some(v));
        }
    });
}

/// The literal bytes on the wire for rows 1..3, then 4..5, of a fixed
/// matrix, row 2 present but empty, the two payloads concatenated:
/// `[nnz: u64][cols: u32 × nnz][vals: f64 × nnz]` per row, little-endian. Recorded before the row storage changed; a receiver
/// built from any other commit must still decode them.
#[test]
fn sparse_wire_bytes_are_pinned() {
    use dynmpi::{AllocStats, RedistArray, SparseMatrix};
    let mut a = SparseMatrix::<f64>::new(6, 100);
    a.set(1, 50, -2.0);
    a.set(1, 3, 1.5);
    a.row_mut(2);
    a.set(4, 0, 0.25);
    let pack = |m: &mut SparseMatrix<f64>, take| [m.pack_rows(1..3, take), m.pack_rows(4..5, take)];
    let bytes = pack(&mut a, false).concat();
    #[rustfmt::skip]
    let expect: [u8; 60] = [
        2, 0, 0, 0, 0, 0, 0, 0,                             // row 1: nnz
        3, 0, 0, 0,  50, 0, 0, 0,                           //   cols 3, 50
        0, 0, 0, 0, 0, 0, 0xf8, 0x3f,  0, 0, 0, 0, 0, 0, 0, 0xc0, // 1.5, -2.0
        0, 0, 0, 0, 0, 0, 0, 0,                             // row 2: empty
        1, 0, 0, 0, 0, 0, 0, 0,                             // row 4: nnz
        0, 0, 0, 0,                                         //   col 0
        0, 0, 0, 0, 0, 0, 0xd0, 0x3f,                       //   0.25
    ];
    assert_eq!(bytes, expect);
    assert_eq!(
        a.alloc_stats(),
        AllocStats {
            bytes_allocated: 0,
            bytes_copied: 36,
            allocations: 3
        }
    );

    let mut b = SparseMatrix::<f64>::new(6, 100);
    let (rows_1_2, row_4) = expect.split_at(40);
    b.unpack_rows(1..3, rows_1_2);
    b.unpack_rows(4..5, row_4);
    assert_eq!(pack(&mut b, true).concat(), expect);
    assert!((0..6).all(|i| !b.has_row(i)));
    assert_eq!(
        b.alloc_stats(),
        AllocStats {
            bytes_allocated: 36,
            bytes_copied: 36,
            allocations: 3
        }
    );
}

// ---------------- sparse rows ---------------------------------------

/// `SparseRow` against a `BTreeMap` oracle under random `set` / overwrite /
/// `get` / `remove` / `for_each_mut`, compared in full after every step.
#[test]
fn sparse_row_matches_btreemap_oracle() {
    use dynmpi::SparseRow;
    use std::collections::BTreeMap;

    check_n("sparse_row_matches_btreemap_oracle", 256, |rng| {
        let mut row = SparseRow::<f64>::new();
        let mut oracle = BTreeMap::<u32, f64>::new();
        // Few distinct columns, so overwrites and removals of stored
        // elements are as common as misses.
        let ncols = rng.range_u32(1, 48);
        for _ in 0..rng.range_usize(0, 120) {
            let col = rng.range_u32(0, ncols);
            match rng.range_usize(0, 8) {
                0..=4 => {
                    let v = rng.range_f64(-10.0, 10.0);
                    row.set(col, v);
                    oracle.insert(col, v);
                }
                5 | 6 => assert_eq!(row.remove(col), oracle.remove(&col).is_some()),
                _ => {
                    let k = rng.range_f64(-2.0, 2.0);
                    row.for_each_mut(|c, v| *v = *v * k + f64::from(c));
                    for (c, v) in &mut oracle {
                        *v = *v * k + f64::from(*c);
                    }
                }
            }

            assert_eq!(row.nnz(), oracle.len());
            for c in 0..=ncols {
                assert_eq!(row.get(c), oracle.get(&c), "get({c})");
            }
            assert!(row.iter().eq(oracle.iter().map(|(&c, v)| (c, v))));
            let (cols, vals) = row.to_vectors();
            assert!(cols.iter().copied().eq(oracle.keys().copied()));
            assert!(vals.iter().eq(oracle.values()));
            let back = SparseRow::from_vectors(&cols, &vals);
            assert!(back.iter().eq(row.iter()));
        }
    });
}
