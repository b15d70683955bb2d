//! Deterministic pins on what moving dense rows allocates and copies.
//!
//! `DenseMatrix::pack_rows` copies each row straight into one payload of
//! the exact size, and `unpack_rows` copies payload slices straight into
//! the rows: one allocation and one copy on the sending side, none and one
//! on the receiving side when the rows are already there (a ghost refresh).
//! `comm.bytes_copied` charges exactly those two copies. A control cycle
//! allocates its payloads and nothing else: the snapshot is encoded
//! straight into its wire bytes, which every peer shares, and decoded into
//! buffers the runtime keeps. A checkpoint refresh allocates each array's
//! packed payload and the `Arc` it shares with the buddy, and no copy.

use dynmpi::{
    AccessMode, BuddyCheckpoint, CommPattern, DenseMatrix, Distribution, Drsd, DynMpi,
    DynMpiConfig, RedistArray, RowSet,
};
use dynmpi_comm::{Group, SimTransport, Transport, BYTES_COPIED};
use dynmpi_obs::Recorder;
use dynmpi_sim::{Cluster, NodeSpec};
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

/// Allocations of a whole dedicated 4-rank run of `steps` cycles: every
/// cycle is compute plus, when `cfg` adapts, the control exchange (no
/// ghosts and no load, so the balancer never moves a row).
fn run_allocations(steps: usize, cfg: &DynMpiConfig) -> u64 {
    let cluster = Cluster::homogeneous(4, NodeSpec::with_speed(1e6));
    allocations(|| {
        cluster.run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let n = 64;
            let mut rt = DynMpi::init(&t, n, cfg.clone());
            let a = rt.register_dense("A", n);
            let ph = rt.init_phase(0, n, CommPattern::NearestNeighbor);
            rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
            let mut m = DenseMatrix::<f64>::new(n, 4);
            rt.setup(&mut [&mut m]);
            rt.run_cycles(
                steps,
                &mut m,
                |m| [m],
                |rt, _, _| rt.charge_rows(ph, |_| 1e4),
            );
        });
    })
}

/// Allocations per cycle once a run has warmed up: the growth from 80 to
/// 120 cycles, which must be the same in every one of those 40. A first
/// run fills the thread's pool of rank stacks.
fn per_cycle(cfg: &DynMpiConfig) -> u64 {
    run_allocations(1, cfg);
    let grown = run_allocations(120, cfg) - run_allocations(80, cfg);
    assert_eq!(grown % 40, 0, "{grown} allocations over 40 cycles");
    grown / 40
}

#[test]
fn a_control_cycle_allocates_only_its_payloads() {
    let compute = per_cycle(&DynMpiConfig::no_adapt());
    for failure_detection in [false, true] {
        let cfg = DynMpiConfig {
            failure_detection,
            ..DynMpiConfig::default()
        };
        // Three samples up; the snapshot, encoded straight into its
        // payload, and the `Arc` all three peers share it through down
        // (no copy per peer). Decoding, at the root and at the peers,
        // refills buffers the runtime keeps.
        assert_eq!(per_cycle(&cfg) - compute, 3 + 1 + 1, "{cfg:?}");
    }
}

/// A long adaptive run allocates at its steady per-cycle rate: cycles
/// 2 000–4 000 as many times as cycles 4 000–6 000. The node monitors
/// forget the blocked intervals that no `vmstat` sample can reach any
/// more. The one state still kept per cycle is each rank's
/// `local_cycle_times`, which doubles once in each window (at 2 048 and
/// at 4 096 cycles); a block history kept whole would double alongside.
#[test]
fn a_long_run_allocates_at_a_steady_rate() {
    let cfg = DynMpiConfig::default();
    let per = per_cycle(&cfg);
    let [a, b, c] = [2_000, 4_000, 6_000].map(|steps| run_allocations(steps, &cfg));
    assert_eq!(b - a, c - b, "cycles 2 000..4 000 against 4 000..6 000");
    assert_eq!(
        b - a,
        2_000 * per + 4,
        "{per} a cycle and a doubling per rank"
    );
}

/// Allocations of a whole 4-rank run in which every rank keeps `arrays`
/// dense arrays of 16 rows each and refreshes a buddy checkpoint of them
/// `refreshes` times, half a virtual second of compute apart, so that
/// the run outlasts the second or so of blocked intervals the node
/// monitors keep.
fn refresh_allocations(arrays: usize, refreshes: u64) -> u64 {
    let cluster = Cluster::homogeneous(4, NodeSpec::with_speed(1e6));
    allocations(|| {
        cluster.run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let me = t.rank();
            let group = Group::world(me, 4);
            let dist = Distribution::block_even(64, 4);
            let mut ms: Vec<DenseMatrix<f64>> = (0..arrays)
                .map(|a| {
                    let mut m = DenseMatrix::new(64, ROW_LEN);
                    m.fill_rows(&dist.rows_of(me), |i, j| (a + i * j) as f64);
                    m
                })
                .collect();
            let mut views: Vec<&mut dyn RedistArray> =
                ms.iter_mut().map(|m| m as &mut dyn RedistArray).collect();
            let mut ckpt = BuddyCheckpoint::new();
            for cycle in 0..refreshes {
                t.compute(5e5);
                ckpt.refresh(&t, me, &group, &dist, &mut views, cycle, None);
            }
        });
    })
}

/// Allocations of one steady-state refresh over all four ranks: the
/// growth from 8 to 12 refreshes and from 20 to 28, the same in each of
/// those 12.
fn per_refresh(arrays: usize) -> u64 {
    refresh_allocations(arrays, 1);
    let per = |from: u64, to: u64| {
        let grown = refresh_allocations(arrays, to) - refresh_allocations(arrays, from);
        let refreshes = to - from;
        assert_eq!(
            grown % refreshes,
            0,
            "{grown} allocations over {from}..{to}"
        );
        grown / refreshes
    };
    let early = per(8, 12);
    assert_eq!(early, per(20, 28), "refreshes 8..12 against 20..28");
    early
}

#[test]
fn a_checkpoint_refresh_allocates_its_payloads_and_no_copy() {
    for arrays in 1..=3 {
        // Per rank and array: the packed payload and the `Arc` that the
        // kept generation, the message and the buddy's mirror share (a
        // copy for the message would make it three). Per rank, whatever
        // the array count: the own and the mirrored row sets, the two
        // payload vectors, and the generation's membership and counts.
        assert_eq!(
            per_refresh(arrays),
            4 * (2 * arrays as u64 + 6),
            "{arrays} arrays"
        );
    }
}
