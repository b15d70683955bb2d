//! Cross-transport equivalence: every collective must produce identical
//! results on the real thread transport and the virtual-time simulator.

use dynmpi_comm::{run_threads, CommOps, Group, SimTransport, Transport, BYTES_COPIED};
use dynmpi_obs::Recorder;
use dynmpi_sim::{Cluster, NodeSpec};

/// Runs `f` on both transports with `n` ranks and returns both results.
fn on_both<R, F>(n: usize, f: F) -> (Vec<R>, Vec<R>)
where
    R: Send + Clone + Default,
    F: Fn(&dyn DynTransport) -> R + Send + Sync,
{
    let threads = run_threads(n, |t| f(&TransportObj(t)));
    let sim = Cluster::homogeneous(n, NodeSpec::default())
        .run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            f(&TransportObj(&t))
        })
        .results;
    (threads, sim)
}

/// Object-safe shim so one closure can serve both concrete transports.
trait DynTransport {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;
    fn allreduce_sum(&self, g: &Group, data: &[f64]) -> Vec<f64>;
    fn allgatherv(&self, g: &Group, data: &[u64]) -> Vec<Vec<u64>>;
    fn bcast(&self, g: &Group, root: usize, data: Option<&[i64]>) -> Vec<i64>;
    fn alltoallv(&self, g: &Group, parts: &[Vec<u32>]) -> Vec<Vec<u32>>;
}

struct TransportObj<'a, T: Transport>(&'a T);

impl<T: Transport> DynTransport for TransportObj<'_, T> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn allreduce_sum(&self, g: &Group, data: &[f64]) -> Vec<f64> {
        self.0.allreduce_sum_f64(g, data)
    }
    fn allgatherv(&self, g: &Group, data: &[u64]) -> Vec<Vec<u64>> {
        self.0.allgatherv(g, data)
    }
    fn bcast(&self, g: &Group, root: usize, data: Option<&[i64]>) -> Vec<i64> {
        self.0.bcast(g, root, data)
    }
    fn alltoallv(&self, g: &Group, parts: &[Vec<u32>]) -> Vec<Vec<u32>> {
        self.0.alltoallv(g, parts)
    }
}

#[test]
fn allreduce_matches_across_transports() {
    for n in [1usize, 2, 5] {
        let (a, b) = on_both(n, |t| {
            let g = Group::world(t.rank(), t.size());
            t.allreduce_sum(&g, &[t.rank() as f64, 1.0])
        });
        assert_eq!(a, b, "n={n}");
        assert_eq!(a[0], vec![(0..n).map(|r| r as f64).sum(), n as f64]);
    }
}

#[test]
fn allgatherv_matches_across_transports() {
    let (a, b) = on_both(4, |t| {
        let g = Group::world(t.rank(), t.size());
        t.allgatherv(&g, &vec![t.rank() as u64; t.rank() + 1])
    });
    assert_eq!(a, b);
    for blocks in &a {
        for (r, blk) in blocks.iter().enumerate() {
            assert_eq!(blk, &vec![r as u64; r + 1]);
        }
    }
}

#[test]
fn bcast_matches_across_transports() {
    for root in 0..3 {
        let (a, b) = on_both(3, move |t| {
            let g = Group::world(t.rank(), t.size());
            let data = [root as i64, -7];
            t.bcast(&g, root, (t.rank() == root).then_some(&data[..]))
        });
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v == &[root as i64, -7]));
    }
}

#[test]
fn alltoallv_matches_across_transports() {
    let (a, b) = on_both(3, |t| {
        let g = Group::world(t.rank(), t.size());
        let parts: Vec<Vec<u32>> = (0..3)
            .map(|j| vec![(t.rank() * 10 + j) as u32; j + 1])
            .collect();
        t.alltoallv(&g, &parts)
    });
    assert_eq!(a, b);
}

/// The one-copy discipline, pinned exactly: a 1 MiB broadcast over 8
/// ranks charges `comm.bytes_copied` 12 payloads (the root's frame and its
/// own copy, seven decodes, three cloned relays) plus the 8-byte frame of
/// each cloned relay — an eager tree that re-serializes per child would
/// copy 15. One more clone of a relayed buffer per child breaks the pin.
/// The simulated broadcast on the 100 Mbit/s cluster is pinned alongside:
/// seven framed messages down the tree.
#[test]
fn bcast_1mib_copies_and_virtual_time_are_pinned() {
    const MIB: u64 = 1 << 20;
    let payload: Vec<u64> = (0..MIB / 8).collect();
    let rec = Recorder::new();
    run_threads(8, |t| {
        let _guard = rec.install(t.rank());
        let g = Group::world(t.rank(), t.size());
        let got = t.bcast(&g, 0, (t.rank() == 0).then_some(&payload[..]));
        assert!(got == payload, "broadcast corrupted the payload");
    });
    assert_eq!(
        rec.merged_metrics().counter(BYTES_COPIED),
        12 * MIB + 24,
        "bcast bytes copied"
    );

    let sim = Cluster::homogeneous(8, NodeSpec::default()).run_spmd(|ctx| {
        let t = SimTransport::new(ctx);
        let g = Group::world(t.rank(), t.size());
        t.bcast(&g, 0, (t.rank() == 0).then_some(&payload[..]))
            .len()
    });
    assert!(sim.results.iter().all(|&len| len as u64 == MIB / 8));
    assert_eq!(sim.report.finish_time.as_secs_f64(), 0.26780892);
    assert_eq!(sim.report.net_messages, 7);
    assert_eq!(sim.report.net_bytes, 7 * (MIB + 8));
}

#[test]
fn subgroup_collectives_match() {
    let (a, b) = on_both(4, |t| {
        if t.rank() == 1 {
            return vec![-1.0];
        }
        let g = Group::new(vec![0, 2, 3], t.rank());
        t.allreduce_sum(&g, &[t.rank() as f64])
    });
    assert_eq!(a, b);
    assert_eq!(a[0], vec![5.0]);
    assert_eq!(a[1], vec![-1.0]);
}
