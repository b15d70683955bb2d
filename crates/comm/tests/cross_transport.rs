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
    fn sendrecv_ring(&self, val: u64) -> u64;
    /// Adaptive bcast plus both forced algorithms, in that order.
    fn bcast_all_algos(&self, g: &Group, root: usize, data: Option<&[u64]>) -> [Vec<u64>; 3];
    /// Ring allreduce plus the reduce+bcast tree path, in that order.
    fn allreduce_both_algos(&self, g: &Group, data: &[f64]) -> [Vec<f64>; 2];
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
    fn sendrecv_ring(&self, val: u64) -> u64 {
        let n = self.0.size();
        let r = self.0.rank();
        let got = self.0.sendrecv((r + 1) % n, 3, &[val], (r + n - 1) % n, 3);
        got[0]
    }
    fn bcast_all_algos(&self, g: &Group, root: usize, data: Option<&[u64]>) -> [Vec<u64>; 3] {
        [
            self.0.bcast(g, root, data),
            self.0.bcast_binomial(g, root, data),
            self.0.bcast_scatter_allgather(g, root, data),
        ]
    }
    fn allreduce_both_algos(&self, g: &Group, data: &[f64]) -> [Vec<f64>; 2] {
        let sum = |a: &mut [f64], b: &[f64]| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        };
        let ring = self.0.allreduce_ring(g, data, sum);
        let reduced = self.0.reduce(g, 0, data, sum);
        let tree = self.0.bcast_binomial(g, 0, reduced.as_deref());
        [ring, tree]
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

#[test]
fn ring_shift_matches_across_transports() {
    let (a, b) = on_both(5, |t| t.sendrecv_ring(t.rank() as u64 * 3));
    assert_eq!(a, b);
    assert_eq!(a, vec![12, 0, 3, 6, 9]);
}

/// The size-adaptive dispatch must be invisible to callers: the adaptive
/// bcast and both forced algorithms return byte-identical payloads, on
/// both transports, across group sizes, roots, and the small/large
/// threshold.
#[test]
fn bcast_algorithms_byte_identical_across_transports() {
    // 97 u64s stay under the large threshold; 16 Ki u64s (128 KiB) cross
    // it, so the adaptive path exercises both algorithms.
    for elems in [97usize, 16 * 1024] {
        for n in [1usize, 2, 3, 5, 8] {
            for root in [0, n - 1] {
                let (threads, sim) = on_both(n, move |t| {
                    let g = Group::world(t.rank(), t.size());
                    let data: Vec<u64> =
                        (0..elems as u64).map(|i| i ^ (root as u64) << 32).collect();
                    t.bcast_all_algos(&g, root, (t.rank() == root).then_some(&data))
                });
                let expect: Vec<u64> = (0..elems as u64).map(|i| i ^ (root as u64) << 32).collect();
                assert_eq!(threads, sim, "elems={elems} n={n} root={root}");
                for per_rank in &threads {
                    let [adaptive, binomial, vdg] = per_rank;
                    assert_eq!(adaptive, &expect, "elems={elems} n={n} root={root}");
                    assert_eq!(binomial, &expect, "elems={elems} n={n} root={root}");
                    assert_eq!(vdg, &expect, "elems={elems} n={n} root={root}");
                }
            }
        }
    }
}

/// The one-copy discipline, pinned exactly: a 1 MiB broadcast over 8
/// ranks charges `comm.bytes_copied` 9 payloads under the adaptive
/// dispatch (scatter + ring allgather at this size), and 12 payloads plus
/// the 8-byte frame of each of the three cloned relays under the binomial
/// tree — an eager tree that re-serializes per child would copy 15. One
/// more clone of a relayed buffer per child breaks the pin. The simulated
/// broadcast time on the 100 Mbit/s cluster is pinned alongside.
#[test]
fn bcast_1mib_copies_and_virtual_time_are_pinned() {
    const MIB: u64 = 1 << 20;
    let payload: Vec<u64> = (0..MIB / 8).collect();
    let copied = |binomial: bool| {
        let rec = Recorder::new();
        run_threads(8, |t| {
            let _guard = rec.install(t.rank());
            let g = Group::world(t.rank(), t.size());
            let data = (t.rank() == 0).then_some(&payload[..]);
            let got = if binomial {
                t.bcast_binomial(&g, 0, data)
            } else {
                t.bcast(&g, 0, data)
            };
            assert!(got == payload, "broadcast corrupted the payload");
        });
        rec.merged_metrics().counter(BYTES_COPIED)
    };
    assert_eq!(copied(false), 9 * MIB, "adaptive bcast bytes copied");
    assert_eq!(copied(true), 12 * MIB + 24, "binomial bcast bytes copied");

    let sim = Cluster::homogeneous(8, NodeSpec::default()).run_spmd(|ctx| {
        let t = SimTransport::new(ctx);
        let g = Group::world(t.rank(), t.size());
        t.bcast(&g, 0, (t.rank() == 0).then_some(&payload[..]))
            .len()
    });
    assert!(sim.results.iter().all(|&len| len as u64 == MIB / 8));
    assert_eq!(sim.report.finish_time.as_secs_f64(), 0.1862228);
}

/// Ring allreduce vs reduce+bcast on exactly representable values: the
/// two associations are byte-identical for integer-valued doubles, on
/// both transports.
#[test]
fn allreduce_algorithms_byte_identical_across_transports() {
    for elems in [64usize, 16 * 1024] {
        for n in [1usize, 2, 3, 5, 8] {
            let (threads, sim) = on_both(n, move |t| {
                let g = Group::world(t.rank(), t.size());
                // Small integers: every partial sum is exact in f64, so
                // both associations must agree bit-for-bit.
                let data: Vec<f64> = (0..elems).map(|i| ((t.rank() + i) % 13) as f64).collect();
                t.allreduce_both_algos(&g, &data)
            });
            assert_eq!(threads, sim, "elems={elems} n={n}");
            for (r, per_rank) in threads.iter().enumerate() {
                let [ring, tree] = per_rank;
                assert_eq!(ring, tree, "elems={elems} n={n} rank={r}");
                let expect: Vec<f64> = (0..elems)
                    .map(|i| (0..n).map(|rk| ((rk + i) % 13) as f64).sum())
                    .collect();
                assert_eq!(ring, &expect, "elems={elems} n={n} rank={r}");
            }
        }
    }
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
