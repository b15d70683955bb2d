//! Typed point-to-point operations and collectives.
//!
//! [`CommOps`] is an extension trait with a blanket implementation for
//! every [`Transport`], so both the simulator and the thread backend get
//! the same algorithms. Each collective has exactly one:
//!
//! * `barrier` — dissemination, ⌈log₂ n⌉ rounds;
//! * `bcast` — binomial tree;
//! * `reduce` — binomial tree; `allreduce` is `reduce` to rank 0, then
//!   `bcast`;
//! * `allgatherv` — ring, n−1 rounds;
//! * `alltoallv` — linear buffered exchange.
//!
//! All collectives operate over a [`Group`] and must be called by every
//! group member in the same order (SPMD discipline). Dyn-MPI's own
//! traffic is control gathers, small broadcasts and one- or two-double
//! reductions, where the latency-optimal tree is the right algorithm at
//! every size that runs.
//!
//! Only the broadcast root knows the payload size, so every broadcast
//! message carries an 8-byte little-endian length header, which each
//! receiver checks against what arrived.
//!
//! # One-copy discipline
//!
//! Each payload is serialized exactly once per collective; relays forward
//! received byte buffers as-is (cloning only when a message fans out to
//! several children, moving to the last), and the ring passes received
//! buffers along by move. Every remaining memcpy is charged to the
//! [`crate::datatype::BYTES_COPIED`] counter, which
//! `tests/cross_transport.rs::bcast_1mib_copies_and_virtual_time_are_pinned`
//! holds to the exact byte for a 1 MiB broadcast over 8 ranks.

use dynmpi_obs as obs;

use crate::datatype::{append_bytes, counted_to_vec, from_bytes, from_bytes_into, to_bytes, Pod};
use crate::group::Group;
use crate::transport::{Transport, RESERVED_TAG_BASE};

// Internal tag sub-spaces, one per collective kind. Tag reuse across
// successive collectives is safe because both transports deliver FIFO per
// (source, destination) pair.
const TAG_BARRIER: u64 = RESERVED_TAG_BASE;
const TAG_BCAST: u64 = RESERVED_TAG_BASE + 0x1000;
const TAG_REDUCE: u64 = RESERVED_TAG_BASE + 0x2000;
const TAG_ALLGATHER: u64 = RESERVED_TAG_BASE + 0x5000;
const TAG_ALLTOALL: u64 = RESERVED_TAG_BASE + 0x6000;

/// Broadcast frame header: the payload byte length, little-endian.
const FRAME_LEN: usize = 8;

fn check_app_tag(tag: u64) {
    assert!(
        tag < RESERVED_TAG_BASE,
        "application tag {tag} collides with the reserved collective tag space"
    );
}

/// Lowest set bit of `vr` — the binomial-tree receive mask; callers
/// guarantee `vr > 0`.
fn lowbit(vr: usize) -> usize {
    vr & vr.wrapping_neg()
}

/// Wraps one collective call in a `cat = "comm"` trace span stamped with
/// the transport's (virtual) clock. Composite collectives nest naturally:
/// an `allreduce` span contains its `reduce` and `bcast` children. The
/// span closes with `ranks` (participating group size) and `bytes` (this
/// rank's local payload contribution) attributes for trace analysis.
/// `counter` is the collective's call counter, `comm.coll.<name>`; the
/// span is named `<name>`.
fn traced<R>(
    t: &(impl Transport + ?Sized),
    counter: &'static str,
    ranks: usize,
    bytes: usize,
    body: impl FnOnce() -> R,
) -> R {
    if !obs::enabled() {
        return body();
    }
    let name = counter
        .strip_prefix("comm.coll.")
        .expect("collective counters are named comm.coll.<name>");
    obs::span_begin("comm", name, t.now_ns());
    obs::count(counter, 1);
    let out = body();
    obs::span_end_collective(t.now_ns(), ranks as u64, bytes as u64);
    out
}

/// Relays a framed broadcast payload to every subtree below `recv_mask`:
/// clones (charged to the copy counter) for all children but the last,
/// which receives the buffer by move.
fn forward_framed<T: Transport + ?Sized>(
    t: &T,
    g: &Group,
    root: usize,
    vr: usize,
    recv_mask: usize,
    framed: Vec<u8>,
) {
    let n = g.size();
    let mut dsts = Vec::new();
    let mut m = recv_mask >> 1;
    while m > 0 {
        if vr + m < n {
            dsts.push(g.world_rank((vr + m + root) % n));
        }
        m >>= 1;
    }
    let last = dsts.len().saturating_sub(1);
    let mut framed = Some(framed);
    for (i, dst) in dsts.into_iter().enumerate() {
        let msg = if i == last {
            framed.take().expect("framed buffer consumed early")
        } else {
            let bytes = framed.as_ref().expect("framed buffer present");
            crate::datatype::count_copied(bytes.len());
            bytes.to_vec()
        };
        t.send_bytes(dst, TAG_BCAST, msg);
    }
}

/// Typed p2p and collective operations over any transport.
pub trait CommOps: Transport {
    /// Sends a typed slice to `dst`.
    fn send_slice<P: Pod>(&self, dst: usize, tag: u64, data: &[P]) {
        check_app_tag(tag);
        self.send_bytes(dst, tag, to_bytes(data));
    }

    /// Receives a typed vector from `src`.
    fn recv_vec<P: Pod>(&self, src: usize, tag: u64) -> Vec<P> {
        check_app_tag(tag);
        from_bytes(&self.recv_bytes(src, tag))
    }

    /// Dissemination barrier over `g`. O(log n) rounds.
    fn barrier(&self, g: &Group) {
        traced(self, "comm.coll.barrier", g.size(), 0, || {
            let n = g.size();
            let rel = g.rel_unchecked();
            let mut k = 1usize;
            let mut round = 0u64;
            while k < n {
                let to = g.world_rank((rel + k) % n);
                let from = g.world_rank((rel + n - k) % n);
                self.send_bytes(to, TAG_BARRIER + round, Vec::new());
                let _ = self.recv_bytes(from, TAG_BARRIER + round);
                k <<= 1;
                round += 1;
            }
        })
    }

    /// Binomial-tree broadcast from relative rank `root`. The root passes
    /// `Some(data)`; everyone receives the broadcast value. The root frames
    /// the payload once; each relay forwards the buffer it received.
    fn bcast<P: Pod>(&self, g: &Group, root: usize, data: Option<&[P]>) -> Vec<P> {
        traced(
            self,
            "comm.coll.bcast",
            g.size(),
            data.map(std::mem::size_of_val).unwrap_or(0),
            || {
                let n = g.size();
                let rel = g.rel_unchecked();
                assert!(root < n, "bcast root {root} out of group of {n}");
                let vr = (rel + n - root) % n;
                if vr == 0 {
                    let data = data.expect("bcast root must supply data");
                    if n > 1 {
                        let mut framed =
                            Vec::with_capacity(FRAME_LEN + std::mem::size_of_val(data));
                        framed
                            .extend_from_slice(&(std::mem::size_of_val(data) as u64).to_le_bytes());
                        append_bytes(data, &mut framed);
                        forward_framed(self, g, root, 0, n.next_power_of_two(), framed);
                    }
                    return counted_to_vec(data);
                }
                let parent = g.world_rank((vr - lowbit(vr) + root) % n);
                let framed = self.recv_bytes(parent, TAG_BCAST);
                assert!(
                    framed.len() >= FRAME_LEN,
                    "bcast message missing frame header"
                );
                let header = u64::from_le_bytes(framed[..FRAME_LEN].try_into().unwrap());
                assert_eq!(
                    header as usize,
                    framed.len() - FRAME_LEN,
                    "bcast frame length mismatch"
                );
                let out = from_bytes(&framed[FRAME_LEN..]);
                forward_framed(self, g, root, vr, lowbit(vr), framed);
                out
            },
        )
    }

    /// Binomial-tree reduction to relative rank `root` with a commutative,
    /// associative combine `f(acc, incoming)`. Returns `Some` on the root.
    /// Incoming payloads decode into one scratch buffer reused across
    /// rounds; the accumulator is serialized once, on the single send.
    fn reduce<P: Pod>(
        &self,
        g: &Group,
        root: usize,
        data: &[P],
        f: impl Fn(&mut [P], &[P]),
    ) -> Option<Vec<P>> {
        traced(
            self,
            "comm.coll.reduce",
            g.size(),
            std::mem::size_of_val(data),
            || {
                let n = g.size();
                let rel = g.rel_unchecked();
                assert!(root < n, "reduce root {root} out of group of {n}");
                let vr = (rel + n - root) % n;
                let mut acc = counted_to_vec(data);
                let mut incoming: Vec<P> = Vec::new();
                let mut mask = 1usize;
                while mask < n {
                    if vr & mask == 0 {
                        let peer_vr = vr | mask;
                        if peer_vr < n {
                            let src = g.world_rank((peer_vr + root) % n);
                            from_bytes_into(&self.recv_bytes(src, TAG_REDUCE), &mut incoming);
                            assert_eq!(incoming.len(), acc.len(), "reduce length mismatch");
                            f(&mut acc, &incoming);
                        }
                    } else {
                        let peer_vr = vr & !mask;
                        let dst = g.world_rank((peer_vr + root) % n);
                        self.send_bytes(dst, TAG_REDUCE, to_bytes(&acc));
                        return None;
                    }
                    mask <<= 1;
                }
                Some(acc)
            },
        )
    }

    /// Allreduce: reduces to relative rank 0, then broadcasts the result,
    /// so everyone gets the same bytes. `f` must be commutative and
    /// associative.
    fn allreduce<P: Pod>(&self, g: &Group, data: &[P], f: impl Fn(&mut [P], &[P])) -> Vec<P> {
        traced(
            self,
            "comm.coll.allreduce",
            g.size(),
            std::mem::size_of_val(data),
            || {
                let reduced = self.reduce(g, 0, data, f);
                self.bcast(g, 0, reduced.as_deref())
            },
        )
    }

    /// Sum-allreduce for f64 slices.
    fn allreduce_sum_f64(&self, g: &Group, data: &[f64]) -> Vec<f64> {
        self.allreduce(g, data, |acc, inc| {
            for (a, b) in acc.iter_mut().zip(inc) {
                *a += b;
            }
        })
    }

    /// Max-allreduce for f64 slices.
    fn allreduce_max_f64(&self, g: &Group, data: &[f64]) -> Vec<f64> {
        self.allreduce(g, data, |acc, inc| {
            for (a, b) in acc.iter_mut().zip(inc) {
                *a = a.max(*b);
            }
        })
    }

    /// Ring allgather of variable-length contributions: returns all
    /// members' data, indexed by relative rank. n−1 rounds; own data is
    /// serialized once and every received buffer is decoded into the
    /// result, then forwarded by move — one copy per block per hop.
    fn allgatherv<P: Pod>(&self, g: &Group, data: &[P]) -> Vec<Vec<P>> {
        traced(
            self,
            "comm.coll.allgatherv",
            g.size(),
            std::mem::size_of_val(data),
            || {
                let n = g.size();
                let rel = g.rel_unchecked();
                let mut out: Vec<Vec<P>> = (0..n).map(|_| Vec::new()).collect();
                out[rel] = counted_to_vec(data);
                if n == 1 {
                    return out;
                }
                let next = g.world_rank((rel + 1) % n);
                let prev = g.world_rank((rel + n - 1) % n);
                let mut carry: Option<Vec<u8>> = None;
                for k in 0..n - 1 {
                    let msg = carry.take().unwrap_or_else(|| to_bytes(data));
                    self.send_bytes(next, TAG_ALLGATHER, msg);
                    let recv_idx = (rel + n - k - 1) % n;
                    let rx = self.recv_bytes(prev, TAG_ALLGATHER);
                    out[recv_idx] = from_bytes(&rx);
                    carry = Some(rx);
                }
                out
            },
        )
    }

    /// Personalized all-to-all: member `i` sends `parts[j]` to member `j`;
    /// returns what everyone sent to me, indexed by relative rank. Linear
    /// buffered exchange, staggered to spread NIC load.
    fn alltoallv<P: Pod>(&self, g: &Group, parts: &[Vec<P>]) -> Vec<Vec<P>> {
        traced(
            self,
            "comm.coll.alltoallv",
            g.size(),
            parts
                .iter()
                .map(|p| std::mem::size_of_val(p.as_slice()))
                .sum(),
            || {
                let n = g.size();
                let rel = g.rel_unchecked();
                assert_eq!(parts.len(), n, "alltoallv parts must match group size");
                for k in 1..n {
                    let dst = (rel + k) % n;
                    self.send_bytes(g.world_rank(dst), TAG_ALLTOALL, to_bytes(&parts[dst]));
                }
                let mut out: Vec<Vec<P>> = (0..n).map(|_| Vec::new()).collect();
                out[rel] = counted_to_vec(&parts[rel]);
                for k in 1..n {
                    let src = (rel + n - k) % n;
                    out[src] = from_bytes(&self.recv_bytes(g.world_rank(src), TAG_ALLTOALL));
                }
                out
            },
        )
    }
}

impl<T: Transport + ?Sized> CommOps for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::run_threads;

    fn world(t: &impl Transport) -> Group {
        Group::world(t.rank(), t.size())
    }

    #[test]
    fn barrier_completes_various_sizes() {
        for n in [1usize, 2, 3, 5, 8] {
            run_threads(n, |t| {
                for _ in 0..3 {
                    t.barrier(&world(t));
                }
            });
        }
    }

    #[test]
    fn bcast_all_roots_all_sizes() {
        for n in [1usize, 2, 3, 4, 7] {
            for root in 0..n {
                let out = run_threads(n, |t| {
                    let g = world(t);
                    let data: Vec<u64> = vec![99, root as u64];
                    let src = (t.rank() == root).then_some(&data[..]);
                    t.bcast(&g, root, src)
                });
                for v in out {
                    assert_eq!(v, vec![99, root as u64]);
                }
            }
        }
    }

    #[test]
    fn reduce_sum_matches_sequential() {
        for n in [1usize, 2, 3, 6, 8] {
            let out = run_threads(n, |t| {
                let g = world(t);
                let mine = vec![t.rank() as f64, 1.0];
                t.reduce(&g, 0, &mine, |a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                })
            });
            let expect: f64 = (0..n).map(|r| r as f64).sum();
            assert_eq!(out[0].as_ref().unwrap(), &vec![expect, n as f64]);
            assert!(out[1..].iter().all(|o| o.is_none()));
        }
    }

    #[test]
    fn allreduce_everyone_agrees() {
        let out = run_threads(5, |t| {
            let g = world(t);
            t.allreduce_sum_f64(&g, &[t.rank() as f64 + 1.0])
        });
        for v in out {
            assert_eq!(v, vec![15.0]);
        }
    }

    #[test]
    fn allreduce_max() {
        let out = run_threads(4, |t| {
            let g = world(t);
            t.allreduce_max_f64(&g, &[t.rank() as f64 * 10.0, 7.0])
        });
        for v in out {
            assert_eq!(v, vec![30.0, 7.0]);
        }
    }

    #[test]
    fn allgatherv_ring() {
        for n in [1usize, 2, 3, 5] {
            let out = run_threads(n, |t| {
                let g = world(t);
                let mine: Vec<u64> = vec![t.rank() as u64; t.rank() + 1];
                t.allgatherv(&g, &mine)
            });
            for v in out {
                for (r, block) in v.iter().enumerate() {
                    assert_eq!(block, &vec![r as u64; r + 1]);
                }
            }
        }
    }

    #[test]
    fn alltoallv_personalized() {
        let out = run_threads(3, |t| {
            let g = world(t);
            let parts: Vec<Vec<u32>> = (0..3).map(|j| vec![(t.rank() * 10 + j) as u32]).collect();
            t.alltoallv(&g, &parts)
        });
        for (me, v) in out.iter().enumerate() {
            for (src, block) in v.iter().enumerate() {
                assert_eq!(block, &vec![(src * 10 + me) as u32]);
            }
        }
    }

    #[test]
    fn collectives_on_subgroup() {
        // World of 4; group excludes rank 2 (a "removed" node).
        let out = run_threads(4, |t| {
            if t.rank() == 2 {
                return vec![];
            }
            let g = Group::new(vec![0, 1, 3], t.rank());
            t.allreduce_sum_f64(&g, &[1.0])
        });
        assert_eq!(out[0], vec![3.0]);
        assert_eq!(out[1], vec![3.0]);
        assert_eq!(out[3], vec![3.0]);
        assert!(out[2].is_empty());
    }

    #[test]
    #[should_panic(expected = "reserved collective tag space")]
    fn reserved_tags_rejected_for_app_traffic() {
        run_threads(1, |t| {
            t.send_slice(0, RESERVED_TAG_BASE, &[0u8]);
        });
    }
}
