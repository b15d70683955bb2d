//! Typed point-to-point operations and collectives.
//!
//! [`CommOps`] is an extension trait with a blanket implementation for
//! every [`Transport`], so both the simulator and the thread backend get
//! the same algorithms: dissemination barrier, binomial broadcast and
//! reduction, ring allgather, linear (buffered) scatter/gather/alltoall.
//! All collectives operate over a [`Group`] and must be called by every
//! group member in the same order (SPMD discipline).
//!
//! # Size-adaptive algorithms
//!
//! `bcast` and `allreduce` pick their algorithm from the payload size,
//! the way production MPI implementations do:
//!
//! * below [`COLL_LARGE_THRESHOLD`] bytes (or in groups smaller than
//!   [`LARGE_ALGO_MIN_RANKS`]) they run the latency-optimal binomial
//!   tree / reduce-then-broadcast;
//! * at or above it, `bcast` switches to a van de Geijn scatter +
//!   ring-allgather and `allreduce` to a ring reduce-scatter +
//!   allgather, both bandwidth-optimal: every rank sends and receives
//!   ≈ `2·len·(n−1)/n` bytes instead of hot tree nodes handling
//!   `len·log n`.
//!
//! Only the broadcast root knows the payload size, so every broadcast
//! message carries an 8-byte frame header (total payload bytes plus an
//! algorithm bit). Both algorithms deliver a rank's *first* message from
//! the same binomial-tree parent — the large path routes per-block framed
//! messages down the tree — so non-roots read the header and follow the
//! root's choice without a separate size exchange.
//!
//! # One-copy discipline
//!
//! Each payload is serialized exactly once per collective; relays forward
//! received byte buffers as-is (cloning only when a message fans out to
//! several children, moving to the last), and ring stages pass received
//! buffers along by move while decoding blocks straight into the
//! preallocated result. Every remaining memcpy is charged to the
//! [`crate::datatype::BYTES_COPIED`] counter, which
//! `tests/cross_transport.rs::bcast_1mib_copies_and_virtual_time_are_pinned`
//! holds to the exact byte for a 1 MiB broadcast over 8 ranks.

use dynmpi_obs as obs;

use crate::datatype::{
    append_bytes, counted_to_vec, from_bytes, from_bytes_into, to_bytes, write_bytes_at, Pod,
};
use crate::group::Group;
use crate::transport::{Transport, RESERVED_TAG_BASE};

// Internal tag sub-spaces, one per collective kind. Tag reuse across
// successive collectives is safe because both transports deliver FIFO per
// (source, destination) pair.
const TAG_BARRIER: u64 = RESERVED_TAG_BASE;
const TAG_BCAST: u64 = RESERVED_TAG_BASE + 0x1000;
const TAG_BCAST_RING: u64 = RESERVED_TAG_BASE + 0x1001;
const TAG_REDUCE: u64 = RESERVED_TAG_BASE + 0x2000;
const TAG_GATHER: u64 = RESERVED_TAG_BASE + 0x3000;
const TAG_SCATTER: u64 = RESERVED_TAG_BASE + 0x4000;
const TAG_ALLGATHER: u64 = RESERVED_TAG_BASE + 0x5000;
const TAG_ALLTOALL: u64 = RESERVED_TAG_BASE + 0x6000;
const TAG_ALLREDUCE_RS: u64 = RESERVED_TAG_BASE + 0x7000;
const TAG_ALLREDUCE_AG: u64 = RESERVED_TAG_BASE + 0x7001;

/// Payload size in bytes at which `bcast` and `allreduce` switch from the
/// latency-optimal tree algorithms to the bandwidth-optimal scatter-based
/// ones. 64 KiB mirrors the MPICH/Open MPI crossover region for
/// switched-Ethernet clusters like the paper's testbed.
pub const COLL_LARGE_THRESHOLD: usize = 64 * 1024;

/// Minimum group size for the large-message algorithms; below this the
/// tree variants move the same bytes with fewer messages.
pub const LARGE_ALGO_MIN_RANKS: usize = 4;

// Broadcast frame header: a little-endian u64 whose low 63 bits are the
// total payload byte length and whose top bit selects the algorithm.
const FRAME_LEN: usize = 8;
const FRAME_VDG: u64 = 1 << 63;

fn frame_header(bytes: &[u8]) -> u64 {
    assert!(
        bytes.len() >= FRAME_LEN,
        "bcast message missing frame header"
    );
    u64::from_le_bytes(bytes[..FRAME_LEN].try_into().unwrap())
}

/// Builds `[header | bytes-of(data)]` with a single payload copy.
fn frame_slice<P: Pod>(header: u64, data: &[P]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_LEN + std::mem::size_of_val(data));
    out.extend_from_slice(&header.to_le_bytes());
    append_bytes(data, &mut out);
    out
}

/// Clone of a relay buffer, charged to the copy counter.
fn counted_clone(bytes: &[u8]) -> Vec<u8> {
    crate::datatype::count_copied(bytes.len());
    bytes.to_vec()
}

fn check_app_tag(tag: u64) {
    assert!(
        tag < RESERVED_TAG_BASE,
        "application tag {tag} collides with the reserved collective tag space"
    );
}

/// Largest power of two ≤ `x` (x ≥ 1).
fn prev_power_of_two(x: usize) -> usize {
    1 << (usize::BITS - 1 - x.leading_zeros())
}

/// Lowest set bit of `vr` — the binomial-tree receive mask; callers
/// guarantee `vr > 0`.
fn lowbit(vr: usize) -> usize {
    vr & vr.wrapping_neg()
}

/// Even element partition used by the scatter-based collectives: block
/// `i` of `n` over `elems` elements, as a half-open range.
fn block_bounds(elems: usize, n: usize, i: usize) -> (usize, usize) {
    let q = elems / n;
    let r = elems % n;
    let lo = i * q + i.min(r);
    (lo, lo + q + usize::from(i < r))
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
    obs::span_end_args(
        t.now_ns(),
        vec![
            ("ranks", obs::Json::UInt(ranks as u64)),
            ("bytes", obs::Json::UInt(bytes as u64)),
        ],
    );
    out
}

// ---------------------------------------------------------------------------
// Broadcast internals (free functions so both the adaptive entry point and
// the forced per-algorithm methods share them).
// ---------------------------------------------------------------------------

/// Receives the first broadcast message: always from the binomial-tree
/// parent, whichever algorithm the root chose.
fn bcast_recv_first<T: Transport + ?Sized>(t: &T, g: &Group, root: usize, vr: usize) -> Vec<u8> {
    let n = g.size();
    let parent_vr = vr - lowbit(vr);
    let parent = g.world_rank((parent_vr + root) % n);
    t.recv_bytes(parent, TAG_BCAST)
}

/// Binomial-tree broadcast, root side: frame once, clone for every child
/// but the last, move into the last send.
fn bcast_binomial_root<T: Transport + ?Sized, P: Pod>(
    t: &T,
    g: &Group,
    root: usize,
    data: &[P],
) -> Vec<P> {
    let n = g.size();
    let header = std::mem::size_of_val(data) as u64;
    let framed = frame_slice(header, data);
    forward_framed(t, g, root, 0, n.next_power_of_two(), framed);
    counted_to_vec(data)
}

/// Binomial-tree broadcast, non-root side, after the framed payload has
/// been received from the parent.
fn bcast_binomial_nonroot<T: Transport + ?Sized, P: Pod>(
    t: &T,
    g: &Group,
    root: usize,
    vr: usize,
    first: Vec<u8>,
) -> Vec<P> {
    let header = frame_header(&first);
    assert_eq!(
        (header & !FRAME_VDG) as usize,
        first.len() - FRAME_LEN,
        "bcast frame length mismatch"
    );
    let out = from_bytes(&first[FRAME_LEN..]);
    forward_framed(t, g, root, vr, lowbit(vr), first);
    out
}

/// Relays a framed payload to every subtree below `recv_mask`: clones for
/// all children but the last, which receives the buffer by move.
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
            counted_clone(framed.as_ref().expect("framed buffer present"))
        };
        t.send_bytes(dst, TAG_BCAST, msg);
    }
}

/// Ring allgather of framed blocks shared by both van de Geijn sides:
/// sends `mine` as round 0, then forwards each received buffer by move,
/// decoding blocks into `out` (when given) as they arrive.
fn vdg_ring<T: Transport + ?Sized, P: Pod>(
    t: &T,
    g: &Group,
    root: usize,
    vr: usize,
    elems: usize,
    mine: Vec<u8>,
    mut out: Option<&mut [P]>,
) {
    let n = g.size();
    let next = g.world_rank(((vr + 1) % n + root) % n);
    let prev = g.world_rank(((vr + n - 1) % n + root) % n);
    let mut carry = mine;
    for k in 0..n - 1 {
        t.send_bytes(next, TAG_BCAST_RING, carry);
        let rx = t.recv_bytes(prev, TAG_BCAST_RING);
        let b = (vr + n - k - 1) % n;
        let (lo, hi) = block_bounds(elems, n, b);
        assert_eq!(
            rx.len() - FRAME_LEN,
            (hi - lo) * std::mem::size_of::<P>(),
            "bcast ring block length mismatch"
        );
        if let Some(out) = out.as_deref_mut() {
            write_bytes_at(out, lo, &rx[FRAME_LEN..]);
        }
        carry = rx;
    }
}

/// Van de Geijn broadcast, root side: scatter per-block framed messages
/// down the binomial tree (relays forward them by move), then circulate
/// all blocks on a ring.
fn bcast_vdg_root<T: Transport + ?Sized, P: Pod>(
    t: &T,
    g: &Group,
    root: usize,
    data: &[P],
) -> Vec<P> {
    let n = g.size();
    let elems = data.len();
    let header = FRAME_VDG | std::mem::size_of_val(data) as u64;
    // Ascending block order keeps each child's first message its own
    // block, so it can classify the algorithm and start its ring early.
    for b in 1..n {
        let child = prev_power_of_two(b);
        let (lo, hi) = block_bounds(elems, n, b);
        t.send_bytes(
            g.world_rank((child + root) % n),
            TAG_BCAST,
            frame_slice(header, &data[lo..hi]),
        );
    }
    let (lo, hi) = block_bounds(elems, n, 0);
    vdg_ring::<T, P>(
        t,
        g,
        root,
        0,
        elems,
        frame_slice(header, &data[lo..hi]),
        None,
    );
    counted_to_vec(data)
}

/// Van de Geijn broadcast, non-root side, after the rank's own framed
/// block has been received from the tree parent.
fn bcast_vdg_nonroot<T: Transport + ?Sized, P: Pod>(
    t: &T,
    g: &Group,
    root: usize,
    vr: usize,
    first: Vec<u8>,
) -> Vec<P> {
    let n = g.size();
    let esz = std::mem::size_of::<P>();
    let total = (frame_header(&first) & !FRAME_VDG) as usize;
    assert!(
        total.is_multiple_of(esz),
        "bcast payload of {total} bytes is not a multiple of element size {esz}"
    );
    let elems = total / esz;
    let mut out = vec![P::ZERO; elems];
    let (lo, hi) = block_bounds(elems, n, vr);
    assert_eq!(
        first.len() - FRAME_LEN,
        (hi - lo) * esz,
        "bcast scatter block mismatch"
    );
    write_bytes_at(&mut out, lo, &first[FRAME_LEN..]);
    // Route the rest of the subtree's blocks: each arrives from the
    // parent in ascending block order and is forwarded untouched.
    let parent = g.world_rank((vr - lowbit(vr) + root) % n);
    let seg_end = (vr + lowbit(vr)).min(n);
    for b in vr + 1..seg_end {
        let msg = t.recv_bytes(parent, TAG_BCAST);
        let child = vr + prev_power_of_two(b - vr);
        t.send_bytes(g.world_rank((child + root) % n), TAG_BCAST, msg);
    }
    vdg_ring::<T, P>(t, g, root, vr, elems, first, Some(&mut out));
    out
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

    /// Receives a typed vector from any rank.
    fn recv_vec_any<P: Pod>(&self, tag: u64) -> (usize, Vec<P>) {
        check_app_tag(tag);
        let (src, bytes) = self.recv_bytes_any(tag);
        (src, from_bytes(&bytes))
    }

    /// Buffered exchange: send to one neighbor, receive from another.
    /// Safe against deadlock because sends are buffered.
    fn sendrecv<P: Pod>(
        &self,
        dst: usize,
        send_tag: u64,
        data: &[P],
        src: usize,
        recv_tag: u64,
    ) -> Vec<P> {
        traced(
            self,
            "comm.coll.sendrecv",
            2,
            std::mem::size_of_val(data),
            || {
                self.send_slice(dst, send_tag, data);
                self.recv_vec(src, recv_tag)
            },
        )
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

    /// Size-adaptive broadcast from relative rank `root`. The root passes
    /// `Some(data)`; everyone receives the broadcast value. Payloads of
    /// [`COLL_LARGE_THRESHOLD`] bytes and up in groups of at least
    /// [`LARGE_ALGO_MIN_RANKS`] take the scatter–allgather path; smaller
    /// ones the binomial tree. Non-roots follow the root's choice via the
    /// frame header, so only the root needs to know the size.
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
                if n == 1 {
                    return counted_to_vec(data.expect("bcast root must supply data"));
                }
                if vr == 0 {
                    let data = data.expect("bcast root must supply data");
                    if std::mem::size_of_val(data) >= COLL_LARGE_THRESHOLD
                        && n >= LARGE_ALGO_MIN_RANKS
                    {
                        obs::count("comm.coll.bcast_large", 1);
                        bcast_vdg_root(self, g, root, data)
                    } else {
                        bcast_binomial_root(self, g, root, data)
                    }
                } else {
                    let first = bcast_recv_first(self, g, root, vr);
                    if frame_header(&first) & FRAME_VDG != 0 {
                        obs::count("comm.coll.bcast_large", 1);
                        bcast_vdg_nonroot(self, g, root, vr, first)
                    } else {
                        bcast_binomial_nonroot(self, g, root, vr, first)
                    }
                }
            },
        )
    }

    /// Broadcast forced onto the binomial tree regardless of size — the
    /// small-message algorithm. Exposed for the equivalence suite and the
    /// micro-bench; production code should call [`CommOps::bcast`].
    fn bcast_binomial<P: Pod>(&self, g: &Group, root: usize, data: Option<&[P]>) -> Vec<P> {
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
                if n == 1 {
                    return counted_to_vec(data.expect("bcast root must supply data"));
                }
                if vr == 0 {
                    bcast_binomial_root(self, g, root, data.expect("bcast root must supply data"))
                } else {
                    let first = bcast_recv_first(self, g, root, vr);
                    assert_eq!(
                        frame_header(&first) & FRAME_VDG,
                        0,
                        "bcast algorithm mismatch: root chose scatter-allgather"
                    );
                    bcast_binomial_nonroot(self, g, root, vr, first)
                }
            },
        )
    }

    /// Broadcast forced onto the van de Geijn scatter + ring-allgather
    /// regardless of size — the large-message algorithm. Exposed for the
    /// equivalence suite and the micro-bench.
    fn bcast_scatter_allgather<P: Pod>(
        &self,
        g: &Group,
        root: usize,
        data: Option<&[P]>,
    ) -> Vec<P> {
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
                    if n == 1 {
                        return counted_to_vec(data);
                    }
                    bcast_vdg_root(self, g, root, data)
                } else {
                    let first = bcast_recv_first(self, g, root, vr);
                    assert_ne!(
                        frame_header(&first) & FRAME_VDG,
                        0,
                        "bcast algorithm mismatch: root chose the binomial tree"
                    );
                    bcast_vdg_nonroot(self, g, root, vr, first)
                }
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

    /// Size-adaptive allreduce: everyone gets the combined value. Small
    /// payloads reduce to rank 0 and broadcast back; payloads of
    /// [`COLL_LARGE_THRESHOLD`] bytes and up in groups of at least
    /// [`LARGE_ALGO_MIN_RANKS`] run the ring reduce-scatter + allgather
    /// instead. `f` must be commutative and associative; note the two
    /// paths may associate floating-point reductions differently.
    fn allreduce<P: Pod>(&self, g: &Group, data: &[P], f: impl Fn(&mut [P], &[P])) -> Vec<P> {
        traced(
            self,
            "comm.coll.allreduce",
            g.size(),
            std::mem::size_of_val(data),
            || {
                if std::mem::size_of_val(data) >= COLL_LARGE_THRESHOLD
                    && g.size() >= LARGE_ALGO_MIN_RANKS
                {
                    obs::count("comm.coll.allreduce_large", 1);
                    self.allreduce_ring(g, data, f)
                } else {
                    let reduced = self.reduce(g, 0, data, f);
                    self.bcast(g, 0, reduced.as_deref())
                }
            },
        )
    }

    /// Ring reduce-scatter + ring allgather allreduce — the large-message
    /// algorithm, callable directly for the equivalence suite and the
    /// micro-bench. Each rank sends and receives `2·(n−1)/n` of the
    /// payload; forwarded allgather blocks move without re-serialization.
    fn allreduce_ring<P: Pod>(&self, g: &Group, data: &[P], f: impl Fn(&mut [P], &[P])) -> Vec<P> {
        traced(
            self,
            "comm.coll.allreduce_ring",
            g.size(),
            std::mem::size_of_val(data),
            || {
                let n = g.size();
                let rel = g.rel_unchecked();
                let mut acc = counted_to_vec(data);
                if n == 1 {
                    return acc;
                }
                let elems = data.len();
                let next = g.world_rank((rel + 1) % n);
                let prev = g.world_rank((rel + n - 1) % n);
                // Reduce-scatter: after round k every rank has folded k+1
                // contributions into block (rel − k); after n−1 rounds rank
                // `rel` owns the fully reduced block (rel + 1) mod n.
                let mut incoming: Vec<P> = Vec::new();
                for k in 0..n - 1 {
                    let sb = (rel + n - k) % n;
                    let (slo, shi) = block_bounds(elems, n, sb);
                    self.send_bytes(next, TAG_ALLREDUCE_RS, to_bytes(&acc[slo..shi]));
                    let rb = (rel + n - k - 1) % n;
                    let (rlo, rhi) = block_bounds(elems, n, rb);
                    from_bytes_into(&self.recv_bytes(prev, TAG_ALLREDUCE_RS), &mut incoming);
                    assert_eq!(incoming.len(), rhi - rlo, "allreduce block length mismatch");
                    f(&mut acc[rlo..rhi], &incoming);
                }
                // Allgather: circulate the reduced blocks; each received
                // buffer is written into `acc` and forwarded by move.
                let mut carry: Option<Vec<u8>> = None;
                for k in 0..n - 1 {
                    let msg = carry.take().unwrap_or_else(|| {
                        let (lo, hi) = block_bounds(elems, n, (rel + 1) % n);
                        to_bytes(&acc[lo..hi])
                    });
                    self.send_bytes(next, TAG_ALLREDUCE_AG, msg);
                    let rb = (rel + n - k) % n;
                    let (rlo, _) = block_bounds(elems, n, rb);
                    let rx = self.recv_bytes(prev, TAG_ALLREDUCE_AG);
                    write_bytes_at(&mut acc, rlo, &rx);
                    carry = Some(rx);
                }
                acc
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

    /// Max-allreduce for u64 slices.
    fn allreduce_max_u64(&self, g: &Group, data: &[u64]) -> Vec<u64> {
        self.allreduce(g, data, |acc, inc| {
            for (a, b) in acc.iter_mut().zip(inc) {
                *a = (*a).max(*b);
            }
        })
    }

    /// Gathers variable-length contributions to relative rank `root`.
    /// Returns `Some(per-member vectors, indexed by relative rank)` on the
    /// root.
    fn gatherv<P: Pod>(&self, g: &Group, root: usize, data: &[P]) -> Option<Vec<Vec<P>>> {
        traced(
            self,
            "comm.coll.gatherv",
            g.size(),
            std::mem::size_of_val(data),
            || {
                let n = g.size();
                let rel = g.rel_unchecked();
                assert!(root < n);
                if rel != root {
                    self.send_bytes(g.world_rank(root), TAG_GATHER, to_bytes(data));
                    return None;
                }
                let mut out: Vec<Vec<P>> = Vec::with_capacity(n);
                for r in 0..n {
                    if r == root {
                        out.push(counted_to_vec(data));
                    } else {
                        out.push(from_bytes(&self.recv_bytes(g.world_rank(r), TAG_GATHER)));
                    }
                }
                Some(out)
            },
        )
    }

    /// Scatters per-member vectors from relative rank `root`; each member
    /// receives its slice. The root passes `Some(parts)` with
    /// `parts.len() == g.size()`.
    fn scatterv<P: Pod>(&self, g: &Group, root: usize, parts: Option<&[Vec<P>]>) -> Vec<P> {
        traced(
            self,
            "comm.coll.scatterv",
            g.size(),
            parts
                .map(|ps| ps.iter().map(|p| std::mem::size_of_val(p.as_slice())).sum())
                .unwrap_or(0),
            || {
                let n = g.size();
                let rel = g.rel_unchecked();
                assert!(root < n);
                if rel == root {
                    let parts = parts.expect("scatterv root must supply parts");
                    assert_eq!(parts.len(), n, "scatterv parts must match group size");
                    for (r, part) in parts.iter().enumerate() {
                        if r != root {
                            self.send_bytes(g.world_rank(r), TAG_SCATTER, to_bytes(part));
                        }
                    }
                    counted_to_vec(&parts[root])
                } else {
                    from_bytes(&self.recv_bytes(g.world_rank(root), TAG_SCATTER))
                }
            },
        )
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
    fn bcast_large_payload_dispatches_to_scatter_allgather() {
        // 128 KiB of u64 over 5 ranks crosses COLL_LARGE_THRESHOLD.
        let elems = (2 * COLL_LARGE_THRESHOLD) / 8;
        let data: Vec<u64> = (0..elems as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for root in [0usize, 3] {
            let expect = data.clone();
            let data = data.clone();
            let out = run_threads(5, move |t| {
                let g = world(t);
                let src = (t.rank() == root).then_some(&data[..]);
                t.bcast(&g, root, src)
            });
            for v in out {
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn forced_bcast_algorithms_agree_at_any_size() {
        for n in [2usize, 3, 5, 8] {
            for root in [0, n - 1] {
                let data: Vec<u32> = (0..97u32).map(|i| i * 7 + root as u32).collect();
                let expect = data.clone();
                let out = run_threads(n, move |t| {
                    let g = world(t);
                    let src = (t.rank() == root).then_some(&data[..]);
                    let tree = t.bcast_binomial(&g, root, src);
                    let vdg = t.bcast_scatter_allgather(&g, root, src);
                    (tree, vdg)
                });
                for (tree, vdg) in out {
                    assert_eq!(tree, expect);
                    assert_eq!(vdg, expect);
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
            t.allreduce_max_u64(&g, &[t.rank() as u64 * 10, 7])
        });
        for v in out {
            assert_eq!(v, vec![30, 7]);
        }
    }

    #[test]
    fn allreduce_ring_matches_tree_small_and_large() {
        for n in [1usize, 2, 3, 5, 8] {
            // Exactly representable values so any association is identical.
            let out = run_threads(n, move |t| {
                let g = world(t);
                let mine: Vec<u64> = (0..1000).map(|i| i + t.rank() as u64).collect();
                let sum = |a: &mut [u64], b: &[u64]| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                };
                let ring = t.allreduce_ring(&g, &mine, sum);
                let tree = {
                    let red = t.reduce(&g, 0, &mine, sum);
                    t.bcast_binomial(&g, 0, red.as_deref())
                };
                (ring, tree)
            });
            for (ring, tree) in out {
                assert_eq!(ring, tree);
            }
        }
    }

    #[test]
    fn gatherv_variable_lengths() {
        let out = run_threads(4, |t| {
            let g = world(t);
            let mine: Vec<u32> = (0..t.rank() as u32).collect();
            t.gatherv(&g, 2, &mine)
        });
        let rootwise = out[2].as_ref().unwrap();
        for (r, v) in rootwise.iter().enumerate() {
            assert_eq!(v, &(0..r as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scatterv_distributes() {
        let out = run_threads(3, |t| {
            let g = world(t);
            let parts: Vec<Vec<i64>> = (0..3).map(|r| vec![r as i64; r + 1]).collect();
            let src = (t.rank() == 0).then_some(&parts[..]);
            t.scatterv(&g, 0, src)
        });
        for (r, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![r as i64; r + 1]);
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
    fn sendrecv_ring_shift() {
        let out = run_threads(4, |t| {
            let n = t.size();
            let r = t.rank();
            let got = t.sendrecv((r + 1) % n, 5, &[r as u64], (r + n - 1) % n, 5);
            got[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn block_bounds_partition_exactly() {
        for (elems, n) in [(10, 3), (7, 8), (0, 4), (16, 4), (5, 5)] {
            let mut covered = 0;
            for i in 0..n {
                let (lo, hi) = block_bounds(elems, n, i);
                assert_eq!(
                    lo,
                    covered,
                    "block {i} must start where {} ended",
                    i.wrapping_sub(1)
                );
                assert!(hi >= lo);
                covered = hi;
            }
            assert_eq!(covered, elems);
        }
    }

    #[test]
    #[should_panic(expected = "reserved collective tag space")]
    fn reserved_tags_rejected_for_app_traffic() {
        run_threads(1, |t| {
            t.send_slice(0, RESERVED_TAG_BASE, &[0u8]);
        });
    }
}
