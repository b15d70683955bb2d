//! Deterministic pins on what the engine allocates per simulated message.
//!
//! A message owns one heap block, its payload, which the sender builds and
//! the receiver takes. Everything else on the message path — the mailbox,
//! the event queue, the landing slots — keeps its capacity, so once a run
//! has warmed up a message costs the engine no allocation at all. Each pin
//! runs a program twice, for `ROUNDS` and `2 × ROUNDS` rounds, on the same
//! thread (every rank is a fiber on the caller's thread, so the counter sees
//! all of them): the difference is what the extra rounds allocated, with
//! setup and warm-up cancelled out, and it must equal the payloads those
//! rounds built.
//!
//! Every receive in these programs finds its message already there: the
//! ranks compute for longer than a frame's flight. A receive that really
//! waits records its interval in the node's `vmstat` history, which grows
//! with the length of a run by design and is not the message path.

use dynmpi_sim::{Cluster, NodeSpec, SimCtx, SimDur, SimTime};
use dynmpi_testkit::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROUNDS: usize = 200;

/// Bytes per payload: a ghost row's worth.
const PAYLOAD: usize = 2048;

/// Allocations of one fast-mode run of `program` on `n` ranks, with
/// `rounds` passed to it.
fn run_allocations(n: usize, rounds: usize, program: fn(&SimCtx, usize)) -> u64 {
    let cluster = Cluster::homogeneous(n, NodeSpec::with_speed(1e7)).with_stepped(false);
    let mut out = None;
    let count = allocations(|| out = Some(cluster.run_spmd(|ctx| program(ctx, rounds))));
    drop(out);
    count
}

/// What `ROUNDS` more rounds of `program` allocate than `ROUNDS` do.
fn extra_allocations(n: usize, program: fn(&SimCtx, usize)) -> u64 {
    run_allocations(n, ROUNDS, program); // first run: thread-local pools settle
    let short = run_allocations(n, ROUNDS, program);
    let long = run_allocations(n, 2 * ROUNDS, program);
    long - short
}

/// Rank 0 pings rank 1 with a directed send, rank 1 answers with a
/// directed pong; one payload each way per round. Rank 1 starts half a
/// round late, so each side computes past the other's frame before it
/// receives it.
fn ping_pong(ctx: &SimCtx, rounds: usize) {
    let work = 20e3; // 2 ms, against a flight of well under 1 ms
    if ctx.rank() == 1 {
        ctx.sleep(SimDur::from_millis(2));
    }
    for i in 0..rounds {
        if ctx.rank() == 0 {
            ctx.send(1, 1, vec![i as u8; PAYLOAD]);
            ctx.advance(2.0 * work);
            let _ = ctx.recv(1, 2);
        } else {
            let _ = ctx.recv(0, 1);
            ctx.send(0, 2, vec![i as u8; PAYLOAD]);
            ctx.advance(2.0 * work);
        }
    }
}

/// Seven senders post one payload each per round, all at the same local
/// times; rank 0 computes through the round, takes the seven with
/// `recv_any` in `(arrival, src, seq)` order and releases each sender for
/// the next round with an empty token (an empty `Vec` owns no heap block).
/// Without the token a sender would run its whole program ahead and the
/// queue would hold every round's frames at once.
fn fan_in(ctx: &SimCtx, rounds: usize) {
    let n = ctx.nprocs();
    for i in 0..rounds {
        let start = SimTime::from_millis(20 * (i as u64 + 1));
        ctx.sleep(start - ctx.now());
        if ctx.rank() == 0 {
            ctx.sleep(SimDur::from_millis(5));
            for _ in 1..n {
                let _ = ctx.recv_any(3);
            }
            for s in 1..n {
                ctx.send(s, 4, Vec::new());
            }
        } else {
            ctx.send(0, 3, vec![i as u8; PAYLOAD]);
            ctx.sleep(SimDur::from_millis(15));
            let _ = ctx.recv(0, 4);
        }
    }
}

/// A control gather's root: every other rank sends rank 0 one directed
/// frame per round, which rank 0 takes sender by sender with `recv` and
/// releases with an empty token, as in `fan_in`. Each frame lands in its
/// sender's lane of the root's mailbox, and the lanes keep their capacity.
fn gather_root(ctx: &SimCtx, rounds: usize) {
    let n = ctx.nprocs();
    for i in 0..rounds {
        let start = SimTime::from_millis(20 * (i as u64 + 1));
        ctx.sleep(start - ctx.now());
        if ctx.rank() == 0 {
            ctx.sleep(SimDur::from_millis(5));
            for s in 1..n {
                let _ = ctx.recv(s, 5);
            }
            for s in 1..n {
                ctx.send(s, 6, Vec::new());
            }
        } else {
            ctx.send(0, 5, vec![i as u8; PAYLOAD]);
            ctx.sleep(SimDur::from_millis(15));
            let _ = ctx.recv(0, 6);
        }
    }
}

#[test]
fn a_directed_ping_pong_allocates_only_its_payloads() {
    let payloads = 2 * ROUNDS as u64;
    assert_eq!(extra_allocations(2, ping_pong), payloads);
}

#[test]
fn an_any_source_fan_in_allocates_only_its_payloads() {
    let payloads = 7 * ROUNDS as u64;
    assert_eq!(extra_allocations(8, fan_in), payloads);
}

#[test]
fn a_directed_gather_root_allocates_only_its_payloads() {
    let payloads = 31 * ROUNDS as u64;
    assert_eq!(extra_allocations(32, gather_root), payloads);
}
