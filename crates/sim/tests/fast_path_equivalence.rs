//! Stepped ↔ fast-forward equivalence: the two CPU advance modes must be
//! indistinguishable in every virtual-time output.
//!
//! The fast path (closed-form multi-round fast-forward + turn-handoff
//! bypass) exists purely to make the simulator cheaper to *execute*; the
//! `DYNMPI_SIM_STEPPED=1` switch forces the per-slice reference path so
//! these tests can assert bit-identical `SimReport`s — finish times, exact
//! CPU accounting, traffic counters — on loaded heterogeneous runs.

use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimDur, SimOutcome, SimTime};
use dynmpi_testkit::{check_n, Rng};

/// Runs `f` under both advance modes and asserts every virtual-time output
/// matches bit for bit. Returns the fast-mode outcome.
fn assert_equivalent<R, F>(mk: impl Fn() -> Cluster, f: F) -> SimOutcome<R>
where
    R: Send + PartialEq + std::fmt::Debug + Default,
    F: Fn(&dynmpi_sim::SimCtx) -> R + Send + Sync + Copy,
{
    let stepped = mk().with_stepped(true).run_spmd(f);
    let fast = mk().with_stepped(false).run_spmd(f);
    assert_eq!(stepped.results, fast.results, "per-rank results diverged");
    assert_eq!(
        stepped.report.virtual_outputs(),
        fast.report.virtual_outputs(),
        "SimReport virtual outputs diverged"
    );
    assert!(
        fast.report.engine_events <= stepped.report.engine_events,
        "fast path pushed more events ({}) than stepped ({})",
        fast.report.engine_events,
        stepped.report.engine_events
    );
    fast
}

#[test]
fn loaded_heterogeneous_compute_is_bit_identical() {
    // Three node speeds, staggered load arrivals up to ncp=3, long compute
    // phases spanning many scheduler rounds — the fast path's home turf.
    let mk = || {
        let script = LoadScript::dedicated()
            .at_time(0, SimTime::from_millis(40), 2)
            .at_time(1, SimTime::from_millis(75), 3)
            .at_time(1, SimTime::from_millis(900), 1)
            .at_time(2, SimTime::from_millis(333), 1);
        Cluster::heterogeneous(vec![
            NodeSpec::with_speed(1e6),
            NodeSpec::with_speed(6e5),
            NodeSpec::with_speed(2.5e6),
        ])
        .with_script(script)
    };
    let out = assert_equivalent(mk, |ctx| {
        ctx.advance(2e5 * (1.0 + ctx.rank() as f64));
        ctx.now()
    });
    assert!(out.report.finish_time > SimTime::from_millis(500));
}

#[test]
fn message_passing_under_load_is_bit_identical() {
    // Ring exchange with compute between hops: exercises the bypass, the
    // blocked-recv wake path, reentry boosts, and the mailbox index under
    // changing load.
    let mk = || {
        let script = LoadScript::dedicated()
            .at_time(0, SimTime::from_millis(20), 1)
            .at_time(2, SimTime::from_millis(55), 3)
            .at_time(3, SimTime::from_millis(10), 2)
            .at_time(3, SimTime::from_millis(400), 0);
        Cluster::homogeneous(4, NodeSpec::with_speed(1e6)).with_script(script)
    };
    let out = assert_equivalent(mk, |ctx| {
        let r = ctx.rank();
        let n = ctx.nprocs();
        for i in 0..12 {
            ctx.advance(3e4 + (r as f64) * 1e3);
            ctx.send((r + 1) % n, 1, vec![(r * 16 + i) as u8; 256]);
            let _ = ctx.recv((r + n - 1) % n, 1);
        }
        (ctx.now(), ctx.cpu_time_exact())
    });
    assert_eq!(out.report.net_messages, 48);
}

#[test]
fn cycle_triggered_load_and_sleep_are_bit_identical() {
    // Own-node oracle reads are exact; remote load is observed through
    // the monitor's delayed sample (`dmpi_ps`), as a real system sees it.
    let mk = || {
        let script = LoadScript::dedicated().at_cycle(1, 3, 2).at_cycle(0, 5, 1);
        Cluster::homogeneous(2, NodeSpec::with_speed(2e6)).with_script(script)
    };
    assert_equivalent(mk, |ctx| {
        let r = ctx.rank();
        let mut ncps = Vec::new();
        for _ in 0..8 {
            ctx.advance(5e4);
            ctx.sleep(SimDur::from_millis(3));
            ctx.phase_cycle_completed();
            ncps.push((ctx.true_ncp(r), ctx.dmpi_ps(1 - r), ctx.now()));
        }
        ncps
    });
}

#[test]
fn time_and_cycle_triggers_on_one_node_are_bit_identical() {
    // Every time trigger is seeded into the timeline before the run, so a
    // cycle trigger that fires earlier than a seeded time lands *in front
    // of* it: the cycle's value holds until the seeded change takes over.
    // (Node 0's pair used to die with "timeline change out of order".)
    let mk = || {
        let script = LoadScript::dedicated()
            .at_time(0, SimTime::from_secs(5), 1)
            .at_cycle(0, 1, 2)
            .at_time(1, SimTime::from_millis(60), 3)
            .at_cycle(1, 2, 1)
            .at_time(1, SimTime::from_millis(400), 0)
            .at_cycle(1, 4, 2);
        Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script)
    };
    let out = assert_equivalent(mk, |ctx| {
        let r = ctx.rank();
        let mut seen = Vec::new();
        for i in 0..6u8 {
            ctx.advance(3e4);
            ctx.send(1 - r, 2, vec![i; 64]);
            let _ = ctx.recv(1 - r, 2);
            ctx.phase_cycle_completed();
            seen.push((ctx.true_ncp(r), ctx.dmpi_ps(1 - r), ctx.now()));
        }
        ctx.sleep(SimDur::from_secs(5));
        seen.push((ctx.true_ncp(r), ctx.dmpi_ps(1 - r), ctx.now()));
        seen
    });
    let ncps = |r: usize| out.results[r].iter().map(|s| s.0).collect::<Vec<_>>();
    // Node 0: the cycle-1 value holds until t = 5 s.
    assert_eq!(ncps(0), [2, 2, 2, 2, 2, 2, 1]);
    // Node 1: cycle 2 undercuts the 60 ms trigger, which then takes over;
    // cycle 4 holds from its instant until the 400 ms trigger.
    assert_eq!(ncps(1)[0], 0);
    assert_eq!(ncps(1)[1], 1);
    assert_eq!(ncps(1)[6], 0);
}

#[test]
fn node_arrival_is_bit_identical() {
    // A scripted arrival (extra rank, cold start, slower NIC) plus a load
    // spike on a seed node: the arrival rank polls `node_online`, sleeps
    // through its cold start, then joins a ring exchange. Both engines
    // must agree on every clock, CPU reading, and online transition.
    let mk = || {
        let script = LoadScript::dedicated()
            .at_time(0, SimTime::from_millis(30), 2)
            .node_arrival_with_nic(
                SimTime::from_millis(50),
                NodeSpec::with_speed(8e5),
                SimDur::from_millis(25),
                6.25e6,
            );
        Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script)
    };
    let out = assert_equivalent(mk, |ctx| {
        let r = ctx.rank();
        let mut log = Vec::new();
        if r == 2 {
            // The newcomer: wait out the cold start in virtual time.
            while !ctx.node_online(2) {
                ctx.sleep(SimDur::from_millis(5));
            }
            log.push((ctx.now(), ctx.dmpi_ps(2)));
        }
        for i in 0..6u8 {
            ctx.advance(2e4 + r as f64 * 1e3);
            ctx.send((r + 1) % 3, 7, vec![i; 128 * (r + 1)]);
            let _ = ctx.recv((r + 2) % 3, 7);
            log.push((ctx.now(), ctx.cpu_time_exact().0 as u32));
        }
        log
    });
    assert_eq!(out.results.len(), 3, "arrival allocates a third rank");
    // The newcomer came online exactly at arrival + cold start.
    assert!(out.results[2][0].0 >= SimTime::from_millis(75));
}

#[test]
fn recv_any_fan_in_is_bit_identical() {
    let mk = || {
        let script = LoadScript::dedicated().at_time(0, SimTime::from_millis(5), 2);
        Cluster::homogeneous(5, NodeSpec::with_speed(1e6)).with_script(script)
    };
    assert_equivalent(mk, |ctx| {
        if ctx.rank() == 0 {
            let mut got = Vec::new();
            for _ in 0..8 {
                let (src, msg) = ctx.recv_any(9);
                got.push((src, msg.len(), ctx.now()));
            }
            got
        } else {
            for i in 0..2 {
                ctx.advance(1e4 * ctx.rank() as f64);
                ctx.send(0, 9, vec![0u8; 100 * ctx.rank() + i]);
            }
            Vec::new()
        }
    });

    // 256 senders post twice at three shared instants. A zero-byte frame
    // serializes in no time, so the senders of one instant land at the
    // same arrival and only the `(arrival, src, seq)` tie-break orders
    // them; every fourth sender's 64-byte frame lands just after. The
    // nodes run at 1 Gflop/s: at 1 Mflop/s this fan-in pushes more queue
    // entries fast than stepped, which `assert_equivalent` rejects
    // (ROADMAP item 10).
    let wide = assert_equivalent(
        || Cluster::homogeneous(257, NodeSpec::with_speed(1e9)),
        |ctx| {
            let r = ctx.rank();
            if r == 0 {
                let mut got = Vec::new();
                for _ in 0..2 * 256 {
                    let (src, msg) = ctx.recv_any(9);
                    got.push((src, msg.len(), ctx.now()));
                }
                got
            } else {
                for _ in 0..2 {
                    ctx.sleep(SimDur::from_millis(1 + (r % 3) as u64));
                    ctx.send(0, 9, vec![1u8; if r % 4 == 0 { 64 } else { 0 }]);
                }
                Vec::new()
            }
        },
    );
    let first: Vec<usize> = wide.results[0][..4].iter().map(|g| g.0).collect();
    assert_eq!(
        first,
        [3, 6, 9, 15],
        "tied arrivals are taken in rank order"
    );
}

#[test]
fn random_programs_are_bit_identical() {
    // Property sweep: random speeds, load timelines, and work sizes. Each
    // case builds one cluster config and a deterministic per-rank program,
    // then demands stepped == fast on every output.
    check_n("stepped_vs_fast_random", 12, |rng: &mut Rng| {
        let n = rng.range_usize(2, 5);
        let speeds: Vec<f64> = (0..n).map(|_| rng.range_f64(3e5, 3e6)).collect();
        let mut script = LoadScript::dedicated();
        for node in 0..n {
            for _ in 0..rng.range_u64(0, 4) {
                script = script.at_time(
                    node,
                    SimTime::from_micros(rng.range_u64(1, 300_000)),
                    rng.range_u32(0, 4),
                );
            }
        }
        let works: Vec<f64> = (0..n).map(|_| rng.range_f64(1e4, 3e5)).collect();
        let rounds = rng.range_u64(1, 5);
        let mk = || {
            Cluster::heterogeneous(speeds.iter().map(|&s| NodeSpec::with_speed(s)).collect())
                .with_script(script.clone())
        };
        let works = &works;
        let run = |stepped: bool| {
            mk().with_stepped(stepped).run_spmd(|ctx| {
                let r = ctx.rank();
                for _ in 0..rounds {
                    ctx.advance(works[r]);
                    ctx.send((r + 1) % n, 3, vec![r as u8; 64]);
                    let _ = ctx.recv((r + n - 1) % n, 3);
                }
                (ctx.now(), ctx.cpu_time_exact())
            })
        };
        let stepped = run(true);
        let fast = run(false);
        assert_eq!(stepped.results, fast.results);
        assert_eq!(
            stepped.report.virtual_outputs(),
            fast.report.virtual_outputs()
        );
    });
}

#[test]
fn env_switch_selects_stepped_mode() {
    // `DYNMPI_SIM_STEPPED=1` must force the reference path when no
    // programmatic override is given. Spawn-free check: set the var,
    // run, and verify the event count matches an explicit stepped run.
    // (Serial: no other test in this binary touches the variable.)
    let mk = || {
        let script = LoadScript::dedicated().at_time(0, SimTime::ZERO, 3);
        Cluster::homogeneous(1, NodeSpec::with_speed(1e6)).with_script(script)
    };
    let f = |ctx: &dynmpi_sim::SimCtx| {
        ctx.advance(1e6);
        ctx.now()
    };
    let stepped = mk().with_stepped(true).run_spmd(f);
    std::env::set_var("DYNMPI_SIM_STEPPED", "1");
    let via_env = mk().run_spmd(f);
    std::env::remove_var("DYNMPI_SIM_STEPPED");
    let fast = mk().run_spmd(f);
    assert_eq!(via_env.report.engine_events, stepped.report.engine_events);
    assert!(
        fast.report.engine_events * 5 <= stepped.report.engine_events,
        "fast mode must push >=5x fewer events ({} vs {})",
        fast.report.engine_events,
        stepped.report.engine_events
    );
    assert_eq!(
        via_env.report.virtual_outputs(),
        fast.report.virtual_outputs()
    );
}
