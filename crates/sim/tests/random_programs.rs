//! Seeded random-program equivalence: the safety net under the rank-local
//! clocks.
//!
//! Each seed builds a random cluster (speeds, network costs, a load script
//! mixing time and cycle triggers on the same nodes, maybe an arrival, a
//! fail-stop crash and a partition) and a random deadlock-free SPMD program
//! over every `SimCtx` operation. Each rank logs every value it observes.
//! The stepped engine is fully eager — every clock advance a queued event —
//! so it is the oracle: the fast engine, whose ranks run ahead on local
//! clocks, must reproduce its logs and `SimReport` bit for bit, and a
//! recorded run must produce the same trace events (but for its merged
//! `sched` spans, of which it has no more), health report and profile.
//! This is where engine-mode equivalence is held for `SimCtx` operations;
//! the `dynmpi` crate's `tests/drive` holds it for runtime scenarios.
//! Every case runs under a watchdog: a lost wake-up is a failure with a
//! seed, not a hung `cargo test`.
//!
//! The generator aims at the edges the four clock rules have: receives
//! whose deadline *is* the arrival, ranks aligned on one absolute instant
//! (so `(time, pid)` ties decide who sees what), monitor reads right after
//! a sleep across a sampling second, remote monitor reads inside the first
//! network latency (they sample t = 0), probes racing an arrival,
//! back-to-back sends, and zero-latency networks with free zero-byte sends.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dynmpi_obs::{analyze, HealthMonitor, HealthReport, Recorder, TraceEvent, DEFAULT_WINDOW_NS};
use dynmpi_sim::{
    Cluster, LoadScript, NetParams, Network, NodeSpec, SimCtx, SimDur, SimReport, SimTime,
};
use dynmpi_testkit::{check_n, with_watchdog, Rng};

const SEEDS: u32 = 200;
const WATCHDOG_SECS: u64 = 60;
/// Log marker of a receive that timed out.
const TIMED_OUT: u64 = u64::MAX;

/// One program step; every rank executes every step. `Vec` fields are
/// indexed by rank.
#[derive(Clone, Debug)]
enum Step {
    /// `advance(work)`.
    Compute(Vec<f64>),
    /// `sleep(ns)`.
    Sleep(Vec<u64>),
    /// Everyone sends to `rank + dist` (1 = neighbour, more = long haul),
    /// computes `work`, probes for the message from `rank - dist` and then
    /// receives it.
    Shift {
        dist: usize,
        bytes: Vec<usize>,
        work: Vec<f64>,
    },
    /// Send to self, then a timed receive whose deadline is the copy's
    /// arrival plus `slack` ns (0 = deadline == arrival: the message wins).
    SelfSend { bytes: usize, slack: i64 },
    /// Everyone but `root` sends to it; `root` receives from any source.
    FanIn { root: usize, bytes: Vec<usize> },
    /// `root` sends everyone a first message, then everyone a second one,
    /// back to back; the others receive both.
    Scatter { root: usize, bytes: usize },
    /// `a` announces an absolute send time, sleeps until then and sends;
    /// `b` waits with a deadline `delta` ns off the predicted arrival.
    Timed {
        a: usize,
        b: usize,
        lead: u64,
        delta: i64,
        bytes: usize,
    },
    /// Rank 0 announces an absolute time `lead` ns ahead and everyone
    /// sleeps until exactly then; at that one instant the ranks change
    /// their load (`set_own_ncp(ncp)` where given, `phase_cycle_completed`
    /// where `cycle`) and read every node's monitors — `(time, pid)` order
    /// alone decides which reader sees which write.
    Align {
        lead: u64,
        ncp: Vec<Option<u32>>,
        cycle: Vec<bool>,
    },
    /// `cpu_time_reading`, `cpu_time_exact` (`now` is logged every step).
    Clocks,
    /// A nap, then every node's monitors.
    Monitors(Vec<Nap>),
    /// `phase_cycle_completed`, then `phase_cycles` and the monitors.
    Cycle,
    /// `set_own_ncp(ncp)` where given, a nap, then the monitors.
    SetNcp {
        ncp: Vec<Option<u32>>,
        naps: Vec<Nap>,
    },
}

/// How a rank gets ahead of the engine clock before it reads monitors.
#[derive(Clone, Copy, Debug)]
enum Nap {
    None,
    For(u64),
    /// Until this many ns past the next whole second: the monitors then
    /// sample a second boundary the other ranks have yet to reach.
    PastNextSecond(u64),
    /// Until this absolute time, if not past it yet. Drawn inside the first
    /// network latency: a rank there reads remote monitors (which sample
    /// t = 0) ahead of ranks that have yet to run their t = 0 step.
    Until(u64),
}

#[derive(Clone, Debug)]
struct Case {
    speeds: Vec<f64>,
    net: NetParams,
    script: LoadScript,
    /// Ranks including scripted arrivals.
    n: usize,
    /// `Some` when a crash or partition may eat messages: every receive
    /// from another rank then carries this timeout instead of blocking.
    loss_timeout: Option<SimDur>,
    steps: Vec<Step>,
}

/// What one rank observed: `all` must agree across engine modes.
#[derive(Clone, Debug, Default, PartialEq)]
struct Log {
    all: Vec<u64>,
    exact_hits: usize,
    exact_misses: usize,
}

fn gen_case(seed: u64) -> Case {
    let rng = &mut Rng::new(seed);
    let seed_nodes = rng.range_usize(2, 6);
    let speeds: Vec<f64> = (0..seed_nodes).map(|_| rng.range_f64(3e5, 3e6)).collect();
    let mut net = NetParams::default();
    net.latency = match rng.range_u32(0, 10) {
        0 => SimDur::ZERO, // no lookahead: the fast engine must not run ahead
        1..=3 => SimDur::from_micros(37),
        _ => net.latency,
    };
    let zero_latency = net.latency == SimDur::ZERO;
    if zero_latency || rng.chance(0.4) {
        // Free sends: `sent` is then exactly the time the sender planned,
        // which lets a `Timed` step aim its deadline at the arrival — and,
        // without latency, lets a zero-byte message arrive the instant it
        // was sent.
        net.send_cpu_base = 0.0;
        net.send_cpu_per_byte = 0.0;
    }
    let mut script = LoadScript::dedicated();
    let mut n = seed_nodes;
    if rng.chance(0.3) {
        script = script.node_arrival(
            SimTime::from_millis(rng.range_u64(0, 1500)),
            NodeSpec::with_speed(rng.range_f64(3e5, 3e6)),
            SimDur::from_millis(rng.range_u64(0, 800)),
        );
        n += 1;
    }
    for node in 0..n {
        for _ in 0..rng.range_u32(0, 3) {
            let at = SimTime::from_micros(rng.range_u64(0, 3_000_000));
            script = script.at_time(node, at, rng.range_u32(0, 4));
        }
        for _ in 0..rng.range_u32(0, 3) {
            script = script.at_cycle(node, rng.range_u64(1, 4), rng.range_u32(0, 4));
        }
    }
    let mut lossy = false;
    let crash = rng.chance(0.3).then(|| rng.range_usize(0, n));
    if let Some(victim) = crash {
        let at = SimTime::from_micros(rng.range_u64(1_000, 2_500_000));
        script = script.node_crash(at, victim);
        lossy = true;
    }
    if rng.chance(0.2) {
        let node = rng.range_usize(0, n);
        if crash != Some(node) {
            let at = SimTime::from_micros(rng.range_u64(1_000, 2_500_000));
            script = script.node_partition(at, node);
            lossy = true;
        }
    }
    let loss_timeout = lossy.then(|| SimDur::from_micros(rng.range_u64(2_000, 80_000)));

    // Message sizes: small, with the odd frame big enough that a later
    // small one overtakes it, and (without latency) often empty.
    let size = |r: &mut Rng| match r.range_u32(0, 8) {
        0 => r.range_usize(5_000, 40_000),
        1..=4 if zero_latency => 0,
        _ => r.range_usize(0, 1_500),
    };
    let load = |r: &mut Rng| r.chance(0.4).then(|| r.range_u32(0, 4));
    let nap = |r: &mut Rng| match r.range_u32(0, 5) {
        0 => Nap::None,
        1 => Nap::For(r.range_u64(200_000_000, 1_200_000_000)),
        2 => Nap::Until(r.range_u64(0, net.latency.0.max(1))),
        _ => Nap::PastNextSecond(r.range_u64(0, 3_000_000)),
    };
    let work = |r: &mut Rng| match r.range_u32(0, 8) {
        0 => 0.0,
        1 => r.range_f64(1e5, 4e5), // many scheduler slices
        _ => r.range_f64(1e2, 4e4),
    };
    let nsteps = rng.range_usize(8, 25);
    let steps = (0..nsteps)
        .map(|_| match rng.range_u32(0, 20) {
            0..=2 => Step::Compute(rng.vec(n, work)),
            3 => Step::Sleep(rng.vec(n, |r| match r.range_u32(0, 6) {
                0 => 0,
                1 => r.range_u64(200_000_000, 1_200_000_000),
                _ => r.range_u64(1, 5_000_000),
            })),
            4..=7 => Step::Shift {
                dist: rng.range_usize(1, n),
                bytes: rng.vec(n, size),
                // Around one message flight, so the probe goes both ways.
                work: rng.vec(n, |r| r.range_f64(0.0, 600.0)),
            },
            8 => Step::SelfSend {
                bytes: rng.range_usize(400, 40_000),
                slack: [-1, 0, 0, 2_000][rng.range_usize(0, 4)],
            },
            9 => Step::FanIn {
                root: rng.range_usize(0, n),
                bytes: rng.vec(n, size),
            },
            10 | 11 => Step::Scatter {
                root: rng.range_usize(0, n),
                bytes: size(rng),
            },
            12 | 13 => {
                let a = rng.range_usize(0, n);
                Step::Timed {
                    a,
                    b: (a + rng.range_usize(1, n)) % n,
                    lead: rng.range_u64(100_000, 60_000_000),
                    delta: [-1, 0, 0, 1, 40_000, -40_000][rng.range_usize(0, 6)],
                    bytes: rng.range_usize(0, 2000),
                }
            }
            14 => Step::Align {
                lead: rng.range_u64(1_000_000, 80_000_000),
                ncp: rng.vec(n, load),
                cycle: rng.vec(n, |r| r.chance(0.5)),
            },
            15 => Step::Clocks,
            16 | 17 => Step::Monitors(rng.vec(n, nap)),
            18 => Step::Cycle,
            _ => Step::SetNcp {
                ncp: rng.vec(n, load),
                naps: rng.vec(n, nap),
            },
        })
        .collect();
    Case {
        speeds,
        net,
        script,
        n,
        loss_timeout,
        steps,
    }
}

/// Receives from `src` (or anyone) the way the case's loss policy demands
/// and logs what came back.
fn recv_logged(
    ctx: &SimCtx,
    case: &Case,
    src: Option<usize>,
    tag: u64,
    log: &mut Log,
) -> Option<Vec<u8>> {
    let got = match (case.loss_timeout, src) {
        (Some(t), _) => ctx.recv_timeout(src, tag, t).ok(),
        (None, Some(s)) => Some((s, ctx.recv(s, tag))),
        (None, None) => Some(ctx.recv_any(tag)),
    };
    match got {
        Some((s, m)) => {
            log.all.extend([
                s as u64,
                m.len() as u64,
                ctx.now().0,
                ctx.cpu_time_exact().0,
            ]);
            Some(m)
        }
        None => {
            log.all.extend([TIMED_OUT, ctx.now().0]);
            None
        }
    }
}

fn sleep_until(ctx: &SimCtx, at: u64) {
    ctx.sleep(SimDur(at.saturating_sub(ctx.now().0)));
}

fn take_nap(ctx: &SimCtx, nap: Nap) {
    match nap {
        Nap::None => {}
        Nap::For(ns) => ctx.sleep(SimDur(ns)),
        Nap::PastNextSecond(ns) => {
            let second = ctx.now().0 / 1_000_000_000 + 1;
            sleep_until(ctx, second * 1_000_000_000 + ns);
        }
        Nap::Until(at) => sleep_until(ctx, at),
    }
}

/// Logs `dmpi_ps` / `vmstat` / `true_ncp` / `node_online` of every node.
/// The first remote read is the one that has to catch up with the rank's
/// local clock, so `first` rotates which read that is.
fn read_monitors(ctx: &SimCtx, first: usize, log: &mut Log) {
    let n = ctx.nprocs();
    for i in 0..3 * n {
        let (node, what) = ((first + i) % (3 * n) / 3, (first + i) % 3);
        log.all.push(u64::from(match what {
            0 => ctx.dmpi_ps(node),
            1 => ctx.vmstat(node),
            _ => ctx.true_ncp(node),
        }));
        log.all.push(ctx.node_online(node) as u64);
    }
}

fn run_rank(ctx: &SimCtx, case: &Case) -> Log {
    let (r, n) = (ctx.rank(), ctx.nprocs());
    let mut log = Log::default();
    for (k, step) in case.steps.iter().enumerate() {
        // Two tags per step, so a message a timed-out receive left behind
        // can never match a later step.
        let tag = 2 * k as u64;
        match step {
            Step::Compute(work) => ctx.advance(work[r]),
            Step::Sleep(ns) => ctx.sleep(SimDur(ns[r])),
            Step::Shift { dist, bytes, work } => {
                let src = (r + n - dist) % n;
                ctx.send((r + dist) % n, tag, vec![r as u8; bytes[r]]);
                ctx.advance(work[r]);
                log.all.push(ctx.probe(Some(src), tag) as u64);
                log.all.push(ctx.probe(None, tag) as u64);
                recv_logged(ctx, case, Some(src), tag, &mut log);
            }
            Step::SelfSend { bytes, slack } => {
                ctx.send(r, tag, vec![k as u8; *bytes]);
                let copy = SimDur::from_secs_f64(*bytes as f64 / case.net.self_bandwidth);
                let timeout = SimDur((copy.0 as i64 + slack) as u64);
                match ctx.recv_timeout(Some(r), tag, timeout) {
                    Ok((_, m)) => log.all.extend([m.len() as u64, ctx.now().0]),
                    Err(_) => {
                        log.all.extend([TIMED_OUT, ctx.now().0]);
                        log.all.push(ctx.recv(r, tag).len() as u64);
                    }
                }
            }
            Step::FanIn { root, bytes } => {
                if r == *root {
                    for _ in 1..n {
                        if recv_logged(ctx, case, None, tag, &mut log).is_none() {
                            break;
                        }
                    }
                } else {
                    ctx.send(*root, tag, vec![r as u8; bytes[r]]);
                }
            }
            Step::Scatter { root, bytes } => {
                if r == *root {
                    for t in [tag, tag + 1] {
                        for dst in (0..n).filter(|d| d != root) {
                            ctx.send(dst, t, vec![t as u8; *bytes]);
                        }
                    }
                } else {
                    recv_logged(ctx, case, Some(*root), tag, &mut log);
                    recv_logged(ctx, case, Some(*root), tag + 1, &mut log);
                }
            }
            Step::Timed {
                a,
                b,
                lead,
                delta,
                bytes,
            } => {
                if r == *a {
                    let at = ctx.now().0 + lead;
                    ctx.send(*b, tag, at.to_le_bytes().to_vec());
                    sleep_until(ctx, at);
                    ctx.send(*b, tag + 1, vec![7; *bytes]);
                } else if r == *b {
                    if let Some(m) = recv_logged(ctx, case, Some(*a), tag, &mut log) {
                        let at = u64::from_le_bytes(m.try_into().expect("8-byte announcement"));
                        let arrival = at + Network::isolated_cost(&case.net, *bytes).0;
                        let entry = ctx.now().0;
                        let timeout = (arrival as i64 + delta).saturating_sub(entry as i64).max(0);
                        let got = ctx.recv_timeout(Some(*a), tag + 1, SimDur(timeout as u64));
                        log.all.extend([got.is_ok() as u64, ctx.now().0]);
                        // With free sends and idle NICs the prediction is
                        // exact: count the deadline == arrival cases that
                        // really happened, on both sides of the edge.
                        let aimed = case.net.send_cpu_base == 0.0 && timeout > 0;
                        log.exact_hits += (aimed && *delta == 0 && got.is_ok()) as usize;
                        log.exact_misses += (aimed && *delta == -1 && got.is_err()) as usize;
                    }
                }
            }
            Step::Align { lead, ncp, cycle } => {
                let at = if r == 0 {
                    let at = ctx.now().0 + lead;
                    for dst in 1..n {
                        ctx.send(dst, tag, at.to_le_bytes().to_vec());
                    }
                    Some(at)
                } else {
                    recv_logged(ctx, case, Some(0), tag, &mut log)
                        .map(|m| u64::from_le_bytes(m.try_into().expect("8-byte announcement")))
                };
                if let Some(at) = at {
                    sleep_until(ctx, at);
                    if let Some(ncp) = ncp[r] {
                        ctx.set_own_ncp(ncp);
                    }
                    if cycle[r] {
                        ctx.phase_cycle_completed();
                    }
                    read_monitors(ctx, 5 * k + r, &mut log);
                }
            }
            Step::Clocks => {
                log.all
                    .extend([ctx.cpu_time_reading().0, ctx.cpu_time_exact().0]);
            }
            Step::Monitors(naps) => {
                take_nap(ctx, naps[r]);
                read_monitors(ctx, 5 * k + r, &mut log);
            }
            Step::Cycle => {
                ctx.phase_cycle_completed();
                log.all.push(ctx.phase_cycles());
                read_monitors(ctx, 5 * k + r, &mut log);
            }
            Step::SetNcp { ncp, naps } => {
                if let Some(ncp) = ncp[r] {
                    ctx.set_own_ncp(ncp);
                }
                take_nap(ctx, naps[r]);
                read_monitors(ctx, 5 * k + r, &mut log);
            }
        }
        log.all.push(ctx.now().0);
    }
    log
}

struct Run {
    logs: Vec<Log>,
    report: SimReport,
}

fn run(case: &Case, stepped: bool, recorder: Option<Recorder>) -> Run {
    let mut cluster = Cluster::heterogeneous(
        case.speeds
            .iter()
            .map(|&s| NodeSpec::with_speed(s))
            .collect(),
    )
    .with_net(case.net)
    .with_script(case.script.clone())
    .with_stepped(stepped);
    if let Some(rec) = recorder {
        cluster = cluster.with_recorder(rec);
    }
    let out = cluster.run_spmd(|ctx| run_rank(ctx, case));
    assert_eq!(out.results.len(), case.n);
    Run {
        logs: out.results,
        report: out.report.virtual_outputs(),
    }
}

fn recorded(case: &Case, stepped: bool) -> (Run, Arc<Vec<TraceEvent>>, HealthReport) {
    let rec = Recorder::new();
    let monitor = Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS));
    rec.subscribe(monitor.clone());
    let run = run(case, stepped, Some(rec.clone()));
    (run, rec.events(), monitor.report())
}

/// The stepped engine records one `sched` span per scheduler slice where
/// the fast one records one per advance; everything else — blocked spans,
/// send/recv/timeout/crash instants — must match event for event.
fn without_cpu_spans(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::Sched { .. }))
        .collect()
}

/// Checks one seed; returns how many exact deadline hits and 1 ns misses
/// its `Timed` steps produced.
fn check_case(seed: u64) -> (usize, usize) {
    let case = &gen_case(seed);
    let at = |what: &str| format!("{what} (case seed {seed:#x}): {case:#?}");
    let oracle = run(case, true, None);
    let fast = run(case, false, None);
    for (rank, (want, got)) in oracle.logs.iter().zip(&fast.logs).enumerate() {
        assert_eq!(
            want.all,
            got.all,
            "rank {rank} log diverged, {}",
            at("fast")
        );
    }
    assert_eq!(oracle.report, fast.report, "{}", at("SimReport diverged"));

    let (recorded_fast, fast_events, fast_health) = recorded(case, false);
    assert_eq!(
        oracle.logs,
        recorded_fast.logs,
        "{}",
        at("recording perturbed the run")
    );
    let (_, stepped_events, stepped_health) = recorded(case, true);
    assert_eq!(
        without_cpu_spans(&stepped_events),
        without_cpu_spans(&fast_events),
        "{}",
        at("events, stepped vs fast")
    );
    assert_eq!(
        stepped_health,
        fast_health,
        "{}",
        at("health, stepped vs fast")
    );
    assert_eq!(
        analyze(&stepped_events),
        analyze(&fast_events),
        "{}",
        at("profile, stepped vs fast")
    );
    let cpu_spans = |events: &[TraceEvent]| events.len() - without_cpu_spans(events).len();
    assert!(
        cpu_spans(&fast_events) <= cpu_spans(&stepped_events),
        "{}",
        at("fast recorded more sched spans than stepped")
    );

    (
        oracle.logs.iter().map(|l| l.exact_hits).sum(),
        oracle.logs.iter().map(|l| l.exact_misses).sum(),
    )
}

#[test]
fn random_programs_agree_across_engine_modes() {
    let (hits, misses) = (AtomicUsize::new(0), AtomicUsize::new(0));
    check_n("random_programs", SEEDS, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let (h, m) = with_watchdog(WATCHDOG_SECS, move || check_case(seed));
        hits.fetch_add(h, Ordering::Relaxed);
        misses.fetch_add(m, Ordering::Relaxed);
    });
    // The generator's claim, checked: receives whose deadline equals the
    // arrival (delivered) and misses it by 1 ns (timed out) both occur.
    let (hits, misses) = (hits.into_inner(), misses.into_inner());
    assert!(hits >= 5 && misses >= 5, "hits {hits}, misses {misses}");
}
