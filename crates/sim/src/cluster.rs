//! Cluster construction and SPMD execution.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::cpu::CpuSched;
use crate::ctx::{CrashedRank, SimCtx};
use crate::engine::{EngineState, NodeState, Shared, Status};
use crate::fiber::Fiber;
use crate::monitor::BlockHistory;
use crate::network::Network;
use crate::params::{NetParams, NodeSpec, OsParams};
use crate::report::{ProcReport, SimOutcome, SimReport};
use crate::script::{CrashKind, LoadScript};
use crate::time::SimTime;
use crate::timeline::NcpTimeline;

/// A virtual cluster: node specs, OS and network parameters, and the load
/// script. One application rank runs per node (the paper's model).
#[derive(Clone)]
pub struct Cluster {
    nodes: Vec<NodeSpec>,
    os: OsParams,
    net: NetParams,
    script: LoadScript,
    recorder: Option<dynmpi_obs::Recorder>,
    /// Runs the per-slice stepped CPU path instead of fast-forward.
    stepped: bool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes)
            .field("os", &self.os)
            .field("net", &self.net)
            .field("script", &self.script)
            .field("traced", &self.recorder.is_some())
            .finish()
    }
}

impl Cluster {
    /// `n` identical nodes.
    pub fn homogeneous(n: usize, spec: NodeSpec) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        Cluster {
            nodes: vec![spec; n],
            os: OsParams::default(),
            net: NetParams::default(),
            script: LoadScript::dedicated(),
            recorder: None,
            stepped: false,
        }
    }

    /// Explicit per-node specs (heterogeneous clusters).
    pub fn heterogeneous(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        Cluster {
            nodes,
            os: OsParams::default(),
            net: NetParams::default(),
            script: LoadScript::dedicated(),
            recorder: None,
            stepped: false,
        }
    }

    /// Overrides OS scheduler parameters.
    pub fn with_os(mut self, os: OsParams) -> Self {
        self.os = os;
        self
    }

    /// Overrides network parameters.
    pub fn with_net(mut self, net: NetParams) -> Self {
        self.net = net;
        self
    }

    /// Installs the competing-process schedule.
    pub fn with_script(mut self, script: LoadScript) -> Self {
        self.script = script;
        self
    }

    /// Attaches an observability recorder: every rank gets a tracing scope
    /// for the duration of [`run_spmd`](Self::run_spmd), so spans,
    /// instants, and metrics land in `recorder` stamped with virtual time.
    pub fn with_recorder(mut self, recorder: dynmpi_obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Selects the CPU advance mode: `true` runs the per-slice stepped
    /// reference path, `false` (the default) the closed-form
    /// fast-forward. Both modes produce bit-identical virtual timings; the
    /// stepped one is a test oracle, compared with the fast one once per
    /// layer: `SimCtx` operations in `tests/random_programs.rs`, runtime
    /// scenarios in the `dynmpi` crate's `tests/drive`.
    pub fn with_stepped(mut self, stepped: bool) -> Self {
        self.stepped = stepped;
        self
    }

    /// Does nothing: the engine has one shard. Kept only so the host-cost
    /// benchmark package keeps compiling unchanged — its `simulate`
    /// (`benchmark/src/workloads.rs`) passes `SimSpec::shards` here, which
    /// `ring_differentials` (`benchmark/src/probes.rs`) and the ring64
    /// cross-check set to 2. The next `[benchmark]` PR removes both callers
    /// and this shim.
    #[doc(hidden)]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Number of seed nodes (= seed ranks). Scripted arrivals allocate
    /// additional ranks beyond this at [`run_spmd`](Self::run_spmd) time.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Node specs.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Builds the initial per-node engine state.
    fn build_nodes(&self, n: usize, seed: usize) -> Vec<NodeState> {
        let arrivals = self.script.arrivals();
        (0..n)
            .map(|i| {
                let mut timeline = NcpTimeline::new();
                let (times, cycles) = self.script.split_for_node(i);
                for (t, ncp) in times {
                    timeline.set(t, ncp);
                }
                let (spec, online_at) = if i < seed {
                    (self.nodes[i], SimTime::ZERO)
                } else {
                    let a = &arrivals[i - seed];
                    (a.spec, a.online_at())
                };
                let mut sched = CpuSched::new(spec, self.os);
                sched.set_salt(0x5eed_0000_0000_0000 ^ (i as u64).wrapping_mul(0x9e37_79b9));
                let crash = self.script.crash_of(i);
                NodeState {
                    sched,
                    timeline,
                    cycle_count: 0,
                    cycle_events: cycles,
                    blocks: BlockHistory::new(),
                    online_at,
                    crash_at: crash.map(|c| c.at),
                    partitioned: crash.is_some_and(|c| c.kind == CrashKind::Partition),
                }
            })
            .collect()
    }

    fn build_net(&self, n: usize, seed: usize) -> Network {
        let mut net = Network::new(n, self.net);
        for (j, a) in self.script.arrivals().iter().enumerate() {
            if let Some(bw) = a.nic_bandwidth {
                net.set_nic_bandwidth(seed + j, bw);
            }
        }
        net
    }

    /// Runs `f` as an SPMD program: one invocation per rank, each on its
    /// own node, all in the same virtual time. Returns every rank's result
    /// plus the run report. Deterministic: same inputs → same virtual
    /// timings, bit for bit.
    ///
    /// Every rank is a fiber with a 2 MiB stack on the calling thread, so
    /// all of them see the caller's thread-locals. A tracing scope the
    /// caller holds is set aside for the run and kept: its events stay in
    /// its own recorder, the ranks' go to the run's.
    ///
    /// Panics (with the original payload) if any rank panics. A rank
    /// killed by a scripted fail-stop crash is *not* a panic: its result
    /// slot is filled with `R::default()` (which is why `R: Default`) and
    /// its [`ProcReport::crashed`] flag is set.
    pub fn run_spmd<R, F>(&self, f: F) -> SimOutcome<R>
    where
        R: Send + Default,
        F: Fn(&SimCtx) -> R + Send + Sync,
    {
        let seed = self.nodes.len();
        // Scripted arrivals get the ranks after the seed nodes, in script
        // order. Their fibers exist from t = 0 (the engine needs every
        // rank's events) but their monitors read offline until
        // `online_at`; the runtime keeps them out of the compute group
        // until it admits them.
        let n = seed + self.script.arrivals().len();
        let events = self.script.events().iter().map(|e| e.node);
        for node in events.chain(self.script.crashes().iter().map(|c| c.node)) {
            assert!(
                node < n,
                "load script names node {node}, but the cluster has {n} ranks \
                 ({seed} seed + {} arrivals)",
                n - seed
            );
        }
        let mut state = EngineState::new(
            self.build_nodes(n, seed),
            &Vec::from_iter(0..n),
            self.build_net(n, seed),
        );
        state.stepped = self.stepped;
        let shared = Rc::new(Shared::new(state));
        // Kick off: hand the turn to the earliest initial event.
        shared.state.borrow_mut().dispatch_next();

        // One rank's whole life on its fiber: wait for the first turn, run
        // the program, retire. Every unwind — the program's, a scripted
        // crash, a poisoned wait — comes back as a value.
        let run_rank = |pid: usize| -> std::thread::Result<R> {
            // Guard dropped (and buffers flushed) after the rank finishes
            // or unwinds.
            let _obs = self.recorder.clone().map(|r| r.install(pid));
            let ctx = SimCtx::new(Rc::clone(&shared), pid, n);
            let out = catch_unwind(AssertUnwindSafe(|| {
                drop(shared.wait_turn(pid));
                f(&ctx)
            }));
            match out {
                Ok(v) => {
                    ctx.finish();
                    Ok(v)
                }
                // A scripted fail-stop death: the engine already retired
                // the rank (no `finish()`); the run continues with the
                // survivors.
                Err(e) if e.downcast_ref::<CrashedRank>().is_some() => Ok(R::default()),
                Err(e) => {
                    // Poison the engine so the whole run unwinds promptly.
                    shared.poison(pid, format!("rank {pid} panicked inside the simulation"));
                    Err(e)
                }
            }
        };
        let mut joined: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        {
            let _caller_scope = dynmpi_obs::detach_scope();
            let run_rank = &run_rank;
            let mut fibers: Vec<_> = joined
                .iter_mut()
                .enumerate()
                .map(|(pid, slot)| Fiber::new(move || *slot = Some(run_rank(pid))))
                .collect();
            // Resume whichever rank holds the turn. A drained run leaves no
            // owner; so does a failed one (poison, deadlock), after which
            // every unfinished rank is resumed until it has unwound.
            loop {
                let next = shared.state.borrow().current;
                let Some(pid) = next else { break };
                fibers[pid].resume();
            }
            for fiber in &mut fibers {
                while !fiber.is_finished() {
                    fiber.resume();
                }
            }
        }
        let joined: Vec<std::thread::Result<R>> = joined
            .into_iter()
            .map(|r| r.expect("every rank's fiber ran to completion"))
            .collect();

        if joined.iter().any(|r| r.is_err()) {
            // Re-raise the payload of the rank that poisoned the run (the
            // root cause); secondary unwinds from other ranks are noise.
            let origin = shared.state.borrow().panic_origin;
            let mut errs: Vec<(usize, Box<dyn std::any::Any + Send>)> = joined
                .into_iter()
                .enumerate()
                .filter_map(|(i, r)| r.err().map(|e| (i, e)))
                .collect();
            if let Some(o) = origin {
                if let Some(pos) = errs.iter().position(|(i, _)| *i == o) {
                    resume_unwind(errs.swap_remove(pos).1);
                }
            }
            resume_unwind(errs.swap_remove(0).1);
        }
        let results: Vec<R> = joined.into_iter().map(|r| r.unwrap()).collect();

        let st = shared.state.borrow();
        let report = SimReport {
            finish_time: st
                .procs
                .iter()
                .map(|p| p.finish_time)
                .max()
                .unwrap_or_default(),
            procs: st
                .procs
                .iter()
                .map(|p| ProcReport {
                    node: p.node,
                    cpu_time: p.cpu_time,
                    finish_time: p.finish_time,
                    msgs_sent: p.msgs_sent,
                    msgs_recvd: p.msgs_recvd,
                    bytes_sent: p.bytes_sent,
                    bytes_recvd: p.bytes_recvd,
                    blocked_fraction: st.nodes[p.node]
                        .blocks
                        .blocked_fraction(SimTime::ZERO, p.finish_time),
                    crashed: matches!(p.status, Status::Crashed),
                })
                .collect(),
            net_messages: st.net.message_count(),
            net_bytes: st.net.byte_count(),
            engine_events: st.events_pushed,
            stale_events: st.events_stale,
            turn_bypasses: st.bypasses,
            hand_offs: st.hand_offs,
        };
        SimOutcome { results, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDur, SimTime};

    #[test]
    fn single_rank_compute_advances_virtual_time() {
        let c = Cluster::homogeneous(1, NodeSpec::with_speed(1e6));
        let out = c.run_spmd(|ctx| {
            ctx.advance(2e6); // 2 s of work
            ctx.now()
        });
        assert_eq!(out.results[0], SimTime::from_secs(2));
        assert_eq!(out.report.finish_time, SimTime::from_secs(2));
        assert_eq!(out.report.procs[0].cpu_time, SimDur::from_secs(2));
    }

    #[test]
    fn ranks_progress_concurrently_in_virtual_time() {
        let c = Cluster::homogeneous(4, NodeSpec::with_speed(1e6));
        let out = c.run_spmd(|ctx| {
            ctx.advance(1e6);
            ctx.now()
        });
        // All ranks compute in parallel: everyone finishes at t = 1 s.
        for t in &out.results {
            assert_eq!(*t, SimTime::from_secs(1));
        }
    }

    #[test]
    fn ping_pong_timing() {
        let c = Cluster::homogeneous(2, NodeSpec::default());
        let out = c.run_spmd(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1u8; 1000]);
                ctx.recv(1, 8)
            } else {
                let m = ctx.recv(0, 7);
                ctx.send(0, 8, m.clone());
                m
            }
        });
        assert_eq!(out.results[0], vec![1u8; 1000]);
        assert_eq!(out.report.net_messages, 2);
        assert_eq!(out.report.net_bytes, 2000);
        // Round trip ≥ 2 × (latency + serialization).
        assert!(out.report.finish_time > SimTime::from_micros(200));
    }

    #[test]
    fn message_order_preserved_per_pair() {
        let c = Cluster::homogeneous(2, NodeSpec::default());
        let out = c.run_spmd(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..10u8 {
                    ctx.send(1, 1, vec![i]);
                }
                vec![]
            } else {
                (0..10).map(|_| ctx.recv(0, 1)[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(out.results[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn tags_demultiplex() {
        let c = Cluster::homogeneous(2, NodeSpec::default());
        let out = c.run_spmd(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 10, vec![10]);
                ctx.send(1, 20, vec![20]);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = ctx.recv(0, 20)[0];
                let a = ctx.recv(0, 10)[0];
                (u32::from(a) << 8) | u32::from(b)
            }
        });
        assert_eq!(out.results[1], (10 << 8) | 20);
    }

    #[test]
    fn recv_any_reports_source() {
        let c = Cluster::homogeneous(3, NodeSpec::default());
        let out = c.run_spmd(|ctx| {
            if ctx.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (src, msg) = ctx.recv_any(5);
                    seen.push((src, msg[0]));
                }
                seen.sort_unstable();
                seen
            } else {
                ctx.send(0, 5, vec![ctx.rank() as u8]);
                vec![]
            }
        });
        assert_eq!(out.results[0], vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let script = LoadScript::dedicated().at_time(1, SimTime::from_millis(50), 2);
            let c = Cluster::homogeneous(4, NodeSpec::with_speed(1e7)).with_script(script);
            let out = c.run_spmd(|ctx| {
                let r = ctx.rank();
                let n = ctx.nprocs();
                for _ in 0..20 {
                    ctx.advance(5e4);
                    // Ring exchange.
                    let next = (r + 1) % n;
                    let prev = (r + n - 1) % n;
                    ctx.send(next, 1, vec![r as u8; 64]);
                    let _ = ctx.recv(prev, 1);
                }
                ctx.now()
            });
            (out.results, out.report.finish_time)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn competing_process_slows_only_its_node() {
        let mk = |loaded: bool| {
            let mut script = LoadScript::dedicated();
            if loaded {
                script = script.at_time(0, SimTime::ZERO, 1);
            }
            let c = Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script);
            let out = c.run_spmd(|ctx| {
                ctx.advance(1e6);
                ctx.now().as_secs_f64()
            });
            out.results
        };
        let ded = mk(false);
        let loaded = mk(true);
        assert!((ded[0] - 1.0).abs() < 0.02);
        assert!(
            (loaded[0] - 2.0).abs() < 0.02,
            "loaded rank 0: {}",
            loaded[0]
        );
        assert!(
            (loaded[1] - 1.0).abs() < 0.02,
            "unloaded rank 1: {}",
            loaded[1]
        );
    }

    #[test]
    fn cycle_triggered_load_fires_after_kth_cycle() {
        let script = LoadScript::dedicated().at_cycle(0, 3, 2);
        let c = Cluster::homogeneous(1, NodeSpec::with_speed(1e6)).with_script(script);
        let out = c.run_spmd(|ctx| {
            let mut ncps = vec![];
            for _ in 0..5 {
                ctx.advance(1e4);
                ctx.phase_cycle_completed();
                ncps.push(ctx.true_ncp(0));
            }
            ncps
        });
        assert_eq!(out.results[0], vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn monitors_visible_from_other_ranks() {
        let script = LoadScript::dedicated().at_time(1, SimTime::ZERO, 3);
        let c = Cluster::homogeneous(2, NodeSpec::default()).with_script(script);
        let out = c.run_spmd(|ctx| {
            ctx.sleep(SimDur::from_secs(2));
            (ctx.dmpi_ps(0), ctx.dmpi_ps(1))
        });
        assert_eq!(out.results[0], (1, 4));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics_with_diagnosis() {
        let c = Cluster::homogeneous(2, NodeSpec::default());
        let _ = c.run_spmd(|ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.recv(1, 99); // never sent
            }
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        let c = Cluster::homogeneous(2, NodeSpec::default());
        let _ = c.run_spmd(|ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 blocks forever; the poison must still unwind it.
            let _ = ctx.recv(1, 1);
        });
    }

    #[test]
    fn arrival_allocates_extra_rank_offline_until_cold_start_ends() {
        let script = LoadScript::dedicated().node_arrival(
            SimTime::from_secs(1),
            NodeSpec::with_speed(2e6),
            SimDur::from_millis(500),
        );
        let c = Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script);
        let out = c.run_spmd(|ctx| {
            assert_eq!(ctx.nprocs(), 3);
            assert_eq!(ctx.online_at(2), SimTime::from_millis(1500));
            // Before the cold start completes: no daemon on node 2.
            let before = (ctx.node_online(2), ctx.dmpi_ps(2));
            ctx.sleep(SimDur::from_secs(2));
            let after = ctx.node_online(2);
            // The arrival's own hardware spec is live: 1e6 work takes
            // 0.5 s at 2e6 flops/s vs 1 s on the seed nodes.
            let t0 = ctx.now();
            ctx.advance(1e6);
            let elapsed = (ctx.now() - t0).as_secs_f64();
            (before, after, elapsed)
        });
        for (rank, &(before, after, elapsed)) in out.results.iter().enumerate() {
            assert_eq!(before, (false, 0), "rank {rank}");
            assert!(after, "rank {rank}");
            let want = if rank == 2 { 0.5 } else { 1.0 };
            assert!(
                (elapsed - want).abs() < 0.02,
                "rank {rank} elapsed {elapsed}"
            );
        }
    }

    #[test]
    fn arrival_nic_bandwidth_applies_to_new_rank_only() {
        let script = LoadScript::dedicated().node_arrival_with_nic(
            SimTime::ZERO,
            NodeSpec::default(),
            SimDur::ZERO,
            6.25e6, // half the default 12.5 MB/s
        );
        let c = Cluster::homogeneous(2, NodeSpec::default()).with_script(script);
        let out = c.run_spmd(|ctx| match ctx.rank() {
            0 => {
                ctx.send(1, 1, vec![0u8; 125_000]);
                ctx.send(2, 2, vec![0u8; 125_000]);
                SimTime::ZERO
            }
            1 => {
                ctx.recv(0, 1);
                ctx.now()
            }
            _ => {
                ctx.recv(0, 2);
                ctx.now()
            }
        });
        // Seed→seed keeps the historical timing; the slow NIC only
        // stretches the RX serialization on the arriving node.
        assert!(out.results[1] < out.results[2]);
    }

    #[test]
    fn failstop_crash_kills_rank_and_silences_monitors() {
        let script = LoadScript::dedicated().node_crash(SimTime::from_secs(1), 1);
        let c = Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script);
        let out = c.run_spmd(|ctx| {
            if ctx.rank() == 1 {
                // Would run 10 s; dies at the t = 1 s op boundary.
                for _ in 0..100 {
                    ctx.advance(1e5);
                }
                return (99, 99);
            }
            ctx.sleep(SimDur::from_secs(3));
            // Dead node: daemon silent, receive times out instead of hanging.
            let ps = ctx.dmpi_ps(1);
            let to = ctx.recv_timeout(Some(1), 7, SimDur::from_secs(1));
            assert_eq!(
                to,
                Err(crate::RecvTimeout {
                    src: Some(1),
                    tag: 7
                })
            );
            (ps, 1)
        });
        assert_eq!(out.results[0], (0, 1));
        assert_eq!(out.results[1], (0, 0), "crashed rank yields the default");
        assert!(out.report.procs[1].crashed);
        assert!(!out.report.procs[0].crashed);
        assert_eq!(out.report.procs[1].finish_time, SimTime::from_secs(1));
        // Survivor finished at 3 s sleep + 1 s timeout (+ ε): makespan ≈ 4 s.
        assert!(out.report.finish_time >= SimTime::from_secs(4));
    }

    #[test]
    fn recv_timeout_delivers_when_message_beats_deadline() {
        let c = Cluster::homogeneous(2, NodeSpec::default());
        let out = c.run_spmd(|ctx| {
            if ctx.rank() == 0 {
                ctx.sleep(SimDur::from_millis(5));
                ctx.send(1, 3, vec![42]);
                0
            } else {
                let (src, m) = ctx
                    .recv_timeout(None, 3, SimDur::from_secs(1))
                    .expect("message in flight beats the deadline");
                assert_eq!((src, m[0]), (0, 42));
                1
            }
        });
        assert_eq!(out.results, vec![0, 1]);
    }

    #[test]
    fn partitioned_node_keeps_running_but_drops_traffic() {
        let script = LoadScript::dedicated().node_partition(SimTime::from_millis(100), 1);
        let c = Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script);
        let out = c.run_spmd(|ctx| {
            if ctx.rank() == 1 {
                ctx.sleep(SimDur::from_secs(1));
                // Past the partition: local execution continues, sends are
                // dropped on the NIC.
                ctx.send(0, 5, vec![1]);
                ctx.advance(1e6);
                (0, ctx.now().as_secs_f64() as u64)
            } else {
                ctx.sleep(SimDur::from_secs(2));
                let ps = ctx.dmpi_ps(1);
                let got = ctx.recv_timeout(Some(1), 5, SimDur::from_secs(1));
                assert!(got.is_err(), "partitioned traffic must be dropped");
                (ps, 0)
            }
        });
        // Partitioned rank ran to completion (sleep 1 s + 1 s of work).
        assert_eq!(out.results[1].1, 2);
        assert!(!out.report.procs[1].crashed);
        // Remote monitor reads of the partitioned node are silent.
        assert_eq!(out.results[0].0, 0);
    }

    /// The replay contract holds through a crash: same results and
    /// virtual-time report in both CPU advance modes.
    #[test]
    fn crash_is_bit_identical_across_modes() {
        let run = |stepped: bool| {
            let script = LoadScript::dedicated()
                .at_time(2, SimTime::from_millis(40), 1)
                .node_crash(SimTime::from_millis(70), 1);
            let c = Cluster::homogeneous(4, NodeSpec::with_speed(1e7))
                .with_script(script)
                .with_stepped(stepped);
            let out = c.run_spmd(|ctx| {
                let r = ctx.rank();
                let n = ctx.nprocs();
                let mut acc = 0u64;
                for i in 0..12 {
                    ctx.advance(5e4);
                    // All-to-root heartbeats with timeouts: survivors keep
                    // making progress once rank 1's node dies.
                    if r == 0 {
                        for p in 1..n {
                            if let Ok((src, m)) =
                                ctx.recv_timeout(Some(p), 2, SimDur::from_millis(40))
                            {
                                acc += src as u64 + u64::from(m[0]);
                            }
                        }
                    } else {
                        ctx.send(0, 2, vec![i as u8]);
                    }
                    acc += u64::from(ctx.dmpi_ps((r + 1) % n));
                }
                (ctx.now(), ctx.cpu_time_exact(), acc)
            });
            (out.results, out.report.virtual_outputs())
        };
        assert_eq!(
            run(false),
            run(true),
            "stepped mode diverged through a crash"
        );
    }

    /// A load change aimed at a node the cluster does not have would
    /// otherwise run as if the cluster were dedicated.
    #[test]
    #[should_panic(
        expected = "load script names node 5, but the cluster has 5 ranks (4 seed + 1 arrivals)"
    )]
    fn load_on_a_missing_node_panics() {
        let script = LoadScript::dedicated()
            .node_arrival(SimTime::ZERO, NodeSpec::default(), SimDur::ZERO)
            .at_time(4, SimTime::ZERO, 1)
            .at_time(5, SimTime::ZERO, 3);
        let c = Cluster::homogeneous(4, NodeSpec::default()).with_script(script);
        let _ = c.run_spmd(|ctx| ctx.rank());
    }

    /// Likewise a crash of a node the cluster does not have.
    #[test]
    #[should_panic(expected = "load script names node 9, but the cluster has 4 ranks")]
    fn crash_of_a_missing_node_panics() {
        let script = LoadScript::dedicated().node_crash(SimTime::from_millis(1), 9);
        let c = Cluster::homogeneous(4, NodeSpec::default()).with_script(script);
        let _ = c.run_spmd(|ctx| ctx.rank());
    }

    #[test]
    fn proc_reading_is_quantized() {
        let c = Cluster::homogeneous(1, NodeSpec::with_speed(1e6));
        let out = c.run_spmd(|ctx| {
            ctx.advance(37_000.0); // 37 ms of CPU
            (ctx.cpu_time_exact(), ctx.cpu_time_reading())
        });
        let (exact, reading) = out.results[0];
        assert!((exact.as_millis_f64() - 37.0).abs() < 0.1);
        assert_eq!(reading, SimDur::from_millis(30));
    }
}
