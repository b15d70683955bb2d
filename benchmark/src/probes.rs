//! The `probes` child process: micro-probes of single public functions and
//! differential runs (one workload's inputs with one thing changed), each
//! under its own root span. This is the outside-in layer split: nothing
//! here reaches past a crate's public interface.
//!
//! Differential runs are one or two repetitions per arm, so their ratios
//! are estimates to read next to the exact counts, not gated numbers.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dynmpi::dist::Distribution;
use dynmpi::drsd::{AccessMode, ArrayAccess, Drsd};
use dynmpi::redist::TransferSchedule;
use dynmpi::{successive_balance, CommModel, DynMpiConfig, NodeLoad};
use dynmpi_comm::{CommOps, Group, SimTransport, Transport};
use dynmpi_obs::{
    analyze, export, EventSink, ExplainEngine, HealthMonitor, Json, Recorder, TraceEvent,
    DEFAULT_WINDOW_NS,
};
use dynmpi_sim::{
    Cluster, CpuSched, NcpTimeline, NetParams, Network, NodeSpec, OsParams, SimDur, SimTime,
};

use crate::host;
use crate::metrics::{values_to_json, Value, Values};
use crate::spans::{self, SpanLog};
use crate::stats::{median, quantile};
use crate::workloads::{simulate, Inputs, Program, SimOutput, SimSpec, Workload};

/// Seconds `f` took, under a root span named `name`.
fn timed<R>(spans: &mut SpanLog, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    spans.scope(name, |_| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    })
}

struct Probes {
    spans: SpanLog,
    values: Values,
    /// CPUs the process was allowed before it pinned itself, and the one
    /// it pinned to: unpinned arms widen to the former and return.
    all_cpus: Vec<usize>,
    pinned: Option<usize>,
}

impl Probes {
    fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), Value::Num(value));
    }

    fn sim(&mut self, name: &str, spec: &SimSpec, rec: Option<Recorder>) -> SimOutput {
        self.spans.scope(name, |_| simulate(spec, rec))
    }

    /// Runs `f` with the affinity widened to `cpus` CPUs (all allowed
    /// ones when `None`), then pins again. `None` when the host gives
    /// nothing to widen to: the metric is then unresolved.
    fn unpinned<R>(&mut self, cpus: Option<usize>, f: impl FnOnce(&mut Probes) -> R) -> Option<R> {
        let pinned = self.pinned?;
        let n = cpus.unwrap_or(self.all_cpus.len());
        if self.all_cpus.len() < 2 || self.all_cpus.len() < n {
            return None;
        }
        let wide = &self.all_cpus[self.all_cpus.len() - n..];
        if !host::set_affinity(wide) {
            return None;
        }
        let out = f(self);
        assert!(host::set_affinity(&[pinned]), "cannot pin again");
        Some(out)
    }

    /// The smaller wall time of two runs of `spec`, each with a recorder
    /// of its own from `recorder`. The `adapt8` ratios have acceptance
    /// bars, and a slow phase of the host only ever adds time: of a single
    /// run per arm, `obs.recorder_wall_ratio` once read 0.77.
    fn best_of_two(
        &mut self,
        name: &str,
        spec: &SimSpec,
        recorder: impl Fn() -> Option<Recorder>,
    ) -> f64 {
        (1..=2)
            .map(|k| self.sim(&format!("{name}.{k}"), spec, recorder()).wall_s)
            .fold(f64::INFINITY, f64::min)
    }

    fn put_ratio(&mut self, name: &str, num: Option<f64>, den: f64) {
        let value = match num {
            Some(n) if den > 0.0 => Value::Num(n / den),
            _ => Value::Unresolved,
        };
        self.values.insert(name.to_string(), value);
    }
}

fn sim_layer_probes(p: &mut Probes) {
    let cluster = Cluster::homogeneous(64, NodeSpec::default());
    let (walls, _) = timed(&mut p.spans, "probe.spawn_join", || {
        (0..10)
            .map(|_| {
                let start = Instant::now();
                black_box(cluster.run_spmd(|_ctx| ()));
                start.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    });
    p.put(
        "sim.engine.spawn_join_us_per_rank",
        median(&walls).unwrap_or(0.0) * 1e6 / 64.0,
    );

    // A 64-change load script; each call computes across all of it.
    let sched = CpuSched::new(NodeSpec::with_speed(1e6), OsParams::default());
    let mut timeline = NcpTimeline::new();
    for k in 0..64u64 {
        timeline.set(SimTime::from_millis(50 * (k + 1)), (k % 3 + 1) as u32);
    }
    const FF_CALLS: u64 = 20_000;
    let (_, secs) = timed(&mut p.spans, "probe.ff_script", || {
        for i in 0..FF_CALLS {
            black_box(sched.fast_forward_script(
                SimTime(i * 1_000),
                black_box(&timeline),
                SimDur::from_secs(2),
            ));
        }
    });
    p.put(
        "sim.cpu.ff_script_ns_per_call",
        secs * 1e9 / FF_CALLS as f64,
    );

    const NET_MSGS: usize = 1_000_000;
    let mut net = Network::new(64, NetParams::default());
    let (_, secs) = timed(&mut p.spans, "probe.net_model", || {
        for i in 0..NET_MSGS {
            let t = SimTime(i as u64 * 10_000);
            let d = net.tx_depart(i % 64, 512, t);
            black_box(net.rx_land((i * 7 + 1) % 64, 512, d.rx_ready, d.tx_end));
        }
    });
    p.put("sim.net.model_ns_per_msg", secs * 1e9 / NET_MSGS as f64);
}

/// Host microseconds per round of `op` over 8 simulated ranks.
fn comm_probe(p: &mut Probes, name: &str, op: impl Fn(&SimTransport, &Group) + Send + Sync) {
    const ROUNDS: usize = 50;
    let cluster = Cluster::homogeneous(8, NodeSpec::default());
    let (_, secs) = timed(&mut p.spans, &format!("probe.{name}"), || {
        cluster.run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let g = Group::world(t.rank(), t.size());
            for _ in 0..ROUNDS {
                op(&t, &g);
            }
        })
    });
    p.put(
        &format!("comm.probe.{name}_host_us"),
        secs * 1e6 / ROUNDS as f64,
    );
}

fn comm_layer_probes(p: &mut Probes) {
    const MIB_ELEMS: usize = (1 << 20) / 8;
    let words: Vec<u64> = (0..MIB_ELEMS as u64).collect();
    let reals = vec![1.0f64; MIB_ELEMS];
    let parts = vec![vec![1.0f64; 4096]; 8];
    comm_probe(p, "bcast_1mib", |t, g| {
        black_box(t.bcast(g, 0, (t.rank() == 0).then_some(&words[..])));
    });
    comm_probe(p, "allreduce_1mib", |t, g| {
        black_box(t.allreduce_sum_f64(g, &reals));
    });
    comm_probe(p, "allreduce_8b", |t, g| {
        black_box(t.allreduce_sum_f64(g, &[1.0]));
    });
    comm_probe(p, "alltoallv", |t, g| {
        black_box(t.alltoallv(g, &parts));
    });
}

fn core_layer_probes(p: &mut Probes) {
    let row_weights = vec![1.0f64; 512];
    let loads: Vec<NodeLoad> = (0..32)
        .map(|i| NodeLoad {
            ncp: u32::from(i % 8 == 3) * 2,
            speed: 1.0,
        })
        .collect();
    let comm = CommModel {
        blocking_recvs_per_cycle: 2.0,
        quantum: 0.010,
        wait_factor: 0.05,
    };
    const SOLVES: usize = 200;
    let (_, secs) = timed(&mut p.spans, "probe.balance_solve", || {
        for _ in 0..SOLVES {
            black_box(successive_balance(
                black_box(&row_weights),
                &loads,
                &comm,
                1,
            ));
        }
    });
    p.put("core.balance.solve_us_n32", secs * 1e6 / SOLVES as f64);

    // One node's share shrinks: every rank's schedule is rebuilt.
    let old = Distribution::block_even(512, 32);
    let mut counts = old.counts();
    counts[3] -= 8;
    counts[20] += 8;
    let new = Distribution::block_from_counts(&counts);
    let group = Group::new((0..32).collect(), 0);
    let accesses = [ArrayAccess {
        array: 0,
        mode: AccessMode::ReadWrite,
        drsd: Drsd::with_halo(1),
    }];
    const PLANS: usize = 20;
    let (_, secs) = timed(&mut p.spans, "probe.schedule_build", || {
        for _ in 0..PLANS {
            for me in 0..32 {
                black_box(TransferSchedule::build(
                    me, &group, &old, &group, &new, &accesses, 1,
                ));
            }
        }
    });
    p.put(
        "core.redist.schedule_build_us_n32",
        secs * 1e6 / PLANS as f64,
    );
}

fn ring_differentials(p: &mut Probes, seed: u64) {
    let spec = Inputs::generate(Workload::Ring64, seed).spec();
    let first = p.sim("diff.ring64.s1_warm", &spec, None);
    let base = p.sim("diff.ring64.s1", &spec, None);
    // A run's first cycle waits for all 64 threads to start: not a cycle.
    let cycles: Vec<u64> = [&first, &base]
        .iter()
        .flat_map(|o| o.cycle_host_ns.iter().skip(1).copied())
        .collect();
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        p.put(
            &format!("sim.engine.cycle_host_us_{name}"),
            quantile(&cycles, q).unwrap_or(0) as f64 / 1e3,
        );
    }
    let mut sharded = spec.clone();
    sharded.shards = 2;
    let pinned = p.sim("diff.ring64.s2_pinned", &sharded, None);
    p.put_ratio(
        "sim.shard.s2_pinned_wall_ratio",
        Some(pinned.wall_s),
        base.wall_s,
    );
    let wide = p.unpinned(Some(2), |p| {
        p.sim("diff.ring64.s2_two_cpus", &sharded, None)
    });
    p.put_ratio(
        "sim.shard.s2_wall_ratio",
        wide.map(|o| o.wall_s),
        base.wall_s,
    );
}

fn sor_differentials(p: &mut Probes, seed: u64) {
    let mut spec = Inputs::generate(Workload::SorDrop32, seed).spec();
    // The unpinned arm is about five times slower: halve both arms.
    if let Program::Sor(params) = &mut spec.program {
        params.iters /= 2;
    }
    let pinned = p.sim("diff.sor_drop32.pinned", &spec, None);
    let wide = p.unpinned(None, |p| p.sim("diff.sor_drop32.unpinned", &spec, None));
    p.put_ratio(
        "sim.engine.unpinned_wall_ratio",
        wide.map(|o| o.wall_s),
        pinned.wall_s,
    );
}

/// Nanoseconds per event of `f` over `n` recorded events. `f` runs
/// twice and the second pass is timed: the first touches the memory the
/// second reuses, so the number is the consumer's work and not this
/// host's first-touch page faults (which made the Chrome export read
/// 19 us per event instead of 3).
fn per_event<R>(p: &mut Probes, name: &str, span: &str, n: usize, f: impl Fn() -> R) -> R {
    let (out, secs) = p.spans.scope(span, |_| {
        black_box(f());
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    });
    p.put(name, secs * 1e9 / n.max(1) as f64);
    out
}

fn replay(sink: &dyn EventSink, events: &[TraceEvent]) {
    for e in events {
        sink.on_event(e);
    }
}

fn adapt8_differentials(p: &mut Probes, seed: u64) {
    let spec = Inputs::generate(Workload::Adapt8Bare, seed).spec();
    let bare = p.best_of_two("diff.adapt8.bare", &spec, || None);

    let mut stepped = spec.clone();
    stepped.stepped = true;
    let wall = p.best_of_two("diff.adapt8.stepped", &stepped, || None);
    p.put_ratio("sim.cpu.stepped_wall_ratio", Some(wall), bare);

    let mut fixed = spec.clone();
    fixed.cfg = DynMpiConfig::no_adapt();
    let wall = p.best_of_two("diff.adapt8.no_adapt", &fixed, || None);
    p.put_ratio("core.runtime.adapt_wall_ratio", Some(bare), wall);

    let wall = p.best_of_two("diff.adapt8.recorder", &spec, || Some(Recorder::new()));
    p.put_ratio("obs.recorder_wall_ratio", Some(wall), bare);
    let wall = p.best_of_two("diff.adapt8.health", &spec, || {
        let rec = Recorder::new();
        rec.subscribe(Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS)));
        Some(rec)
    });
    p.put_ratio("obs.health_wall_ratio", Some(wall), bare);
    let last = RefCell::new(Recorder::new());
    let wall = p.best_of_two("diff.adapt8.all_sinks", &spec, || {
        let rec = Recorder::new();
        rec.subscribe(Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS)));
        rec.subscribe(Arc::new(ExplainEngine::new(DEFAULT_WINDOW_NS)));
        last.replace(rec.clone());
        Some(rec)
    });
    p.put_ratio("obs.all_sinks_wall_ratio", Some(wall), bare);
    let rec = last.into_inner();

    // The recorded stream, pushed single-threaded through each consumer.
    drop(rec.events());
    let (events, secs) = timed(&mut p.spans, "probe.obs.events_sort", || rec.events());
    p.put("obs.events_sort_ms", secs * 1e3);
    p.put(crate::suite::AUX_ADAPT8_EVENTS, events.len() as f64);
    // A fixed prefix keeps the six consumers' probes to about a second.
    let events = &events[..events.len().min(50_000)];
    let n = events.len();
    per_event(p, "obs.health.ns_per_event", "probe.obs.health", n, || {
        replay(&HealthMonitor::new(DEFAULT_WINDOW_NS), events)
    });
    per_event(
        p,
        "obs.explain.ns_per_event",
        "probe.obs.explain",
        n,
        || replay(&ExplainEngine::new(DEFAULT_WINDOW_NS), events),
    );
    per_event(
        p,
        "obs.analysis.ns_per_event",
        "probe.obs.analysis",
        n,
        || {
            black_box(analyze(events));
        },
    );
    per_event(
        p,
        "obs.export.chrome_ns_per_event",
        "probe.obs.chrome",
        n,
        || {
            black_box(export::chrome_trace(events));
        },
    );
    let jsonl = per_event(
        p,
        "obs.export.jsonl_ns_per_event",
        "probe.obs.jsonl",
        n,
        || export::jsonl(events),
    );
    per_event(
        p,
        "obs.export.parse_jsonl_ns_per_event",
        "probe.obs.parse_jsonl",
        n,
        || {
            black_box(export::parse_jsonl(&jsonl).map(|e| e.len()).ok());
        },
    );

    // How the figure binaries run many simulations: a sweep pool.
    let items = vec![spec; 2];
    let sweep = |threads: usize| {
        let start = Instant::now();
        black_box(dynmpi_testkit::sweep(&items, threads, |_, s| {
            simulate(s, None).report.finish_time
        }));
        start.elapsed().as_secs_f64()
    };
    let serial = p.spans.scope("diff.adapt8.sweep_t1", |_| sweep(1));
    let pooled = p.unpinned(Some(2), |p| {
        p.spans.scope("diff.adapt8.sweep_t2", |_| sweep(2))
    });
    p.put_ratio("testkit.sweep.t2_wall_ratio", pooled, serial);
}

fn crash_differentials(p: &mut Probes, seed: u64) {
    let guarded = Inputs::generate(Workload::Crash8, seed).spec();
    let mut bare = guarded.clone();
    bare.cfg.failure_detection = false;
    bare.cfg.checkpoint_interval_cycles = 0;
    let g = p.sim("diff.crash8.guarded", &guarded, None);
    let u = p.sim("diff.crash8.unguarded", &bare, None);
    p.put(
        "core.ckpt.virt_overhead_ratio",
        g.report.finish_time.0 as f64 / u.report.finish_time.0 as f64,
    );
    p.put_ratio("core.ckpt.guard_wall_ratio", Some(g.wall_s), u.wall_s);
}

fn kernel_differentials(p: &mut Probes, seed: u64) {
    let spec = Inputs::generate(Workload::JacobiKernel2, seed).spec();
    let Program::Jacobi(params) = &spec.program else {
        unreachable!("jacobi_kernel2 runs Jacobi");
    };
    let points = ((params.n - 2) * (params.n - 2) * params.iters) as f64;
    let mut skipped = spec.clone();
    skipped.program = Program::Jacobi(dynmpi_apps::jacobi::JacobiParams {
        exercise_kernel: false,
        ..params.clone()
    });
    let on = p.sim("diff.jacobi_kernel2.kernel_on", &spec, None).wall_s;
    let off = p
        .sim("diff.jacobi_kernel2.kernel_off", &skipped, None)
        .wall_s;
    p.put("apps.kernel.mpoints_per_s", points / on / 1e6);
    p.put("apps.kernel.wall_share", 1.0 - off / on);
}

/// Runs every probe and differential; prints one `probes` line.
pub fn run(seed: u64) -> bool {
    let all_cpus = host::allowed_cpus();
    let pinned = host::pin_to_one_cpu();
    let mut p = Probes {
        spans: SpanLog::new("probes"),
        values: Values::new(),
        all_cpus,
        pinned,
    };
    sim_layer_probes(&mut p);
    comm_layer_probes(&mut p);
    core_layer_probes(&mut p);
    adapt8_differentials(&mut p, seed);
    ring_differentials(&mut p, seed);
    sor_differentials(&mut p, seed);
    crash_differentials(&mut p, seed);
    kernel_differentials(&mut p, seed);
    println!(
        "{}",
        Json::obj([
            ("kind", Json::str("probes")),
            ("pinned_cpu", host::cpu_json(pinned)),
            ("metrics", values_to_json(&p.values)),
            ("spans", spans::to_json(&p.spans.into_spans())),
        ])
    );
    println!("{}", Json::obj([("kind", Json::str("done"))]));
    true
}
