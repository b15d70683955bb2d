//! The six workloads: seed → generated inputs → one repetition through the
//! crates' public functions → the outputs every repetition is checked on.
//!
//! Shapes (ranks, grid, node speed) are fixed per workload; the seed picks
//! only what a real run would not control — which node is disturbed, when,
//! and which ranks talk out of turn. The crates never see the seed.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dynmpi::{DropPolicy, DynMpiConfig};
use dynmpi_apps::jacobi::{self, JacobiParams};
use dynmpi_apps::sor::{self, SorParams};
use dynmpi_apps::AppResult;
use dynmpi_comm::SimTransport;
use dynmpi_obs::{ExplainEngine, HealthMonitor, Json, Recorder, Snapshot, DEFAULT_WINDOW_NS};
use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimReport, SimTime};
use dynmpi_testkit::Rng;

use crate::spans::SpanLog;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ring64,
    SorDrop32,
    JacobiKernel2,
    Adapt8Bare,
    Adapt8Obs,
    Crash8,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Ring64,
        Workload::SorDrop32,
        Workload::JacobiKernel2,
        Workload::Adapt8Bare,
        Workload::Adapt8Obs,
        Workload::Crash8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ring64 => "ring64",
            Workload::SorDrop32 => "sor_drop32",
            Workload::JacobiKernel2 => "jacobi_kernel2",
            Workload::Adapt8Bare => "adapt8_bare",
            Workload::Adapt8Obs => "adapt8_obs",
            Workload::Crash8 => "crash8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Cycle counts are shrunk from the issue's first measurements (400 / 180 /
// 2000 / 1000 / 1500) so that one repetition costs about a second on the
// 2-vCPU reference host and the contract's 136 runs fit its time cap; rank
// counts, grids and node speeds are the issue's.
const RING_RANKS: usize = 64;
const RING_CYCLES: usize = 72;
const RING_PAIRS: usize = 4;
const SOR_CYCLES: usize = 60;
const JACOBI2_CYCLES: usize = 800;
const ADAPT8_CYCLES: usize = 1000;
const CRASH8_CYCLES: usize = 800;

/// What the seed decided. Equal seeds give equal inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Node that receives competing processes; for `crash8`, the node
    /// that fail-stops.
    pub node: usize,
    /// Phase cycle at which the competing processes land.
    pub onset_cycle: u64,
    /// Competing processes placed on `node`.
    pub cps: u32,
    /// `crash8`: crash instant as a share of the crash-free makespan.
    pub crash_frac: f64,
    /// `ring64`: disjoint (sender, receiver) pairs of the any-source
    /// long-haul traffic.
    pub pairs: Vec<(usize, usize)>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        // One stream per (workload, seed), so adding a draw to one
        // workload never shifts another's inputs. The adapt8 pair shares
        // its stream: the two must simulate the same thing.
        let stream = match workload {
            Workload::Adapt8Obs => Workload::Adapt8Bare,
            w => w,
        } as u64;
        let mut rng = Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut inputs = Inputs {
            workload,
            seed,
            node: 0,
            onset_cycle: 0,
            cps: 0,
            crash_frac: 0.0,
            pairs: Vec::new(),
        };
        match workload {
            Workload::Ring64 => {
                // A partial Fisher-Yates shuffle: 2·RING_PAIRS distinct ranks.
                let mut ranks: Vec<usize> = (0..RING_RANKS).collect();
                for i in 0..2 * RING_PAIRS {
                    let j = rng.range_usize(i, RING_RANKS);
                    ranks.swap(i, j);
                }
                inputs.pairs = (0..RING_PAIRS)
                    .map(|p| (ranks[2 * p], ranks[2 * p + 1]))
                    .collect();
            }
            Workload::SorDrop32 => {
                inputs.node = rng.range_usize(1, 32);
                inputs.onset_cycle = rng.range_u64(8, 13);
                inputs.cps = rng.range_u32(1, 4);
            }
            Workload::JacobiKernel2 => {
                // Always the non-root node: which of the two is loaded
                // moves the virtual makespan by 7 %, more than its bound.
                inputs.node = 1;
                inputs.onset_cycle = rng.range_u64(40, 61);
                inputs.cps = 1;
            }
            Workload::Adapt8Bare | Workload::Adapt8Obs => {
                inputs.node = rng.range_usize(1, 8);
                inputs.onset_cycle = rng.range_u64(8, 13);
                inputs.cps = 1;
            }
            Workload::Crash8 => {
                // Never the root (out of the fault model's scope) nor the
                // last rank, so both ghost neighbours survive.
                inputs.node = rng.range_usize(2, 7);
                inputs.crash_frac = rng.range_f64(0.4, 0.5);
            }
        }
        inputs
    }

    /// The simulation the crates are asked to run for these inputs.
    pub fn spec(&self) -> SimSpec {
        let script = || LoadScript::dedicated().at_cycle(self.node, self.onset_cycle, self.cps);
        let jacobi = |n, iters, exercise_kernel| {
            Program::Jacobi(JacobiParams {
                n,
                iters,
                exercise_kernel,
                rebalance_at: None,
            })
        };
        match self.workload {
            Workload::Ring64 => SimSpec {
                program: Program::Ring {
                    cycles: RING_CYCLES,
                    pairs: self.pairs.clone(),
                },
                nodes: RING_RANKS,
                speed: 1e7,
                script: LoadScript::dedicated(),
                cfg: DynMpiConfig::default(),
                stepped: false,
                shards: 1,
            },
            Workload::SorDrop32 => SimSpec {
                program: Program::Sor(SorParams {
                    n: 512,
                    iters: SOR_CYCLES,
                    omega: 1.5,
                    exercise_kernel: false,
                }),
                nodes: 32,
                speed: 20e6,
                script: script(),
                cfg: DynMpiConfig {
                    drop_policy: DropPolicy::Always,
                    ..Default::default()
                },
                stepped: false,
                shards: 1,
            },
            Workload::JacobiKernel2 => SimSpec {
                program: jacobi(1024, JACOBI2_CYCLES, true),
                nodes: 2,
                speed: 50e6,
                script: script(),
                cfg: DynMpiConfig::default(),
                stepped: false,
                shards: 1,
            },
            Workload::Adapt8Bare | Workload::Adapt8Obs => SimSpec {
                program: jacobi(256, ADAPT8_CYCLES, false),
                nodes: 8,
                speed: 5e6,
                script: script(),
                cfg: DynMpiConfig::default(),
                stepped: false,
                shards: 1,
            },
            Workload::Crash8 => SimSpec {
                program: jacobi(192, CRASH8_CYCLES, true),
                nodes: 8,
                speed: 2e6,
                script: LoadScript::dedicated(),
                cfg: DynMpiConfig {
                    failure_detection: true,
                    peer_timeout_seconds: 0.05,
                    failure_confirm_cycles: 3,
                    checkpoint_interval_cycles: 10,
                    drop_policy: DropPolicy::Always,
                    ..Default::default()
                },
                stepped: false,
                shards: 1,
            },
        }
    }
}

/// The SPMD program a simulation runs.
#[derive(Clone, Debug)]
pub enum Program {
    /// Raw engine traffic, nothing above `dynmpi-sim`: a compute slice
    /// and a 512-byte neighbour exchange per cycle, sparse any-source
    /// long-haul messages and monitor reads (the shape of `bench_sim`'s
    /// sharded ring).
    Ring {
        cycles: usize,
        pairs: Vec<(usize, usize)>,
    },
    Jacobi(JacobiParams),
    Sor(SorParams),
}

/// One simulation, fully described. Differential runs clone the
/// workload's spec and change one field.
#[derive(Clone, Debug)]
pub struct SimSpec {
    pub program: Program,
    pub nodes: usize,
    pub speed: f64,
    pub script: LoadScript,
    pub cfg: DynMpiConfig,
    pub stepped: bool,
    pub shards: usize,
}

pub struct SimOutput {
    pub report: SimReport,
    pub results: Vec<AppResult>,
    /// Host wall seconds of the `run_spmd` call.
    pub wall_s: f64,
    /// `Ring` only: host nanoseconds rank 0 spent on each cycle.
    pub cycle_host_ns: Vec<u64>,
}

fn ring_rank(
    ctx: &dynmpi_sim::SimCtx,
    cycles: usize,
    pairs: &[(usize, usize)],
    cycle_host_ns: &Mutex<Vec<u64>>,
) {
    let r = ctx.rank();
    let n = ctx.nprocs();
    let sends_to = pairs.iter().find(|p| p.0 == r).map(|p| p.1);
    let receives = pairs.iter().any(|p| p.1 == r);
    let mut samples = Vec::with_capacity(if r == 0 { cycles } else { 0 });
    let mut last = Instant::now();
    for i in 0..cycles {
        ctx.advance(2e4);
        ctx.send((r + 1) % n, 1, vec![0u8; 512]);
        let _ = ctx.recv((r + n - 1) % n, 1);
        ctx.phase_cycle_completed();
        if i % 8 == 1 {
            if let Some(dst) = sends_to {
                ctx.send(dst, 9, vec![i as u8]);
            }
            if receives {
                let _ = ctx.recv_any(9);
            }
        }
        if i % 16 == 2 {
            std::hint::black_box(ctx.dmpi_ps((r + 7) % n));
        }
        if r == 0 {
            let now = Instant::now();
            samples.push((now - last).as_nanos() as u64);
            last = now;
        }
    }
    if r == 0 {
        *cycle_host_ns.lock().expect("no rank panicked") = samples;
    }
}

/// Runs one simulation through `Cluster::run_spmd`, optionally recorded.
pub fn simulate(spec: &SimSpec, recorder: Option<Recorder>) -> SimOutput {
    let mut cluster = Cluster::homogeneous(spec.nodes, NodeSpec::with_speed(spec.speed))
        .with_script(spec.script.clone())
        .with_stepped(spec.stepped)
        .with_shards(spec.shards);
    if let Some(rec) = recorder {
        cluster = cluster.with_recorder(rec);
    }
    let cycle_host_ns = Mutex::new(Vec::new());
    let start = Instant::now();
    let out = cluster.run_spmd(|ctx| match &spec.program {
        Program::Ring { cycles, pairs } => {
            ring_rank(ctx, *cycles, pairs, &cycle_host_ns);
            AppResult::default()
        }
        Program::Jacobi(p) => jacobi::run(&SimTransport::new(ctx), p, spec.cfg.clone()),
        Program::Sor(p) => sor::run(&SimTransport::new(ctx), p, spec.cfg.clone()),
    });
    let wall_s = start.elapsed().as_secs_f64();
    SimOutput {
        report: out.report,
        results: out.results,
        wall_s,
        cycle_host_ns: cycle_host_ns.into_inner().expect("no rank panicked"),
    }
}

/// The virtual outputs of one simulation that a repetition is checked on.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutputs {
    pub label: &'static str,
    pub makespan_ns: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    /// Bits of the application checksum, where a numeric kernel ran.
    pub checksum_bits: Option<u64>,
    /// Rank 0's adaptation events, in order.
    pub event_kinds: Vec<&'static str>,
}

impl RunOutputs {
    fn of(label: &'static str, out: &SimOutput) -> RunOutputs {
        let root = &out.results[0];
        RunOutputs {
            label,
            makespan_ns: out.report.finish_time.0,
            net_messages: out.report.net_messages,
            net_bytes: out.report.net_bytes,
            checksum_bits: root.checksum.map(f64::to_bits),
            event_kinds: root.events.iter().map(|e| e.kind()).collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label)),
            ("makespan_ns", Json::UInt(self.makespan_ns)),
            ("net_messages", Json::UInt(self.net_messages)),
            ("net_bytes", Json::UInt(self.net_bytes)),
            (
                "checksum_bits",
                self.checksum_bits.map_or(Json::Null, Json::UInt),
            ),
            (
                "event_kinds",
                Json::Arr(self.event_kinds.iter().map(|k| Json::str(*k)).collect()),
            ),
        ])
    }
}

/// Everything one repetition produced that must repeat bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    pub runs: Vec<RunOutputs>,
    /// `adapt8_obs`: FNV-1a hash of each exported artifact.
    pub artifacts: Vec<(&'static str, u64)>,
}

impl Observed {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "runs",
                Json::Arr(self.runs.iter().map(RunOutputs::to_json).collect()),
            ),
            (
                "artifacts",
                Json::Obj(
                    self.artifacts
                        .iter()
                        .map(|(k, h)| (k.to_string(), Json::UInt(*h)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The paper's metric: virtual makespan of the repetition's last run
    /// (for `crash8`, the run with the crash).
    pub fn makespan_ns(&self) -> u64 {
        self.runs.last().map_or(0, |r| r.makespan_ns)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Counts only a recorded run can give, summed over the repetition's runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordedCounts {
    pub trace_events: u64,
    /// The metrics registry, merged over ranks and runs.
    pub metrics: Snapshot,
    /// Σ per-rank `runtime_ns` and Σ per-rank makespan from `analyze`.
    pub runtime_ns: u64,
    pub rank_makespan_ns: u64,
}

impl RecordedCounts {
    fn absorb(&mut self, rec: &Recorder) {
        let events = rec.events();
        self.trace_events += events.len() as u64;
        let profile = dynmpi_obs::analyze(&events);
        for r in &profile.ranks {
            self.runtime_ns += r.buckets.runtime_ns;
            self.rank_makespan_ns += r.buckets.total();
        }
        self.metrics.merge(&rec.merged_metrics());
    }
}

/// One repetition's results.
pub struct Rep {
    pub observed: Observed,
    /// Host wall seconds of the measured part: the simulation(s) and, for
    /// `adapt8_obs`, the exports. Excludes verification.
    pub wall_s: f64,
    /// Execution-cost counts from `SimReport`, summed over the runs. Not
    /// part of `observed`: an engine change may move them legitimately.
    pub engine_events: u64,
    pub turn_bypasses: u64,
    /// Adaptation events of the last run's rank 0.
    pub events: Vec<dynmpi::RuntimeEvent>,
    /// Largest per-rank virtual seconds inside redistribution.
    pub redist_virt_s: f64,
    /// Present when the repetition was recorded.
    pub recorded: Option<RecordedCounts>,
    /// A cross-check that needs no reference failed.
    pub cross_check_error: Option<String>,
}

/// Final checksums agree up to reduction-regrouping rounding: survivors
/// sum over a different partition than the crash-free run.
fn checksums_close(a: Option<u64>, b: Option<u64>) -> bool {
    match (a.map(f64::from_bits), b.map(f64::from_bits)) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-12 * y.abs().max(1.0),
        _ => false,
    }
}

struct RepBuilder {
    runs: Vec<RunOutputs>,
    wall_s: f64,
    engine_events: u64,
    turn_bypasses: u64,
    recorded: Option<RecordedCounts>,
    last: Option<SimOutput>,
}

impl RepBuilder {
    /// Simulates `spec` under a `run` span. `recorder` is the caller's
    /// (the obs workload's own); otherwise a recorded repetition attaches
    /// a fresh one just to read the metrics registry.
    fn run(
        &mut self,
        label: &'static str,
        spec: &SimSpec,
        recorder: Option<Recorder>,
        spans: &mut SpanLog,
    ) {
        let rec = recorder.or_else(|| self.recorded.is_some().then(Recorder::new));
        let out = spans.scope("run", |_| simulate(spec, rec.clone()));
        if let (Some(counts), Some(rec)) = (&mut self.recorded, &rec) {
            counts.absorb(rec);
        }
        self.wall_s += out.wall_s;
        self.engine_events += out.report.engine_events;
        self.turn_bypasses += out.report.turn_bypasses;
        self.runs.push(RunOutputs::of(label, &out));
        self.last = Some(out);
    }
}

/// Runs one repetition of `inputs`' workload. `recorded` attaches a
/// `Recorder` to read the metrics registry (the traced repetition);
/// `cross_check` adds the checks that cost an extra simulation (done on
/// the cold repetition only, outside its timed part).
pub fn run_rep(inputs: &Inputs, recorded: bool, cross_check: bool, spans: &mut SpanLog) -> Rep {
    let spec = spans.scope("inputs", |_| inputs.spec());
    let mut b = RepBuilder {
        runs: Vec::new(),
        wall_s: 0.0,
        engine_events: 0,
        turn_bypasses: 0,
        recorded: recorded.then(RecordedCounts::default),
        last: None,
    };
    let mut artifacts = Vec::new();
    match inputs.workload {
        Workload::Ring64 | Workload::SorDrop32 | Workload::JacobiKernel2 | Workload::Adapt8Bare => {
            b.run("run", &spec, None, spans)
        }
        Workload::Adapt8Obs => {
            let rec = Recorder::new();
            let health = Arc::new(HealthMonitor::new(DEFAULT_WINDOW_NS));
            let explain = Arc::new(ExplainEngine::new(DEFAULT_WINDOW_NS));
            rec.subscribe(health.clone());
            rec.subscribe(explain.clone());
            b.run("run", &spec, Some(rec.clone()), spans);
            // The exports a figure binary writes with every --*-out flag
            // set, hashed instead of written.
            let start = Instant::now();
            let mut export = |name: &'static str, text: String| {
                artifacts.push((name, fnv1a(text.as_bytes())));
            };
            let n_events = spans.scope("events", |_| rec.events().len());
            let profile = spans.scope("profile", |_| rec.profile());
            export("profile", profile.to_json().to_string());
            export("chrome", spans.scope("chrome", |_| rec.chrome_trace()));
            export("jsonl", spans.scope("jsonl", |_| rec.jsonl()));
            export(
                "health",
                spans.scope("health_report", |_| health.report().to_jsonl()),
            );
            export(
                "explain",
                spans.scope("explain_report", |_| {
                    explain.report().to_jsonl(&profile.blame)
                }),
            );
            export(
                "prom",
                spans.scope("prom", |_| {
                    dynmpi_obs::prometheus_text(&rec.merged_metrics())
                }),
            );
            artifacts.push(("events", n_events as u64));
            b.wall_s += start.elapsed().as_secs_f64();
        }
        Workload::Crash8 => {
            b.run("crash_free", &spec, None, spans);
            let t_crash =
                SimTime::from_secs_f64(b.runs[0].makespan_ns as f64 * 1e-9 * inputs.crash_frac);
            let mut crashed = spec.clone();
            crashed.script = LoadScript::dedicated().node_crash(t_crash, inputs.node);
            b.run("crashed", &crashed, None, spans);
        }
    }

    let cross_check_error = spans.scope("verify", |_| {
        let differs = |other: &SimSpec| RunOutputs::of("run", &simulate(other, None)) != b.runs[0];
        match inputs.workload {
            Workload::Crash8 => {
                (!checksums_close(b.runs[1].checksum_bits, b.runs[0].checksum_bits))
                    .then(|| "crashed run's checksum left the crash-free one".to_string())
            }
            Workload::Ring64 if cross_check => {
                let mut sharded = spec.clone();
                sharded.shards = 2;
                differs(&sharded)
                    .then(|| "virtual outputs at 2 shards differ from 1 shard".to_string())
            }
            Workload::Adapt8Obs if cross_check => differs(&spec)
                .then(|| "observed run's virtual outputs differ from the bare run".to_string()),
            _ => None,
        }
    });

    let last = b.last.expect("every workload runs at least once");
    Rep {
        observed: Observed {
            runs: b.runs,
            artifacts,
        },
        wall_s: b.wall_s,
        engine_events: b.engine_events,
        turn_bypasses: b.turn_bypasses,
        events: last.results[0].events.clone(),
        redist_virt_s: last
            .results
            .iter()
            .map(|r| r.redist_seconds)
            .fold(0.0, f64::max),
        recorded: b.recorded,
        cross_check_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            assert_eq!(Inputs::generate(w, 7), Inputs::generate(w, 7));
            let differing = (8..16)
                .filter(|&s| {
                    let mut other = Inputs::generate(w, s);
                    other.seed = 7;
                    other != Inputs::generate(w, 7)
                })
                .count();
            assert!(
                differing >= 4,
                "{}: seeds barely change the inputs",
                w.name()
            );
        }
    }

    #[test]
    fn adapt8_pair_simulates_the_same_thing() {
        let bare = Inputs::generate(Workload::Adapt8Bare, 3);
        let obs = Inputs::generate(Workload::Adapt8Obs, 3);
        assert_eq!((bare.node, bare.onset_cycle), (obs.node, obs.onset_cycle));
    }

    #[test]
    fn ring_pairs_are_disjoint() {
        for seed in 0..32 {
            let inputs = Inputs::generate(Workload::Ring64, seed);
            let mut ranks: Vec<usize> = inputs.pairs.iter().flat_map(|p| [p.0, p.1]).collect();
            ranks.sort_unstable();
            ranks.dedup();
            assert_eq!(ranks.len(), 2 * RING_PAIRS);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
