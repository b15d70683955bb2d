//! The runtime's one test double: the virtual-time simulator.
//!
//! [`drive`] runs a small halo application over [`Cluster`] +
//! [`SimTransport`], with load, arrival, crash, partition and overload
//! scripted in virtual time by a [`LoadScript`] — so every measurement the
//! runtime balances on is deterministic. Shared by `runtime::tests` (via
//! `#[path]`) and `tests/failure_modes.rs`; public API only — a caller
//! inside the crate reads private state through [`drive_probed`].

use std::fmt::Debug;

use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig, RuntimeEvent};
use dynmpi_comm::SimTransport;
use dynmpi_obs::Recorder;
use dynmpi_sim::{Cluster, LoadScript, NodeSpec, SimTime};

/// Columns of the test matrix: column 0 counts application steps, the
/// others keep the fill pattern.
const COLS: usize = 4;
/// CPU work units per rank and step on an even split: one virtual second
/// on the 1 Mflop/s test nodes — the `dmpi_ps` daemon's publication
/// period, so a scripted load shows up within a step or two.
const STEP_WORK: f64 = 1e6;

/// One scripted run: `nodes` seed nodes (scripted arrivals add ranks),
/// `nrows` rows, `steps` application steps.
#[derive(Clone)]
pub struct Scenario {
    pub nodes: usize,
    pub nrows: usize,
    pub steps: u64,
    pub cfg: DynMpiConfig,
    pub script: LoadScript,
    /// Call `request_rebalance` at the start of this (0-based) step.
    pub rebalance_at: Option<u64>,
    /// Refresh the halo rows every step.
    pub ghosts: bool,
    /// Run a removed-aware global sum every step and check its value.
    pub reduce: bool,
    /// Records the fast-engine run.
    pub recorder: Option<Recorder>,
}

impl Scenario {
    pub fn new(nodes: usize, nrows: usize, steps: u64, cfg: DynMpiConfig) -> Scenario {
        Scenario {
            nodes,
            nrows,
            steps,
            cfg,
            script: LoadScript::dedicated(),
            rebalance_at: None,
            ghosts: false,
            reduce: false,
            recorder: None,
        }
    }

    pub fn script(mut self, script: LoadScript) -> Scenario {
        self.script = script;
        self
    }

    /// The virtual time `frac` of the way through this scenario's
    /// unscripted run: where time-triggered script entries (arrival,
    /// crash, partition) are aimed.
    pub fn at(&self, frac: f64) -> SimTime {
        let mut plain = self.clone();
        plain.script = LoadScript::dedicated();
        plain.recorder = None;
        SimTime::from_secs_f64(run(&plain, false, &|_| ()).1.as_secs_f64() * frac)
    }
}

/// What one rank reports at the end of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RankOut<S = ()> {
    pub participating: bool,
    pub evicted: bool,
    pub members: Vec<usize>,
    pub counts: Vec<usize>,
    /// Rows this rank owns.
    pub rows: usize,
    pub events: Vec<RuntimeEvent>,
    pub rollbacks: Vec<u64>,
    pub dead: Vec<usize>,
    /// `end_cycle` calls made (steps plus replayed steps).
    pub cycles: usize,
    /// What [`drive_probed`]'s probe read off the runtime at the end.
    pub state: S,
}

impl<S> RankOut<S> {
    pub fn kinds(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.kind()).collect()
    }

    pub fn count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }
}

pub fn cluster(nodes: usize) -> Cluster {
    Cluster::homogeneous(nodes, NodeSpec::with_speed(1e6))
}

fn fill_pattern(i: usize, j: usize) -> f64 {
    (i * 1000 + j) as f64
}

/// The canonical application loop, rollback included. Every owned row
/// must end with exactly `steps` increments on column 0 and an untouched
/// fill pattern elsewhere, whatever moved, dropped, joined or died.
fn app<S>(t: &SimTransport<'_>, sc: &Scenario, probe: &impl Probe<S>) -> RankOut<S> {
    let n = sc.nrows;
    let mut rt = DynMpi::init(t, n, sc.cfg.clone());
    let a = rt.register_dense("A", n);
    let ph = rt.init_phase(0, n, CommPattern::NearestNeighbor);
    rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
    let mut m = DenseMatrix::<f64>::new(n, COLS);
    rt.setup(&mut [&mut m]);
    m.fill_rows(&rt.local_rows(a), fill_pattern);
    let row_work = STEP_WORK * sc.nodes as f64 / n as f64;
    let mut rollbacks = Vec::new();
    let mut step = 0;
    while step < sc.steps {
        if sc.rebalance_at == Some(step) {
            rt.request_rebalance();
        }
        rt.begin_cycle();
        if sc.ghosts {
            rt.ghost_exchange(a, &mut m);
        }
        for i in rt.my_rows(ph).iter() {
            m.row_mut(i)[0] += 1.0;
        }
        rt.charge_rows(ph, |_| row_work);
        if sc.reduce {
            // Every world rank calls it, removed or not (CG-style).
            let part: f64 = rt.my_rows(ph).iter().map(|i| i as f64).sum();
            let expect = (n * (n - 1) / 2) as f64;
            assert_eq!(rt.allreduce_sum(&[part]), [expect], "step {step}");
        }
        rt.end_cycle(&mut [&mut m]);
        step = match rt.take_rollback() {
            Some(back) => {
                rollbacks.push(back);
                back
            }
            None => step + 1,
        };
    }
    for i in rt.my_rows(ph).iter() {
        let expect = fill_pattern(i, 0) + sc.steps as f64;
        assert_eq!(m.row(i)[0], expect, "row {i} lost or repeated steps");
        for j in 1..COLS {
            assert_eq!(m.row(i)[j], fill_pattern(i, j), "row {i} col {j}");
        }
    }
    RankOut {
        participating: rt.participating(),
        evicted: rt.is_evicted(),
        members: rt.active_members().to_vec(),
        counts: rt.distribution().counts(),
        rows: rt.my_rows(ph).len(),
        events: rt.events().to_vec(),
        rollbacks,
        dead: rt.dead_nodes(),
        cycles: rt.local_cycle_times().len(),
        state: probe(&rt),
    }
}

/// Reads a rank's state off its runtime at the end of a run.
pub trait Probe<S>: Fn(&DynMpi<'_, SimTransport<'_>>) -> S + Sync {}
impl<S, F: Fn(&DynMpi<'_, SimTransport<'_>>) -> S + Sync> Probe<S> for F {}

/// One engine mode's run: per-rank reports (`None` = the rank's node
/// crashed) and the virtual makespan.
fn run<S: Send>(
    sc: &Scenario,
    stepped: bool,
    probe: &impl Probe<S>,
) -> (Vec<Option<RankOut<S>>>, SimTime) {
    let mut c = cluster(sc.nodes)
        .with_script(sc.script.clone())
        .with_stepped(stepped);
    if let (Some(rec), false) = (&sc.recorder, stepped) {
        c = c.with_recorder(rec.clone());
    }
    let out = c.run_spmd(|ctx| Some(app(&SimTransport::new(ctx), sc, probe)));
    (out.results, out.report.finish_time)
}

/// Runs the scenario on both engines and returns the per-rank reports.
/// Every replica decides alike, as an assertion: the two engines agree on
/// everything, all ranks active at the end hold the same distribution,
/// and each one's event log (kind + cycle), from its latest entry into
/// the group on, is a suffix of the log of a rank that never left.
pub fn drive(sc: &Scenario) -> Vec<Option<RankOut>> {
    drive_probed(sc, &|_| ())
}

/// [`drive`], also asserting that every rank active at the end reports the
/// same `probe` reading.
pub fn drive_probed<S>(sc: &Scenario, probe: &impl Probe<S>) -> Vec<Option<RankOut<S>>>
where
    S: Clone + Debug + PartialEq + Send,
{
    let fast = run(sc, false, probe);
    assert_eq!(fast, run(sc, true, probe), "engines diverged");
    let ranks = fast.0;
    let log = |o: &RankOut<S>| -> Vec<(&'static str, u64)> {
        o.events.iter().map(|e| (e.kind(), e.cycle())).collect()
    };
    let entered = |r: usize, o: &RankOut<S>| {
        o.events.iter().rposition(|e| {
            matches!(e, RuntimeEvent::NodeRejoined { node, .. }
                      | RuntimeEvent::NodeAdmitted { node, .. } if *node == r)
        })
    };
    let active = || {
        ranks
            .iter()
            .enumerate()
            .filter_map(|(r, o)| Some((r, o.as_ref().filter(|o| o.participating)?)))
    };
    let (_, stayed) = active()
        .find(|&(r, o)| entered(r, o).is_none())
        .expect("some rank is active throughout");
    for (r, o) in active() {
        assert_eq!(
            o.counts, stayed.counts,
            "rank {r} holds another distribution"
        );
        assert_eq!(o.state, stayed.state, "rank {r} holds another replica");
        let since = &log(o)[entered(r, o).unwrap_or(0)..];
        assert!(
            log(stayed).ends_with(since),
            "rank {r} decided differently: {since:?} vs {:?}",
            log(stayed)
        );
    }
    ranks
}
