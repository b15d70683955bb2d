//! Experiment harness: runs any application on a scripted virtual
//! cluster and collects the measurements the paper's figures report.

use dynmpi::DynMpiConfig;
use dynmpi_comm::SimTransport;
use dynmpi_obs::{Json, Recorder};
use dynmpi_sim::{Cluster, LoadScript, NetParams, NodeSpec, OsParams};

use crate::cg::{self, CgParams};
use crate::jacobi::{self, JacobiParams};
use crate::particle::{self, ParticleParams};
use crate::result::AppResult;
use crate::sor::{self, SorParams};

/// Which application to run, with its parameters.
#[derive(Clone, Debug)]
pub enum AppSpec {
    Jacobi(JacobiParams),
    Sor(SorParams),
    Cg(CgParams),
    Particle(ParticleParams),
}

impl AppSpec {
    pub fn name(&self) -> &'static str {
        match self {
            AppSpec::Jacobi(_) => "jacobi",
            AppSpec::Sor(_) => "sor",
            AppSpec::Cg(_) => "cg",
            AppSpec::Particle(_) => "particle",
        }
    }
}

/// A full experiment description.
#[derive(Clone, Debug)]
pub struct Experiment {
    pub app: AppSpec,
    pub nodes: usize,
    pub node_spec: NodeSpec,
    pub os: OsParams,
    pub net: NetParams,
    pub script: LoadScript,
    pub cfg: DynMpiConfig,
}

impl Experiment {
    /// A paper-testbed experiment: Xeon-class nodes, 100 Mb/s Ethernet.
    pub fn new(app: AppSpec, nodes: usize) -> Self {
        Experiment {
            app,
            nodes,
            node_spec: NodeSpec::xeon_550(),
            os: OsParams::default(),
            net: NetParams::ethernet_100mbps(),
            script: LoadScript::dedicated(),
            cfg: DynMpiConfig::default(),
        }
    }

    pub fn with_script(mut self, script: LoadScript) -> Self {
        self.script = script;
        self
    }

    pub fn with_cfg(mut self, cfg: DynMpiConfig) -> Self {
        self.cfg = cfg;
        self
    }

    pub fn with_node_spec(mut self, spec: NodeSpec) -> Self {
        self.node_spec = spec;
        self
    }

    /// The virtual cluster the experiment runs on: its nodes, OS, network
    /// and load script.
    pub fn cluster(&self) -> Cluster {
        Cluster::homogeneous(self.nodes, self.node_spec)
            .with_os(self.os)
            .with_net(self.net)
            .with_script(self.script.clone())
    }
}

/// Everything a simulated run produced.
#[derive(Clone, Debug)]
pub struct SimRunResult {
    /// Virtual makespan (slowest rank's finish), seconds.
    pub makespan: f64,
    /// Per-rank application results.
    pub per_rank: Vec<AppResult>,
    pub net_messages: u64,
    pub net_bytes: u64,
}

impl SimRunResult {
    /// Checksum (identical on all ranks) if the kernel ran.
    pub fn checksum(&self) -> Option<f64> {
        self.per_rank[0].checksum
    }

    /// Rank-0's adaptation events (identical on all participating ranks
    /// up to removal).
    pub fn events(&self) -> &[dynmpi::RuntimeEvent] {
        &self.per_rank[0].events
    }

    /// Total redistribution seconds (max across ranks — it is a
    /// collective, so all participants report ≈ the same).
    pub fn redist_seconds(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.redist_seconds)
            .fold(0.0, f64::max)
    }
}

/// One row of a figure table, serializable for EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct ResultRow {
    pub figure: String,
    pub app: String,
    pub nodes: usize,
    pub variant: String,
    pub seconds: f64,
    pub normalized: f64,
}

impl ResultRow {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("figure", Json::str(self.figure.clone())),
            ("app", Json::str(self.app.clone())),
            ("nodes", Json::UInt(self.nodes as u64)),
            ("variant", Json::str(self.variant.clone())),
            ("seconds", Json::Num(self.seconds)),
            ("normalized", Json::Num(self.normalized)),
        ])
    }
}

/// Runs an experiment on the virtual cluster.
pub fn run_sim(exp: &Experiment) -> SimRunResult {
    run_sim_on(exp, exp.cluster())
}

/// Runs an experiment, optionally attaching an observability [`Recorder`]:
/// every rank then emits virtual-time trace spans and metrics into it.
pub fn run_sim_with(exp: &Experiment, recorder: Option<Recorder>) -> SimRunResult {
    let mut cluster = exp.cluster();
    if let Some(r) = recorder {
        cluster = cluster.with_recorder(r);
    }
    run_sim_on(exp, cluster)
}

/// Runs an experiment on `cluster`, which is [`Experiment::cluster`] with
/// engine options added: tests compare engine modes by passing
/// `exp.cluster().with_stepped(true)`.
pub fn run_sim_on(exp: &Experiment, cluster: Cluster) -> SimRunResult {
    let app = exp.app.clone();
    let mut cfg = exp.cfg.clone();
    // Scripted arrivals: the extra ranks start outside the computation
    // (seed world = the scripted cluster) and their relative speeds feed
    // the heterogeneous balancer.
    if !exp.script.arrivals().is_empty() {
        cfg.seed_world = Some(exp.nodes);
        if cfg.node_speeds.is_empty() {
            let mut speeds = vec![1.0; exp.nodes];
            for a in exp.script.arrivals() {
                speeds.push(a.spec.speed / exp.node_spec.speed);
            }
            cfg.node_speeds = speeds;
        }
    }
    let out = cluster.run_spmd(move |ctx| {
        let t = SimTransport::new(ctx);
        match &app {
            AppSpec::Jacobi(p) => jacobi::run(&t, p, cfg.clone()),
            AppSpec::Sor(p) => sor::run(&t, p, cfg.clone()),
            AppSpec::Cg(p) => cg::run(&t, p, cfg.clone()),
            AppSpec::Particle(p) => particle::run(&t, p, cfg.clone()),
        }
    });
    SimRunResult {
        makespan: out.report.finish_time.as_secs_f64(),
        per_rank: out.results,
        net_messages: out.report.net_messages,
        net_bytes: out.report.net_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmpi_sim::SimTime;

    #[test]
    fn jacobi_runs_on_simulator() {
        let exp = Experiment::new(AppSpec::Jacobi(JacobiParams::small(32, 10)), 2);
        let r = run_sim(&exp);
        assert!(r.makespan > 0.0);
        assert_eq!(r.per_rank.len(), 2);
        assert!(r.net_messages > 0);
    }

    #[test]
    fn dedicated_beats_loaded_no_adapt() {
        let p = JacobiParams::small(64, 30);
        // Slow nodes: compute-dominated, so the competing processes bite.
        let spec = NodeSpec::with_speed(1e6);
        let ded = run_sim(
            &Experiment::new(AppSpec::Jacobi(p.clone()), 2)
                .with_node_spec(spec)
                .with_cfg(DynMpiConfig::no_adapt()),
        );
        let loaded = run_sim(
            &Experiment::new(AppSpec::Jacobi(p), 2)
                .with_node_spec(spec)
                .with_cfg(DynMpiConfig::no_adapt())
                .with_script(LoadScript::dedicated().at_time(0, SimTime::ZERO, 2)),
        );
        assert!(
            loaded.makespan > 1.5 * ded.makespan,
            "loaded {} vs dedicated {}",
            loaded.makespan,
            ded.makespan
        );
        // Same answers regardless of load.
        assert_eq!(ded.checksum(), loaded.checksum());
    }

    #[test]
    fn adaptation_beats_no_adaptation_under_load() {
        let mut p = JacobiParams::small(128, 60);
        p.exercise_kernel = false;
        // Slow nodes make the workload compute-dominated (≈32 ms/cycle
        // per node), the regime where redistribution pays.
        let spec = NodeSpec::with_speed(1e6);
        let script = LoadScript::dedicated().at_cycle(0, 10, 2);
        let no_adapt = run_sim(
            &Experiment::new(AppSpec::Jacobi(p.clone()), 4)
                .with_node_spec(spec)
                .with_cfg(DynMpiConfig::no_adapt())
                .with_script(script.clone()),
        );
        let adapt = run_sim(
            &Experiment::new(AppSpec::Jacobi(p), 4)
                .with_node_spec(spec)
                .with_cfg(DynMpiConfig::default())
                .with_script(script),
        );
        assert!(
            adapt.makespan < no_adapt.makespan,
            "adapt {} vs no-adapt {}",
            adapt.makespan,
            no_adapt.makespan
        );
        assert!(adapt.events().iter().any(|e| e.kind() == "redistributed"));
    }
}
