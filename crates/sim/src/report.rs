//! End-of-run statistics.

use crate::time::{SimDur, SimTime};

/// Per-rank statistics collected by the engine.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcReport {
    pub node: usize,
    /// Exact CPU time consumed.
    pub cpu_time: SimDur,
    /// Virtual time at which the rank's program returned.
    pub finish_time: SimTime,
    pub msgs_sent: u64,
    pub msgs_recvd: u64,
    pub bytes_sent: u64,
    pub bytes_recvd: u64,
    /// Fraction of the rank's lifetime spent blocked at receives.
    pub blocked_fraction: f64,
    /// True when the rank was killed by a scripted fail-stop crash:
    /// `finish_time` is then its death time and its result slot holds the
    /// default value.
    pub crashed: bool,
}

/// Whole-run statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Virtual time when the last rank finished — the job's makespan.
    pub finish_time: SimTime,
    pub procs: Vec<ProcReport>,
    pub net_messages: u64,
    pub net_bytes: u64,
    /// Entries pushed onto the engine's queue over the run: wake-ups and
    /// the landings of cross-node sends. An execution-cost metric, not a
    /// virtual-time output: it differs between the stepped and fast engine
    /// modes even though every timestamp agrees.
    pub engine_events: u64,
    /// Queue entries popped or pruned dead, never dispatched: wake-ups
    /// outrun by an earlier one, and fail-stop wakes of ranks that were
    /// not blocked when they came due (an execution-cost metric too).
    pub stale_events: u64,
    /// Clock advances that did not give up the turn: a rank moving its
    /// rank-local clock, or catching the engine clock up in place (also an
    /// execution-cost metric; 0 in stepped mode).
    pub turn_bypasses: u64,
    /// Turns given to a *different* rank — one suspension of the giver and
    /// one resumption of the taker each, the two user-space stack switches
    /// the engine pays per simulated message (also an execution-cost
    /// metric).
    pub hand_offs: u64,
}

impl SimReport {
    /// This report with the execution-cost metrics zeroed, leaving only
    /// virtual-time outputs — the form the stepped/fast-forward
    /// equivalence suite compares bit for bit.
    pub fn virtual_outputs(&self) -> SimReport {
        SimReport {
            engine_events: 0,
            stale_events: 0,
            turn_bypasses: 0,
            hand_offs: 0,
            ..self.clone()
        }
    }
}

/// Results of a full simulated run: one value per rank plus the report.
#[derive(Clone, Debug)]
pub struct SimOutcome<R> {
    pub results: Vec<R>,
    pub report: SimReport,
}
