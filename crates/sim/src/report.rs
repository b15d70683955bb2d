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

    /// Aggregate CPU time across ranks.
    pub fn total_cpu(&self) -> SimDur {
        let ns = self.procs.iter().map(|p| p.cpu_time.0).sum();
        SimDur(ns)
    }

    /// Mean CPU utilization across ranks: CPU time / makespan.
    pub fn mean_utilization(&self) -> f64 {
        if self.finish_time == SimTime::ZERO || self.procs.is_empty() {
            return 0.0;
        }
        let wall = self.finish_time.as_secs_f64();
        self.procs
            .iter()
            .map(|p| p.cpu_time.as_secs_f64() / wall)
            .sum::<f64>()
            / self.procs.len() as f64
    }
}

/// Results of a full simulated run: one value per rank plus the report.
#[derive(Clone, Debug)]
pub struct SimOutcome<R> {
    pub results: Vec<R>,
    pub report: SimReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let r = SimReport {
            finish_time: SimTime::from_secs(2),
            procs: vec![
                ProcReport {
                    node: 0,
                    cpu_time: SimDur::from_secs(2),
                    finish_time: SimTime::from_secs(2),
                    msgs_sent: 1,
                    msgs_recvd: 1,
                    bytes_sent: 8,
                    bytes_recvd: 8,
                    blocked_fraction: 0.0,
                    crashed: false,
                },
                ProcReport {
                    node: 1,
                    cpu_time: SimDur::from_secs(1),
                    finish_time: SimTime::from_secs(1),
                    msgs_sent: 0,
                    msgs_recvd: 0,
                    bytes_sent: 0,
                    bytes_recvd: 0,
                    blocked_fraction: 0.5,
                    crashed: false,
                },
            ],
            net_messages: 1,
            net_bytes: 8,
            engine_events: 0,
            stale_events: 0,
            turn_bypasses: 0,
            hand_offs: 0,
        };
        assert_eq!(r.total_cpu(), SimDur::from_secs(3));
        assert!((r.mean_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_report_utilization_is_zero() {
        let r = SimReport {
            finish_time: SimTime::ZERO,
            procs: vec![],
            net_messages: 0,
            net_bytes: 0,
            engine_events: 0,
            stale_events: 0,
            turn_bypasses: 0,
            hand_offs: 0,
        };
        assert_eq!(r.mean_utilization(), 0.0);
    }
}
