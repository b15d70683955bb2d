//! The decision kernel (§4): the replicated state, the control snapshot it
//! advances on, and the rules — pure functions of broadcast data, so every
//! active rank reaches the identical conclusion. Each rule returns the
//! [`RuntimeEvent`] that logs it: the event is the decision record.

use dynmpi_comm::{from_bytes_into, iter_to_bytes, Group};

use crate::balance::{
    predict_cycle_time, relative_power, successive_balance_with_floor, CommModel, NodeLoad,
};
use crate::config::{BalancerKind, DropPolicy, DynMpiConfig};
use crate::dist::Distribution;
use crate::events::RuntimeEvent;
use crate::runtime::PhaseSpec;

/// Redistribute only when the balancer moves more than this fraction of
/// all rows (avoids thrashing on measurement noise).
const REBALANCE_THRESHOLD: f64 = 0.02;
/// OS scheduler quantum in seconds, for the communication penalty model.
const QUANTUM_SECONDS: f64 = 0.010;
/// Successive balancing keeps every participating node at this fraction of
/// its relative-power share: idling a node is removal's job (§4.4).
const BALANCE_FLOOR: f64 = 0.8;
/// The drop rule's margin: remove loaded members when the unloaded ones
/// are predicted faster than the slowest member at all.
const DROP_MARGIN: f64 = 1.0;
/// Cycles an admission's redistribution cost amortizes over, as
/// `ExpandEvaluated` reports it.
const EXPAND_HORIZON_CYCLES: u32 = 50;
/// Control pipeline depth: decisions at cycle `k` use the data of cycle
/// `k − CTRL_LAG`, so no rank blocks on another's in-flight control message.
pub const CTRL_LAG: u64 = 2;
/// Wire values of the sentinel samples: negative, never a cycle time.
const SILENT: f64 = -1.0;
const STALLED: f64 = -2.0;

/// One active member's control sample for a cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sample {
    /// Its cycle time, in seconds.
    Time(f64),
    /// Timed out while its `dmpi_ps` monitor answers: overload, no suspicion.
    Stalled,
    /// Timed out and the monitor reads dead too: a crash suspect.
    Silent,
}

/// The control blob the root broadcasts every cycle, the replicated
/// machine's only input. On the wire, all `f64`: samples ++ loads ++ online
/// ++ alive, where `online` is empty when the whole world is seeded and
/// `alive` is sent only with failure detection. The runtime keeps one and
/// refills it every cycle, so its vectors keep their capacity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Per active member, in relative-rank order.
    pub samples: Vec<Sample>,
    /// Competing processes per world node (the application's own excluded).
    pub loads: Vec<u32>,
    /// Online flags of the non-seed ranks (arrival extension).
    pub online: Vec<bool>,
    /// Monitor liveness per world node (all true without failure detection).
    pub alive: Vec<bool>,
}

impl Snapshot {
    /// The wire payload, each value written straight into it.
    pub fn encode(&self, failure_detection: bool) -> Vec<u8> {
        let flag = |&b: &bool| f64::from(u8::from(b));
        let wire = |s: &Sample| match *s {
            Sample::Time(t) => t,
            Sample::Stalled => STALLED,
            Sample::Silent => SILENT,
        };
        let alive = if failure_detection {
            &self.alive[..]
        } else {
            &[]
        };
        iter_to_bytes(
            (self.samples.iter().map(wire))
                .chain(self.loads.iter().map(|&l| f64::from(l)))
                .chain(self.online.iter().map(flag))
                .chain(alive.iter().map(flag)),
        )
    }

    /// Reads `members` samples in a world of `wsize` ranks, `seed` seeded,
    /// into `self`; `wire` holds the payload's values in between. Both keep
    /// their capacity, so a warm decode allocates nothing.
    pub fn decode_into(
        &mut self,
        bytes: &[u8],
        wire: &mut Vec<f64>,
        members: usize,
        wsize: usize,
        seed: usize,
        fd: bool,
    ) {
        from_bytes_into(bytes, wire);
        let (samples, rest) = wire.split_at(members);
        let (loads, rest) = rest.split_at(wsize);
        let (online, alive) = rest.split_at(wsize - seed);
        let flags = |to: &mut Vec<bool>, v: &[f64]| {
            to.clear();
            to.extend(v.iter().map(|&x| x == 1.0));
        };
        let sample = |&x: &f64| match x {
            SILENT => Sample::Silent,
            STALLED => Sample::Stalled,
            t => Sample::Time(t),
        };
        self.samples.clear();
        self.samples.extend(samples.iter().map(sample));
        self.loads.clear();
        self.loads.extend(loads.iter().map(|&x| x as u32));
        flags(&mut self.online, online);
        match fd {
            true => flags(&mut self.alive, alive),
            false => {
                self.alive.clear();
                self.alive.resize(wsize, true);
            }
        }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    #[default]
    Stable,
    /// Rows are timed individually. With `arrival`, cycle times are summed
    /// too, for the expansion decision on an arriving node (malleability).
    Grace {
        left: u32,
        arrival: Option<usize>,
    },
    PostRedist {
        left: u32,
    },
}

/// A new member list and the distribution over it.
pub type Layout = (Vec<usize>, Distribution);

/// What the protocol does after a snapshot advanced the machine.
pub enum Step {
    Hold,
    /// Open a measurement window, logged by the event: time the rows.
    Measure(RuntimeEvent),
    /// Readmit a removed seed-world node.
    Rejoin(Layout),
    /// The grace window closed: balance, or evaluate the arrival's expansion.
    CloseGrace(Option<usize>),
    /// The post-redistribution window closed: the node-removal decision.
    CloseDrop,
}

/// The replicated decision state. Every active rank advances it alike from
/// the broadcast snapshots; a joining rank receives it in its status tail
/// ([`State::tail`]), so it enters as an equal replica.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct State {
    pub mode: Mode,
    /// Cycle-time sums per active member over the open window.
    window: Vec<f64>,
    window_cycles: u32,
    /// The loads the current distribution was balanced for.
    last_loads: Vec<u32>,
    /// Consecutive load-free cycles per world node (rejoin).
    clear_streak: Vec<u32>,
    /// Consecutive silent control cycles per world node (the detector).
    silent_streak: Vec<u32>,
    /// Confirmed-dead world nodes, never readmitted.
    pub dead: Vec<bool>,
    /// In-place redistributions so far, against `max_redistributions`.
    pub redist_count: u32,
    /// Snapshots to skip in a post-redistribution window: through the
    /// pipeline lag they carry pre-redistribution times.
    post_skip: u32,
    pub rebalance_requested: bool,
}

impl State {
    pub fn new(wsize: usize) -> State {
        State {
            window: vec![0.0; wsize],
            last_loads: vec![0; wsize],
            clear_streak: vec![0; wsize],
            silent_streak: vec![0; wsize],
            dead: vec![false; wsize],
            ..State::default()
        }
    }

    /// Back to `Stable` with no measurement in progress.
    fn reset_window(&mut self) {
        self.window.fill(0.0);
        self.window_cycles = 0;
        self.post_skip = 0;
        self.mode = Mode::Stable;
    }

    fn accumulate(&mut self, samples: &[Sample]) {
        for (sum, s) in self.window.iter_mut().zip(samples) {
            if let Sample::Time(t) = s {
                *sum += t;
            }
        }
        self.window_cycles += 1;
    }

    /// A confirmed death: the node never comes back.
    pub fn bury(&mut self, node: usize) {
        self.dead[node] = true;
        self.silent_streak[node] = 0;
    }

    pub fn suspect_open(&self, members: &[usize]) -> bool {
        members.iter().any(|&m| self.silent_streak[m] > 0)
    }

    /// A membership transition onto a layout balanced for `loads`: a fresh
    /// window, and only the entering nodes' clear streaks restart (all on a
    /// shrink), so nodes clearing together rejoin on consecutive cycles.
    /// Letting a node in drops any pending rebalance request on every side:
    /// the admission has just redistributed, and a joiner's request (made
    /// while removed, or during the arrival window) may differ from the
    /// actives'.
    pub fn transition(&mut self, entering: &[usize], loads: &[u32]) {
        if entering.is_empty() {
            self.clear_streak.fill(0);
        } else {
            self.rebalance_requested = false;
        }
        for &m in entering {
            self.clear_streak[m] = 0;
        }
        self.last_loads.copy_from_slice(loads);
        self.reset_window();
    }

    /// A joiner's resync tail: loads ++ clear streaks ++ the redistribution
    /// count (only under `max_redistributions`: uncapped runs keep their
    /// bytes) ++ row weights. The other fields agree at a join anyway: the
    /// transition resets the window, and no suspect streak is open. (`dead`
    /// is stale on a rank removed across a recovery: DESIGN.md §14.)
    pub fn tail(&self, loads: &[u32], weights: &[f64], cfg: &DynMpiConfig) -> Vec<f64> {
        let mut v: Vec<f64> = loads.iter().map(|&l| f64::from(l)).collect();
        v.extend(self.clear_streak.iter().map(|&s| f64::from(s)));
        if cfg.max_redistributions.is_some() {
            v.push(f64::from(self.redist_count));
        }
        v.extend_from_slice(weights);
        v
    }

    /// Adopts a [`Self::tail`]; returns the loads and row weights the
    /// actives balanced the joiner's layout against.
    pub fn resync(&mut self, tail: &[f64], cfg: &DynMpiConfig) -> (Vec<u32>, Vec<f64>) {
        let w = self.clear_streak.len();
        let (loads, rest) = tail.split_at(w);
        let (streaks, rest) = rest.split_at(w);
        let (count, weights) = rest.split_at(usize::from(cfg.max_redistributions.is_some()));
        self.clear_streak = streaks.iter().map(|&x| x as u32).collect();
        if let Some(&c) = count.first() {
            self.redist_count = c as u32;
        }
        (loads.iter().map(|&x| x as u32).collect(), weights.to_vec())
    }
}

/// The measured row weights, or uniform ones until a grace period has
/// measured a positive total.
pub fn effective_weights(row_weights: Option<&[f64]>, nrows: usize) -> Vec<f64> {
    match row_weights {
        Some(w) if w.iter().sum::<f64>() > 0.0 => w.to_vec(),
        _ => vec![1.0; nrows],
    }
}

/// The rules' view of one active rank: its replica plus inputs identical
/// on every active rank (configuration, phases, layout, row weights).
pub struct Kernel<'a> {
    pub state: &'a mut State,
    pub cfg: &'a DynMpiConfig,
    pub phases: &'a [PhaseSpec],
    pub seed: usize,
    pub active: &'a Group,
    pub dist: &'a Distribution,
    pub row_weights: Option<&'a [f64]>,
    pub cycle: u64,
}

impl Kernel<'_> {
    /// Advances the load-free streaks and the failure detector's
    /// suspect→confirm step: a silent member's streak grows (`NodeSuspected`),
    /// any other sample restarts it, so overload never escalates. The first
    /// to reach `failure_confirm_cycles` ends the list: `NodeConfirmedDead`.
    pub fn observe(&mut self, snap: &Snapshot) -> Vec<RuntimeEvent> {
        let (st, cycle) = (&mut *self.state, self.cycle);
        for (streak, &load) in st.clear_streak.iter_mut().zip(&snap.loads) {
            let next = streak.saturating_add(1);
            *streak = if load == 0 { next } else { 0 };
        }
        let mut events = Vec::new();
        if !self.cfg.failure_detection {
            return events;
        }
        let mut confirmed = None;
        for (&node, &s) in self.active.members().iter().zip(&snap.samples) {
            let streak = &mut st.silent_streak[node];
            *streak = if s == Sample::Silent { *streak + 1 } else { 0 };
            let silent_cycles = *streak;
            if silent_cycles == 0 {
                continue;
            }
            events.push(RuntimeEvent::NodeSuspected {
                cycle,
                node,
                silent_cycles,
            });
            if silent_cycles >= self.cfg.failure_confirm_cycles && confirmed.is_none() {
                confirmed = Some(RuntimeEvent::NodeConfirmedDead {
                    cycle,
                    node,
                    silent_cycles,
                });
            }
        }
        events.extend(confirmed);
        events
    }

    /// One snapshot's advance of `Stable → Grace → PostRedist`; `None` while
    /// frozen by a sentinel sample or an open suspect streak (every
    /// transition runs a collective that would hang on a dead member, and
    /// sentinels must never enter the window).
    pub fn step(&mut self, snap: &Snapshot) -> Option<Step> {
        let (cfg, cycle, seed) = (self.cfg, self.cycle, self.seed);
        let sentinel = snap.samples.iter().any(|s| !matches!(s, Sample::Time(_)));
        if cfg.failure_detection && (sentinel || self.state.suspect_open(self.active.members())) {
            return None;
        }
        let st = &mut *self.state;
        Some(match st.mode {
            Mode::Stable => {
                let cap = cfg.max_redistributions;
                let exhausted = cap.is_some_and(|k| st.redist_count >= k);
                let moved = |&m: &usize| snap.loads[m] != st.last_loads[m];
                if (!exhausted && self.active.members().iter().any(moved)) || st.rebalance_requested
                {
                    st.rebalance_requested = false;
                    let (left, arrival) = (cfg.grace_period, None);
                    st.mode = Mode::Grace { left, arrival };
                    let loads = snap.loads.clone();
                    let event = RuntimeEvent::LoadChangeDetected { cycle, loads };
                    return Some(Step::Measure(event));
                }
                // Rejoin (extension): a seed-world node whose load stayed
                // clear. A dead node's monitor reads unloaded, so its streak
                // builds too: the liveness flags and `dead` keep it out.
                let out = |&n: &usize| !self.active.contains(n) && snap.alive[n];
                let clear = |n: &usize| st.clear_streak[*n] >= cfg.rejoin_after_cycles;
                let rejoin =
                    (0..seed).find(|n| cfg.allow_rejoin && out(n) && !st.dead[*n] && clear(n));
                if let Some(node) = rejoin {
                    let members = self.active.with_member(node, node).members().to_vec();
                    let dist = self.balance_over(&members, &snap.loads, 0);
                    return Some(Step::Rejoin((members, dist)));
                }
                // Arrival (malleability): an online newcomer, every
                // `arrival_retry_cycles`-th cycle — a deterministic retry
                // schedule, so a rejected one needs no per-node state.
                let retry = cycle.is_multiple_of(u64::from(cfg.arrival_retry_cycles));
                let mut newcomers = seed..snap.loads.len();
                let arrival =
                    newcomers.find(|n| retry && snap.online[n - seed] && out(n) && !st.dead[*n]);
                let Some(node) = arrival else {
                    return Some(Step::Hold);
                };
                st.reset_window();
                let (left, arrival) = (cfg.grace_period, Some(node));
                st.mode = Mode::Grace { left, arrival };
                Step::Measure(RuntimeEvent::NodeArrived { cycle, node })
            }
            Mode::Grace { left, arrival } => {
                if let Some(node) = arrival {
                    if !snap.online[node - seed] || !snap.alive[node] {
                        // The newcomer vanished mid-window: abandon the
                        // evaluation (a fresh window opens if it returns).
                        st.reset_window();
                        return Some(Step::Hold);
                    }
                    st.accumulate(&snap.samples);
                }
                if left == 1 {
                    return Some(Step::CloseGrace(arrival));
                }
                let left = left - 1;
                st.mode = Mode::Grace { left, arrival };
                Step::Hold
            }
            Mode::PostRedist { .. } if st.post_skip > 0 => {
                st.post_skip -= 1;
                Step::Hold
            }
            Mode::PostRedist { left } => {
                st.accumulate(&snap.samples);
                if left == 1 {
                    return Some(Step::CloseDrop);
                }
                st.mode = Mode::PostRedist { left: left - 1 };
                Step::Hold
            }
        })
    }

    /// Balance-or-skip at the end of a grace period: the balancer's
    /// assignment over the members (a logical drop, §2.2, keeps each at
    /// `min_rows_logical` rows), the fraction of rows it moves and, when
    /// that is at most [`REBALANCE_THRESHOLD`], the skip event. Otherwise
    /// the protocol redistributes and logs the transfer's cost.
    pub fn balance_or_skip(&mut self, loads: &[u32]) -> (Distribution, f64, Option<RuntimeEvent>) {
        let logical = self.cfg.drop_policy == DropPolicy::Logical;
        let min_rows = if logical {
            self.cfg.min_rows_logical
        } else {
            0
        };
        let dist = self.balance_over(self.active.members(), loads, min_rows);
        let moved_fraction = self.moved_fraction(&dist);
        let (st, cycle) = (&mut *self.state, self.cycle);
        st.last_loads.copy_from_slice(loads);
        st.mode = Mode::Stable;
        if moved_fraction <= REBALANCE_THRESHOLD {
            let skip = RuntimeEvent::RedistributionSkipped {
                cycle,
                moved_fraction,
            };
            return (dist, moved_fraction, Some(skip));
        }
        st.redist_count += 1;
        st.post_skip = CTRL_LAG as u32 + 1;
        let left = self.cfg.post_redist_period;
        st.mode = Mode::PostRedist { left };
        (dist, moved_fraction, None)
    }

    /// Closes the window: the mean cycle time of each member over it.
    fn close_window(&mut self) -> Vec<f64> {
        let st = &mut *self.state;
        let (n, sums) = (f64::from(st.window_cycles.max(1)), &st.window);
        let avg = sums[..self.active.size()].iter().map(|&s| s / n).collect();
        st.reset_window();
        avg
    }

    /// The node-removal rule (§4.4), closing the post-redistribution
    /// window: drop the loaded members when the unloaded-only configuration
    /// is predicted faster than the slowest member by `DROP_MARGIN`. No
    /// evaluation when the members are all loaded or all unloaded.
    pub fn drop_rule(&mut self, loads: &[u32]) -> (Option<RuntimeEvent>, Option<Layout>) {
        let window = self.close_window();
        let members = self.active.members().iter().copied();
        let (loaded, unloaded): (Vec<usize>, Vec<usize>) = members.partition(|&m| loads[m] > 0);
        if loaded.is_empty() || unloaded.is_empty() {
            return (None, None);
        }
        let measured_max = window.iter().cloned().fold(0.0, f64::max);
        // The weights as the grace period that opened the window measured
        // them, under the current member count's communication model.
        let weights = self.row_weights.unwrap_or(&[]);
        let n = self.active.size();
        let predicted_unloaded = self.predict(&unloaded, n, &window, loads, weights);
        let (cfg, cycle) = (self.cfg, self.cycle);
        let dropped = match cfg.drop_policy {
            DropPolicy::Never | DropPolicy::Logical => false,
            DropPolicy::Always => true,
            DropPolicy::Auto => predicted_unloaded * DROP_MARGIN < measured_max,
        };
        let survivors = dropped.then(|| {
            let dist = self.balance_over(&unloaded, loads, 0);
            (unloaded, dist)
        });
        let event = RuntimeEvent::DropEvaluated {
            cycle,
            predicted_unloaded,
            measured_max,
            margin: DROP_MARGIN,
            loaded,
            dropped,
        };
        (Some(event), survivors)
    }

    /// The expansion rule, closing an arrival window: admit `node` only when
    /// the predicted cycle time with it beats the slowest member by
    /// `expand_margin`. Redistribution is modeled as free, so the event
    /// reports a zero cost, which any saving amortizes over
    /// `EXPAND_HORIZON_CYCLES`.
    pub fn expand_rule(&mut self, node: usize, loads: &[u32]) -> (RuntimeEvent, Option<Layout>) {
        let window = self.close_window();
        let measured_max = window.iter().cloned().fold(0.0, f64::max);
        let members = self.active.with_member(node, node).members().to_vec();
        let w = self.weights();
        let predicted_with = self.predict(&members, members.len(), &window, loads, &w);
        let dist = self.balance_over(&members, loads, 0);
        let margin = self.cfg.expand_margin;
        let admitted = predicted_with * margin < measured_max;
        let event = RuntimeEvent::ExpandEvaluated {
            cycle: self.cycle,
            node,
            predicted_with,
            measured_max,
            redist_cost: 0.0,
            margin,
            horizon_cycles: EXPAND_HORIZON_CYCLES,
            admitted,
        };
        (event, admitted.then_some((members, dist)))
    }

    fn weights(&self) -> Vec<f64> {
        effective_weights(self.row_weights, self.dist.nrows())
    }

    /// Monitor readings plus the configured relative speeds of `members`.
    fn node_loads(&self, members: &[usize], loads: &[u32]) -> Vec<NodeLoad> {
        let speed = |m| self.cfg.speed_of(m);
        let load = |&m: &usize| NodeLoad {
            ncp: loads[m],
            speed: speed(m),
        };
        members.iter().map(load).collect()
    }

    fn comm_model_for(&self, n_active: usize) -> CommModel {
        let phases = self.phases.iter();
        let recvs = phases.map(|p| p.pattern.blocking_recvs(n_active));
        CommModel {
            blocking_recvs_per_cycle: recvs.sum(),
            quantum: QUANTUM_SECONDS,
            wait_factor: self.cfg.wait_factor,
        }
    }

    /// The balancer: the measured row weights over `members` under the
    /// monitor's `loads`, every member keeping at least `min_rows`.
    pub fn balance_over(&self, members: &[usize], loads: &[u32], min_rows: usize) -> Distribution {
        let (node_loads, w) = (self.node_loads(members, loads), self.weights());
        let comm = self.comm_model_for(members.len());
        match self.cfg.balancer {
            BalancerKind::RelativePower => relative_power(&w, &node_loads, min_rows),
            BalancerKind::SuccessiveBalancing => {
                successive_balance_with_floor(&w, &node_loads, &comm, min_rows, BALANCE_FLOOR)
            }
        }
    }

    /// Predicted max/mean cycle-time imbalance of a candidate distribution
    /// under the balancer's own model ([`Self::modeled_compute`]).
    pub fn predicted_imbalance(&self, dist: &Distribution, loads: &[u32]) -> f64 {
        let per = self.modeled_compute(dist, loads, &self.weights());
        let max = per.iter().cloned().fold(0.0, f64::max);
        let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Fraction of rows that change owner under a candidate distribution.
    fn moved_fraction(&self, new: &Distribution) -> f64 {
        let transfers = self.dist.transfers_to(new);
        let moved = transfers.iter().filter(|(s, d, _)| s != d);
        moved.map(|(_, _, rs)| rs.len()).sum::<usize>() as f64 / self.dist.nrows() as f64
    }

    /// Modeled compute time per member under `dist`: its assigned weight
    /// scaled by `ncp + 1` over its configured speed.
    fn modeled_compute(&self, dist: &Distribution, loads: &[u32], weights: &[f64]) -> Vec<f64> {
        let time = |(rel, &m): (usize, &usize)| {
            let mine: f64 = dist.rows_of(rel).map(|r| weights[r]).sum();
            mine * f64::from(loads[m] + 1) / self.cfg.speed_of(m)
        };
        self.active.members().iter().enumerate().map(time).collect()
    }

    /// Predicted cycle time of `members` (§4.4): `weights` balanced over
    /// them, communicating like `comm_nodes` nodes, plus the baseline — the
    /// least "mean cycle minus modeled compute" of a member over `window`.
    fn predict(
        &self,
        members: &[usize],
        comm_nodes: usize,
        window: &[f64],
        loads: &[u32],
        weights: &[f64],
    ) -> f64 {
        let compute = self.modeled_compute(self.dist, loads, weights);
        let extra = window.iter().zip(compute).map(|(avg, c)| avg - c);
        let baseline = extra.fold(f64::INFINITY, |best, x| if x < best { x } else { best });
        let total_work = weights.iter().sum();
        let node_loads = self.node_loads(members, loads);
        let comm = self.comm_model_for(comm_nodes);
        predict_cycle_time(total_work, &node_loads, &comm, baseline.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The snapshot keeps the control blob's wire layout: samples (silent
    /// −1, stalled −2) ++ loads ++ online ++ alive, the last with failure
    /// detection only.
    #[test]
    fn snapshot_keeps_the_wire_layout() {
        let snap = Snapshot {
            samples: vec![Sample::Time(0.5), Sample::Silent, Sample::Stalled],
            loads: vec![0, 2, 1, 0],
            online: vec![true],
            alive: vec![true, false, true, true],
        };
        for fd in [false, true] {
            let mut wire = vec![0.5, -1.0, -2.0, 0.0, 2.0, 1.0, 0.0, 1.0];
            if fd {
                wire.extend([1.0, 0.0, 1.0, 1.0]);
            }
            let bytes = snap.encode(fd);
            assert_eq!(bytes, dynmpi_comm::to_bytes(&wire));
            let alive = if fd {
                snap.alive.clone()
            } else {
                vec![true; 4]
            };
            let expect = Snapshot {
                alive,
                ..snap.clone()
            };
            let mut decoded = Snapshot::default();
            decoded.decode_into(&bytes, &mut Vec::new(), 3, 4, 3, fd);
            assert_eq!(decoded, expect);
        }
    }
}
