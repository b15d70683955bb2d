//! Conservative discrete-event engine core.
//!
//! Every simulated rank runs as a stackful fiber on the thread that called
//! `Cluster::run_spmd`, so application code can be ordinary imperative Rust
//! (loops, sends, receives) and **exactly one** rank executes at a time: a
//! rank that blocks in virtual time hands the "turn" to the rank owning the
//! earliest pending event, and the hand-off is a user-space stack switch.
//! Event order is a total order on `(virtual time, pid, sequence number)`,
//! so a run is a deterministic function of its inputs.
//!
//! In fast mode a rank runs on a **rank-local clock** (`ProcState::local`)
//! that may be ahead of the engine clock: whatever reads and writes only the
//! rank's own node — compute, sleeps, the CPU charge of a send or receive,
//! its own clocks and monitors, its TX NIC — moves the local clock and
//! queues nothing. The engine clock, and every operation on state another
//! rank can observe (mailboxes, RX NICs, load timelines, liveness), still
//! advances through the one `(time, pid, seq)` queue: a cross-node send
//! leaves its RX half behind as a *landing* entry that `dispatch_next`
//! executes in place, and a blocking receive folds the rank's catch-up into
//! its block (see `ctx.rs`). One rank per node (`Cluster::run_spmd` maps
//! pid → node as the identity) is what gives every piece of node state a
//! single writer.

use std::cell::{RefCell, RefMut};
use std::collections::BinaryHeap;
use std::ops::Deref;
use std::sync::Arc;

use crate::cpu::CpuSched;
use crate::fiber;
use crate::mailbox::Mailbox;
use crate::monitor::BlockHistory;
use crate::network::Network;
use crate::time::{SimDur, SimTime};
use crate::timeline::NcpTimeline;

/// One entry of the engine's queue, dispatched in [`Event::key`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    pub time: SimTime,
    pub pid: usize,
    pub seq: u64,
    pub kind: EventKind,
}

impl Event {
    /// Asserts that the fields fit [`Event::key`]: a pid below 2^24 (the
    /// engine's first pushes check every rank's) and a seq below 2^40.
    pub fn new(time: SimTime, pid: usize, seq: u64, kind: EventKind) -> Self {
        assert!(pid < 1 << 24, "pid {pid} exceeds the event key's 24 bits");
        assert!(seq < 1 << 40, "seq {seq} exceeds the event key's 40 bits");
        Event {
            time,
            pid,
            seq,
            kind,
        }
    }

    /// `time << 64 | pid << 40 | seq`, the order `(time, pid, seq)`: at equal
    /// times the lowest rank runs first whatever the push order, so a landing
    /// queued by a rank running ahead dispatches where an eager send would.
    pub fn key(&self) -> u128 {
        (self.time.0 as u128) << 64 | (self.pid as u128) << 40 | self.seq as u128
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A scheduled wake-up for process `pid`. `epoch` stamps the process's
    /// wake generation at push time: the event is live only while the
    /// process has not been dispatched since. A blocked receiver may
    /// accumulate several candidate wake-ups (a known pending arrival plus
    /// one per matching delivery); the earliest dispatches, and the
    /// dispatch bumps the epoch so the rest die in place.
    Wake { epoch: u64 },
    /// The fail-stop instant of `pid`'s node, queued once per rank, the
    /// first time the rank blocks: it wakes the rank whenever the rank is
    /// blocked at that instant, however many blocks came before (the loop
    /// head of the receive then turns the wake into the death). A rank
    /// that is not blocked when it comes due is past its crash time or
    /// about to be (see `EngineState::event_live`), so the entry dies.
    FailStop,
    /// The RX half of a cross-node send that `pid` posted at `time` on its
    /// local clock: the engine lands `EngineState::landings[slot]` when the
    /// entry reaches the queue head — the position at which an eager send
    /// would have run it. Always live, whatever became of the sender.
    Landing { slot: usize },
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The queue is a max-heap: invert so the least key pops first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An in-flight or delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u64,
    /// Virtual time the sender posted the message (lets the receiver split
    /// its wait into late-sender vs. network time locally).
    pub sent: SimTime,
    pub arrival: SimTime,
    /// Per-sender sequence number (program order on the sending rank).
    /// `(sent, src, seq)` is the canonical total order on messages.
    pub seq: u64,
    /// RX-NIC queueing this frame paid (fan-in contention), carried to the
    /// receiver for trace attribution.
    pub rx_queued: SimDur,
    pub payload: Payload,
}

/// A message body: owned by the message, or an immutable buffer its sender
/// shares ([`crate::SimCtx::send_shared`]), which a shared receive hands
/// on as it is — sender and receiver then hold one buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Payload {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Payload {
    /// The bytes as an owned vector: a shared buffer is copied unless the
    /// message held its last reference.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => Arc::unwrap_or_clone(a),
        }
    }

    /// The bytes as a shared buffer: an owned one is moved behind a new
    /// `Arc`, a shared one handed on.
    pub fn into_shared(self) -> Arc<Vec<u8>> {
        match self {
            Payload::Owned(v) => Arc::new(v),
            Payload::Shared(a) => a,
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => a,
        }
    }
}

/// A cross-NIC message whose sender already ran the TX half of the network
/// model (`tx_free`, serialization, latency): the payload of a
/// [`EventKind::Landing`], whose dispatch runs the RX half.
#[derive(Debug)]
pub(crate) struct OutMsg {
    pub env: Envelope,
    pub dst: usize,
    pub dst_node: usize,
    pub bytes: usize,
    /// First bit reaches the destination NIC at this instant.
    pub rx_ready: SimTime,
    /// Sender-side serialization completes at this instant (lower-bounds
    /// the arrival for asymmetric NIC rates).
    pub tx_end: SimTime,
}

/// What a blocked receiver is waiting for. `src == None` matches any sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RecvWait {
    pub src: Option<usize>,
    pub tag: u64,
}

impl RecvWait {
    pub fn matches(&self, env: &Envelope) -> bool {
        self.tag == env.tag && self.src.is_none_or(|s| s == env.src)
    }
}

/// Run state of a simulated process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// Has a wake event in the queue (computing or sleeping).
    Scheduled,
    /// Currently holds the turn.
    Running,
    /// Waiting for a message; wake events are pushed as candidate
    /// arrivals become known.
    BlockedRecv(RecvWait),
    /// Program returned.
    Finished,
    /// Killed by a scripted fail-stop crash: stopped executing at the
    /// crash time, never finishes. Dead for dispatch like `Finished`, but
    /// reported separately.
    Crashed,
}

/// Per-process bookkeeping.
#[derive(Debug)]
pub(crate) struct ProcState {
    pub node: usize,
    pub status: Status,
    /// Exact accumulated CPU run time (the `/proc` counter before
    /// read-granularity truncation).
    pub cpu_time: SimDur,
    pub mailbox: Mailbox,
    /// Wake generation: bumped every time this process is dispatched;
    /// queued events from earlier generations are dead.
    pub epoch: u64,
    /// The rank-local clock: this rank's own virtual time. Equal to the
    /// engine clock when the rank is dispatched and after every catch-up,
    /// ahead of it while the rank runs rank-local operations in fast mode;
    /// while the rank is blocked at a receive, the time it entered it
    /// (no wake-up may precede that).
    pub local: SimTime,
    /// Messages sent by this rank so far (the per-sender `Envelope::seq`).
    pub send_seq: u64,
    pub msgs_sent: u64,
    pub msgs_recvd: u64,
    pub bytes_sent: u64,
    pub bytes_recvd: u64,
    pub finish_time: SimTime,
    /// Whether this rank's [`EventKind::FailStop`] entry has been queued.
    pub failstop_queued: bool,
}

impl ProcState {
    fn new(node: usize) -> Self {
        ProcState {
            node,
            status: Status::Scheduled,
            cpu_time: SimDur::ZERO,
            mailbox: Mailbox::default(),
            epoch: 0,
            local: SimTime::ZERO,
            send_seq: 0,
            msgs_sent: 0,
            msgs_recvd: 0,
            bytes_sent: 0,
            bytes_recvd: 0,
            finish_time: SimTime::ZERO,
            failstop_queued: false,
        }
    }
}

/// Per-node bookkeeping.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub sched: CpuSched,
    pub timeline: NcpTimeline,
    pub cycle_count: u64,
    /// Cycle-triggered load changes: `(cycle, ncp)` sorted by cycle; fired
    /// when this node's application completes that phase cycle.
    pub cycle_events: Vec<(u64, u32)>,
    pub blocks: BlockHistory,
    /// Virtual time this node's monitors start reporting it online:
    /// `SimTime::ZERO` for seed nodes, `at + cold_start` for scripted
    /// arrivals. Before this instant `dmpi_ps` reads 0 (no daemon yet).
    pub online_at: SimTime,
    /// Scripted crash time: from this instant the node's NIC drops every
    /// frame (in-flight and future, both directions) and remote monitor
    /// reads of the node return 0. Static per-node data, so a landing can
    /// decide the drop of a frame whose arrival lies beyond the crashing
    /// node's own execution frontier.
    pub crash_at: Option<SimTime>,
    /// `true` for a scripted network *partition*: the NIC and remote
    /// monitors die at `crash_at` but the node's ranks keep executing
    /// (and can observe their own receive timeouts). `false` = fail-stop:
    /// the ranks also halt at the crash time.
    pub partitioned: bool,
}

pub(crate) struct EngineState {
    pub clock: SimTime,
    pub queue: BinaryHeap<Event>,
    pub procs: Vec<ProcState>,
    pub nodes: Vec<NodeState>,
    pub net: Network,
    pub current: Option<usize>,
    /// Ranks that have neither finished nor crashed.
    pub live: usize,
    pub seq: u64,
    /// Payloads of the queued [`EventKind::Landing`] entries, and the
    /// slots free for reuse.
    landings: Vec<Option<OutMsg>>,
    free_slots: Vec<usize>,
    /// Run the per-slice stepped CPU path ([`crate::Cluster::with_stepped`]): the
    /// test oracle the closed-form fast-forward is validated against.
    pub stepped: bool,
    /// Queue entries pushed over the run, wake-ups and landings — the cost
    /// metric the fast path exists to shrink.
    pub events_pushed: u64,
    /// Queue entries popped or pruned dead, never dispatched.
    pub events_stale: u64,
    /// Clock advances that did not give up the turn: rank-local advances
    /// plus engine catch-ups made in place.
    pub bypasses: u64,
    /// Turns given to a different rank.
    pub hand_offs: u64,
    pub panic_msg: Option<String>,
    /// Rank whose panic poisoned the run, so the runner can re-raise the
    /// original payload rather than a secondary unwind.
    pub panic_origin: Option<usize>,
}

impl EngineState {
    /// An engine with one wake-up per process queued at t = 0.
    pub fn new(nodes: Vec<NodeState>, proc_nodes: &[usize], net: Network) -> Self {
        let mut st = EngineState {
            clock: SimTime::ZERO,
            queue: BinaryHeap::new(),
            procs: proc_nodes.iter().map(|&n| ProcState::new(n)).collect(),
            nodes,
            net,
            current: None,
            live: proc_nodes.len(),
            seq: 0,
            landings: Vec::new(),
            free_slots: Vec::new(),
            stepped: false,
            events_pushed: 0,
            events_stale: 0,
            bypasses: 0,
            hand_offs: 0,
            panic_msg: None,
            panic_origin: None,
        };
        for pid in 0..st.procs.len() {
            st.push_event(SimTime::ZERO, pid);
        }
        st
    }

    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// May a running rank's local clock run ahead of the engine clock?
    /// Not in stepped mode (the fully eager oracle), and not on a
    /// zero-latency network: there a frame lands and a daemon report
    /// crosses the wire the instant they are sent, so a same-instant send
    /// or monitor read could tell a folded catch-up from an eager one.
    pub fn runs_ahead(&self) -> bool {
        !self.stepped && self.net.params().latency > SimDur::ZERO
    }

    fn push(&mut self, time: SimTime, pid: usize, kind: EventKind) {
        let seq = self.next_seq();
        self.events_pushed += 1;
        self.queue.push(Event::new(time, pid, seq, kind));
    }

    pub fn push_event(&mut self, time: SimTime, pid: usize) {
        let epoch = self.procs[pid].epoch;
        self.push(time, pid, EventKind::Wake { epoch });
    }

    /// Queues `pid`'s fail-stop wake at `at`, unless it is already queued.
    pub fn push_failstop(&mut self, at: SimTime, pid: usize) {
        if !std::mem::replace(&mut self.procs[pid].failstop_queued, true) {
            self.push(at, pid, EventKind::FailStop);
        }
    }

    /// Queues the RX half of a cross-node send posted ahead of the engine
    /// clock, keyed `(sent, src, seq)` — the canonical message order.
    pub fn push_landing(&mut self, m: OutMsg) {
        let (sent, src) = (m.env.sent, m.env.src);
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.landings[slot] = Some(m);
                slot
            }
            None => {
                self.landings.push(Some(m));
                self.landings.len() - 1
            }
        };
        self.push(sent, src, EventKind::Landing { slot });
    }

    /// May `ev` still dispatch? A fail-stop wake stays live while its rank
    /// is blocked, or runs (only the rank that calls `prune_stale_heads`
    /// runs) short of the crash instant: it may block before then. A
    /// scheduled rank's own wake-up is due no earlier than a fail-stop
    /// entry at the queue head, and a rank at or past its crash instant
    /// dies at its next operation boundary, before it could block again —
    /// neither needs the entry any more.
    fn event_live(&self, ev: &Event) -> bool {
        let p = &self.procs[ev.pid];
        match ev.kind {
            EventKind::Landing { .. } => true,
            EventKind::Wake { epoch } => {
                epoch == p.epoch && !matches!(p.status, Status::Finished | Status::Crashed)
            }
            EventKind::FailStop => match p.status {
                Status::BlockedRecv(_) => true,
                Status::Running => p.local < ev.time,
                Status::Scheduled | Status::Finished | Status::Crashed => false,
            },
        }
    }

    /// Is `node`'s NIC dead (crashed or partitioned) at virtual time `t`?
    /// Pure static data: safe to evaluate for any `t`, however far ahead of
    /// the node's own execution.
    pub fn nic_dead_at(&self, node: usize, t: SimTime) -> bool {
        self.nodes[node].crash_at.is_some_and(|c| t >= c)
    }

    /// The fail-stop halt time of `node`'s ranks, if any. Partitioned
    /// nodes keep executing, so they have no halt time.
    pub fn failstop_at(&self, node: usize) -> Option<SimTime> {
        match self.nodes[node].partitioned {
            true => None,
            false => self.nodes[node].crash_at,
        }
    }

    /// Drops dead queue heads — events from an older wake generation, or
    /// for finished procs — so callers can inspect the earliest *live*
    /// event.
    pub fn prune_stale_heads(&mut self) {
        while let Some(ev) = self.queue.peek() {
            if self.event_live(ev) {
                return;
            }
            self.queue.pop();
            self.events_stale += 1;
        }
    }

    /// The RX half of a cross-node send: lands the frame on the destination
    /// NIC and files it. One code path for the eager send and a dispatched
    /// landing — both run it in the canonical `(sent, src, seq)` order.
    pub fn land(&mut self, mut m: OutMsg) {
        let (arrival, rx_queued) = self.net.rx_land(m.dst_node, m.bytes, m.rx_ready, m.tx_end);
        m.env.arrival = arrival;
        m.env.rx_queued = rx_queued;
        self.deliver(m.dst, m.env);
    }

    /// Files a delivered message with the destination process and, if it
    /// is blocked on a matching receive, queues a wake-up at the arrival —
    /// or at the time the receiver entered that receive, when it did so
    /// ahead of the engine clock and the frame beat it there.
    ///
    /// Cross-NIC frames touching a dead NIC — the sender's or the
    /// receiver's node crashed/partitioned at or before the arrival — are
    /// dropped here, after the network already charged tx/rx (a dead NIC's
    /// frames still occupied the wire). Same-node delivery
    /// never crosses a NIC, so a partitioned node still talks to itself.
    pub fn deliver(&mut self, dst: usize, env: Envelope) {
        let src_node = self.procs[env.src].node;
        let dst_node = self.procs[dst].node;
        if src_node != dst_node
            && (self.nic_dead_at(src_node, env.arrival) || self.nic_dead_at(dst_node, env.arrival))
        {
            return;
        }
        let wake = matches!(self.procs[dst].status, Status::BlockedRecv(w) if w.matches(&env));
        let arrival = env.arrival;
        self.procs[dst].mailbox.push(env);
        if wake {
            self.push_event(arrival.max(self.procs[dst].local), dst);
        }
    }

    /// The virtual time a deadlocked run is stuck at: the entry time of the
    /// latest blocked receive, or the engine clock if that is later (a
    /// receive entered ahead of the engine clock with no wake-up candidate
    /// leaves the engine clock behind).
    pub fn stuck_time(&self) -> SimTime {
        self.procs
            .iter()
            .filter(|p| matches!(p.status, Status::BlockedRecv(_)))
            .map(|p| p.local)
            .fold(self.clock, SimTime::max)
    }

    /// One `rank N waiting tag=.. src=.., mailbox depth D` clause per
    /// stuck (blocked-at-recv) rank — the first thing needed when a crash
    /// test hangs, and the body of the deadlock diagnosis.
    pub fn stuck_recv_details(&self) -> Vec<(usize, String)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(pid, p)| match p.status {
                Status::BlockedRecv(w) => {
                    let src = match w.src {
                        Some(s) => s.to_string(),
                        None => "any".to_string(),
                    };
                    Some((
                        pid,
                        format!(
                            "rank {pid} waiting tag={} src={src}, mailbox depth {}",
                            w.tag,
                            p.mailbox.len()
                        ),
                    ))
                }
                _ => None,
            })
            .collect()
    }

    /// Pops live events in order, advancing the clock: landings are
    /// executed in place, the first wake-up gets the turn. Returns `false`
    /// when nothing is left to dispatch — the run drained, or (with ranks
    /// still live) deadlocked, which sets the diagnosis as `panic_msg`.
    pub fn dispatch_next(&mut self) -> bool {
        while let Some(ev) = self.queue.pop() {
            if !self.event_live(&ev) {
                self.events_stale += 1;
                continue;
            }
            debug_assert!(ev.time >= self.clock, "event in the past");
            self.clock = self.clock.max(ev.time);
            match ev.kind {
                EventKind::Landing { slot } => {
                    let m = self.landings[slot]
                        .take()
                        .expect("a queued landing keeps its slot filled");
                    self.free_slots.push(slot);
                    self.land(m);
                }
                EventKind::Wake { .. } | EventKind::FailStop => {
                    let p = &mut self.procs[ev.pid];
                    debug_assert!(self.clock >= p.local, "woken before its own time");
                    p.epoch += 1; // kill this proc's other queued wake-ups
                    p.status = Status::Running;
                    p.local = self.clock;
                    self.current = Some(ev.pid);
                    return true;
                }
            }
        }
        if self.live > 0 {
            let details = self.stuck_recv_details();
            let stuck: Vec<usize> = details.iter().map(|&(pid, _)| pid).collect();
            let clauses: Vec<&str> = details.iter().map(|(_, d)| d.as_str()).collect();
            self.panic_msg = Some(format!(
                "simulation deadlock at {}: no pending events, ranks {stuck:?} \
                 blocked at recv ({})",
                self.stuck_time(),
                clauses.join("; ")
            ));
        }
        self.current = None;
        false
    }
}

/// Shared engine handle.
///
/// Every rank is a fiber on the thread that called `Cluster::run_spmd`
/// (see `fiber.rs`), so the turn is the thread: a rank that gives the turn
/// away suspends, and the run's loop resumes whichever rank
/// `EngineState::current` names next. One thread means no lock: the state
/// is a `RefCell` (which makes `Shared`, and every `SimCtx`, `!Sync`), and
/// a borrow held across a fiber switch panics "already borrowed" on the
/// next rank's first engine call instead of deadlocking.
pub(crate) struct Shared {
    pub state: RefCell<EngineState>,
}

impl Shared {
    pub fn new(state: EngineState) -> Self {
        Shared {
            state: RefCell::new(state),
        }
    }

    /// Suspends the calling rank until it holds the turn, and returns the
    /// engine borrow it observed that under; panics with the diagnosis once
    /// the run has failed. The rank's tracing scope is set aside while it
    /// is suspended, so whichever rank runs next emits into its own.
    ///
    /// No engine call may be made from a `Drop`: a rank must never suspend
    /// while its thread unwinds, because the panic count belongs to the one
    /// OS thread all ranks share. A suspension while panicking therefore
    /// aborts, naming the rank.
    pub fn wait_turn(&self, pid: usize) -> RefMut<'_, EngineState> {
        loop {
            let st = self.state.borrow_mut();
            if let Some(msg) = &st.panic_msg {
                let msg = msg.clone();
                drop(st);
                panic!("{msg}");
            }
            if st.current == Some(pid) {
                return st;
            }
            drop(st);
            if std::thread::panicking() {
                eprintln!(
                    "dynmpi-sim: rank {pid} gave up the turn while unwinding \
                     (an engine call from a Drop?); aborting"
                );
                std::process::abort();
            }
            let scope = dynmpi_obs::detach_scope();
            fiber::suspend();
            drop(scope);
        }
    }

    /// Gives the turn away — the one function every site that changed
    /// `current` (or failed the run) goes through. Ends the engine borrow;
    /// the rank then suspends in [`Shared::wait_turn`] and the run's loop
    /// resumes the next owner (every rank, once the run has failed). Each
    /// turn handed to a rank is counted in `EngineState::hand_offs`.
    pub fn hand_off(&self, mut st: RefMut<'_, EngineState>) {
        if st.current.is_some() && st.panic_msg.is_none() {
            st.hand_offs += 1;
        }
    }

    /// Marks the simulation as failed, so every rank unwinds when it is
    /// next resumed.
    pub fn poison(&self, origin: usize, msg: String) {
        let mut st = self.state.borrow_mut();
        if st.panic_msg.is_none() {
            st.panic_msg = Some(msg);
            st.panic_origin = Some(origin);
        }
        st.current = None;
        self.hand_off(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{NetParams, NodeSpec, OsParams};

    fn state(nprocs: usize) -> EngineState {
        let nodes = (0..nprocs)
            .map(|_| NodeState {
                sched: CpuSched::new(NodeSpec::default(), OsParams::default()),
                timeline: NcpTimeline::new(),
                cycle_count: 0,
                cycle_events: Vec::new(),
                blocks: BlockHistory::new(),
                online_at: SimTime::ZERO,
                crash_at: None,
                partitioned: false,
            })
            .collect();
        let proc_nodes: Vec<usize> = (0..nprocs).collect();
        EngineState::new(
            nodes,
            &proc_nodes,
            Network::new(nprocs, NetParams::default()),
        )
    }

    #[test]
    fn event_ordering_is_time_then_pid_then_seq() {
        let a = Event {
            time: SimTime::from_secs(1),
            pid: 0,
            seq: 6,
            kind: EventKind::Wake { epoch: 0 },
        };
        let b = Event {
            time: SimTime::from_secs(1),
            pid: 1,
            seq: 5,
            kind: EventKind::Wake { epoch: 0 },
        };
        let c = Event {
            time: SimTime::from_secs(2),
            pid: 0,
            seq: 1,
            kind: EventKind::Wake { epoch: 0 },
        };
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(c);
        heap.push(b);
        heap.push(a);
        // At equal times the lower pid wins even with a higher seq: the
        // dispatch order is (time, pid, seq).
        assert_eq!(heap.pop(), Some(a));
        assert_eq!(heap.pop(), Some(b));
        assert_eq!(heap.pop(), Some(c));
    }

    #[test]
    fn event_key_holds_every_field_at_the_top_of_its_range() {
        let wake = EventKind::Wake { epoch: 0 };
        let (pid, seq) = ((1 << 24) - 1, (1 << 40) - 1);
        let top = Event::new(SimTime::MAX, pid, seq, wake);
        assert_eq!(top.key(), u128::MAX, "no field spills into another");
        // Each field still orders below the one above it: a full seq under
        // a lower pid, a full pid under an earlier time.
        let lower_pid = Event::new(SimTime::MAX, pid - 1, seq, wake);
        let lower_seq = Event::new(SimTime::MAX, pid, seq - 1, wake);
        let earlier = Event::new(SimTime(u64::MAX - 1), pid, seq, wake);
        assert!(lower_pid.key() < Event::new(SimTime::MAX, pid, 0, wake).key());
        assert!(lower_seq.key() < top.key());
        assert!(earlier.key() < Event::new(SimTime::MAX, 0, 0, wake).key());
        // The max-heap pops the least key first.
        assert!(top < lower_seq && lower_seq < lower_pid && lower_pid < earlier);
    }

    #[test]
    #[should_panic(expected = "exceeds the event key's 24 bits")]
    fn event_key_rejects_a_pid_past_its_bits() {
        Event::new(SimTime::ZERO, 1 << 24, 0, EventKind::FailStop);
    }

    #[test]
    #[should_panic(expected = "exceeds the event key's 40 bits")]
    fn event_key_rejects_a_seq_past_its_bits() {
        Event::new(SimTime::ZERO, 0, 1 << 40, EventKind::FailStop);
    }

    #[test]
    fn dispatch_picks_lowest_pid_first_at_t0() {
        let mut st = state(3);
        assert!(st.dispatch_next());
        assert_eq!(st.current, Some(0));
        assert_eq!(st.clock, SimTime::ZERO);
    }

    #[test]
    fn stale_events_are_skipped() {
        let mut st = state(2);
        // Proc 1 finished; its initial event must be skipped.
        st.procs[1].status = Status::Finished;
        st.live = 1;
        assert!(st.dispatch_next());
        assert_eq!(st.current, Some(0));
        st.procs[0].status = Status::Finished;
        st.live = 0;
        assert!(!st.dispatch_next());
        assert!(st.panic_msg.is_none());
        assert_eq!(st.events_stale, 1, "proc 1's wake-up died unpopped");
    }

    #[test]
    fn epoch_mismatch_invalidates_events() {
        let mut st = state(1);
        // A second wake-up for proc 0 at a later time…
        st.push_event(SimTime::from_millis(5), 0);
        // …then the proc is dispatched (epoch bumps), re-scheduled, and
        // wakes at an even later time: both old events are now dead.
        assert!(st.dispatch_next());
        st.procs[0].status = Status::Scheduled;
        st.push_event(SimTime::from_millis(9), 0);
        assert!(st.dispatch_next());
        assert_eq!(st.clock, SimTime::from_millis(9));
        assert!(st.queue.is_empty(), "stale epoch events must be consumed");
    }

    #[test]
    fn failstop_wake_is_queued_once_and_kept_while_it_can_matter() {
        let mut st = state(2);
        st.queue.clear();
        let crash = SimTime::from_millis(5);
        st.push_failstop(crash, 1);
        st.push_failstop(crash, 1);
        assert_eq!(st.queue.len(), 1, "queued once per rank");
        // Running short of the crash instant, the rank may still block
        // before it: the entry stays.
        st.procs[1].status = Status::Running;
        st.procs[1].local = SimTime::from_millis(4);
        st.prune_stale_heads();
        assert_eq!(st.queue.len(), 1);
        // At the crash instant the rank dies at its next operation
        // boundary, before it could block: the entry goes.
        st.procs[1].local = crash;
        st.prune_stale_heads();
        assert!(st.queue.is_empty());
        assert_eq!(st.events_stale, 1);
    }

    #[test]
    fn failstop_wake_dispatches_only_a_blocked_rank() {
        let mut st = state(2);
        st.queue.clear();
        // Proc 1 is scheduled past its crash instant: its own wake-up is
        // what runs it, so its fail-stop entry dies unpopped.
        st.procs[1].status = Status::Scheduled;
        st.push_failstop(SimTime::from_millis(3), 1);
        st.push_event(SimTime::from_millis(7), 1);
        // Proc 0 is blocked on a receive nothing will match.
        st.procs[0].status = Status::BlockedRecv(RecvWait { src: None, tag: 1 });
        st.push_failstop(SimTime::from_millis(5), 0);
        assert!(st.dispatch_next());
        assert_eq!((st.current, st.clock), (Some(0), SimTime::from_millis(5)));
        assert_eq!(st.events_stale, 1);
        st.procs[0].status = Status::Crashed;
        assert!(st.dispatch_next());
        assert_eq!((st.current, st.clock), (Some(1), SimTime::from_millis(7)));
    }

    #[test]
    fn deadlock_is_detected() {
        let mut st = state(1);
        st.queue.clear();
        st.procs[0].status = Status::BlockedRecv(RecvWait {
            src: Some(0),
            tag: 1,
        });
        assert!(!st.dispatch_next());
        let msg = st.panic_msg.expect("deadlock should be flagged");
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("[0]"), "{msg}");
        // The diagnosis names the pending recv and the mailbox depth.
        assert!(msg.contains("tag=1"), "{msg}");
        assert!(msg.contains("src=0"), "{msg}");
        assert!(msg.contains("mailbox depth 0"), "{msg}");
    }

    #[test]
    fn stuck_recv_details_report_wait_and_depth() {
        let mut st = state(2);
        st.procs[1].status = Status::BlockedRecv(RecvWait { src: None, tag: 9 });
        st.procs[1].mailbox.push(Envelope {
            src: 0,
            tag: 3, // non-matching tag: deepens the mailbox, not the wait
            sent: SimTime::ZERO,
            arrival: SimTime::ZERO,
            seq: 1,
            rx_queued: SimDur::ZERO,
            payload: Payload::Owned(vec![]),
        });
        let details = st.stuck_recv_details();
        assert_eq!(details.len(), 1);
        assert_eq!(details[0].0, 1);
        assert!(details[0].1.contains("tag=9"), "{}", details[0].1);
        assert!(details[0].1.contains("src=any"), "{}", details[0].1);
        assert!(details[0].1.contains("mailbox depth 1"), "{}", details[0].1);
    }

    #[test]
    fn dead_nic_drops_cross_node_frames_both_directions() {
        let mut st = state(3);
        st.queue.clear();
        st.nodes[1].crash_at = Some(SimTime::from_millis(5));
        let env = |src: usize, arrival_ms: u64| Envelope {
            src,
            tag: 0,
            sent: SimTime::ZERO,
            arrival: SimTime::from_millis(arrival_ms),
            seq: 1,
            rx_queued: SimDur::ZERO,
            payload: Payload::Owned(vec![]),
        };
        // Before the crash: delivered.
        st.deliver(1, env(0, 4));
        assert_eq!(st.procs[1].mailbox.len(), 1);
        // At/after the crash: frames to and from the dead NIC are dropped.
        st.deliver(1, env(0, 5));
        assert_eq!(st.procs[1].mailbox.len(), 1);
        st.deliver(2, env(1, 7));
        assert_eq!(st.procs[2].mailbox.len(), 0);
        // Frames between two live NICs still flow.
        st.deliver(2, env(0, 7));
        assert_eq!(st.procs[2].mailbox.len(), 1);
    }

    #[test]
    fn crashed_status_kills_queued_events() {
        let mut st = state(2);
        st.procs[1].status = Status::Crashed;
        st.live = 1;
        assert!(st.dispatch_next());
        assert_eq!(st.current, Some(0), "crashed rank's event must be dead");
    }

    #[test]
    fn failstop_vs_partition_halt_semantics() {
        let mut st = state(2);
        st.nodes[0].crash_at = Some(SimTime::from_secs(1));
        st.nodes[1].crash_at = Some(SimTime::from_secs(2));
        st.nodes[1].partitioned = true;
        // Fail-stop node: ranks halt at the crash time.
        assert_eq!(st.failstop_at(0), Some(SimTime::from_secs(1)));
        // Partitioned node: NIC dead, ranks keep running.
        assert_eq!(st.failstop_at(1), None);
        assert!(st.nic_dead_at(1, SimTime::from_secs(2)));
        assert!(!st.nic_dead_at(1, SimTime::from_millis(1999)));
    }

    #[test]
    fn recv_wait_matching() {
        let env = Envelope {
            src: 3,
            tag: 7,
            sent: SimTime::ZERO,
            arrival: SimTime::ZERO,
            seq: 0,
            rx_queued: SimDur::ZERO,
            payload: Payload::Owned(vec![]),
        };
        assert!(RecvWait {
            src: Some(3),
            tag: 7
        }
        .matches(&env));
        assert!(RecvWait { src: None, tag: 7 }.matches(&env));
        assert!(!RecvWait {
            src: Some(2),
            tag: 7
        }
        .matches(&env));
        assert!(!RecvWait {
            src: Some(3),
            tag: 8
        }
        .matches(&env));
    }

    #[test]
    fn proc_mailbox_delivers_in_arrival_seq_order() {
        // The mailbox behind ProcState matches in the canonical order; the
        // full oracle suite lives in `mailbox.rs`.
        let mut p = ProcState::new(0);
        let mk = |seq, arrival_ms| Envelope {
            src: 1,
            tag: 0,
            sent: SimTime::ZERO,
            arrival: SimTime::from_millis(arrival_ms),
            seq,
            rx_queued: SimDur::ZERO,
            payload: Payload::Owned(vec![seq as u8]),
        };
        p.mailbox.push(mk(2, 5));
        p.mailbox.push(mk(1, 5));
        p.mailbox.push(mk(3, 1));
        let wait = RecvWait {
            src: Some(1),
            tag: 0,
        };
        let now = SimTime::from_millis(10);
        assert_eq!(p.mailbox.pop_ready(wait, now).unwrap().seq, 3); // earliest arrival
        assert_eq!(p.mailbox.pop_ready(wait, now).unwrap().seq, 1); // seq breaks tie
    }

    #[test]
    fn deliver_wakes_matching_blocked_receiver() {
        let mut st = state(2);
        st.queue.clear();
        st.procs[0].status = Status::BlockedRecv(RecvWait { src: None, tag: 4 });
        st.deliver(
            0,
            Envelope {
                src: 1,
                tag: 4,
                sent: SimTime::ZERO,
                arrival: SimTime::from_millis(7),
                seq: 1,
                rx_queued: SimDur::ZERO,
                payload: Payload::Owned(vec![]),
            },
        );
        assert!(st.dispatch_next());
        assert_eq!(st.current, Some(0));
        assert_eq!(st.clock, SimTime::from_millis(7));
    }

    #[test]
    fn prune_stale_heads_drops_only_dead_events() {
        let mut st = state(2);
        // Proc 1's initial event is from a previous wake generation.
        st.procs[1].epoch += 1;
        st.prune_stale_heads();
        // Proc 0's live event survives in front of proc 1's stale one.
        assert_eq!(st.queue.peek().map(|e| e.pid), Some(0));
        st.queue.pop();
        st.prune_stale_heads();
        assert!(st.queue.peek().is_none(), "stale event must be dropped");
    }
}
