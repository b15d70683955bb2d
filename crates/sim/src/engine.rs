//! Conservative discrete-event engine core.
//!
//! Every simulated rank runs as a real OS thread so application code can be
//! ordinary imperative Rust (loops, sends, receives), but within one
//! *shard* **exactly one** simulation thread executes at a time: a thread
//! that blocks in virtual time hands the "turn" to the thread owning the
//! earliest pending event. Event order is a total order on
//! `(virtual time, pid, sequence number)`, so a run is a deterministic
//! function of its inputs.
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
//!
//! A sharded run (see [`crate::shard`]) builds one `EngineState` per
//! shard; each owns a contiguous pid range and advances only up to its
//! `window_end` (the conservative lookahead bound). Cross-NIC messages
//! are queued in `outbox` and applied by the coordinator at the window
//! barrier in canonical `(sent, src, seq)` order — exactly the order a
//! single-shard run applies them in, which is what keeps `SimReport`s
//! bit-identical across `--shards` values.

use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use crate::sync::{Mutex, MutexGuard};

use crate::cpu::CpuSched;
use crate::equeue::EventQueue;
use crate::mailbox::Mailbox;
use crate::monitor::BlockHistory;
use crate::network::Network;
use crate::shard::{MonBoard, OutMsg, WindowSync};
use crate::time::{SimDur, SimTime};
use crate::timeline::NcpTimeline;

/// One entry of the engine's queue, dispatched in `(time, pid, seq)` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    pub time: SimTime,
    pub pid: usize,
    pub seq: u64,
    pub kind: EventKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// A scheduled wake-up for process `pid`. `epoch` stamps the process's
    /// wake generation at push time: the event is live only while the
    /// process has not been dispatched since. A blocked receiver may
    /// accumulate several candidate wake-ups (a known pending arrival plus
    /// one per matching delivery); the earliest dispatches, and the
    /// dispatch bumps the epoch so the rest die in place.
    Wake { epoch: u64 },
    /// The RX half of a cross-node send that `pid` posted at `time` on its
    /// local clock: the engine lands `EngineState::landings[slot]` when the
    /// entry reaches the queue head — the position at which an eager send
    /// would have run it. Always live, whatever became of the sender.
    Landing { slot: usize },
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap (the test oracle) is a max-heap; invert so the
        // earliest event pops first. `pid` before `seq`: at equal times
        // the lowest rank runs first regardless of push order, which is
        // what makes the cross-shard message order reproducible.
        (other.time, other.pid, other.seq, other.kind)
            .cmp(&(self.time, self.pid, self.seq, self.kind))
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
    pub payload: Vec<u8>,
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
}

impl ProcState {
    fn new(node: usize) -> Self {
        ProcState {
            node,
            status: Status::Scheduled,
            cpu_time: SimDur::ZERO,
            mailbox: Mailbox::new(),
            epoch: 0,
            local: SimTime::ZERO,
            send_seq: 0,
            msgs_sent: 0,
            msgs_recvd: 0,
            bytes_sent: 0,
            bytes_recvd: 0,
            finish_time: SimTime::ZERO,
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
    /// reads of the node return 0. Static per-node data — identical in
    /// every shard's full-size `nodes` vector, so cross-shard drop
    /// decisions never depend on another shard's execution frontier.
    pub crash_at: Option<SimTime>,
    /// `true` for a scripted network *partition*: the NIC and remote
    /// monitors die at `crash_at` but the node's ranks keep executing
    /// (and can observe their own receive timeouts). `false` = fail-stop:
    /// the ranks also halt at the crash time.
    pub partitioned: bool,
}

pub(crate) struct EngineState {
    pub clock: SimTime,
    pub queue: EventQueue,
    pub procs: Vec<ProcState>,
    pub nodes: Vec<NodeState>,
    pub net: Network,
    pub current: Option<usize>,
    /// Live ranks owned by this shard.
    pub live: usize,
    pub seq: u64,
    /// This shard's index, and the pid → shard map for sharded runs
    /// (`None` for a single-shard engine, which owns every pid).
    pub shard: usize,
    pub owner: Option<Arc<Vec<usize>>>,
    /// Conservative dispatch horizon: events at or beyond it stay queued
    /// until the coordinator opens the next window. `SimTime::MAX` for a
    /// single-shard engine.
    pub window_end: SimTime,
    /// Cross-NIC messages sent this window, drained by the coordinator.
    pub outbox: Vec<OutMsg>,
    /// Payloads of the queued [`EventKind::Landing`] entries (single-shard
    /// engine), and the slots free for reuse.
    landings: Vec<Option<OutMsg>>,
    free_slots: Vec<usize>,
    /// Whether this shard already reported quiescence for the current
    /// window (so it reports exactly once per window).
    pub quiesced: bool,
    pub wsync: Option<Arc<WindowSync>>,
    /// Cross-shard monitor mirror (sharded runs only).
    pub board: Option<Arc<MonBoard>>,
    /// Force the per-slice stepped CPU path (`DYNMPI_SIM_STEPPED=1`): the
    /// reference mode the closed-form fast-forward is validated against.
    pub stepped: bool,
    /// Queue entries pushed over the run, wake-ups and landings — the cost
    /// metric the fast path exists to shrink.
    pub events_pushed: u64,
    /// Clock advances that did not give up the turn: rank-local advances
    /// plus engine catch-ups made in place.
    pub bypasses: u64,
    /// Turns given to a different thread.
    pub hand_offs: u64,
    pub panic_msg: Option<String>,
    /// Rank whose panic poisoned the run, so the runner can re-raise the
    /// original payload rather than a secondary unwind.
    pub panic_origin: Option<usize>,
}

impl EngineState {
    /// Single-shard engine owning every pid (the classic configuration,
    /// and the reference the sharded mode must match bit for bit).
    pub fn new(nodes: Vec<NodeState>, proc_nodes: &[usize], net: Network) -> Self {
        let width = (net.params().latency.0 / 4).max(1);
        let mut st = EngineState {
            clock: SimTime::ZERO,
            queue: EventQueue::new(width),
            procs: proc_nodes.iter().map(|&n| ProcState::new(n)).collect(),
            nodes,
            net,
            current: None,
            live: proc_nodes.len(),
            seq: 0,
            shard: 0,
            owner: None,
            window_end: SimTime::MAX,
            outbox: Vec::new(),
            landings: Vec::new(),
            free_slots: Vec::new(),
            quiesced: false,
            wsync: None,
            board: None,
            stepped: false,
            events_pushed: 0,
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

    /// One shard of a sharded engine: full-size state vectors (indexed by
    /// global pid/node — only this shard's entries are ever touched), with
    /// initial events for owned pids only. Starts quiescent; the
    /// coordinator opens the first window.
    #[allow(clippy::too_many_arguments)]
    pub fn new_sharded(
        nodes: Vec<NodeState>,
        proc_nodes: &[usize],
        net: Network,
        shard: usize,
        owner: Arc<Vec<usize>>,
        wsync: Arc<WindowSync>,
        board: Arc<MonBoard>,
    ) -> Self {
        let mut st = EngineState::new(nodes, proc_nodes, net);
        st.queue = EventQueue::new((st.net.params().latency.0 / 4).max(1));
        st.seq = 0;
        st.events_pushed = 0;
        st.shard = shard;
        st.live = owner.iter().filter(|&&s| s == shard).count();
        st.owner = Some(owner);
        st.window_end = SimTime::ZERO;
        st.quiesced = true;
        st.wsync = Some(wsync);
        st.board = Some(board);
        let owner = st.owner.clone().expect("just set");
        for (pid, &s) in owner.iter().enumerate() {
            if s == shard {
                st.push_event(SimTime::ZERO, pid);
            }
        }
        st
    }

    /// Is this engine one shard of a sharded run?
    pub fn sharded(&self) -> bool {
        self.owner.is_some()
    }

    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// May a running rank's local clock run ahead of the engine clock?
    /// Not in stepped mode (the fully eager oracle), and not on a
    /// zero-latency network: with no lookahead a same-instant send or
    /// monitor read could tell a folded catch-up from an eager one.
    pub fn runs_ahead(&self) -> bool {
        !self.stepped && self.net.params().latency > SimDur::ZERO
    }

    fn push(&mut self, time: SimTime, pid: usize, kind: EventKind) {
        let seq = self.next_seq();
        self.events_pushed += 1;
        self.queue.push(Event {
            time,
            pid,
            seq,
            kind,
        });
    }

    pub fn push_event(&mut self, time: SimTime, pid: usize) {
        let epoch = self.procs[pid].epoch;
        self.push(time, pid, EventKind::Wake { epoch });
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

    fn event_live(&self, ev: &Event) -> bool {
        match ev.kind {
            EventKind::Landing { .. } => true,
            EventKind::Wake { epoch } => {
                epoch == self.procs[ev.pid].epoch
                    && !matches!(
                        self.procs[ev.pid].status,
                        Status::Finished | Status::Crashed
                    )
            }
        }
    }

    /// Is `node`'s NIC dead (crashed or partitioned) at virtual time `t`?
    /// Pure static data: safe to evaluate for any `t` from any shard.
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
        }
    }

    /// Earliest live event time, if any (for the coordinator's `T_min`).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.prune_stale_heads();
        self.queue.peek().map(|e| e.time)
    }

    /// The RX half of a cross-node send: lands the frame on the destination
    /// NIC and files it. One code path for the eager send, a dispatched
    /// landing and the coordinator's window barrier — each calls it in the
    /// canonical `(sent, src, seq)` order.
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
    /// frames still occupied the wire; charging uniformly keeps fast,
    /// stepped and every shard count bit-identical). Same-node delivery
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
    /// stuck (blocked-at-recv) rank owned by this engine — the first
    /// thing needed when a crash test hangs. Used by both the single-shard
    /// deadlock report below and the coordinator's sharded diagnosis.
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

    /// Pops live events **before `window_end`** in order, advancing the
    /// clock: landings are executed in place, the first wake-up gets the
    /// turn. Returns `false` when
    /// nothing is dispatchable — the run drained (single shard), the
    /// window closed (sharded), or a deadlock was detected (single shard;
    /// the sharded equivalent is diagnosed by the coordinator, which sees
    /// every shard).
    pub fn dispatch_next(&mut self) -> bool {
        loop {
            let Some(ev) = self.queue.peek().copied() else {
                if self.window_end == SimTime::MAX && self.live > 0 {
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
                return false;
            };
            if !self.event_live(&ev) {
                self.queue.pop();
                continue;
            }
            // Strict bound: the engine clock — and with it every write to
            // state another rank can observe — always stays below the
            // window end, so every cross-shard observation at `now - L`
            // lands strictly before other shards' mutation frontier. (A
            // rank's *local* clock may pass it; nothing at that time is
            // visible outside the rank's own node.)
            if ev.time >= self.window_end {
                self.current = None;
                return false;
            }
            self.queue.pop();
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
                EventKind::Wake { .. } => {
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
    }

    /// [`Self::dispatch_next`], reporting quiescence to the window
    /// coordinator (once per window) when nothing is dispatchable. All
    /// turn-token call sites use this; the coordinator itself calls
    /// `dispatch_next` and handles the result inline.
    pub fn dispatch_or_quiesce(&mut self) -> bool {
        let ok = self.dispatch_next();
        if !ok && !self.quiesced {
            if let Some(ws) = &self.wsync {
                self.quiesced = true;
                ws.mark_quiescent();
            }
        }
        ok
    }
}

/// Shared engine handle: the state plus one parker per rank thread.
///
/// The turn token is *targeted*: whoever gives the turn away wakes exactly
/// the rank `EngineState::current` names, and only after releasing the
/// engine mutex (see [`Shared::hand_off`]). Waiting ranks sit in
/// `std::thread::park` without holding the lock.
pub(crate) struct Shared {
    pub state: Mutex<EngineState>,
    /// The thread running each pid, registered by its first
    /// [`Shared::wait_turn`]. Outside the mutex so a hand-off can unpark
    /// after unlocking. (A sharded engine only ever fills its own pids.)
    parkers: Vec<OnceLock<Thread>>,
}

impl Shared {
    pub fn new(state: EngineState) -> Self {
        let parkers = state.procs.iter().map(|_| OnceLock::new()).collect();
        Shared {
            state: Mutex::new(state),
            parkers,
        }
    }

    /// Blocks the calling rank thread until it holds the turn, and returns
    /// the engine guard it observed that under.
    ///
    /// The parker is registered *before* `current` is read under the lock,
    /// so a hand-off either finds the parker (its `unpark` token makes the
    /// next `park` return at once) or ran entirely before this thread's
    /// first lock, which then already sees `current == Some(pid)`. Every
    /// wake re-checks under the lock: `park` may return spuriously.
    pub fn wait_turn(&self, pid: usize) -> MutexGuard<'_, EngineState> {
        self.parkers[pid].get_or_init(std::thread::current);
        loop {
            let st = self.state.lock();
            if let Some(msg) = &st.panic_msg {
                let msg = msg.clone();
                drop(st);
                panic!("{msg}");
            }
            if st.current == Some(pid) {
                return st;
            }
            drop(st);
            std::thread::park();
        }
    }

    /// Gives the turn away — the one function every site that changed
    /// `current` (or failed the run) goes through. Reads the next owner,
    /// **releases the engine mutex first**, then unparks exactly that
    /// rank; a failed run (`panic_msg` set: poison, deadlock) unparks
    /// every rank so all of them unwind. Unparking while still holding the
    /// mutex would send the woken thread straight into a block on it.
    /// Each turn handed to a rank is counted in `EngineState::hand_offs`.
    pub fn hand_off(&self, mut st: MutexGuard<'_, EngineState>) {
        let next = st.current;
        let failed = st.panic_msg.is_some();
        if next.is_some() && !failed {
            st.hand_offs += 1;
        }
        drop(st);
        let wake = |p: &OnceLock<Thread>| {
            if let Some(t) = p.get() {
                t.unpark();
            }
        };
        if failed {
            self.parkers.iter().for_each(wake);
        } else if let Some(pid) = next {
            wake(&self.parkers[pid]);
        }
    }

    /// Marks the simulation as failed and wakes everyone so all threads
    /// unwind promptly.
    pub fn poison(&self, origin: usize, msg: String) {
        let mut st = self.state.lock();
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
    fn window_end_parks_future_events() {
        let mut st = state(1);
        st.queue.clear();
        st.procs[0].status = Status::Scheduled;
        st.push_event(SimTime::from_millis(3), 0);
        st.window_end = SimTime::from_millis(2);
        assert!(!st.dispatch_next(), "event beyond the window must wait");
        assert!(st.panic_msg.is_none(), "a closed window is not a deadlock");
        st.window_end = SimTime::from_millis(4);
        assert!(st.dispatch_next());
        assert_eq!(st.clock, SimTime::from_millis(3));
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
            payload: vec![],
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
            payload: vec![],
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
            payload: vec![],
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
        // The indexed mailbox behind ProcState keeps the canonical
        // matching order; the full oracle suite lives in `mailbox.rs`.
        let mut p = ProcState::new(0);
        let mk = |seq, arrival_ms| Envelope {
            src: 1,
            tag: 0,
            sent: SimTime::ZERO,
            arrival: SimTime::from_millis(arrival_ms),
            seq,
            rx_queued: SimDur::ZERO,
            payload: vec![seq as u8],
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
                payload: vec![],
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
