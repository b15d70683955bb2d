//! The per-rank simulation handle.
//!
//! A [`SimCtx`] is what a simulated rank's code uses to interact with the
//! virtual cluster: consume CPU, exchange messages, read clocks and load
//! monitors. Application code just sees blocking calls.
//!
//! In fast mode the rank runs on its **rank-local clock** and gives up the
//! turn only when it has to (the soundness argument is in DESIGN.md §2):
//!
//! 1. operations on the rank's own node — `advance`, `sleep`, the CPU
//!    charge of a send or receive, `now`, CPU readings, own-node monitors,
//!    a `phase_cycle_completed` that fires nothing — move or read the local
//!    clock only;
//! 2. a cross-node `send` runs its TX half at the local time and queues its
//!    RX half as a landing the engine executes in `(sent, src, seq)` order;
//! 3. a blocking receive entered ahead of the engine clock blocks "not
//!    before" its entry time, so the catch-up and the wait are one yield;
//! 4. everything else — `probe`, another node's monitors, a write to the
//!    load timeline, `finish`, a crash — first brings the engine clock up
//!    to the local one ([`SimCtx::catch_up`]).
//!
//! Stepped mode (and a zero-latency network) never runs ahead: there every
//! clock advance is a queued event, the local clock equals the engine
//! clock, and each rule degenerates to the eager behavior.

use std::cell::{OnceCell, RefMut};
use std::rc::Rc;
use std::sync::Arc;

use dynmpi_obs as obs;

use crate::engine::{EngineState, Envelope, OutMsg, Payload, RecvWait, Shared, Status};
use crate::monitor;
use crate::time::{SimDur, SimTime};

/// The engine borrow as the turn holder carries it: taken and returned by
/// value by everything that may hand the turn over, because waiting for the
/// turn ends the borrow and takes a fresh one.
type Guard<'a> = RefMut<'a, EngineState>;

/// Error returned by [`SimCtx::recv_timeout`]: no matching message became
/// deliverable within the timeout window. Carries the receive's match
/// criteria so callers can report *which* peer went silent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvTimeout {
    /// The source the receive was directed at (`None` = any source).
    pub src: Option<usize>,
    /// The tag the receive was matching.
    pub tag: u64,
}

/// Unwind payload of a rank killed by a scripted fail-stop crash. The
/// cluster runner downcasts panic payloads to this marker to tell a
/// simulated death (expected: record and continue) from a real panic
/// (poison the whole run).
pub(crate) struct CrashedRank;

/// A counter of this rank's metrics registry, looked up by name on first
/// use; every later bump is one atomic add (nothing, when the rank had no
/// tracing scope at that first use).
struct RankCounter {
    name: &'static str,
    handle: OnceCell<Option<obs::Counter>>,
}

impl RankCounter {
    fn new(name: &'static str) -> Self {
        RankCounter {
            name,
            handle: OnceCell::new(),
        }
    }

    fn add(&self, n: u64) {
        let handle = self.handle.get_or_init(|| obs::counter_handle(self.name));
        if let Some(c) = handle {
            c.add(n);
        }
    }
}

/// Handle held by one simulated rank.
pub struct SimCtx {
    shared: Rc<Shared>,
    pid: usize,
    nprocs: usize,
    // Mirrors of the `ProcState` counters, so merged per-rank metrics
    // reconcile with `SimReport` totals integer-for-integer.
    msgs_sent: RankCounter,
    bytes_sent: RankCounter,
    msgs_recvd: RankCounter,
    bytes_recvd: RankCounter,
    sched_quanta: RankCounter,
}

impl SimCtx {
    pub(crate) fn new(shared: Rc<Shared>, pid: usize, nprocs: usize) -> Self {
        SimCtx {
            shared,
            pid,
            nprocs,
            msgs_sent: RankCounter::new("sim.msgs_sent"),
            bytes_sent: RankCounter::new("sim.bytes_sent"),
            msgs_recvd: RankCounter::new("sim.msgs_recvd"),
            bytes_recvd: RankCounter::new("sim.bytes_recvd"),
            sched_quanta: RankCounter::new("sim.sched.quanta"),
        }
    }

    /// This rank's virtual time: its local clock (see `ProcState::local`).
    fn local(&self, st: &EngineState) -> SimTime {
        st.procs[self.pid].local
    }

    /// Brings the engine clock up to this rank's local clock — in place if
    /// nothing else is due first, through the queue otherwise — before an
    /// operation that reads or writes state another rank can observe.
    fn catch_up<'a>(&'a self, st: Guard<'a>) -> Guard<'a> {
        let t = self.local(&st);
        if t > st.clock {
            self.advance_to(st, t)
        } else {
            st
        }
    }

    /// Borrows the engine for a read of `node`'s state at this rank's time:
    /// as is for the rank's own node, caught up first for any other (the
    /// local and the engine clock then agree).
    fn reader_of(&self, node: usize) -> Guard<'_> {
        let st = self.shared.state.borrow_mut();
        if st.procs[self.pid].node == node {
            st
        } else {
            self.catch_up(st)
        }
    }

    /// Is this rank's node fail-stop-dead at the rank's time? Checked at
    /// *operation boundaries* only — entry of compute/sleep/send/cycle ops
    /// and each turn of a receive loop — never inside an `advance`, so the
    /// fast and stepped engines charge bit-identical CPU before the death.
    fn crash_due(&self, st: &EngineState) -> bool {
        let node = st.procs[self.pid].node;
        st.failstop_at(node).is_some_and(|c| self.local(st) >= c)
    }

    /// Kills this rank at its current time: marks it [`Status::Crashed`]
    /// (dead for dispatch, reported separately from `Finished`), hands the
    /// turn onward, and unwinds with the [`CrashedRank`] marker the cluster
    /// runner catches. The `sim/crashed` trace instant is what lets the
    /// health monitor treat the node's ensuing silence as permanent.
    fn die_crashed(&self, st: Guard<'_>) -> ! {
        let mut st = self.catch_up(st);
        let clock = st.clock;
        if obs::enabled() {
            let node = st.procs[self.pid].node;
            obs::instant(
                "sim",
                "crashed",
                clock.0,
                vec![("node", obs::Json::UInt(node as u64))],
            );
        }
        st.procs[self.pid].status = Status::Crashed;
        st.procs[self.pid].finish_time = clock;
        st.live -= 1;
        st.dispatch_next();
        self.shared.hand_off(st);
        std::panic::resume_unwind(Box::new(CrashedRank));
    }

    /// This rank's id (also its process id in the engine).
    pub fn rank(&self) -> usize {
        self.pid
    }

    /// Total ranks in the simulation.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The node this rank runs on (one rank per node).
    pub fn node(&self) -> usize {
        let st = self.shared.state.borrow();
        st.procs[self.pid].node
    }

    /// Current virtual time — the `gethrtime` wallclock of §4.2.
    pub fn now(&self) -> SimTime {
        self.local(&self.shared.state.borrow())
    }

    /// Exact accumulated CPU time of this rank (ground truth; real systems
    /// cannot read this directly).
    pub fn cpu_time_exact(&self) -> SimDur {
        self.shared.state.borrow().procs[self.pid].cpu_time
    }

    /// The `/proc` CPU-time *reading*: exact accounting truncated to the
    /// OS accounting tick (10 ms by default), per §4.2.
    pub fn cpu_time_reading(&self) -> SimDur {
        let st = self.shared.state.borrow();
        let p = &st.procs[self.pid];
        let tick = st.nodes[p.node].sched.os().proc_tick;
        p.cpu_time.quantize(tick)
    }

    /// A `dmpi_ps` daemon reading for `node` (updated once per second).
    /// A node that is not yet online has no daemon: the reading is 0.
    ///
    /// Reading a *remote* node's daemon observes the report as of one
    /// network latency ago — the publication had to cross the wire. A rank
    /// reading its own node sees the current second's report.
    pub fn dmpi_ps(&self, node: usize) -> u32 {
        let st = self.reader_of(node);
        let now = self.local(&st);
        if now < st.nodes[node].online_at {
            return 0;
        }
        if st.procs[self.pid].node == node {
            return monitor::dmpi_ps_reading(&st.nodes[node].timeline, now);
        }
        let sample = monitor::monitor_sample_time(now, st.net.params().latency);
        if st.nic_dead_at(node, sample) {
            // The daemon's report cannot cross a dead NIC: a crashed or
            // partitioned node reads as silent remotely (its own rank, if
            // still running, sees itself normally above).
            return 0;
        }
        if st.nic_dead_at(st.procs[self.pid].node, sample) {
            // Symmetric: a partitioned *reader* cannot receive anyone's
            // report either — every remote node looks silent to it.
            return 0;
        }
        monitor::dmpi_ps_reading_at(&st.nodes[node].timeline, sample)
    }

    /// Whether `node` is online (booted/provisioned) at the current
    /// virtual time. Seed nodes are online from t = 0; scripted arrivals
    /// come online at `at + cold_start`.
    pub fn node_online(&self, node: usize) -> bool {
        let st = self.shared.state.borrow();
        self.local(&st) >= st.nodes[node].online_at
    }

    /// Virtual time `node` comes online (`SimTime::ZERO` for seed nodes).
    pub fn online_at(&self, node: usize) -> SimTime {
        self.shared.state.borrow().nodes[node].online_at
    }

    /// A `vmstat`-style reading for `node` (unreliable: misses an
    /// application blocked at a receive — see §4.2). Remote readings lag
    /// one network latency, like [`Self::dmpi_ps`].
    pub fn vmstat(&self, node: usize) -> u32 {
        let st = self.reader_of(node);
        let now = self.local(&st);
        if st.procs[self.pid].node == node {
            return monitor::vmstat_reading(&st.nodes[node].timeline, &st.nodes[node].blocks, now);
        }
        let sample = monitor::monitor_sample_time(now, st.net.params().latency);
        if st.nic_dead_at(node, sample) {
            return 0;
        }
        monitor::vmstat_reading_at(&st.nodes[node].timeline, &st.nodes[node].blocks, sample)
    }

    /// True competing-process count on `node` right now (oracle for tests
    /// and for scripting; real systems only have the monitors above).
    pub fn true_ncp(&self, node: usize) -> u32 {
        let st = self.reader_of(node);
        st.nodes[node].timeline.at(self.local(&st))
    }

    /// Consumes `work` units of CPU (≈flops). Wall time depends on the
    /// node's speed and current competing load; CPU accounting is charged
    /// for time actually run.
    ///
    /// The remaining work is quantized to nanoseconds once up front
    /// ([`crate::CpuSched::work_to_ns`]) and then advanced in exact integer
    /// steps: one scheduler slice at a time when the engine runs stepped
    /// (the test oracle, [`crate::Cluster::with_stepped`]), or the whole
    /// load-script stretch in one closed-form call otherwise. Both paths
    /// produce bit-identical timestamps and CPU accounting; the fast path
    /// moves the rank-local clock and does not touch the event queue at
    /// all.
    pub fn advance(&self, work: f64) {
        if work <= 0.0 {
            return;
        }
        let st = self.shared.state.borrow_mut();
        if self.crash_due(&st) {
            self.die_crashed(st);
        }
        drop(self.advance_locked(st, work));
    }

    /// [`Self::advance`] inside a critical section the caller already
    /// holds (and whose operation-boundary crash check it already made):
    /// `send` and the receive success path charge their CPU cost in the
    /// same section that moves the message.
    fn advance_locked<'a>(&'a self, mut st: Guard<'a>, work: f64) -> Guard<'a> {
        if work <= 0.0 {
            return st;
        }
        let node = st.procs[self.pid].node;
        let need = st.nodes[node].sched.work_to_ns(work);
        if !st.stepped {
            let now = self.local(&st);
            let n = &st.nodes[node];
            let step = n.sched.fast_forward_script(now, &n.timeline, need);
            if step.cpu > SimDur::ZERO {
                st.procs[self.pid].cpu_time += step.cpu;
            }
            if step.end > now {
                if obs::enabled() {
                    // Scheduler span: this rank ran and/or sat out
                    // competitors' slices from `now` to `step.end` — the
                    // whole multi-phase stretch as one span. The
                    // `cpu`/`slices` attributes carry the exact CPU
                    // consumed and quantum count, so analyzers can
                    // re-expand aggregated spans: summed attribution is
                    // bit-identical between stepped and fast modes.
                    obs::sched_span(step.kind(now), now.0, step.end.0, step.cpu.0, step.slices);
                    if step.slices > 0 {
                        self.sched_quanta.add(step.slices);
                    }
                }
                st = self.move_clock(st, step.end);
            }
            return st;
        }
        // Stepped reference path: one scheduler slice per engine event.
        let mut need = need;
        loop {
            let now = st.clock;
            let node = st.procs[self.pid].node;
            let ncp = st.nodes[node].timeline.at(now);
            let next = st.nodes[node].timeline.next_change_after(now);
            let step = st.nodes[node].sched.step_ns(now, ncp, next, need);
            if step.cpu > SimDur::ZERO {
                st.procs[self.pid].cpu_time += step.cpu;
                need = need - step.cpu;
            }
            if step.end > now {
                if obs::enabled() {
                    obs::sched_span(step.kind(now), now.0, step.end.0, step.cpu.0, step.slices);
                    if step.slices > 0 {
                        self.sched_quanta.add(step.slices);
                    }
                }
                st = self.advance_to(st, step.end);
            }
            if step.completed {
                return st;
            }
        }
    }

    /// Sleeps for `dur` of virtual time without consuming CPU.
    pub fn sleep(&self, dur: SimDur) {
        if dur == SimDur::ZERO {
            return;
        }
        let st = self.shared.state.borrow_mut();
        if self.crash_due(&st) {
            self.die_crashed(st);
        }
        let t = self.local(&st) + dur;
        drop(self.move_clock(st, t));
    }

    /// Sends `payload` to rank `dst` with `tag`. Charges the sender the CPU
    /// cost of the send (which, on a loaded node, includes waiting for a
    /// scheduler slice); delivery time follows the network model. The send
    /// is buffered: it does not wait for the receiver.
    pub fn send(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        self.send_payload(dst, tag, Payload::Owned(payload));
    }

    /// Sends like [`Self::send`] a buffer the sender keeps a reference to:
    /// the message carries the `Arc`, not a copy, and a receive through
    /// [`Self::recv_shared`] hands the receiver that same buffer. Costs
    /// and virtual times are those of an owned payload of the same length.
    pub fn send_shared(&self, dst: usize, tag: u64, payload: Arc<Vec<u8>>) {
        self.send_payload(dst, tag, Payload::Shared(payload));
    }

    fn send_payload(&self, dst: usize, tag: u64, payload: Payload) {
        assert!(dst < self.nprocs, "send to invalid rank {dst}");
        let len = payload.len();
        let st = self.shared.state.borrow_mut();
        if self.crash_due(&st) {
            self.die_crashed(st);
        }
        let p = st.net.params();
        let cpu = p.send_cpu_base + p.send_cpu_per_byte * len as f64;
        let mut st = self.advance_locked(st, cpu);
        let src_node = st.procs[self.pid].node;
        let dst_node = st.procs[dst].node;
        let now = self.local(&st);
        st.procs[self.pid].send_seq += 1;
        let seq = st.procs[self.pid].send_seq;
        st.procs[self.pid].msgs_sent += 1;
        st.procs[self.pid].bytes_sent += len as u64;
        self.msgs_sent.add(1);
        self.bytes_sent.add(len as u64);
        let emit = |queued: SimDur| {
            if obs::enabled() {
                // Message-matching attributes: `seq` is the sender-local
                // program-order id the matching `comm/recv` instant echoes
                // (with `peer` = the sender), letting analyzers link sends
                // to receives across ranks; `queued_ns` is the send-side
                // NIC contention share of this message's flight time (the
                // receive-side share rides on the `comm/recv` instant: the
                // RX half may land after the sender has run ahead).
                let msg = obs::Msg {
                    peer: dst as u64,
                    tag,
                    seq,
                    bytes: len as u64,
                };
                obs::comm_send(now.0, msg, queued.0);
            }
        };
        if src_node == dst_node {
            // Same-node delivery: the copy engine and the mailbox are the
            // rank's own, so it stays eager in every mode.
            let (arrival, queued) = st.net.deliver_self(src_node, len, now);
            emit(queued);
            st.deliver(
                dst,
                Envelope {
                    src: self.pid,
                    tag,
                    sent: now,
                    arrival,
                    seq,
                    rx_queued: SimDur::ZERO,
                    payload,
                },
            );
            return;
        }
        let tx = st.net.tx_depart(src_node, len, now);
        emit(tx.queued);
        let msg = OutMsg {
            env: Envelope {
                src: self.pid,
                tag,
                sent: now,
                arrival: SimTime::ZERO, // set by the RX half
                seq,
                rx_queued: SimDur::ZERO,
                payload,
            },
            dst,
            dst_node,
            bytes: len,
            rx_ready: tx.rx_ready,
            tx_end: tx.tx_end,
        };
        if now > st.clock {
            // Posted ahead of the engine clock: the destination NIC and
            // mailbox are shared state, so the RX half waits in the queue
            // for its place in the dispatch order and the sender keeps the
            // turn.
            st.push_landing(msg);
        } else {
            st.land(msg);
        }
    }

    /// Receives a message from rank `src` with `tag`, blocking in virtual
    /// time until it is available. Charges the receiver the CPU cost of the
    /// receive after arrival.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        self.recv_matching(Some(src), tag).1
    }

    /// Receives a message with `tag` from any rank.
    pub fn recv_any(&self, tag: u64) -> (usize, Vec<u8>) {
        self.recv_matching(None, tag)
    }

    /// Receives like [`Self::recv`]/[`Self::recv_any`] but gives up after
    /// `timeout` of virtual time: if no matching message is deliverable by
    /// `entry + timeout`, returns `Err(`[`RecvTimeout`]`)` instead of
    /// blocking forever — the primitive failure detection is built on. A
    /// message arriving *exactly* at the deadline is delivered (the
    /// mailbox is checked before the deadline fires), so the deadline is
    /// exclusive of message wins and identical in every engine mode. The
    /// timeout path charges no CPU; the success path charges the usual
    /// receive cost.
    pub fn recv_timeout(
        &self,
        src: Option<usize>,
        tag: u64,
        timeout: SimDur,
    ) -> Result<(usize, Vec<u8>), RecvTimeout> {
        let (src, payload) = self.recv_inner(src, tag, Some(timeout))?;
        Ok((src, payload.into_vec()))
    }

    /// Receives like [`Self::recv_timeout`] (or, with no `timeout`, like a
    /// plain blocking receive) and returns the payload as a shared buffer:
    /// the sender's own one when it was sent with [`Self::send_shared`], an
    /// owned payload moved behind a new `Arc` otherwise.
    pub fn recv_shared(
        &self,
        src: Option<usize>,
        tag: u64,
        timeout: Option<SimDur>,
    ) -> Result<(usize, Arc<Vec<u8>>), RecvTimeout> {
        let (src, payload) = self.recv_inner(src, tag, timeout)?;
        Ok((src, payload.into_shared()))
    }

    /// Non-blocking probe: is a matching message already deliverable?
    /// Exact in every mode: the probe catches up first, and a message with
    /// arrival ≤ now was sent — and landed — before now.
    pub fn probe(&self, src: Option<usize>, tag: u64) -> bool {
        let st = self.catch_up(self.shared.state.borrow_mut());
        st.procs[self.pid]
            .mailbox
            .has_ready(RecvWait { src, tag }, st.clock)
    }

    fn recv_matching(&self, src: Option<usize>, tag: u64) -> (usize, Vec<u8>) {
        match self.recv_inner(src, tag, None) {
            Ok((src, payload)) => (src, payload.into_vec()),
            Err(_) => unreachable!("recv without a deadline cannot time out"),
        }
    }

    fn recv_inner(
        &self,
        src: Option<usize>,
        tag: u64,
        timeout: Option<SimDur>,
    ) -> Result<(usize, Payload), RecvTimeout> {
        let wait = RecvWait { src, tag };
        let mut st = self.shared.state.borrow_mut();
        // `+` saturates, and a saturated deadline is no deadline: an
        // unanswered receive is then the deadlock it is, not a timeout at
        // the end of time.
        let deadline = timeout
            .map(|d| self.local(&st) + d)
            .filter(|&d| d < SimTime::MAX);
        // Virtual time this call first blocked, if it did: lets the pop
        // split the wait into late-sender vs. network shares locally.
        let mut wait_start: Option<u64> = None;
        loop {
            // Each loop turn is an operation boundary: a rank woken at its
            // node's crash time dies here instead of popping the message.
            if self.crash_due(&st) {
                self.die_crashed(st);
            }
            let now = self.local(&st);
            // Entered ahead of the engine clock: senders dated before `now`
            // may not have run yet, so the mailbox cannot be judged. Block
            // "not before `now`" instead — the wake-up is the catch-up.
            if now > st.clock {
                st = self.block_until_woken(st, wait, deadline);
                let wake = st.clock;
                if wake > now {
                    // Nothing was deliverable at `now`: a real wait, the
                    // one an eager receive entered at `now` would have had.
                    wait_start = Some(now.0);
                    obs::span_begin("sched", "blocked", now.0);
                    obs::span_end_blocked(wake.0);
                    self.note_reentry(&mut st);
                }
                continue;
            }
            if let Some(env) = st.procs[self.pid].mailbox.pop_ready(wait, now) {
                let len = env.payload.len();
                st.procs[self.pid].msgs_recvd += 1;
                st.procs[self.pid].bytes_recvd += len as u64;
                self.msgs_recvd.add(1);
                self.bytes_recvd.add(len as u64);
                if obs::enabled() {
                    // Mirror of the sender's `comm/send` instant; a pop at
                    // the exact end of a `sched/blocked` span identifies
                    // the message that resolved that wait. `late_ns` is the
                    // share of this call's blocked time spent before the
                    // sender even posted the message (the classic
                    // late-sender pattern); `net_ns` is the remainder
                    // (network flight + NIC queueing). Both are computed
                    // receiver-locally from the envelope's `sent` stamp, so
                    // they are independent of cross-rank event order.
                    // `rx_queued_ns` is the RX-NIC contention this frame
                    // paid — the receive-side twin of the send instant's
                    // `queued_ns`.
                    let (late_ns, net_ns) = match wait_start {
                        Some(ws) => {
                            let total = now.0 - ws;
                            let late = env.sent.0.clamp(ws, now.0) - ws;
                            (late, total - late)
                        }
                        None => (0, 0),
                    };
                    let msg = obs::Msg {
                        peer: env.src as u64,
                        tag: env.tag,
                        seq: env.seq,
                        bytes: len as u64,
                    };
                    obs::comm_recv(now.0, msg, env.rx_queued.0, late_ns, net_ns);
                }
                let p = st.net.params();
                let cpu = p.recv_cpu_base + p.recv_cpu_per_byte * len as f64;
                drop(self.advance_locked(st, cpu));
                return Ok((env.src, env.payload));
            }
            if let Some(d) = deadline {
                if now >= d {
                    if obs::enabled() {
                        obs::instant(
                            "comm",
                            "recv-timeout",
                            now.0,
                            vec![
                                (
                                    "src",
                                    match src {
                                        Some(s) => obs::Json::UInt(s as u64),
                                        None => obs::Json::Str("any".to_string()),
                                    },
                                ),
                                ("tag", obs::Json::UInt(tag)),
                                (
                                    "waited_ns",
                                    obs::Json::UInt(now.0 - wait_start.unwrap_or(now.0)),
                                ),
                            ],
                        );
                    }
                    return Err(RecvTimeout { src, tag });
                }
            }
            // Not deliverable yet: block (this is what `vmstat` misses).
            wait_start.get_or_insert(now.0);
            obs::span_begin("sched", "blocked", now.0);
            st = self.block_until_woken(st, wait, deadline);
            obs::span_end_blocked(st.clock.0);
            self.note_reentry(&mut st);
        }
    }

    /// Blocks this rank in `wait` from its local time until a wake-up
    /// candidate dispatches, and returns holding the turn at the wake time
    /// (engine and local clock equal). The block interval is what `vmstat`
    /// readers see; a zero-length one (a receive entered ahead of the
    /// engine clock whose message was already there) leaves no trace.
    fn block_until_woken<'a>(
        &'a self,
        mut st: Guard<'a>,
        wait: RecvWait,
        deadline: Option<SimTime>,
    ) -> Guard<'a> {
        let now = self.local(&st);
        let node = st.procs[self.pid].node;
        st.nodes[node].blocks.block(now);
        // Register as blocked and queue a wake-up hint at the earliest
        // known matching arrival (if the network already determined one),
        // but not before `now`. Every later matching delivery queues its
        // own wake-up (`EngineState::deliver`, same clamp), so the earliest
        // candidate dispatches — a landing queued later can undercut the
        // hint. Whichever does, the rank wakes no later than the hint with
        // a deliverable match, so a deadline at or after the hint can
        // never fire and is not queued: a match at the deadline wins.
        st.procs[self.pid].status = Status::BlockedRecv(wait);
        let hint = (st.procs[self.pid].mailbox.pending_arrival(wait)).map(|a| a.max(now));
        if let Some(h) = hint {
            st.push_event(h, self.pid);
        }
        if let Some(d) = deadline.filter(|&d| hint.is_none_or(|h| h > d)) {
            st.push_event(d, self.pid);
        }
        // A rank blocked on a receive that will never match still has to
        // die at its node's crash time: its fail-stop wake, queued once,
        // wakes it there whenever it is blocked (the loop head turns the
        // wake into the death).
        if let Some(c) = st.failstop_at(node) {
            st.push_failstop(c, self.pid);
        }
        let mut st = self.yield_turn(st);
        let wake = st.clock;
        // No later `vmstat` sample precedes this one: a reader on the node
        // samples at its local clock, which is at or past the engine's, and
        // a remote reader catches the engine up to its own clock first.
        let horizon = monitor::monitor_sample_time(wake, st.net.params().latency);
        let blocks = &mut st.nodes[node].blocks;
        blocks.unblock(wake);
        blocks.forget_until(horizon);
        st
    }

    /// Tells the node's scheduler that this rank re-entered the run queue
    /// at the engine clock, after a wait.
    fn note_reentry(&self, st: &mut EngineState) {
        let (node, wake) = (st.procs[self.pid].node, st.clock);
        let ncp = st.nodes[node].timeline.at(wake);
        st.nodes[node].sched.note_reentry(wake, ncp);
    }

    /// Reports that this rank completed one application phase cycle; fires
    /// any cycle-triggered load-script events for this node.
    pub fn phase_cycle_completed(&self) {
        let mut st = self.shared.state.borrow_mut();
        if self.crash_due(&st) {
            self.die_crashed(st);
        }
        let node = st.procs[self.pid].node;
        let n = &mut st.nodes[node];
        n.cycle_count += 1;
        let c = n.cycle_count;
        let due = n.cycle_events.partition_point(|&(ev_c, _)| ev_c <= c);
        if due == 0 {
            return;
        }
        // A write to the load timeline: remote monitors read it, so it
        // happens at a caught-up time.
        let mut st = self.catch_up(st);
        let clock = st.clock;
        let n = &mut st.nodes[node];
        for (_, ncp) in n.cycle_events.drain(..due) {
            n.timeline.set(clock, ncp);
        }
    }

    /// Phase cycles completed on this rank's node.
    pub fn phase_cycles(&self) -> u64 {
        let st = self.shared.state.borrow();
        let node = st.procs[self.pid].node;
        st.nodes[node].cycle_count
    }

    /// Directly sets the competing-process count on this rank's own node
    /// (for harnesses that drive load programmatically rather than through
    /// a pre-registered script).
    pub fn set_own_ncp(&self, ncp: u32) {
        let mut st = self.catch_up(self.shared.state.borrow_mut());
        let clock = st.clock;
        let node = st.procs[self.pid].node;
        st.nodes[node].timeline.set(clock, ncp);
    }

    /// Moves this rank's clock forward to `t`: the rank-local clock alone
    /// when the rank may run ahead of the engine (nothing is queued, the
    /// turn is kept), the engine clock too otherwise.
    fn move_clock<'a>(&'a self, mut st: Guard<'a>, t: SimTime) -> Guard<'a> {
        if !st.runs_ahead() {
            return self.advance_to(st, t);
        }
        debug_assert!(t >= self.local(&st), "clock moved into the past");
        st.procs[self.pid].local = t;
        st.bypasses += 1;
        st
    }

    /// Advances the engine clock to `t` on behalf of this (running) rank,
    /// and the rank's local clock with it.
    ///
    /// In-place bypass: if no other queue entry (another rank's wake-up,
    /// anyone's landing) is due at or before `t`, this rank keeps the turn
    /// — the clock moves forward in place with no heap push and no switch
    /// away from this rank's fiber. Otherwise it falls back to the classic
    /// queued event + full yield, preserving the global `(time, pid, seq)`
    /// dispatch order exactly.
    fn advance_to<'a>(&'a self, mut st: Guard<'a>, t: SimTime) -> Guard<'a> {
        debug_assert_eq!(st.current, Some(self.pid));
        debug_assert!(t >= st.clock, "advance_to into the past");
        // Stepped mode keeps the seed's exact execution strategy — every
        // advance goes through the queue and a full turn handoff — so it
        // doubles as the before-side cost baseline for `engine_events`.
        if !st.stepped {
            st.prune_stale_heads();
            // Strict `>`: an existing event at exactly `t` may carry a
            // lower (pid, seq) than the event we would push, so it must
            // dispatch first.
            if st.queue.peek().is_none_or(|ev| ev.time > t) {
                st.clock = t;
                st.procs[self.pid].local = t;
                st.bypasses += 1;
                return st;
            }
        }
        st.procs[self.pid].status = Status::Scheduled;
        st.push_event(t, self.pid);
        self.yield_turn(st)
    }

    /// Hands the turn to the next event's owner and waits until this rank
    /// is scheduled again. The caller must have arranged its own wake-up
    /// (queued event or blocked-recv registration) before calling.
    fn yield_turn<'a>(&'a self, mut st: Guard<'a>) -> Guard<'a> {
        st.dispatch_next();
        if st.current == Some(self.pid) {
            // The turn came straight back (our own event was earliest):
            // keep running, with no switch away from this fiber.
            debug_assert_eq!(st.procs[self.pid].status, Status::Running);
            return st;
        }
        self.shared.hand_off(st);
        let st = self.shared.wait_turn(self.pid);
        debug_assert_eq!(st.procs[self.pid].status, Status::Running);
        st
    }

    /// Marks this rank finished and hands the turn onward. Called by the
    /// cluster runner after the rank's program returns.
    pub(crate) fn finish(&self) {
        // Caught up first: `finish_time`, the live count and the turn it
        // passes on are all visible beyond this rank.
        let mut st = self.catch_up(self.shared.state.borrow_mut());
        let clock = st.clock;
        st.procs[self.pid].status = Status::Finished;
        st.procs[self.pid].finish_time = clock;
        st.live -= 1;
        st.dispatch_next();
        self.shared.hand_off(st);
    }
}
