//! The Dyn-MPI runtime (§4): the protocol.
//!
//! One [`DynMpi`] instance lives on each rank. The application registers
//! its redistributable arrays, phases, and DRSD accesses, then hands the
//! runtime its per-cycle body: [`DynMpi::run_cycles`] owns the loop, and
//! the end of every cycle is where everything happens:
//!
//! 1. every active rank's cycle time is gathered; the root reads the
//!    `dmpi_ps` monitors and broadcasts a consistent control snapshot;
//! 2. the replicated state machine of the crate's `policy` module advances:
//!    `Stable → Grace(5) → [redistribute] → PostRedist(10) → {Stable | drop}`,
//!    and this module carries out what it decides;
//! 3. removed ranks receive a per-cycle status message from the active
//!    root (the *send-out-only* global communication of §4.4) so they stay
//!    current on membership and can rejoin.
//!
//! All decisions are pure functions of broadcast data, so every rank
//! reaches the identical conclusion without further coordination.

use dynmpi_comm::{from_bytes, from_bytes_into, to_bytes, CommOps, Group, HostMeters, PeerTimeout};
use dynmpi_obs::{self as obs, Json};

use crate::array::{ArrayMeta, RedistArray};
use crate::checkpoint::{BuddyCheckpoint, TAG_CKPT_META};
use crate::config::DynMpiConfig;
use crate::dist::Distribution;
use crate::drsd::{AccessMode, ArrayAccess, Bound, Drsd};
use crate::events::RuntimeEvent;
use crate::policy::{self, Kernel, Mode, Sample, Snapshot, State, Step, CTRL_LAG};
use crate::redist::{self, ScheduleCache, TransferSchedule};
use crate::timing::RowTimer;

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Status messages from the active root to removed ranks.
const TAG_STATUS: u64 = (1 << 33) + 0x20_0000;
/// Pipelined control plane: per-cycle samples up to the root and state
/// blobs back down, tagged per epoch (membership generation).
const TAG_CTRL_UP: u64 = 1 << 34;
const TAG_CTRL_DOWN: u64 = (1 << 34) + 1;
/// Send-out leg of removed-aware global reductions.
const TAG_GLOBAL: u64 = (1 << 33) + 0x30_0000;
/// Per-cycle ghost-row exchange (one tag per array).
const TAG_GEX: u64 = (1 << 33) + 0x40_0000;
/// Per-cycle neighbour exchange: payloads sent up, and sent down.
const TAG_NBR_UP: u64 = (1 << 33) + 0x48_0000;
const TAG_NBR_DOWN: u64 = TAG_NBR_UP + 1;

/// Identifier of a registered array (registration order).
pub type ArrayId = usize;
/// Identifier of a registered phase (registration order).
pub type PhaseId = usize;

/// Communication pattern of a phase, used to estimate the number of
/// blocking receives per cycle for the §4.3 penalty model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CommPattern {
    /// No communication.
    None,
    /// Ghost-row exchange with both neighbors: 2 blocking receives.
    NearestNeighbor,
    /// One-direction ring shift: 1 blocking receive.
    RingShift,
    /// A tree collective: ~log₂(n) blocking receives.
    Global,
    /// Explicit receive count.
    Custom(f64),
}

impl CommPattern {
    pub(crate) fn blocking_recvs(self, n_active: usize) -> f64 {
        match self {
            CommPattern::None => 0.0,
            CommPattern::NearestNeighbor => 2.0,
            CommPattern::RingShift => 1.0,
            CommPattern::Global => (n_active.max(2) as f64).log2().ceil(),
            CommPattern::Custom(r) => r,
        }
    }
}

/// A registered phase: a slice of the iteration space plus its
/// communication pattern (§2.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSpec {
    /// First global iteration (row), inclusive.
    pub lo: usize,
    /// Last global iteration, exclusive.
    pub hi: usize,
    pub pattern: CommPattern,
}

/// The per-rank Dyn-MPI runtime.
pub struct DynMpi<'a, T: HostMeters> {
    t: &'a T,
    cfg: DynMpiConfig,
    nrows: usize,
    wsize: usize,
    wrank: usize,
    /// Ranks `0..seed` start in the computation; ranks `seed..wsize` are
    /// reserved for scripted arrivals and enter only through the
    /// expansion decision (= `wsize` when the whole world is seeded).
    seed: usize,

    /// The active group and the distribution over it. A removed rank
    /// tracks both from the root's per-cycle status.
    active: Group,
    dist: Distribution,
    is_removed: bool,

    arrays: Vec<ArrayMeta>,
    phases: Vec<PhaseSpec>,
    accesses: Vec<ArrayAccess>,
    setup_done: bool,

    /// The replicated decision state (identical on every active rank).
    state: State,
    cycle: u64,
    timer: Option<RowTimer>,
    row_weights: Option<Vec<f64>>,
    cycle_wall_start: f64,

    local_cycle_times: Vec<f64>,
    events: Vec<RuntimeEvent>,
    redist_seconds_total: f64,

    /// Control-plane epoch: bumped at every membership transition so
    /// stale pipeline messages are never consumed.
    ctrl_epoch: u64,
    /// Samples sent since the epoch started.
    ctrl_sent: u64,
    /// Root only: its own queued samples (peers' queue in their mailboxes).
    self_samples: std::collections::VecDeque<f64>,
    /// The cycle's control snapshot and its decoded wire values, refilled
    /// every cycle in place.
    ctrl: Snapshot,
    ctrl_wire: Vec<f64>,

    /// Buddy checkpoints (empty unless `cfg.failure_detection`).
    ckpt: BuddyCheckpoint,
    /// Application steps completed on this rank (= phase cycles, minus
    /// replayed steps after a rollback). Stamped into checkpoints.
    app_progress: u64,
    /// Pending rewind of the cycle driver's loop after a recovery.
    rollback_to: Option<u64>,
    /// Cycles since the last checkpoint refresh (interval refreshes).
    cycles_since_ckpt: u32,
    /// This rank concluded it is isolated (control receives silent for
    /// the full confirmation window) and withdrew permanently.
    evicted: bool,

    /// Transfer schedules reused while the layout is unchanged (`RefCell`:
    /// the per-cycle ghost exchange runs behind `&self`).
    sched_cache: RefCell<ScheduleCache>,
}

impl<'a, T: HostMeters> DynMpi<'a, T> {
    /// Initializes the runtime on one rank. `nrows` is the shared extent
    /// of the distributed dimension. The initial distribution is an even
    /// block over all ranks.
    pub fn init(t: &'a T, nrows: usize, cfg: DynMpiConfig) -> Self {
        cfg.validate();
        let wsize = t.size();
        let wrank = t.rank();
        assert!(nrows >= wsize, "fewer rows ({nrows}) than ranks ({wsize})");
        let seed = cfg.seed_world.unwrap_or(wsize);
        assert!(
            (1..=wsize).contains(&seed),
            "seed world {seed} out of range 1..={wsize}"
        );
        DynMpi {
            t,
            cfg,
            nrows,
            wsize,
            wrank,
            seed,
            active: Group::new((0..seed).collect(), wrank),
            dist: Distribution::block_even(nrows, seed),
            is_removed: wrank >= seed,
            arrays: Vec::new(),
            phases: Vec::new(),
            accesses: Vec::new(),
            setup_done: false,
            state: State::new(wsize),
            cycle: 0,
            timer: None,
            row_weights: None,
            cycle_wall_start: 0.0,
            local_cycle_times: Vec::new(),
            events: Vec::new(),
            redist_seconds_total: 0.0,
            ctrl_epoch: 0,
            ctrl_sent: 0,
            self_samples: std::collections::VecDeque::new(),
            ctrl: Snapshot::default(),
            ctrl_wire: Vec::new(),
            ckpt: BuddyCheckpoint::new(),
            app_progress: 0,
            rollback_to: None,
            cycles_since_ckpt: 0,
            evicted: false,
            sched_cache: RefCell::new(ScheduleCache::new()),
        }
    }

    // ---------------- registration (§2.2 API) --------------------------

    /// `DMPI_register_dense_array`.
    pub fn register_dense(&mut self, name: &str, nrows: usize) -> ArrayId {
        self.register(ArrayMeta::dense(name, nrows))
    }

    /// `DMPI_register_sparse_array`.
    pub fn register_sparse(&mut self, name: &str, nrows: usize) -> ArrayId {
        self.register(ArrayMeta::sparse(name, nrows))
    }

    fn register(&mut self, meta: ArrayMeta) -> ArrayId {
        assert!(!self.setup_done, "register arrays before setup");
        assert_eq!(
            meta.nrows, self.nrows,
            "array {} extent must match the distributed space",
            meta.name
        );
        assert!(
            self.arrays.iter().all(|m| m.name != meta.name),
            "array {} registered twice",
            meta.name
        );
        self.arrays.push(meta);
        self.arrays.len() - 1
    }

    /// `DMPI_init_phase`: registers a phase over global iterations
    /// `lo..hi` with the given communication pattern.
    pub fn init_phase(&mut self, lo: usize, hi: usize, pattern: CommPattern) -> PhaseId {
        assert!(!self.setup_done, "register phases before setup");
        assert!(
            lo < hi && hi <= self.nrows,
            "phase range {lo}..{hi} invalid"
        );
        self.phases.push(PhaseSpec { lo, hi, pattern });
        self.phases.len() - 1
    }

    /// `DMPI_add_array_access`: attaches a DRSD to a phase. A read
    /// section must meet every non-empty block it is evaluated over (its
    /// start offset ≤ 0, its end offset ≥ 0), so that a block and its
    /// ghosts are one range.
    pub fn add_access(&mut self, _phase: PhaseId, array: ArrayId, mode: AccessMode, drsd: Drsd) {
        assert!(!self.setup_done, "register accesses before setup");
        assert!(array < self.arrays.len(), "unknown array id {array}");
        let (Bound::Start(lo) | Bound::End(lo)) = drsd.start;
        let (Bound::Start(hi) | Bound::End(hi)) = drsd.end;
        assert!(
            mode == AccessMode::Write || (lo <= 0 && hi >= 0),
            "read section {drsd:?} does not meet every block: \
             its start offset must be ≤ 0 and its end offset ≥ 0"
        );
        self.accesses.push(ArrayAccess { array, mode, drsd });
        // Schedules embed the access list; anything cached is now stale.
        self.sched_cache.borrow_mut().invalidate();
    }

    /// Finalizes registration and allocates each array's owned and ghost
    /// rows on this rank. Call once, passing the arrays in registration
    /// order; then fill them via [`Self::local_rows`].
    pub fn setup(&mut self, arrays: &mut [&mut dyn RedistArray]) {
        assert!(!self.setup_done, "setup called twice");
        self.validate_arrays(arrays);
        for (ai, arr) in arrays.iter_mut().enumerate() {
            arr.alloc_rows(self.local_rows(ai));
        }
        self.setup_done = true;
    }

    fn validate_arrays(&self, arrays: &[&mut dyn RedistArray]) {
        assert_eq!(
            arrays.len(),
            self.arrays.len(),
            "pass every registered array, in registration order"
        );
        for (meta, arr) in self.arrays.iter().zip(arrays) {
            assert_eq!(
                arr.nrows(),
                meta.nrows,
                "array {} extent mismatch",
                meta.name
            );
        }
    }

    // ---------------- queries ------------------------------------------

    /// `DMPI_participating`: is this rank part of the computation?
    pub fn participating(&self) -> bool {
        !self.is_removed
    }

    /// `DMPI_get_rel_rank`: this rank's relative rank among active nodes.
    pub fn rel_rank(&self) -> Option<usize> {
        if self.is_removed {
            None
        } else {
            self.active.rel()
        }
    }

    /// `DMPI_get_num_active`.
    pub fn num_active(&self) -> usize {
        self.active.size()
    }

    /// This rank's world rank.
    pub fn world_rank(&self) -> usize {
        self.wrank
    }

    /// `DMPI_get_start_iter` / `DMPI_get_end_iter`: this rank's
    /// contiguous iteration range within `phase`, inclusive; `None` when
    /// it owns nothing there (or is removed).
    pub fn my_range(&self, phase: PhaseId) -> Option<(usize, usize)> {
        let rows = self.my_rows(phase);
        (!rows.is_empty()).then(|| (rows.start, rows.end - 1))
    }

    /// The rows of `phase` this rank owns: its block clipped to the
    /// phase's loop bounds, empty when it owns none there (or is removed).
    pub fn my_rows(&self, phase: PhaseId) -> Range<usize> {
        let spec = self.phases[phase];
        let Some(rel) = self.rel_rank() else {
            return 0..0;
        };
        self.dist.rows_of_in(rel, spec.lo..spec.hi)
    }

    /// Rows of `array` present on this rank: its block plus the DRSD
    /// ghosts on either side. Use after `setup` (or a redistribution) to
    /// know what to initialize.
    pub fn local_rows(&self, array: ArrayId) -> Range<usize> {
        if self.rel_rank().is_none() {
            return 0..0;
        }
        self.steady_schedule().keep[array].clone()
    }

    /// The identity transfer schedule for the current membership and
    /// distribution. Ghost legs double as the per-cycle boundary-exchange
    /// plan; `keep` sets are owned ∪ ghost rows. Cached until the group,
    /// the distribution, or the access list changes.
    fn steady_schedule(&self) -> Rc<TransferSchedule> {
        self.sched_cache.borrow_mut().schedule(
            self.wrank,
            &self.active,
            &self.dist,
            &self.active,
            &self.dist,
            &self.accesses,
            self.arrays.len(),
        )
    }

    /// The current distribution over active nodes.
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// Active members (world ranks).
    pub fn active_members(&self) -> &[usize] {
        self.active.members()
    }

    /// The adaptation event log.
    pub fn events(&self) -> &[RuntimeEvent] {
        &self.events
    }

    /// Per-cycle wall times observed by this rank.
    pub fn local_cycle_times(&self) -> &[f64] {
        &self.local_cycle_times
    }

    /// Total wall seconds spent inside redistribution operations.
    pub fn redistribution_seconds(&self) -> f64 {
        self.redist_seconds_total
    }

    /// Requests a rebalance at the end of this cycle even without a load
    /// change (the REDISTRIBUTE-annotation analogue; must be called by
    /// every active rank in the same cycle).
    pub fn request_rebalance(&mut self) {
        self.state.rebalance_requested = true;
    }

    // ---------------- the cycle driver ----------------------------------

    /// Runs `steps` application steps, one phase cycle each: the one way
    /// to drive cycles. `body(rt, state, step)` is step `step`'s compute
    /// and in-phase exchanges; `arrays` lists the registered arrays held in
    /// `state`, in registration order (e.g. `|(a, b)| [a, b]`). After every
    /// body the runtime monitors, balances, drops or admits nodes. When a
    /// crash recovery rolled the arrays back to a checkpoint, the loop
    /// rewinds to the step the checkpoint was taken at, so the survivors
    /// replay the lost steps from restored data.
    pub fn run_cycles<S, const N: usize>(
        &mut self,
        steps: usize,
        state: &mut S,
        arrays: for<'s> fn(&'s mut S) -> [&'s mut dyn RedistArray; N],
        mut body: impl FnMut(&mut Self, &mut S, usize),
    ) {
        let mut step = 0;
        while step < steps {
            self.begin_cycle();
            body(self, state, step);
            self.end_cycle(&mut arrays(state));
            step = match self.rollback_to.take() {
                Some(back) => back as usize,
                None => step + 1,
            };
        }
    }

    /// Marks the start of a phase cycle.
    fn begin_cycle(&mut self) {
        self.cycle_wall_start = self.t.wtime();
        // Paired with the `end_cycle` span's `cycle` attribute (the
        // counter increments inside `end_cycle_inner`, so the cycle now
        // starting is `self.cycle + 1`): together they bound each
        // adaptation cycle's wall time per rank for the profiler.
        if obs::enabled() {
            obs::begin_cycle(self.t.now_ns(), self.cycle + 1);
        }
    }

    /// Performs this rank's compute for `phase`, charging `work(row)`
    /// CPU units per owned row. Outside the grace period the whole range
    /// is charged in one piece; during it each row is timed individually
    /// (§4.2).
    pub fn charge_rows(&mut self, phase: PhaseId, work: impl Fn(usize) -> f64) {
        let rows = self.my_rows(phase);
        let grace = matches!(self.state.mode, Mode::Grace { .. }) && self.timer.is_some();
        let traced = obs::enabled();
        let cpu0 = if traced { self.t.proc_cpu_ns() } else { 0 };
        if traced {
            // Per-row grace measurement is a distinct span: it is the
            // instrumented (and slightly slower) variant of the same work.
            let name = if grace {
                "grace_measure"
            } else {
                "charge_rows"
            };
            obs::span_begin("runtime", name, self.t.now_ns());
        }
        let mut total = 0.0f64;
        if let (true, Some(timer)) = (grace, self.timer.as_mut()) {
            for i in rows.clone() {
                let w0 = self.t.wtime();
                let p0 = self.t.proc_cpu_seconds();
                let w = work(i);
                total += w;
                self.t.compute(w);
                timer.record(i, self.t.wtime() - w0, self.t.proc_cpu_seconds() - p0);
            }
        } else {
            total = rows.clone().map(&work).sum();
            self.t.compute(total);
        }
        if traced {
            // `cpu_ns` is the exact (un-quantized) CPU consumed by the
            // span and `work_uflop` the charged work in integer
            // micro-flops — both mode-invariant integers the health
            // monitor splits exactly across its windows.
            let cpu_ns = self.t.proc_cpu_ns().saturating_sub(cpu0);
            let work_uflop = (total * 1e6).round() as u64;
            obs::span_end_charge_rows(self.t.now_ns(), rows.len() as u64, cpu_ns, work_uflop);
        }
    }

    /// Ends a phase cycle: monitoring, grace bookkeeping, redistribution,
    /// node removal, and removed-rank status handling.
    fn end_cycle(&mut self, arrays: &mut [&mut dyn RedistArray]) {
        obs::span_begin("runtime", "end_cycle", self.t.now_ns());
        self.end_cycle_inner(arrays);
        if obs::enabled() {
            obs::span_end_cycle(self.t.now_ns(), self.cycle);
        }
    }

    /// Records an adaptation event: appended to the queryable log and, when
    /// tracing is active, mirrored as an instant trace event.
    fn note(&mut self, ev: RuntimeEvent) {
        self.trace_point(ev.kind(), || ev.trace_args());
        self.events.push(ev);
    }

    /// A `runtime` instant trace event; `args` is built only when tracing.
    fn trace_point(&self, name: &'static str, args: impl FnOnce() -> Vec<(&'static str, Json)>) {
        if obs::enabled() {
            obs::instant("runtime", name, self.t.now_ns(), args());
        }
    }

    /// The decision kernel over this rank's replica and current layout.
    fn kernel(&mut self) -> Kernel<'_> {
        Kernel {
            state: &mut self.state,
            cfg: &self.cfg,
            phases: &self.phases,
            seed: self.seed,
            active: &self.active,
            dist: &self.dist,
            row_weights: self.row_weights.as_deref(),
            cycle: self.cycle,
        }
    }

    fn end_cycle_inner(&mut self, arrays: &mut [&mut dyn RedistArray]) {
        assert!(self.setup_done, "call setup before cycling");
        self.validate_arrays(arrays);
        let cycle_time = self.t.wtime() - self.cycle_wall_start;
        self.local_cycle_times.push(cycle_time);
        self.t.phase_cycle_completed();
        self.cycle += 1;
        self.app_progress += 1;

        if self.evicted {
            // A self-evicted rank has no one to talk to: every cycle is a
            // silent no-op until the application finishes its loop.
            return;
        }
        if self.is_removed {
            self.removed_end_cycle(arrays);
            if !self.is_removed && self.cfg.failure_detection {
                // Just readmitted: join the actives' checkpoint refresh
                // (they run theirs after the same transition).
                self.refresh_ckpt(arrays);
            }
            return;
        }
        if !self.cfg.adapt {
            return;
        }
        if self.cfg.failure_detection && self.ckpt.epoch() == 0 {
            // First cycle: the arrays now hold the application's data, so
            // this is the earliest sound baseline checkpoint (a crash before
            // it is unrecoverable, DESIGN.md §14).
            self.refresh_ckpt(arrays);
        }
        let mut snap = std::mem::take(&mut self.ctrl);
        if self.exchange_control(cycle_time, &mut snap) {
            self.apply_snapshot(&snap, arrays);
        }
        self.ctrl = snap;
    }

    /// Steps 2–5 of a cycle, on the snapshot the control plane delivered.
    fn apply_snapshot(&mut self, snap: &Snapshot, arrays: &mut [&mut dyn RedistArray]) {
        // 2. Replicated failure detector: all survivors confirm a death on
        //    the same cycle, and recover.
        for event in self.kernel().observe(snap) {
            let dead = match event {
                RuntimeEvent::NodeConfirmedDead { node, .. } => Some(node),
                _ => None,
            };
            self.note(event);
            if let Some(dead) = dead {
                return self.recover_from_death(dead, &snap.loads, arrays);
            }
        }

        // 3. Replicated state machine. A membership transition bumps the
        //    control epoch and sends its own statuses; an in-place
        //    redistribution bumps the count.
        // Only the root sends the statuses, so only it lists the ranks.
        let root = self.active.rel() == Some(0);
        let pre_removed = if root {
            self.removed_nodes()
        } else {
            Vec::new()
        };
        let (epoch, redists) = (self.ctrl_epoch, self.state.redist_count);
        self.advance(snap, arrays);
        let transition = self.ctrl_epoch != epoch;

        // 4. Status send-out to the ranks removed at cycle start. Without a
        //    transition the group, and with it the root, is unchanged.
        if !transition && !self.is_removed && root {
            self.send_statuses(&pre_removed, &snap.loads);
        }

        // 5. Fail-stop path: checkpoints track the distribution, refreshed
        //    after every transition and on the interval when stable.
        if self.cfg.failure_detection && !self.is_removed {
            self.cycles_since_ckpt = self.cycles_since_ckpt.saturating_add(1);
            let interval = self.cfg.checkpoint_interval_cycles;
            let due = interval > 0
                && self.cycles_since_ckpt >= interval
                && self.state.mode == Mode::Stable
                && !self.state.suspect_open(self.active.members());
            if transition || self.state.redist_count != redists || due {
                self.refresh_ckpt(arrays);
            }
        }
    }

    /// 1. The pipelined control plane: each active rank posts its cycle
    ///    time to the root, which posts back the cycle's [`Snapshot`]. Both
    ///    directions run `CTRL_LAG` cycles deep, so no rank stalls on a
    ///    loaded node's in-flight control traffic. Fills `snap` and says
    ///    so; `false` during the warm-up, and when this rank withdrew.
    fn exchange_control(&mut self, cycle_time: f64, snap: &mut Snapshot) -> bool {
        let (rel, root) = (self.active.rel_unchecked(), self.active.world_rank(0));
        let epoch = 4 * self.ctrl_epoch;
        let (up, down) = (TAG_CTRL_UP + epoch, TAG_CTRL_DOWN + epoch);
        if rel == 0 {
            self.self_samples.push_back(cycle_time);
        } else {
            self.t.send_bytes(root, up, to_bytes(&[cycle_time]));
        }
        self.ctrl_sent += 1;
        if self.ctrl_sent <= CTRL_LAG {
            // Warm-up: no snapshot yet, but the removed ranks' status is due.
            if rel == 0 {
                let removed = self.removed_nodes();
                self.send_statuses(&removed, &vec![0; self.wsize]);
            }
            return false;
        }
        let fd = self.cfg.failure_detection;
        if rel != 0 {
            // A rank never advances without the snapshot. When the root's
            // monitor reads dead from here (this rank is partitioned; a dead
            // root is out of scope, DESIGN.md §14) it withdraws rather than
            // block forever: the survivors confirm it dead by that silence.
            let recv = |timeout| self.t.recv_shared(root, down, timeout);
            let Some(bytes) = self.unless_dead(root, recv) else {
                self.self_evict();
                return false;
            };
            let (na, wire) = (self.active.size(), &mut self.ctrl_wire);
            snap.decode_into(&bytes, wire, na, self.wsize, self.seed, fd);
            return true;
        }
        let own = self.self_samples.pop_front().expect("own sample queued");
        let samples = &mut snap.samples;
        samples.clear();
        samples.push(Sample::Time(own));
        let timeout = self.cfg.peer_timeout_seconds;
        for &peer in &self.active.members()[1..] {
            let sample = if fd {
                self.t.recv_bytes_timeout(peer, up, timeout)
            } else {
                Ok(self.t.recv_bytes(peer, up))
            };
            // A missing sample becomes a sentinel, classified by the monitor
            // reading: dead, or merely overloaded.
            samples.push(match sample {
                Ok(bytes) => {
                    from_bytes_into(&bytes, &mut self.ctrl_wire);
                    Sample::Time(self.ctrl_wire[0])
                }
                Err(_) if self.t.dmpi_ps(peer) == 0 => Sample::Silent,
                Err(_) => Sample::Stalled,
            });
        }
        let (world, ps) = (0..self.wsize, |n| self.t.dmpi_ps(n));
        let newcomers = self.seed..self.wsize;
        snap.loads.clear();
        snap.loads
            .extend(world.clone().map(|n| ps(n).saturating_sub(1)));
        snap.online.clear();
        snap.online.extend(newcomers.map(|n| self.t.node_online(n)));
        snap.alive.clear();
        snap.alive.extend(world.map(|n| !fd || ps(n) >= 1));
        // One encoded snapshot for every peer: the last send takes the
        // root's reference, so a transport that copies a shared buffer
        // copies it for all peers but that one.
        let bytes = Arc::new(snap.encode(fd));
        if let Some((&last, rest)) = self.active.members()[1..].split_last() {
            for &peer in rest {
                self.t.send_shared(peer, down, Arc::clone(&bytes));
            }
            self.t.send_shared(last, down, bytes);
        }
        true
    }

    /// Nodes currently outside the active group: the gaps between its
    /// sorted members, in one walk (no allocation when there are none).
    fn removed_nodes(&self) -> Vec<usize> {
        let mut from = 0;
        (self.active.members().iter().chain([&self.wsize]))
            .flat_map(|&m| std::mem::replace(&mut from, m + 1)..m)
            .collect()
    }

    // ---------------- carrying out the decisions --------------------------

    /// Advances the replicated machine one snapshot and carries out what it
    /// decides.
    fn advance(&mut self, snap: &Snapshot, arrays: &mut [&mut dyn RedistArray]) {
        let grace = matches!(self.state.mode, Mode::Grace { .. });
        let Some(step) = self.kernel().step(snap) else {
            return;
        };
        if let (true, Some(t)) = (grace, self.timer.as_mut()) {
            t.end_cycle();
        }
        let loads = &snap.loads;
        match step {
            Step::Hold => {}
            Step::Measure(event) => {
                self.note(event);
                self.start_row_timer();
            }
            Step::Rejoin((members, dist)) => self.enact(members, dist, None, loads, arrays),
            Step::CloseGrace(None) => self.spanned("finish_grace", |rt| rt.balance(loads, arrays)),
            // Expansion and removal (§4.4): the new layout is a full
            // redistribution, relative ranks reassigned by the new group.
            Step::CloseGrace(Some(node)) => self.spanned("arrival_eval", |rt| {
                rt.finish_measurement(); // fresh row weights, as for a grace
                let (event, admit) = rt.kernel().expand_rule(node, loads);
                rt.note(event);
                if let Some((members, dist)) = admit {
                    rt.enact(members, dist, None, loads, arrays);
                }
            }),
            Step::CloseDrop => self.spanned("drop_eval", |rt| {
                let (event, drop) = rt.kernel().drop_rule(loads);
                if let Some(event) = event {
                    rt.note(event);
                }
                if let Some((members, dist)) = drop {
                    rt.enact(members, dist, None, loads, arrays);
                }
            }),
        }
    }

    /// End of the grace period: build global row weights, balance,
    /// redistribute if worthwhile.
    fn balance(&mut self, loads: &[u32], arrays: &mut [&mut dyn RedistArray]) {
        self.finish_measurement();
        obs::span_begin("runtime", "balance", self.t.now_ns());
        let (new_dist, moved, skip) = self.kernel().balance_or_skip(loads);
        if obs::enabled() {
            // The prediction the audit report checks against reality: the
            // balancer's own model of post-balance imbalance.
            let imbalance = self.kernel().predicted_imbalance(&new_dist, loads);
            obs::span_end_args(
                self.t.now_ns(),
                vec![
                    ("cycle", Json::UInt(self.cycle)),
                    ("moved_fraction", Json::Num(moved)),
                    ("predicted_imbalance", Json::Num(imbalance)),
                ],
            );
        }
        if let Some(skip) = skip {
            return self.note(skip);
        }
        let oc = redist::execute_cached(
            self.t,
            self.wrank,
            self.sched_cache.get_mut(),
            &self.active,
            &self.dist,
            &self.active,
            &new_dist,
            &self.accesses,
            arrays,
            None,
        );
        self.redist_seconds_total += oc.seconds;
        self.note(RuntimeEvent::Redistributed {
            cycle: self.cycle,
            seconds: oc.seconds,
            rows_moved: oc.rows_moved,
            counts: new_dist.counts(),
        });
        self.dist = new_dist;
    }

    // ---------------- the one membership transition ----------------------

    /// Enacts a membership change. Node drop, rejoin, admission, crash
    /// recovery (`restore = (dead, holder)`: the rows move out of a restored
    /// checkpoint, `holder` standing in for `dead`) and the joiner's side
    /// all come here with a layout decided from broadcast data, so every
    /// participant makes the identical change: adopt the new group, move the
    /// rows, start a fresh window and control epoch, log what happened.
    ///
    /// Letting a rank in sends the statuses *first*: it must learn its
    /// membership before the transfers reach it, and it reads the old epoch
    /// and bumps it like the actives do. A pure shrink sends them *last*,
    /// with the new epoch. Either way the pre-transition root sends them.
    fn enact(
        &mut self,
        members: Vec<usize>,
        dist: Distribution,
        restore: Option<(usize, usize)>,
        loads: &[u32],
        arrays: &mut [&mut dyn RedistArray],
    ) {
        let root = self.active.rel() == Some(0);
        let owed = if root { self.removed_nodes() } else { vec![] };
        // Adopt the new layout at once (the statuses announce it); the
        // old one is what the rows move *from*.
        let old_group = std::mem::replace(&mut self.active, Group::new(members, self.wrank));
        let old_dist = std::mem::replace(&mut self.dist, dist);
        self.is_removed = self.active.rel().is_none();
        let (old, new) = (old_group.members().iter(), self.active.members().iter());
        let nodes: Vec<usize> = old.copied().filter(|&m| !self.active.contains(m)).collect();
        let entering: Vec<usize> = new.copied().filter(|&m| !old_group.contains(m)).collect();
        let cycle = self.cycle;
        let event = match (entering.first(), restore) {
            (Some(&node), _) if node >= self.seed => {
                let rel = self.active.rel_of(node).expect("entering node is a member");
                let rows = self.dist.rows_of(rel).len();
                RuntimeEvent::NodeAdmitted { cycle, node, rows }
            }
            (Some(&node), _) => RuntimeEvent::NodeRejoined { cycle, node },
            (None, Some((node, holder))) => {
                let rel = old_group.rel_of(node).expect("dead node was active");
                RuntimeEvent::NodeRecovered {
                    cycle,
                    node,
                    rollback_to: self.app_progress,
                    // Identical on every survivor (the holder's actual
                    // count equals this by the refresh invariant).
                    restored_rows: old_dist.rows_of(rel).len() * arrays.len(),
                    holder,
                }
            }
            (None, None) => RuntimeEvent::NodesDropped { cycle, nodes },
        };
        // Before the statuses go out: the joiner's tail ships the
        // post-transition streaks, keeping its replica exact.
        self.state.transition(&entering, loads);
        if !entering.is_empty() {
            self.send_statuses(&owed, loads);
        }

        let oc = redist::execute_cached(
            self.t,
            self.wrank,
            self.sched_cache.get_mut(),
            &old_group,
            &old_dist,
            &self.active,
            &self.dist,
            &self.accesses,
            arrays,
            restore,
        );
        self.redist_seconds_total += oc.seconds;
        self.reset_ctrl_pipeline();
        self.note(event);

        if restore.is_some() {
            // Fresh checkpoints over the surviving group — the old mirrors
            // reference the pre-crash membership and distribution.
            self.refresh_ckpt(arrays);
        }
        if entering.is_empty() {
            self.send_statuses(&owed, loads);
        }
    }

    // ---------------- crash recovery (fail-stop path) --------------------

    /// Refreshes the buddy checkpoint over the current active group,
    /// stamping the application progress the snapshot encodes.
    fn refresh_ckpt(&mut self, arrays: &mut [&mut dyn RedistArray]) {
        self.ckpt.refresh(
            self.t,
            self.wrank,
            &self.active,
            &self.dist,
            arrays,
            self.app_progress,
            Some(self.cfg.peer_timeout_seconds),
        );
        self.cycles_since_ckpt = 0;
    }

    /// A confirmed death: every survivor rolls its rows back to the
    /// checkpoint, the dead node's ring buddy materializes its mirror and
    /// stands in for it in the recovery redistribution, the group shrinks,
    /// and [`Self::run_cycles`] rewinds the application's loop.
    fn recover_from_death(
        &mut self,
        dead_node: usize,
        loads: &[u32],
        arrays: &mut [&mut dyn RedistArray],
    ) {
        obs::span_begin("runtime", "crash_recovery", self.t.now_ns());
        let dead_rel = self.active.rel_of(dead_node).expect("dead node is active");
        // The ring buddy: the dead node's successor holds its mirror.
        let holder = self.active.world_rank((dead_rel + 1) % self.active.size());
        let mut survivors = self.active.members().to_vec();
        survivors.retain(|&m| m != dead_node);

        // The restorable generation is the holder's mirror stamp: a refresh
        // after the (still-masked) death left that mirror one generation
        // behind. Only the holder knows, so it sends the stamp round.
        let rb = if self.wrank == holder {
            assert_eq!(
                self.ckpt.holds_mirror_of(),
                Some(dead_node),
                "holder's mirror is not of the dead node (unrecoverable)"
            );
            let rb = self.ckpt.mirror_app_cycle().expect("holder has a mirror");
            for &s in survivors.iter().filter(|&&s| s != holder) {
                self.t
                    .send_bytes(s, TAG_CKPT_META, rb.to_le_bytes().to_vec());
            }
            rb
        } else {
            let bytes = self.t.recv_bytes(holder, TAG_CKPT_META);
            u64::from_le_bytes(bytes.try_into().expect("an app-cycle stamp"))
        };

        // Roll back to that generation (my rows from my snapshot, the dead
        // node's from the mirror): the recovery moves rows *from* its layout.
        let (gen_members, gen_dist) = self.ckpt.restore_generation(rb, arrays);
        assert_eq!(
            gen_members,
            self.active.members(),
            "membership changed across the stale-mirror window (unrecoverable)"
        );
        self.dist = gen_dist;
        if self.wrank == holder {
            self.ckpt.materialize_mirror(arrays);
        }
        let new_dist = self.kernel().balance_over(&survivors, loads, 0);

        self.state.bury(dead_node);
        // The survivors replay the lost steps from restored data.
        self.app_progress = rb;
        self.rollback_to = Some(rb);
        let restore = Some((dead_node, holder));
        self.enact(survivors, new_dist, restore, loads, arrays);
        obs::span_end_args(
            self.t.now_ns(),
            vec![
                ("cycle", Json::UInt(self.cycle)),
                ("dead", Json::UInt(dead_node as u64)),
                ("holder", Json::UInt(holder as u64)),
                ("rollback_to", Json::UInt(self.app_progress)),
            ],
        );
    }

    /// Permanent withdrawal of an isolated rank: its control receives
    /// went silent for the full confirmation window, so from its
    /// perspective the rest of the computation is gone (it is
    /// partitioned, or the root died — out of scope). It stops
    /// participating rather than blocking forever; the survivors confirm
    /// it dead through the same silence and recover without it.
    fn self_evict(&mut self) {
        self.trace_point("self-evict", || vec![("cycle", Json::UInt(self.cycle))]);
        self.evicted = true;
        self.is_removed = true;
    }

    /// Did this rank withdraw after concluding it was isolated?
    pub fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// World nodes confirmed dead by the failure detector.
    pub fn dead_nodes(&self) -> Vec<usize> {
        (0..self.wsize).filter(|&n| self.state.dead[n]).collect()
    }

    // ---------------- measurement windows --------------------------------

    /// Starts timing this rank's currently owned rows.
    fn start_row_timer(&mut self) {
        let mine = self.dist.rows_of(self.active.rel_unchecked());
        let (lo, count) = (mine.start, mine.len());
        self.timer = Some(RowTimer::new(lo, count, self.t.proc_tick_seconds()));
    }

    /// Closes a row-timing window: logs how the rows were timed and
    /// assembles the global per-row weight vector — every active rank
    /// contributes its contiguous block, in relative-rank (= row) order.
    fn finish_measurement(&mut self) {
        let timer = self.timer.take().expect("grace without timer");
        let (cycle, mode) = (self.cycle, timer.mode().expect("grace saw no cycles"));
        self.note(RuntimeEvent::GraceComplete { cycle, mode });
        let weights = self.allgather(&timer.weights());
        assert_eq!(weights.len(), self.nrows, "weight gather incomplete");
        self.row_weights = Some(weights);
    }

    /// Runs `f` inside a `runtime` trace span.
    fn spanned(&mut self, name: &'static str, f: impl FnOnce(&mut Self)) {
        obs::span_begin("runtime", name, self.t.now_ns());
        f(self);
        obs::span_end(self.t.now_ns());
    }

    /// Starts a fresh control-pipeline epoch after a membership change:
    /// old in-flight samples and blobs carry a stale tag and are never
    /// consumed.
    fn reset_ctrl_pipeline(&mut self) {
        self.ctrl_epoch += 1;
        self.ctrl_sent = 0;
        self.self_samples.clear();
    }

    // ---------------- removed-rank path ----------------------------------

    /// Encodes the post-cycle status: membership and distribution counts,
    /// plus a joining rank's replica resync tail ([`State::tail`]).
    fn status_payload(&self, for_member: bool, loads: &[u32]) -> Vec<u8> {
        let mut v: Vec<u64> = Vec::with_capacity(3 + self.active.size() * 2);
        v.push(self.cycle);
        v.push(self.active.size() as u64);
        v.extend(self.active.members().iter().map(|&m| m as u64));
        v.extend(self.dist.counts().iter().map(|&c| c as u64));
        v.push(self.ctrl_epoch);
        let mut bytes = to_bytes(&v);
        if for_member {
            let weights = policy::effective_weights(self.row_weights.as_deref(), self.nrows);
            bytes.extend_from_slice(&to_bytes(&self.state.tail(loads, &weights, &self.cfg)));
        }
        bytes
    }

    fn send_statuses(&self, removed: &[usize], loads: &[u32]) {
        for &n in removed {
            let for_member = self.active.contains(n);
            self.t
                .send_bytes(n, TAG_STATUS, self.status_payload(for_member, loads));
        }
    }

    fn removed_end_cycle(&mut self, arrays: &mut [&mut dyn RedistArray]) {
        // Same self-eviction rule as the active blob receive.
        let Some(bytes) = self.recv_unless_dead(self.active.world_rank(0), TAG_STATUS) else {
            self.self_evict();
            return;
        };
        let nm = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let header_len = 8 * (3 + 2 * nm);
        let v: Vec<u64> = from_bytes(&bytes[..header_len]);
        let members: Vec<usize> = v[2..2 + nm].iter().map(|&m| m as usize).collect();
        let counts: Vec<usize> = v[2 + nm..2 + 2 * nm].iter().map(|&c| c as usize).collect();
        // Track the control epoch so a rejoin resumes with aligned tags
        // (the rejoin branch bumps it once, like the actives do).
        self.ctrl_epoch = v[2 + 2 * nm];
        let dist = Distribution::block_from_counts(&counts);

        if !members.contains(&self.wrank) {
            self.active = Group::new(members, self.wrank);
            self.dist = dist;
            return;
        }
        // Joining: resync the replica from the tail, then take part in the
        // redistribution the actives are running right now, as a receiver.
        let tail: Vec<f64> = from_bytes(&bytes[header_len..]);
        let (loads, weights) = self.state.resync(&tail, &self.cfg);
        assert_eq!(weights.len(), self.nrows, "malformed rejoin status");
        self.row_weights = Some(weights);
        self.enact(members, dist, None, &loads, arrays);
    }

    /// Refreshes the DRSD ghost rows of `array` from their current
    /// owners — the per-cycle boundary exchange of a stencil code,
    /// expressed through the registered access descriptors so it stays
    /// correct across redistributions, empty blocks, and node removal.
    /// Must be called by every active rank in the same cycle; removed
    /// ranks no-op.
    pub fn ghost_exchange(&self, array: ArrayId, arr: &mut dyn RedistArray) {
        if self.is_removed {
            return;
        }
        assert!(
            self.active.rel().is_some(),
            "ghost_exchange on a non-member rank"
        );
        let sched = self.steady_schedule();
        let tag = TAG_GEX + array as u64;
        for (dst, from_me) in &sched.ghost_sends[array] {
            let payload = arr.pack_rows(from_me.clone(), false);
            self.t.send_bytes(*dst, tag, payload);
        }
        for (src, from_src) in &sched.ghost_recvs[array] {
            // A dead neighbor must not hang the exchange: its ghost rows
            // are given up as stale. The detector then confirms within
            // cycles and recovery rolls everything back past the stale
            // reads.
            let Some(p) = self.recv_unless_dead(*src, tag) else {
                self.trace_point("ghost-timeout", || vec![("src", Json::UInt(*src as u64))]);
                continue;
            };
            arr.unpack_rows(from_src.clone(), &p);
        }
    }

    /// The per-cycle exchange of a code whose boundary rows push data into
    /// the neighbouring blocks (particle's flux). Sends `up` to the owner of
    /// the row just above this rank's block of `phase` and `down` to the
    /// owner of the row just below, where those rows are in the phase, then
    /// receives from the owner above and the owner below: returns
    /// `(from_above, from_below)`. A dead neighbour's payload is given up
    /// (`None`), as in [`Self::ghost_exchange`]. Must be called by every
    /// active rank in the same cycle; removed ranks and empty blocks no-op.
    pub fn neighbor_exchange(
        &self,
        phase: PhaseId,
        up: &[f64],
        down: &[f64],
    ) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
        let Some((lo, hi)) = self.my_range(phase) else {
            return (None, None);
        };
        let spec = self.phases[phase];
        let owner = |row: usize| self.active.world_rank(self.dist.owner(row));
        let above = (lo > spec.lo).then(|| owner(lo - 1));
        let below = (hi + 1 < spec.hi).then(|| owner(hi + 1));
        for (dst, tag, payload) in [(above, TAG_NBR_UP, up), (below, TAG_NBR_DOWN, down)] {
            if let Some(dst) = dst {
                self.t.send_bytes(dst, tag, to_bytes(payload));
            }
        }
        let recv = |src: Option<usize>, tag| Some(from_bytes(&self.recv_unless_dead(src?, tag)?));
        (recv(above, TAG_NBR_DOWN), recv(below, TAG_NBR_UP))
    }

    /// Gathers every active rank's `mine`, concatenated in relative-rank
    /// order: under a block layout, a row-distributed vector made whole
    /// (CG's `p`, the grace period's row weights). Every active rank calls
    /// it in the same cycle; it is not death-aware.
    pub fn allgather(&self, mine: &[f64]) -> Vec<f64> {
        self.t.allgatherv(&self.active, mine).concat()
    }

    /// A receive that a dead peer must not hang (a plain blocking receive
    /// without failure detection). A timeout alone is NOT evidence of
    /// death: a merely *slow* peer's message is coming — abandoning a
    /// ghost payload would leave this and (the message stays queued) every
    /// later exchange one cycle stale, and the root's gather legitimately
    /// drifts one peer-timeout per silent cycle while a death is being
    /// confirmed, so a fixed retry budget would falsely evict a healthy
    /// survivor (and deadlock the others' recovery). So the wait re-arms
    /// until the evidence the detector treats as death — the peer's
    /// monitor reading dead — and only then gives up with `None`.
    fn recv_unless_dead(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
        self.unless_dead(src, |timeout| match timeout {
            Some(secs) => self.t.recv_bytes_timeout(src, tag, secs),
            None => Ok(self.t.recv_bytes(src, tag)),
        })
    }

    /// [`Self::recv_unless_dead`] over any receive from `src`: `recv`
    /// takes the timeout in seconds, or `None` for a plain blocking
    /// receive (without failure detection).
    fn unless_dead<P>(
        &self,
        src: usize,
        recv: impl Fn(Option<f64>) -> Result<P, PeerTimeout>,
    ) -> Option<P> {
        if !self.cfg.failure_detection {
            return recv(None).ok();
        }
        loop {
            match recv(Some(self.cfg.peer_timeout_seconds)) {
                Ok(payload) => return Some(payload),
                Err(_) if self.t.dmpi_ps(src) == 0 => return None,
                Err(_) => {}
            }
        }
    }

    // ---------------- removed-aware global operations (§4.4) -------------

    /// A global sum-allreduce in which removed ranks participate only in
    /// the *send-out*: actives reduce among themselves, then the active
    /// root forwards the result to every removed rank. All world ranks
    /// must call this the same number of times.
    pub fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        self.removed_aware(data, |t, g, d| t.allreduce_sum_f64(g, d))
    }

    /// Max-allreduce with the same removed-aware semantics.
    pub fn allreduce_max(&self, data: &[f64]) -> Vec<f64> {
        self.removed_aware(data, |t, g, d| t.allreduce_max_f64(g, d))
    }

    fn removed_aware(
        &self,
        data: &[f64],
        reduce: impl FnOnce(&T, &Group, &[f64]) -> Vec<f64>,
    ) -> Vec<f64> {
        if self.evicted {
            // An isolated rank has no group to reduce over; its results
            // are no longer part of the surviving computation.
            return vec![0.0; data.len()];
        }
        if self.is_removed {
            let root = self.active.world_rank(0);
            return from_bytes(&self.t.recv_bytes(root, TAG_GLOBAL));
        }
        let r = reduce(self.t, &self.active, data);
        if self.active.rel() == Some(0) {
            for n in self.removed_nodes() {
                self.t.send_bytes(n, TAG_GLOBAL, to_bytes(&r));
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DropPolicy;
    use crate::dense::DenseMatrix;
    use crate::drive::{cluster, drive_probed, RankOut, Scenario};
    use dynmpi_comm::SimTransport;
    use dynmpi_obs::{Recorder, TraceEvent};
    use dynmpi_sim::{LoadScript, NodeSpec, SimDur};

    /// The shared driver, which here also asserts that every rank active
    /// at the end holds an equal replicated decision state. Without a
    /// `max_redistributions` cap the redistribution count sways no
    /// decision, so a joiner's status tail does not ship it: it is left
    /// out of the comparison.
    fn drive(sc: &Scenario) -> Vec<Option<RankOut<State>>> {
        drive_probed(sc, &|rt: &DynMpi<'_, SimTransport<'_>>| {
            let mut state = rt.state.clone();
            if rt.cfg.max_redistributions.is_none() {
                state.redist_count = 0;
            }
            state
        })
    }

    /// The ranks that did not crash.
    fn finished(outs: Vec<Option<RankOut<State>>>) -> Vec<RankOut<State>> {
        outs.into_iter().flatten().collect()
    }

    /// Quick windows, so a scenario of a few dozen steps sees the whole
    /// grace → redistribute → drop-evaluation arc.
    fn quick(drop_policy: DropPolicy) -> DynMpiConfig {
        DynMpiConfig {
            drop_policy,
            grace_period: 2,
            post_redist_period: 2,
            ..Default::default()
        }
    }

    #[test]
    fn stable_run_never_redistributes() {
        let outs = drive(&Scenario::new(3, 30, 8, DynMpiConfig::default()));
        for o in finished(outs) {
            assert!(o.events.is_empty());
            assert_eq!(o.cycles, 8);
        }
    }

    #[test]
    fn load_change_triggers_grace_and_redistribution() {
        let cfg = DynMpiConfig {
            drop_policy: DropPolicy::Never,
            ..Default::default()
        };
        let script = LoadScript::dedicated().at_cycle(1, 2, 1);
        let outs = finished(drive(&Scenario::new(4, 64, 20, cfg).script(script)));
        for o in &outs {
            let kinds = o.kinds().join(",");
            assert!(
                kinds.starts_with("load-change,grace-complete,redistributed"),
                "{kinds}"
            );
            // The loaded node (rank 1) must end up with fewer rows.
            assert!(o.counts[1] < o.counts[0], "counts: {:?}", o.counts);
            assert_eq!(o.counts.iter().sum::<usize>(), 64);
        }
    }

    #[test]
    fn forced_drop_removes_loaded_node_and_preserves_data() {
        let script = LoadScript::dedicated().at_cycle(2, 1, 2);
        let sc = Scenario::new(3, 30, 16, quick(DropPolicy::Always)).script(script);
        let outs = finished(drive(&sc));
        assert!(
            outs[0].participating && outs[1].participating && !outs[2].participating,
            "{outs:?}"
        );
        for o in &outs {
            assert_eq!(o.members, [0, 1]);
        }
        assert_eq!(outs[0].rows + outs[1].rows, 30, "survivors own everything");
        assert_eq!(outs[2].rows, 0);
    }

    #[test]
    fn logical_drop_keeps_node_with_min_share() {
        let cfg = DynMpiConfig {
            min_rows_logical: 2,
            // A huge penalty model zeroes the loaded node's natural share.
            wait_factor: 50.0,
            ..quick(DropPolicy::Logical)
        };
        let script = LoadScript::dedicated().at_cycle(0, 1, 3);
        for o in finished(drive(&Scenario::new(3, 30, 14, cfg).script(script))) {
            assert!(o.participating, "logical drop keeps everyone participating");
            assert_eq!(o.counts[0], 2, "loaded node keeps the floor share");
        }
    }

    #[test]
    fn auto_drop_respects_prediction() {
        let cfg = DynMpiConfig {
            post_redist_period: 3,
            ..quick(DropPolicy::Auto)
        };
        let script = LoadScript::dedicated().at_cycle(1, 1, 3);
        let outs = finished(drive(&Scenario::new(2, 20, 16, cfg).script(script)));
        // Both ranks log the evaluation, and agree on its outcome.
        for o in &outs {
            assert_eq!(o.count("drop-evaluated"), 1, "{:?}", o.kinds());
        }
        assert_eq!(outs[0].members, outs[1].members);
    }

    /// The rejoin extension: a dropped node whose load clears is
    /// readmitted, and the balancer weighs it by its configured speed.
    #[test]
    fn rejoin_readmits_cleared_node_and_balances_by_speed() {
        for node_speeds in [vec![], vec![1.0, 1.0, 2.0]] {
            let cfg = DynMpiConfig {
                allow_rejoin: true,
                rejoin_after_cycles: 2,
                node_speeds: node_speeds.clone(),
                ..quick(DropPolicy::Always)
            };
            let script = LoadScript::dedicated().at_cycle(2, 1, 2).at_cycle(2, 12, 0);
            let outs = finished(drive(&Scenario::new(3, 60, 30, cfg).script(script)));
            for o in &outs {
                assert!(o.participating, "node must have rejoined: {outs:?}");
                assert_eq!(o.members, [0, 1, 2]);
                if !node_speeds.is_empty() {
                    let c = &o.counts;
                    assert!(c[2] > c[0], "double-speed node gets more: {c:?}");
                }
            }
            assert!(outs[0].kinds().contains(&"nodes-dropped"));
            assert_eq!(outs.iter().map(|o| o.rows).sum::<usize>(), 60);
        }
    }

    /// Regression: two nodes clear their load simultaneously. The first
    /// rejoin used to reset *every* removed node's clear streak, so the
    /// second node silently restarted its full `rejoin_after_cycles`
    /// wait — multi-node rejoin starvation. With the fix, only the
    /// readmitted node's streak is reset and the second node rejoins on
    /// the next eligible cycle (one pipeline warm-up later).
    #[test]
    fn multi_node_rejoin_not_starved() {
        let cfg = DynMpiConfig {
            allow_rejoin: true,
            rejoin_after_cycles: 4,
            ..quick(DropPolicy::Always)
        };
        let script = LoadScript::dedicated()
            .at_cycle(2, 1, 2)
            .at_cycle(3, 1, 2)
            .at_cycle(2, 14, 0)
            .at_cycle(3, 14, 0);
        let outs = finished(drive(&Scenario::new(4, 40, 40, cfg).script(script)));
        for o in &outs {
            assert_eq!(o.members, [0, 1, 2, 3], "both nodes must be back");
        }
        assert_eq!(outs.iter().map(|o| o.rows).sum::<usize>(), 40);
        // Rank 0 was never removed, so its log has both rejoins. The
        // second must follow the first within the control-pipeline
        // warm-up (CTRL_LAG cycles frozen + 1 eligible cycle), NOT a
        // full rejoin_after_cycles streak later.
        let rejoins = outs[0]
            .events
            .iter()
            .filter(|e| e.kind() == "node-rejoined");
        let cycles: Vec<u64> = rejoins.map(|e| e.cycle()).collect();
        assert_eq!(cycles.len(), 2, "two distinct rejoins: {cycles:?}");
        let gap = cycles[1] - cycles[0];
        assert!(gap <= CTRL_LAG + 1, "second rejoin starved: {cycles:?}");
    }

    /// Malleability: a brand-new node beyond the seed world comes online
    /// and is measured through an arrival grace window. The expansion
    /// decision is a real gate: a margin any measurable cycle time beats
    /// admits it (it receives rows); an impossible one evaluates it on
    /// the deterministic retry schedule but never admits, and the seed
    /// world keeps all rows.
    #[test]
    fn arrival_is_admitted_only_when_the_expansion_pays() {
        for (expand_margin, arrival_retry_cycles, admit) in [(1e-6, 1, true), (1e9, 4, false)] {
            let cfg = DynMpiConfig {
                seed_world: Some(2),
                grace_period: 2,
                arrival_retry_cycles,
                expand_margin,
                ..Default::default()
            };
            let sc = Scenario::new(2, 30, 20, cfg);
            let online = sc.at(0.15);
            let newcomer = NodeSpec::with_speed(1e6);
            let script = LoadScript::dedicated().node_arrival(online, newcomer, SimDur::ZERO);
            let outs = finished(drive(&sc.script(script)));
            assert_eq!(outs.len(), 3, "the arrival adds a rank");
            for o in &outs {
                assert_eq!(o.members.len(), if admit { 3 } else { 2 }, "{outs:?}");
            }
            assert_eq!(outs.iter().map(|o| o.rows).sum::<usize>(), 30);
            assert_eq!(outs[2].rows > 0, admit, "{outs:?}");
            // The seed ranks log the whole decision sequence; the
            // newcomer only learns of its own admission.
            for o in &outs[..2] {
                let evals = o.events.iter().filter_map(|e| match e {
                    RuntimeEvent::ExpandEvaluated { admitted, .. } => Some(*admitted),
                    _ => None,
                });
                let evals: Vec<bool> = evals.collect();
                assert!(!evals.is_empty() && evals.contains(&admit), "{evals:?}");
                assert_eq!(evals.iter().all(|&a| !a), !admit, "{evals:?}");
                assert!(o.kinds().contains(&"node-arrived"));
            }
            let admissions = if admit { vec!["node-admitted"] } else { vec![] };
            assert_eq!(outs[2].kinds(), admissions);
        }
    }

    /// A newcomer admitted after the seed ranks used up their
    /// `max_redistributions` holds the same replica: the status tail ships
    /// the count under a cap.
    #[test]
    fn admitted_rank_replicates_the_capped_count() {
        let cfg = DynMpiConfig {
            seed_world: Some(2),
            max_redistributions: Some(1),
            grace_period: 2,
            arrival_retry_cycles: 1,
            drop_policy: DropPolicy::Never,
            ..Default::default()
        };
        let sc = Scenario::new(2, 30, 30, cfg);
        let online = sc.at(0.3);
        let newcomer = NodeSpec::with_speed(1e6);
        let script = (LoadScript::dedicated().at_cycle(0, 2, 2)).node_arrival(
            online,
            newcomer,
            SimDur::ZERO,
        );
        let outs = finished(drive(&sc.script(script)));
        assert_eq!(outs[2].kinds(), ["node-admitted"]);
        for o in &outs {
            assert_eq!(o.members, [0, 1, 2]);
            assert_eq!(o.state.redist_count, 1);
        }
    }

    #[test]
    fn removed_rank_allreduce_gets_result() {
        let cfg = DynMpiConfig {
            grace_period: 1,
            post_redist_period: 1,
            ..quick(DropPolicy::Always)
        };
        let mut sc =
            Scenario::new(3, 12, 10, cfg).script(LoadScript::dedicated().at_cycle(2, 1, 1));
        // Every step's sum is checked on every rank inside the driver.
        sc.reduce = true;
        let outs = finished(drive(&sc));
        assert!(!outs[2].participating, "rank 2 reduces as a removed rank");
    }

    #[test]
    fn request_rebalance_without_load_change() {
        let mut sc = Scenario::new(2, 16, 12, DynMpiConfig::default());
        sc.rebalance_at = Some(2);
        for o in finished(drive(&sc)) {
            let kinds = o.kinds();
            assert!(kinds.contains(&"load-change"), "{kinds:?}");
            assert!(
                kinds.contains(&"redist-skipped") || kinds.contains(&"redistributed"),
                "{kinds:?}"
            );
        }
    }

    #[test]
    fn no_adapt_ignores_load_changes() {
        let script = LoadScript::dedicated().at_cycle(0, 2, 5);
        let sc = Scenario::new(2, 16, 10, DynMpiConfig::no_adapt()).script(script);
        for o in finished(drive(&sc)) {
            assert!(o.events.is_empty());
            assert_eq!(o.counts, [8, 8]);
        }
    }

    #[test]
    fn queries_reflect_registration() {
        cluster(2).run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let mut rt = DynMpi::init(&t, 10, DynMpiConfig::default());
            let a = rt.register_dense("A", 10);
            let ph = rt.init_phase(1, 9, CommPattern::NearestNeighbor);
            rt.add_access(ph, a, AccessMode::Read, Drsd::with_halo(1));
            assert!(rt.participating());
            assert_eq!(rt.num_active(), 2);
            assert_eq!(rt.rel_rank(), Some(ctx.rank()));
            // Rows 0..5 ∩ [1,9) = 1..=4 on rank 0, 5..=8 on rank 1.
            let expect = if ctx.rank() == 0 { (1, 4) } else { (5, 8) };
            assert_eq!(rt.my_range(ph), Some(expect));
        });
    }

    #[test]
    fn ghost_exchange_refreshes_halo() {
        cluster(3).run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let mut rt = DynMpi::init(&t, 9, DynMpiConfig::default());
            let a = rt.register_dense("A", 9);
            let ph = rt.init_phase(0, 9, CommPattern::NearestNeighbor);
            rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
            let mut m = DenseMatrix::<f64>::new(9, 1);
            rt.setup(&mut [&mut m]);
            // Write a rank-specific value into owned rows, then exchange.
            for i in rt.my_rows(ph) {
                m.row_mut(i)[0] = (100 + i) as f64;
            }
            rt.ghost_exchange(a, &mut m);
            // Ghost rows now carry their owners' values.
            for i in rt.local_rows(a) {
                assert_eq!(m.row(i)[0], (100 + i) as f64, "row {i}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "does not meet every block")]
    fn a_read_section_off_the_block_is_rejected() {
        cluster(1).run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let mut rt = DynMpi::init(&t, 8, DynMpiConfig::default());
            let a = rt.register_dense("A", 8);
            let ph = rt.init_phase(0, 8, CommPattern::NearestNeighbor);
            let past_the_end = Drsd {
                start: Bound::End(2),
                end: Bound::End(3),
            };
            rt.add_access(ph, a, AccessMode::Read, past_the_end);
        });
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_array_name_rejected() {
        cluster(1).run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            let mut rt = DynMpi::init(&t, 4, DynMpiConfig::default());
            rt.register_dense("A", 4);
            rt.register_dense("A", 4);
        });
    }

    fn crash_cfg() -> DynMpiConfig {
        DynMpiConfig {
            failure_detection: true,
            failure_confirm_cycles: 2,
            checkpoint_interval_cycles: 3,
            drop_policy: DropPolicy::Never,
            ..Default::default()
        }
    }

    /// Tentpole end-to-end at the unit level: a silent node is suspected,
    /// confirmed after the sustain window, its rows are restored from the
    /// buddy mirror, the survivors roll back and replay — and (checked in
    /// the driver) every row ends with exactly `steps` increments, as in
    /// a crash-free run. The neighbour exchange runs every step, so its
    /// receives from the dead node must give up rather than hang.
    #[test]
    fn crash_is_confirmed_and_recovered_from_buddy() {
        let mut sc = Scenario::new(4, 40, 16, crash_cfg());
        sc.neighbors = true;
        let script = LoadScript::dedicated().node_crash(sc.at(0.4), 2);
        let outs = drive(&sc.script(script));
        assert!(outs[2].is_none(), "rank 2 crashed");
        let survivors = finished(outs);
        assert_eq!(survivors.len(), 3);
        for o in &survivors {
            assert_eq!(o.members, [0, 1, 3]);
            assert_eq!(o.dead, [2]);
            assert_eq!(o.rollbacks.len(), 1, "exactly one rollback");
            for k in ["node-suspected", "node-confirmed-dead", "node-recovered"] {
                assert!(o.kinds().contains(&k), "missing {k}: {:?}", o.kinds());
            }
            // All survivors rolled back to the same checkpointed step.
            assert_eq!(o.rollbacks, survivors[0].rollbacks);
        }
        // Survivors own the whole space, dead rows restored from the buddy.
        assert_eq!(survivors.iter().map(|o| o.rows).sum::<usize>(), 40);
    }

    /// Property guard: a node whose control samples time out while its
    /// monitor still answers (pure overload) must never build a suspect
    /// streak, let alone be confirmed dead.
    #[test]
    fn overloaded_stall_is_never_confirmed() {
        let recorder = Recorder::new();
        // Rank 1 is slowed 4× — seconds per step behind the root, against
        // a 0.5 s peer timeout — for far longer than the sustain window,
        // then clears.
        let script = LoadScript::dedicated().at_cycle(1, 3, 3).at_cycle(1, 10, 0);
        let mut sc = Scenario::new(3, 30, 14, crash_cfg()).script(script);
        sc.recorder = Some(recorder.clone());
        for o in finished(drive(&sc)) {
            for k in ["node-suspected", "node-confirmed-dead", "node-recovered"] {
                assert_eq!(o.count(k), 0, "stall must never escalate");
            }
            assert!(o.rollbacks.is_empty(), "no recovery under overload");
            assert!(o.participating);
            assert_eq!(o.members, [0, 1, 2]);
        }
        // The stall really happened: the root's control gather from the
        // overloaded peer timed out at least once (→ `CTRL_STALLED`).
        let events = recorder.events();
        let stalls = events.iter().filter(|e| match e {
            TraceEvent::Instant {
                name: "recv-timeout",
                rank: 0,
                args,
                ..
            } => {
                let arg = |k| args.iter().find(|a| a.0 == k).and_then(|a| a.1.as_u64());
                arg("src") == Some(1)
                    && arg("tag")
                        .is_some_and(|t| t >= TAG_CTRL_UP && (t - TAG_CTRL_UP).is_multiple_of(4))
            }
            _ => false,
        });
        assert!(stalls.count() > 0, "the gather from rank 1 never timed out");
    }

    /// The other side of a partition: the cut-off rank's own control
    /// receives go silent, so after the sustain window it withdraws
    /// permanently instead of blocking forever, while the survivors
    /// confirm it dead and recover its rows.
    #[test]
    fn partitioned_rank_self_evicts_and_survivors_recover() {
        let sc = Scenario::new(4, 40, 16, crash_cfg());
        let script = LoadScript::dedicated().node_partition(sc.at(0.4), 1);
        let outs = finished(drive(&sc.script(script)));
        assert!(outs[1].evicted, "partitioned rank withdraws");
        assert!(!outs[1].participating);
        assert_eq!(outs[1].rows, 0);
        for (r, o) in outs.iter().enumerate().filter(|(r, _)| *r != 1) {
            assert!(!o.evicted && o.participating, "rank {r}");
            assert_eq!(o.members, [0, 2, 3]);
        }
        assert_eq!(outs.iter().map(|o| o.rows).sum::<usize>(), 40);
    }
}
