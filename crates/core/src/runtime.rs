//! The Dyn-MPI runtime (§4).
//!
//! One [`DynMpi`] instance lives on each rank. The application registers
//! its redistributable arrays, phases, and DRSD accesses, then brackets
//! every phase cycle with [`DynMpi::begin_cycle`] / [`DynMpi::end_cycle`].
//! `end_cycle` is where everything happens:
//!
//! 1. every active rank's cycle time is gathered; the root reads the
//!    `dmpi_ps` monitors and broadcasts a consistent load vector;
//! 2. the replicated state machine advances:
//!    `Stable → Grace(5) → [redistribute] → PostRedist(10) → {Stable | drop}`;
//! 3. removed ranks receive a per-cycle status message from the active
//!    root (the *send-out-only* global communication of §4.4) so they stay
//!    current on membership and can rejoin.
//!
//! All decisions are pure functions of broadcast data, so every rank
//! reaches the identical conclusion without further coordination.

use dynmpi_comm::{from_bytes, to_bytes, CommOps, Group, HostMeters};
use dynmpi_obs::{self as obs, Json};

use crate::array::{ArrayMeta, RedistArray};
use crate::balance::{
    predict_cycle_time, relative_power, successive_balance_with_floor, CommModel, NodeLoad,
};
use crate::checkpoint::{BuddyCheckpoint, TAG_CKPT_META};
use crate::config::{BalancerKind, DropPolicy, DynMpiConfig};
use crate::dist::Distribution;
use crate::drsd::{AccessMode, ArrayAccess, Drsd};
use crate::events::RuntimeEvent;
use crate::redist::{self, RedistOutcome, ScheduleCache, TransferSchedule};
use crate::rowset::RowSet;
use crate::timing::RowTimer;

use std::cell::RefCell;
use std::rc::Rc;

/// Status messages from the active root to removed ranks.
const TAG_STATUS: u64 = (1 << 33) + 0x20_0000;
/// Pipelined control plane: per-cycle samples up to the root and state
/// blobs back down, tagged per epoch (membership generation).
const TAG_CTRL_UP: u64 = 1 << 34;
const TAG_CTRL_DOWN: u64 = (1 << 34) + 1;
/// Control pipeline depth: decisions at cycle `k` use data from cycle
/// `k − CTRL_LAG`, so no rank ever blocks on another's in-flight control
/// message — monitoring stays off the critical path (the paper's
/// daemon-based design point).
const CTRL_LAG: u64 = 2;
/// Send-out leg of removed-aware global reductions.
const TAG_GLOBAL: u64 = (1 << 33) + 0x30_0000;
/// Per-cycle ghost-row exchange (one tag per array).
const TAG_GEX: u64 = (1 << 33) + 0x40_0000;
/// Control-gather sentinels (failure detection only): the peer's sample
/// never arrived within the timeout. `CTRL_SILENT` = its `dmpi_ps`
/// monitor also reads dead (a crash suspect); `CTRL_STALLED` = the
/// monitor still answers (overload — no suspicion, and the detector
/// streak resets so a merely slow node is never confirmed). Negative so
/// they can never collide with a real cycle time.
const CTRL_SILENT: f64 = -1.0;
const CTRL_STALLED: f64 = -2.0;

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
    fn blocking_recvs(self, n_active: usize) -> f64 {
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

/// What `end_cycle` did this cycle.
#[derive(Clone, Debug, Default)]
pub struct CycleReport {
    pub cycle: u64,
    pub seconds: f64,
    pub redistributed: bool,
    pub dropped: Vec<usize>,
    pub rejoined: Option<usize>,
    /// A brand-new node (beyond the seed world) admitted this cycle.
    pub admitted: Option<usize>,
    /// A node confirmed dead and recovered around this cycle. The caller
    /// must also check [`DynMpi::take_rollback`] and rewind its loop.
    pub recovered: Option<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Stable,
    Grace {
        left: u32,
    },
    PostRedist {
        left: u32,
    },
    /// Re-measurement window for an arriving node (malleability): rows
    /// are timed and cycle times accumulated before the expansion
    /// decision for `node`.
    ArrivalGrace {
        node: usize,
        left: u32,
    },
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

    active: Group,
    dist: Distribution,
    is_removed: bool,
    /// Removed rank's view of the active membership and distribution.
    known_members: Vec<usize>,
    known_counts: Vec<usize>,

    arrays: Vec<ArrayMeta>,
    phases: Vec<PhaseSpec>,
    accesses: Vec<ArrayAccess>,
    setup_done: bool,

    mode: Mode,
    cycle: u64,
    last_loads: Vec<u32>,
    rebalance_requested: bool,
    timer: Option<RowTimer>,
    row_weights: Option<Vec<f64>>,
    cycle_wall_start: f64,
    /// Per-active-member cycle-time accumulator for the post-redist
    /// window (indexed like `active.members()`).
    post_accum: Vec<f64>,
    post_count: u32,
    /// Consecutive load-free cycles per world node (rejoin tracking).
    clear_streak: Vec<u32>,

    local_cycle_times: Vec<f64>,
    events: Vec<RuntimeEvent>,
    redist_seconds_total: f64,
    redist_count: u32,

    /// Control-plane epoch: bumped at every membership transition so
    /// stale pipeline messages are never consumed.
    ctrl_epoch: u64,
    /// Samples sent since the epoch started.
    ctrl_sent: u64,
    /// Root only: this rank's own queued samples (peers' queue in their
    /// mailboxes).
    self_samples: std::collections::VecDeque<f64>,
    /// Blobs to ignore at the start of a PostRedist window (they carry
    /// pre-redistribution cycle times because of the pipeline lag).
    post_skip: u32,

    /// Buddy checkpoints (fail-stop path; empty unless
    /// `cfg.failure_detection`).
    ckpt: BuddyCheckpoint,
    /// Confirmed-dead world nodes — never readmitted.
    dead: Vec<bool>,
    /// Consecutive silent control cycles per world node (the replicated
    /// detector streaks; advanced identically on every active rank from
    /// the broadcast blob).
    silent_streak: Vec<u32>,
    /// Application steps completed on this rank (= phase cycles, minus
    /// replayed steps after a rollback). Stamped into checkpoints.
    app_progress: u64,
    /// Pending rollback for the application after a recovery.
    rollback_to: Option<u64>,
    /// Cycles since the last checkpoint refresh (interval refreshes).
    cycles_since_ckpt: u32,
    /// This rank concluded it is isolated (control receives silent for
    /// the full confirmation window) and withdrew permanently.
    evicted: bool,

    /// Transfer-schedule cache: steady-state cycles (ghost exchange,
    /// repeated redistributions over an unchanged distribution) reuse the
    /// schedule instead of re-deriving it. `RefCell` because the
    /// per-cycle ghost exchange runs behind `&self`.
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
            known_members: (0..seed).collect(),
            known_counts: Distribution::block_even(nrows, seed).counts(),
            arrays: Vec::new(),
            phases: Vec::new(),
            accesses: Vec::new(),
            setup_done: false,
            mode: Mode::Stable,
            cycle: 0,
            last_loads: vec![0; wsize],
            rebalance_requested: false,
            timer: None,
            row_weights: None,
            cycle_wall_start: 0.0,
            post_accum: vec![0.0; wsize],
            post_count: 0,
            clear_streak: vec![0; wsize],
            local_cycle_times: Vec::new(),
            events: Vec::new(),
            redist_seconds_total: 0.0,
            redist_count: 0,
            ctrl_epoch: 0,
            ctrl_sent: 0,
            self_samples: std::collections::VecDeque::new(),
            post_skip: 0,
            ckpt: BuddyCheckpoint::new(),
            dead: vec![false; wsize],
            silent_streak: vec![0; wsize],
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

    /// `DMPI_add_array_access`: attaches a DRSD to a phase.
    pub fn add_access(&mut self, _phase: PhaseId, array: ArrayId, mode: AccessMode, drsd: Drsd) {
        assert!(!self.setup_done, "register accesses before setup");
        assert!(array < self.arrays.len(), "unknown array id {array}");
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
            let rows = self.local_rows(ai);
            arr.alloc_rows(&rows);
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
        if self.is_removed {
            self.known_members.len()
        } else {
            self.active.size()
        }
    }

    /// World rank of a relative rank (for neighbor messaging).
    pub fn world_rank_of(&self, rel: usize) -> usize {
        self.active.world_rank(rel)
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
        Some((rows.first()?, rows.last()?))
    }

    /// The exact rows of `phase` this rank owns (supports cyclic
    /// distributions too).
    pub fn my_rows(&self, phase: PhaseId) -> RowSet {
        let spec = self.phases[phase];
        if self.is_removed {
            return RowSet::new();
        }
        let Some(rel) = self.active.rel() else {
            return RowSet::new();
        };
        self.dist
            .rows_of(rel)
            .intersect(&RowSet::from_range(spec.lo..spec.hi))
    }

    /// Rows of `array` present on this rank: owned plus DRSD ghosts. Use
    /// after `setup` (or a redistribution) to know what to initialize.
    pub fn local_rows(&self, array: ArrayId) -> RowSet {
        if self.is_removed || self.active.rel().is_none() {
            return RowSet::new();
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

    /// The active group, for application-level collectives over active
    /// ranks (e.g. CG's allgather of `p`). Guard uses with
    /// [`Self::participating`].
    pub fn group(&self) -> &dynmpi_comm::Group {
        &self.active
    }

    /// Active members (world ranks).
    pub fn active_members(&self) -> &[usize] {
        if self.is_removed {
            &self.known_members
        } else {
            self.active.members()
        }
    }

    /// The adaptation event log.
    pub fn events(&self) -> &[RuntimeEvent] {
        &self.events
    }

    /// Per-cycle wall times observed by this rank.
    pub fn local_cycle_times(&self) -> &[f64] {
        &self.local_cycle_times
    }

    /// The latest measured global per-row weights, if a grace period has
    /// completed.
    pub fn row_weights(&self) -> Option<&[f64]> {
        self.row_weights.as_deref()
    }

    /// Total wall seconds spent inside redistribution operations.
    pub fn redistribution_seconds(&self) -> f64 {
        self.redist_seconds_total
    }

    /// Requests a rebalance at the next `end_cycle` even without a load
    /// change (the REDISTRIBUTE-annotation analogue; must be called by
    /// every active rank in the same cycle).
    pub fn request_rebalance(&mut self) {
        self.rebalance_requested = true;
    }

    // ---------------- per-cycle hooks -----------------------------------

    /// Marks the start of a phase cycle.
    pub fn begin_cycle(&mut self) {
        self.cycle_wall_start = self.t.wtime();
        if obs::enabled() {
            // Paired with the `end_cycle` span's `cycle` attribute (the
            // counter increments inside `end_cycle_inner`, so the cycle
            // now starting is `self.cycle + 1`): together they bound each
            // adaptation cycle's wall time per rank for the profiler.
            obs::instant(
                "runtime",
                "begin_cycle",
                self.t.now_ns(),
                vec![("cycle", Json::UInt(self.cycle + 1))],
            );
        }
    }

    /// Performs this rank's compute for `phase`, charging `work(row)`
    /// CPU units per owned row. Outside the grace period the whole range
    /// is charged in one piece; during it each row is timed individually
    /// (§4.2).
    pub fn charge_rows(&mut self, phase: PhaseId, work: impl Fn(usize) -> f64) {
        let rows = self.my_rows(phase);
        let grace = matches!(self.mode, Mode::Grace { .. } | Mode::ArrivalGrace { .. })
            && self.timer.is_some();
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
            for i in rows.iter() {
                let w0 = self.t.wtime();
                let p0 = self.t.proc_cpu_seconds();
                let w = work(i);
                total += w;
                self.t.compute(w);
                timer.record(i, self.t.wtime() - w0, self.t.proc_cpu_seconds() - p0);
            }
        } else {
            total = rows.iter().map(&work).sum();
            self.t.compute(total);
        }
        if traced {
            // `cpu_ns` is the exact (un-quantized) CPU consumed by the
            // span and `work_uflop` the charged work in integer
            // micro-flops — both mode-invariant integers the health
            // monitor splits exactly across its windows.
            obs::span_end_args(
                self.t.now_ns(),
                vec![
                    ("rows", Json::UInt(rows.len() as u64)),
                    (
                        "cpu_ns",
                        Json::UInt(self.t.proc_cpu_ns().saturating_sub(cpu0)),
                    ),
                    ("work_uflop", Json::UInt((total * 1e6).round() as u64)),
                ],
            );
        }
    }

    /// Ends a phase cycle: monitoring, grace bookkeeping, redistribution,
    /// node removal, and removed-rank status handling. Pass every
    /// registered array, in registration order.
    pub fn end_cycle(&mut self, arrays: &mut [&mut dyn RedistArray]) -> CycleReport {
        if !obs::enabled() {
            return self.end_cycle_inner(arrays);
        }
        obs::span_begin("runtime", "end_cycle", self.t.now_ns());
        let report = self.end_cycle_inner(arrays);
        obs::span_end_args(self.t.now_ns(), vec![("cycle", Json::UInt(report.cycle))]);
        report
    }

    /// Records an adaptation event: appended to the queryable log and, when
    /// tracing is active, mirrored as an instant trace event.
    fn note(&mut self, ev: RuntimeEvent) {
        if obs::enabled() {
            obs::instant("runtime", ev.kind(), self.t.now_ns(), ev.trace_args());
        }
        self.events.push(ev);
    }

    fn end_cycle_inner(&mut self, arrays: &mut [&mut dyn RedistArray]) -> CycleReport {
        assert!(self.setup_done, "call setup before cycling");
        self.validate_arrays(arrays);
        let cycle_time = self.t.wtime() - self.cycle_wall_start;
        self.local_cycle_times.push(cycle_time);
        self.t.phase_cycle_completed();
        self.cycle += 1;
        self.app_progress += 1;
        let mut report = CycleReport {
            cycle: self.cycle,
            seconds: cycle_time,
            ..Default::default()
        };

        if self.evicted {
            // A self-evicted rank has no one to talk to: every cycle is a
            // silent no-op until the application finishes its loop.
            return report;
        }
        if self.is_removed {
            self.removed_end_cycle(arrays, &mut report);
            if !self.is_removed && self.cfg.failure_detection {
                // Just readmitted: join the actives' checkpoint refresh
                // (they run theirs after the same transition).
                self.refresh_ckpt(arrays);
            }
            return report;
        }
        if !self.cfg.adapt {
            return report;
        }
        if self.cfg.failure_detection && self.ckpt.epoch() == 0 {
            // First cycle: the arrays now hold the application's
            // initialized data (setup-time contents are unfilled), so
            // this is the earliest sound baseline checkpoint. A crash
            // before this refresh completes is unrecoverable (DESIGN.md
            // §14).
            self.refresh_ckpt(arrays);
        }

        // 1. Pipelined control plane. Every cycle each active rank posts
        //    its cycle time to the root; the root assembles per-cycle
        //    state blobs (times + monitor loads) and posts them back.
        //    Both directions run CTRL_LAG cycles deep, so every receive
        //    finds its message already delivered: no rank stalls on a
        //    loaded node's in-flight control traffic.
        let rel = self.active.rel_unchecked();
        let root = self.active.world_rank(0);
        let up = TAG_CTRL_UP + 4 * self.ctrl_epoch;
        let down = TAG_CTRL_DOWN + 4 * self.ctrl_epoch;
        if rel == 0 {
            self.self_samples.push_back(cycle_time);
        } else {
            self.t.send_bytes(root, up, to_bytes(&[cycle_time]));
        }
        self.ctrl_sent += 1;
        if self.ctrl_sent <= CTRL_LAG {
            // Pipeline warm-up: no blob yet, but removed ranks still
            // expect their per-cycle status.
            if rel == 0 {
                let removed = self.removed_nodes();
                self.send_statuses(&removed, &vec![0; self.wsize]);
            }
            return report;
        }
        let blob: Vec<f64> = if rel == 0 {
            let mut b = Vec::with_capacity(self.active.size() + self.wsize);
            for r in 0..self.active.size() {
                if r == 0 {
                    b.push(self.self_samples.pop_front().expect("own sample queued"));
                } else if self.cfg.failure_detection {
                    // Timeout-guarded gather: a missing sample becomes a
                    // sentinel the replicated detector classifies from
                    // the monitor reading (dead vs. merely overloaded).
                    let peer = self.active.world_rank(r);
                    let sample =
                        match self
                            .t
                            .recv_bytes_timeout(peer, up, self.cfg.peer_timeout_seconds)
                        {
                            Ok(bytes) => {
                                let v: Vec<f64> = from_bytes(&bytes);
                                v[0]
                            }
                            Err(_) if self.t.dmpi_ps(peer) == 0 => CTRL_SILENT,
                            Err(_) => CTRL_STALLED,
                        };
                    b.push(sample);
                } else {
                    let bytes = self.t.recv_bytes(self.active.world_rank(r), up);
                    let v: Vec<f64> = from_bytes(&bytes);
                    b.push(v[0]);
                }
            }
            for node in 0..self.wsize {
                b.push(f64::from(self.t.dmpi_ps(node).saturating_sub(1)));
            }
            // Arrival extension: online flags for the non-seed ranks.
            // Absent entirely when the world is fully seeded, so classic
            // runs keep a byte-identical control plane.
            for node in self.seed..self.wsize {
                b.push(if self.t.node_online(node) { 1.0 } else { 0.0 });
            }
            // Fail-stop path: raw monitor liveness per world node. The
            // load entries above subtract the application's own process,
            // so a dead monitor (raw 0) is indistinguishable from an
            // unloaded node there; these flags disambiguate. Gated on
            // `failure_detection` so classic control blobs stay
            // byte-identical.
            if self.cfg.failure_detection {
                for node in 0..self.wsize {
                    b.push(if self.t.dmpi_ps(node) >= 1 { 1.0 } else { 0.0 });
                }
            }
            let bytes = to_bytes(&b);
            for r in 1..self.active.size() {
                self.t
                    .send_bytes(self.active.world_rank(r), down, bytes.clone());
            }
            b
        } else if self.cfg.failure_detection {
            // The state blob is the replicated machine's input: a rank
            // must never advance without it. A timeout alone is NOT
            // evidence of being cut off — the root's gather legitimately
            // drifts one peer-timeout per silent cycle while a death is
            // being confirmed, so a fixed retry budget would falsely
            // evict a healthy survivor (and deadlock the others'
            // recovery). Like the ghost exchange, the wait re-arms until
            // the same evidence the detector uses says *this rank* is cut
            // off: the root's monitor reading dead (partitioned reader,
            // or the root itself died — the latter is out of scope,
            // DESIGN.md §14). Then it withdraws rather than blocking
            // forever — the survivors are confirming it dead through the
            // same silence.
            let got = loop {
                match self
                    .t
                    .recv_bytes_timeout(root, down, self.cfg.peer_timeout_seconds)
                {
                    Ok(b) => break Some(b),
                    Err(_) if self.t.dmpi_ps(root) == 0 => break None,
                    Err(_) => continue,
                }
            };
            match got {
                Some(b) => from_bytes(&b),
                None => {
                    self.self_evict();
                    return report;
                }
            }
        } else {
            from_bytes(&self.t.recv_bytes(root, down))
        };
        let na = self.active.size();
        let times: Vec<f64> = blob[..na].to_vec();
        let loads: Vec<u32> = blob[na..na + self.wsize]
            .iter()
            .map(|&x| x as u32)
            .collect();
        let online_end = na + self.wsize + (self.wsize - self.seed);
        let online: Vec<bool> = blob[na + self.wsize..online_end]
            .iter()
            .map(|&x| x == 1.0)
            .collect();
        let alive: Vec<bool> = if self.cfg.failure_detection {
            blob[online_end..].iter().map(|&x| x == 1.0).collect()
        } else {
            vec![true; self.wsize]
        };
        debug_assert_eq!(online.len(), self.wsize - self.seed);
        debug_assert_eq!(alive.len(), self.wsize);

        // Track load-free streaks of removed nodes (for rejoin).
        for (n, &load) in loads.iter().enumerate() {
            if load == 0 {
                self.clear_streak[n] = self.clear_streak[n].saturating_add(1);
            } else {
                self.clear_streak[n] = 0;
            }
        }

        // 2. Replicated failure detector: every active rank advances the
        //    same Suspect→Confirmed streak machine from the broadcast
        //    sentinels, so all survivors confirm a death on the same
        //    cycle without further coordination.
        let mut confirmed = None;
        if self.cfg.failure_detection {
            for (r, &tm) in times.iter().enumerate() {
                let m = self.active.world_rank(r);
                if tm == CTRL_SILENT {
                    let streak = self.silent_streak[m] + 1;
                    self.silent_streak[m] = streak;
                    self.note(RuntimeEvent::NodeSuspected {
                        cycle: self.cycle,
                        node: m,
                        silent_cycles: streak,
                    });
                    if streak >= self.cfg.failure_confirm_cycles && confirmed.is_none() {
                        confirmed = Some(m);
                    }
                } else {
                    // A real sample or a stall sentinel (monitor alive):
                    // the sustain rule restarts, so pure overload never
                    // escalates to Confirmed.
                    self.silent_streak[m] = 0;
                }
            }
        }
        if let Some(d) = confirmed {
            self.note(RuntimeEvent::NodeConfirmedDead {
                cycle: self.cycle,
                node: d,
                silent_cycles: self.silent_streak[d],
            });
            self.recover_from_death(d, &loads, arrays, &mut report);
            return report;
        }

        // 3. Replicated state machine.
        let pre_removed = self.removed_nodes();
        self.step(&times, &loads, &online, &alive, arrays, &mut report);

        // 4. Status send-out to ranks that were already removed at cycle
        //    start. Drop, rejoin, and admission transitions send their
        //    own statuses inside step() (the pre-transition root owes
        //    them), so the generic send is suppressed on those cycles.
        let transition =
            !report.dropped.is_empty() || report.rejoined.is_some() || report.admitted.is_some();
        if !transition && !self.is_removed && self.active.rel() == Some(0) {
            self.send_statuses(&pre_removed, &loads);
        }

        // 5. Fail-stop path: keep buddy checkpoints tracking the
        //    distribution — refresh after every transition (the snapshot
        //    row sets must equal the new distribution's) and on the
        //    configured interval when stable and unsuspicious.
        if self.cfg.failure_detection && !self.is_removed {
            self.cycles_since_ckpt = self.cycles_since_ckpt.saturating_add(1);
            let interval = self.cfg.checkpoint_interval_cycles;
            let due = interval > 0
                && self.cycles_since_ckpt >= interval
                && matches!(self.mode, Mode::Stable)
                && !self
                    .active
                    .members()
                    .iter()
                    .any(|&m| self.silent_streak[m] > 0);
            if transition || report.redistributed || due {
                self.refresh_ckpt(arrays);
            }
        }
        report
    }

    /// Nodes currently outside the active group.
    fn removed_nodes(&self) -> Vec<usize> {
        (0..self.wsize)
            .filter(|n| !self.active.contains(*n))
            .collect()
    }

    // ---------------- the state machine ---------------------------------

    fn step(
        &mut self,
        times: &[f64],
        loads: &[u32],
        online: &[bool],
        alive: &[bool],
        arrays: &mut [&mut dyn RedistArray],
        report: &mut CycleReport,
    ) {
        // Freeze the adaptation machine while any control sample is a
        // sentinel or any suspect streak is open: every transition runs a
        // collective that would hang on a dead member, and sentinel
        // "times" must never enter the measurement accumulators. The
        // condition is a pure function of broadcast data, so all ranks
        // freeze and thaw together.
        if self.cfg.failure_detection
            && (times.iter().any(|&x| x < 0.0)
                || self
                    .active
                    .members()
                    .iter()
                    .any(|&m| self.silent_streak[m] > 0))
        {
            return;
        }
        match self.mode {
            Mode::Stable => {
                let exhausted = self
                    .cfg
                    .max_redistributions
                    .is_some_and(|k| self.redist_count >= k);
                let changed = !exhausted
                    && self
                        .active
                        .members()
                        .iter()
                        .any(|&m| loads[m] != self.last_loads[m]);
                if changed || self.rebalance_requested {
                    self.rebalance_requested = false;
                    assert!(
                        matches!(self.dist, Distribution::Block { .. }),
                        "adaptive rebalancing requires a block distribution"
                    );
                    self.note(RuntimeEvent::LoadChangeDetected {
                        cycle: self.cycle,
                        loads: loads.to_vec(),
                    });
                    // Time my currently owned rows through the grace
                    // period.
                    let rel = self.active.rel_unchecked();
                    let mine = self.dist.rows_of(rel);
                    let (lo, count) = (mine.first().unwrap_or(0), mine.len());
                    self.timer = Some(RowTimer::new(lo, count, self.t.proc_tick_seconds()));
                    self.mode = Mode::Grace {
                        left: self.cfg.grace_period,
                    };
                } else {
                    if self.cfg.allow_rejoin {
                        self.maybe_rejoin(loads, alive, arrays, report);
                    }
                    if report.rejoined.is_none() && self.seed < self.wsize {
                        self.maybe_begin_arrival(online, alive);
                    }
                }
            }
            Mode::Grace { left } => {
                if let Some(t) = self.timer.as_mut() {
                    t.end_cycle();
                }
                if left > 1 {
                    self.mode = Mode::Grace { left: left - 1 };
                } else {
                    let traced = obs::enabled();
                    if traced {
                        obs::span_begin("runtime", "finish_grace", self.t.now_ns());
                    }
                    self.finish_grace(loads, arrays, report);
                    if traced {
                        obs::span_end(self.t.now_ns());
                    }
                }
            }
            Mode::PostRedist { left } => {
                if self.post_skip > 0 {
                    // The pipeline lag means the first blobs of the
                    // window still carry pre-redistribution cycles.
                    self.post_skip -= 1;
                    return;
                }
                for (i, &t) in times.iter().enumerate() {
                    self.post_accum[i] += t;
                }
                self.post_count += 1;
                if left > 1 {
                    self.mode = Mode::PostRedist { left: left - 1 };
                } else {
                    let traced = obs::enabled();
                    if traced {
                        obs::span_begin("runtime", "drop_eval", self.t.now_ns());
                    }
                    self.finish_post_redist(loads, arrays, report);
                    if traced {
                        obs::span_end(self.t.now_ns());
                    }
                    self.post_accum.iter_mut().for_each(|x| *x = 0.0);
                    self.post_count = 0;
                }
            }
            Mode::ArrivalGrace { node, left } => {
                if let Some(t) = self.timer.as_mut() {
                    t.end_cycle();
                }
                if !online[node - self.seed] || !alive[node] {
                    // The newcomer vanished mid-window: abandon the
                    // evaluation (a fresh window starts if it returns).
                    self.timer = None;
                    self.post_accum.iter_mut().for_each(|x| *x = 0.0);
                    self.post_count = 0;
                    self.mode = Mode::Stable;
                    return;
                }
                for (i, &t) in times.iter().enumerate() {
                    self.post_accum[i] += t;
                }
                self.post_count += 1;
                if left > 1 {
                    self.mode = Mode::ArrivalGrace {
                        node,
                        left: left - 1,
                    };
                } else {
                    let traced = obs::enabled();
                    if traced {
                        obs::span_begin("runtime", "arrival_eval", self.t.now_ns());
                    }
                    self.finish_arrival_eval(node, loads, arrays, report);
                    if traced {
                        obs::span_end(self.t.now_ns());
                    }
                    self.post_accum.iter_mut().for_each(|x| *x = 0.0);
                    self.post_count = 0;
                }
            }
        }
    }

    /// End of the grace period: build global row weights, balance,
    /// redistribute if worthwhile.
    fn finish_grace(
        &mut self,
        loads: &[u32],
        arrays: &mut [&mut dyn RedistArray],
        report: &mut CycleReport,
    ) {
        let timer = self.timer.take().expect("grace without timer");
        let mode = timer.mode().expect("grace period saw no cycles");
        self.note(RuntimeEvent::GraceComplete {
            cycle: self.cycle,
            mode,
        });

        // Assemble the global per-row weight vector: every active rank
        // contributes its contiguous block, in relative-rank (= row)
        // order.
        let pieces = self.t.allgatherv(&self.active, &timer.weights());
        let mut weights: Vec<f64> = Vec::with_capacity(self.nrows);
        for p in &pieces {
            weights.extend_from_slice(p);
        }
        assert_eq!(weights.len(), self.nrows, "weight gather incomplete");
        self.row_weights = Some(weights);

        let traced = obs::enabled();
        if traced {
            obs::span_begin("runtime", "balance", self.t.now_ns());
        }
        let new_dist = self.balance(loads);
        let moved = self.moved_fraction(&new_dist);
        if traced {
            // The prediction the audit report checks against reality: the
            // balancer's own model of post-balance imbalance.
            obs::span_end_args(
                self.t.now_ns(),
                vec![
                    ("cycle", Json::UInt(self.cycle)),
                    ("moved_fraction", Json::Num(moved)),
                    (
                        "predicted_imbalance",
                        Json::Num(self.predicted_imbalance(&new_dist, loads)),
                    ),
                ],
            );
        }
        if moved > self.cfg.rebalance_threshold {
            let oc = self.redistribute_in_place(&new_dist, arrays);
            self.note(RuntimeEvent::Redistributed {
                cycle: self.cycle,
                seconds: oc.seconds,
                rows_moved: oc.rows_moved,
                counts: new_dist.counts(),
            });
            report.redistributed = true;
            self.post_skip = CTRL_LAG as u32 + 1;
            self.mode = Mode::PostRedist {
                left: self.cfg.post_redist_period,
            };
        } else {
            self.note(RuntimeEvent::RedistributionSkipped {
                cycle: self.cycle,
                moved_fraction: moved,
            });
            self.mode = Mode::Stable;
        }
        self.last_loads = loads.to_vec();
    }

    /// End of the post-redistribution window: the node-removal decision
    /// (§4.4).
    fn finish_post_redist(
        &mut self,
        loads: &[u32],
        arrays: &mut [&mut dyn RedistArray],
        report: &mut CycleReport,
    ) {
        self.mode = Mode::Stable;
        let n = self.active.size();
        let avg: Vec<f64> = self.post_accum[..n]
            .iter()
            .map(|&s| s / f64::from(self.post_count.max(1)))
            .collect();
        let measured_max = avg.iter().cloned().fold(0.0, f64::max);

        let loaded: Vec<usize> = self
            .active
            .members()
            .iter()
            .copied()
            .filter(|&m| loads[m] > 0)
            .collect();
        let unloaded: Vec<usize> = self
            .active
            .members()
            .iter()
            .copied()
            .filter(|&m| loads[m] == 0)
            .collect();
        if loaded.is_empty() || unloaded.is_empty() {
            return;
        }

        // Predicted cycle time of the unloaded-only configuration:
        // balanced compute plus the measured communication baseline.
        let weights = self.row_weights.as_deref().unwrap_or(&[]);
        let total_work: f64 = weights.iter().sum();
        let comm_baseline = self.comm_baseline(&avg, loads, weights);
        let pred = predict_cycle_time(
            total_work,
            &unloaded
                .iter()
                .map(|&m| NodeLoad::unloaded(self.cfg.speed_of(m)))
                .collect::<Vec<_>>(),
            &self.comm_model(),
            comm_baseline,
        );
        let drop = match self.cfg.drop_policy {
            DropPolicy::Never | DropPolicy::Logical => false,
            DropPolicy::Always => true,
            DropPolicy::Auto => pred * self.cfg.drop_margin < measured_max,
        };
        self.note(RuntimeEvent::DropEvaluated {
            cycle: self.cycle,
            predicted_unloaded: pred,
            measured_max,
            margin: self.cfg.drop_margin,
            loaded: loaded.clone(),
            dropped: drop,
        });
        if !drop {
            return;
        }

        // Physically remove the loaded nodes (§4.4): new group, new
        // distribution, full redistribution, relative ranks reassigned by
        // construction of the new group.
        let pre_removed = self.removed_nodes();
        let was_root = self.active.rel() == Some(0);
        let old_group = self.active.clone();
        let old_dist = self.dist.clone();
        let new_group = Group::new(unloaded.clone(), self.wrank);
        let node_loads: Vec<NodeLoad> = unloaded
            .iter()
            .map(|&m| NodeLoad::unloaded(self.cfg.speed_of(m)))
            .collect();
        let w = self.effective_weights();
        let new_dist = match self.cfg.balancer {
            BalancerKind::RelativePower => relative_power(&w, &node_loads, 0),
            BalancerKind::SuccessiveBalancing => successive_balance_with_floor(
                &w,
                &node_loads,
                &self.comm_model_for(new_group.size()),
                0,
                self.cfg.balance_floor,
            ),
        };
        let oc = redist::execute_cached(
            self.t,
            self.wrank,
            self.sched_cache.get_mut(),
            &old_group,
            &old_dist,
            &new_group,
            &new_dist,
            &self.accesses,
            arrays,
        );
        self.redist_seconds_total += oc.seconds;
        self.note(RuntimeEvent::NodesDropped {
            cycle: self.cycle,
            nodes: loaded.clone(),
        });
        report.dropped = loaded;
        self.known_members = unloaded.clone();
        self.known_counts = new_dist.counts();
        self.dist = new_dist;
        self.is_removed = !new_group.contains(self.wrank);
        self.active = new_group;
        self.last_loads = loads.to_vec();
        self.post_accum = vec![0.0; self.wsize];
        self.clear_streak = vec![0; self.wsize];
        self.reset_ctrl_pipeline();

        // The pre-drop root owes this cycle's statuses even if it just
        // removed itself.
        if was_root {
            self.send_statuses(&pre_removed, loads);
        }
    }

    /// Rejoin check (extension): a removed node with a clear load streak
    /// is re-admitted.
    fn maybe_rejoin(
        &mut self,
        loads: &[u32],
        alive: &[bool],
        arrays: &mut [&mut dyn RedistArray],
        report: &mut CycleReport,
    ) {
        // Only seed-world ranks rejoin through the clear-streak path;
        // non-seed ranks (pending or previously admitted arrivals) go
        // through the expansion decision instead. A dead node's monitor
        // reads unloaded, so its clear streak builds — the liveness
        // flags (and the permanent `dead` bits) keep it out.
        let candidate = self.removed_nodes().into_iter().find(|&n| {
            n < self.seed
                && alive[n]
                && !self.dead[n]
                && self.clear_streak[n] >= self.cfg.rejoin_after_cycles
        });
        let Some(node) = candidate else { return };

        let pre_removed = self.removed_nodes();
        let was_root = self.active.rel() == Some(0);
        let mut members: Vec<usize> = self.active.members().to_vec();
        members.push(node);
        members.sort_unstable();
        let old_group = self.active.clone();
        let old_dist = self.dist.clone();
        let new_group = Group::new(members.clone(), self.wrank);
        let node_loads: Vec<NodeLoad> = members
            .iter()
            .map(|&m| self.node_load(m, loads[m]))
            .collect();
        let w = self.effective_weights();
        let new_dist = match self.cfg.balancer {
            BalancerKind::RelativePower => relative_power(&w, &node_loads, 0),
            BalancerKind::SuccessiveBalancing => successive_balance_with_floor(
                &w,
                &node_loads,
                &self.comm_model_for(new_group.size()),
                0,
                self.cfg.balance_floor,
            ),
        };

        // Reset only the readmitted node's streak — the other removed
        // nodes keep theirs, so several nodes clearing together rejoin on
        // consecutive eligible cycles instead of each restarting a full
        // streak. Done before the statuses go out: the tail ships the
        // post-reset streak vector, keeping the rejoiner's replica exact.
        self.clear_streak[node] = 0;

        // Statuses first: the rejoining rank must learn its membership
        // before the transfers reach it (the root sends them this cycle).
        self.known_members = members;
        self.known_counts = new_dist.counts();
        if was_root {
            self.send_statuses(&pre_removed, loads);
        }
        let oc = redist::execute_cached(
            self.t,
            self.wrank,
            self.sched_cache.get_mut(),
            &old_group,
            &old_dist,
            &new_group,
            &new_dist,
            &self.accesses,
            arrays,
        );
        self.redist_seconds_total += oc.seconds;
        self.note(RuntimeEvent::NodeRejoined {
            cycle: self.cycle,
            node,
        });
        report.rejoined = Some(node);
        self.dist = new_dist;
        self.active = new_group;
        self.last_loads = loads.to_vec();
        self.reset_ctrl_pipeline();
    }

    /// Arrival check (malleability): when a non-seed rank's node is
    /// online and not in the computation, open an arrival grace window
    /// to re-measure row weights and cycle times before the expansion
    /// decision. Gated to every `arrival_retry_cycles`-th cycle — a
    /// deterministic retry schedule, identical on every rank, so a
    /// rejected newcomer is reconsidered without per-node state.
    fn maybe_begin_arrival(&mut self, online: &[bool], alive: &[bool]) {
        if !self
            .cycle
            .is_multiple_of(u64::from(self.cfg.arrival_retry_cycles))
        {
            return;
        }
        let candidate = (self.seed..self.wsize).find(|&n| {
            online[n - self.seed] && alive[n] && !self.dead[n] && !self.active.contains(n)
        });
        let Some(node) = candidate else { return };
        self.note(RuntimeEvent::NodeArrived {
            cycle: self.cycle,
            node,
        });
        // Time my currently owned rows through the window, exactly like
        // an ordinary grace period.
        let rel = self.active.rel_unchecked();
        let mine = self.dist.rows_of(rel);
        let (lo, count) = (mine.first().unwrap_or(0), mine.len());
        self.timer = Some(RowTimer::new(lo, count, self.t.proc_tick_seconds()));
        self.post_accum.iter_mut().for_each(|x| *x = 0.0);
        self.post_count = 0;
        self.mode = Mode::ArrivalGrace {
            node,
            left: self.cfg.grace_period,
        };
    }

    /// End of an arrival grace window: the expansion decision, symmetric
    /// to the §4.4 removal rule. Admit the newcomer only when the
    /// predicted cycle time with it beats the measured one by the margin
    /// AND the per-cycle saving amortizes the redistribution cost over
    /// the configured horizon.
    fn finish_arrival_eval(
        &mut self,
        node: usize,
        loads: &[u32],
        arrays: &mut [&mut dyn RedistArray],
        report: &mut CycleReport,
    ) {
        self.mode = Mode::Stable;
        let timer = self.timer.take().expect("arrival grace without timer");
        let mode = timer.mode().expect("arrival grace saw no cycles");
        self.note(RuntimeEvent::GraceComplete {
            cycle: self.cycle,
            mode,
        });

        // Fresh global row weights, exactly as in `finish_grace`.
        let pieces = self.t.allgatherv(&self.active, &timer.weights());
        let mut weights: Vec<f64> = Vec::with_capacity(self.nrows);
        for p in &pieces {
            weights.extend_from_slice(p);
        }
        assert_eq!(weights.len(), self.nrows, "weight gather incomplete");
        self.row_weights = Some(weights);

        let n = self.active.size();
        let avg: Vec<f64> = self.post_accum[..n]
            .iter()
            .map(|&s| s / f64::from(self.post_count.max(1)))
            .collect();
        let measured_max = avg.iter().cloned().fold(0.0, f64::max);

        let mut members: Vec<usize> = self.active.members().to_vec();
        members.push(node);
        members.sort_unstable();
        let node_loads: Vec<NodeLoad> = members
            .iter()
            .map(|&m| self.node_load(m, loads[m]))
            .collect();
        let w = self.effective_weights();
        let total_work: f64 = w.iter().sum();
        let comm_baseline = self.comm_baseline(&avg, loads, &w);
        let pred_with = predict_cycle_time(
            total_work,
            &node_loads,
            &self.comm_model_for(members.len()),
            comm_baseline,
        );
        let new_dist = match self.cfg.balancer {
            BalancerKind::RelativePower => relative_power(&w, &node_loads, 0),
            BalancerKind::SuccessiveBalancing => successive_balance_with_floor(
                &w,
                &node_loads,
                &self.comm_model_for(members.len()),
                0,
                self.cfg.balance_floor,
            ),
        };
        let new_rel = members
            .iter()
            .position(|&m| m == node)
            .expect("candidate in members");
        let new_rows = new_dist.rows_of(new_rel).len();
        let cost = new_rows as f64 * self.cfg.redist_seconds_per_row;
        let benefit = measured_max - pred_with;
        let admitted = pred_with * self.cfg.expand_margin < measured_max
            && (cost <= 0.0 || benefit * f64::from(self.cfg.expand_horizon_cycles) >= cost);
        self.note(RuntimeEvent::ExpandEvaluated {
            cycle: self.cycle,
            node,
            predicted_with: pred_with,
            measured_max,
            redist_cost: cost,
            margin: self.cfg.expand_margin,
            horizon_cycles: self.cfg.expand_horizon_cycles,
            admitted,
        });
        if !admitted {
            // A rejected evaluation leaves `last_loads` alone so a
            // pending load change is still detected next cycle.
            return;
        }

        // Expansion: symmetric to the rejoin path. Statuses first (the
        // newcomer must learn its membership before the transfers reach
        // it), then the same redistribution on every rank with the
        // newcomer as a pure receiver.
        let pre_removed = self.removed_nodes();
        let was_root = self.active.rel() == Some(0);
        let old_group = self.active.clone();
        let old_dist = self.dist.clone();
        let new_group = Group::new(members.clone(), self.wrank);
        self.clear_streak[node] = 0;
        self.known_members = members;
        self.known_counts = new_dist.counts();
        if was_root {
            self.send_statuses(&pre_removed, loads);
        }
        let oc = redist::execute_cached(
            self.t,
            self.wrank,
            self.sched_cache.get_mut(),
            &old_group,
            &old_dist,
            &new_group,
            &new_dist,
            &self.accesses,
            arrays,
        );
        self.redist_seconds_total += oc.seconds;
        self.note(RuntimeEvent::NodeAdmitted {
            cycle: self.cycle,
            node,
            rows: new_rows,
        });
        report.admitted = Some(node);
        self.dist = new_dist;
        self.active = new_group;
        self.last_loads = loads.to_vec();
        self.reset_ctrl_pipeline();
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

    /// A confirmed death: every survivor rolls its own rows back to the
    /// checkpoint, the dead node's ring buddy materializes its mirror
    /// and stands in for it in the recovery redistribution, the group
    /// shrinks, and the application is told to rewind its loop to the
    /// checkpointed step ([`Self::take_rollback`]). All decisions here
    /// are pure functions of broadcast data, so every survivor executes
    /// the identical recovery.
    fn recover_from_death(
        &mut self,
        dead_node: usize,
        loads: &[u32],
        arrays: &mut [&mut dyn RedistArray],
        report: &mut CycleReport,
    ) {
        let traced = obs::enabled();
        if traced {
            obs::span_begin("runtime", "crash_recovery", self.t.now_ns());
        }
        let pre_removed = self.removed_nodes();
        let was_root = self.active.rel() == Some(0);
        let old_group = self.active.clone();
        let dead_rel = old_group
            .rel_of(dead_node)
            .expect("confirmed node must be active");
        // The ring buddy: the dead node's successor holds its mirror.
        let holder = old_group.world_rank((dead_rel + 1) % old_group.size());
        let survivors: Vec<usize> = old_group
            .members()
            .iter()
            .copied()
            .filter(|&m| m != dead_node)
            .collect();

        // Which generation is restorable is the holder's mirror stamp:
        // a refresh that ran after the (still-masked) death kept the
        // holder's mirror one generation behind everyone's latest own
        // snapshot. Only the holder knows, so it broadcasts the stamp and
        // every survivor rolls back to that generation.
        let rb = if self.wrank == holder {
            assert_eq!(
                self.ckpt.holds_mirror_of(),
                Some(dead_node),
                "holder's mirror is not of the dead node (unrecoverable)"
            );
            let rb = self
                .ckpt
                .mirror_app_cycle()
                .expect("holder without a mirror");
            for &s in &survivors {
                if s != holder {
                    self.t
                        .send_bytes(s, TAG_CKPT_META, rb.to_le_bytes().to_vec());
                }
            }
            rb
        } else {
            let bytes = self.t.recv_bytes(holder, TAG_CKPT_META);
            u64::from_le_bytes(bytes.try_into().expect("an app-cycle stamp"))
        };

        // Roll back to that generation: my own rows from my snapshot, the
        // dead node's rows from its buddy's mirror. The generation's
        // membership and distribution are what the recovery
        // redistribution moves *from*.
        let (gen_members, old_dist) = self.ckpt.restore_generation(rb, arrays);
        assert_eq!(
            gen_members,
            old_group.members(),
            "membership changed across the stale-mirror window (unrecoverable)"
        );
        if self.wrank == holder {
            self.ckpt.materialize_mirror(arrays);
        }
        // Identical on every survivor (the holder's actual count equals
        // this by the refresh invariant).
        let restored_rows = old_dist.rows_of(dead_rel).len() * arrays.len();
        let new_group = Group::new(survivors.clone(), self.wrank);
        let node_loads: Vec<NodeLoad> = survivors
            .iter()
            .map(|&m| self.node_load(m, loads[m]))
            .collect();
        let w = self.effective_weights();
        let new_dist = match self.cfg.balancer {
            BalancerKind::RelativePower => relative_power(&w, &node_loads, 0),
            BalancerKind::SuccessiveBalancing => successive_balance_with_floor(
                &w,
                &node_loads,
                &self.comm_model_for(new_group.size()),
                0,
                self.cfg.balance_floor,
            ),
        };
        let oc = redist::execute_recovery(
            self.t,
            self.wrank,
            &old_group,
            &old_dist,
            &new_group,
            &new_dist,
            &self.accesses,
            arrays,
            dead_node,
            holder,
        );
        self.redist_seconds_total += oc.seconds;
        self.sched_cache.get_mut().invalidate();

        self.dead[dead_node] = true;
        self.silent_streak[dead_node] = 0;
        self.known_members = survivors;
        self.known_counts = new_dist.counts();
        self.dist = new_dist;
        self.is_removed = !new_group.contains(self.wrank);
        self.active = new_group;
        self.last_loads = loads.to_vec();
        self.post_accum = vec![0.0; self.wsize];
        self.post_count = 0;
        self.clear_streak = vec![0; self.wsize];
        self.timer = None;
        self.mode = Mode::Stable;
        self.reset_ctrl_pipeline();

        // Rewind the application: progress returns to the restored
        // generation's step; the survivors replay the lost steps from
        // restored data.
        self.app_progress = rb;
        self.rollback_to = Some(rb);
        self.note(RuntimeEvent::NodeRecovered {
            cycle: self.cycle,
            node: dead_node,
            rollback_to: self.app_progress,
            restored_rows,
            holder,
        });
        report.recovered = Some(dead_node);

        // Fresh checkpoints over the surviving group — the old mirrors
        // reference the pre-crash membership and distribution.
        self.refresh_ckpt(arrays);
        if was_root {
            self.send_statuses(&pre_removed, loads);
        }
        if traced {
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
    }

    /// Permanent withdrawal of an isolated rank: its control receives
    /// went silent for the full confirmation window, so from its
    /// perspective the rest of the computation is gone (it is
    /// partitioned, or the root died — out of scope). It stops
    /// participating rather than blocking forever; the survivors confirm
    /// it dead through the same silence and recover without it.
    fn self_evict(&mut self) {
        if obs::enabled() {
            obs::instant(
                "runtime",
                "self-evict",
                self.t.now_ns(),
                vec![("cycle", Json::UInt(self.cycle))],
            );
        }
        self.evicted = true;
        self.is_removed = true;
    }

    /// After a crash recovery the application must rewind its outer loop:
    /// returns the step index to resume from (= completed steps at the
    /// checkpoint), once per recovery. The canonical loop:
    ///
    /// ```text
    /// let mut step = 0;
    /// while step < steps {
    ///     rt.begin_cycle(); /* compute step `step` */ rt.end_cycle(..);
    ///     step = match rt.take_rollback() { Some(back) => back as usize,
    ///                                       None => step + 1 };
    /// }
    /// ```
    pub fn take_rollback(&mut self) -> Option<u64> {
        self.rollback_to.take()
    }

    /// The pending rollback step, without consuming it.
    pub fn rolled_back_to(&self) -> Option<u64> {
        self.rollback_to
    }

    /// Did this rank withdraw after concluding it was isolated?
    pub fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// World nodes confirmed dead by the failure detector.
    pub fn dead_nodes(&self) -> Vec<usize> {
        (0..self.wsize).filter(|&n| self.dead[n]).collect()
    }

    /// Refresh generation of the buddy checkpoint (0 = none taken).
    pub fn checkpoint_epoch(&self) -> u64 {
        self.ckpt.epoch()
    }

    // ---------------- helpers -------------------------------------------

    /// Load descriptor for world rank `m`: monitor reading plus the
    /// configured per-node relative speed (heterogeneous clusters).
    fn node_load(&self, m: usize, ncp: u32) -> NodeLoad {
        NodeLoad {
            ncp,
            speed: self.cfg.speed_of(m),
        }
    }

    fn effective_weights(&self) -> Vec<f64> {
        match &self.row_weights {
            Some(w) if w.iter().sum::<f64>() > 0.0 => w.clone(),
            _ => vec![1.0; self.nrows],
        }
    }

    fn comm_model(&self) -> CommModel {
        self.comm_model_for(self.active.size())
    }

    fn comm_model_for(&self, n_active: usize) -> CommModel {
        let recvs: f64 = self
            .phases
            .iter()
            .map(|p| p.pattern.blocking_recvs(n_active))
            .sum();
        CommModel {
            blocking_recvs_per_cycle: recvs,
            quantum: self.cfg.quantum_seconds,
            wait_factor: self.cfg.wait_factor,
        }
    }

    fn balance(&self, loads: &[u32]) -> Distribution {
        let node_loads: Vec<NodeLoad> = self
            .active
            .members()
            .iter()
            .map(|&m| self.node_load(m, loads[m]))
            .collect();
        let w = self.effective_weights();
        let min_rows = if self.cfg.drop_policy == DropPolicy::Logical {
            self.cfg.min_rows_logical
        } else {
            0
        };
        match self.cfg.balancer {
            BalancerKind::RelativePower => relative_power(&w, &node_loads, min_rows),
            BalancerKind::SuccessiveBalancing => successive_balance_with_floor(
                &w,
                &node_loads,
                &self.comm_model(),
                min_rows,
                self.cfg.balance_floor,
            ),
        }
    }

    /// Predicted max/mean cycle-time imbalance of a candidate distribution
    /// under the balancer's own model: each active node's time is its
    /// assigned effective weight scaled by `ncp + 1` (the same
    /// [`NodeLoad`] availability the balancer optimized, at unit speed).
    fn predicted_imbalance(&self, dist: &Distribution, loads: &[u32]) -> f64 {
        let weights = self.effective_weights();
        let per: Vec<f64> = self
            .active
            .members()
            .iter()
            .enumerate()
            .map(|(rel, &m)| {
                let mine: f64 = dist.rows_of(rel).iter().map(|r| weights[r]).sum();
                mine * f64::from(loads[m] + 1) / self.cfg.speed_of(m)
            })
            .collect();
        let max = per.iter().cloned().fold(0.0, f64::max);
        let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Fraction of rows that change owner between the current and a
    /// candidate distribution.
    fn moved_fraction(&self, new: &Distribution) -> f64 {
        let moved: usize = self
            .dist
            .transfers_to(new)
            .iter()
            .filter(|(s, d, _)| s != d)
            .map(|(_, _, rs)| rs.len())
            .sum();
        moved as f64 / self.nrows as f64
    }

    /// Communication baseline: the least "cycle minus modeled compute"
    /// across active nodes (the node waiting least on stragglers).
    fn comm_baseline(&self, avg_times: &[f64], loads: &[u32], weights: &[f64]) -> f64 {
        let mut best = f64::INFINITY;
        for (rel, &m) in self.active.members().iter().enumerate() {
            let mine: f64 = self.dist.rows_of(rel).iter().map(|r| weights[r]).sum();
            let compute = mine * f64::from(loads[m] + 1) / self.cfg.speed_of(m);
            let extra = avg_times[rel] - compute;
            if extra < best {
                best = extra;
            }
        }
        best.max(0.0)
    }

    fn redistribute_in_place(
        &mut self,
        new_dist: &Distribution,
        arrays: &mut [&mut dyn RedistArray],
    ) -> RedistOutcome {
        let oc = redist::execute_cached(
            self.t,
            self.wrank,
            self.sched_cache.get_mut(),
            &self.active,
            &self.dist,
            &self.active,
            new_dist,
            &self.accesses,
            arrays,
        );
        self.redist_seconds_total += oc.seconds;
        self.redist_count += 1;
        self.dist = new_dist.clone();
        self.known_counts = new_dist.counts();
        oc
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
    /// plus (for a rank that is rejoining) the load vector and row
    /// weights it needs to resynchronize its replicated state.
    fn status_payload(&self, for_member: bool, loads: &[u32]) -> Vec<u8> {
        let mut v: Vec<u64> = Vec::with_capacity(3 + self.known_members.len() * 2);
        v.push(self.cycle);
        v.push(self.known_members.len() as u64);
        v.extend(self.known_members.iter().map(|&m| m as u64));
        v.extend(self.known_counts.iter().map(|&c| c as u64));
        v.push(self.ctrl_epoch);
        let mut bytes = to_bytes(&v);
        if for_member {
            // Tail order: loads[wsize] ++ clear_streak[wsize] ++
            // weights[nrows]. Shipping the streaks keeps the joiner's
            // rejoin bookkeeping replicated — without them, a readmitted
            // rank would disagree with the actives about which other
            // removed node rejoins next.
            let mut tail: Vec<f64> = loads.iter().map(|&l| f64::from(l)).collect();
            tail.extend(self.clear_streak.iter().map(|&s| f64::from(s)));
            tail.extend(self.effective_weights());
            bytes.extend_from_slice(&to_bytes(&tail));
        }
        bytes
    }

    fn send_statuses(&self, removed: &[usize], loads: &[u32]) {
        for &n in removed {
            let for_member = self.known_members.contains(&n);
            self.t
                .send_bytes(n, TAG_STATUS, self.status_payload(for_member, loads));
        }
    }

    fn removed_end_cycle(&mut self, arrays: &mut [&mut dyn RedistArray], report: &mut CycleReport) {
        let root = self.known_members[0];
        let bytes = if self.cfg.failure_detection {
            // Same self-eviction rule as the active blob receive: retry
            // on a bare timeout (the root legitimately drifts while
            // confirming a death), withdraw for good only on death
            // evidence — the root's monitor unreadable from here.
            let got = loop {
                match self
                    .t
                    .recv_bytes_timeout(root, TAG_STATUS, self.cfg.peer_timeout_seconds)
                {
                    Ok(b) => break Some(b),
                    Err(_) if self.t.dmpi_ps(root) == 0 => break None,
                    Err(_) => continue,
                }
            };
            match got {
                Some(b) => b,
                None => {
                    self.self_evict();
                    return;
                }
            }
        } else {
            self.t.recv_bytes(root, TAG_STATUS)
        };
        let header_len = {
            let nm = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
            8 * (3 + 2 * nm)
        };
        let v: Vec<u64> = from_bytes(&bytes[..header_len]);
        let nm = v[1] as usize;
        let members: Vec<usize> = v[2..2 + nm].iter().map(|&m| m as usize).collect();
        let counts: Vec<usize> = v[2 + nm..2 + 2 * nm].iter().map(|&c| c as usize).collect();
        // Track the control epoch so a rejoin resumes with aligned tags
        // (the rejoin branch bumps it once, like the actives do).
        self.ctrl_epoch = v[2 + 2 * nm];

        if members.contains(&self.wrank) {
            // Resynchronize the replicated decision state from the tail
            // the root appended for us: the load vector and row weights
            // the actives balanced against.
            let tail: Vec<f64> = from_bytes(&bytes[header_len..]);
            assert_eq!(
                tail.len(),
                2 * self.wsize + self.nrows,
                "malformed rejoin status"
            );
            self.last_loads = tail[..self.wsize].iter().map(|&x| x as u32).collect();
            self.clear_streak = tail[self.wsize..2 * self.wsize]
                .iter()
                .map(|&x| x as u32)
                .collect();
            self.row_weights = Some(tail[2 * self.wsize..].to_vec());
            self.mode = Mode::Stable;

            // Rejoin: participate in the redistribution the actives are
            // running right now, as a receiver.
            let old_group = Group::new(self.known_members.clone(), self.wrank);
            let old_dist = Distribution::block_from_counts(&self.known_counts);
            let new_group = Group::new(members.clone(), self.wrank);
            let new_dist = Distribution::block_from_counts(&counts);
            let oc = redist::execute_cached(
                self.t,
                self.wrank,
                self.sched_cache.get_mut(),
                &old_group,
                &old_dist,
                &new_group,
                &new_dist,
                &self.accesses,
                arrays,
            );
            self.redist_seconds_total += oc.seconds;
            self.is_removed = false;
            self.active = new_group;
            self.dist = new_dist;
            self.reset_ctrl_pipeline();
            if self.wrank >= self.seed {
                let rel = self.active.rel().expect("joiner is in the new group");
                self.note(RuntimeEvent::NodeAdmitted {
                    cycle: self.cycle,
                    node: self.wrank,
                    rows: self.dist.rows_of(rel).len(),
                });
                report.admitted = Some(self.wrank);
            } else {
                self.note(RuntimeEvent::NodeRejoined {
                    cycle: self.cycle,
                    node: self.wrank,
                });
                report.rejoined = Some(self.wrank);
            }
        }
        self.known_members = members;
        self.known_counts = counts;
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
            let payload = arr.pack_rows(from_me, false);
            self.t.send_bytes(*dst, tag, payload);
        }
        for (src, from_src) in &sched.ghost_recvs[array] {
            if self.cfg.failure_detection {
                // A dead neighbor must not hang the exchange — but a
                // merely *slow* neighbor must not corrupt it either: its
                // payload is coming, and abandoning it would leave this
                // and (because the message stays queued) every later
                // exchange one cycle stale. So a timeout alone only
                // re-arms the wait; the exchange gives the ghost rows up
                // as stale *only* on the same evidence the detector
                // treats as death — the peer's monitor reading dead. The
                // detector then confirms within cycles and recovery rolls
                // everything back past the stale reads.
                let payload = loop {
                    match self
                        .t
                        .recv_bytes_timeout(*src, tag, self.cfg.peer_timeout_seconds)
                    {
                        Ok(p) => break Some(p),
                        Err(_) if self.t.dmpi_ps(*src) == 0 => break None,
                        Err(_) => continue,
                    }
                };
                match payload {
                    Some(p) => arr.unpack_rows(from_src, &p),
                    None => {
                        if obs::enabled() {
                            obs::instant(
                                "runtime",
                                "ghost-timeout",
                                self.t.now_ns(),
                                vec![("src", Json::UInt(*src as u64))],
                            );
                        }
                    }
                }
            } else {
                let payload = self.t.recv_bytes(*src, tag);
                arr.unpack_rows(from_src, &payload);
            }
        }
    }

    // ---------------- removed-aware global operations (§4.4) -------------

    /// A global sum-allreduce in which removed ranks participate only in
    /// the *send-out*: actives reduce among themselves, then the active
    /// root forwards the result to every removed rank. All world ranks
    /// must call this the same number of times.
    pub fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        if self.evicted {
            // An isolated rank has no group to reduce over; its results
            // are no longer part of the surviving computation.
            return vec![0.0; data.len()];
        }
        if self.is_removed {
            let root = self.known_members[0];
            return from_bytes(&self.t.recv_bytes(root, TAG_GLOBAL));
        }
        let r = self.t.allreduce_sum_f64(&self.active, data);
        if self.active.rel() == Some(0) {
            for n in self.removed_nodes() {
                self.t.send_bytes(n, TAG_GLOBAL, to_bytes(&r));
            }
        }
        r
    }

    /// Max-allreduce with the same removed-aware semantics.
    pub fn allreduce_max(&self, data: &[f64]) -> Vec<f64> {
        if self.evicted {
            return vec![0.0; data.len()];
        }
        if self.is_removed {
            let root = self.known_members[0];
            return from_bytes(&self.t.recv_bytes(root, TAG_GLOBAL));
        }
        let r = self.t.allreduce_max_f64(&self.active, data);
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
    use crate::dense::DenseMatrix;
    use crate::drsd::Drsd;
    use dynmpi_comm::{run_threads, ThreadTransport, Transport};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    /// Thread transport with test-controlled `dmpi_ps` readings, so the
    /// adaptation paths can be exercised without the simulator.
    struct FakeLoad<'x> {
        inner: &'x ThreadTransport,
        loads: Arc<Vec<AtomicU32>>,
    }

    impl Transport for FakeLoad<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) {
            self.inner.send_bytes(dst, tag, payload);
        }
        fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8> {
            self.inner.recv_bytes(src, tag)
        }
        fn recv_bytes_any(&self, tag: u64) -> (usize, Vec<u8>) {
            self.inner.recv_bytes_any(tag)
        }
        fn wtime(&self) -> f64 {
            self.inner.wtime()
        }
    }

    impl HostMeters for FakeLoad<'_> {
        fn dmpi_ps(&self, r: usize) -> u32 {
            self.loads[r].load(Ordering::Relaxed) + 1
        }
        fn proc_cpu_seconds(&self) -> f64 {
            self.inner.wtime()
        }
        fn proc_tick_seconds(&self) -> f64 {
            0.0
        }
    }

    /// Like [`FakeLoad`] but with test-controlled node-online flags, for
    /// the arrival (malleability) paths.
    struct FakeArrival<'x> {
        inner: &'x ThreadTransport,
        loads: Arc<Vec<AtomicU32>>,
        online: Arc<Vec<AtomicBool>>,
    }

    impl Transport for FakeArrival<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) {
            self.inner.send_bytes(dst, tag, payload);
        }
        fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8> {
            self.inner.recv_bytes(src, tag)
        }
        fn recv_bytes_any(&self, tag: u64) -> (usize, Vec<u8>) {
            self.inner.recv_bytes_any(tag)
        }
        fn wtime(&self) -> f64 {
            self.inner.wtime()
        }
    }

    impl HostMeters for FakeArrival<'_> {
        fn dmpi_ps(&self, r: usize) -> u32 {
            self.loads[r].load(Ordering::Relaxed) + 1
        }
        fn node_online(&self, r: usize) -> bool {
            self.online[r].load(Ordering::Relaxed)
        }
        fn proc_cpu_seconds(&self) -> f64 {
            self.inner.wtime()
        }
        fn proc_tick_seconds(&self) -> f64 {
            0.0
        }
    }

    fn fill_pattern(i: usize, j: usize) -> f64 {
        (i * 1000 + j) as f64
    }

    /// Drives `cycles` phase cycles of a trivial halo app and returns the
    /// runtime for inspection.
    fn drive<'x, T: HostMeters>(
        t: &'x T,
        nrows: usize,
        cfg: DynMpiConfig,
        cycles: usize,
        mut on_cycle: impl FnMut(u64, &mut DynMpi<'x, T>),
    ) -> (DynMpi<'x, T>, DenseMatrix<f64>) {
        let mut rt = DynMpi::init(t, nrows, cfg);
        let a = rt.register_dense("A", nrows);
        let ph = rt.init_phase(0, nrows, CommPattern::NearestNeighbor);
        rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
        let mut m = DenseMatrix::<f64>::new(nrows, 4);
        {
            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            rt.setup(&mut arrays);
        }
        m.fill_rows(&rt.local_rows(a), fill_pattern);
        for c in 0..cycles {
            rt.begin_cycle();
            rt.charge_rows(ph, |_| 10.0);
            on_cycle(c as u64, &mut rt);
            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            rt.end_cycle(&mut arrays);
        }
        (rt, m)
    }

    fn check_owned(rt: &DynMpi<'_, impl HostMeters>, m: &DenseMatrix<f64>, a: ArrayId) {
        for i in rt.local_rows(a).iter() {
            for j in 0..4 {
                assert_eq!(m.row(i)[j], fill_pattern(i, j), "row {i} col {j}");
            }
        }
    }

    #[test]
    fn stable_run_never_redistributes() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad { inner: tt, loads };
            let (rt, m) = drive(&t, 30, DynMpiConfig::default(), 8, |_, _| {});
            check_owned(&rt, &m, 0);
            (rt.events().len(), rt.local_cycle_times().len())
        });
        for (ev, ct) in outs {
            assert_eq!(ev, 0);
            assert_eq!(ct, 8);
        }
    }

    #[test]
    fn load_change_triggers_grace_and_redistribution() {
        let outs = run_threads(4, |tt| {
            let loads = Arc::new((0..4).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Never,
                ..Default::default()
            };
            let (rt, m) = drive(&t, 64, cfg, 20, |c, _| {
                if c == 2 {
                    loads[1].store(1, Ordering::Relaxed);
                }
            });
            check_owned(&rt, &m, 0);
            let kinds: Vec<&str> = rt.events().iter().map(|e| e.kind()).collect();
            (kinds.join(","), rt.distribution().counts())
        });
        for (kinds, counts) in &outs {
            assert!(
                kinds.starts_with("load-change,grace-complete,redistributed"),
                "{kinds}"
            );
            // The loaded node (rank 1) must end up with fewer rows.
            assert!(counts[1] < counts[0], "counts: {counts:?}");
            assert_eq!(counts.iter().sum::<usize>(), 64);
        }
        // All ranks agree on the distribution.
        assert!(outs.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn forced_drop_removes_loaded_node_and_preserves_data() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Always,
                grace_period: 2,
                post_redist_period: 2,
                ..Default::default()
            };
            let (rt, m) = drive(&t, 30, cfg, 16, |c, _| {
                if c == 1 {
                    loads[2].store(2, Ordering::Relaxed);
                }
            });
            if rt.participating() {
                check_owned(&rt, &m, 0);
            }
            (
                rt.participating(),
                rt.num_active(),
                rt.my_rows(0).len(),
                rt.active_members().to_vec(),
            )
        });
        assert!(outs[0].0 && outs[1].0 && !outs[2].0, "{outs:?}");
        for (_, na, _, members) in &outs {
            assert_eq!(*na, 2);
            assert_eq!(members, &vec![0, 1]);
        }
        assert_eq!(outs[0].2 + outs[1].2, 30, "survivors own everything");
        assert_eq!(outs[2].2, 0);
    }

    #[test]
    fn logical_drop_keeps_node_with_min_share() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Logical,
                min_rows_logical: 2,
                grace_period: 2,
                post_redist_period: 2,
                // A huge penalty model zeroes the loaded node's natural share.
                wait_factor: 50.0,
                ..Default::default()
            };
            let (rt, _m) = drive(&t, 30, cfg, 14, |c, _| {
                if c == 1 {
                    loads[0].store(3, Ordering::Relaxed);
                }
            });
            (rt.participating(), rt.distribution().counts())
        });
        for (p, counts) in &outs {
            assert!(*p, "logical drop keeps everyone participating");
            assert_eq!(
                counts[0], 2,
                "loaded node keeps the floor share: {counts:?}"
            );
        }
    }

    #[test]
    fn auto_drop_respects_prediction() {
        // Tiny work + heavy load ⇒ prediction favors dropping.
        let outs = run_threads(2, |tt| {
            let loads = Arc::new((0..2).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Auto,
                grace_period: 2,
                post_redist_period: 3,
                ..Default::default()
            };
            let (rt, _m) = drive(&t, 20, cfg, 16, |c, _| {
                if c == 1 {
                    loads[1].store(3, Ordering::Relaxed);
                }
            });
            let evaluated = rt
                .events()
                .iter()
                .any(|e| matches!(e, RuntimeEvent::DropEvaluated { .. }));
            (evaluated, rt.num_active())
        });
        for (evaluated, _) in &outs {
            assert!(*evaluated, "drop decision must be evaluated");
        }
        // Both ranks agree on the outcome, whatever the measured times said.
        assert_eq!(outs[0].1, outs[1].1);
    }

    #[test]
    fn rejoin_extension_readmits_cleared_node() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Always,
                allow_rejoin: true,
                rejoin_after_cycles: 2,
                grace_period: 2,
                post_redist_period: 2,
                ..Default::default()
            };
            let (rt, m) = drive(&t, 30, cfg, 30, |c, _| {
                if c == 1 {
                    loads[1].store(2, Ordering::Relaxed);
                }
                if c == 12 {
                    loads[1].store(0, Ordering::Relaxed);
                }
            });
            if rt.participating() {
                check_owned(&rt, &m, 0);
            }
            (rt.participating(), rt.num_active(), rt.my_rows(0).len())
        });
        for (p, na, _) in &outs {
            assert!(*p, "node must have rejoined: {outs:?}");
            assert_eq!(*na, 3);
        }
        let total: usize = outs.iter().map(|o| o.2).sum();
        assert_eq!(total, 30);
    }

    /// Regression: two nodes clear their load simultaneously. The first
    /// rejoin used to reset *every* removed node's clear streak, so the
    /// second node silently restarted its full `rejoin_after_cycles`
    /// wait — multi-node rejoin starvation. With the fix, only the
    /// readmitted node's streak is reset and the second node rejoins on
    /// the next eligible cycle (one pipeline warm-up later).
    #[test]
    fn multi_node_rejoin_not_starved() {
        let outs = run_threads(4, |tt| {
            let loads = Arc::new((0..4).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Always,
                allow_rejoin: true,
                rejoin_after_cycles: 4,
                grace_period: 2,
                post_redist_period: 2,
                ..Default::default()
            };
            let (rt, m) = drive(&t, 40, cfg, 40, |c, _| {
                if c == 1 {
                    loads[2].store(2, Ordering::Relaxed);
                    loads[3].store(2, Ordering::Relaxed);
                }
                if c == 14 {
                    loads[2].store(0, Ordering::Relaxed);
                    loads[3].store(0, Ordering::Relaxed);
                }
            });
            if rt.participating() {
                check_owned(&rt, &m, 0);
            }
            let rejoin_cycles: Vec<u64> = rt
                .events()
                .iter()
                .filter_map(|e| match e {
                    RuntimeEvent::NodeRejoined { cycle, .. } => Some(*cycle),
                    _ => None,
                })
                .collect();
            (rt.num_active(), rt.my_rows(0).len(), rejoin_cycles)
        });
        for (na, _, _) in &outs {
            assert_eq!(*na, 4, "both nodes must be back: {outs:?}");
        }
        assert_eq!(outs.iter().map(|o| o.1).sum::<usize>(), 40);
        // Rank 0 was never removed, so its log has both rejoins. The
        // second must follow the first within the control-pipeline
        // warm-up (CTRL_LAG cycles frozen + 1 eligible cycle), NOT a
        // full rejoin_after_cycles streak later.
        let cycles = &outs[0].2;
        assert_eq!(cycles.len(), 2, "two distinct rejoins: {cycles:?}");
        let gap = cycles[1] - cycles[0];
        assert!(
            gap <= CTRL_LAG + 1,
            "second rejoin starved: gap {gap} cycles ({cycles:?})"
        );
    }

    /// A rejoin into a heterogeneous cluster balances by configured node
    /// speed: the fast readmitted node ends up with more rows than an
    /// equal-load slow node.
    #[test]
    fn mixed_speed_rejoin_balances_by_speed() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Always,
                allow_rejoin: true,
                rejoin_after_cycles: 2,
                grace_period: 2,
                post_redist_period: 2,
                node_speeds: vec![1.0, 1.0, 2.0],
                ..Default::default()
            };
            let (rt, m) = drive(&t, 60, cfg, 30, |c, _| {
                if c == 1 {
                    loads[2].store(2, Ordering::Relaxed);
                }
                if c == 12 {
                    loads[2].store(0, Ordering::Relaxed);
                }
            });
            if rt.participating() {
                check_owned(&rt, &m, 0);
            }
            (rt.num_active(), rt.distribution().counts())
        });
        for (na, counts) in &outs {
            assert_eq!(*na, 3, "fast node must have rejoined: {outs:?}");
            assert!(
                counts[2] > counts[0],
                "double-speed node gets the larger share: {counts:?}"
            );
            assert_eq!(counts.iter().sum::<usize>(), 60);
        }
    }

    /// Malleability: a brand-new node beyond the seed world comes online,
    /// is measured through an arrival grace window, passes the expansion
    /// decision, and receives rows.
    #[test]
    fn arrival_admitted_when_beneficial() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let online = Arc::new((0..3).map(|r| AtomicBool::new(r < 2)).collect::<Vec<_>>());
            let t = FakeArrival {
                inner: tt,
                loads,
                online: Arc::clone(&online),
            };
            let cfg = DynMpiConfig {
                seed_world: Some(2),
                grace_period: 2,
                arrival_retry_cycles: 1,
                expand_margin: 1e-6, // any measurable cycle time admits
                ..Default::default()
            };
            let (rt, m) = drive(&t, 30, cfg, 20, |c, _| {
                if c == 3 {
                    online[2].store(true, Ordering::Relaxed);
                }
            });
            check_owned(&rt, &m, 0);
            let kinds: Vec<&str> = rt.events().iter().map(|e| e.kind()).collect();
            (
                rt.num_active(),
                rt.my_rows(0).len(),
                rt.participating(),
                kinds.join(","),
            )
        });
        for (na, _, p, _) in &outs {
            assert_eq!(*na, 3, "newcomer must be admitted: {outs:?}");
            assert!(*p, "all three ranks participate after admission");
        }
        assert_eq!(outs.iter().map(|o| o.1).sum::<usize>(), 30);
        assert!(outs[2].1 > 0, "the admitted node received rows: {outs:?}");
        // The seed ranks log the whole decision sequence; the newcomer
        // only learns of its own admission.
        for (r, out) in outs.iter().enumerate().take(2) {
            let kinds = &out.3;
            for k in ["node-arrived", "expand-evaluated", "node-admitted"] {
                assert!(kinds.contains(k), "rank {r} missing {k}: {kinds}");
            }
        }
        assert!(outs[2].3.contains("node-admitted"), "{outs:?}");
    }

    /// The expansion decision is a real gate: with an impossible margin
    /// the arrival is evaluated (on the deterministic retry schedule) but
    /// never admitted, and the seed world keeps all rows.
    #[test]
    fn arrival_rejected_by_margin() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let online = Arc::new((0..3).map(|r| AtomicBool::new(r < 2)).collect::<Vec<_>>());
            let t = FakeArrival {
                inner: tt,
                loads,
                online: Arc::clone(&online),
            };
            let cfg = DynMpiConfig {
                seed_world: Some(2),
                grace_period: 2,
                arrival_retry_cycles: 4,
                expand_margin: 1e9, // nothing is a 10⁹× speedup
                ..Default::default()
            };
            let (rt, m) = drive(&t, 30, cfg, 20, |c, _| {
                if c == 3 {
                    online[2].store(true, Ordering::Relaxed);
                }
            });
            if rt.participating() {
                check_owned(&rt, &m, 0);
            }
            let evals: Vec<bool> = rt
                .events()
                .iter()
                .filter_map(|e| match e {
                    RuntimeEvent::ExpandEvaluated { admitted, .. } => Some(*admitted),
                    _ => None,
                })
                .collect();
            (rt.num_active(), rt.my_rows(0).len(), evals)
        });
        for (na, _, _) in &outs {
            assert_eq!(*na, 2, "newcomer must stay out: {outs:?}");
        }
        assert_eq!(outs[0].1 + outs[1].1, 30, "seed ranks keep all rows");
        assert_eq!(outs[2].1, 0);
        assert!(!outs[0].2.is_empty(), "decision must have been evaluated");
        assert!(
            outs[0].2.iter().all(|&a| !a),
            "no evaluation may admit: {outs:?}"
        );
    }

    #[test]
    fn removed_rank_allreduce_gets_result() {
        let outs = run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let cfg = DynMpiConfig {
                drop_policy: DropPolicy::Always,
                grace_period: 1,
                post_redist_period: 1,
                ..Default::default()
            };
            let mut rt = DynMpi::init(&t, 12, cfg);
            let a = rt.register_dense("A", 12);
            let ph = rt.init_phase(0, 12, CommPattern::Global);
            rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::iter_space());
            let mut m = DenseMatrix::<f64>::new(12, 1);
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                rt.setup(&mut arrays);
            }
            m.fill_rows(&rt.local_rows(a), |i, _| i as f64);
            let mut sums = vec![];
            for c in 0..10 {
                if c == 1 {
                    loads[2].store(1, Ordering::Relaxed);
                }
                rt.begin_cycle();
                // Per-cycle global reduction (CG-style): every world rank
                // calls it, removed or not.
                let part: f64 = rt.my_rows(ph).iter().map(|i| i as f64).sum();
                sums.push(rt.allreduce_sum(&[part])[0]);
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                rt.end_cycle(&mut arrays);
            }
            sums
        });
        let expect: f64 = (0..12).map(|i| i as f64).sum();
        for sums in &outs {
            for (c, s) in sums.iter().enumerate() {
                assert!((s - expect).abs() < 1e-9, "cycle {c}: {s} vs {expect}");
            }
        }
    }

    #[test]
    fn request_rebalance_without_load_change() {
        let outs = run_threads(2, |tt| {
            let loads = Arc::new((0..2).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad { inner: tt, loads };
            let (rt, _m) = drive(&t, 16, DynMpiConfig::default(), 12, |c, rt| {
                if c == 2 {
                    rt.request_rebalance();
                }
            });
            rt.events()
                .iter()
                .map(|e| e.kind())
                .collect::<Vec<_>>()
                .join(",")
        });
        for kinds in &outs {
            assert!(kinds.contains("load-change"), "{kinds}");
            assert!(
                kinds.contains("redist-skipped") || kinds.contains("redistributed"),
                "{kinds}"
            );
        }
    }

    #[test]
    fn no_adapt_ignores_load_changes() {
        let outs = run_threads(2, |tt| {
            let loads = Arc::new((0..2).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad {
                inner: tt,
                loads: Arc::clone(&loads),
            };
            let (rt, _m) = drive(&t, 16, DynMpiConfig::no_adapt(), 10, |c, _| {
                if c == 2 {
                    loads[0].store(5, Ordering::Relaxed);
                }
            });
            (rt.events().len(), rt.distribution().counts())
        });
        for (ev, counts) in &outs {
            assert_eq!(*ev, 0);
            assert_eq!(counts, &vec![8, 8]);
        }
    }

    #[test]
    fn queries_reflect_registration() {
        run_threads(2, |tt| {
            let loads = Arc::new((0..2).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad { inner: tt, loads };
            let mut rt = DynMpi::init(&t, 10, DynMpiConfig::default());
            let a = rt.register_dense("A", 10);
            let ph = rt.init_phase(1, 9, CommPattern::NearestNeighbor);
            rt.add_access(ph, a, AccessMode::Read, Drsd::with_halo(1));
            assert!(rt.participating());
            assert_eq!(rt.num_active(), 2);
            assert_eq!(rt.rel_rank(), Some(t.rank()));
            let (lo, hi) = rt.my_range(ph).unwrap();
            if t.rank() == 0 {
                assert_eq!((lo, hi), (1, 4)); // rows 0..5 ∩ [1,9) = 1..=4
            } else {
                assert_eq!((lo, hi), (5, 8));
            }
        });
    }

    #[test]
    fn ghost_exchange_refreshes_halo() {
        run_threads(3, |tt| {
            let loads = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
            let t = FakeLoad { inner: tt, loads };
            let mut rt = DynMpi::init(&t, 9, DynMpiConfig::default());
            let a = rt.register_dense("A", 9);
            let ph = rt.init_phase(0, 9, CommPattern::NearestNeighbor);
            rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
            let mut m = DenseMatrix::<f64>::new(9, 1);
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                rt.setup(&mut arrays);
            }
            // Write a rank-specific value into owned rows, then exchange.
            for i in rt.my_rows(ph).iter() {
                m.row_mut(i)[0] = (100 + i) as f64;
            }
            rt.ghost_exchange(a, &mut m);
            // Ghost rows now carry their owners' values.
            for i in rt.local_rows(a).iter() {
                assert_eq!(m.row(i)[0], (100 + i) as f64, "row {i}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_array_name_rejected() {
        run_threads(1, |tt| {
            let loads = Arc::new(vec![AtomicU32::new(0)]);
            let t = FakeLoad { inner: tt, loads };
            let mut rt = DynMpi::init(&t, 4, DynMpiConfig::default());
            rt.register_dense("A", 4);
            rt.register_dense("A", 4);
        });
    }

    /// Like [`FakeLoad`] but with fail-stop switches for the detector and
    /// recovery paths. A `downed` node's monitor reads raw 0, its own
    /// sends are dropped, and timeout-guarded receives touching it (from
    /// it, or issued by it) fail immediately — the thread-world analogue
    /// of a dead NIC. A `stalled` node's timeout-guarded receives *from*
    /// it fail too, but its monitor stays alive: the overloaded-not-dead
    /// case the detector must never confirm.
    struct FakeCrash<'x> {
        inner: &'x ThreadTransport,
        loads: Arc<Vec<AtomicU32>>,
        downed: Arc<Vec<AtomicBool>>,
        stalled: Arc<Vec<AtomicBool>>,
    }

    impl FakeCrash<'_> {
        fn down(&self, r: usize) -> bool {
            self.downed[r].load(Ordering::SeqCst)
        }
    }

    impl Transport for FakeCrash<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) {
            if !self.down(self.rank()) {
                self.inner.send_bytes(dst, tag, payload);
            }
        }
        fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8> {
            self.inner.recv_bytes(src, tag)
        }
        fn recv_bytes_any(&self, tag: u64) -> (usize, Vec<u8>) {
            self.inner.recv_bytes_any(tag)
        }
        fn recv_bytes_timeout(
            &self,
            src: usize,
            tag: u64,
            _timeout_seconds: f64,
        ) -> Result<Vec<u8>, dynmpi_comm::PeerTimeout> {
            // Poll until either a matching message is delivered or the
            // peer's fault switch flips — the fault switch plays the role
            // of the elapsed wall-clock timeout, so tests are free of
            // real-time races: a receive from a faulty peer *always*
            // times out, a receive from a healthy one *never* does.
            loop {
                if self.down(src)
                    || self.down(self.rank())
                    || self.stalled[src].load(Ordering::SeqCst)
                {
                    return Err(dynmpi_comm::PeerTimeout {
                        src: Some(src),
                        tag,
                    });
                }
                if let Some(p) = self.inner.try_recv_bytes(src, tag) {
                    return Ok(p);
                }
                std::thread::yield_now();
            }
        }
        fn wtime(&self) -> f64 {
            self.inner.wtime()
        }
    }

    impl HostMeters for FakeCrash<'_> {
        fn dmpi_ps(&self, r: usize) -> u32 {
            // A remote reading cannot cross a dead NIC on *either* end:
            // the target's (crashed node reads silent everywhere) or the
            // reader's (a partitioned rank sees everyone else as silent).
            if self.down(r) || (self.down(self.rank()) && r != self.rank()) {
                0
            } else {
                self.loads[r].load(Ordering::Relaxed) + 1
            }
        }
        fn proc_cpu_seconds(&self) -> f64 {
            self.inner.wtime()
        }
        fn proc_tick_seconds(&self) -> f64 {
            0.0
        }
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

    /// One set of fault switches shared by every rank thread (a fault is
    /// a property of the cluster, not of one rank's view of it).
    #[allow(clippy::type_complexity)]
    fn fault_switches(
        n: usize,
    ) -> (
        Arc<Vec<AtomicU32>>,
        Arc<Vec<AtomicBool>>,
        Arc<Vec<AtomicBool>>,
    ) {
        (
            Arc::new((0..n).map(|_| AtomicU32::new(0)).collect()),
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect()),
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect()),
        )
    }

    /// The canonical rollback loop: computes `steps` increments on col 0
    /// of every owned row, crashing rank `crash_rank` before its step
    /// `crash_step` when given. Returns (runtime, matrix, rollbacks).
    #[allow(clippy::type_complexity)]
    fn drive_with_rollback<'x>(
        t: &'x FakeCrash<'x>,
        nrows: usize,
        steps: u64,
        crash: Option<(usize, u64)>,
    ) -> Option<(DynMpi<'x, FakeCrash<'x>>, DenseMatrix<f64>, Vec<u64>)> {
        let mut rt = DynMpi::init(t, nrows, crash_cfg());
        let a = rt.register_dense("A", nrows);
        let ph = rt.init_phase(0, nrows, CommPattern::NearestNeighbor);
        rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
        let mut m = DenseMatrix::<f64>::new(nrows, 4);
        {
            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            rt.setup(&mut arrays);
        }
        m.fill_rows(&rt.local_rows(a), fill_pattern);
        let mut rollbacks = Vec::new();
        let mut step = 0u64;
        while step < steps {
            if let Some((cr, cs)) = crash {
                if t.rank() == cr && step == cs {
                    // Fail-stop: flip the NIC switch and never speak again.
                    t.downed[cr].store(true, Ordering::SeqCst);
                    return None;
                }
            }
            rt.begin_cycle();
            for i in rt.my_rows(ph).iter() {
                m.row_mut(i)[0] += 1.0;
            }
            rt.charge_rows(ph, |_| 10.0);
            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            rt.end_cycle(&mut arrays);
            step = match rt.take_rollback() {
                Some(back) => {
                    rollbacks.push(back);
                    back
                }
                None => step + 1,
            };
        }
        Some((rt, m, rollbacks))
    }

    /// Tentpole end-to-end at the unit level: a silent node is suspected,
    /// confirmed after the sustain window, its rows are restored from the
    /// buddy mirror, the survivors roll back and replay — and every row
    /// ends with exactly `steps` increments, as in a crash-free run.
    #[test]
    fn crash_is_confirmed_and_recovered_from_buddy() {
        let steps = 16u64;
        let (loads, downed, stalled) = fault_switches(4);
        let outs = run_threads(4, move |tt| {
            let t = FakeCrash {
                inner: tt,
                loads: Arc::clone(&loads),
                downed: Arc::clone(&downed),
                stalled: Arc::clone(&stalled),
            };
            let (rt, m, rollbacks) = drive_with_rollback(&t, 40, steps, Some((2, 6)))?;
            // Every surviving row carries the full increment count plus
            // the untouched fill pattern in the other columns.
            for i in rt.my_rows(0).iter() {
                assert_eq!(m.row(i)[0], fill_pattern(i, 0) + steps as f64, "row {i}");
                for j in 1..4 {
                    assert_eq!(m.row(i)[j], fill_pattern(i, j), "row {i} col {j}");
                }
            }
            let kinds: Vec<&str> = rt.events().iter().map(|e| e.kind()).collect();
            Some((
                rt.active_members().to_vec(),
                rt.dead_nodes(),
                rollbacks,
                rt.my_rows(0).len(),
                kinds.contains(&"node-suspected") && kinds.contains(&"node-confirmed-dead"),
                kinds.contains(&"node-recovered"),
            ))
        });
        assert!(outs[2].is_none(), "rank 2 crashed");
        let survivors: Vec<_> = outs.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 3);
        let mut owned = 0;
        for (members, dead, rollbacks, mine, detected, recovered) in &survivors {
            assert_eq!(members, &vec![0, 1, 3]);
            assert_eq!(dead, &vec![2]);
            assert_eq!(rollbacks.len(), 1, "exactly one rollback");
            assert!(*detected && *recovered);
            owned += mine;
        }
        // Survivors own the whole space, dead rows restored from the buddy.
        assert_eq!(owned, 40);
        // All survivors rolled back to the same checkpointed step.
        assert!(survivors.windows(2).all(|w| w[0].2 == w[1].2));
    }

    /// Property guard: a node whose control samples time out while its
    /// monitor still answers (pure overload) must never build a suspect
    /// streak, let alone be confirmed dead.
    #[test]
    fn overloaded_stall_is_never_confirmed() {
        let steps = 14u64;
        let (loads, downed, stalled) = fault_switches(3);
        let outs = run_threads(3, move |tt| {
            let stalled = Arc::clone(&stalled);
            let t = FakeCrash {
                inner: tt,
                loads: Arc::clone(&loads),
                downed: Arc::clone(&downed),
                stalled: Arc::clone(&stalled),
            };
            let mut rt = DynMpi::init(&t, 30, crash_cfg());
            let a = rt.register_dense("A", 30);
            let ph = rt.init_phase(0, 30, CommPattern::NearestNeighbor);
            rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
            let mut m = DenseMatrix::<f64>::new(30, 4);
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                rt.setup(&mut arrays);
            }
            m.fill_rows(&rt.local_rows(a), fill_pattern);
            for step in 0..steps {
                // Rank 1's samples stall for far longer than the sustain
                // window, then clear.
                if t.rank() == 1 && step == 3 {
                    stalled[1].store(true, Ordering::SeqCst);
                }
                if t.rank() == 1 && step == 10 {
                    stalled[1].store(false, Ordering::SeqCst);
                }
                rt.begin_cycle();
                rt.charge_rows(ph, |_| 10.0);
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                rt.end_cycle(&mut arrays);
                assert!(rt.take_rollback().is_none(), "no recovery under overload");
            }
            check_owned(&rt, &m, a);
            let failure_kinds = rt
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        RuntimeEvent::NodeSuspected { .. }
                            | RuntimeEvent::NodeConfirmedDead { .. }
                            | RuntimeEvent::NodeRecovered { .. }
                    )
                })
                .count();
            (failure_kinds, rt.num_active(), rt.participating())
        });
        for (failures, na, p) in outs {
            assert_eq!(failures, 0, "stall must never escalate");
            assert_eq!(na, 3);
            assert!(p);
        }
    }

    /// The other side of a partition: the cut-off rank's own control
    /// receives go silent, so after the sustain window it withdraws
    /// permanently instead of blocking forever, while the survivors
    /// confirm it dead and recover its rows.
    #[test]
    fn partitioned_rank_self_evicts_and_survivors_recover() {
        let steps = 16u64;
        let (loads, downed, stalled) = fault_switches(4);
        let outs = run_threads(4, move |tt| {
            let downed = Arc::clone(&downed);
            let t = FakeCrash {
                inner: tt,
                loads: Arc::clone(&loads),
                downed: Arc::clone(&downed),
                stalled: Arc::clone(&stalled),
            };
            let mut rt = DynMpi::init(&t, 40, crash_cfg());
            let a = rt.register_dense("A", 40);
            let ph = rt.init_phase(0, 40, CommPattern::NearestNeighbor);
            rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
            let mut m = DenseMatrix::<f64>::new(40, 4);
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                rt.setup(&mut arrays);
            }
            m.fill_rows(&rt.local_rows(a), fill_pattern);
            let mut step = 0u64;
            while step < steps {
                // The partition: rank 1 keeps running, but its NIC dies.
                if t.rank() == 1 && step == 6 {
                    downed[1].store(true, Ordering::SeqCst);
                }
                rt.begin_cycle();
                rt.charge_rows(ph, |_| 10.0);
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                rt.end_cycle(&mut arrays);
                step = match rt.take_rollback() {
                    Some(back) => back,
                    None => step + 1,
                };
            }
            (
                rt.is_evicted(),
                rt.participating(),
                rt.active_members().to_vec(),
                rt.my_rows(0).len(),
            )
        });
        let (evicted, participating, members, mine) = &outs[1];
        assert!(*evicted, "partitioned rank withdraws");
        assert!(!participating);
        assert_eq!(*mine, 0);
        let _ = members;
        let mut owned = 0;
        for (r, (evicted, participating, members, mine)) in outs.iter().enumerate() {
            if r == 1 {
                continue;
            }
            assert!(!evicted && *participating, "rank {r}");
            assert_eq!(members, &vec![0, 2, 3]);
            owned += mine;
        }
        assert_eq!(owned, 40, "survivors own everything");
    }
}
