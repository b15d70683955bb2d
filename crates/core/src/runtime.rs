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
    /// Rows are timed individually. With `arrival` it is the
    /// re-measurement window for an arriving node (malleability): cycle
    /// times are accumulated too, before the expansion decision for it.
    Grace {
        left: u32,
        arrival: Option<usize>,
    },
    PostRedist {
        left: u32,
    },
}

/// Crash recovery's part in a membership transition: the rows move out of
/// a restored checkpoint generation, `holder` standing in for `dead_node`.
struct Restore {
    dead_node: usize,
    holder: usize,
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
        self.active.size()
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
        let Some(rel) = self.rel_rank() else {
            return RowSet::new();
        };
        self.dist
            .rows_of(rel)
            .intersect(&RowSet::from_range(spec.lo..spec.hi))
    }

    /// Rows of `array` present on this rank: owned plus DRSD ghosts. Use
    /// after `setup` (or a redistribution) to know what to initialize.
    pub fn local_rows(&self, array: ArrayId) -> RowSet {
        if self.rel_rank().is_none() {
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
        // Paired with the `end_cycle` span's `cycle` attribute (the
        // counter increments inside `end_cycle_inner`, so the cycle now
        // starting is `self.cycle + 1`): together they bound each
        // adaptation cycle's wall time per rank for the profiler.
        self.trace_point("begin_cycle", || {
            vec![("cycle", Json::UInt(self.cycle + 1))]
        });
    }

    /// Performs this rank's compute for `phase`, charging `work(row)`
    /// CPU units per owned row. Outside the grace period the whole range
    /// is charged in one piece; during it each row is timed individually
    /// (§4.2).
    pub fn charge_rows(&mut self, phase: PhaseId, work: impl Fn(usize) -> f64) {
        let rows = self.my_rows(phase);
        let grace = matches!(self.mode, Mode::Grace { .. }) && self.timer.is_some();
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
        self.trace_point(ev.kind(), || ev.trace_args());
        self.events.push(ev);
    }

    /// A `runtime` instant trace event; `args` is built only when tracing.
    fn trace_point(&self, name: &'static str, args: impl FnOnce() -> Vec<(&'static str, Json)>) {
        if obs::enabled() {
            obs::instant("runtime", name, self.t.now_ns(), args());
        }
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
                    continue;
                }
                let peer = self.active.world_rank(r);
                let sample = if self.cfg.failure_detection {
                    self.t
                        .recv_bytes_timeout(peer, up, self.cfg.peer_timeout_seconds)
                } else {
                    Ok(self.t.recv_bytes(peer, up))
                };
                b.push(match sample {
                    Ok(bytes) => from_bytes::<f64>(&bytes)[0],
                    // Timeout-guarded gather: a missing sample becomes a
                    // sentinel the replicated detector classifies from
                    // the monitor reading (dead vs. merely overloaded).
                    Err(_) if self.t.dmpi_ps(peer) == 0 => CTRL_SILENT,
                    Err(_) => CTRL_STALLED,
                });
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
        } else {
            // The state blob is the replicated machine's input: a rank
            // must never advance without it. When the root's monitor
            // reads dead from here (partitioned reader, or the root
            // itself died — the latter is out of scope, DESIGN.md §14)
            // this rank withdraws rather than blocking forever — the
            // survivors are confirming it dead through the same silence.
            let Some(bytes) = self.recv_unless_dead(root, down) else {
                self.self_evict();
                return report;
            };
            from_bytes(&bytes)
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
                && !self.suspect_open();
            if transition || report.redistributed || due {
                self.refresh_ckpt(arrays);
            }
        }
        report
    }

    /// Is any active member's suspect streak open?
    fn suspect_open(&self) -> bool {
        let mut members = self.active.members().iter();
        members.any(|&m| self.silent_streak[m] > 0)
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
        if self.cfg.failure_detection && (times.iter().any(|&x| x < 0.0) || self.suspect_open()) {
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
                    self.start_row_timer();
                    self.mode = Mode::Grace {
                        left: self.cfg.grace_period,
                        arrival: None,
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
            Mode::Grace { left, arrival } => {
                if let Some(t) = self.timer.as_mut() {
                    t.end_cycle();
                }
                if let Some(node) = arrival {
                    if !online[node - self.seed] || !alive[node] {
                        // The newcomer vanished mid-window: abandon the
                        // evaluation (a fresh window starts if it returns).
                        self.reset_window();
                        return;
                    }
                    self.accumulate_window(times);
                }
                if left > 1 {
                    let left = left - 1;
                    self.mode = Mode::Grace { left, arrival };
                } else if let Some(node) = arrival {
                    self.spanned("arrival_eval", |rt| {
                        rt.finish_arrival_eval(node, loads, arrays, report)
                    });
                } else {
                    self.spanned("finish_grace", |rt| rt.finish_grace(loads, arrays, report));
                }
            }
            Mode::PostRedist { left } => {
                if self.post_skip > 0 {
                    // The pipeline lag means the first blobs of the
                    // window still carry pre-redistribution cycles.
                    self.post_skip -= 1;
                    return;
                }
                self.accumulate_window(times);
                if left > 1 {
                    self.mode = Mode::PostRedist { left: left - 1 };
                } else {
                    self.spanned("drop_eval", |rt| {
                        rt.finish_post_redist(loads, arrays, report)
                    });
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
        self.finish_measurement();

        let traced = obs::enabled();
        if traced {
            obs::span_begin("runtime", "balance", self.t.now_ns());
        }
        let min_rows = if self.cfg.drop_policy == DropPolicy::Logical {
            self.cfg.min_rows_logical
        } else {
            0
        };
        let new_dist = self.balance_over(self.active.members(), loads, min_rows);
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
        let avg = self.window_average();
        self.reset_window();
        let measured_max = avg.iter().cloned().fold(0.0, f64::max);

        let members = self.active.members().iter().copied();
        let (loaded, unloaded): (Vec<usize>, Vec<usize>) = members.partition(|&m| loads[m] > 0);
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
            &self.node_loads(&unloaded, loads),
            &self.comm_model_for(self.active.size()),
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
        let dist = self.balance_over(&unloaded, loads, 0);
        self.enact(unloaded, dist, None, loads, arrays);
        report.dropped = loaded;
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

        let members = self.active.with_member(node, self.wrank).members().to_vec();
        let dist = self.balance_over(&members, loads, 0);
        self.enact(members, dist, None, loads, arrays);
        report.rejoined = Some(node);
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
        // Rows are timed through the window exactly like an ordinary
        // grace period.
        self.reset_window();
        self.start_row_timer();
        self.mode = Mode::Grace {
            left: self.cfg.grace_period,
            arrival: Some(node),
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
        // Fresh global row weights, exactly as in `finish_grace`.
        self.finish_measurement();
        let avg = self.window_average();
        self.reset_window();
        let measured_max = avg.iter().cloned().fold(0.0, f64::max);

        let members = self.active.with_member(node, self.wrank).members().to_vec();
        let w = self.effective_weights();
        let total_work: f64 = w.iter().sum();
        let comm_baseline = self.comm_baseline(&avg, loads, &w);
        let pred_with = predict_cycle_time(
            total_work,
            &self.node_loads(&members, loads),
            &self.comm_model_for(members.len()),
            comm_baseline,
        );
        let new_dist = self.balance_over(&members, loads, 0);
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

        // Expansion: symmetric to the rejoin path, with the newcomer as
        // a pure receiver of the redistribution.
        self.enact(members, new_dist, None, loads, arrays);
        report.admitted = Some(node);
    }

    // ---------------- the one membership transition ----------------------

    /// Enacts a membership change. Node drop, rejoin, admission, crash
    /// recovery and — on the entering rank — the joiner's side all come
    /// here with the new member list and distribution, both pure functions
    /// of broadcast data, so every participant makes the identical change:
    /// adopt the new group, move the rows, start a fresh measurement
    /// window and control epoch, log what happened.
    ///
    /// Only the place of the status send-out differs. Letting a rank in
    /// sends the statuses *first*: it must learn its membership before the
    /// transfers reach it, and it reads the pre-transition epoch and bumps
    /// it once like the actives do. A pure shrink sends them *last*, with
    /// the new epoch. Either way they come from the pre-transition root,
    /// even if it just removed itself.
    fn enact(
        &mut self,
        members: Vec<usize>,
        dist: Distribution,
        restore: Option<Restore>,
        loads: &[u32],
        arrays: &mut [&mut dyn RedistArray],
    ) {
        let owed = if self.active.rel() == Some(0) {
            self.removed_nodes()
        } else {
            Vec::new()
        };
        // Adopt the new layout at once (the statuses announce it); the
        // old one is what the rows move *from*.
        let old_group = std::mem::replace(&mut self.active, Group::new(members, self.wrank));
        let old_dist = std::mem::replace(&mut self.dist, dist);
        self.is_removed = self.active.rel().is_none();
        let (old, new) = (old_group.members().iter(), self.active.members().iter());
        let leaving: Vec<usize> = old.copied().filter(|&m| !self.active.contains(m)).collect();
        let entering: Vec<usize> = new.copied().filter(|&m| !old_group.contains(m)).collect();
        let cycle = self.cycle;
        let event = match (entering.first(), &restore) {
            (Some(&node), _) if node >= self.seed => {
                let rel = self.active.rel_of(node).expect("entering node is a member");
                let rows = self.dist.rows_of(rel).len();
                RuntimeEvent::NodeAdmitted { cycle, node, rows }
            }
            (Some(&node), _) => RuntimeEvent::NodeRejoined { cycle, node },
            (None, Some(r)) => {
                let rel = old_group.rel_of(r.dead_node).expect("dead node was active");
                RuntimeEvent::NodeRecovered {
                    cycle,
                    node: r.dead_node,
                    rollback_to: self.app_progress,
                    // Identical on every survivor (the holder's actual
                    // count equals this by the refresh invariant).
                    restored_rows: old_dist.rows_of(rel).len() * arrays.len(),
                    holder: r.holder,
                }
            }
            (None, None) => RuntimeEvent::NodesDropped {
                cycle,
                nodes: leaving,
            },
        };
        if entering.is_empty() {
            self.clear_streak = vec![0; self.wsize];
        } else {
            // Reset only the entering node's streak — the other removed
            // nodes keep theirs, so several nodes clearing together rejoin
            // on consecutive eligible cycles instead of each restarting a
            // full streak. Done before the statuses go out: the tail ships
            // the post-reset streak vector, keeping the joiner's replica
            // exact.
            for &m in &entering {
                self.clear_streak[m] = 0;
            }
            self.send_statuses(&owed, loads);
        }

        let oc = match &restore {
            None => redist::execute_cached(
                self.t,
                self.wrank,
                self.sched_cache.get_mut(),
                &old_group,
                &old_dist,
                &self.active,
                &self.dist,
                &self.accesses,
                arrays,
            ),
            Some(r) => {
                self.sched_cache.get_mut().invalidate();
                redist::execute_recovery(
                    self.t,
                    self.wrank,
                    &old_group,
                    &old_dist,
                    &self.active,
                    &self.dist,
                    &self.accesses,
                    arrays,
                    r.dead_node,
                    r.holder,
                )
            }
        };
        self.redist_seconds_total += oc.seconds;
        self.last_loads = loads.to_vec();
        self.reset_window();
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
        let dead_rel = self
            .active
            .rel_of(dead_node)
            .expect("confirmed node must be active");
        // The ring buddy: the dead node's successor holds its mirror.
        let holder = self.active.world_rank((dead_rel + 1) % self.active.size());
        let survivors: Vec<usize> = self
            .active
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
        let new_dist = self.balance_over(&survivors, loads, 0);

        self.dead[dead_node] = true;
        self.silent_streak[dead_node] = 0;
        // Rewind the application: progress returns to the restored
        // generation's step; the survivors replay the lost steps from
        // restored data.
        self.app_progress = rb;
        self.rollback_to = Some(rb);
        let restore = Some(Restore { dead_node, holder });
        self.enact(survivors, new_dist, restore, loads, arrays);
        report.recovered = Some(dead_node);
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
        self.trace_point("self-evict", || vec![("cycle", Json::UInt(self.cycle))]);
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

    /// Load descriptors for `members`: monitor readings plus the
    /// configured per-node relative speeds (heterogeneous clusters).
    fn node_loads(&self, members: &[usize], loads: &[u32]) -> Vec<NodeLoad> {
        members
            .iter()
            .map(|&m| NodeLoad {
                ncp: loads[m],
                speed: self.cfg.speed_of(m),
            })
            .collect()
    }

    fn effective_weights(&self) -> Vec<f64> {
        match &self.row_weights {
            Some(w) if w.iter().sum::<f64>() > 0.0 => w.clone(),
            _ => vec![1.0; self.nrows],
        }
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

    /// The balancer: the measured row weights over `members` under the
    /// monitor's `loads`, every member keeping at least `min_rows`.
    fn balance_over(&self, members: &[usize], loads: &[u32], min_rows: usize) -> Distribution {
        let node_loads = self.node_loads(members, loads);
        let w = self.effective_weights();
        match self.cfg.balancer {
            BalancerKind::RelativePower => relative_power(&w, &node_loads, min_rows),
            BalancerKind::SuccessiveBalancing => successive_balance_with_floor(
                &w,
                &node_loads,
                &self.comm_model_for(members.len()),
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
        let per = self.modeled_compute(dist, loads, &self.effective_weights());
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
        let compute = self.modeled_compute(&self.dist, loads, weights);
        for (avg, compute) in avg_times.iter().zip(compute) {
            let extra = avg - compute;
            if extra < best {
                best = extra;
            }
        }
        best.max(0.0)
    }

    /// Modeled compute time per active member under `dist`: its assigned
    /// weight scaled by `ncp + 1` over its configured speed.
    fn modeled_compute(&self, dist: &Distribution, loads: &[u32], weights: &[f64]) -> Vec<f64> {
        let members = self.active.members().iter().enumerate();
        members
            .map(|(rel, &m)| {
                let mine: f64 = dist.rows_of(rel).iter().map(|r| weights[r]).sum();
                mine * f64::from(loads[m] + 1) / self.cfg.speed_of(m)
            })
            .collect()
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
        oc
    }

    // ---------------- measurement windows --------------------------------

    /// Starts timing this rank's currently owned rows.
    fn start_row_timer(&mut self) {
        let mine = self.dist.rows_of(self.active.rel_unchecked());
        let (lo, count) = (mine.first().unwrap_or(0), mine.len());
        self.timer = Some(RowTimer::new(lo, count, self.t.proc_tick_seconds()));
    }

    /// Closes a row-timing window: logs how the rows were timed and
    /// assembles the global per-row weight vector — every active rank
    /// contributes its contiguous block, in relative-rank (= row) order.
    fn finish_measurement(&mut self) {
        let timer = self.timer.take().expect("grace without timer");
        let mode = timer.mode().expect("grace period saw no cycles");
        self.note(RuntimeEvent::GraceComplete {
            cycle: self.cycle,
            mode,
        });
        let weights = self.t.allgatherv(&self.active, &timer.weights()).concat();
        assert_eq!(weights.len(), self.nrows, "weight gather incomplete");
        self.row_weights = Some(weights);
    }

    /// Adds one cycle's broadcast times to the cycle-time window.
    fn accumulate_window(&mut self, times: &[f64]) {
        for (i, &t) in times.iter().enumerate() {
            self.post_accum[i] += t;
        }
        self.post_count += 1;
    }

    /// Mean cycle time per active member over the window.
    fn window_average(&self) -> Vec<f64> {
        self.post_accum[..self.active.size()]
            .iter()
            .map(|&s| s / f64::from(self.post_count.max(1)))
            .collect()
    }

    /// Back to `Stable` with no measurement in progress.
    fn reset_window(&mut self) {
        self.timer = None;
        self.post_accum.fill(0.0);
        self.post_count = 0;
        self.mode = Mode::Stable;
    }

    /// Runs `f` inside a `runtime` trace span when tracing is active.
    fn spanned(&mut self, name: &'static str, f: impl FnOnce(&mut Self)) {
        let traced = obs::enabled();
        if traced {
            obs::span_begin("runtime", name, self.t.now_ns());
        }
        f(self);
        if traced {
            obs::span_end(self.t.now_ns());
        }
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
        let mut v: Vec<u64> = Vec::with_capacity(3 + self.active.size() * 2);
        v.push(self.cycle);
        v.push(self.active.size() as u64);
        v.extend(self.active.members().iter().map(|&m| m as u64));
        v.extend(self.dist.counts().iter().map(|&c| c as u64));
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
            let for_member = self.active.contains(n);
            self.t
                .send_bytes(n, TAG_STATUS, self.status_payload(for_member, loads));
        }
    }

    fn removed_end_cycle(&mut self, arrays: &mut [&mut dyn RedistArray], report: &mut CycleReport) {
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
            let loads: Vec<u32> = tail[..self.wsize].iter().map(|&x| x as u32).collect();
            self.clear_streak = tail[self.wsize..2 * self.wsize]
                .iter()
                .map(|&x| x as u32)
                .collect();
            self.row_weights = Some(tail[2 * self.wsize..].to_vec());

            // Rejoin: participate in the redistribution the actives are
            // running right now, as a receiver.
            let dist = Distribution::block_from_counts(&counts);
            self.enact(members, dist, None, &loads, arrays);
            if self.wrank >= self.seed {
                report.admitted = Some(self.wrank);
            } else {
                report.rejoined = Some(self.wrank);
            }
        } else {
            self.active = Group::new(members, self.wrank);
            self.dist = Distribution::block_from_counts(&counts);
        }
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
            // A dead neighbor must not hang the exchange: its ghost rows
            // are given up as stale. The detector then confirms within
            // cycles and recovery rolls everything back past the stale
            // reads.
            match self.recv_unless_dead(*src, tag) {
                Some(p) => arr.unpack_rows(from_src, &p),
                None => {
                    self.trace_point("ghost-timeout", || vec![("src", Json::UInt(*src as u64))])
                }
            }
        }
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
        if !self.cfg.failure_detection {
            return Some(self.t.recv_bytes(src, tag));
        }
        loop {
            match self
                .t
                .recv_bytes_timeout(src, tag, self.cfg.peer_timeout_seconds)
            {
                Ok(bytes) => return Some(bytes),
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
    use crate::dense::DenseMatrix;
    use crate::drive::{cluster, drive, RankOut, Scenario};
    use dynmpi_comm::SimTransport;
    use dynmpi_obs::{Recorder, TraceEvent};
    use dynmpi_sim::{LoadScript, NodeSpec, SimDur};

    /// The ranks that did not crash.
    fn finished(outs: Vec<Option<RankOut>>) -> Vec<RankOut> {
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
    /// a crash-free run.
    #[test]
    fn crash_is_confirmed_and_recovered_from_buddy() {
        let sc = Scenario::new(4, 40, 16, crash_cfg());
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
