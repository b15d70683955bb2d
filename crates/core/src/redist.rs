//! Effecting a redistribution (§4.4).
//!
//! Given the old and new distributions (each over its own active group),
//! every participant (1) determines ownership, (2) sends away rows it no
//! longer owns, (3) receives rows it now owns, (4) fetches the ghost rows
//! its DRSDs say it reads but does not own, and (5) drops storage that is
//! neither owned nor a needed ghost. Rows that stay put are untouched —
//! the projection allocation's pointer reuse.
//!
//! All participants compute the identical transfer schedule from shared
//! state, so messages need no headers: a `(src, dst, array)` triple fully
//! determines the row set.
//!
//! # Schedules
//!
//! The schedule is computed once per `(old_dist, new_dist, accesses)` as
//! a [`TransferSchedule`] and cached ([`ScheduleCache`]) across cycles
//! whose distribution didn't change. Construction prunes partner pairs
//! with O(1) bound arithmetic — [`crate::drsd::Drsd::envelope`] for ghost
//! legs, block-boundary binary search for ownership moves — so the
//! expensive [`ghost_needs`] evaluation runs **only** for pairs whose row
//! sets can actually intersect (the [`GHOST_NEEDS_EVALS`] counter holds
//! the line), instead of the former every-rank × every-rank × every-array
//! sweep.

use std::rc::Rc;

use dynmpi_comm::{CommOps, Group, Transport};
use dynmpi_obs::{self as obs, Json};

use crate::array::RedistArray;
use crate::dist::Distribution;
use crate::drsd::{AccessMode, ArrayAccess};
use crate::rowset::RowSet;

/// Runtime-internal tag space (above the collective tags).
const TAG_MOVE: u64 = 1 << 33;
const TAG_GHOST: u64 = (1 << 33) + 0x10_0000;

/// Counter: number of full [`ghost_needs`] evaluations. Schedule
/// construction must keep this at O(intersecting pairs), not O(n²).
pub const GHOST_NEEDS_EVALS: &str = "redist.ghost_needs_evals";

/// Counter: number of [`TransferSchedule`] constructions — stays flat
/// across cycles when the [`ScheduleCache`] hits.
pub const SCHEDULE_BUILDS: &str = "redist.schedule_builds";

/// Cost accounting for one redistribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RedistOutcome {
    /// Wall time of the whole operation (including the closing barrier).
    pub seconds: f64,
    /// Rows whose ownership moved to or from this rank.
    pub rows_moved: usize,
    /// Payload bytes this rank sent.
    pub bytes_sent: u64,
}

/// Computes the ghost rows every member of `group` needs for `array`,
/// given the distribution and the phase access list: the union of all
/// read sections evaluated over the member's owned ranges, minus what it
/// owns.
pub fn ghost_needs(
    dist: &Distribution,
    rel: usize,
    array: usize,
    accesses: &[ArrayAccess],
    nrows: usize,
) -> RowSet {
    obs::count(GHOST_NEEDS_EVALS, 1);
    let owned = dist.rows_of(rel);
    let mut need = RowSet::new();
    for acc in accesses {
        if acc.array != array || acc.mode == AccessMode::Write {
            continue;
        }
        for r in owned.ranges() {
            need = need.union(&acc.drsd.eval(r.start, r.end - 1, nrows));
        }
    }
    need.diff(&owned)
}

/// First and last (inclusive) row owned by `rel`, without materializing a
/// [`RowSet`]. `None` when the node owns nothing.
fn owned_bounds(dist: &Distribution, rel: usize) -> Option<(usize, usize)> {
    match dist {
        Distribution::Block { .. } => dist.block_range(rel),
        Distribution::Cyclic { nnodes, nrows } => {
            (rel < *nrows).then(|| (rel, rel + (*nrows - 1 - rel) / *nnodes * *nnodes))
        }
    }
}

/// Conservative half-open envelope of every row `rel` may *read* on
/// `array` (owned rows included): the union of each read access's
/// [`crate::drsd::Drsd::envelope`] over the node's owned bounds, merged
/// into one interval. O(accesses); `None` means the node reads nothing.
fn read_envelope(
    dist: &Distribution,
    rel: usize,
    array: usize,
    accesses: &[ArrayAccess],
    nrows: usize,
) -> Option<(usize, usize)> {
    let (first, last) = owned_bounds(dist, rel)?;
    let mut env: Option<(usize, usize)> = None;
    for acc in accesses {
        if acc.array != array || acc.mode == AccessMode::Write {
            continue;
        }
        if let Some((lo, hi)) = acc.drsd.envelope(first, last, nrows) {
            env = Some(match env {
                Some((elo, ehi)) => (elo.min(lo), ehi.max(hi)),
                None => (lo, hi),
            });
        }
    }
    env
}

/// Relative ranks of `dist` whose owned rows can intersect the inclusive
/// row interval `[lo, hi]`. Binary search on block boundaries; the full
/// node range for cyclic distributions (every node straddles the space).
fn overlapping_nodes(dist: &Distribution, lo: usize, hi: usize) -> std::ops::Range<usize> {
    match dist {
        Distribution::Block { starts } => {
            let a = starts.partition_point(|&s| s <= lo).saturating_sub(1);
            let b = starts.partition_point(|&s| s <= hi).min(starts.len() - 1);
            a..b.max(a)
        }
        Distribution::Cyclic { nnodes, .. } => 0..*nnodes,
    }
}

/// This rank's complete transfer schedule for one redistribution: which
/// rows to send to / receive from whom, per phase, in deterministic
/// partner order. Pure data — building it performs no communication, so
/// every participant derives matching schedules from shared state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransferSchedule {
    /// Phase A sends `(dst world rank, rows)`: rows I had that `dst` now
    /// owns. Identical for every array; ascending `dst` order.
    pub move_sends: Vec<(usize, RowSet)>,
    /// Phase A receives `(src world rank, rows)`: rows I now own that
    /// `src` had. Ascending `src` order.
    pub move_recvs: Vec<(usize, RowSet)>,
    /// Phase B sends per array: ghost rows each reader needs from me.
    pub ghost_sends: Vec<Vec<(usize, RowSet)>>,
    /// Phase B receives per array: my ghost needs, split by owner.
    pub ghost_recvs: Vec<Vec<(usize, RowSet)>>,
    /// Per-array keep sets (new owned rows ∪ my ghost needs); storage
    /// outside them is released in Phase C.
    pub keep: Vec<RowSet>,
}

impl TransferSchedule {
    /// Builds the schedule for world rank `me`. `narrays` is the number
    /// of registered arrays (ghost legs and keep sets are per array).
    ///
    /// Partner discovery is pruned before any [`ghost_needs`] evaluation:
    /// ownership moves consider only nodes whose blocks overlap mine, and
    /// ghost legs only nodes whose read envelope can reach my rows — a
    /// non-intersecting `(src, dst)` pair costs two comparisons, not a
    /// `RowSet` materialization.
    pub fn build(
        me: usize,
        old_group: &Group,
        old_dist: &Distribution,
        new_group: &Group,
        new_dist: &Distribution,
        accesses: &[ArrayAccess],
        narrays: usize,
    ) -> TransferSchedule {
        obs::count(SCHEDULE_BUILDS, 1);
        let nrows = old_dist.nrows();
        assert_eq!(nrows, new_dist.nrows(), "row-space mismatch");

        let my_old = old_group
            .rel_of(me)
            .map(|r| old_dist.rows_of(r))
            .unwrap_or_default();
        let my_new = new_group
            .rel_of(me)
            .map(|r| new_dist.rows_of(r))
            .unwrap_or_default();

        let mut sched = TransferSchedule::default();

        // ---- Phase A partners: block-overlap pruning ------------------
        if let (Some(first), Some(last)) = (my_old.first(), my_old.last()) {
            for dst_rel in overlapping_nodes(new_dist, first, last) {
                let dst = new_group.world_rank(dst_rel);
                if dst == me {
                    continue;
                }
                let mv = my_old.intersect(&new_dist.rows_of(dst_rel));
                if !mv.is_empty() {
                    sched.move_sends.push((dst, mv));
                }
            }
        }
        if let (Some(first), Some(last)) = (my_new.first(), my_new.last()) {
            for src_rel in overlapping_nodes(old_dist, first, last) {
                let src = old_group.world_rank(src_rel);
                if src == me {
                    continue;
                }
                let mv = my_new.intersect(&old_dist.rows_of(src_rel));
                if !mv.is_empty() {
                    sched.move_recvs.push((src, mv));
                }
            }
        }

        // ---- Phase B partners: envelope pruning -----------------------
        let my_bounds = owned_bounds_of(&my_new);
        let me_new_rel = new_group.rel_of(me);
        for ai in 0..narrays {
            // Sends: evaluate a reader's needs only when its envelope can
            // reach my rows.
            let mut sends = Vec::new();
            if let Some((my_first, my_last)) = my_bounds {
                for dst_rel in 0..new_group.size() {
                    let dst = new_group.world_rank(dst_rel);
                    if dst == me {
                        continue;
                    }
                    let Some((lo, hi)) = read_envelope(new_dist, dst_rel, ai, accesses, nrows)
                    else {
                        continue;
                    };
                    if hi <= my_first || lo > my_last {
                        continue;
                    }
                    let need = ghost_needs(new_dist, dst_rel, ai, accesses, nrows);
                    let from_me = need.intersect(&my_new);
                    if !from_me.is_empty() {
                        sends.push((dst, from_me));
                    }
                }
            }
            sched.ghost_sends.push(sends);

            // Receives: my own needs, split by owner; owner candidates
            // come from the need's bounding interval.
            let mut recvs = Vec::new();
            let mut keep = my_new.clone();
            if let Some(my_rel) = me_new_rel {
                let need = ghost_needs(new_dist, my_rel, ai, accesses, nrows);
                if let (Some(first), Some(last)) = (need.first(), need.last()) {
                    for src_rel in overlapping_nodes(new_dist, first, last) {
                        let src = new_group.world_rank(src_rel);
                        if src == me {
                            continue;
                        }
                        let from_src = need.intersect(&new_dist.rows_of(src_rel));
                        if !from_src.is_empty() {
                            recvs.push((src, from_src));
                        }
                    }
                }
                keep = keep.union(&need);
            } else {
                keep = RowSet::new();
            }
            sched.ghost_recvs.push(recvs);
            sched.keep.push(keep);
        }
        sched
    }
}

fn owned_bounds_of(rows: &RowSet) -> Option<(usize, usize)> {
    Some((rows.first()?, rows.last()?))
}

/// Caches the last [`TransferSchedule`] against its defining state, so
/// steady-state cycles (same groups, same distributions) skip schedule
/// construction entirely. One cache per rank; `accesses` are fixed after
/// setup, so they are not part of the key.
#[derive(Default)]
pub struct ScheduleCache {
    key: Option<(Vec<usize>, Distribution, Vec<usize>, Distribution)>,
    sched: Option<Rc<TransferSchedule>>,
}

impl ScheduleCache {
    pub fn new() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// Returns the cached schedule when groups and distributions are
    /// unchanged, rebuilding (and re-keying) otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule(
        &mut self,
        me: usize,
        old_group: &Group,
        old_dist: &Distribution,
        new_group: &Group,
        new_dist: &Distribution,
        accesses: &[ArrayAccess],
        narrays: usize,
    ) -> Rc<TransferSchedule> {
        let hit = self.key.as_ref().is_some_and(|(om, od, nm, nd)| {
            om == old_group.members()
                && od == old_dist
                && nm == new_group.members()
                && nd == new_dist
        });
        if !hit {
            self.sched = Some(Rc::new(TransferSchedule::build(
                me, old_group, old_dist, new_group, new_dist, accesses, narrays,
            )));
            self.key = Some((
                old_group.members().to_vec(),
                old_dist.clone(),
                new_group.members().to_vec(),
                new_dist.clone(),
            ));
        }
        Rc::clone(self.sched.as_ref().expect("schedule just ensured"))
    }

    /// Drops the cached entry (e.g. when the access list changes).
    pub fn invalidate(&mut self) {
        self.key = None;
        self.sched = None;
    }
}

/// Executes a redistribution. Must be called collectively by every member
/// of `old_group` ∪ `new_group` (a rank leaving the computation
/// participates as a sender; a rank joining participates as a receiver).
///
/// `accesses` is the flattened access list across all phases, used for
/// ghost-row acquisition. Builds a fresh [`TransferSchedule`]; use
/// [`execute_cached`] on paths that repeat distributions.
#[allow(clippy::too_many_arguments)]
pub fn execute<T: Transport>(
    t: &T,
    me: usize,
    old_group: &Group,
    old_dist: &Distribution,
    new_group: &Group,
    new_dist: &Distribution,
    accesses: &[ArrayAccess],
    arrays: &mut [&mut dyn RedistArray],
) -> RedistOutcome {
    let sched = TransferSchedule::build(
        me,
        old_group,
        old_dist,
        new_group,
        new_dist,
        accesses,
        arrays.len(),
    );
    execute_with(t, me, &sched, old_group, new_group, arrays)
}

/// Like [`execute`], but reuses `cache` so repeated redistributions over
/// unchanged groups and distributions skip schedule construction.
#[allow(clippy::too_many_arguments)]
pub fn execute_cached<T: Transport>(
    t: &T,
    me: usize,
    cache: &mut ScheduleCache,
    old_group: &Group,
    old_dist: &Distribution,
    new_group: &Group,
    new_dist: &Distribution,
    accesses: &[ArrayAccess],
    arrays: &mut [&mut dyn RedistArray],
) -> RedistOutcome {
    let sched = cache.schedule(
        me,
        old_group,
        old_dist,
        new_group,
        new_dist,
        accesses,
        arrays.len(),
    );
    execute_with(t, me, &sched, old_group, new_group, arrays)
}

/// Executes a redistribution from a prebuilt schedule. The schedule must
/// have been built for this `me` and the same group/distribution pair on
/// every participant (SPMD discipline: matching sends and receives are
/// derived from the same shared state).
pub fn execute_with<T: Transport>(
    t: &T,
    me: usize,
    sched: &TransferSchedule,
    old_group: &Group,
    new_group: &Group,
    arrays: &mut [&mut dyn RedistArray],
) -> RedistOutcome {
    let t0 = t.wtime();
    let traced = obs::enabled();
    if traced {
        obs::span_begin("redist", "redistribute", t.now_ns());
    }
    assert_eq!(
        sched.keep.len(),
        arrays.len(),
        "schedule was built for a different array count"
    );

    let mut rows_moved = 0usize;
    let mut bytes_sent = 0u64;

    // ---- Phase A: ownership moves -------------------------------------
    if traced {
        obs::span_begin("redist", "exchange", t.now_ns());
    }
    for (ai, arr) in arrays.iter_mut().enumerate() {
        let tag = TAG_MOVE + ai as u64;
        if traced {
            obs::span_begin("redist", "pack", t.now_ns());
        }
        for (dst, mv) in &sched.move_sends {
            let payload = arr.pack_rows(mv, true);
            rows_moved += mv.len();
            bytes_sent += payload.len() as u64;
            t.send_bytes(*dst, tag, payload);
        }
        if traced {
            obs::span_end(t.now_ns());
            obs::span_begin("redist", "unpack", t.now_ns());
        }
        for (src, mv) in &sched.move_recvs {
            let payload = t.recv_bytes(*src, tag);
            rows_moved += mv.len();
            arr.unpack_rows(mv, &payload);
        }
        if traced {
            obs::span_end(t.now_ns());
        }
    }
    if traced {
        obs::span_end(t.now_ns());
        obs::span_begin("redist", "ghost_exchange", t.now_ns());
    }

    // ---- Phase B: ghost acquisition ------------------------------------
    // Sources are the *new* owners, who now hold every row.
    for (ai, arr) in arrays.iter_mut().enumerate() {
        let tag = TAG_GHOST + ai as u64;
        for (dst, from_me) in &sched.ghost_sends[ai] {
            let payload = arr.pack_rows(from_me, false);
            bytes_sent += payload.len() as u64;
            t.send_bytes(*dst, tag, payload);
        }
        for (src, from_src) in &sched.ghost_recvs[ai] {
            let payload = t.recv_bytes(*src, tag);
            arr.unpack_rows(from_src, &payload);
        }
    }

    // ---- Phase C: release stale storage --------------------------------
    if traced {
        obs::span_end(t.now_ns());
        obs::span_begin("redist", "release", t.now_ns());
    }
    for (ai, arr) in arrays.iter_mut().enumerate() {
        let stale = arr.present_rows().diff(&sched.keep[ai]);
        arr.drop_rows(&stale);
    }
    if traced {
        obs::span_end(t.now_ns());
    }

    // Close with a barrier over everyone involved so the measured time
    // covers the full collective operation.
    let mut members: Vec<usize> = old_group
        .members()
        .iter()
        .chain(new_group.members())
        .copied()
        .collect();
    members.sort_unstable();
    members.dedup();
    let all = Group::new(members, me);
    t.barrier(&all);

    if traced {
        obs::count("redist.rows_moved", rows_moved as u64);
        obs::count("redist.bytes_sent", bytes_sent);
        obs::span_end_args(
            t.now_ns(),
            vec![
                ("rows_moved", Json::UInt(rows_moved as u64)),
                ("bytes_sent", Json::UInt(bytes_sent)),
            ],
        );
    }
    RedistOutcome {
        seconds: t.wtime() - t0,
        rows_moved,
        bytes_sent,
    }
}

/// Executes the *recovery* redistribution after a confirmed node death.
///
/// Semantics are those of [`execute`] over `old_group → new_group`, except
/// that `dead` (a member of `old_group`, absent from `new_group`) no longer
/// exists: `holder` — the buddy that materialized `dead`'s checkpointed
/// rows locally ([`crate::checkpoint::BuddyCheckpoint::materialize_mirror`])
/// — stands in for it. Every survivor of `old_group` ∪ `new_group` must
/// call this collectively; callers must have rolled their own rows back to
/// the same checkpoint first, so row contents match the distributions.
///
/// Protocol deltas vs. a plain redistribution:
/// - the holder executes `dead`'s Phase A sends by proxy from the
///   materialized mirror, *after* its own sends per array (senders and
///   receivers agree on that order, which keeps the shared-FIFO
///   `(holder, tag)` channel unambiguous);
/// - proxy legs aimed at the holder itself are skipped on both sides —
///   those rows are already local from the mirror;
/// - receivers take their `src == dead` entry last, from `holder`;
/// - the closing barrier spans `old_group` ∪ `new_group` *minus* `dead`.
///
/// `rows_moved`/`bytes_sent` count actual transfers only (skipped
/// self-legs are not transfers; the runtime reports restored rows
/// separately via `NodeRecovered`).
#[allow(clippy::too_many_arguments)]
pub fn execute_recovery<T: Transport>(
    t: &T,
    me: usize,
    old_group: &Group,
    old_dist: &Distribution,
    new_group: &Group,
    new_dist: &Distribution,
    accesses: &[ArrayAccess],
    arrays: &mut [&mut dyn RedistArray],
    dead: usize,
    holder: usize,
) -> RedistOutcome {
    assert_ne!(me, dead, "the dead rank cannot participate in recovery");
    assert_ne!(holder, dead, "the buddy holder must be a survivor");
    assert!(
        old_group.rel_of(dead).is_some() && new_group.rel_of(dead).is_none(),
        "dead rank must leave the group in recovery"
    );

    let t0 = t.wtime();
    let traced = obs::enabled();
    if traced {
        obs::span_begin("redist", "recovery", t.now_ns());
    }

    let narrays = arrays.len();
    let sched = TransferSchedule::build(
        me, old_group, old_dist, new_group, new_dist, accesses, narrays,
    );
    // The dead rank's schedule, built from the same shared state: only
    // Phase A sends survive (it owns nothing in `new_dist`), and the
    // holder executes them from the materialized mirror.
    let proxy = (me == holder).then(|| {
        TransferSchedule::build(
            dead, old_group, old_dist, new_group, new_dist, accesses, narrays,
        )
    });

    let mut rows_moved = 0usize;
    let mut bytes_sent = 0u64;

    // ---- Phase A: ownership moves, with the holder standing in --------
    for (ai, arr) in arrays.iter_mut().enumerate() {
        let tag = TAG_MOVE + ai as u64;
        for (dst, mv) in &sched.move_sends {
            let payload = arr.pack_rows(mv, true);
            rows_moved += mv.len();
            bytes_sent += payload.len() as u64;
            t.send_bytes(*dst, tag, payload);
        }
        if let Some(p) = &proxy {
            for (dst, mv) in &p.move_sends {
                if *dst == me {
                    // Self-leg: the mirror already holds these rows.
                    continue;
                }
                let payload = arr.pack_rows(mv, true);
                rows_moved += mv.len();
                bytes_sent += payload.len() as u64;
                t.send_bytes(*dst, tag, payload);
            }
        }
        for (src, mv) in sched.move_recvs.iter().filter(|(s, _)| *s != dead) {
            let payload = t.recv_bytes(*src, tag);
            rows_moved += mv.len();
            arr.unpack_rows(mv, &payload);
        }
        if let Some((_, mv)) = sched.move_recvs.iter().find(|(s, _)| *s == dead) {
            if me != holder {
                let payload = t.recv_bytes(holder, tag);
                rows_moved += mv.len();
                arr.unpack_rows(mv, &payload);
            }
            // me == holder: the rows never left local storage.
        }
    }

    // ---- Phase B: ghost acquisition (survivors only by construction) --
    for (ai, arr) in arrays.iter_mut().enumerate() {
        let tag = TAG_GHOST + ai as u64;
        for (dst, from_me) in &sched.ghost_sends[ai] {
            let payload = arr.pack_rows(from_me, false);
            bytes_sent += payload.len() as u64;
            t.send_bytes(*dst, tag, payload);
        }
        for (src, from_src) in &sched.ghost_recvs[ai] {
            let payload = t.recv_bytes(*src, tag);
            arr.unpack_rows(from_src, &payload);
        }
    }

    // ---- Phase C: release stale storage (drops any mirror surplus) ----
    for (ai, arr) in arrays.iter_mut().enumerate() {
        let stale = arr.present_rows().diff(&sched.keep[ai]);
        arr.drop_rows(&stale);
    }

    let mut members: Vec<usize> = old_group
        .members()
        .iter()
        .chain(new_group.members())
        .copied()
        .filter(|&r| r != dead)
        .collect();
    members.sort_unstable();
    members.dedup();
    let all = Group::new(members, me);
    t.barrier(&all);

    if traced {
        obs::count("redist.rows_moved", rows_moved as u64);
        obs::count("redist.bytes_sent", bytes_sent);
        obs::span_end_args(
            t.now_ns(),
            vec![
                ("dead", Json::UInt(dead as u64)),
                ("holder", Json::UInt(holder as u64)),
                ("rows_moved", Json::UInt(rows_moved as u64)),
                ("bytes_sent", Json::UInt(bytes_sent)),
            ],
        );
    }
    RedistOutcome {
        seconds: t.wtime() - t0,
        rows_moved,
        bytes_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::drsd::Drsd;
    use crate::sparse::SparseMatrix;
    use dynmpi_comm::run_threads;

    fn read_halo(array: usize) -> ArrayAccess {
        ArrayAccess {
            array,
            mode: AccessMode::Read,
            drsd: Drsd::with_halo(1),
        }
    }

    #[test]
    fn ghost_needs_halo() {
        let d = Distribution::block_from_counts(&[4, 4, 4]);
        let acc = [read_halo(0)];
        // Middle node needs one row on each side.
        assert_eq!(
            ghost_needs(&d, 1, 0, &acc, 12).iter().collect::<Vec<_>>(),
            vec![3, 8]
        );
        // Edge nodes clamp.
        assert_eq!(
            ghost_needs(&d, 0, 0, &acc, 12).iter().collect::<Vec<_>>(),
            vec![4]
        );
        assert_eq!(
            ghost_needs(&d, 2, 0, &acc, 12).iter().collect::<Vec<_>>(),
            vec![7]
        );
    }

    #[test]
    fn ghost_needs_ignores_writes_and_other_arrays() {
        let d = Distribution::block_from_counts(&[4, 4]);
        let acc = [
            ArrayAccess {
                array: 0,
                mode: AccessMode::Write,
                drsd: Drsd::with_halo(2),
            },
            read_halo(1),
        ];
        assert!(ghost_needs(&d, 0, 0, &acc, 8).is_empty());
        assert!(!ghost_needs(&d, 0, 1, &acc, 8).is_empty());
    }

    #[test]
    fn ghost_needs_empty_owner() {
        let d = Distribution::block_from_counts(&[8, 0]);
        let acc = [read_halo(0)];
        assert!(ghost_needs(&d, 1, 0, &acc, 8).is_empty());
    }

    /// The schedule must match a brute-force reconstruction of the
    /// original all-pairs computation, for random block layouts.
    #[test]
    fn schedule_matches_bruteforce_all_pairs() {
        dynmpi_testkit::check("redist-schedule-oracle", |rng| {
            let n = rng.range_usize(1, 7);
            let nrows = rng.range_usize(n, 64);
            let halo = rng.range_i64(0, 4);
            let counts = |rng: &mut dynmpi_testkit::Rng| {
                let mut c = vec![0usize; n];
                for _ in 0..nrows {
                    c[rng.range_usize(0, n)] += 1;
                }
                c
            };
            let old = Distribution::block_from_counts(&counts(rng));
            let new = Distribution::block_from_counts(&counts(rng));
            let acc = [ArrayAccess {
                array: 0,
                mode: AccessMode::Read,
                drsd: Drsd::with_halo(halo),
            }];
            let g = Group::new((0..n).collect(), 0);

            for me in 0..n {
                let sched = TransferSchedule::build(me, &g, &old, &g, &new, &acc, 1);

                // Oracle: the unpruned loops of the original implementation.
                let my_old = old.rows_of(me);
                let my_new = new.rows_of(me);
                let mut move_sends = Vec::new();
                let mut move_recvs = Vec::new();
                let mut ghost_sends = Vec::new();
                for other in 0..n {
                    if other == me {
                        continue;
                    }
                    let snd = my_old.intersect(&new.rows_of(other));
                    if !snd.is_empty() {
                        move_sends.push((other, snd));
                    }
                    let rcv = my_new.intersect(&old.rows_of(other));
                    if !rcv.is_empty() {
                        move_recvs.push((other, rcv));
                    }
                    let from_me = ghost_needs(&new, other, 0, &acc, nrows).intersect(&my_new);
                    if !from_me.is_empty() {
                        ghost_sends.push((other, from_me));
                    }
                }
                let need = ghost_needs(&new, me, 0, &acc, nrows);
                let mut ghost_recvs = Vec::new();
                for other in 0..n {
                    if other == me {
                        continue;
                    }
                    let from_src = need.intersect(&new.rows_of(other));
                    if !from_src.is_empty() {
                        ghost_recvs.push((other, from_src));
                    }
                }
                assert_eq!(sched.move_sends, move_sends, "sends of {me}");
                assert_eq!(sched.move_recvs, move_recvs, "recvs of {me}");
                assert_eq!(sched.ghost_sends, vec![ghost_sends], "ghost sends of {me}");
                assert_eq!(sched.ghost_recvs, vec![ghost_recvs], "ghost recvs of {me}");
                assert_eq!(sched.keep, vec![my_new.union(&need)], "keep of {me}");
            }
        });
    }

    /// The acceptance-criterion test: schedule construction must not
    /// evaluate `ghost_needs` for pairs whose row sets cannot intersect.
    /// With a halo-1 stencil over blocks, only a node's two neighbors
    /// (plus its own need) intersect it — far from the n² sweep.
    #[test]
    fn schedule_build_skips_nonintersecting_pairs() {
        let n = 16;
        let d = Distribution::block_even(160, n);
        let acc = [read_halo(0)];
        let g = Group::new((0..n).collect(), 0);
        let rec = obs::Recorder::new();
        let _guard = rec.install(0);
        let evals = obs::counter_handle(GHOST_NEEDS_EVALS).unwrap();
        let before = evals.get();
        let _ = TransferSchedule::build(7, &g, &d, &g, &d, &acc, 1);
        // Rank 7's rows intersect only the envelopes of ranks 6 and 8,
        // plus one evaluation for its own needs: exactly 3, not 16.
        assert_eq!(
            evals.get() - before,
            3,
            "ghost_needs evaluations during build"
        );
    }

    /// Full end-to-end redistribution over the thread transport: values
    /// must land on the right nodes and ghosts must be fresh.
    #[test]
    fn redistribute_dense_same_group() {
        let nrows = 12;
        let out = run_threads(3, move |t| {
            let me = t.rank();
            let g = Group::world(me, 3);
            let old = Distribution::block_from_counts(&[4, 4, 4]);
            let new = Distribution::block_from_counts(&[2, 6, 4]);
            let acc = [read_halo(0)];

            let mut m = DenseMatrix::<f64>::new(nrows, 2);
            let mine = old.rows_of(me);
            let ghosts = ghost_needs(&old, me, 0, &acc, nrows);
            m.fill_rows(&mine.union(&ghosts), |i, j| (i * 10 + j) as f64);

            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            let oc = execute(t, me, &g, &old, &g, &new, &acc, &mut arrays);
            assert!(oc.seconds >= 0.0);

            // Every owned + ghost row must be present with correct values.
            let mine_new = new.rows_of(me);
            let ghosts_new = ghost_needs(&new, me, 0, &acc, nrows);
            for i in mine_new.union(&ghosts_new).iter() {
                assert_eq!(m.row(i), &[(i * 10) as f64, (i * 10 + 1) as f64], "row {i}");
            }
            // Stale rows must be gone.
            assert_eq!(m.present_rows(), mine_new.union(&ghosts_new));
            m.present_rows().len()
        });
        assert!(out.iter().sum::<usize>() >= 12);
    }

    #[test]
    fn redistribute_with_node_leaving() {
        // 3 nodes → node 2 dropped; its rows must land on the survivors.
        let nrows = 9;
        let out = run_threads(3, move |t| {
            let me = t.rank();
            let old_g = Group::world(me, 3);
            let new_g = Group::new(vec![0, 1], me);
            let old = Distribution::block_from_counts(&[3, 3, 3]);
            let new = Distribution::block_from_counts(&[5, 4]);
            let acc = [read_halo(0)];

            let mut m = DenseMatrix::<f64>::new(nrows, 1);
            let mine = old.rows_of(me);
            let ghosts = ghost_needs(&old, me, 0, &acc, nrows);
            m.fill_rows(&mine.union(&ghosts), |i, _| i as f64);

            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            execute(t, me, &old_g, &old, &new_g, &new, &acc, &mut arrays);

            if me == 2 {
                assert!(
                    m.present_rows().is_empty(),
                    "dropped node must hold nothing"
                );
                0
            } else {
                let mine_new = new.rows_of(me);
                for i in mine_new.iter() {
                    assert_eq!(m.row(i)[0], i as f64);
                }
                mine_new.len()
            }
        });
        assert_eq!(out[0] + out[1], 9);
    }

    #[test]
    fn redistribute_with_node_joining() {
        // 2 active nodes; node 2 rejoins.
        let nrows = 8;
        run_threads(3, move |t| {
            let me = t.rank();
            let old_g = Group::new(vec![0, 1], me);
            let new_g = Group::world(me, 3);
            let old = Distribution::block_from_counts(&[4, 4]);
            let new = Distribution::block_from_counts(&[3, 3, 2]);
            let acc = [read_halo(0)];

            let mut m = DenseMatrix::<f64>::new(nrows, 1);
            if me != 2 {
                let mine = old.rows_of(me);
                let ghosts = ghost_needs(&old, me, 0, &acc, nrows);
                m.fill_rows(&mine.union(&ghosts), |i, _| (100 + i) as f64);
            }

            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            execute(t, me, &old_g, &old, &new_g, &new, &acc, &mut arrays);

            let mine_new = new.rows_of(me);
            for i in mine_new.iter() {
                assert_eq!(m.row(i)[0], (100 + i) as f64, "rank {me} row {i}");
            }
        });
    }

    #[test]
    fn redistribute_sparse_and_dense_together() {
        let nrows = 10;
        run_threads(2, move |t| {
            let me = t.rank();
            let g = Group::world(me, 2);
            let old = Distribution::block_from_counts(&[5, 5]);
            let new = Distribution::block_from_counts(&[2, 8]);
            let acc = [read_halo(0)]; // halo on the dense array only

            let mut d = DenseMatrix::<f64>::new(nrows, 3);
            let mut s = SparseMatrix::<f64>::new(nrows, 100);
            let mine = old.rows_of(me);
            let ghosts = ghost_needs(&old, me, 0, &acc, nrows);
            d.fill_rows(&mine.union(&ghosts), |i, j| (i + j) as f64);
            for i in mine.iter() {
                s.set(i, (i * 7 % 100) as u32, i as f64);
                if i % 2 == 0 {
                    s.set(i, 99, -1.0);
                }
            }

            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut d, &mut s];
            execute(t, me, &g, &old, &g, &new, &acc, &mut arrays);

            for i in new.rows_of(me).iter() {
                assert_eq!(d.row(i)[0], i as f64);
                assert_eq!(s.row(i).get((i * 7 % 100) as u32), Some(&(i as f64)));
                assert_eq!(s.row(i).get(99).is_some(), i % 2 == 0);
            }
        });
    }

    #[test]
    fn identity_redistribution_moves_nothing() {
        run_threads(2, |t| {
            let me = t.rank();
            let g = Group::world(me, 2);
            let d = Distribution::block_from_counts(&[4, 4]);
            let mut m = DenseMatrix::<f64>::new(8, 1);
            m.fill_rows(&d.rows_of(me), |i, _| i as f64);
            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            let oc = execute(t, me, &g, &d, &g, &d, &[], &mut arrays);
            assert_eq!(oc.rows_moved, 0);
            assert_eq!(oc.bytes_sent, 0);
        });
    }

    /// Acceptance-criterion test: caching must span consecutive `execute`
    /// calls with an unchanged distribution — the second call performs the
    /// same exchange without rebuilding the schedule (no new
    /// `ghost_needs` evaluations, no new schedule builds).
    #[test]
    fn cached_execution_spans_repeated_calls() {
        let nrows = 12;
        let evals = run_threads(2, move |t| {
            let me = t.rank();
            let rec = obs::Recorder::new();
            let _guard = rec.install(me);
            let g = Group::world(me, 2);
            let d = Distribution::block_from_counts(&[6, 6]);
            let acc = [read_halo(0)];

            let mut m = DenseMatrix::<f64>::new(nrows, 1);
            let mine = d.rows_of(me);
            let ghosts = ghost_needs(&d, me, 0, &acc, nrows);
            m.fill_rows(&mine.union(&ghosts), |i, _| i as f64);

            let mut cache = ScheduleCache::new();
            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            let needs_ctr = obs::counter_handle(GHOST_NEEDS_EVALS).unwrap();
            let builds_ctr = obs::counter_handle(SCHEDULE_BUILDS).unwrap();
            let snapshot = || (needs_ctr.get(), builds_ctr.get());
            let baseline = snapshot();
            let first = execute_cached(t, me, &mut cache, &g, &d, &g, &d, &acc, &mut arrays);
            let after_first = snapshot();
            let second = execute_cached(t, me, &mut cache, &g, &d, &g, &d, &acc, &mut arrays);
            let after_second = snapshot();

            // Both calls exchanged the same ghosts...
            assert_eq!(first.bytes_sent, second.bytes_sent);
            assert!(first.bytes_sent > 0, "halo exchange must send bytes");
            // ...but only the first built a schedule / evaluated needs.
            assert!(after_first.0 > baseline.0);
            assert_eq!(after_first.1 - baseline.1, 1, "one schedule build");
            (
                after_second.0 - after_first.0,
                after_second.1 - after_first.1,
            )
        });
        for (needs_evals, builds) in evals {
            assert_eq!(needs_evals, 0, "second call must not re-evaluate needs");
            assert_eq!(builds, 0, "second call must hit the schedule cache");
        }
    }

    /// Recovery with the holder forwarding all of the dead node's rows to
    /// another survivor (no self-legs): values, ghosts, and storage must
    /// come out exactly as if the dead node had participated.
    #[test]
    fn recovery_proxies_dead_rows_through_holder() {
        let nrows = 9;
        let out = run_threads(3, move |t| {
            let me = t.rank();
            if me == 2 {
                return 0; // crashed: does not participate
            }
            let dead = 2;
            let holder = 0; // ring buddy of rel 2 in {0,1,2} is rel 0
            let old_g = Group::world(me, 3);
            let new_g = Group::new(vec![0, 1], me);
            let old = Distribution::block_from_counts(&[3, 3, 3]);
            let new = Distribution::block_from_counts(&[5, 4]);
            let acc = [read_halo(0)];

            let mut m = DenseMatrix::<f64>::new(nrows, 1);
            // Post-rollback state: own snapshot rows, stale ghosts; the
            // holder additionally carries the dead node's mirror.
            m.fill_rows(&old.rows_of(me), |i, _| i as f64);
            let ghosts = ghost_needs(&old, me, 0, &acc, nrows);
            m.fill_rows(&ghosts, |_, _| f64::NAN); // stale, must be refreshed
            if me == holder {
                m.fill_rows(&old.rows_of(dead), |i, _| i as f64);
            }

            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            let oc = execute_recovery(
                t,
                me,
                &old_g,
                &old,
                &new_g,
                &new,
                &acc,
                &mut arrays,
                dead,
                holder,
            );
            assert!(oc.seconds >= 0.0);

            let mine_new = new.rows_of(me);
            let ghosts_new = ghost_needs(&new, me, 0, &acc, nrows);
            for i in mine_new.union(&ghosts_new).iter() {
                assert_eq!(m.row(i)[0], i as f64, "rank {me} row {i}");
            }
            // Mirror surplus and stale rows must be gone.
            assert_eq!(m.present_rows(), mine_new.union(&ghosts_new));
            mine_new.len()
        });
        assert_eq!(out[0] + out[1], 9);
    }

    /// Recovery where part of the dead node's rows land on the holder
    /// itself (self-legs): those rows must stay local — no transfer — and
    /// still end up correct.
    #[test]
    fn recovery_keeps_self_leg_rows_on_holder() {
        let nrows = 9;
        run_threads(3, move |t| {
            let me = t.rank();
            if me == 1 {
                return; // crashed
            }
            let dead = 1;
            let holder = 2; // ring buddy of rel 1 in {0,1,2} is rel 2
            let old_g = Group::world(me, 3);
            let new_g = Group::new(vec![0, 2], me);
            let old = Distribution::block_from_counts(&[3, 3, 3]);
            // New: rel 0 (world 0) rows 0..4, rel 1 (world 2) rows 4..9 —
            // dead's old rows 3..6 split: row 3 → world 0, rows 4,5 →
            // holder (self-legs).
            let new = Distribution::block_from_counts(&[4, 5]);
            let acc = [read_halo(0)];

            let mut m = DenseMatrix::<f64>::new(nrows, 1);
            m.fill_rows(&old.rows_of(if me == 2 { 2 } else { 0 }), |i, _| {
                (10 * i) as f64
            });
            if me == holder {
                m.fill_rows(&old.rows_of(dead), |i, _| (10 * i) as f64);
            }

            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            let oc = execute_recovery(
                t,
                me,
                &old_g,
                &old,
                &new_g,
                &new,
                &acc,
                &mut arrays,
                dead,
                holder,
            );

            let rel = if me == 2 { 1 } else { 0 };
            let mine_new = new.rows_of(rel);
            let ghosts_new = ghost_needs(&new, rel, 0, &acc, nrows);
            for i in mine_new.union(&ghosts_new).iter() {
                assert_eq!(m.row(i)[0], (10 * i) as f64, "rank {me} row {i}");
            }
            assert_eq!(m.present_rows(), mine_new.union(&ghosts_new));
            if me == holder {
                // Rows 4,5 arrived via the mirror, not the network: the
                // only ownership transfers the holder makes are its own
                // send of nothing plus the proxy send of row 3 and the
                // move of its received rows.
                assert!(oc.rows_moved < 3, "self-legs must not count as moves");
            }
        });
    }

    /// The holder's shared-FIFO channel: when a receiver takes both the
    /// holder's own rows and the dead node's proxied rows, processing the
    /// dead entry last must line up with the holder's own-then-proxy send
    /// order. Dead in the middle forces both legs onto the same receiver.
    #[test]
    fn recovery_orders_own_and_proxy_legs_on_shared_channel() {
        let nrows = 12;
        run_threads(3, move |t| {
            let me = t.rank();
            if me == 1 {
                return;
            }
            let dead = 1;
            let holder = 2;
            let old_g = Group::world(me, 3);
            let new_g = Group::new(vec![0, 2], me);
            let old = Distribution::block_from_counts(&[4, 4, 4]);
            // World 0 takes everything: it receives holder's own rows AND
            // dead's proxied rows from the same (holder, tag) channel.
            let new = Distribution::block_from_counts(&[12, 0]);

            let mut m = DenseMatrix::<f64>::new(nrows, 1);
            let my_old_rel = if me == 2 { 2 } else { 0 };
            m.fill_rows(&old.rows_of(my_old_rel), |i, _| (i * i) as f64);
            if me == holder {
                m.fill_rows(&old.rows_of(dead), |i, _| (i * i) as f64);
            }

            let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
            execute_recovery(
                t,
                me,
                &old_g,
                &old,
                &new_g,
                &new,
                &[],
                &mut arrays,
                dead,
                holder,
            );

            if me == 0 {
                for i in 0..nrows {
                    assert_eq!(m.row(i)[0], (i * i) as f64, "row {i}");
                }
            } else {
                assert!(m.present_rows().is_empty());
            }
        });
    }
}
