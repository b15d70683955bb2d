//! Per-node CPU scheduling model.
//!
//! The OS shares the CPU round-robin between the application rank and the
//! node's competing processes using fixed time slices (the *quantum*). We
//! model the schedule as a repeating cycle of `(ncp + 1)` slices in which
//! the application owns one slice. Consequences the paper depends on:
//!
//! * long computations receive a `1 / (ncp + 1)` share of the CPU — the
//!   *relative power* of a loaded node;
//! * an application that becomes runnable (e.g. a message arrived) outside
//!   its slice waits up to `ncp * quantum` before running — communication
//!   costs CPU time on loaded nodes (§4.3);
//! * a short iteration that straddles a slice boundary observes a wallclock
//!   spike of `ncp * quantum` even though it used little CPU — the
//!   `gethrtime` measurement noise that the grace period filters (§4.2).

use dynmpi_obs::SchedState;

use crate::params::{NodeSpec, OsParams};
use crate::time::{SimDur, SimTime};
use crate::timeline::NcpTimeline;

/// Deterministic 64-bit mix (splitmix64 finalizer) for per-round slot
/// rotation.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An integer-exact scheduling step: the unit the engine's stepped and
/// fast-forward CPU paths share. Work is expressed in nanoseconds of CPU
/// the application still needs ([`CpuSched::work_to_ns`]); `cpu` is how
/// much of it this step delivered and `slices` how many distinct scheduler
/// slices were (partially) run — one per step on the stepped path, many on
/// an aggregated fast-forward stretch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub end: SimTime,
    pub cpu: SimDur,
    pub slices: u64,
    pub completed: bool,
}

impl Step {
    /// Scheduler-span name for tracing: pure run, pure wait, or an
    /// aggregated stretch mixing both.
    pub fn kind(&self, start: SimTime) -> SchedState {
        if self.cpu == SimDur::ZERO {
            SchedState::Wait
        } else if self.end.since(start) == self.cpu {
            SchedState::Run
        } else {
            SchedState::RunWait
        }
    }
}

/// Slice-cycle scheduler state for a single node.
#[derive(Clone, Debug)]
pub struct CpuSched {
    spec: NodeSpec,
    os: OsParams,
    /// Added to the clock before computing the slice phase; re-anchored on
    /// run-queue re-entry (wake-up boost) deterministically.
    phase_offset: u64,
    /// Count of run-queue re-entries (drives deterministic drift).
    reentries: u32,
    /// Per-node salt for the slot-rotation hash.
    salt: u64,
}

impl CpuSched {
    pub fn new(spec: NodeSpec, os: OsParams) -> Self {
        assert!(os.quantum > SimDur::ZERO, "quantum must be positive");
        CpuSched {
            spec,
            os,
            phase_offset: 0,
            reentries: 0,
            salt: 0,
        }
    }

    /// Node work rate (units/second) when dedicated.
    pub fn speed(&self) -> f64 {
        self.spec.speed
    }

    /// Scheduler parameters in force.
    pub fn os(&self) -> &OsParams {
        &self.os
    }

    /// Sets the per-node hash salt (so different nodes' schedules are
    /// decorrelated).
    pub fn set_salt(&mut self, salt: u64) {
        self.salt = salt;
    }

    /// The application slice's start position within round `round` of a
    /// `(ncp+1)·q` schedule: rotated pseudo-randomly per round, so
    /// slice-boundary positions vary from cycle to cycle the way real
    /// scheduler arrivals do (exactly one slice per round either way).
    fn slot_start(&self, round: u64, cycle: u64, q: u64) -> u64 {
        if cycle == q {
            return 0; // ncp == 0 never reaches here, but be safe
        }
        mix(round ^ self.salt) % (cycle - q + 1)
    }

    /// Records that the application re-entered the run queue after
    /// blocking at time `t` with `ncp` competitors. The scheduler's
    /// wake-up boost moves its next slice up: instead of waiting out the
    /// competitors' slices, it waits only `(1 − wakeup_boost)` of that
    /// delay (plus a small deterministic drift that keeps the schedule
    /// from locking step with the application's cycle).
    pub fn note_reentry(&mut self, t: SimTime, ncp: u32) {
        self.reentries = self.reentries.wrapping_add(1);
        let drift = (u64::from(self.reentries) * self.os.reentry_drift.0) % 300_000;
        if ncp == 0 {
            self.phase_offset = self.phase_offset.wrapping_add(drift);
            return;
        }
        let q = self.os.quantum.0;
        let cycle = (u64::from(ncp) + 1) * q;
        let shifted = t.0.wrapping_add(self.phase_offset);
        let round = shifted / cycle;
        let pos = shifted % cycle;
        let start = self.slot_start(round, cycle, q);
        let boosted = if pos >= start && pos < start + q {
            // Woken inside our slice: the scheduler recharges the
            // timeslice (wake-up preemption), so a fresh quantum starts
            // now — otherwise a wake landing near the slice end would
            // systematically straddle into a full competitor round.
            drift
        } else {
            let full_wait = if pos < start {
                start - pos
            } else {
                cycle - pos + start
            };
            (full_wait as f64 * (1.0 - self.os.wakeup_boost)).round() as u64 + drift
        };
        // Re-anchor the schedule so our slice begins at t + boosted: put
        // t + boosted at this round's rotated slot start.
        let target = t.0.wrapping_add(boosted);
        let off0 = (cycle - (target % cycle)) % cycle;
        let r = (target.wrapping_add(off0)) / cycle;
        self.phase_offset = off0.wrapping_add(self.slot_start(r, cycle, q));
    }

    /// Converts work units into whole nanoseconds of dedicated CPU,
    /// rounding up (`ceil(work / speed · 1e9)`), computed once so the
    /// stepped and fast-forward paths share one quantization and stay
    /// bit-identical.
    pub fn work_to_ns(&self, work: f64) -> SimDur {
        if work <= 0.0 {
            return SimDur::ZERO;
        }
        SimDur((work / self.spec.speed * 1e9).ceil() as u64)
    }

    /// Integer-exact single scheduling step: the *stepped* reference path
    /// (`Cluster::with_stepped(true)`, a test oracle). `need` is the remaining dedicated-CPU
    /// nanoseconds from [`Self::work_to_ns`]; `ncp` holds until
    /// `next_change`. Advances by at most one slice or one wait: inside
    /// the application's slice it runs until the slice ends, the load
    /// changes or the work completes; otherwise the competing processes
    /// own the CPU and it waits for the next slice (this round's if still
    /// ahead, else the next round's) or the load change. No float
    /// accumulation, so [`Self::fast_forward`] can match it bit for bit.
    pub fn step_ns(
        &self,
        t: SimTime,
        ncp: u32,
        next_change: Option<SimTime>,
        need: SimDur,
    ) -> Step {
        if need == SimDur::ZERO {
            return Step {
                end: t,
                cpu: SimDur::ZERO,
                slices: 0,
                completed: true,
            };
        }
        let change_bound = next_change.unwrap_or(SimTime::MAX);
        debug_assert!(change_bound > t, "ncp change not strictly in the future");
        if ncp == 0 {
            return self.finish_by(t, need, SimTime::MAX, change_bound);
        }
        let q = self.os.quantum.0;
        let cycle = (u64::from(ncp) + 1) * q;
        let shifted = t.0.wrapping_add(self.phase_offset);
        let round = shifted / cycle;
        let pos = shifted % cycle;
        let start = self.slot_start(round, cycle, q);
        if pos >= start && pos < start + q {
            let slice_end = SimTime(t.0 + (start + q - pos));
            return self.finish_by(t, need, slice_end, change_bound);
        }
        let next_start_shifted = if pos < start {
            round * cycle + start
        } else {
            (round + 1) * cycle + self.slot_start(round + 1, cycle, q)
        };
        let wait_end = SimTime(t.0 + (next_start_shifted - shifted));
        Step {
            end: wait_end.min(change_bound),
            cpu: SimDur::ZERO,
            slices: 0,
            completed: false,
        }
    }

    /// Runs from `t` for up to `need` ns of CPU, bounded by `bound` and
    /// `change_bound`.
    fn finish_by(&self, t: SimTime, need: SimDur, bound: SimTime, change_bound: SimTime) -> Step {
        let finish = SimTime(t.0.saturating_add(need.0));
        let end = finish.min(bound).min(change_bound);
        Step {
            end,
            cpu: end.since(t),
            slices: 1,
            completed: end == finish,
        }
    }

    /// Closed-form multi-round fast-forward: delivers as much of `need`
    /// as fits before `next_change` in O(1), no matter how many scheduler
    /// rounds that spans.
    ///
    /// The invariant that makes this sound: the rotated `slot_start`
    /// moves the application slice *within* its `(ncp+1)·q` round but never
    /// changes the one-slice-per-round total, so `r` whole rounds always
    /// deliver exactly `r·q` ns of CPU. Only the partial first slice and the
    /// final slice need their rotated positions evaluated; everything in
    /// between is arithmetic. Returns exactly what iterating
    /// [`Self::step_ns`] to the same point would have accumulated.
    pub fn fast_forward(
        &self,
        t: SimTime,
        ncp: u32,
        next_change: Option<SimTime>,
        need: SimDur,
    ) -> Step {
        if need == SimDur::ZERO || ncp == 0 {
            return self.step_ns(t, ncp, next_change, need);
        }
        let q = self.os.quantum.0;
        let cycle = (u64::from(ncp) + 1) * q;
        let Some(shifted) = t.0.checked_add(self.phase_offset) else {
            // The shifted clock wrapped (unreachable for realistic offsets,
            // which stay below two cycles): defer to the wrapping stepper.
            return self.step_ns(t, ncp, next_change, need);
        };
        let round = shifted / cycle;
        let pos = shifted % cycle;
        let start = self.slot_start(round, cycle, q);
        // First (possibly partial) slice, plus the round holding the next
        // untouched full slice.
        let (consumed, first_slices, next_round) = if pos >= start && pos < start + q {
            let avail = start + q - pos;
            if need.0 <= avail {
                // Completes inside the current slice: a single step.
                return self.step_ns(t, ncp, next_change, need);
            }
            (avail, 1u64, round + 1)
        } else if pos < start {
            (0, 0, round)
        } else {
            (0, 0, round + 1)
        };
        let rem = need.0 - consumed;
        let k = rem.div_ceil(q); // further slices needed, >= 1
        let rf = next_round + k - 1; // round of the final (partial) slice
        let last = rem - (k - 1) * q; // ns run in the final slice, 1..=q
        let shifted128 = shifted as u128;
        let cycle128 = cycle as u128;
        let finish_shifted =
            rf as u128 * cycle128 + self.slot_start(rf, cycle, q) as u128 + last as u128;
        let change_shifted = next_change.map(|c| c.0 as u128 + self.phase_offset as u128);
        if change_shifted.is_none_or(|cs| finish_shifted <= cs) {
            return Step {
                end: SimTime(t.0 + (finish_shifted - shifted128) as u64),
                cpu: need,
                slices: first_slices + k,
                completed: true,
            };
        }
        // The load changes before the work finishes. Aggregate only the
        // whole rounds that provably end before the change — every round
        // `r` with `(r+1)·cycle <= change_shifted` runs its full `q` slice
        // regardless of rotation — and let the caller re-plan from there.
        let cs = change_shifted.unwrap();
        let r_safe = match (cs / cycle128).checked_sub(1) {
            Some(r) if r >= next_round as u128 => r as u64,
            // No whole round fits before the change: single-step through
            // the boundary neighborhood.
            _ => return self.step_ns(t, ncp, next_change, need),
        };
        // finish_shifted > cs >= (r_safe+1)·cycle and slot+last <= cycle
        // together force r_safe < rf, so these rounds are all fully used.
        let full = r_safe + 1 - next_round;
        let end_shifted =
            r_safe as u128 * cycle128 + self.slot_start(r_safe, cycle, q) as u128 + q as u128;
        debug_assert!(end_shifted <= cs && end_shifted > shifted128);
        Step {
            end: SimTime(t.0 + (end_shifted - shifted128) as u64),
            cpu: SimDur(consumed + full * q),
            slices: first_slices + full,
            completed: false,
        }
    }

    /// Drives [`Self::fast_forward`] across as many load-script phases as
    /// the work spans and returns one aggregate [`Step`] — the whole
    /// compute stretch in a single call, so the engine pays one span and
    /// one event per `advance` instead of one per phase. The timeline must
    /// be immutable for the duration (it is: only the node's own rank
    /// mutates it, and that rank is the one computing).
    ///
    /// Always completes: each leg strictly advances `t` (a positive-work
    /// step never returns `end == t`), and the total is exactly what the
    /// per-phase loop accumulates.
    pub fn fast_forward_script(&self, t: SimTime, timeline: &NcpTimeline, need: SimDur) -> Step {
        let start = t;
        let mut t = t;
        let mut left = need;
        let mut cpu = SimDur::ZERO;
        let mut slices = 0u64;
        loop {
            let ncp = timeline.at(t);
            let next = timeline.next_change_after(t);
            let st = self.fast_forward(t, ncp, next, left);
            cpu += st.cpu;
            left = left - st.cpu;
            slices += st.slices;
            debug_assert!(st.completed || st.end > t, "no progress in fast-forward");
            t = st.end;
            if st.completed {
                debug_assert_eq!(cpu, need);
                debug_assert!(t >= start);
                return Step {
                    end: t,
                    cpu,
                    slices,
                    completed: true,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> CpuSched {
        CpuSched::new(NodeSpec::with_speed(1e6), OsParams::default())
    }

    /// Drives `step_ns` in a loop the way the stepped engine does and
    /// returns the finish time plus accumulated CPU run time.
    fn drive(s: &CpuSched, start: SimTime, work: f64, ncp: u32) -> (SimTime, SimDur) {
        let (end, cpu, _, _) = drive_ns(s, start, s.work_to_ns(work), ncp, false);
        (end, cpu)
    }

    #[test]
    fn dedicated_runs_at_full_speed() {
        let s = sched();
        let (end, cpu) = drive(&s, SimTime::ZERO, 1e6, 0); // 1 second of work
        assert_eq!(end, SimTime::from_secs(1));
        assert_eq!(cpu, SimDur::from_secs(1));
    }

    #[test]
    fn one_competitor_halves_throughput() {
        let s = sched();
        // 1 s of CPU work, 1 CP, 10 ms quantum → alternating slices; total
        // wall time ≈ 2 s (within one trailing slice).
        let (end, cpu) = drive(&s, SimTime::ZERO, 1e6, 1);
        let wall = (end - SimTime::ZERO).as_secs_f64();
        assert!((wall - 2.0).abs() < 0.011, "wall = {wall}");
        assert!((cpu.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn three_competitors_quarter_throughput() {
        let s = sched();
        let (end, _) = drive(&s, SimTime::ZERO, 1e6, 3);
        let wall = (end - SimTime::ZERO).as_secs_f64();
        assert!((wall - 4.0).abs() < 0.031, "wall = {wall}");
    }

    #[test]
    fn short_work_after_wake_sees_no_slowdown() {
        // A boosted wake anchors the slice; a sub-quantum burst then runs
        // at (nearly) full speed despite 3 competitors.
        let mut s = sched();
        let t0 = SimTime::from_micros(12_345);
        s.note_reentry(t0, 3);
        let (end, cpu) = drive(&s, t0, 1_000.0, 3); // 1 ms of work
        let wall = (end - t0).as_secs_f64();
        assert!((cpu.as_secs_f64() - 0.001).abs() < 1e-6);
        // Wall = work + bounded wake latency (boost residual + drift).
        assert!(wall < 0.004, "boosted burst took {wall}");
    }

    #[test]
    fn continuous_compute_rows_show_spikes() {
        // Rows measured back-to-back during a long computation: most run
        // clean, but the ones straddling a slice boundary observe a
        // multi-quantum spike — the gethrtime noise of §4.2. The rotated
        // schedule moves the spikes around, so a min over repeats cleans
        // them.
        let s = sched();
        let row_work = 2_000.0; // 2 ms rows
        let mut t = SimTime::ZERO;
        let mut walls = Vec::new();
        for _ in 0..60 {
            let (end, _) = drive(&s, t, row_work, 1);
            walls.push((end - t).as_secs_f64());
            t = end;
        }
        let min = walls.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = walls.iter().cloned().fold(0.0, f64::max);
        assert!(
            (min - 0.002).abs() < 1e-4,
            "clean rows near true cost: {min}"
        );
        assert!(max > 0.010, "some rows must spike past a quantum: {max}");
    }

    #[test]
    fn wait_segments_end_at_a_slot() {
        // Wherever a waiting segment starts, it ends within one full
        // round and is followed by runnable time.
        let s = sched();
        let need = SimDur::from_secs(1_000);
        let mut saw_wait = false;
        for ms in 0..40u64 {
            let t = SimTime::from_millis(ms);
            let st = s.step_ns(t, 1, None, need);
            if st.cpu == SimDur::ZERO {
                saw_wait = true;
                assert!(st.end > t);
                assert!((st.end - t).as_secs_f64() <= 0.040);
                let next = s.step_ns(st.end, 1, None, need);
                assert!(next.cpu > SimDur::ZERO, "slot must follow the wait");
            }
        }
        assert!(saw_wait, "a 1-CP schedule must contain waits");
    }

    #[test]
    fn ncp_change_bounds_step() {
        let s = sched();
        let change = SimTime::from_millis(5);
        let st = s.step_ns(SimTime::ZERO, 0, Some(change), SimDur::from_secs(1));
        assert!(!st.completed);
        assert_eq!(st.end, change);
        assert_eq!(st.cpu, SimDur::from_millis(5));
    }

    #[test]
    fn reentry_boost_moves_slice_up() {
        let mut s = sched();
        // Wake at 25 ms with 3 CPs: strict RR would wait until t = 40 ms
        // (cycle end); with the default 0.9 boost the wait shrinks to
        // ~1.5 ms + drift.
        let t = SimTime::from_millis(25);
        s.note_reentry(t, 3);
        let st = s.step_ns(t, 3, None, SimDur::from_secs(1_000));
        let delay = if st.cpu > SimDur::ZERO {
            0.0
        } else {
            (st.end - t).as_secs_f64()
        };
        assert!(delay < 0.004, "boosted wake delay {delay}");
    }

    #[test]
    fn reentry_soon_after_reentry_runs_quickly() {
        // A wake shortly after a previous wake (still inside the fresh
        // slice) pays at most the small drift.
        let mut s = sched();
        let t = SimTime::from_millis(2);
        s.note_reentry(t, 2);
        let t2 = t + SimDur::from_millis(1);
        s.note_reentry(t2, 2);
        let (end, _) = drive(&s, t2, 500.0, 2);
        assert!((end - t2).as_secs_f64() < 0.002, "{:?}", end - t2);
    }

    #[test]
    fn unloaded_reentry_only_drifts() {
        let mut s = sched();
        s.note_reentry(SimTime::from_millis(7), 0);
        let st = s.step_ns(SimTime::from_millis(7), 0, None, SimDur::from_millis(1));
        assert!(st.completed);
        assert_eq!(st.end, SimTime::from_millis(8));
    }

    #[test]
    fn zero_work_completes_immediately() {
        let s = sched();
        let st = s.step_ns(SimTime::from_millis(3), 2, None, s.work_to_ns(0.0));
        assert!(st.completed);
        assert_eq!(st.end, SimTime::from_millis(3));
    }

    /// Drives the integer API to completion and returns (finish, cpu,
    /// slices, steps taken).
    fn drive_ns(
        s: &CpuSched,
        start: SimTime,
        need: SimDur,
        ncp: u32,
        fast: bool,
    ) -> (SimTime, SimDur, u64, u64) {
        let mut t = start;
        let mut left = need;
        let mut cpu = SimDur::ZERO;
        let mut slices = 0;
        let mut steps = 0;
        for _ in 0..10_000_000u64 {
            let st = if fast {
                s.fast_forward(t, ncp, None, left)
            } else {
                s.step_ns(t, ncp, None, left)
            };
            cpu += st.cpu;
            left = left - st.cpu;
            slices += st.slices;
            t = st.end;
            steps += 1;
            if st.completed {
                return (t, cpu, slices, steps);
            }
        }
        panic!("integer step loop did not terminate");
    }

    #[test]
    fn fast_forward_matches_stepped_unbounded() {
        for (salt, ncp, need_ms) in [(0u64, 1u32, 250u64), (7, 3, 1_000), (99, 2, 95)] {
            let mut s = sched();
            s.set_salt(salt);
            let need = SimDur::from_millis(need_ms);
            let stepped = drive_ns(&s, SimTime::from_micros(123), need, ncp, false);
            let fast = drive_ns(&s, SimTime::from_micros(123), need, ncp, true);
            assert_eq!(stepped.0, fast.0, "finish time");
            assert_eq!(stepped.1, fast.1, "cpu time");
            assert_eq!(stepped.2, fast.2, "slice count");
            assert!(fast.3 == 1, "unbounded fast-forward must be O(1)");
            assert!(stepped.3 > 10, "stepped path must actually step");
        }
    }

    #[test]
    fn fast_forward_respects_change_bound() {
        // A change point mid-run: the fast path must stop at the last
        // whole-round slice end before it and agree with stepping.
        let s = sched();
        let need = SimDur::from_millis(500);
        let change = Some(SimTime::from_millis(333));
        let mut t = SimTime::ZERO;
        let mut left = need;
        let mut cpu_stepped = SimDur::ZERO;
        while t < SimTime::from_millis(333) {
            let st = s.step_ns(t, 3, change, left);
            cpu_stepped += st.cpu;
            left = left - st.cpu;
            t = st.end;
            if st.completed {
                break;
            }
        }
        let ff = s.fast_forward(SimTime::ZERO, 3, change, need);
        assert!(!ff.completed);
        assert!(ff.end <= SimTime::from_millis(333));
        // Re-step from the aggregate end to the change point: totals agree.
        let mut t2 = ff.end;
        let mut left2 = need - ff.cpu;
        let mut cpu2 = ff.cpu;
        while t2 < SimTime::from_millis(333) {
            let st = s.step_ns(t2, 3, change, left2);
            cpu2 += st.cpu;
            left2 = left2 - st.cpu;
            t2 = st.end;
            if st.completed {
                break;
            }
        }
        assert_eq!(t2, t);
        assert_eq!(cpu2, cpu_stepped);
    }

    #[test]
    fn step_ns_finishes_dedicated_work_in_one_step() {
        let s = sched();
        let st = s.step_ns(SimTime::from_secs(1), 0, None, s.work_to_ns(2e6));
        assert!(st.completed);
        assert_eq!(st.end, SimTime::from_secs(3));
        assert_eq!((st.cpu, st.slices), (SimDur::from_secs(2), 1));
    }

    #[test]
    fn work_to_ns_rounds_up_and_zero_stays_zero() {
        let s = sched(); // speed 1e6 units/s = 1e-3 units/ns
        assert_eq!(s.work_to_ns(0.0), SimDur::ZERO);
        assert_eq!(s.work_to_ns(1.0), SimDur::from_micros(1));
        assert_eq!(s.work_to_ns(1e-9), SimDur(1)); // rounds up, not to 0
    }

    #[test]
    fn fast_forward_script_matches_stepped_across_phases() {
        // A multi-phase load script: the one-call aggregate must land on
        // the same finish time, CPU total, and slice count as stepping
        // slice by slice through every phase.
        let mut tl = NcpTimeline::new();
        tl.set(SimTime::from_millis(40), 2);
        tl.set(SimTime::from_millis(333), 1);
        tl.set(SimTime::from_millis(700), 3);
        tl.set(SimTime::from_secs(2), 0);
        let mut s = sched();
        s.set_salt(42);
        let start = SimTime::from_micros(777);
        let need = SimDur::from_millis(900);
        let mut t = start;
        let mut left = need;
        let mut cpu = SimDur::ZERO;
        let mut slices = 0u64;
        loop {
            let st = s.step_ns(t, tl.at(t), tl.next_change_after(t), left);
            cpu += st.cpu;
            left = left - st.cpu;
            slices += st.slices;
            t = st.end;
            if st.completed {
                break;
            }
        }
        let agg = s.fast_forward_script(start, &tl, need);
        assert!(agg.completed);
        assert_eq!(agg.end, t, "finish time");
        assert_eq!(agg.cpu, cpu, "cpu total");
        assert_eq!(agg.slices, slices, "slice count");
    }

    #[test]
    fn long_run_share_matches_relative_power() {
        let s = sched();
        for ncp in 1..=4u32 {
            let (end, cpu) = drive(&s, SimTime::ZERO, 2e6, ncp);
            let wall = (end - SimTime::ZERO).as_secs_f64();
            let share = cpu.as_secs_f64() / wall;
            let expect = 1.0 / f64::from(ncp + 1);
            assert!(
                (share - expect).abs() < 0.01,
                "ncp={ncp}: share {share} vs {expect}"
            );
        }
    }
}
