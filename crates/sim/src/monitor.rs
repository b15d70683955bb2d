//! Load monitors: the `dmpi_ps` daemon model and the faulty `vmstat` model.
//!
//! §4.2 of the paper: a per-node daemon samples process states once per
//! second. `vmstat`-style sampling counts only processes on the run queue at
//! the sample instant, so an application blocked at a receive is *missed*.
//! The paper's `dmpi_ps` counts running-or-ready processes **and always
//! includes the monitored application**, which is the reliable signal the
//! Dyn-MPI runtime needs. Both are modeled here so the difference can be
//! measured (ablation bench).

use std::collections::VecDeque;

use crate::time::SimTime;
use crate::timeline::NcpTimeline;

/// History of intervals during which a node's application was blocked
/// (waiting for a message), used to evaluate `vmstat` samples lazily.
///
/// Only the window its readers can still sample is kept:
/// [`Self::forget_until`] drops the intervals that end by an instant no
/// later sample precedes, so a run of any length holds about a second of
/// history. The dropped intervals' total length is kept for
/// [`Self::blocked_fraction`].
#[derive(Clone, Debug, Default)]
pub struct BlockHistory {
    /// Closed intervals `[start, end)`, non-overlapping, sorted.
    intervals: VecDeque<(SimTime, SimTime)>,
    /// Total length of the intervals [`Self::forget_until`] dropped, in ns.
    forgotten_ns: u64,
    /// The latest horizon passed to [`Self::forget_until`].
    horizon: SimTime,
    /// Start of the currently open blocked interval, if the application is
    /// blocked right now.
    open: Option<SimTime>,
}

impl BlockHistory {
    pub fn new() -> Self {
        BlockHistory::default()
    }

    /// Records that the application blocked at `t`.
    pub fn block(&mut self, t: SimTime) {
        debug_assert!(self.open.is_none(), "nested block");
        self.open = Some(t);
    }

    /// Records that the application resumed at `t`.
    pub fn unblock(&mut self, t: SimTime) {
        let start = self.open.take().expect("unblock without block");
        debug_assert!(t >= start);
        if t > start {
            self.intervals.push_back((start, t));
        }
    }

    /// Drops the intervals that end at or before `horizon`. Afterwards
    /// [`Self::blocked_at`] is exact only at instants from `horizon` on,
    /// which is where every later sample falls when `horizon` is the
    /// earliest sample instant a reader can still take.
    pub fn forget_until(&mut self, horizon: SimTime) {
        self.horizon = self.horizon.max(horizon);
        while let Some(&(s, e)) = self.intervals.front() {
            if e > horizon {
                break;
            }
            self.forgotten_ns += (e - s).0;
            self.intervals.pop_front();
        }
    }

    /// Was the application blocked at instant `t`?
    pub fn blocked_at(&self, t: SimTime) -> bool {
        debug_assert!(t >= self.horizon, "{t:?} precedes the kept history");
        if let Some(start) = self.open {
            if t >= start {
                return true;
            }
        }
        let i = self.intervals.partition_point(|&(s, _)| s <= t);
        i > 0 && t < self.intervals[i - 1].1
    }

    /// Fraction of `[from, to)` spent blocked (diagnostics). Forgotten
    /// intervals count whole, which is exact when `[from, to)` covers
    /// them, as the run report's `[0, finish)` does.
    pub fn blocked_fraction(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        debug_assert!(
            self.forgotten_ns == 0 || (from == SimTime::ZERO && to >= self.horizon),
            "forgotten intervals cannot be clipped"
        );
        let mut blocked = self.forgotten_ns;
        for &(s, e) in &self.intervals {
            let lo = s.max(from);
            let hi = e.min(to);
            if hi > lo {
                blocked += (hi - lo).0;
            }
        }
        if let Some(s) = self.open {
            let lo = s.max(from);
            if to > lo {
                blocked += (to - lo).0;
            }
        }
        blocked as f64 / (to - from).0 as f64
    }
}

/// The publication instant a reader at virtual time `t` observes for a
/// monitor whose reports take `lag` to propagate: the start of the second
/// containing `t - lag` (saturating at 0). A rank reading its own node's
/// monitor passes `lag = 0`; a rank reading a *remote* node's monitor
/// passes one network latency, because the daemon's report has to cross
/// the wire.
pub fn monitor_sample_time(t: SimTime, lag: crate::time::SimDur) -> SimTime {
    SimTime(t.0.saturating_sub(lag.0)).floor_to_second()
}

/// A `dmpi_ps` daemon reading: running-or-ready process count on the node,
/// always including the monitored application. The daemon publishes once per
/// virtual second, so readers see the state as of the containing second's
/// start.
pub fn dmpi_ps_reading(timeline: &NcpTimeline, t: SimTime) -> u32 {
    dmpi_ps_reading_at(timeline, t.floor_to_second())
}

/// [`dmpi_ps_reading`] at an explicit (already-floored) sample instant,
/// e.g. one from [`monitor_sample_time`].
pub fn dmpi_ps_reading_at(timeline: &NcpTimeline, sample: SimTime) -> u32 {
    timeline.at(sample) + 1
}

/// A `vmstat`-style reading: processes on the run queue at the sample
/// instant. The application is counted only if it was runnable then —
/// blocked-at-receive applications disappear, which is exactly the
/// unreliability §4.2 reports.
pub fn vmstat_reading(timeline: &NcpTimeline, blocks: &BlockHistory, t: SimTime) -> u32 {
    vmstat_reading_at(timeline, blocks, t.floor_to_second())
}

/// [`vmstat_reading`] at an explicit (already-floored) sample instant.
pub fn vmstat_reading_at(timeline: &NcpTimeline, blocks: &BlockHistory, sample: SimTime) -> u32 {
    let app = u32::from(!blocks.blocked_at(sample));
    timeline.at(sample) + app
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn block_history_intervals() {
        let mut h = BlockHistory::new();
        h.block(ms(100));
        h.unblock(ms(200));
        h.block(ms(300));
        h.unblock(ms(450));
        assert!(!h.blocked_at(ms(50)));
        assert!(h.blocked_at(ms(100)));
        assert!(h.blocked_at(ms(199)));
        assert!(!h.blocked_at(ms(200)));
        assert!(h.blocked_at(ms(400)));
        assert!(!h.blocked_at(ms(450)));
    }

    #[test]
    fn open_interval_counts_as_blocked() {
        let mut h = BlockHistory::new();
        h.block(ms(500));
        assert!(h.blocked_at(ms(500)));
        assert!(h.blocked_at(ms(10_000)));
        assert!(!h.blocked_at(ms(499)));
    }

    #[test]
    fn zero_length_block_is_dropped() {
        let mut h = BlockHistory::new();
        h.block(ms(10));
        h.unblock(ms(10));
        assert!(!h.blocked_at(ms(10)));
    }

    #[test]
    fn blocked_fraction() {
        let mut h = BlockHistory::new();
        h.block(ms(0));
        h.unblock(ms(250));
        h.block(ms(500));
        h.unblock(ms(750));
        let f = h.blocked_fraction(SimTime::ZERO, ms(1000));
        assert!((f - 0.5).abs() < 1e-9, "{f}");
        assert_eq!(h.blocked_fraction(ms(10), ms(10)), 0.0);
    }

    /// A history that forgets up to each horizon answers every query from
    /// that horizon on as the full history does, and ends with the same
    /// blocked fraction.
    #[test]
    fn forgetting_changes_no_later_answer() {
        dynmpi_testkit::check("forgetting_changes_no_later_answer", |rng| {
            let (mut full, mut kept) = (BlockHistory::new(), BlockHistory::new());
            let mut now = SimTime::ZERO;
            for _ in 0..rng.range_usize(1, 200) {
                now = SimTime(now.0 + rng.range_u64(0, 2_000_000_000));
                full.block(now);
                kept.block(now);
                now = SimTime(now.0 + rng.range_u64(0, 800_000_000));
                full.unblock(now);
                kept.unblock(now);
                let lag = crate::time::SimDur(rng.range_u64(0, 200_000_000));
                kept.forget_until(monitor_sample_time(now, lag));
                for _ in 0..4 {
                    let t = SimTime(rng.range_u64(kept.horizon.0, now.0 + 3_000_000_000));
                    assert_eq!(kept.blocked_at(t), full.blocked_at(t), "at {t:?}");
                }
            }
            assert!(kept.intervals.len() <= full.intervals.len());
            let end = SimTime(now.0 + rng.range_u64(0, 1_000_000_000));
            assert_eq!(
                kept.blocked_fraction(SimTime::ZERO, end).to_bits(),
                full.blocked_fraction(SimTime::ZERO, end).to_bits()
            );
        });
    }

    #[test]
    fn sample_time_lags_then_floors() {
        use crate::time::SimDur;
        let lag = SimDur::from_micros(100);
        // 5.000050s - 100µs = 4.99995s → floors to 4s, not 5s: a reader
        // right after a second boundary still sees the previous second.
        assert_eq!(
            monitor_sample_time(SimTime::from_micros(5_000_050), lag),
            SimTime::from_secs(4)
        );
        assert_eq!(
            monitor_sample_time(SimTime::from_millis(5_500), lag),
            SimTime::from_secs(5)
        );
        // Saturates at the epoch instead of underflowing.
        assert_eq!(
            monitor_sample_time(SimTime::from_micros(50), lag),
            SimTime::ZERO
        );
        assert_eq!(
            monitor_sample_time(SimTime::from_secs(3), SimDur::ZERO),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn dmpi_ps_always_counts_the_app() {
        let mut tl = NcpTimeline::new();
        tl.set(SimTime::from_secs(5), 2);
        assert_eq!(dmpi_ps_reading(&tl, SimTime::from_secs(1)), 1);
        assert_eq!(dmpi_ps_reading(&tl, SimTime::from_secs(5)), 3);
        // Sub-second times read the sample from the second's start.
        assert_eq!(dmpi_ps_reading(&tl, SimTime::from_millis(5_900)), 3);
        assert_eq!(dmpi_ps_reading(&tl, SimTime::from_millis(4_999)), 1);
    }

    #[test]
    fn vmstat_misses_blocked_app() {
        let mut tl = NcpTimeline::new();
        tl.set(SimTime::from_secs(2), 1);
        let mut h = BlockHistory::new();
        // App blocked across the t=3s sample.
        h.block(SimTime::from_millis(2_900));
        h.unblock(SimTime::from_millis(3_100));
        assert_eq!(vmstat_reading(&tl, &h, SimTime::from_secs(3)), 1); // missed!
        assert_eq!(dmpi_ps_reading(&tl, SimTime::from_secs(3)), 2); // correct
                                                                    // When the app is runnable at the sample, both agree.
        assert_eq!(vmstat_reading(&tl, &h, SimTime::from_secs(4)), 2);
    }
}
