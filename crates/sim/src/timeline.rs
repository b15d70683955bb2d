//! Piecewise-constant competing-process timelines.
//!
//! Each node carries a timeline of how many synthetic competing processes
//! (CPs) are runnable on it over virtual time. Pre-scripted changes are
//! seeded before the run; dynamic changes (e.g. "introduce a CP when this
//! node finishes its 10th phase cycle") insert entries at the current time,
//! which may precede pre-scripted changes still in the future.

use crate::time::SimTime;

/// Number of competing processes on one node over time.
///
/// Invariant: `changes` is sorted by time; the value before the first entry
/// is 0. Later entries at an equal time override earlier ones.
#[derive(Clone, Debug, Default)]
pub struct NcpTimeline {
    changes: Vec<(SimTime, u32)>,
}

impl NcpTimeline {
    /// An initially unloaded node.
    pub fn new() -> Self {
        NcpTimeline::default()
    }

    /// Records a change at `t`, keeping the entries in time order: the
    /// value holds from `t` until the next later entry (a cycle-triggered
    /// change fired before a pre-scripted one does not erase it). A change
    /// to the value already in effect at `t` is dropped; a second change
    /// at the same instant overrides the first.
    pub fn set(&mut self, t: SimTime, ncp: u32) {
        let i = self.changes.partition_point(|&(ct, _)| ct <= t);
        let in_effect = i.checked_sub(1).map(|j| self.changes[j]);
        match in_effect {
            Some((_, v)) if v == ncp => {} // no-op change; keep the timeline minimal
            None if ncp == 0 => {}         // implicit initial value
            Some((ct, _)) if ct == t => self.changes[i - 1].1 = ncp,
            _ => self.changes.insert(i, (t, ncp)),
        }
    }

    /// The competing-process count in effect at instant `t`.
    pub fn at(&self, t: SimTime) -> u32 {
        match self.changes.partition_point(|&(ct, _)| ct <= t) {
            0 => 0,
            i => self.changes[i - 1].1,
        }
    }

    /// The next instant strictly after `t` at which the count changes,
    /// if any change is already recorded.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let i = self.changes.partition_point(|&(ct, _)| ct <= t);
        self.changes.get(i).map(|&(ct, _)| ct)
    }

    /// All recorded change points (for reports and tests).
    pub fn changes(&self) -> &[(SimTime, u32)] {
        &self.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn empty_timeline_is_unloaded() {
        let tl = NcpTimeline::new();
        assert_eq!(tl.at(SimTime::ZERO), 0);
        assert_eq!(tl.at(s(100)), 0);
        assert_eq!(tl.next_change_after(SimTime::ZERO), None);
    }

    #[test]
    fn step_function_semantics() {
        let mut tl = NcpTimeline::new();
        tl.set(s(10), 1);
        tl.set(s(20), 3);
        tl.set(s(30), 0);
        assert_eq!(tl.at(s(9)), 0);
        assert_eq!(tl.at(s(10)), 1); // change takes effect at its instant
        assert_eq!(tl.at(s(19)), 1);
        assert_eq!(tl.at(s(20)), 3);
        assert_eq!(tl.at(s(29)), 3);
        assert_eq!(tl.at(s(30)), 0);
        assert_eq!(tl.at(s(1000)), 0);
    }

    #[test]
    fn next_change_lookup() {
        let mut tl = NcpTimeline::new();
        tl.set(s(10), 1);
        tl.set(s(20), 2);
        assert_eq!(tl.next_change_after(SimTime::ZERO), Some(s(10)));
        assert_eq!(tl.next_change_after(s(10)), Some(s(20)));
        assert_eq!(tl.next_change_after(s(20)), None);
    }

    #[test]
    fn same_instant_override_and_noop_dedup() {
        let mut tl = NcpTimeline::new();
        tl.set(s(5), 1);
        tl.set(s(5), 2);
        assert_eq!(tl.at(s(5)), 2);
        assert_eq!(tl.changes().len(), 1);
        tl.set(s(6), 2); // no-op
        assert_eq!(tl.changes().len(), 1);
        tl.set(SimTime::from_secs(7), 0);
        assert_eq!(tl.changes().len(), 2);
    }

    #[test]
    fn out_of_order_set_inserts_in_time_order() {
        // A time trigger seeded at 10 s, then a cycle trigger firing at 5 s:
        // the earlier value holds until the later entry takes over.
        let mut tl = NcpTimeline::new();
        tl.set(s(10), 1);
        tl.set(s(5), 2);
        assert_eq!(tl.changes(), &[(s(5), 2), (s(10), 1)]);
        assert_eq!(tl.at(s(4)), 0);
        assert_eq!(tl.at(s(5)), 2);
        assert_eq!(tl.at(s(9)), 2);
        assert_eq!(tl.at(s(10)), 1);
        assert_eq!(tl.next_change_after(s(5)), Some(s(10)));
        // Same-instant override and no-op elision work mid-timeline too.
        tl.set(s(5), 3);
        assert_eq!(tl.changes(), &[(s(5), 3), (s(10), 1)]);
        tl.set(s(7), 3);
        assert_eq!(tl.changes().len(), 2);
        tl.set(s(2), 0);
        assert_eq!(tl.changes().len(), 2);
    }

    #[test]
    fn leading_zero_is_implicit() {
        let mut tl = NcpTimeline::new();
        tl.set(SimTime::ZERO, 0);
        assert!(tl.changes().is_empty());
    }
}
