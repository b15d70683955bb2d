//! Calendar (bucketed) event queue.
//!
//! The engine's pending events are heavily clustered in time: within one
//! lookahead window every runnable rank's next event falls inside a band
//! about one network latency wide. A classic binary heap pays O(log n)
//! per operation with poor locality at 1024+ ranks; this calendar queue
//! buckets events into fixed-width "days" keyed by `time / width`, so a
//! pop is "first bucket, last element" and a push is a short ordered
//! insert into one small bucket.
//!
//! Buckets are kept sorted **descending** by the engine's total dispatch
//! order `(time, pid, seq)`, so the minimum element of the earliest day is
//! a `Vec::pop` — O(1) with no shifting. Day lookup is a `BTreeMap` so the
//! structure stays fully deterministic (no hashing, no wall-clock-driven
//! resizing) and sparse multi-second sleeps cost nothing.

use std::collections::BTreeMap;

use crate::engine::Event;

#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Bucket width in nanoseconds; tied to the network latency (the
    /// lookahead) by the caller so one window's events land in a handful
    /// of buckets.
    width: u64,
    /// `time.0 / width` → events sorted descending by `(time, pid, seq)`.
    /// Empty buckets are removed, so `days.first()` is always live.
    days: BTreeMap<u64, Vec<Event>>,
    len: usize,
}

impl EventQueue {
    pub fn new(width: u64) -> Self {
        EventQueue {
            width: width.max(1),
            days: BTreeMap::new(),
            len: 0,
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, ev: Event) {
        let day = ev.time.0 / self.width;
        let bucket = self.days.entry(day).or_default();
        let key = (ev.time, ev.pid, ev.seq);
        // Descending order: find the first element <= key and insert in
        // front of it. Appends (the common case: monotone pushes land at
        // the front of the descending bucket... i.e. position 0) and
        // clustered buckets stay short, so the memmove is cheap.
        let at = bucket.partition_point(|e| (e.time, e.pid, e.seq) > key);
        bucket.insert(at, ev);
        self.len += 1;
    }

    /// The earliest event by `(time, pid, seq)`.
    pub fn peek(&self) -> Option<&Event> {
        self.days.first_key_value().and_then(|(_, b)| b.last())
    }

    pub fn pop(&mut self) -> Option<Event> {
        let mut entry = self.days.first_entry()?;
        let ev = entry.get_mut().pop().expect("empty bucket left in queue");
        if entry.get().is_empty() {
            entry.remove();
        }
        self.len -= 1;
        Some(ev)
    }

    #[cfg(test)]
    pub fn clear(&mut self) {
        self.days.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventKind;
    use crate::time::SimTime;
    use std::collections::BinaryHeap;

    fn ev(time_ns: u64, pid: usize, seq: u64) -> Event {
        Event {
            time: SimTime(time_ns),
            pid,
            seq,
            kind: EventKind::Wake { epoch: 0 },
        }
    }

    #[test]
    fn pops_in_time_pid_seq_order() {
        let mut q = EventQueue::new(100_000);
        q.push(ev(5, 1, 3));
        q.push(ev(5, 0, 4));
        q.push(ev(5, 0, 2));
        q.push(ev(1, 7, 9));
        q.push(ev(1_000_000_000, 0, 1)); // far-future day
        let order: Vec<(u64, usize, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, e.pid, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, 7, 9),
                (5, 0, 2),
                (5, 0, 4),
                (5, 1, 3),
                (1_000_000_000, 0, 1)
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new(25_000);
        q.push(ev(30_000, 2, 1));
        q.push(ev(10, 5, 2));
        assert_eq!(q.peek().map(|e| e.pid), Some(5));
        assert_eq!(q.pop().map(|e| e.pid), Some(5));
        assert_eq!(q.peek().map(|e| e.pid), Some(2));
    }

    /// The calendar queue must agree with a `BinaryHeap` oracle on the
    /// exact pop order under `(ts, rank, seq)` ties — the dispatch-order
    /// contract the engine (and through it the profiler's merged trace
    /// ordering) relies on.
    #[test]
    fn matches_binary_heap_oracle() {
        dynmpi_testkit::check_n("equeue_vs_heap", 300, |rng| {
            // Tiny widths and coarse times force same-day and cross-day
            // collisions, including exact (time) and (time, pid) ties.
            let width = rng.range_u64(1, 50_000);
            let mut q = EventQueue::new(width);
            let mut oracle: BinaryHeap<Event> = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..rng.range_u64(0, 200) {
                if rng.chance(0.6) || oracle.is_empty() {
                    seq += 1;
                    let e = ev(
                        rng.range_u64(0, 20) * rng.range_u64(1, 30_000),
                        rng.range_usize(0, 8),
                        seq,
                    );
                    q.push(e);
                    oracle.push(e);
                } else {
                    assert_eq!(q.peek().copied(), oracle.peek().copied());
                    assert_eq!(q.pop(), oracle.pop());
                }
                assert_eq!(q.len(), oracle.len());
            }
            while let Some(e) = oracle.pop() {
                assert_eq!(q.pop(), Some(e));
            }
            assert!(q.is_empty());
        });
    }
}
