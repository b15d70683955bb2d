//! Flat per-process mailbox.
//!
//! Every undelivered envelope of a rank sits in one `Vec`. A receive takes
//! the matching envelope with the least `(arrival, src, seq)` — the
//! engine's canonical message order — and removes it with `swap_remove`.
//! Seqs are per sender, so that key is unique per envelope: the match, and
//! with it every virtual time, does not depend on the order of the vector,
//! which therefore need not keep one.
//!
//! A scan is linear in the depth, and the workloads keep it shallow: at
//! most 80 pending envelopes (the root of `sor_drop32`'s 32-rank control
//! gathers), 28 on `adapt8`, 26 on `crash8`. Against a per-`(tag, src)`
//! queue index with a per-tag set of fronts, the scan saves the three to
//! four heap allocations the index made and freed per message. The index
//! still wins on a deep one-shot fan-in, which scans drain in quadratic
//! time: 64 senders all pending at once take 1.1× as long with the scan,
//! 1024 senders 1.9×.

use crate::engine::{Envelope, RecvWait};
use crate::time::SimTime;

#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Undelivered envelopes, in no particular order. Capacity is kept, so
    /// a rank whose depth has peaked files and takes messages without
    /// allocating.
    pending: Vec<Envelope>,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Undelivered envelopes (the "mailbox depth" of the deadlock
    /// diagnosis; also used by the oracle tests).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Files an envelope.
    pub fn push(&mut self, env: Envelope) {
        self.pending.push(env);
    }

    /// Index of the earliest `(arrival, src, seq)` envelope matching
    /// `wait`, if any.
    fn best(&self, wait: RecvWait) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .filter(|(_, e)| wait.matches(e))
            .min_by_key(|(_, e)| (e.arrival, e.src, e.seq))
            .map(|(i, _)| i)
    }

    /// Removes and returns the earliest matching envelope if its arrival is
    /// at or before `now`.
    pub fn pop_ready(&mut self, wait: RecvWait, now: SimTime) -> Option<Envelope> {
        let i = self.best(wait)?;
        (self.pending[i].arrival <= now).then(|| self.pending.swap_remove(i))
    }

    /// Earliest arrival (possibly in the future) of any matching envelope
    /// already in flight.
    pub fn pending_arrival(&self, wait: RecvWait) -> Option<SimTime> {
        self.best(wait).map(|i| self.pending[i].arrival)
    }

    /// Is a matching envelope deliverable at `now`?
    pub fn has_ready(&self, wait: RecvWait, now: SimTime) -> bool {
        self.pending_arrival(wait).is_some_and(|a| a <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Payload;
    use crate::time::SimDur;

    fn env(src: usize, tag: u64, arrival_ms: u64, seq: u64) -> Envelope {
        Envelope {
            src,
            tag,
            sent: SimTime::ZERO,
            arrival: SimTime::from_millis(arrival_ms),
            seq,
            rx_queued: SimDur::ZERO,
            payload: Payload::Owned(vec![seq as u8]),
        }
    }

    #[test]
    fn fifo_by_arrival_then_seq() {
        let mut mb = Mailbox::new();
        mb.push(env(1, 0, 5, 2));
        mb.push(env(1, 0, 5, 1));
        mb.push(env(1, 0, 1, 3));
        let wait = RecvWait {
            src: Some(1),
            tag: 0,
        };
        let now = SimTime::from_millis(10);
        assert_eq!(mb.pop_ready(wait, now).unwrap().seq, 3); // earliest arrival
        assert_eq!(mb.pop_ready(wait, now).unwrap().seq, 1); // seq breaks tie
        assert_eq!(mb.pop_ready(wait, now).unwrap().seq, 2);
        assert_eq!(mb.pop_ready(wait, now), None);
        assert_eq!(mb.len(), 0);
    }

    #[test]
    fn pending_reports_future_arrivals() {
        let mut mb = Mailbox::new();
        mb.push(env(1, 0, 8, 1));
        let wait = RecvWait {
            src: Some(1),
            tag: 0,
        };
        assert_eq!(mb.pop_ready(wait, SimTime::from_millis(3)), None);
        assert!(!mb.has_ready(wait, SimTime::from_millis(3)));
        assert_eq!(mb.pending_arrival(wait), Some(SimTime::from_millis(8)));
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn any_source_takes_global_earliest() {
        let mut mb = Mailbox::new();
        mb.push(env(4, 7, 9, 1));
        mb.push(env(2, 7, 3, 2));
        mb.push(env(9, 8, 1, 3)); // other tag: never matches
        let wait = RecvWait { src: None, tag: 7 };
        let now = SimTime::from_millis(20);
        let e = mb.pop_ready(wait, now).unwrap();
        assert_eq!((e.src, e.seq), (2, 2));
        let e = mb.pop_ready(wait, now).unwrap();
        assert_eq!((e.src, e.seq), (4, 1));
        assert_eq!(mb.pop_ready(wait, now), None);
        assert_eq!(mb.len(), 1); // tag-8 envelope untouched
    }

    #[test]
    fn any_source_tie_breaks_on_src_then_seq() {
        // Seqs are per-sender, so distinct sources can collide on
        // (arrival, seq); the lower source wins — the canonical
        // (arrival, src, seq) order.
        let mut mb = Mailbox::new();
        mb.push(env(5, 3, 4, 1));
        mb.push(env(2, 3, 4, 9));
        let wait = RecvWait { src: None, tag: 3 };
        let now = SimTime::from_millis(10);
        let e = mb.pop_ready(wait, now).unwrap();
        assert_eq!((e.src, e.seq), (2, 9));
        let e = mb.pop_ready(wait, now).unwrap();
        assert_eq!((e.src, e.seq), (5, 1));
    }

    #[test]
    fn tags_demultiplex() {
        let mut mb = Mailbox::new();
        mb.push(env(1, 10, 1, 1));
        mb.push(env(1, 20, 1, 2));
        let now = SimTime::from_millis(5);
        let w20 = RecvWait {
            src: Some(1),
            tag: 20,
        };
        assert_eq!(mb.pop_ready(w20, now).unwrap().seq, 2);
        let w10 = RecvWait {
            src: Some(1),
            tag: 10,
        };
        assert_eq!(mb.pop_ready(w10, now).unwrap().seq, 1);
    }

    #[test]
    fn out_of_order_push_keeps_queue_sorted() {
        // The box keeps push order; delivery follows the key regardless.
        let mut mb = Mailbox::new();
        mb.push(env(1, 0, 10, 5));
        mb.push(env(1, 0, 2, 6)); // earlier arrival pushed later
        let wait = RecvWait {
            src: Some(1),
            tag: 0,
        };
        assert_eq!(mb.pending_arrival(wait), Some(SimTime::from_millis(2)));
        assert_eq!(mb.pop_ready(wait, SimTime::from_millis(3)).unwrap().seq, 6);
        assert_eq!(mb.pop_ready(wait, SimTime::from_millis(3)), None); // 10ms still in flight
    }
}

/// Randomized agreement with an oracle of a different shape: the flat box
/// scans for a minimum and takes it out of an unordered vector; the oracle
/// sorts every pending envelope by `(arrival, src, seq)` and takes the first
/// match, so neither can hide a wrong key or a lost envelope from the other.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::engine::Payload;
    use crate::time::SimDur;
    use dynmpi_testkit::check_n;

    /// Pending envelopes, sorted before every lookup.
    struct SortedBox(Vec<Envelope>);

    impl SortedBox {
        /// Position of the first match in canonical order.
        fn first_match(&mut self, wait: RecvWait) -> Option<usize> {
            self.0.sort_by_key(|e| (e.arrival, e.src, e.seq));
            self.0.iter().position(|e| wait.matches(e))
        }

        fn pop_ready(&mut self, wait: RecvWait, now: SimTime) -> Option<Envelope> {
            let i = self.first_match(wait)?;
            (self.0[i].arrival <= now).then(|| self.0.remove(i))
        }

        fn pending_arrival(&mut self, wait: RecvWait) -> Option<SimTime> {
            let i = self.first_match(wait)?;
            Some(self.0[i].arrival)
        }
    }

    #[test]
    fn flat_box_matches_sorted_oracle() {
        check_n("mailbox_vs_oracle", 300, |rng| {
            let mut mb = Mailbox::new();
            let mut oracle = SortedBox(Vec::new());
            let nsrc = rng.range_usize(1, 6);
            let ntag = rng.range_u64(1, 4);
            // Per-sender program-order sequence numbers, like the engine's.
            let mut seqs = vec![0u64; nsrc];
            for _ in 0..rng.range_u64(0, 60) {
                let op = rng.range_u64(0, 4);
                if op == 0 || mb.len() == 0 {
                    let src = rng.range_usize(0, nsrc);
                    seqs[src] += 1;
                    let e = Envelope {
                        src,
                        tag: rng.range_u64(0, ntag),
                        sent: SimTime::ZERO,
                        // Coarse arrivals so (arrival, src, seq) ties happen.
                        arrival: SimTime::from_millis(rng.range_u64(0, 8)),
                        seq: seqs[src],
                        rx_queued: SimDur::ZERO,
                        payload: Payload::Owned(vec![]),
                    };
                    mb.push(e.clone());
                    oracle.0.push(e);
                } else {
                    let wait = RecvWait {
                        src: rng.chance(0.5).then(|| rng.range_usize(0, nsrc)),
                        tag: rng.range_u64(0, ntag),
                    };
                    let now = SimTime::from_millis(rng.range_u64(0, 10));
                    if op == 1 {
                        assert_eq!(mb.pending_arrival(wait), oracle.pending_arrival(wait));
                    } else {
                        let a = mb.pop_ready(wait, now);
                        let b = oracle.pop_ready(wait, now);
                        assert_eq!(
                            a.as_ref().map(|e| (e.src, e.tag, e.arrival, e.seq)),
                            b.as_ref().map(|e| (e.src, e.tag, e.arrival, e.seq)),
                        );
                    }
                }
                assert_eq!(mb.len(), oracle.0.len());
            }
        });
    }
}
