//! Indexed per-process mailbox.
//!
//! The seed kept every undelivered envelope in one `Vec` and rescanned it
//! for each receive — O(backlog) per match, which the collective-heavy
//! traffic from the comm layer turns into a real cost. This index keeps one
//! FIFO queue per `(tag, src)` pair, each ordered by `(arrival, seq)`, plus
//! a per-tag set of queue-front keys so:
//!
//! * a directed receive looks at exactly one queue front;
//! * an any-source receive takes the *first* element of the tag's front
//!   set — O(log senders) even past 1024 ranks, where the seed's
//!   range-scan-over-fronts went linear in the sender count;
//! * the matching order — earliest `(arrival, src, seq)` wins — is the
//!   engine's canonical message order, pinned by the oracle property
//!   test.
//!
//! `BTreeMap`/`BTreeSet` (not hash maps) keep iteration order
//! deterministic, which the bit-reproducibility guarantee of the engine
//! depends on.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::engine::{Envelope, RecvWait};
use crate::time::SimTime;

#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// `(tag, src)` → envelopes ordered by `(arrival, seq)`. Keys are
    /// removed when their queue drains.
    queues: BTreeMap<(u64, usize), VecDeque<Envelope>>,
    /// `tag` → the `(arrival, src, seq)` key of every live queue's front
    /// envelope. The set minimum IS the any-source match for that tag.
    fronts: BTreeMap<u64, BTreeSet<(SimTime, usize, u64)>>,
    len: usize,
}

fn front_key(env: &Envelope) -> (SimTime, usize, u64) {
    (env.arrival, env.src, env.seq)
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Undelivered envelopes across all queues (the "mailbox depth" of
    /// the deadlock diagnosis; also used by the oracle tests).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Files an envelope. Per-pair arrivals are monotone for the network
    /// models we ship (per-NIC FIFO), so this is almost always a
    /// `push_back`; the ordered-insert fallback keeps the queue invariant
    /// under any delivery model.
    pub fn push(&mut self, env: Envelope) {
        let tag = env.tag;
        let q = self.queues.entry((tag, env.src)).or_default();
        let old_front = q.front().map(front_key);
        let key = (env.arrival, env.seq);
        match q.back() {
            Some(b) if (b.arrival, b.seq) > key => {
                let at = q.partition_point(|e| (e.arrival, e.seq) <= key);
                q.insert(at, env);
            }
            _ => q.push_back(env),
        }
        let new_front = front_key(q.front().expect("just pushed"));
        if old_front != Some(new_front) {
            let set = self.fronts.entry(tag).or_default();
            if let Some(old) = old_front {
                set.remove(&old);
            }
            set.insert(new_front);
        }
        self.len += 1;
    }

    /// The queue key holding the earliest `(arrival, src, seq)` match for
    /// `wait`, if any.
    fn best_key(&self, wait: RecvWait) -> Option<(u64, usize)> {
        match wait.src {
            Some(s) => {
                let k = (wait.tag, s);
                self.queues.contains_key(&k).then_some(k)
            }
            None => self
                .fronts
                .get(&wait.tag)
                .and_then(|set| set.first())
                .map(|&(_, src, _)| (wait.tag, src)),
        }
    }

    /// Removes and returns the earliest matching envelope whose arrival is
    /// at or before `now` — the seed's `find_ready` + `remove`, in one
    /// O(log n) step.
    pub fn pop_ready(&mut self, wait: RecvWait, now: SimTime) -> Option<Envelope> {
        let key = self.best_key(wait)?;
        let q = self.queues.get_mut(&key).expect("best_key is live");
        if q.front().expect("empty queue left in index").arrival > now {
            return None;
        }
        let env = q.pop_front().expect("front checked above");
        let set = self.fronts.get_mut(&key.0).expect("front set is live");
        set.remove(&front_key(&env));
        match q.front() {
            Some(f) => {
                set.insert(front_key(f));
            }
            None => {
                self.queues.remove(&key);
                if set.is_empty() {
                    self.fronts.remove(&key.0);
                }
            }
        }
        self.len -= 1;
        Some(env)
    }

    /// Earliest arrival (possibly in the future) of any matching envelope
    /// already in flight — the seed's `find_pending`.
    pub fn pending_arrival(&self, wait: RecvWait) -> Option<SimTime> {
        let key = self.best_key(wait)?;
        Some(self.queues[&key].front().expect("live queue").arrival)
    }

    /// Is a matching envelope deliverable at `now`?
    pub fn has_ready(&self, wait: RecvWait, now: SimTime) -> bool {
        self.pending_arrival(wait).is_some_and(|a| a <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;

    fn env(src: usize, tag: u64, arrival_ms: u64, seq: u64) -> Envelope {
        Envelope {
            src,
            tag,
            sent: SimTime::ZERO,
            arrival: SimTime::from_millis(arrival_ms),
            seq,
            rx_queued: SimDur::ZERO,
            payload: vec![seq as u8],
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

/// Randomized agreement with the seed's linear-scan matching — the oracle
/// the index must never diverge from.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::time::SimDur;
    use dynmpi_testkit::check_n;

    /// The seed's `find_ready`/`find_pending`, with the canonical
    /// `(arrival, src, seq)` order (seqs are per-sender).
    struct LinearBox(Vec<Envelope>);

    impl LinearBox {
        fn pop_ready(&mut self, wait: RecvWait, now: SimTime) -> Option<Envelope> {
            let i = self
                .0
                .iter()
                .enumerate()
                .filter(|(_, e)| wait.matches(e) && e.arrival <= now)
                .min_by_key(|(_, e)| (e.arrival, e.src, e.seq))
                .map(|(i, _)| i)?;
            Some(self.0.remove(i))
        }

        fn pending_arrival(&self, wait: RecvWait) -> Option<SimTime> {
            self.0
                .iter()
                .filter(|e| wait.matches(e))
                .map(|e| e.arrival)
                .min()
        }
    }

    #[test]
    fn index_matches_linear_scan_oracle() {
        check_n("mailbox_vs_oracle", 300, |rng| {
            let mut mb = Mailbox::new();
            let mut oracle = LinearBox(Vec::new());
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
                        payload: vec![],
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
