//! Per-process mailbox: one lane of undelivered envelopes per sender.
//!
//! A directed receive scans only its sender's lane, an any-source receive
//! every lane; both take the match with the least `(arrival, src, seq)`,
//! the engine's canonical message order, and `swap_remove` it. Seqs are per
//! sender, so the key is unique and the match, with every virtual time,
//! does not depend on how envelopes are laid out. Lanes grow to the highest
//! sender heard from and keep their capacity: a warmed-up box allocates
//! nothing per message. Depths and the one-shot fan-in, which `recv_any`
//! still drains in quadratic time, are in DESIGN.md §2.

use crate::engine::{Envelope, RecvWait};
use crate::time::SimTime;

#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Undelivered envelopes by sender rank, each lane in no order.
    lanes: Vec<Vec<Envelope>>,
}

impl Mailbox {
    /// Undelivered envelopes (the "mailbox depth" of the deadlock
    /// diagnosis; also used by the oracle tests).
    pub fn len(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Files an envelope in its sender's lane.
    pub fn push(&mut self, env: Envelope) {
        if env.src >= self.lanes.len() {
            self.lanes.resize_with(env.src + 1, Vec::new);
        }
        self.lanes[env.src].push(env);
    }

    /// `(lane, index)` of the earliest `(arrival, src, seq)` envelope
    /// matching `wait`, if any: a directed wait looks in one lane only.
    fn best(&self, wait: RecvWait) -> Option<(usize, usize)> {
        let lanes = match wait.src {
            Some(s) => s..(s + 1).min(self.lanes.len()),
            None => 0..self.lanes.len(),
        };
        let mut best = None;
        for s in lanes {
            for (i, e) in self.lanes[s].iter().enumerate() {
                let key = (e.arrival, e.src, e.seq);
                if wait.matches(e) && best.is_none_or(|(k, _, _)| key < k) {
                    best = Some((key, s, i));
                }
            }
        }
        best.map(|(_, s, i)| (s, i))
    }

    /// Removes and returns the earliest matching envelope if its arrival is
    /// at or before `now`.
    pub fn pop_ready(&mut self, wait: RecvWait, now: SimTime) -> Option<Envelope> {
        let (s, i) = self.best(wait)?;
        (self.lanes[s][i].arrival <= now).then(|| self.lanes[s].swap_remove(i))
    }

    /// Earliest arrival (possibly in the future) of any matching envelope
    /// already in flight.
    pub fn pending_arrival(&self, wait: RecvWait) -> Option<SimTime> {
        self.best(wait).map(|(s, i)| self.lanes[s][i].arrival)
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
        let mut mb = Mailbox::default();
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
        let mut mb = Mailbox::default();
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
        let mut mb = Mailbox::default();
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
        let mut mb = Mailbox::default();
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
        let mut mb = Mailbox::default();
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
        let mut mb = Mailbox::default();
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

/// Randomized agreement with an oracle of a different shape: the box files
/// envelopes in per-sender lanes, scans one lane or all of them for a
/// minimum and takes it out of an unordered vector; the oracle keeps every
/// pending envelope in one vector, sorts it by `(arrival, src, seq)` and
/// takes the first match, so neither can hide a wrong key, a wrong lane or
/// a lost envelope from the other.
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
    fn lanes_match_sorted_oracle() {
        check_n("mailbox_vs_oracle", 300, |rng| {
            let mut mb = Mailbox::default();
            let mut oracle = SortedBox(Vec::new());
            // Up to 40 senders: a 32-rank gather root's depth and more.
            let nsrc = rng.range_usize(1, 41);
            let ntag = rng.range_u64(1, 4);
            // Per-sender program-order sequence numbers, like the engine's.
            let mut seqs = vec![0u64; nsrc];
            // A quarter or half of the steps file a message, so some boxes
            // drain and others grow deep.
            let pushes = rng.range_u64(1, 3);
            for _ in 0..rng.range_u64(0, 160) {
                let op = rng.range_u64(0, 4);
                if op < pushes || mb.len() == 0 {
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
                    // Any source, any sender, or a sender with mail pending.
                    let src = match rng.range_u64(0, 3) {
                        0 => None,
                        1 => Some(rng.range_usize(0, nsrc)),
                        _ => Some(oracle.0[rng.range_usize(0, oracle.0.len())].src),
                    };
                    let wait = RecvWait {
                        src,
                        tag: rng.range_u64(0, ntag),
                    };
                    let now = SimTime::from_millis(rng.range_u64(0, 10));
                    if op == 3 {
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
