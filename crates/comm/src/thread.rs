//! Real multi-threaded transport.
//!
//! One OS thread per rank, messages over `std::sync::mpsc` channels. This
//! backend
//! proves the comm/runtime stack runs on genuine concurrency (no virtual
//! clock, no global serialization). It is used by tests comparing results
//! across transports and by the quickstart example's `--threads` mode.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

use crate::transport::{HostMeters, Transport};

/// A message in flight between threads.
#[derive(Debug)]
struct Envelope {
    src: usize,
    tag: u64,
    payload: Vec<u8>,
}

/// Per-rank endpoint of the thread transport. Not `Sync`: each rank thread
/// owns its endpoint.
pub struct ThreadTransport {
    rank: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Messages received but not yet matched (wrong src/tag for the
    /// receive in progress).
    stash: RefCell<Vec<Envelope>>,
    epoch: Instant,
    /// Set when any rank panics, so blocked receivers unwind instead of
    /// hanging (every rank holds sender clones, so channels never
    /// disconnect on their own).
    poison: Arc<AtomicBool>,
}

impl ThreadTransport {
    fn take_stashed(&self, src: Option<usize>, tag: u64) -> Option<Envelope> {
        let mut stash = self.stash.borrow_mut();
        let pos = stash
            .iter()
            .position(|e| e.tag == tag && src.is_none_or(|s| s == e.src))?;
        Some(stash.remove(pos))
    }

    fn recv_matching(&self, src: Option<usize>, tag: u64) -> Envelope {
        if let Some(e) = self.take_stashed(src, tag) {
            return e;
        }
        loop {
            match self.inbox.recv_timeout(Duration::from_millis(20)) {
                Ok(e) => {
                    if e.tag == tag && src.is_none_or(|s| s == e.src) {
                        return e;
                    }
                    self.stash.borrow_mut().push(e);
                }
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        !self.poison.load(Ordering::Acquire),
                        "thread transport: a peer rank panicked while rank {} was receiving",
                        self.rank
                    );
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("thread transport: all peers disconnected while receiving")
                }
            }
        }
    }
}

impl Transport for ThreadTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.senders.len()
    }

    fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        let env = Envelope {
            src: self.rank,
            tag,
            payload,
        };
        self.senders[dst]
            .send(env)
            .expect("thread transport: receiver disconnected");
    }

    fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8> {
        self.recv_matching(Some(src), tag).payload
    }

    fn recv_bytes_any(&self, tag: u64) -> (usize, Vec<u8>) {
        let e = self.recv_matching(None, tag);
        (e.src, e.payload)
    }

    /// Real wall-clock timed receive: gives up once `timeout_seconds`
    /// elapse without a matching delivery (non-matching deliveries are
    /// stashed, as in the blocking receive).
    fn recv_bytes_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout_seconds: f64,
    ) -> Result<Vec<u8>, crate::transport::PeerTimeout> {
        if let Some(e) = self.take_stashed(Some(src), tag) {
            return Ok(e.payload);
        }
        let deadline = Instant::now() + Duration::from_secs_f64(timeout_seconds.max(0.0));
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(crate::transport::PeerTimeout {
                    src: Some(src),
                    tag,
                });
            }
            match self
                .inbox
                .recv_timeout((deadline - now).min(Duration::from_millis(20)))
            {
                Ok(e) => {
                    if e.tag == tag && e.src == src {
                        return Ok(e.payload);
                    }
                    self.stash.borrow_mut().push(e);
                }
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        !self.poison.load(Ordering::Acquire),
                        "thread transport: a peer rank panicked while rank {} was receiving",
                        self.rank
                    );
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("thread transport: all peers disconnected while receiving")
                }
            }
        }
    }

    fn wtime(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

impl HostMeters for ThreadTransport {
    /// Real `ps` parsing is out of scope for the in-process backend; report
    /// an otherwise-idle node (just the application).
    fn dmpi_ps(&self, _r: usize) -> u32 {
        1
    }

    /// Stand-in: wall time since transport creation. Adequate for the
    /// runtime's relative comparisons when nodes are threads of one
    /// process.
    fn proc_cpu_seconds(&self) -> f64 {
        self.wtime()
    }

    fn proc_tick_seconds(&self) -> f64 {
        0.0
    }
}

/// Runs `f` as an SPMD program over `n` rank threads and returns each
/// rank's result. Panics (with the original payload) if any rank panics;
/// remaining ranks observing a closed channel panic too, so the process
/// does not hang.
pub fn run_threads<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&ThreadTransport) -> R + Send + Sync,
{
    assert!(n > 0, "need at least one rank");
    let mut senders = Vec::with_capacity(n);
    let mut inboxes = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = channel();
        senders.push(s);
        inboxes.push(r);
    }
    let epoch = Instant::now();
    let poison = Arc::new(AtomicBool::new(false));
    let f = &f;
    let senders = &senders;
    // Each thread returns its inbox receiver alongside its result so every
    // channel stays connected until the whole scope joins: a rank may finish
    // with control messages still addressed to peers that exited first
    // (pipelined monitoring), and those sends must not observe a
    // disconnected channel.
    let results: Vec<(std::thread::Result<R>, Receiver<Envelope>)> = std::thread::scope(|s| {
        let handles: Vec<_> = inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                let poison = Arc::clone(&poison);
                s.spawn(move || {
                    let t = ThreadTransport {
                        rank,
                        senders: senders.clone(),
                        inbox,
                        stash: RefCell::new(Vec::new()),
                        epoch,
                        poison: Arc::clone(&poison),
                    };
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&t)));
                    if out.is_err() {
                        poison.store(true, Ordering::Release);
                    }
                    let ThreadTransport { inbox, .. } = t;
                    (out, inbox)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|e| {
                    // Join only fails if the thread panicked outside
                    // catch_unwind; substitute a fresh (disconnected) inbox.
                    let (_, dead_inbox) = channel();
                    (Err(e), dead_inbox)
                })
            })
            .collect()
    });
    // Prefer a root-cause payload: one that is not the secondary
    // "peer rank panicked" unwind.
    let mut secondary = None;
    let mut oks = Vec::with_capacity(n);
    for (r, _inbox) in results {
        match r {
            Ok(v) => oks.push(v),
            Err(e) => {
                let is_secondary = e
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains("a peer rank panicked"));
                if is_secondary {
                    secondary = Some(e);
                } else {
                    std::panic::resume_unwind(e);
                }
            }
        }
    }
    if let Some(e) = secondary {
        std::panic::resume_unwind(e);
    }
    oks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        let out = run_threads(2, |t| {
            if t.rank() == 0 {
                t.send_bytes(1, 1, vec![42]);
                t.recv_bytes(1, 2)
            } else {
                let m = t.recv_bytes(0, 1);
                t.send_bytes(0, 2, vec![m[0] + 1]);
                m
            }
        });
        assert_eq!(out[0], vec![43]);
        assert_eq!(out[1], vec![42]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let out = run_threads(2, |t| {
            if t.rank() == 0 {
                t.send_bytes(1, 10, vec![10]);
                t.send_bytes(1, 20, vec![20]);
                vec![]
            } else {
                let b = t.recv_bytes(0, 20);
                let a = t.recv_bytes(0, 10);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![10, 20]);
    }

    #[test]
    fn fifo_per_pair_and_tag() {
        let out = run_threads(2, |t| {
            if t.rank() == 0 {
                for i in 0..50u8 {
                    t.send_bytes(1, 1, vec![i]);
                }
                vec![]
            } else {
                (0..50).map(|_| t.recv_bytes(0, 1)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn recv_any_from_many() {
        let out = run_threads(4, |t| {
            if t.rank() == 0 {
                let mut got: Vec<usize> = (0..3).map(|_| t.recv_bytes_any(9).0).collect();
                got.sort_unstable();
                got
            } else {
                t.send_bytes(0, 9, vec![]);
                vec![]
            }
        });
        assert_eq!(out[0], vec![1, 2, 3]);
    }

    #[test]
    fn wtime_monotone() {
        let out = run_threads(1, |t| {
            let a = t.wtime();
            let b = t.wtime();
            b >= a
        });
        assert!(out[0]);
    }

    #[test]
    #[should_panic(expected = "worker died")]
    fn panic_propagates() {
        let _ = run_threads(2, |t| {
            if t.rank() == 1 {
                panic!("worker died");
            }
            // Rank 0 would block forever; the closed channel unwinds it.
            t.recv_bytes(1, 1)
        });
    }
}
