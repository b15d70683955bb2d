//! Cross-shard coordination for the sharded engine.
//!
//! A sharded run partitions ranks into contiguous per-shard domains, each
//! with its own [`crate::engine::EngineState`] (event queue, clock,
//! mailboxes, NIC state). Shards advance independently inside a
//! *lookahead window* `[T_min, T_min + L)` where `T_min` is the earliest
//! pending event across all shards and `L` is the network latency: any
//! message sent at `u >= T_min` arrives at `u + L >= T_min + L`, i.e. in
//! a later window, so no shard can receive anything it should already
//! have acted on — the classic conservative parallel-DES argument.
//!
//! This module holds the pieces shared across shard boundaries:
//!
//! * [`WindowSync`] — the barrier the coordinator waits on: each shard
//!   marks itself quiescent once it has no dispatchable event left before
//!   its `window_end`.
//! * [`OutMsg`] — a cross-NIC message captured at TX time; the RX half of
//!   the network model runs when the coordinator applies it to the
//!   destination shard, in the canonical `(sent, src, seq)` order that a
//!   single-shard run applies sends in.
//! * [`MonBoard`] — a mirror of every node's monitor-visible state
//!   (competing-process timeline, block history). Remote monitor reads
//!   sample it at `floor_to_second(now - L)`: the strict window bound —
//!   the *engine* clock, and with it every remote read and every timeline
//!   write, stays below `window_end`; a rank's local clock may pass it, but
//!   all it can publish from there is a block opening later than any
//!   sample of this window — guarantees every mutation at or before that
//!   instant has already been published, so readings are deterministic
//!   despite wall-clock races.

use std::sync::{Condvar, PoisonError};

use crate::monitor::BlockHistory;
use crate::sync::Mutex;
use crate::time::SimTime;
use crate::timeline::NcpTimeline;

/// Barrier state between the coordinator and the shard turn tokens. The
/// coordinator is the only thread that ever waits on `cv`.
pub(crate) struct WindowSync {
    inner: Mutex<WsState>,
    cv: Condvar,
}

struct WsState {
    /// Shards currently quiescent (no dispatchable event before their
    /// `window_end`).
    quiescent: usize,
    poisoned: bool,
}

impl WindowSync {
    /// Starts with every shard quiescent so the coordinator's first
    /// window opens immediately.
    pub fn new(nshards: usize) -> Self {
        WindowSync {
            inner: Mutex::new(WsState {
                quiescent: nshards,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Called (at most once per window per shard) when a shard runs out
    /// of dispatchable events before its `window_end`.
    pub fn mark_quiescent(&self) {
        let mut g = self.inner.lock();
        g.quiescent += 1;
        self.cv.notify_one();
    }

    /// Marks the run failed; wakes the coordinator so it exits.
    pub fn poison(&self) {
        let mut g = self.inner.lock();
        g.poisoned = true;
        self.cv.notify_one();
    }

    /// Blocks until all `n` shards are quiescent. Returns `false` if the
    /// run was poisoned instead.
    pub fn wait_all(&self, n: usize) -> bool {
        let g = self
            .cv
            .wait_while(self.inner.lock(), |g| g.quiescent < n && !g.poisoned)
            .unwrap_or_else(PoisonError::into_inner);
        !g.poisoned
    }

    /// Re-arms the barrier for the next window.
    pub fn reset(&self) {
        self.inner.lock().quiescent = 0;
    }
}

/// A cross-NIC message in flight between shards. The sender already ran
/// the TX half of the network model (`tx_free`, serialization, latency);
/// the RX half runs on the destination shard when the coordinator applies
/// the message at the window barrier.
#[derive(Debug)]
pub(crate) struct OutMsg {
    pub env: crate::engine::Envelope,
    pub dst: usize,
    pub dst_node: usize,
    pub bytes: usize,
    /// First bit reaches the destination NIC at this instant.
    pub rx_ready: SimTime,
    /// Sender-side serialization completes at this instant (lower-bounds
    /// the arrival for asymmetric NIC rates).
    pub tx_end: SimTime,
}

/// One node's monitor-visible state, mirrored for cross-shard readers.
#[derive(Debug, Default)]
pub(crate) struct NodeMon {
    pub timeline: NcpTimeline,
    pub blocks: BlockHistory,
}

/// Shared monitor board: one mutex-guarded [`NodeMon`] per node. Owners
/// mirror every `timeline.set` / `block` / `unblock` into it; remote
/// `dmpi_ps`/`vmstat` reads lock a single entry briefly. Only built for
/// sharded runs — a single-shard engine reads its own state directly.
#[derive(Debug)]
pub(crate) struct MonBoard {
    pub nodes: Vec<Mutex<NodeMon>>,
}

impl MonBoard {
    pub fn new(timelines: Vec<NcpTimeline>) -> Self {
        MonBoard {
            nodes: timelines
                .into_iter()
                .map(|timeline| {
                    Mutex::new(NodeMon {
                        timeline,
                        blocks: BlockHistory::new(),
                    })
                })
                .collect(),
        }
    }
}
