//! The transport abstraction.
//!
//! Everything above this layer — typed point-to-point, collectives, the
//! Dyn-MPI runtime, the applications — is written once against
//! [`Transport`]. Two implementations exist: the virtual-time simulator
//! ([`crate::SimTransport`]) used for all paper experiments, and a real
//! multi-threaded channel transport ([`crate::ThreadTransport`]) proving
//! the stack runs on actual concurrency.

use std::sync::Arc;

/// Reserved tag space boundary: application tags must stay below this;
/// internal (collective) traffic uses tags at or above it.
pub const RESERVED_TAG_BASE: u64 = 1 << 32;

/// A blocking receive gave up: no matching message arrived within the
/// caller's timeout. The peer may be dead, partitioned, or merely slow —
/// classifying that is the failure detector's job, not the transport's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerTimeout {
    /// The rank the receive was directed at (`None` = any source).
    pub src: Option<usize>,
    /// The tag the receive was matching.
    pub tag: u64,
}

impl std::fmt::Display for PeerTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.src {
            Some(s) => write!(f, "receive from rank {s} tag {} timed out", self.tag),
            None => write!(f, "any-source receive tag {} timed out", self.tag),
        }
    }
}

impl std::error::Error for PeerTimeout {}

/// A point-to-point byte transport between `size()` ranks.
pub trait Transport {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Sends `payload` to `dst` under `tag`. Buffered: returns once the
    /// message is injected, not when it is received.
    fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>);

    /// Receives the next message from `src` under `tag`, blocking.
    fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8>;

    /// Receives like [`recv_bytes`](Transport::recv_bytes) but gives up
    /// after `timeout_seconds` of transport time, returning
    /// `Err(`[`PeerTimeout`]`)` instead of blocking forever — the
    /// progress-or-fail primitive failure detection builds on.
    fn recv_bytes_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout_seconds: f64,
    ) -> Result<Vec<u8>, PeerTimeout>;

    /// Sends an immutable buffer the caller may keep a reference to. A
    /// transport that can hand the receiver the buffer itself (the
    /// simulator) does; the default sends a copy, or the buffer itself
    /// when the caller kept no other reference.
    fn send_shared(&self, dst: usize, tag: u64, payload: Arc<Vec<u8>>) {
        self.send_bytes(dst, tag, Arc::unwrap_or_clone(payload));
    }

    /// Receives like [`recv_bytes_timeout`](Transport::recv_bytes_timeout)
    /// (or, with no timeout, like [`recv_bytes`](Transport::recv_bytes)),
    /// as a shared buffer: the sender's own one after a
    /// [`send_shared`](Transport::send_shared) where the transport can,
    /// the received bytes behind a new `Arc` by default.
    fn recv_shared(
        &self,
        src: usize,
        tag: u64,
        timeout_seconds: Option<f64>,
    ) -> Result<Arc<Vec<u8>>, PeerTimeout> {
        let payload = match timeout_seconds {
            Some(secs) => self.recv_bytes_timeout(src, tag, secs)?,
            None => self.recv_bytes(src, tag),
        };
        Ok(Arc::new(payload))
    }

    /// Wallclock seconds (virtual or real, per transport).
    fn wtime(&self) -> f64;

    /// Wallclock in integer nanoseconds — the timestamp domain of the
    /// tracing layer. Transports with an exact integer clock (the
    /// simulator) override this to avoid the round trip through `f64`.
    fn now_ns(&self) -> u64 {
        (self.wtime() * 1e9).round() as u64
    }

    /// Consumes `work` units of CPU. On the simulator this advances
    /// virtual time under the node's current load; on real transports the
    /// work is assumed to be performed by the caller's own code and this
    /// is a no-op.
    fn compute(&self, _work: f64) {}

    /// Marks the end of one application phase cycle (drives cycle-triggered
    /// load scripts on the simulator; no-op elsewhere).
    fn phase_cycle_completed(&self) {}
}

/// Transports also used by the Dyn-MPI runtime expose the host's
/// measurement facilities (§4.2 of the paper). The thread transport
/// implements these with real OS facilities where possible and benign
/// stand-ins otherwise.
pub trait HostMeters: Transport {
    /// `dmpi_ps` reading for the node hosting rank `r`: running-or-ready
    /// process count including the application.
    fn dmpi_ps(&self, r: usize) -> u32;

    /// CPU time consumed by this rank per `/proc`, in seconds, truncated
    /// to the accounting tick.
    fn proc_cpu_seconds(&self) -> f64;

    /// The `/proc` accounting tick in seconds (0 ⇒ exact readings).
    fn proc_tick_seconds(&self) -> f64;

    /// Whether the node hosting rank `r` is online (booted, daemon
    /// running). Seed nodes are always online; ranks reserved for
    /// scripted arrivals read offline until their cold start completes.
    /// Transports without an arrival notion report everything online.
    fn node_online(&self, _r: usize) -> bool {
        true
    }

    /// CPU time consumed by this rank in exact nanoseconds, for
    /// observability-grade accounting (the health monitor's interference
    /// share). Unlike [`proc_cpu_seconds`](HostMeters::proc_cpu_seconds)
    /// this must not be quantized to the accounting tick — quantization
    /// shows up as phantom interference on short cycles. The default
    /// converts the quantized reading; transports with an exact clock
    /// override it.
    fn proc_cpu_ns(&self) -> u64 {
        (self.proc_cpu_seconds() * 1e9).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_tag_base_leaves_room() {
        const {
            assert!(RESERVED_TAG_BASE > u32::MAX as u64);
            assert!(RESERVED_TAG_BASE < u64::MAX / 2);
        }
    }
}
