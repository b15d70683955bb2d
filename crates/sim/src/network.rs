//! Switched-Ethernet network model.
//!
//! Messages pay a one-way latency plus serialization at the link bandwidth.
//! The switch is non-blocking (distinct node pairs do not contend), but each
//! node's transmit and receive NICs serialize their own traffic — the
//! contention that matters for ghost-row exchanges and redistribution
//! bursts. Rank-to-self messages cost a memcpy.
//!
//! Delivery is split into a sender half ([`Network::tx_depart`]) and a
//! receiver half ([`Network::rx_land`]) because a rank may send ahead of the
//! engine clock: the TX NIC is the sender's own and is charged when the send
//! is issued, while the destination's RX NIC is shared state, charged when
//! the engine lands the frame — in the canonical `(sent, src, seq)` order an
//! eager send would have used, so NIC state evolves identically.
//! [`Network::deliver_at`] composes the two.

use crate::params::NetParams;
use crate::time::{SimDur, SimTime};

/// Sender-side result of injecting a cross-node frame.
#[derive(Clone, Copy, Debug)]
pub struct TxDepart {
    /// Last bit leaves the sender's TX NIC.
    pub tx_end: SimTime,
    /// First bit reaches the destination NIC (one latency after TX start).
    pub rx_ready: SimTime,
    /// Time the frame queued behind earlier sends on the TX NIC.
    pub queued: SimDur,
}

/// Per-node NIC availability state.
#[derive(Clone, Debug)]
pub struct Network {
    params: NetParams,
    /// Per-node NIC bandwidth in bytes/s; defaults to the cluster-wide
    /// `params.bandwidth`, overridden per node for heterogeneous arrivals.
    nic_bw: Vec<f64>,
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    /// Completion time of the last rank-to-self copy, per node (self
    /// deliveries are FIFO like everything else).
    self_free: Vec<SimTime>,
    /// Accumulated time frames spent queued behind a busy NIC, per node.
    tx_wait: Vec<SimDur>,
    rx_wait: Vec<SimDur>,
    /// NIC queueing paid by the most recent [`Network::deliver_at`] call
    /// (TX + RX for cross-node frames, copy queueing for self-sends), for
    /// per-message trace attribution.
    last_queued: SimDur,
    messages: u64,
    bytes: u64,
}

impl Network {
    pub fn new(nodes: usize, params: NetParams) -> Self {
        assert!(params.bandwidth > 0.0 && params.self_bandwidth > 0.0);
        Network {
            params,
            nic_bw: vec![params.bandwidth; nodes],
            tx_free: vec![SimTime::ZERO; nodes],
            rx_free: vec![SimTime::ZERO; nodes],
            self_free: vec![SimTime::ZERO; nodes],
            tx_wait: vec![SimDur::ZERO; nodes],
            rx_wait: vec![SimDur::ZERO; nodes],
            last_queued: SimDur::ZERO,
            messages: 0,
            bytes: 0,
        }
    }

    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Overrides one node's NIC bandwidth (bytes/s). Serialization on
    /// that node's TX and RX NIC then runs at this rate instead of the
    /// cluster-wide default.
    pub fn set_nic_bandwidth(&mut self, node: usize, bandwidth: f64) {
        assert!(bandwidth > 0.0, "NIC bandwidth must be positive");
        self.nic_bw[node] = bandwidth;
    }

    /// Sender half of a cross-node delivery: serializes the frame on
    /// `src`'s TX NIC at time `t` and accounts it. Cut-through model: the
    /// first bit is on the wire as soon as TX starts, so the destination
    /// NIC can begin landing the frame one latency later.
    pub fn tx_depart(&mut self, src: usize, bytes: usize, t: SimTime) -> TxDepart {
        self.messages += 1;
        self.bytes += bytes as u64;
        let tx_ser = SimDur::from_secs_f64(bytes as f64 / self.nic_bw[src]);
        let tx_start = t.max(self.tx_free[src]);
        let tx_end = tx_start + tx_ser;
        self.tx_free[src] = tx_end;
        let queued = tx_start - t;
        self.tx_wait[src] += queued;
        TxDepart {
            tx_end,
            rx_ready: tx_start + self.params.latency,
            queued,
        }
    }

    /// Receiver half: lands a frame whose first bit reached `dst`'s NIC at
    /// `rx_ready` and whose sender finishes serializing at `tx_end`.
    /// Returns `(arrival, rx_queued)`. A frame that finds the RX NIC busy
    /// queues and then pays its full serialization there too — fan-in is
    /// as expensive as fan-out, which is what makes the eager-tree
    /// broadcast's root-side burst visible in simulated time.
    pub fn rx_land(
        &mut self,
        dst: usize,
        bytes: usize,
        rx_ready: SimTime,
        tx_end: SimTime,
    ) -> (SimTime, SimDur) {
        let rx_ser = SimDur::from_secs_f64(bytes as f64 / self.nic_bw[dst]);
        let rx_start = rx_ready.max(self.rx_free[dst]);
        // With asymmetric NIC rates the last bit cannot land before the
        // slower sender has pushed it out, hence the lower bound at
        // `tx_end + latency` — which for equal rates is never the binding
        // term, so homogeneous clusters keep their exact historical
        // timings.
        let arrival = (rx_start + rx_ser).max(tx_end + self.params.latency);
        self.rx_free[dst] = arrival;
        let queued = rx_start - rx_ready;
        self.rx_wait[dst] += queued;
        (arrival, queued)
    }

    /// Rank-to-self delivery: a memcpy at the node's copy bandwidth,
    /// FIFO behind earlier self-copies. Returns `(arrival, queued)`.
    pub fn deliver_self(&mut self, node: usize, bytes: usize, t: SimTime) -> (SimTime, SimDur) {
        self.messages += 1;
        self.bytes += bytes as u64;
        let copy = SimDur::from_secs_f64(bytes as f64 / self.params.self_bandwidth);
        let start = t.max(self.self_free[node]);
        let arrival = start + copy;
        self.self_free[node] = arrival;
        (arrival, start - t)
    }

    /// Schedules a `bytes`-byte message from `src` to `dst`, with the send
    /// call issued at `t`. Returns the virtual time at which the payload is
    /// fully available at the destination. Composes [`Self::tx_depart`]
    /// and [`Self::rx_land`] (or [`Self::deliver_self`]) — the reference
    /// the split halves must match.
    pub fn deliver_at(&mut self, src: usize, dst: usize, bytes: usize, t: SimTime) -> SimTime {
        if src == dst {
            let (arrival, queued) = self.deliver_self(src, bytes, t);
            self.last_queued = queued;
            return arrival;
        }
        let tx = self.tx_depart(src, bytes, t);
        let (arrival, rx_queued) = self.rx_land(dst, bytes, tx.rx_ready, tx.tx_end);
        self.last_queued = tx.queued + rx_queued;
        arrival
    }

    /// NIC queueing paid by the most recent `deliver_at` call — the
    /// contention (as opposed to serialization/latency) component of that
    /// message's delivery time.
    pub fn last_queued(&self) -> SimDur {
        self.last_queued
    }

    /// Total messages injected so far.
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes injected so far.
    pub fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// Accumulated TX-NIC queueing across all nodes: time frames sat
    /// behind earlier sends from the same node.
    pub fn tx_wait_total(&self) -> SimDur {
        self.tx_wait.iter().fold(SimDur::ZERO, |a, &b| a + b)
    }

    /// Accumulated RX-NIC queueing across all nodes: time frames sat
    /// behind earlier arrivals at the same node (fan-in contention).
    pub fn rx_wait_total(&self) -> SimDur {
        self.rx_wait.iter().fold(SimDur::ZERO, |a, &b| a + b)
    }

    /// Pure cost model (no state): time for one isolated message.
    pub fn isolated_cost(params: &NetParams, bytes: usize) -> SimDur {
        params.latency + SimDur::from_secs_f64(bytes as f64 / params.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        Network::new(n, NetParams::ethernet_100mbps())
    }

    #[test]
    fn isolated_message_cost() {
        let mut n = net(2);
        // 12.5 MB/s → 125 KB takes 10 ms; plus 100 µs latency.
        let arr = n.deliver_at(0, 1, 125_000, SimTime::ZERO);
        assert_eq!(arr, SimTime::from_micros(10_100));
        assert_eq!(n.message_count(), 1);
        assert_eq!(n.byte_count(), 125_000);
    }

    #[test]
    fn tx_nic_serializes_back_to_back_sends() {
        let mut n = net(3);
        let a = n.deliver_at(0, 1, 125_000, SimTime::ZERO);
        let b = n.deliver_at(0, 2, 125_000, SimTime::ZERO);
        // Second message waits for the first to finish serializing.
        assert_eq!(a, SimTime::from_micros(10_100));
        assert_eq!(b, SimTime::from_micros(20_100));
    }

    #[test]
    fn rx_nic_serializes_fan_in() {
        let mut n = net(3);
        let a = n.deliver_at(0, 2, 125_000, SimTime::ZERO);
        let b = n.deliver_at(1, 2, 125_000, SimTime::ZERO);
        assert_eq!(a, SimTime::from_micros(10_100));
        // Both frames serialized on their own TX concurrently, but the
        // receiver lands them one after the other: the second frame queues
        // until 10.1 ms and then pays its own 10 ms RX serialization — it
        // must NOT land "for free" the instant the NIC frees up.
        assert_eq!(b, SimTime::from_micros(20_100));
        assert_eq!(n.tx_wait_total(), SimDur::ZERO);
        assert_eq!(n.rx_wait_total(), SimDur::from_micros(10_000));
    }

    #[test]
    fn split_halves_compose_to_deliver_at() {
        // A send posted ahead of the engine clock runs TX and RX with
        // other traffic in between; the split must be observationally
        // identical to the one-shot call.
        let mut whole = net(3);
        let mut split = net(3);
        let a = whole.deliver_at(0, 2, 125_000, SimTime::ZERO);
        let tx = split.tx_depart(0, 125_000, SimTime::ZERO);
        let (b, rxq) = split.rx_land(2, 125_000, tx.rx_ready, tx.tx_end);
        assert_eq!(a, b);
        assert_eq!(tx.queued + rxq, whole.last_queued());
        assert_eq!(whole.message_count(), split.message_count());
        assert_eq!(whole.byte_count(), split.byte_count());
    }

    #[test]
    fn contention_stats_split_tx_and_rx() {
        let mut n = net(3);
        // Two back-to-back sends from node 0: pure TX queueing.
        n.deliver_at(0, 1, 125_000, SimTime::ZERO);
        n.deliver_at(0, 2, 125_000, SimTime::ZERO);
        assert_eq!(n.tx_wait_total(), SimDur::from_micros(10_000));
        assert_eq!(n.rx_wait_total(), SimDur::ZERO);
    }

    #[test]
    fn last_queued_tracks_per_message_contention() {
        let mut n = net(3);
        n.deliver_at(0, 2, 125_000, SimTime::ZERO);
        assert_eq!(n.last_queued(), SimDur::ZERO);
        // Fan-in: the second frame queues 10 ms on the RX NIC.
        n.deliver_at(1, 2, 125_000, SimTime::ZERO);
        assert_eq!(n.last_queued(), SimDur::from_micros(10_000));
        // Self-sends queue behind earlier copies on the same node.
        n.deliver_at(0, 0, 4_000_000, SimTime::ZERO);
        assert_eq!(n.last_queued(), SimDur::ZERO);
        n.deliver_at(0, 0, 4_000_000, SimTime::ZERO);
        assert_eq!(n.last_queued(), SimDur::from_millis(10));
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut n = net(4);
        let a = n.deliver_at(0, 1, 125_000, SimTime::ZERO);
        let b = n.deliver_at(2, 3, 125_000, SimTime::ZERO);
        assert_eq!(a, b); // switched network
    }

    #[test]
    fn self_send_is_memcpy() {
        let mut n = net(2);
        let arr = n.deliver_at(1, 1, 4_000_000, SimTime::ZERO);
        // 4 MB at 400 MB/s = 10 ms, no latency.
        assert_eq!(arr, SimTime::from_millis(10));
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let mut n = net(2);
        let arr = n.deliver_at(0, 1, 0, SimTime::from_secs(1));
        assert_eq!(arr, SimTime::from_secs(1) + NetParams::default().latency);
    }

    #[test]
    fn isolated_cost_helper_matches() {
        let p = NetParams::ethernet_100mbps();
        let c = Network::isolated_cost(&p, 125_000);
        assert_eq!(c, SimDur::from_micros(10_100));
    }
}
