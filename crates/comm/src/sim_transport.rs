//! Transport backed by the virtual-time cluster simulator.

use std::sync::Arc;

use dynmpi_obs as obs;
use dynmpi_sim::{SimCtx, SimDur};

use crate::transport::{HostMeters, PeerTimeout, Transport};

/// Message-size histograms, in [`obs::BYTE_BUCKETS`]. A traced rank
/// resolves each once; every later message only records.
const MSG_BYTES_SENT: &str = "comm.msg_bytes_sent";
const MSG_BYTES_RECVD: &str = "comm.msg_bytes_recvd";

fn observe_bytes(name: &'static str, payload: &[u8]) {
    obs::observe(name, &obs::BYTE_BUCKETS, payload.len() as u64);
}

/// A [`Transport`] view over a simulated rank.
///
/// All paper experiments run on this transport: message timing follows the
/// simulator's network model and `compute` advances virtual time under the
/// node's competing load.
pub struct SimTransport<'a> {
    ctx: &'a SimCtx,
}

impl<'a> SimTransport<'a> {
    pub fn new(ctx: &'a SimCtx) -> Self {
        SimTransport { ctx }
    }

    /// The underlying simulator handle (for host metering beyond the
    /// `HostMeters` trait, e.g. exact CPU time in tests).
    pub fn ctx(&self) -> &'a SimCtx {
        self.ctx
    }
}

impl Transport for SimTransport<'_> {
    fn rank(&self) -> usize {
        self.ctx.rank()
    }

    fn size(&self) -> usize {
        self.ctx.nprocs()
    }

    fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        observe_bytes(MSG_BYTES_SENT, &payload);
        self.ctx.send(dst, tag, payload);
    }

    fn recv_bytes(&self, src: usize, tag: u64) -> Vec<u8> {
        let payload = self.ctx.recv(src, tag);
        observe_bytes(MSG_BYTES_RECVD, &payload);
        payload
    }

    fn recv_bytes_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout_seconds: f64,
    ) -> Result<Vec<u8>, PeerTimeout> {
        let timeout = SimDur::from_secs_f64(timeout_seconds);
        match self.ctx.recv_timeout(Some(src), tag, timeout) {
            Ok((_, payload)) => {
                observe_bytes(MSG_BYTES_RECVD, &payload);
                Ok(payload)
            }
            Err(t) => Err(PeerTimeout {
                src: t.src,
                tag: t.tag,
            }),
        }
    }

    /// The message carries the `Arc`: no copy, and a shared receive at
    /// the destination holds this very buffer.
    fn send_shared(&self, dst: usize, tag: u64, payload: Arc<Vec<u8>>) {
        observe_bytes(MSG_BYTES_SENT, &payload);
        self.ctx.send_shared(dst, tag, payload);
    }

    fn recv_shared(
        &self,
        src: usize,
        tag: u64,
        timeout_seconds: Option<f64>,
    ) -> Result<Arc<Vec<u8>>, PeerTimeout> {
        let timeout = timeout_seconds.map(SimDur::from_secs_f64);
        match self.ctx.recv_shared(Some(src), tag, timeout) {
            Ok((_, payload)) => {
                observe_bytes(MSG_BYTES_RECVD, &payload);
                Ok(payload)
            }
            Err(t) => Err(PeerTimeout {
                src: t.src,
                tag: t.tag,
            }),
        }
    }

    fn wtime(&self) -> f64 {
        self.ctx.now().as_secs_f64()
    }

    fn now_ns(&self) -> u64 {
        // Exact: the simulator clock is already integer nanoseconds.
        self.ctx.now().0
    }

    fn compute(&self, work: f64) {
        self.ctx.advance(work);
    }

    fn phase_cycle_completed(&self) {
        self.ctx.phase_cycle_completed();
    }
}

impl HostMeters for SimTransport<'_> {
    fn dmpi_ps(&self, r: usize) -> u32 {
        // One rank per node in the simulator.
        self.ctx.dmpi_ps(r)
    }

    fn node_online(&self, r: usize) -> bool {
        self.ctx.node_online(r)
    }

    fn proc_cpu_seconds(&self) -> f64 {
        self.ctx.cpu_time_reading().as_secs_f64()
    }

    fn proc_tick_seconds(&self) -> f64 {
        0.010
    }

    fn proc_cpu_ns(&self) -> u64 {
        // Exact (un-quantized) CPU nanoseconds: identical between the
        // fast-forward and stepped engines, which is what keeps health
        // snapshots byte-identical across modes.
        self.ctx.cpu_time_exact().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmpi_sim::{Cluster, NodeSpec};

    #[test]
    fn transport_maps_to_sim() {
        let c = Cluster::homogeneous(2, NodeSpec::with_speed(1e6));
        let out = c.run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            assert_eq!(t.size(), 2);
            if t.rank() == 0 {
                t.send_bytes(1, 3, vec![9, 9]);
                t.compute(1000.0);
                t.wtime()
            } else {
                let m = t.recv_bytes(0, 3);
                assert_eq!(m, vec![9, 9]);
                t.wtime()
            }
        });
        assert!(out.results.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn host_meters_exposed() {
        let c = Cluster::homogeneous(1, NodeSpec::with_speed(1e6));
        let out = c.run_spmd(|ctx| {
            let t = SimTransport::new(ctx);
            t.compute(25_000.0); // 25 ms CPU
            (t.dmpi_ps(0), t.proc_cpu_seconds())
        });
        let (ps, cpu) = out.results[0];
        assert_eq!(ps, 1);
        assert!((cpu - 0.020).abs() < 1e-9, "reading {cpu}"); // truncated to 10 ms tick
    }
}
