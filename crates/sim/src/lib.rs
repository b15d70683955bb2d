//! # dynmpi-sim — a deterministic virtual-time cluster simulator
//!
//! Substrate for the Dyn-MPI reproduction: stands in for the paper's
//! physical testbeds (550 MHz P-III Xeon / 100 Mb/s switched Ethernet and
//! Sun Ultra-Sparc 5 clusters) so that every experiment is fast,
//! deterministic, and scriptable.
//!
//! ## Model
//!
//! * **Nodes** have a work rate (≈flops/s). The OS shares each node's CPU
//!   round-robin in fixed 10 ms slices between the application rank and a
//!   scripted number of *competing processes* — the "non dedicated" part.
//! * **Network** is switched Ethernet: per-message latency + serialization
//!   at link bandwidth, with per-NIC contention. Sends and receives also
//!   charge *CPU* work, so communication is slower on loaded nodes.
//! * **Clocks**: an exact virtual wallclock (`gethrtime`), exact per-process
//!   CPU accounting readable only at 10 ms granularity (`/proc`), and two
//!   load monitors — the reliable `dmpi_ps` and the faulty `vmstat`.
//! * **Execution**: each rank runs ordinary Rust as a stackful fiber on the
//!   calling thread (x86_64 Linux), and the engine hands the one thread
//!   from rank to rank in virtual-time order, so a run is a pure function
//!   of its inputs.
//!
//! ## Quick example
//!
//! ```
//! use dynmpi_sim::{Cluster, NodeSpec, LoadScript, SimTime};
//!
//! // Two nodes; a competing process lands on node 0 at t = 1 ms.
//! let script = LoadScript::dedicated().at_time(0, SimTime::from_millis(1), 1);
//! let cluster = Cluster::homogeneous(2, NodeSpec::with_speed(1e6)).with_script(script);
//! let out = cluster.run_spmd(|ctx| {
//!     ctx.advance(50_000.0); // 50 ms of work
//!     ctx.now().as_secs_f64()
//! });
//! // Node 0 lost CPU share after 1 ms; node 1 did not.
//! assert!(out.results[0] > out.results[1]);
//! ```

mod cluster;
mod cpu;
mod ctx;
mod engine;
mod fiber;
mod mailbox;
mod monitor;
mod network;
mod params;
mod report;
mod script;
mod time;
mod timeline;

pub use cluster::Cluster;
pub use cpu::{CpuSched, Step};
pub use ctx::RecvTimeout;
pub use ctx::SimCtx;
pub use monitor::{dmpi_ps_reading, vmstat_reading, BlockHistory};
pub use network::Network;
pub use params::{NetParams, NodeSpec, OsParams};
pub use report::{ProcReport, SimOutcome, SimReport};
pub use script::{CrashKind, LoadEvent, LoadScript, NodeArrival, NodeCrash, Trigger};
pub use time::{SimDur, SimTime};
pub use timeline::NcpTimeline;
