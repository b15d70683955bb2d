//! # dynmpi — the Dyn-MPI runtime
//!
//! A from-scratch implementation of **Dyn-MPI** (Weatherly, Lowenthal,
//! Nakazawa, Lowenthal — SC 2003): an extension to message passing that
//! *automatically* redistributes data when the application or the
//! underlying non dedicated cluster changes.
//!
//! ## What it does
//!
//! * **Registration** (§2.2): the application registers its
//!   redistributable arrays — [`DenseMatrix`] in the 2-D projection
//!   layout, [`SparseMatrix`] as a vector of column-sorted rows — its
//!   phases, and the DRSD ([`Drsd`]) of every array reference in a
//!   parallel loop.
//! * **Monitoring** (§4.2): per-cycle load readings from the `dmpi_ps`
//!   daemon; on a change, a 5-cycle *grace period* measures true unloaded
//!   per-iteration times via `/proc` or min-of-`gethrtime`.
//! * **Distribution** (§4.3): [`balance::successive_balance`] corrects the
//!   relative-power baseline for the CPU cost of communication on loaded
//!   nodes, calibrated by [`microbench`].
//! * **Redistribution & removal** (§4.4): whole extended rows move in
//!   single messages with storage reuse; after a post-redistribution
//!   window the runtime physically removes nodes whose participation
//!   hurts, reassigning relative ranks; global operations keep removed
//!   nodes current via send-out-only participation.
//!
//! ## Minimal usage sketch
//!
//! ```no_run
//! use dynmpi::{AccessMode, CommPattern, DenseMatrix, Drsd, DynMpi, DynMpiConfig, RedistArray};
//! use dynmpi_comm::run_threads;
//!
//! run_threads(4, |t| {
//!     let n = 1024;
//!     let mut rt = DynMpi::init(t, n, DynMpiConfig::default());
//!     let a = rt.register_dense("A", n);
//!     let ph = rt.init_phase(0, n, CommPattern::NearestNeighbor);
//!     rt.add_access(ph, a, AccessMode::ReadWrite, Drsd::with_halo(1));
//!     let mut m = DenseMatrix::<f64>::new(n, n);
//!     let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
//!     rt.setup(&mut arrays);
//!     m.fill_rows(&rt.local_rows(a), |_, _| 0.0);
//!     for _step in 0..100 {
//!         rt.begin_cycle();
//!         if rt.participating() {
//!             let (lo, hi) = rt.my_range(ph).unwrap();
//!             for _i in lo..=hi { /* stencil on m */ }
//!             rt.charge_rows(ph, |_i| 5.0 * n as f64);
//!             // explicit neighbor exchange via t.send_slice/recv_vec …
//!         }
//!         let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
//!         rt.end_cycle(&mut arrays);
//!     }
//! });
//! ```

pub mod array;
pub mod balance;
pub mod checkpoint;
pub mod config;
pub mod dense;
pub mod dist;
pub mod drsd;
pub mod events;
pub mod microbench;
pub mod redist;
pub mod rowset;
pub mod runtime;
pub mod sparse;
pub mod timing;

// The shared simulator-backed test driver is written against the public
// API under the crate's external name, like `tests/failure_modes.rs`.
#[cfg(test)]
extern crate self as dynmpi;
#[cfg(test)]
#[path = "../tests/drive/mod.rs"]
mod drive;

pub use array::{AllocStats, ArrayKind, ArrayMeta, RedistArray};
pub use checkpoint::{BuddyCheckpoint, CKPT_BYTES_SENT, CKPT_REFRESHES, CKPT_REFRESH_TIMEOUTS};

pub use balance::{
    partition_rows, predict_cycle_time, relative_power, successive_balance,
    successive_balance_with_floor, CommModel, NodeLoad,
};
pub use config::{BalancerKind, DropPolicy, DynMpiConfig};
pub use dense::{ContiguousMatrix, DenseMatrix};
pub use dist::Distribution;
pub use drsd::{AccessMode, ArrayAccess, Bound, Drsd};
pub use events::RuntimeEvent;
pub use redist::{ghost_needs, RedistOutcome};
pub use rowset::RowSet;
pub use runtime::{ArrayId, CommPattern, CycleReport, DynMpi, PhaseId, PhaseSpec};
pub use sparse::{SparseMatrix, SparseRow};
pub use timing::{RowTimer, TimingMode};
