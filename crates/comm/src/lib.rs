//! # dynmpi-comm — MPI-like message passing layer
//!
//! Typed point-to-point communication and collectives over a pluggable
//! [`Transport`]:
//!
//! * [`SimTransport`] — backed by the `dynmpi-sim` virtual-time cluster;
//!   used by every paper experiment.
//! * [`ThreadTransport`] — real threads and OS channels; proves the
//!   stack runs on genuine concurrency and anchors cross-transport tests.
//!
//! Collectives ([`CommOps`]) operate over a [`Group`] of world ranks, which
//! is how Dyn-MPI's *relative ranks* work after node removal: the active
//! nodes form a group, and all global operations run over it. The layer
//! keeps only what the runtime, the applications and the benchmark call,
//! with one algorithm per collective (see the `ops` module).
//!
//! ```
//! use dynmpi_comm::{run_threads, CommOps, Group, Transport};
//!
//! let sums = run_threads(4, |t| {
//!     let g = Group::world(t.rank(), t.size());
//!     t.allreduce_sum_f64(&g, &[1.0])[0]
//! });
//! assert_eq!(sums, vec![4.0; 4]);
//! ```

mod datatype;
mod group;
mod ops;
mod sim_transport;
mod thread;
mod transport;

pub use datatype::{
    concat_to_bytes, from_bytes, from_bytes_into, iter_to_bytes, scatter_from_bytes, to_bytes,
    to_bytes_into, Pod, BYTES_COPIED,
};
pub use group::Group;
pub use ops::CommOps;
pub use sim_transport::SimTransport;
pub use thread::{run_threads, ThreadTransport};
pub use transport::{HostMeters, PeerTimeout, Transport, RESERVED_TAG_BASE};
