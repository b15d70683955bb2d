//! # dynmpi-apps — the paper's benchmark applications
//!
//! The four programs of §5, written against the public Dyn-MPI API and
//! generic over the transport (simulator for experiments, threads for
//! tests):
//!
//! * [`jacobi`] — Jacobi iteration, 5-point stencil (Figures 4–5),
//! * [`sor`] — Red-Black SOR, the low comp/comm-ratio code (Figures 4, 6),
//! * [`cg`] — NAS-style Conjugate Gradient on an unstructured sparse
//!   system (Figure 4, §5.1 case study),
//! * [`particle`] — a scaled-down MP3D particle simulation with
//!   nonuniform iterations (Figures 4, 7),
//!
//! plus [`harness`], which runs any of them on a scripted virtual
//! cluster, collects the measurements the figures need, and judges a
//! run's answer against the unperturbed and the 1-rank run.

pub mod cg;
pub mod gen;
pub mod harness;
pub mod jacobi;
pub mod particle;
pub mod result;
pub mod sor;
mod vector;
pub mod work;

pub use harness::{AppSpec, Experiment, SimRunResult};
pub use result::AppResult;
