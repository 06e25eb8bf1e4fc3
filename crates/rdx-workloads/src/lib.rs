//! A deterministic synthetic workload suite spanning the locality spectrum.
//!
//! The RDX paper evaluates on SPEC CPU2017, which cannot be redistributed;
//! this crate substitutes a suite of 18 access-pattern kernels chosen so
//! that every locality regime SPEC exercises is represented — dense
//! streaming, strided sweeps, stencils, blocked and naive linear algebra,
//! pointer chasing, hash probing, Zipf- and Gaussian-skewed hot sets,
//! phase-changing mixes, and adversarial scans. The mapping from each
//! kernel to the SPEC benchmark whose memory behaviour it mimics is part of
//! each [`WorkloadSpec`] (`spec_analog`) and is tabulated by experiment T1.
//!
//! All kernels are deterministic functions of [`Params`] (access count,
//! element count, seed): every experiment in the workspace is exactly
//! reproducible.
//!
//! Addresses are generated at 8-byte element granularity (`addr = base +
//! index * 8`), matching how scalar code touches doubles/pointers; reuse
//! distance is then measured at the caller's chosen [`Granularity`].
//!
//! # Example
//!
//! ```
//! use rdx_workloads::{suite, Params};
//! use rdx_trace::AccessStream;
//!
//! let params = Params::default().with_accesses(10_000);
//! for spec in suite() {
//!     let mut stream = spec.stream(&params);
//!     let mut n = 0;
//!     while let Some(chunk) = stream.next_chunk(usize::MAX) {
//!         n += chunk.len();
//!     }
//!     assert_eq!(n, 10_000, "{}", spec.name);
//! }
//! ```
//!
//! [`Granularity`]: rdx_trace::Granularity

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod kernels;
mod params;
mod registry;
mod stream;

pub use params::Params;
pub use registry::{by_name, suite, DynStream, WorkloadSpec};
