//! RDX — featherlight reuse-distance measurement (HPCA 2019 reproduction).
//!
//! This meta-crate re-exports the whole workspace behind one dependency:
//!
//! * [`core`] — the RDX profiler (PMU sampling + debug registers).
//! * [`machine`] — the simulated hardware substrate.
//! * [`traces`] — access traces, streams, I/O, statistics.
//! * [`workloads`] — the deterministic SPEC-CPU2017-like kernel suite.
//! * [`groundtruth`] — exhaustive (Olken) measurement and exact footprints.
//! * [`baselines`] — exhaustive, SHARDS-style and counter-only comparators.
//! * [`histogram`] — histograms, accuracy metrics, miss-ratio curves.
//! * [`cache`] — cache presets, a set-associative simulator, predictions.
//! * [`metrics`] — always-on observability probes, called per chunk,
//!   per frame or per finished profile.
//!
//! # Quickstart
//!
//! ```
//! use rdx::core::{RdxConfig, RdxRunner};
//! use rdx::workloads::{by_name, Params};
//!
//! let workload = by_name("zipf").expect("in the suite");
//! let params = Params::default().with_accesses(200_000);
//! let profile = RdxRunner::new(RdxConfig::default().with_period(512))
//!     .profile(workload.stream(&params));
//! println!("estimated distinct blocks: {:.0}", profile.m_estimate);
//! assert!(profile.samples > 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use memsim as machine;
pub use rdx_baselines as baselines;
pub use rdx_cache as cache;
pub use rdx_core as core;
pub use rdx_groundtruth as groundtruth;
pub use rdx_histogram as histogram;
pub use rdx_metrics as metrics;
pub use rdx_trace as traces;
pub use rdx_workloads as workloads;
