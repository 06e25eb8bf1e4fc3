//! RDX: featherlight reuse-distance measurement.
//!
//! This crate implements the paper's contribution: a profiler that produces
//! reuse-*distance* histograms **without any instrumentation**, by combining
//! two commodity hardware facilities (modeled by [`memsim`]):
//!
//! 1. **PMU sampling** picks a memory access every ~`period` accesses and
//!    reports its precise effective address.
//! 2. A **hardware debug register** is armed on that address; the next
//!    access to it traps, and the PMU counter difference between arm and
//!    trap yields the pair's reuse *time* (number of intervening accesses).
//!
//! Reuse time is not reuse distance — it counts duplicates. The conversion
//! goes through *footprint theory* (Xiang et al.): the average number of
//! distinct blocks in a window of `w` accesses, `fp(w)`, is computable from
//! the sampled reuse-time distribution, and the reuse distance of a pair
//! with reuse time `t` is estimated as `fp(t+1) − 1` (the `+1`/`−1` move
//! between the index-difference and distinct-blocks-between conventions).
//!
//! Two practical obstacles shape the implementation, exactly as they shape
//! the paper's design:
//!
//! * **Register scarcity.** x86 has four debug registers. When a new sample
//!   arrives with all registers armed, a [`ReplacementPolicy`] evicts one;
//!   the evicted (censored) interval is fed to a Kaplan–Meier-style
//!   inverse-probability-of-censoring correction ([`km`]) so that long reuse
//!   intervals are not silently under-represented.
//! * **Cold accesses.** A sampled access that never traps before the end of
//!   the run is (statistically) a last access to its block; the fraction of
//!   such samples estimates the distinct-block count `m`, which anchors both
//!   the cold bucket of the histogram and the footprint curve.
//!
//! # Example
//!
//! ```
//! use rdx_core::{RdxConfig, RdxRunner};
//! use rdx_trace::Trace;
//!
//! // A loop over 100 blocks: every reuse has distance 99.
//! let trace = Trace::from_addresses("loop", (0..100_000u64).map(|i| (i % 100) * 8));
//! let config = RdxConfig::default().with_period(256);
//! let profile = RdxRunner::new(config).profile(trace.stream());
//! assert!(profile.samples > 100);
//! // The estimated mean distance lands near 99.
//! let mean = profile.rd.as_histogram().finite_mean().unwrap();
//! assert!((60.0..160.0).contains(&mean), "mean {mean}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod budget;
mod config;
pub mod convert;
pub mod ingest;
pub mod km;
pub mod limits;
mod merge;
mod profiler;
mod report;
mod runner;
mod windows;
mod wire;

pub use batch::{default_jobs, profile_batch, BatchTask};
pub use config::{CensoringCorrection, ConversionMethod, RdxConfig, ReplacementPolicy};
pub use convert::WeightedFootprint;
pub use ingest::{
    load_rdxt, profile_rdxt_batch, IngestError, IngestOptions, RdxtIngest, RdxtInput, RdxtReport,
    BLOCK_LEN,
};
pub use limits::LimitError;
pub use merge::{merge_batch, merge_histogram_batch, MergeError};
pub use profiler::RdxProfiler;
pub use report::RdxProfile;
pub use runner::{LiveProfile, RdxRunner};
pub use windows::WindowedProfile;
pub use wire::{decode_profile, encode_profile, WireError, RDXP_VERSION};
