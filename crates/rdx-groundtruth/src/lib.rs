//! Exhaustive ("ground truth") reuse-distance measurement.
//!
//! This crate implements the classic exact algorithms that the RDX paper
//! treats as ground truth and as the overhead strawman: every access is
//! observed, a hash map tracks each block's previous access time, and an
//! order-statistic structure counts how many *distinct* blocks were touched
//! in between (Olken's algorithm).
//!
//! The order-statistic structure is a [`FenwickStructure`], a Fenwick
//! (binary indexed) tree over access timestamps. It is property-tested
//! against a `Vec` oracle, and [`OlkenTracker`] against an O(n²)
//! brute-force oracle ([`brute_force_rd`]).
//!
//! On top of the per-access tracker, [`exact`] offers whole-stream drivers
//! producing exact reuse-distance and reuse-time histograms, and
//! [`footprint`] computes exact average-footprint curves (Xiang et al.'s
//! linear-time formula), which the RDX conversion in `rdx-core` relies on.
//!
//! # Example
//!
//! ```
//! use rdx_groundtruth::OlkenTracker;
//! use rdx_histogram::ReuseDistance;
//!
//! let mut olken = OlkenTracker::new();
//! assert_eq!(olken.access(7), ReuseDistance::INFINITE); // cold
//! assert_eq!(olken.access(8), ReuseDistance::INFINITE); // cold
//! assert_eq!(olken.access(7), ReuseDistance::finite(1)); // one distinct block (8) in between
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod footprint;
pub mod fxhash;
mod olken;
pub mod sharded;
mod structure;

pub use exact::{brute_force_rd, ExactProfile};
pub use footprint::FootprintCurve;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use olken::OlkenTracker;
pub use sharded::ShardedExact;
pub use structure::FenwickStructure;
