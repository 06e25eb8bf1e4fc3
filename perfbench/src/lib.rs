//! End-to-end and per-layer benchmark of the RDX profiling paths.
//!
//! The benchmark generates its inputs from a seed, drives the public
//! APIs a user's run goes through (in-memory profiling, file-backed
//! profiling, and a loopback server session), checks every profile
//! against an in-memory reference, and reports end-to-end metrics; a
//! traced run adds a per-layer ledger. See `README.md` for the
//! workloads and metrics.

pub mod gate;
pub mod ledger;
pub mod run;
pub mod serve;
pub mod setup;
pub mod spans;
pub mod stats;
