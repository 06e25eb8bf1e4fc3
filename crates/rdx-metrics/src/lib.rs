//! Lightweight observability for the RDX profiling pipeline.
//!
//! The profiler's headline claim is *measured overhead*, so the profiler
//! itself must be measurable without distorting what it measures. This
//! crate provides three probe kinds, all addressed by `&'static str`
//! names:
//!
//! * [`counter`] — monotonically increasing [`Counter`]s backed by
//!   relaxed atomics (samples taken, traps fired, bytes decoded, …).
//! * [`span`] — RAII scope timers over the monotonic clock. Spans nest:
//!   a span opened while another is active on the same thread records
//!   under the hierarchical path `outer/inner`.
//! * [`record_duration_ns`] / [`record_value`] — explicit records for
//!   durations measured elsewhere and unitless distributions (queue
//!   depths, batch sizes).
//!
//! [`snapshot`] captures everything observed so far as a [`Snapshot`]
//! that serializes to JSON via [`Snapshot::to_json`]; [`reset`] zeroes
//! the registry between measurement windows (handles stay valid).
//!
//! # Where the probes sit
//!
//! The collectors are always compiled in, so the shipped binaries can
//! answer `--metrics` without a rebuild. They stay cheap by where they
//! are called: every probe fires once per chunk, per frame, per
//! finished profile or less often — never per access, PMU sample or
//! trap. The profiler's own event counts (`rdx.profiler.*`) are added
//! once from the finished profile's fields. A probe takes the registry
//! lock for its name lookup, so a per-event call site would put a mutex
//! on the hot path. Collection never feeds back into what the
//! instrumented code computes.
//!
//! # Example
//!
//! ```
//! let c = rdx_metrics::counter("demo.events");
//! c.add(3);
//! {
//!     let _outer = rdx_metrics::span("demo.outer");
//!     let _inner = rdx_metrics::span("inner"); // records as demo.outer/inner
//! }
//! let snap = rdx_metrics::snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! println!("{}", snap.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod snapshot;
pub use snapshot::{Snapshot, TimerStat};

mod registry;
pub use registry::{
    counter, record_duration_ns, record_value, reset, snapshot, span, Counter, SpanGuard,
};
