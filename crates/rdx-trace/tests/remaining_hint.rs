//! Property: `remaining_hint` never under-reports, for every stream
//! shape and across arbitrary chunkings.
//!
//! The hint is used for preallocation and progress reporting. A hint
//! that *over*-reports (e.g. a truncated trace whose header still
//! declares the full count) wastes a little capacity; a hint that
//! *under*-reports silently breaks `Vec::with_capacity`-style
//! consumers and ETA math. So the invariant at every consumption point
//! is `hint ≥ accesses actually still deliverable`, checked here for
//! a trace's own stream, the `Chunked` buffering adapter (in both
//! pass-through and buffering modes via `Opaque`) and the `Take` cap —
//! over arbitrary record sequences and chunk capacities.

use proptest::prelude::*;
use rdx_trace::{AccessStream, Chunked, Opaque, Trace};

/// Drains `stream`, asserting at every step that the hint is at least
/// the number of accesses actually still deliverable, and returns the
/// delivered count.
fn drain_checking_hint(mut stream: impl AccessStream, total: u64, label: &str) -> u64 {
    let mut delivered = 0u64;
    loop {
        let left = total - delivered;
        if let Some(hint) = stream.remaining_hint() {
            assert!(
                hint >= left,
                "{label}: hint {hint} under-reports with {left} of {total} left \
                 (after {delivered} delivered)"
            );
        }
        match stream.next_access() {
            Some(_) => delivered += 1,
            None => break,
        }
    }
    // Exhausted: a nonzero hint now would also be an over-report lie,
    // but only under-reporting is the contract; just confirm delivery.
    assert_eq!(delivered, total, "{label}: stream shorted the trace");
    delivered
}

proptest! {
    /// A trace's stream and every adapter stack above it keep the
    /// invariant for arbitrary traces and chunk geometries.
    #[test]
    fn hint_never_under_reports(
        records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..200),
        capacity in 1usize..48,
        cap in 0u64..256,
    ) {
        let t: Trace = records.iter().copied().collect();
        let total = t.len() as u64;

        drain_checking_hint(t.stream(), total, "TraceStream");

        // Chunked over a chunk-capable inner: pass-through mode.
        drain_checking_hint(
            Chunked::with_capacity(t.stream(), capacity),
            total,
            "Chunked/passthrough",
        );

        // Chunked over an Opaque inner: buffering mode, where the
        // adapter's own buffer must be folded into the hint.
        drain_checking_hint(
            Chunked::with_capacity(Opaque::new(t.stream()), capacity),
            total,
            "Chunked/buffering",
        );

        // Take caps both the stream and the hint.
        drain_checking_hint(t.stream().take(cap), total.min(cap), "Take");
    }
}
