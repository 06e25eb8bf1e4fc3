//! Property: `remaining_hint` never under-reports, across arbitrary
//! chunk pulls.
//!
//! The hint is used for preallocation and progress reporting. A hint
//! that *over*-reports (e.g. a truncated trace whose header still
//! declares the full count) wastes a little capacity; a hint that
//! *under*-reports silently breaks `Vec::with_capacity`-style
//! consumers and ETA math. So the invariant at every pull is
//! `hint ≥ accesses actually still deliverable`, checked here for a
//! trace's own stream over arbitrary record sequences and pull sizes
//! (the registry generators are checked the same way in
//! `rdx-workloads`' `stream_digests.rs`).

use proptest::prelude::*;
use rdx_trace::{AccessStream, Trace};

/// Drains `stream` by `next_chunk(max)` pulls, asserting before each
/// pull that the hint is at least the number of accesses actually still
/// deliverable.
fn drain_checking_hint(mut stream: impl AccessStream, max: usize, total: u64) {
    let mut delivered = 0u64;
    loop {
        let left = total - delivered;
        if let Some(hint) = stream.remaining_hint() {
            assert!(
                hint >= left,
                "hint {hint} under-reports with {left} of {total} left \
                 (after {delivered} delivered)"
            );
        }
        match stream.next_chunk(max) {
            Some(chunk) => {
                assert!(chunk.len() <= max, "a chunk longer than `max`");
                delivered += chunk.len() as u64;
            }
            None => break,
        }
    }
    assert_eq!(delivered, total, "stream shorted the trace");
}

proptest! {
    /// A trace's stream keeps the invariant for arbitrary traces and
    /// pull sizes.
    #[test]
    fn hint_never_under_reports(
        records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..200),
        max in 1usize..48,
    ) {
        let t: Trace = records.iter().copied().collect();
        let total = t.len() as u64;
        drain_checking_hint(t.stream(), max, total);
        drain_checking_hint(t.stream(), usize::MAX, total);
    }
}
