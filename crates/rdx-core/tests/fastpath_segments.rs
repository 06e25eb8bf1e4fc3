//! The fast path scans once per event. Each scanned segment ends in a
//! sample, a trap or the end of its chunk, and every sample ends one,
//! so over a run `samples ≤ rdx.machine.fastpath.segments ≤ samples +
//! traps + rdx.machine.fastpath.chunks`. A period-64 profile makes
//! events dense enough that a second scan per event would break the
//! upper bound.
//!
//! The counters live in one process-global registry, so this binary
//! holds a single test.

use rdx_core::{RdxConfig, RdxRunner};
use rdx_workloads::{by_name, Params};

#[test]
fn period_64_profiles_scan_one_segment_per_event() {
    let params = Params::default().with_accesses(200_000).with_seed(42);
    let runner = RdxRunner::new(RdxConfig::default().with_period(64));

    rdx_metrics::reset();
    let (mut samples, mut traps) = (0, 0);
    for name in ["zipf", "stream_triad", "pointer_chase"] {
        let workload = by_name(name).expect("registry workload");
        let p = runner.profile(workload.stream(&params));
        samples += p.samples;
        traps += p.traps;
    }

    let snap = rdx_metrics::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let segments = counter("rdx.machine.fastpath.segments");
    let chunks = counter("rdx.machine.fastpath.chunks");
    assert_eq!(counter("rdx.machine.fastpath.fallbacks"), 0);
    assert_eq!(counter("rdx.machine.fastpath.scanned_accesses"), 600_000);
    assert!(samples > 0 && traps > 0 && chunks > 0);
    assert!(
        samples <= segments && segments <= samples + traps + chunks,
        "samples {samples}, traps {traps}, chunks {chunks}, segments {segments}"
    );
}
