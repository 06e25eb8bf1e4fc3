//! The `rdx.profiler.*` and `rdx.runner.*` counters count each finished
//! profile once, and only finished profiles: a live profile that
//! answers several snapshots and then finishes leaves every profiler
//! counter equal to its final profile's field and
//! `rdx.runner.profiles` at 1. A snapshot finishes a clone of the run,
//! so a counter bumped inside the profiler's handlers would count the
//! clone's end-of-run censoring again on every snapshot.
//!
//! The counters live in one process-global registry, so this binary
//! holds a single test.

use rdx_core::{RdxConfig, RdxRunner};
use rdx_trace::Trace;
use rdx_workloads::{by_name, Params};

#[test]
fn snapshots_leave_the_counters_at_the_final_profile() {
    let params = Params::default().with_accesses(200_000).with_seed(42);
    let zipf = by_name("zipf").expect("registry workload");
    let trace = Trace::from_stream(zipf.name, zipf.stream(&params));
    let accesses = trace.accesses();

    rdx_metrics::reset();
    let mut live = RdxRunner::new(RdxConfig::default().with_period(512)).start();
    let slice = accesses.len() / 10;
    let mut snapshots = 0;
    for at in (0..accesses.len()).step_by(slice) {
        live.feed(accesses.slice(at..(at + slice).min(accesses.len())));
        let snap = live.snapshot();
        assert!(snap.end_censored > 0, "a snapshot censors armed registers");
        snapshots += 1;
    }
    assert_eq!(snapshots, 10);
    let p = live.finish();

    let snap = rdx_metrics::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("rdx.runner.profiles"), 1);
    assert_eq!(counter("rdx.runner.accesses"), p.accesses);
    for (name, field) in [
        ("rdx.profiler.samples", p.samples),
        ("rdx.profiler.traps", p.traps),
        ("rdx.profiler.evictions", p.evictions),
        ("rdx.profiler.end_censored", p.end_censored),
        ("rdx.profiler.dropped_samples", p.dropped_samples),
        ("rdx.profiler.duplicate_samples", p.duplicate_samples),
        (
            "rdx.profiler.watchpoints_armed",
            p.samples - p.duplicate_samples - p.dropped_samples,
        ),
    ] {
        assert_eq!(counter(name), field, "{name}");
    }
    assert!(p.samples > 0 && p.end_censored > 0, "{p:?}");
}
