//! The chunk-scanning fast path must be invisible in the output: a
//! profile computed by bulk scans between PMU overflows is bit-identical
//! to one computed by single-stepping every access
//! (`RdxRunner::start_stepped`) — histograms, event counts, and every
//! floating-point estimate.
//!
//! Two layers of evidence:
//!
//! * a property test over random traces, periods, jitter, register
//!   counts, and deliberately tiny chunks (so overflow gaps and
//!   armed-watchpoint lifetimes straddle chunk borders), checked against
//!   `RdxRunner::start_stepped`, and
//! * the registry golden digest, recorded from the slow loop, which the
//!   fast path must reproduce both from every workload's materialized
//!   trace and from its generator stream profiled as it comes (the
//!   CLI's path); and every generator stream must equal both its
//!   materialized trace and the slow loop profile for profile.

use proptest::prelude::*;
use rdx_core::{RdxConfig, RdxProfile, RdxRunner};
use rdx_histogram::Histogram;
use rdx_trace::{AccessStream, Trace};
use rdx_workloads::{suite, Params};

/// Field-by-field bit equality of two profiles (floats by bit pattern:
/// "close" is not good enough — the fast path claims identity).
fn assert_profiles_identical(label: &str, a: &RdxProfile, b: &RdxProfile) {
    assert_eq!(a.rd, b.rd, "{label}: rd histogram");
    assert_eq!(a.rt, b.rt, "{label}: rt histogram");
    assert_eq!(a.accesses, b.accesses, "{label}: accesses");
    assert_eq!(a.samples, b.samples, "{label}: samples");
    assert_eq!(a.traps, b.traps, "{label}: traps");
    assert_eq!(a.evictions, b.evictions, "{label}: evictions");
    assert_eq!(a.end_censored, b.end_censored, "{label}: end_censored");
    assert_eq!(
        a.dropped_samples, b.dropped_samples,
        "{label}: dropped_samples"
    );
    assert_eq!(
        a.duplicate_samples, b.duplicate_samples,
        "{label}: duplicate_samples"
    );
    assert_eq!(
        a.m_estimate.to_bits(),
        b.m_estimate.to_bits(),
        "{label}: m_estimate {} vs {}",
        a.m_estimate,
        b.m_estimate
    );
    assert_eq!(
        a.time_overhead.to_bits(),
        b.time_overhead.to_bits(),
        "{label}: time_overhead {} vs {}",
        a.time_overhead,
        b.time_overhead
    );
    assert_eq!(
        a.profiler_bytes, b.profiler_bytes,
        "{label}: profiler_bytes"
    );
}

/// The profile of `stream` with every access single-stepped.
fn profile_stepped(runner: &RdxRunner, mut stream: impl AccessStream) -> RdxProfile {
    let mut live = runner.start_stepped();
    while let Some(chunk) = stream.next_chunk(usize::MAX) {
        live.feed(chunk);
    }
    live.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end profile equality: slow loop vs zero-copy fast path vs
    /// small chunks, over arbitrary load/store traces and machine
    /// configurations.
    #[test]
    fn profiles_identical_across_execution_paths(
        accesses in prop::collection::vec((0u64..512, any::<bool>()), 300..3000),
        period in 8u64..300,
        jittered in any::<bool>(),
        registers in 1usize..6,
        chunk_capacity in 3usize..160,
        seed in any::<u64>(),
    ) {
        let trace: Trace = accesses.iter().map(|&(a, s)| (a * 8, s)).collect();
        let mut config = RdxConfig::default()
            .with_period(period)
            .with_registers(registers)
            .with_seed(seed);
        config.machine.sampling.jitter = if jittered { period / 8 } else { 0 };
        let runner = RdxRunner::new(config);

        // Slow loop: every access single-steps.
        let slow = profile_stepped(&runner, trace.stream());
        // Fast path: the materialized trace is one zero-copy chunk.
        let fast = runner.profile(trace.stream());
        // Fast path over tiny chunks: every overflow gap spans several.
        let mut live = runner.start();
        let mut stream = trace.stream();
        while let Some(chunk) = stream.next_chunk(chunk_capacity) {
            live.feed(chunk);
        }
        let chunked = live.finish();

        assert_profiles_identical("fast vs slow", &fast, &slow);
        assert_profiles_identical("chunked vs slow", &chunked, &slow);
    }
}

/// FNV-1a over u64 words (histogram weight bit patterns, bucket bounds
/// and event counts), so equality means bit-for-bit equality. The
/// other golden tests (`ingest_golden.rs`, `merge_golden.rs`, rdx-sim,
/// rdx-server's loopback) hash the same words to pin the same baseline.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_histogram(&mut self, h: &Histogram) {
        for b in h.buckets() {
            self.push(b.range.lo);
            self.push(b.range.hi);
            self.push(b.weight.to_bits());
        }
        self.push(h.infinite_weight().to_bits());
    }

    fn push_profile(&mut self, p: &RdxProfile) {
        self.push_histogram(p.rd.as_histogram());
        self.push_histogram(p.rt.as_histogram());
        self.push(p.samples);
        self.push(p.traps);
        self.push(p.evictions);
        self.push(p.m_estimate.to_bits());
    }
}

/// The digest of the whole registry at the pinned operating point
/// (60 000 accesses over 800 elements, period 512, seed 7), recorded
/// from the single-stepped loop. Every input path reproduces it.
const GOLDEN: u64 = 0x17ea_4869_2cad_4966;

#[test]
fn fast_path_reproduces_registry_golden_digest() {
    let params = Params::default().with_accesses(60_000).with_elements(800);
    let runner = RdxRunner::new(RdxConfig::default().with_period(512).with_seed(7));
    let (mut from_trace, mut from_stream) = (Digest::new(), Digest::new());
    for w in suite() {
        // The materialized trace is one zero-copy chunk.
        let trace = Trace::from_stream(w.name, w.stream(&params));
        from_trace.push_profile(&runner.profile(trace.stream()));
        // The generator stream, scanned on its own reused chunks.
        from_stream.push_profile(&runner.profile(w.stream(&params)));
    }
    for (input, digest) in [
        ("materialized-trace", from_trace),
        ("generator-stream", from_stream),
    ] {
        let got = digest.0;
        assert_eq!(
            got, GOLDEN,
            "{input} registry digest {got:#018x} deviates from the slow-loop \
             baseline — the scan must be bit-identical to its oracle",
        );
    }
}

/// `RdxRunner::profile` of a registry generator stream takes the scan
/// fast path on the stream's own chunks, and is bit-identical to the
/// profile of its materialized trace and to the single-stepped loop. The
/// run crosses the generators' 64 Ki chunk edge twice.
#[test]
fn generator_streams_profile_like_their_traces() {
    let params = Params::default()
        .with_accesses(150_000)
        .with_elements(5000)
        .with_seed(3);
    let runner = RdxRunner::new(RdxConfig::default().with_period(512).with_seed(11));
    for w in suite() {
        let streamed = runner.profile(w.stream(&params));
        let trace = Trace::from_stream(w.name, w.stream(&params));
        let materialized = runner.profile(trace.stream());
        let stepped = profile_stepped(&runner, w.stream(&params));
        assert_profiles_identical(w.name, &streamed, &materialized);
        assert_profiles_identical(w.name, &streamed, &stepped);
    }
}
