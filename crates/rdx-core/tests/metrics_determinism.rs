//! Metrics must observe, never perturb. The `rdx.runner.*` and
//! `rdx.profiler.*` counters are always compiled in; the registry's
//! profiles, taken straight from the generator streams, must still be
//! bit-identical to the digest recorded when collection could be
//! compiled out, and the counters must have seen every one of those
//! profiles.
//!
//! The counters live in one process-global registry, so this binary
//! holds a single test.

use rdx_core::{RdxConfig, RdxRunner};
use rdx_histogram::Histogram;
use rdx_workloads::{suite, Params};

/// FNV-1a over a stream of u64s (here: histogram weight bit patterns
/// and bucket bounds), so equality means bit-for-bit equality.
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
}

/// The digest of the whole registry at the pinned operating point,
/// recorded from a build without metrics collection. The same value is
/// `GOLDEN` in `fastpath_equivalence.rs`.
const GOLDEN: u64 = 0x17ea_4869_2cad_4966;

#[test]
fn profiles_identical_with_metrics_on_and_off() {
    let params = Params::default().with_accesses(60_000).with_elements(800);
    let config = RdxConfig::default().with_period(512).with_seed(7);
    rdx_metrics::reset();
    let mut digest = Digest::new();
    let (mut profiles, mut accesses, mut samples, mut traps, mut evictions) = (0, 0, 0, 0, 0);
    for w in suite() {
        let p = RdxRunner::new(config).profile(w.stream(&params));
        digest.push_histogram(p.rd.as_histogram());
        digest.push_histogram(p.rt.as_histogram());
        digest.push(p.samples);
        digest.push(p.traps);
        digest.push(p.evictions);
        digest.push(p.m_estimate.to_bits());
        profiles += 1;
        accesses += p.accesses;
        samples += p.samples;
        traps += p.traps;
        evictions += p.evictions;
    }
    assert_eq!(
        digest.0, GOLDEN,
        "registry digest {:#018x} deviates from the recorded baseline \
         — collection must not perturb results",
        digest.0,
    );

    let snap = rdx_metrics::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    for (name, total) in [
        ("rdx.runner.profiles", profiles),
        ("rdx.runner.accesses", accesses),
        ("rdx.profiler.samples", samples),
        ("rdx.profiler.traps", traps),
        ("rdx.profiler.evictions", evictions),
    ] {
        assert_eq!(counter(name), total, "{name}");
    }
    assert!(
        samples > 0 && traps > 0,
        "the registry run must be observed"
    );
}
