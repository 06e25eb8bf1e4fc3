//! SHARDS-style spatially hashed sampling.

use crate::BaselineProfile;
use rdx_groundtruth::OlkenTracker;
use rdx_histogram::{Binning, RdHistogram, ReuseDistance};
use rdx_trace::{AccessStream, Granularity};

/// SHARDS (Waldspurger et al., FAST'15) adapted to reuse-distance
/// histograms: monitor only blocks whose address hash falls below a
/// threshold (rate `R`), run exact Olken on the monitored subset, and
/// scale both distances and weights by `1/R`.
///
/// The crucial contrast with RDX: SHARDS still *observes every access*
/// (the hash filter runs inline), so its time overhead remains
/// instrumentation-class even though its memory shrinks by `R`.
#[derive(Debug, Clone, Copy)]
pub struct Shards {
    /// Sampling rate `R` in `(0, 1]`; `R = 1` degenerates to full Olken.
    pub rate: f64,
    /// Histogram binning.
    pub binning: Binning,
    /// Measurement granularity.
    pub granularity: Granularity,
}

impl Shards {
    /// Creates a SHARDS baseline with the given sampling rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `(0, 1]`.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "SHARDS rate must lie in (0, 1], got {rate}"
        );
        Shards {
            rate,
            binning: Binning::default(),
            granularity: Granularity::default(),
        }
    }

    fn monitored(&self, block: u64) -> bool {
        // splitmix64 finalizer as the spatial hash
        let mut z = block.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64) < self.rate * (u64::MAX as f64)
    }

    /// Profiles a stream with spatial sampling.
    #[must_use]
    pub fn profile(&self, mut stream: impl AccessStream) -> BaselineProfile {
        let mut olken = OlkenTracker::new();
        let mut rd = RdHistogram::new(self.binning);
        let inv = 1.0 / self.rate;
        let mut accesses = 0u64;
        while let Some(chunk) = stream.next_chunk(usize::MAX) {
            for a in chunk {
                accesses += 1;
                let block = a.addr.block(self.granularity);
                if !self.monitored(block) {
                    continue;
                }
                match olken.access(block).value() {
                    None => rd.record(ReuseDistance::INFINITE, inv),
                    Some(d_sub) => {
                        let d = (d_sub as f64 * inv).round() as u64;
                        rd.record(ReuseDistance::finite(d), inv);
                    }
                }
            }
        }
        let tool_bytes = olken.memory_bytes() as u64;
        BaselineProfile {
            rd,
            accesses,
            // the hash filter runs on every access
            observed_accesses: accesses,
            tool_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_groundtruth::ExactProfile;
    use rdx_histogram::accuracy::histogram_intersection;
    use rdx_trace::Trace;

    fn pseudorandom_trace(n: u64, blocks: u64) -> Trace {
        let mut x = 99u64;
        Trace::from_addresses(
            "r",
            (0..n).map(move |_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % blocks) * 8
            }),
        )
    }

    #[test]
    fn full_rate_matches_exact() {
        let trace = pseudorandom_trace(20_000, 500);
        let shards = Shards::new(1.0).profile(trace.stream());
        let exact =
            ExactProfile::measure(trace.stream(), Granularity::default(), Binning::default());
        let acc =
            histogram_intersection(shards.rd.as_histogram(), exact.rd.as_histogram()).unwrap();
        assert!(acc > 0.999, "R=1 must reproduce exact: {acc}");
    }

    #[test]
    fn sampled_rate_close_to_exact() {
        let trace = pseudorandom_trace(200_000, 2000);
        let shards = Shards::new(0.05).profile(trace.stream());
        let exact =
            ExactProfile::measure(trace.stream(), Granularity::default(), Binning::default());
        let acc =
            histogram_intersection(shards.rd.as_histogram(), exact.rd.as_histogram()).unwrap();
        assert!(acc > 0.8, "SHARDS at 5% should stay accurate: {acc}");
        // total weight scales back to ≈ n
        let total = shards.rd.total_weight();
        assert!((total - 200_000.0).abs() < 0.2 * 200_000.0, "{total}");
    }

    #[test]
    fn memory_shrinks_with_rate() {
        let trace = pseudorandom_trace(100_000, 20_000);
        let full = Shards::new(1.0).profile(trace.stream());
        let sampled = Shards::new(0.02).profile(trace.stream());
        assert!(sampled.tool_bytes * 4 < full.tool_bytes);
    }

    #[test]
    fn still_observes_every_access() {
        let trace = pseudorandom_trace(10_000, 100);
        let p = Shards::new(0.01).profile(trace.stream());
        assert_eq!(p.observed_accesses, 10_000);
        assert!(p.slowdown(3.0, 250.0) > 50.0);
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn zero_rate_rejected() {
        let _ = Shards::new(0.0);
    }
}
