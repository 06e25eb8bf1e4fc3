//! PMU-sampling-only baseline (no debug registers).

use crate::BaselineProfile;
use rdx_groundtruth::FxHashMap;
use rdx_histogram::{Binning, RdHistogram, ReuseDistance};
use rdx_trace::{AccessStream, Granularity};

/// Counter-only profiling: PMU address samples without watchpoints.
///
/// Without a trap on the *next* access, the only way to see a reuse is for
/// the **same block to be sampled twice** — the gap between two samples of
/// a block spans one or more true reuse intervals, so reuse times are
/// overestimated (often by multiples), and only blocks hot enough to be
/// sampled twice contribute at all. This is the tool you can build from
/// PEBS/IBS alone, and its failure modes are precisely the paper's
/// motivation for adding debug registers.
#[derive(Debug, Clone, Copy)]
pub struct CounterOnly {
    /// Sampling period in accesses.
    pub period: u64,
    /// Histogram binning.
    pub binning: Binning,
    /// Measurement granularity.
    pub granularity: Granularity,
}

impl CounterOnly {
    /// Creates the baseline with the given sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "sampling period must be non-zero");
        CounterOnly {
            period,
            binning: Binning::default(),
            granularity: Granularity::default(),
        }
    }

    /// Profiles a stream from samples alone.
    #[must_use]
    pub fn profile(&self, mut stream: impl AccessStream) -> BaselineProfile {
        let mut last_sample: FxHashMap<u64, u64> = FxHashMap::default();
        let mut rd = RdHistogram::new(self.binning);
        let mut accesses = 0u64;
        let mut samples = 0u64;
        let mut pairs = 0u64;
        while let Some(chunk) = stream.next_chunk(usize::MAX) {
            for a in chunk {
                accesses += 1;
                if !accesses.is_multiple_of(self.period) {
                    continue;
                }
                samples += 1;
                let block = a.addr.block(self.granularity);
                if let Some(prev) = last_sample.insert(block, accesses) {
                    // gap between the two samples, minus the endpoints
                    rd.record(ReuseDistance::finite(accesses - prev - 1), 1.0);
                    pairs += 1;
                }
            }
        }
        // Scale to the full run: blocks sampled once are cold *candidates*.
        let singles = samples - pairs;
        if singles > 0 {
            rd.record(ReuseDistance::INFINITE, singles as f64);
        }
        if samples > 0 {
            rd.as_histogram_mut()
                .scale(accesses as f64 / samples as f64);
        }
        let tool_bytes = (std::mem::size_of::<Self>() + last_sample.capacity() * 48) as u64;
        BaselineProfile {
            rd,
            accesses,
            observed_accesses: samples,
            tool_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Trace;

    #[test]
    fn hot_block_pairs_found() {
        // one block only: every sample hits it → pairs = samples − 1
        let trace = Trace::from_addresses("hot", std::iter::repeat_n(0x40u64, 10_000));
        let p = CounterOnly::new(100).profile(trace.stream());
        assert_eq!(p.observed_accesses, 100);
        // inter-sample gap is 100 accesses → recorded distance 99: a gross
        // overestimate of the true distance 0 — the baseline's failure mode
        assert!(p.rd.as_histogram().weight_for(99) > 0.0);
        assert_eq!(p.rd.as_histogram().weight_for(0), 0.0);
    }

    #[test]
    fn cold_stream_yields_no_pairs() {
        let trace = Trace::from_addresses("cold", (0..100_000u64).map(|i| i * 8));
        let p = CounterOnly::new(100).profile(trace.stream());
        assert_eq!(p.rd.as_histogram().finite_weight(), 0.0);
        assert!(p.rd.cold_weight() > 0.0);
    }

    #[test]
    fn featherlight_observation_count() {
        let trace = Trace::from_addresses("t", (0..100_000u64).map(|i| (i % 64) * 8));
        let p = CounterOnly::new(1000).profile(trace.stream());
        assert_eq!(p.observed_accesses, 100);
        assert!(p.slowdown(3.0, 250.0) < 1.1);
    }

    #[test]
    fn total_weight_scales_to_n() {
        let trace = Trace::from_addresses("t", (0..50_000u64).map(|i| (i % 16) * 8));
        let p = CounterOnly::new(500).profile(trace.stream());
        assert!((p.rd.total_weight() - 50_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = CounterOnly::new(0);
    }
}
