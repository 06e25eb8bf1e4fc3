//! Whole-stream exact measurement drivers.

use crate::fxhash::FxHashMap;
use crate::olken::OlkenTracker;
use rdx_histogram::{Binning, RdHistogram, ReuseDistance, ReuseTime, RtHistogram};
use rdx_trace::{AccessStream, Granularity};

/// The complete exact profile of an access stream: reuse-distance and
/// reuse-time histograms plus measurement bookkeeping.
///
/// This is the paper's ground truth: what an exhaustive instrumentation
/// tool produces, at exhaustive-instrumentation cost.
#[derive(Debug, Clone)]
pub struct ExactProfile {
    /// Exact reuse-distance histogram (each access weight 1).
    pub rd: RdHistogram,
    /// Exact reuse-time histogram (intervening-access convention: an
    /// immediately repeated access has reuse time 0).
    pub rt: RtHistogram,
    /// Granularity at which blocks were formed.
    pub granularity: Granularity,
    /// Total accesses measured.
    pub accesses: u64,
    /// Distinct blocks touched (equals the cold weight of `rd`).
    pub distinct_blocks: u64,
    /// Peak tracker memory in bytes — the exhaustive tool's memory bloat.
    pub tracker_bytes: usize,
}

impl ExactProfile {
    /// Measures a stream exhaustively with Olken's algorithm.
    #[must_use]
    pub fn measure(
        mut stream: impl AccessStream,
        granularity: Granularity,
        binning: Binning,
    ) -> ExactProfile {
        let mut olken = OlkenTracker::new();
        let mut last_time: FxHashMap<u64, u64> = FxHashMap::default();
        let mut rd = RdHistogram::new(binning);
        let mut rt = RtHistogram::new(binning);
        let mut time = 0u64;
        while let Some(chunk) = stream.next_chunk(usize::MAX) {
            for a in chunk {
                let block = a.addr.block(granularity);
                rd.record(olken.access(block), 1.0);
                let t = match last_time.insert(block, time) {
                    None => ReuseTime::INFINITE,
                    Some(prev) => ReuseTime::finite(time - prev - 1),
                };
                rt.record(t, 1.0);
                time += 1;
            }
        }
        ExactProfile {
            rd,
            rt,
            granularity,
            accesses: time,
            distinct_blocks: olken.distinct_blocks(),
            tracker_bytes: olken.memory_bytes(),
        }
    }

    /// Fraction of accesses that are cold (first touch of their block).
    #[must_use]
    pub fn cold_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.distinct_blocks as f64 / self.accesses as f64
        }
    }
}

/// O(n²) brute-force reuse distances, the oracle for property tests.
///
/// Returns one [`ReuseDistance`] per access (in block-number space — apply
/// granularity before calling).
#[must_use]
pub fn brute_force_rd(blocks: &[u64]) -> Vec<ReuseDistance> {
    let mut out = Vec::with_capacity(blocks.len());
    for (i, &b) in blocks.iter().enumerate() {
        let mut prev = None;
        for j in (0..i).rev() {
            if blocks[j] == b {
                prev = Some(j);
                break;
            }
        }
        match prev {
            None => out.push(ReuseDistance::INFINITE),
            Some(j) => {
                let mut distinct: Vec<u64> = blocks[j + 1..i].to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                out.push(ReuseDistance::finite(distinct.len() as u64));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Trace;

    #[test]
    fn brute_force_reference() {
        // a b c b a
        let rd = brute_force_rd(&[10, 20, 30, 20, 10]);
        assert_eq!(rd[0], ReuseDistance::INFINITE);
        assert_eq!(rd[1], ReuseDistance::INFINITE);
        assert_eq!(rd[2], ReuseDistance::INFINITE);
        assert_eq!(rd[3], ReuseDistance::finite(1)); // {c}
        assert_eq!(rd[4], ReuseDistance::finite(2)); // {b, c}
    }

    #[test]
    fn exact_profile_small_trace() {
        // byte addresses in distinct 64B lines: 0, 64, 0
        let t = Trace::from_addresses("p", [0u64, 64, 0]);
        let p = ExactProfile::measure(t.stream(), Granularity::CACHE_LINE, Binning::log2());
        assert_eq!(p.accesses, 3);
        assert_eq!(p.distinct_blocks, 2);
        assert_eq!(p.rd.cold_weight(), 2.0);
        // third access: distance 1
        assert_eq!(p.rd.as_histogram().weight_for(1), 1.0);
        // reuse time of third access: 1 intervening access
        assert_eq!(p.rt.as_histogram().weight_for(1), 1.0);
        assert!((p.cold_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn granularity_merges_blocks() {
        // 0 and 32 share a cache line: second access to the line is distance 0
        let t = Trace::from_addresses("g", [0u64, 32]);
        let line = ExactProfile::measure(t.stream(), Granularity::CACHE_LINE, Binning::log2());
        assert_eq!(line.distinct_blocks, 1);
        assert_eq!(line.rd.as_histogram().weight_for(0), 1.0);
        let byte = ExactProfile::measure(t.stream(), Granularity::BYTE, Binning::log2());
        assert_eq!(byte.distinct_blocks, 2);
        assert_eq!(byte.rd.cold_weight(), 2.0);
    }

    #[test]
    fn olken_matches_brute_force_on_pseudorandom_trace() {
        let blocks: Vec<u64> = (0..300u64).map(|i| (i * 7919 + i * i) % 23).collect();
        let expect = brute_force_rd(&blocks);
        let mut olken = OlkenTracker::new();
        for (i, &b) in blocks.iter().enumerate() {
            assert_eq!(olken.access(b), expect[i], "access {i}");
        }
    }

    #[test]
    fn rt_histogram_semantics() {
        // x . x : reuse time 1 ; x x : reuse time 0
        let t = Trace::from_addresses("rt", [0u64, 64, 0, 0]);
        let p = ExactProfile::measure(t.stream(), Granularity::CACHE_LINE, Binning::log2());
        assert_eq!(p.rt.as_histogram().weight_for(1), 1.0);
        assert_eq!(p.rt.as_histogram().weight_for(0), 1.0);
        assert_eq!(p.rt.cold_weight(), 2.0);
    }

    #[test]
    fn totals_match_access_count() {
        let t = Trace::from_addresses("tot", (0..1000u64).map(|i| (i % 77) * 64));
        let p = ExactProfile::measure(t.stream(), Granularity::CACHE_LINE, Binning::log2());
        assert_eq!(p.rd.total_weight(), 1000.0);
        assert_eq!(p.rt.total_weight(), 1000.0);
        assert_eq!(p.rd.cold_weight(), p.distinct_blocks as f64);
    }

    #[test]
    fn empty_stream() {
        let t = Trace::new("e");
        let p = ExactProfile::measure(t.stream(), Granularity::CACHE_LINE, Binning::log2());
        assert_eq!(p.accesses, 0);
        assert_eq!(p.cold_fraction(), 0.0);
        assert!(p.rd.as_histogram().is_empty());
    }
}
