//! Single-pass trace statistics.

use crate::event::Granularity;
use crate::stream::AccessStream;
use std::collections::BTreeSet;

/// Summary statistics of an access stream, computed in one pass.
///
/// Used by the workload-suite table (T1) and as sanity checks in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Granularity at which distinct blocks were counted.
    pub granularity: Granularity,
    /// Total number of accesses.
    pub accesses: u64,
    /// Number of stores (the rest are loads).
    pub stores: u64,
    /// Number of distinct blocks touched (the working-set footprint).
    pub distinct_blocks: u64,
    /// Lowest byte address seen (`u64::MAX` when empty).
    pub min_addr: u64,
    /// Highest byte address seen (0 when empty).
    pub max_addr: u64,
}

impl TraceStats {
    /// Computes statistics by draining the given stream.
    #[must_use]
    pub fn measure(mut stream: impl AccessStream, granularity: Granularity) -> TraceStats {
        let mut stats = TraceStats {
            granularity,
            accesses: 0,
            stores: 0,
            distinct_blocks: 0,
            min_addr: u64::MAX,
            max_addr: 0,
        };
        // Ordered set: bounded by the footprint like a hash set, but
        // deterministic (rdx-trace is a hot crate — no SipHash).
        let mut blocks: BTreeSet<u64> = BTreeSet::new();
        while let Some(chunk) = stream.next_chunk(usize::MAX) {
            stats.accesses += chunk.len() as u64;
            stats.stores += chunk.stores_in(..);
            for a in chunk {
                let raw = a.addr.raw();
                stats.min_addr = stats.min_addr.min(raw);
                stats.max_addr = stats.max_addr.max(raw);
                blocks.insert(a.addr.block(granularity));
            }
        }
        stats.distinct_blocks = blocks.len() as u64;
        stats
    }

    /// Fraction of accesses that are stores (0 for an empty trace).
    #[must_use]
    pub fn store_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.stores as f64 / self.accesses as f64
        }
    }

    /// Footprint in bytes: distinct blocks × block size.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.distinct_blocks
            .saturating_mul(self.granularity.block_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn measures_counts_and_bounds() {
        let t: Trace = [(0u64, false), (64, true), (0, false), (128, true)]
            .into_iter()
            .collect();
        let s = TraceStats::measure(t.stream(), Granularity::CACHE_LINE);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.stores, 2);
        assert_eq!(s.distinct_blocks, 3);
        assert_eq!(s.min_addr, 0);
        assert_eq!(s.max_addr, 128);
        assert_eq!(s.store_ratio(), 0.5);
        assert_eq!(s.footprint_bytes(), 3 * 64);
    }

    #[test]
    fn granularity_changes_distinct_count() {
        let t = Trace::from_addresses("g", [0u64, 8, 16, 64]);
        let byte = TraceStats::measure(t.stream(), Granularity::BYTE);
        let line = TraceStats::measure(t.stream(), Granularity::CACHE_LINE);
        assert_eq!(byte.distinct_blocks, 4);
        assert_eq!(line.distinct_blocks, 2);
    }

    #[test]
    fn empty_stream() {
        let t = Trace::new("e");
        let s = TraceStats::measure(t.stream(), Granularity::CACHE_LINE);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.store_ratio(), 0.0);
        assert_eq!(s.min_addr, u64::MAX);
        assert_eq!(s.max_addr, 0);
        assert_eq!(s.footprint_bytes(), 0);
    }
}
