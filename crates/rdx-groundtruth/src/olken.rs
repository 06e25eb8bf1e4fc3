//! Olken's exact reuse-distance algorithm.

use crate::fxhash::FxHashMap;
use crate::structure::FenwickStructure;
use rdx_histogram::ReuseDistance;

/// Exact per-access reuse-distance measurement (Olken's algorithm).
///
/// For each access the tracker returns the number of distinct blocks
/// touched since the previous access to the same block, or
/// [`ReuseDistance::INFINITE`] for a block seen for the first time. A
/// [`FenwickStructure`] over access timestamps counts the distinct
/// blocks.
#[derive(Debug, Clone, Default)]
pub struct OlkenTracker {
    structure: FenwickStructure,
    // Fx-hashed: one probe per access makes this the tracker's hottest
    // map, and the deterministic hasher keeps runs seed-independent.
    last_access: FxHashMap<u64, u64>,
    time: u64,
}

impl OlkenTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an access to `block`, returning its exact reuse distance.
    pub fn access(&mut self, block: u64) -> ReuseDistance {
        let now = self.time;
        self.time += 1;
        let rd = match self.last_access.insert(block, now) {
            None => ReuseDistance::INFINITE,
            Some(prev) => {
                let distinct_since = self.structure.count_greater(prev);
                self.structure.remove(prev);
                ReuseDistance::finite(distinct_since)
            }
        };
        self.structure.insert_latest(now);
        rd
    }

    /// Number of accesses processed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.time
    }

    /// Number of distinct blocks seen so far.
    #[must_use]
    pub fn distinct_blocks(&self) -> u64 {
        self.last_access.len() as u64
    }

    /// Approximate heap bytes used by the tracker — the "memory bloat" an
    /// exhaustive tool pays: one hash-map entry per distinct block plus
    /// the Fenwick tree, one counter per access so far.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        // HashMap entry ≈ key + value + bucket control byte, amortized over
        // the load factor; use the conventional 48-byte estimate per entry.
        std::mem::size_of::<Self>()
            + self.last_access.capacity() * 48
            + self.structure.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_example() {
        // trace: a b c a  → a's reuse distance is 2 (b and c in between)
        let mut o = OlkenTracker::new();
        assert_eq!(o.access(0xa), ReuseDistance::INFINITE);
        assert_eq!(o.access(0xb), ReuseDistance::INFINITE);
        assert_eq!(o.access(0xc), ReuseDistance::INFINITE);
        assert_eq!(o.access(0xa), ReuseDistance::finite(2));
        assert_eq!(o.accesses(), 4);
        assert_eq!(o.distinct_blocks(), 3);
    }

    #[test]
    fn immediate_reuse_is_zero() {
        let mut o = OlkenTracker::new();
        o.access(1);
        assert_eq!(o.access(1), ReuseDistance::finite(0));
        assert_eq!(o.access(1), ReuseDistance::finite(0));
    }

    #[test]
    fn repeated_block_does_not_double_count() {
        // a b b a: distinct between the two a's is just {b} → distance 1
        let mut o = OlkenTracker::new();
        o.access(0xa);
        o.access(0xb);
        o.access(0xb);
        assert_eq!(o.access(0xa), ReuseDistance::finite(1));
    }

    #[test]
    fn cyclic_trace_distance() {
        // cycling over k blocks: steady-state distance k−1
        let k = 10u64;
        let mut o = OlkenTracker::new();
        for round in 0..5 {
            for b in 0..k {
                let rd = o.access(b);
                if round == 0 {
                    assert!(rd.is_infinite());
                } else {
                    assert_eq!(rd, ReuseDistance::finite(k - 1));
                }
            }
        }
    }

    #[test]
    fn memory_grows_with_footprint_not_length() {
        // At equal trace length the Fenwick tree is the same size, so
        // the difference is the hash map: one entry per distinct block.
        let mut small = OlkenTracker::new();
        let mut large = OlkenTracker::new();
        for i in 0..100_000u64 {
            small.access(i % 16);
            large.access(i % 16_384);
        }
        assert_eq!(
            small.structure.memory_bytes(),
            large.structure.memory_bytes()
        );
        let map_bytes = |o: &OlkenTracker| o.memory_bytes() - o.structure.memory_bytes();
        assert!(map_bytes(&large) > 100 * map_bytes(&small));
        assert!(large.memory_bytes() > small.memory_bytes());
    }
}
