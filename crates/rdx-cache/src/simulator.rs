//! A set-associative LRU cache simulator.

use crate::config::CacheConfig;
use rdx_trace::AccessStream;

/// Result of simulating a stream through a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResult {
    /// Accesses simulated.
    pub accesses: u64,
    /// Misses (including cold misses).
    pub misses: u64,
}

impl SimResult {
    /// Miss ratio (0 for an empty run).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Used to validate miss ratios predicted from reuse-distance histograms:
/// the prediction assumes full associativity, and the simulator quantifies
/// how much real set conflicts deviate from it.
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    sets: u64,
    /// Per-set ways, storing line tags; index 0 is MRU.
    lines: Vec<Vec<u64>>,
}

impl SetAssociativeCache {
    /// Builds an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        SetAssociativeCache {
            config,
            sets,
            lines: vec![Vec::with_capacity(config.ways as usize); sets as usize],
        }
    }

    /// The cache's geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses one byte address; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes;
        let set = (line % self.sets) as usize;
        let ways = &mut self.lines[set];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            // move to MRU
            let tag = ways.remove(pos);
            ways.insert(0, tag);
            return true;
        }
        if ways.len() == self.config.ways as usize {
            ways.pop(); // evict LRU
        }
        ways.insert(0, line);
        false
    }

    /// Simulates a whole stream, counting misses.
    pub fn simulate(&mut self, mut stream: impl AccessStream) -> SimResult {
        let mut result = SimResult {
            accesses: 0,
            misses: 0,
        };
        while let Some(chunk) = stream.next_chunk(usize::MAX) {
            for a in chunk {
                result.accesses += 1;
                if !self.access(a.addr.raw()) {
                    result.misses += 1;
                }
            }
        }
        result
    }

    /// Resets the cache to empty, keeping the geometry.
    pub fn clear(&mut self) {
        for set in &mut self.lines {
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Trace;

    fn tiny_cache(ways: u32, sets: u64) -> SetAssociativeCache {
        SetAssociativeCache::new(CacheConfig {
            name: "tiny",
            capacity_bytes: u64::from(ways) * sets * 64,
            ways,
            line_bytes: 64,
        })
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny_cache(2, 2);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 ways, 1 set: lines 0, 1 fill it; touching 0 keeps it MRU, so
        // line 2 evicts line 1.
        let mut c = tiny_cache(2, 1);
        c.access(0);
        c.access(64);
        c.access(0);
        c.access(128); // evicts line 1 (LRU)
        assert!(c.access(0), "line 0 must survive");
        assert!(!c.access(64), "line 1 was evicted");
    }

    #[test]
    fn set_conflicts_miss_despite_capacity() {
        // 1 way, 2 sets: lines 0 and 2 map to set 0 and conflict even
        // though the cache has 2 lines of capacity.
        let mut c = tiny_cache(1, 2);
        assert!(!c.access(0));
        assert!(!c.access(2 * 64));
        assert!(!c.access(0), "conflict miss");
    }

    #[test]
    fn simulate_cyclic_working_set() {
        // 8-line fully-assoc-ish cache (8 ways, 1 set); loop over 4 lines
        // fits entirely → only 4 cold misses.
        let mut c = tiny_cache(8, 1);
        let trace = Trace::from_addresses("fit", (0..1000u64).map(|i| (i % 4) * 64));
        let r = c.simulate(trace.stream());
        assert_eq!(r.misses, 4);
        assert!((r.miss_ratio() - 0.004).abs() < 1e-12);
        // loop over 16 lines thrashes LRU → ~100% misses
        let mut c2 = tiny_cache(8, 1);
        let trace2 = Trace::from_addresses("thrash", (0..1600u64).map(|i| (i % 16) * 64));
        let r2 = c2.simulate(trace2.stream());
        assert_eq!(r2.misses, 1600, "LRU thrashes a larger-than-cache loop");
    }

    #[test]
    fn clear_resets_contents() {
        let mut c = tiny_cache(2, 2);
        c.access(0);
        c.clear();
        assert!(!c.access(0));
    }

    #[test]
    fn empty_sim() {
        let mut c = tiny_cache(2, 2);
        let r = c.simulate(Trace::new("e").stream());
        assert_eq!(r.miss_ratio(), 0.0);
    }
}
