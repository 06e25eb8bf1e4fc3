//! Exact average-footprint curves (higher-order theory of locality).
//!
//! The *average footprint* `fp(w)` of a trace is the mean number of distinct
//! blocks in a window of `w` consecutive accesses, averaged over all
//! `n − w + 1` windows. Xiang et al. showed `fp` is computable in linear
//! time from the distribution of *access intervals*: each block contributes
//! the gaps between its consecutive accesses plus two boundary gaps (before
//! its first and after its last access), and a window of length `w` misses a
//! block exactly when it fits inside one of that block's gaps:
//!
//! ```text
//! fp(w) = m − (1/(n−w+1)) · Σ_{ℓ ∈ L, ℓ > w} (ℓ − w)
//! ```
//!
//! where `L` holds, for every block, its first-access index `f` (1-based),
//! its reverse last-access index `n − last`, and the index differences of
//! consecutive accesses.
//!
//! RDX's key insight builds on this: reuse *time* is cheap to sample with
//! hardware, and `fp` converts reuse time to reuse *distance* — the reuse
//! distance of a pair with reuse time `t` is `≈ fp(t)`. This module provides
//! the exact curve; `rdx-core` builds the sampled estimate.

use crate::fxhash::FxHashMap;
use rdx_trace::{AccessStream, Granularity};

/// An exact average-footprint curve, queryable at any window length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintCurve {
    n: u64,
    m: u64,
    /// All access-interval lengths, sorted ascending.
    lengths: Vec<u64>,
    /// `suffix[i]` = sum of `lengths[i..]`.
    suffix: Vec<u128>,
}

impl FootprintCurve {
    /// Measures the exact footprint curve of a stream at the given
    /// granularity.
    #[must_use]
    pub fn measure(mut stream: impl AccessStream, granularity: Granularity) -> FootprintCurve {
        let mut last: FxHashMap<u64, u64> = FxHashMap::default();
        let mut first: FxHashMap<u64, u64> = FxHashMap::default();
        let mut lengths: Vec<u64> = Vec::new();
        let mut time: u64 = 0; // 0-based access index
        while let Some(chunk) = stream.next_chunk(usize::MAX) {
            for a in chunk {
                let block = a.addr.block(granularity);
                match last.insert(block, time) {
                    None => {
                        first.insert(block, time + 1); // 1-based first index
                    }
                    Some(prev) => lengths.push(time - prev),
                }
                time += 1;
            }
        }
        let n = time;
        for (&block, &f) in &first {
            lengths.push(f);
            let l0 = last[&block];
            lengths.push(n - l0);
        }
        Self::from_parts(n, first.len() as u64, lengths)
    }

    /// Builds a curve from raw parts: trace length, distinct block count,
    /// and the full multiset of access-interval lengths. Exposed for the
    /// sampled estimator in `rdx-core`, which assembles approximate
    /// intervals.
    #[must_use]
    pub fn from_parts(n: u64, m: u64, mut lengths: Vec<u64>) -> FootprintCurve {
        lengths.sort_unstable();
        let mut suffix = vec![0u128; lengths.len() + 1];
        for i in (0..lengths.len()).rev() {
            suffix[i] = suffix[i + 1] + u128::from(lengths[i]);
        }
        FootprintCurve {
            n,
            m,
            lengths,
            suffix,
        }
    }

    /// Trace length.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.n
    }

    /// Distinct block count (`fp` saturates to this).
    #[must_use]
    pub fn distinct_blocks(&self) -> u64 {
        self.m
    }

    /// Average number of distinct blocks in a window of `w` accesses.
    ///
    /// `w` is clamped to the trace length; `fp(0) = 0` and `fp(n) = m`.
    #[must_use]
    pub fn fp(&self, w: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let w = w.min(self.n);
        let idx = self.lengths.partition_point(|&l| l <= w);
        let cnt = (self.lengths.len() - idx) as u128;
        let sum = self.suffix[idx];
        let miss_mass = sum - u128::from(w) * cnt;
        let windows = self.n - w + 1;
        let fp = self.m as f64 - miss_mass as f64 / windows as f64;
        fp.max(0.0)
    }

    /// Inverse query: the smallest window length whose average footprint
    /// reaches `target` blocks (binary search over the monotone curve).
    /// Returns `n` if even the full trace does not reach it.
    #[must_use]
    pub fn window_for_footprint(&self, target: f64) -> u64 {
        if self.fp(self.n) < target {
            return self.n;
        }
        let (mut lo, mut hi) = (0u64, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.fp(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// Directly measures the average footprint of window length `w` by sliding
/// a window over `blocks` — O(n) per window length. The oracle against
/// which [`FootprintCurve`] is property-tested.
#[must_use]
pub fn direct_average_footprint(blocks: &[u64], w: usize) -> f64 {
    let n = blocks.len();
    if w == 0 || n == 0 || w > n {
        return if w == 0 { 0.0 } else { f64::NAN };
    }
    let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
    let mut distinct_sum = 0u64;
    for &b in &blocks[..w] {
        *counts.entry(b).or_insert(0) += 1;
    }
    distinct_sum += counts.len() as u64;
    for i in w..n {
        let out = blocks[i - w];
        let c = counts.get_mut(&out).expect("outgoing block tracked");
        *c -= 1;
        if *c == 0 {
            counts.remove(&out);
        }
        *counts.entry(blocks[i]).or_insert(0) += 1;
        distinct_sum += counts.len() as u64;
    }
    distinct_sum as f64 / (n - w + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Trace;

    fn curve_of(blocks: &[u64]) -> FootprintCurve {
        let t = Trace::from_addresses("fp", blocks.iter().copied());
        FootprintCurve::measure(t.stream(), Granularity::BYTE)
    }

    #[test]
    fn tiny_example_by_hand() {
        // trace: a b a  → fp(1)=1, fp(2)=2, fp(3)=2
        let c = curve_of(&[10, 20, 10]);
        assert_eq!(c.accesses(), 3);
        assert_eq!(c.distinct_blocks(), 2);
        assert!((c.fp(1) - 1.0).abs() < 1e-12);
        assert!((c.fp(2) - 2.0).abs() < 1e-12);
        assert!((c.fp(3) - 2.0).abs() < 1e-12);
        assert_eq!(c.fp(0), 0.0);
    }

    #[test]
    fn matches_direct_measurement() {
        let blocks: Vec<u64> = (0..400u64).map(|i| (i * 31 + i * i / 5) % 29).collect();
        let c = curve_of(&blocks);
        for w in [1usize, 2, 3, 5, 10, 50, 100, 399, 400] {
            let direct = direct_average_footprint(&blocks, w);
            let formula = c.fp(w as u64);
            assert!(
                (direct - formula).abs() < 1e-9,
                "w={w}: direct={direct} formula={formula}"
            );
        }
    }

    #[test]
    fn monotone_nondecreasing() {
        let blocks: Vec<u64> = (0..500u64).map(|i| (i * 17) % 97).collect();
        let c = curve_of(&blocks);
        let mut last = 0.0;
        for w in 0..=500u64 {
            let v = c.fp(w);
            assert!(v >= last - 1e-9, "fp must be non-decreasing at w={w}");
            last = v;
        }
    }

    #[test]
    fn saturates_at_distinct_count() {
        let c = curve_of(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(c.fp(6), 3.0);
        assert_eq!(c.fp(u64::MAX), 3.0); // clamped
    }

    #[test]
    fn single_block_trace() {
        let c = curve_of(&[5, 5, 5, 5]);
        for w in 1..=4u64 {
            assert!((c.fp(w) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_trace() {
        let c = curve_of(&[]);
        assert_eq!(c.fp(0), 0.0);
        assert_eq!(c.fp(10), 0.0);
        assert_eq!(c.accesses(), 0);
    }

    #[test]
    fn window_for_footprint_inverse() {
        let blocks: Vec<u64> = (0..1000u64).map(|i| i % 50).collect();
        let c = curve_of(&blocks);
        for target in [1.0, 10.0, 25.0, 49.9] {
            let w = c.window_for_footprint(target);
            assert!(c.fp(w) >= target, "fp({w}) >= {target}");
            if w > 0 {
                assert!(c.fp(w - 1) < target, "minimality at {w}");
            }
        }
        // unreachable target clamps to n
        assert_eq!(c.window_for_footprint(1000.0), 1000);
    }

    #[test]
    fn direct_oracle_edge_cases() {
        assert_eq!(direct_average_footprint(&[], 0), 0.0);
        assert!(direct_average_footprint(&[1], 2).is_nan());
        assert_eq!(direct_average_footprint(&[1, 1, 1], 2), 1.0);
    }
}
