//! The weighted histogram type.

use crate::binning::{Binning, BucketRange};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A weighted histogram over the `u64` domain plus a dedicated *infinite*
/// bucket.
///
/// Weights are `f64` because sampled observations carry statistical weight:
/// one RDX sample taken with period `P` stands for `P` real accesses, and
/// censoring corrections further scale weights by survival probabilities.
///
/// The infinite bucket records values that conceptually lie beyond any
/// finite distance — cold accesses (never reused) in reuse-distance
/// histograms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    binning: Binning,
    buckets: Vec<f64>,
    infinite: f64,
    /// Unweighted number of `record` calls (observation count).
    observations: u64,
}

/// One (finite) bucket of a histogram, as yielded by [`Histogram::buckets`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Index of the bucket within the histogram's binning.
    pub index: usize,
    /// Value range covered by the bucket.
    pub range: BucketRange,
    /// Total weight recorded in the bucket.
    pub weight: f64,
}

impl Histogram {
    /// Creates an empty histogram with the given binning.
    #[must_use]
    pub fn new(binning: Binning) -> Self {
        Histogram {
            binning,
            buckets: Vec::new(),
            infinite: 0.0,
            observations: 0,
        }
    }

    /// The binning scheme of this histogram.
    #[must_use]
    pub fn binning(&self) -> Binning {
        self.binning
    }

    /// Records a finite value with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn record(&mut self, value: u64, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "histogram weight must be finite and non-negative, got {weight}"
        );
        let idx = self.binning.index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += weight;
        self.observations += 1;
    }

    /// Records an infinite (cold) observation with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn record_infinite(&mut self, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "histogram weight must be finite and non-negative, got {weight}"
        );
        self.infinite += weight;
        self.observations += 1;
    }

    /// Adds weight directly to a bucket index (used by histogram
    /// transformations that operate bucket-wise).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn record_bucket(&mut self, index: usize, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "histogram weight must be finite and non-negative, got {weight}"
        );
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0.0);
        }
        self.buckets[index] += weight;
        self.observations += 1;
    }

    /// Total recorded weight, including the infinite bucket.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.finite_weight() + self.infinite
    }

    /// Total weight in finite buckets.
    #[must_use]
    pub fn finite_weight(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Weight in the infinite (cold) bucket.
    #[must_use]
    pub fn infinite_weight(&self) -> f64 {
        self.infinite
    }

    /// Number of `record*` calls, ignoring weights.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Weight recorded in bucket `index` (0 for never-touched buckets).
    #[must_use]
    pub fn weight_at(&self, index: usize) -> f64 {
        self.buckets.get(index).copied().unwrap_or(0.0)
    }

    /// Weight recorded in the bucket containing `value`.
    #[must_use]
    pub fn weight_for(&self, value: u64) -> f64 {
        self.weight_at(self.binning.index_of(value))
    }

    /// Returns true if no weight has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_weight() == 0.0
    }

    /// Iterates over non-empty finite buckets in increasing value order.
    pub fn buckets(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(move |(index, &weight)| Bucket {
                index,
                range: self.binning.range_of(index),
                weight,
            })
    }

    /// Number of allocated finite buckets (the highest touched index + 1).
    #[must_use]
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// The dense finite-bucket weight array, indexed by bucket index.
    ///
    /// Buckets beyond the highest touched index are not represented;
    /// use [`Histogram::weight_at`] for sparse lookups. This is the raw
    /// view bulk merge kernels operate on.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.buckets
    }

    /// Decomposes the histogram into `(binning, buckets, infinite,
    /// observations)` — the inverse of [`Histogram::from_parts`].
    #[must_use]
    pub fn into_parts(self) -> (Binning, Vec<f64>, f64, u64) {
        (self.binning, self.buckets, self.infinite, self.observations)
    }

    /// Reassembles a histogram from raw parts.
    ///
    /// The caller vouches that every weight is finite and non-negative
    /// (the invariant `record*` enforces); merge engines use this to
    /// rebuild histograms whose bucket arrays were combined out-of-place
    /// by a bulk kernel. Untrusted input (wire decode) must go through
    /// [`Histogram::try_from_parts`] instead.
    #[must_use]
    pub fn from_parts(
        binning: Binning,
        buckets: Vec<f64>,
        infinite: f64,
        observations: u64,
    ) -> Histogram {
        Histogram {
            binning,
            buckets,
            infinite,
            observations,
        }
    }

    /// Validating variant of [`Histogram::from_parts`] for untrusted
    /// input: returns `None` unless every weight (finite buckets and the
    /// infinite bucket) is finite and non-negative.
    #[must_use]
    pub fn try_from_parts(
        binning: Binning,
        buckets: Vec<f64>,
        infinite: f64,
        observations: u64,
    ) -> Option<Histogram> {
        let ok = |w: f64| w.is_finite() && w >= 0.0;
        if !ok(infinite) || !buckets.iter().all(|&w| ok(w)) {
            return None;
        }
        Some(Histogram::from_parts(
            binning,
            buckets,
            infinite,
            observations,
        ))
    }

    /// Merges another histogram into this one.
    ///
    /// # Errors
    ///
    /// Returns [`BinningMismatch`] if the binnings differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), BinningMismatch> {
        if self.binning != other.binning {
            return Err(BinningMismatch {
                left: self.binning,
                right: other.binning,
            });
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0.0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.infinite += other.infinite;
        self.observations = self.observations.saturating_add(other.observations);
        Ok(())
    }

    /// Multiplies every weight (finite and infinite) by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        for w in &mut self.buckets {
            *w *= factor;
        }
        self.infinite *= factor;
    }

    /// Returns a copy normalized to total weight 1.0.
    ///
    /// An empty histogram normalizes to an empty histogram.
    #[must_use]
    pub fn normalized(&self) -> Histogram {
        let mut out = self.clone();
        let total = out.total_weight();
        if total > 0.0 {
            out.scale(1.0 / total);
        }
        out
    }

    /// Weighted mean of finite bucket representatives. Returns `None` if no
    /// finite weight has been recorded.
    #[must_use]
    pub fn finite_mean(&self) -> Option<f64> {
        let fw = self.finite_weight();
        if fw == 0.0 {
            return None;
        }
        let sum: f64 = self
            .buckets()
            .map(|b| b.range.representative() as f64 * b.weight)
            .sum();
        Some(sum / fw)
    }

    /// The smallest bucket representative `v` such that at least `q` of the
    /// finite weight lies in buckets `<= v`. `q` must be in `[0, 1]`.
    ///
    /// Returns `None` for an empty (finite part) histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn finite_quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0,1]");
        let fw = self.finite_weight();
        if fw == 0.0 {
            return None;
        }
        let target = q * fw;
        let mut acc = 0.0;
        let mut last = None;
        for b in self.buckets() {
            acc += b.weight;
            last = Some(b.range.representative());
            if acc >= target {
                return last;
            }
        }
        last
    }

    /// Fraction of total weight at finite values `<= v`.
    ///
    /// Buckets are counted whole: a bucket contributes if its entire range
    /// lies at or below `v`; the bucket containing `v` contributes
    /// proportionally to the covered fraction of its range (linear
    /// interpolation within the bucket).
    #[must_use]
    pub fn cdf_at(&self, v: u64) -> f64 {
        let total = self.total_weight();
        if total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for b in self.buckets() {
            if b.range.hi != u64::MAX && b.range.hi <= v.saturating_add(1) {
                acc += b.weight;
            } else if b.range.contains(v) {
                let span = if b.range.hi == u64::MAX {
                    1.0
                } else {
                    (b.range.hi - b.range.lo) as f64
                };
                let covered = (v - b.range.lo + 1) as f64;
                acc += b.weight * (covered / span).min(1.0);
            }
        }
        acc / total
    }

    /// Approximate heap memory used by this histogram, in bytes. Used by the
    /// memory-overhead accounting of the profiler.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buckets.capacity() * std::mem::size_of::<f64>()
    }
}

/// Error returned when combining histograms with different binnings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinningMismatch {
    /// Binning of the left-hand histogram.
    pub left: Binning,
    /// Binning of the right-hand histogram.
    pub right: Binning,
}

fn describe_binning(b: Binning) -> String {
    match b {
        Binning::Linear { width } => format!("linear(width={width})"),
        Binning::Log2 { subs } => format!("log2(subs={subs})"),
    }
}

impl fmt::Display for BinningMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "histogram binnings differ: left is {}, right is {}",
            describe_binning(self.left),
            describe_binning(self.right)
        )
    }
}

impl std::error::Error for BinningMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Histogram {
        Histogram::new(Binning::log2())
    }

    #[test]
    fn record_and_totals() {
        let mut hist = h();
        hist.record(0, 1.0);
        hist.record(5, 2.0);
        hist.record_infinite(3.0);
        assert_eq!(hist.total_weight(), 6.0);
        assert_eq!(hist.finite_weight(), 3.0);
        assert_eq!(hist.infinite_weight(), 3.0);
        assert_eq!(hist.observations(), 3);
        assert!(!hist.is_empty());
    }

    #[test]
    fn empty_histogram() {
        let hist = h();
        assert!(hist.is_empty());
        assert_eq!(hist.total_weight(), 0.0);
        assert_eq!(hist.finite_mean(), None);
        assert_eq!(hist.finite_quantile(0.5), None);
        assert_eq!(hist.cdf_at(100), 0.0);
    }

    #[test]
    fn weight_lookup() {
        let mut hist = h();
        hist.record(4, 1.5);
        hist.record(5, 0.5);
        // 4 and 5 share the [4,8) bucket under log2 binning
        assert_eq!(hist.weight_for(4), 2.0);
        assert_eq!(hist.weight_for(7), 2.0);
        assert_eq!(hist.weight_for(8), 0.0);
    }

    #[test]
    fn merge_same_binning() {
        let mut a = h();
        let mut b = h();
        a.record(1, 1.0);
        b.record(1, 2.0);
        b.record(100, 1.0);
        b.record_infinite(4.0);
        a.merge(&b).unwrap();
        assert_eq!(a.weight_for(1), 3.0);
        assert_eq!(a.weight_for(100), 1.0);
        assert_eq!(a.infinite_weight(), 4.0);
        assert_eq!(a.observations(), 4);
    }

    #[test]
    fn merge_binning_mismatch() {
        let mut a = h();
        let b = Histogram::new(Binning::linear(10));
        let err = a.merge(&b).unwrap_err();
        assert!(err.to_string().contains("differ"));
    }

    #[test]
    fn binning_mismatch_names_both_sides() {
        // The error must carry the offending parameters, not just the
        // condition: both the log2 sub-bucket count and the linear
        // bucket width appear in the rendered message.
        let mut a = Histogram::new(Binning::log2_sub(4));
        let b = Histogram::new(Binning::linear(128));
        let msg = a.merge(&b).unwrap_err().to_string();
        assert!(msg.contains("log2(subs=4)"), "message was: {msg}");
        assert!(msg.contains("linear(width=128)"), "message was: {msg}");
    }

    #[test]
    fn parts_round_trip() {
        let mut hist = h();
        hist.record(3, 2.0);
        hist.record(77, 1.5);
        hist.record_infinite(4.0);
        let original = hist.clone();
        let (binning, buckets, infinite, observations) = hist.into_parts();
        let back = Histogram::from_parts(binning, buckets, infinite, observations);
        assert_eq!(back, original);
        let (binning, buckets, infinite, observations) = back.clone().into_parts();
        let validated =
            Histogram::try_from_parts(binning, buckets, infinite, observations).unwrap();
        assert_eq!(validated, original);
    }

    #[test]
    fn try_from_parts_rejects_bad_weights() {
        let b = Binning::log2();
        assert!(Histogram::try_from_parts(b, vec![1.0, f64::NAN], 0.0, 2).is_none());
        assert!(Histogram::try_from_parts(b, vec![1.0, -2.0], 0.0, 2).is_none());
        assert!(Histogram::try_from_parts(b, vec![1.0], f64::INFINITY, 1).is_none());
        assert!(Histogram::try_from_parts(b, vec![1.0], -0.5, 1).is_none());
    }

    #[test]
    fn normalized_sums_to_one() {
        let mut hist = h();
        hist.record(3, 2.0);
        hist.record(300, 5.0);
        hist.record_infinite(3.0);
        let n = hist.normalized();
        assert!((n.total_weight() - 1.0).abs() < 1e-12);
        // proportions preserved
        assert!((n.infinite_weight() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut hist = h();
        for v in 0..100u64 {
            hist.record(v, 1.0);
        }
        let q50 = hist.finite_quantile(0.5).unwrap();
        // log2 buckets make this coarse; the median of 0..100 is ~50, which
        // lies in the [32,64) bucket with representative ~47.
        assert!((32..64).contains(&q50), "q50={q50}");
        let q0 = hist.finite_quantile(0.0).unwrap();
        assert_eq!(q0, 0);
    }

    #[test]
    fn cdf_monotone() {
        let mut hist = h();
        for v in [1u64, 5, 9, 200, 3000] {
            hist.record(v, 1.0);
        }
        hist.record_infinite(5.0);
        let mut last = 0.0;
        for v in [0u64, 1, 4, 10, 100, 1000, 10_000, 1_000_000] {
            let c = hist.cdf_at(v);
            assert!(c >= last - 1e-12, "cdf must be monotone");
            assert!(c <= 1.0 + 1e-12);
            last = c;
        }
        // half the weight is infinite, so finite cdf tops out at 0.5
        assert!((hist.cdf_at(u64::MAX / 2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn scale_and_mean() {
        let mut hist = h();
        hist.record(16, 1.0); // bucket [16,32), representative 23
        hist.scale(4.0);
        assert_eq!(hist.finite_weight(), 4.0);
        let m = hist.finite_mean().unwrap();
        assert!((16.0..32.0).contains(&m));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        h().record(1, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_weight_panics() {
        h().record(1, f64::NAN);
    }

    #[test]
    fn memory_accounting_grows() {
        let mut hist = h();
        let before = hist.memory_bytes();
        hist.record(u32::MAX as u64, 1.0);
        assert!(hist.memory_bytes() > before);
    }
}
