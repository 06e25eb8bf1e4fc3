//! Fleet aggregation: the profile monoid and its in-order fold.
//!
//! [`RdxProfile`] forms a commutative monoid under merge: histograms
//! add bucket-wise, counters (samples, traps, evictions, censoring
//! metadata) add, `m_estimate` adds (the distinct-block estimate of a
//! union of disjoint shards is the sum of the shard estimates — the
//! property the `ShardedExact` golden test pins), and the identity is
//! [`RdxProfile::empty_like`]. Reuse-*time* histograms merged before
//! footprint conversion are provably exact, so this is the safe level
//! to aggregate at; `time_overhead` is a *ratio*, not a sum, and is
//! recomputed from the merged event counts at the end of every
//! batch (the same [`CostLedger`] formula the runner uses, so merging
//! with the identity is bit-invisible).
//!
//! **Determinism.** `f64` addition is not associative, so the batch
//! merges fold their inputs strictly in input order, one
//! [`Histogram::merge`] per input: bucket `j` of the result is
//! `((h0[j] + h1[j]) + h2[j]) + …`, bit-identical to a chained pairwise
//! merge. A merge costs O(buckets) per input (about 64 log2 buckets),
//! so the fold runs on the caller's thread.

use crate::report::RdxProfile;
use memsim::cost::CostLedger;
use rdx_histogram::{BinningMismatch, Histogram};
use rdx_trace::Granularity;
use std::fmt;

/// Typed failure of a profile merge: the inputs are not aggregatable.
///
/// Every variant is recoverable — `rdx merge` reports it and exits
/// cleanly rather than panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeError {
    /// Reuse-distance histograms disagree on binning.
    RdBinning(BinningMismatch),
    /// Reuse-time histograms disagree on binning.
    RtBinning(BinningMismatch),
    /// Profiles were taken at different granularities.
    Granularity {
        /// Granularity of the first profile.
        left: Granularity,
        /// Granularity of the offending profile.
        right: Granularity,
    },
    /// Profiles carry different cost models, so overhead ratios would
    /// not be comparable after merging.
    CostModel,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::RdBinning(e) => write!(f, "reuse-distance {e}"),
            MergeError::RtBinning(e) => write!(f, "reuse-time {e}"),
            MergeError::Granularity { left, right } => {
                write!(f, "profile granularities differ: {left} vs {right}")
            }
            MergeError::CostModel => write!(f, "profile cost models differ"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Checks that `b` can be merged into `a`.
fn check_compatible(a: &RdxProfile, b: &RdxProfile) -> Result<(), MergeError> {
    let (ra, rb) = (a.rd.as_histogram().binning(), b.rd.as_histogram().binning());
    if ra != rb {
        return Err(MergeError::RdBinning(BinningMismatch {
            left: ra,
            right: rb,
        }));
    }
    let (ta, tb) = (a.rt.as_histogram().binning(), b.rt.as_histogram().binning());
    if ta != tb {
        return Err(MergeError::RtBinning(BinningMismatch {
            left: ta,
            right: tb,
        }));
    }
    if a.granularity != b.granularity {
        return Err(MergeError::Granularity {
            left: a.granularity,
            right: b.granularity,
        });
    }
    if a.cost != b.cost {
        return Err(MergeError::CostModel);
    }
    Ok(())
}

/// Merges `src` into `dst` (already validated as compatible).
/// `time_overhead` is left stale here; [`finalize`] recomputes it once
/// at the end of the batch.
fn merge_into(dst: &mut RdxProfile, src: &RdxProfile) -> Result<(), MergeError> {
    dst.rd.merge(&src.rd).map_err(MergeError::RdBinning)?;
    dst.rt.merge(&src.rt).map_err(MergeError::RtBinning)?;
    dst.accesses = dst.accesses.saturating_add(src.accesses);
    dst.samples = dst.samples.saturating_add(src.samples);
    dst.traps = dst.traps.saturating_add(src.traps);
    dst.evictions = dst.evictions.saturating_add(src.evictions);
    dst.end_censored = dst.end_censored.saturating_add(src.end_censored);
    dst.dropped_samples = dst.dropped_samples.saturating_add(src.dropped_samples);
    dst.duplicate_samples = dst.duplicate_samples.saturating_add(src.duplicate_samples);
    dst.profiler_bytes = dst.profiler_bytes.saturating_add(src.profiler_bytes);
    dst.m_estimate += src.m_estimate;
    Ok(())
}

/// Recomputes the ratio metadata that does not add under merge: the
/// time overhead of the aggregate is the ledger formula over the merged
/// event counts — exactly how the runner computed it for each input, so
/// canonical profiles survive a merge with the identity bit-for-bit.
fn finalize(mut p: RdxProfile) -> RdxProfile {
    let ledger = CostLedger {
        accesses: p.accesses,
        samples: p.samples,
        traps: p.traps,
        arms: 0,
    };
    p.time_overhead = ledger.time_overhead(&p.cost);
    p
}

/// Merges a batch of profiles into one fleet profile by folding them
/// in input order (see the module docs).
///
/// Returns `Ok(None)` for an empty batch. `jobs` is ignored: the fold
/// is sequential, so the result depends only on the profiles and their
/// order.
///
/// # Errors
///
/// Returns a [`MergeError`] if any profile is incompatible with the
/// first (binning, granularity, or cost model). Compatibility is
/// validated up front — on error no work has been done.
pub fn merge_batch(
    profiles: Vec<RdxProfile>,
    _jobs: usize,
) -> Result<Option<RdxProfile>, MergeError> {
    let mut profiles = profiles.into_iter();
    let Some(mut merged) = profiles.next() else {
        return Ok(None);
    };
    let rest = profiles.as_slice();
    for p in rest {
        check_compatible(&merged, p)?;
    }
    rdx_metrics::counter("rdx.merge.batches").add(1);
    rdx_metrics::counter("rdx.merge.profiles").add(rest.len() as u64 + 1);
    for p in rest {
        merge_into(&mut merged, p)?;
    }
    Ok(Some(finalize(merged)))
}

/// Merges a batch of raw histograms into one by folding them in input
/// order with [`Histogram::merge`], exactly like [`merge_batch`].
///
/// This is the reuse-time aggregation primitive: per-shard RT
/// histograms merged here and *then* converted to reuse distance are
/// provably exact, which the `ShardedExact` golden test exercises.
/// Returns `Ok(None)` for an empty batch.
///
/// # Errors
///
/// Returns [`BinningMismatch`] if any histogram's binning differs from
/// the first's.
pub fn merge_histogram_batch(
    histograms: Vec<Histogram>,
) -> Result<Option<Histogram>, BinningMismatch> {
    let mut histograms = histograms.into_iter();
    let Some(mut merged) = histograms.next() else {
        return Ok(None);
    };
    let count = histograms.len() as u64 + 1;
    for h in histograms {
        merged.merge(&h)?;
    }
    rdx_metrics::counter("rdx.merge.batches").add(1);
    rdx_metrics::counter("rdx.merge.profiles").add(count);
    Ok(Some(merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::cost::CostModel;
    use rdx_histogram::{Binning, RdHistogram, ReuseDistance, ReuseTime, RtHistogram};

    fn profile(seed: u64) -> RdxProfile {
        let mut rd = RdHistogram::new(Binning::log2());
        let mut rt = RtHistogram::new(Binning::log2());
        for k in 0..20u64 {
            rd.record(
                ReuseDistance::finite(seed * 13 + k * k),
                1.0 + (k % 5) as f64,
            );
            rt.record(ReuseTime::finite(seed * 7 + k * 3), 2.0);
        }
        rd.record(ReuseDistance::INFINITE, seed as f64 + 1.0);
        rt.record(ReuseTime::INFINITE, seed as f64 + 1.0);
        RdxProfile {
            rd,
            rt,
            granularity: Granularity::CACHE_LINE,
            accesses: 10_000 + seed,
            samples: 100 + seed,
            traps: 90 + seed,
            evictions: seed % 3,
            end_censored: seed % 5,
            dropped_samples: 0,
            duplicate_samples: seed % 2,
            m_estimate: 50.0 + seed as f64,
            time_overhead: 0.0,
            profiler_bytes: 1 << 16,
            cost: CostModel::default(),
        }
    }

    fn bits(h: &Histogram) -> Vec<u64> {
        let mut out: Vec<u64> = h.weights().iter().map(|w| w.to_bits()).collect();
        out.push(h.infinite_weight().to_bits());
        out.push(h.observations());
        out
    }

    #[test]
    fn empty_batch_merges_to_none() {
        assert!(merge_batch(Vec::new(), 4).unwrap().is_none());
        assert!(merge_histogram_batch(Vec::new()).unwrap().is_none());
    }

    #[test]
    fn batch_merges_equal_chained_pairwise_merge() {
        // Non-integer weights (so f64 add order shows in the bits) and
        // ragged touched widths: both batch merges must equal a chained
        // pairwise Histogram::merge fold bit for bit.
        let batch: Vec<RdxProfile> = (0..37u64)
            .map(|seed| {
                let mut p = profile(seed);
                let w = 0.1 * seed as f64 + 1.0 / 3.0;
                p.rd.record(ReuseDistance::finite(1 << (seed % 23)), w);
                p.rt.record(ReuseTime::finite(1 << (seed % 29)), w / 7.0);
                p.m_estimate += w;
                p
            })
            .collect();
        let mut want = batch[0].clone();
        for p in &batch[1..] {
            want.rd.merge(&p.rd).unwrap();
            want.rt.merge(&p.rt).unwrap();
            want.m_estimate += p.m_estimate;
        }
        let got = merge_batch(batch.clone(), 3).unwrap().unwrap();
        assert_eq!(bits(got.rd.as_histogram()), bits(want.rd.as_histogram()));
        assert_eq!(bits(got.rt.as_histogram()), bits(want.rt.as_histogram()));
        assert_eq!(got.m_estimate.to_bits(), want.m_estimate.to_bits());
        assert_eq!(got.accesses, batch.iter().map(|p| p.accesses).sum::<u64>());
        assert_eq!(got.traps, batch.iter().map(|p| p.traps).sum::<u64>());

        let rd_rows: Vec<Histogram> = batch.iter().map(|p| p.rd.as_histogram().clone()).collect();
        let got = merge_histogram_batch(rd_rows).unwrap().unwrap();
        assert_eq!(bits(&got), bits(want.rd.as_histogram()));
    }

    #[test]
    fn incompatible_binning_is_typed_and_upfront() {
        let mut batch: Vec<RdxProfile> = (0..3).map(profile).collect();
        let mut odd = profile(9);
        odd.rd = RdHistogram::new(Binning::linear(64));
        batch.push(odd);
        match merge_batch(batch, 2) {
            Err(MergeError::RdBinning(e)) => {
                assert_eq!(e.right, Binning::linear(64));
            }
            other => panic!("expected RdBinning error, got {other:?}"),
        }
    }

    #[test]
    fn incompatible_granularity_and_cost_are_typed() {
        let mut gran = profile(1);
        gran.granularity = Granularity::PAGE;
        assert!(matches!(
            merge_batch(vec![profile(0), gran], 1),
            Err(MergeError::Granularity { .. })
        ));
        let mut cost = profile(1);
        cost.cost.cycles_per_trap += 1.0;
        assert_eq!(
            merge_batch(vec![profile(0), cost], 1).unwrap_err(),
            MergeError::CostModel
        );
    }

    #[test]
    fn counters_and_overhead_compose() {
        let batch: Vec<RdxProfile> = (0..5).map(profile).collect();
        let total_accesses: u64 = batch.iter().map(|p| p.accesses).sum();
        let total_samples: u64 = batch.iter().map(|p| p.samples).sum();
        let merged = merge_batch(batch, 2).unwrap().unwrap();
        assert_eq!(merged.accesses, total_accesses);
        assert_eq!(merged.samples, total_samples);
        let ledger = CostLedger {
            accesses: merged.accesses,
            samples: merged.samples,
            traps: merged.traps,
            arms: 0,
        };
        assert_eq!(
            merged.time_overhead.to_bits(),
            ledger.time_overhead(&merged.cost).to_bits()
        );
    }
}
