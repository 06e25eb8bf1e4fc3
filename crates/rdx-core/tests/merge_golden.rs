//! Golden exactness for fleet aggregation.
//!
//! Two anchors, both bit-level:
//!
//! * **Shard partials.** `ShardedExact::rt_partials` yields each
//!   shard's exactly-shardable reuse-time histogram and cold count.
//!   Merging those partials through `merge_histogram_batch` must
//!   reproduce the whole-trace reuse-time
//!   histogram bucket for bucket, and the cold counts must compose into
//!   the merged cold (infinite) weight. This pins the cold-correction
//!   composition rule: cold weight is additive under merge.
//! * **Registry digest.** The `metrics_determinism.rs` golden digest
//!   (`0x17ea_4869_2cad_4966`) must survive a trip through the RDXP
//!   wire format and `merge_batch` with the identity profile:
//!   aggregation machinery may never perturb a profile.

use rdx_core::{decode_profile, encode_profile, merge_batch, merge_histogram_batch};
use rdx_core::{RdxConfig, RdxRunner};
use rdx_groundtruth::{ExactProfile, ShardedExact};
use rdx_histogram::{Binning, Histogram};
use rdx_trace::Granularity;
use rdx_workloads::{suite, Params};

/// Same FNV-1a digest as `metrics_determinism.rs`, so the constant
/// below is directly comparable across the two tests.
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

/// The whole-registry digest recorded by `metrics_determinism.rs`.
const GOLDEN: u64 = 0x17ea_4869_2cad_4966;

#[test]
fn shard_partials_merge_to_the_whole_trace_histogram() {
    let params = Params::default().with_accesses(30_000).with_elements(700);
    let granularity = Granularity::CACHE_LINE;
    let binning = Binning::log2();
    for w in suite().iter().take(4) {
        let whole = ExactProfile::measure(w.stream(&params), granularity, binning);
        let whole_rt = whole.rt.into_histogram();
        for shards in [2usize, 3, 7] {
            let partials =
                ShardedExact::new(shards).rt_partials(w.stream(&params), granularity, binning);
            assert_eq!(partials.len(), shards);
            let total_cold: u64 = partials.iter().map(|(_, cold)| cold).sum();
            let hists: Vec<Histogram> = partials
                .into_iter()
                .map(|(rt, _)| rt.into_histogram())
                .collect();
            let merged = merge_histogram_batch(hists)
                .expect("shards share one binning")
                .expect("at least one shard");
            assert_eq!(
                merged, whole_rt,
                "{w}: {shards} shards merged deviate from the whole-trace \
                 reuse-time histogram"
            );
            // Cold correction composes additively: every shard's first
            // touches land in the merged cold bucket.
            assert_eq!(merged.infinite_weight(), total_cold as f64, "{w}");
        }
    }
}

#[test]
fn registry_digest_survives_wire_and_merge_with_identity() {
    let params = Params::default().with_accesses(60_000).with_elements(800);
    let config = RdxConfig::default().with_period(512).with_seed(7);
    let profiles: Vec<_> = suite()
        .iter()
        .map(|w| RdxRunner::new(config).profile(w.stream(&params)))
        .collect();
    let mut digest = Digest::new();
    for p in &profiles {
        let decoded = decode_profile(&encode_profile(p)).expect("own encoding decodes");
        let merged = merge_batch(vec![decoded, p.empty_like()], 1)
            .expect("identical binnings are compatible")
            .expect("non-empty batch");
        digest.push_histogram(merged.rd.as_histogram());
        digest.push_histogram(merged.rt.as_histogram());
        digest.push(merged.samples);
        digest.push(merged.traps);
        digest.push(merged.evictions);
        digest.push(merged.m_estimate.to_bits());
    }
    assert_eq!(
        digest.0, GOLDEN,
        "digest {:#018x} deviates from the recorded registry baseline — wire \
         round-trip or identity merge perturbed a profile",
        digest.0
    );
}

#[test]
fn sharded_measure_equals_merged_partials_cold_accounting() {
    // The partition pass and the full sharded measurement must agree on
    // cold counts: distinct blocks == sum of per-shard first touches.
    let params = Params::default().with_accesses(20_000).with_elements(500);
    let w = &suite()[0];
    let granularity = Granularity::CACHE_LINE;
    let binning = Binning::log2();
    let engine = ShardedExact::new(4);
    let full = engine.measure(w.stream(&params), granularity, binning);
    let partials = engine.rt_partials(w.stream(&params), granularity, binning);
    let total_cold: u64 = partials.iter().map(|(_, cold)| cold).sum();
    assert_eq!(full.distinct_blocks, total_cold);
}
