//! Property tests for the aggregation monoid and its wire format.
//!
//! The laws the fleet aggregator leans on, pinned over generated
//! inputs:
//!
//! * merge is **associative** and **commutative**, and the empty
//!   histogram / [`RdxProfile::empty_like`] is the **identity** — all
//!   at the level of exact `f64` bits. Generated weights are
//!   integer-valued (like every real profile weight: sums of `1.0`s or
//!   of integer sampling periods), so float addition is exact and the
//!   laws hold bit-for-bit, not approximately.
//! * `decode ∘ encode` is the identity on profiles, and decoding never
//!   panics: malformed input — including version and binning
//!   mismatches — yields typed [`WireError`]s.

use memsim::cost::{CostLedger, CostModel};
use proptest::prelude::*;
use rdx_core::{
    decode_profile, encode_profile, merge_batch, merge_histogram_batch, RdxProfile, WireError,
    RDXP_VERSION,
};
use rdx_histogram::{Binning, Histogram, RdHistogram, RtHistogram};
use rdx_trace::Granularity;

fn arb_histogram() -> impl Strategy<Value = Histogram> {
    (
        prop::collection::vec((0u64..1_000_000, 1u64..1_000), 0..40),
        0u64..1_000,
    )
        .prop_map(|(records, infinite)| {
            let mut h = Histogram::new(Binning::log2());
            for (value, weight) in records {
                h.record(value, weight as f64);
            }
            if infinite > 0 {
                h.record_infinite(infinite as f64);
            }
            h
        })
}

fn arb_profile() -> impl Strategy<Value = RdxProfile> {
    (
        (arb_histogram(), arb_histogram()),
        (1u64..1_000_000, 0u64..10_000, 0u64..10_000),
        prop::collection::vec(0u64..1_000, 5..6),
    )
        .prop_map(|((rd, rt), (accesses, samples, traps), extras)| {
            let cost = CostModel::default();
            let ledger = CostLedger {
                accesses,
                samples,
                traps,
                arms: 0,
            };
            RdxProfile {
                rd: RdHistogram::from(rd),
                rt: RtHistogram::from(rt),
                granularity: Granularity::CACHE_LINE,
                accesses,
                samples,
                traps,
                evictions: extras[0],
                end_censored: extras[1],
                dropped_samples: extras[2],
                duplicate_samples: extras[3],
                m_estimate: extras[4] as f64,
                // Canonical: the overhead a runner would have recorded
                // for these counts — what merging must preserve.
                time_overhead: ledger.time_overhead(&cost),
                profiler_bytes: 4096 + extras[0],
                cost,
            }
        })
}

fn merge2_hist(a: &Histogram, b: &Histogram) -> Histogram {
    merge_histogram_batch(vec![a.clone(), b.clone()])
        .expect("same binning")
        .expect("non-empty batch")
}

fn merge2(a: &RdxProfile, b: &RdxProfile) -> RdxProfile {
    merge_batch(vec![a.clone(), b.clone()], 1)
        .expect("compatible profiles")
        .expect("non-empty batch")
}

proptest! {
    #[test]
    fn histogram_merge_is_associative(a in arb_histogram(), b in arb_histogram(), c in arb_histogram()) {
        let left = merge2_hist(&merge2_hist(&a, &b), &c);
        let right = merge2_hist(&a, &merge2_hist(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_is_commutative(a in arb_histogram(), b in arb_histogram()) {
        prop_assert_eq!(merge2_hist(&a, &b), merge2_hist(&b, &a));
    }

    #[test]
    fn empty_histogram_is_the_identity(a in arb_histogram()) {
        let empty = Histogram::new(a.binning());
        prop_assert_eq!(merge2_hist(&a, &empty), a.clone());
        prop_assert_eq!(merge2_hist(&empty, &a), a);
    }

    #[test]
    fn profile_merge_is_associative(a in arb_profile(), b in arb_profile(), c in arb_profile()) {
        let left = merge2(&merge2(&a, &b), &c);
        let right = merge2(&a, &merge2(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn profile_merge_is_commutative(a in arb_profile(), b in arb_profile()) {
        prop_assert_eq!(merge2(&a, &b), merge2(&b, &a));
    }

    #[test]
    fn empty_profile_is_the_identity(a in arb_profile()) {
        prop_assert_eq!(merge2(&a, &a.empty_like()), a.clone());
        prop_assert_eq!(merge2(&a.empty_like(), &a), a);
    }

    #[test]
    fn wire_round_trip_is_the_identity(p in arb_profile()) {
        let back = decode_profile(&encode_profile(&p)).expect("own encoding decodes");
        prop_assert_eq!(back, p);
    }

    #[test]
    fn round_trip_through_wire_then_merge_preserves_the_monoid(a in arb_profile(), b in arb_profile()) {
        // serialize ∘ deserialize commutes with merge.
        let direct = merge2(&a, &b);
        let via_wire = merge2(
            &decode_profile(&encode_profile(&a)).expect("decodes"),
            &decode_profile(&encode_profile(&b)).expect("decodes"),
        );
        prop_assert_eq!(direct, via_wire);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine; panicking is not.
        let _ = decode_profile(&bytes);
    }

    #[test]
    fn decoding_corrupted_encodings_never_panics(
        p in arb_profile(),
        offset in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = encode_profile(&p);
        let i = offset % bytes.len();
        bytes[i] = byte;
        let _ = decode_profile(&bytes);
    }

    #[test]
    fn version_mismatch_is_a_typed_error(p in arb_profile(), raw in 0u16..u16::MAX) {
        let version = if raw == RDXP_VERSION { u16::MAX } else { raw };
        let mut bytes = encode_profile(&p);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            decode_profile(&bytes),
            Err(WireError::VersionMismatch { found: version, expected: RDXP_VERSION })
        );
    }

    #[test]
    fn binning_mismatch_across_shards_is_a_typed_error(a in arb_histogram(), width in 1u64..1_000) {
        let odd = Histogram::new(Binning::linear(width));
        let err = merge_histogram_batch(vec![a, odd]).unwrap_err();
        // The typed error carries both sides' parameters.
        let msg = err.to_string();
        prop_assert!(msg.contains("log2(subs=1)"), "{}", msg);
        prop_assert!(msg.contains(&format!("linear(width={width})")), "{}", msg);
    }
}
