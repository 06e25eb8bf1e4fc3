//! Property-based invariants spanning crates: the algorithms agree with
//! brute-force oracles and with each other on arbitrary inputs.

use proptest::prelude::*;
use rdx::groundtruth::{
    brute_force_rd, footprint::direct_average_footprint, ExactProfile, FootprintCurve, OlkenTracker,
};
use rdx::histogram::accuracy::histogram_intersection;
use rdx::histogram::{Binning, MissRatioCurve};
use rdx::traces::{io, Granularity, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Olken's algorithm (over its Fenwick tree) matches the O(n²)
    /// brute-force oracle on arbitrary block sequences.
    #[test]
    fn olken_matches_brute_force(blocks in prop::collection::vec(0u64..40, 1..250)) {
        let expect = brute_force_rd(&blocks);
        let mut fen = OlkenTracker::new();
        for (i, &b) in blocks.iter().enumerate() {
            prop_assert_eq!(fen.access(b), expect[i]);
        }
    }

    /// Xiang's linear-time footprint formula equals direct sliding-window
    /// measurement for every window length.
    #[test]
    fn footprint_formula_matches_direct(blocks in prop::collection::vec(0u64..25, 1..150)) {
        let trace = Trace::from_addresses("p", blocks.iter().copied());
        let fp = FootprintCurve::measure(trace.stream(), Granularity::BYTE);
        for w in 1..=blocks.len() {
            let direct = direct_average_footprint(&blocks, w);
            prop_assert!((fp.fp(w as u64) - direct).abs() < 1e-6,
                "w={} formula={} direct={}", w, fp.fp(w as u64), direct);
        }
    }

    /// Trace serialization round-trips arbitrary access sequences.
    #[test]
    fn trace_io_roundtrip(accesses in prop::collection::vec((any::<u64>(), any::<bool>()), 0..300)) {
        let trace: Trace = accesses.iter().copied().collect();
        let back = io::from_bytes(io::to_bytes(&trace)).expect("roundtrip");
        prop_assert_eq!(trace.accesses(), back.accesses());
    }

    /// Miss-ratio curves derived from exact histograms are monotone
    /// non-increasing in capacity and bounded in [floor, 1].
    #[test]
    fn mrc_monotone(blocks in prop::collection::vec(0u64..60, 1..300)) {
        let trace = Trace::from_addresses("m", blocks.iter().map(|b| b * 8));
        let exact = ExactProfile::measure(trace.stream(), Granularity::WORD, Binning::log2());
        let mrc = MissRatioCurve::from_rd_histogram(&exact.rd);
        let mut last = 1.0f64;
        for cap in 0..80u64 {
            let m = mrc.miss_ratio(cap);
            prop_assert!(m <= last + 1e-9);
            prop_assert!(m >= mrc.floor() - 1e-9);
            last = m;
        }
    }

    /// The accuracy metric is symmetric, bounded, and 1 on identity.
    #[test]
    fn accuracy_metric_properties(
        a in prop::collection::vec((0u64..1000, 0.0f64..10.0), 1..50),
        b in prop::collection::vec((0u64..1000, 0.0f64..10.0), 1..50),
    ) {
        let build = |pairs: &[(u64, f64)]| {
            let mut h = rdx::histogram::Histogram::new(Binning::log2());
            for &(v, w) in pairs {
                h.record(v, w);
            }
            h
        };
        let ha = build(&a);
        let hb = build(&b);
        let ab = histogram_intersection(&ha, &hb).unwrap();
        let ba = histogram_intersection(&hb, &ha).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0).contains(&ab));
        let aa = histogram_intersection(&ha, &ha).unwrap();
        if !ha.is_empty() {
            prop_assert!((aa - 1.0).abs() < 1e-9, "identity");
        }
    }

    /// Reuse-distance is granularity-monotone per access: whenever an
    /// access has a finite distance at byte granularity, its distance at
    /// line granularity is finite and no larger. (Note the converse fails:
    /// coarsening *creates* finite distances for same-line neighbours.)
    #[test]
    fn coarser_granularity_dominates_per_access(addrs in prop::collection::vec(0u64..2000, 1..300)) {
        let mut fine = OlkenTracker::new();
        let mut coarse = OlkenTracker::new();
        let mut cold_fine = 0u64;
        let mut cold_coarse = 0u64;
        for &a in &addrs {
            let df = fine.access(a);
            let dc = coarse.access(a >> 6);
            match (df.value(), dc.value()) {
                (Some(f), Some(c)) => prop_assert!(c <= f, "coarse {} > fine {}", c, f),
                (Some(_), None) => prop_assert!(false, "coarse reuse must exist when fine does"),
                (None, _) => cold_fine += 1,
            }
            if dc.is_infinite() {
                cold_coarse += 1;
            }
        }
        prop_assert!(cold_coarse <= cold_fine);
        prop_assert!(coarse.distinct_blocks() <= fine.distinct_blocks());
    }
}

/// Historical shrink from `proptest_invariants.proptest-regressions`,
/// pinned as an explicit case because the vendored proptest shim does not
/// replay that file: a 2^62 address delta zigzags into the top bit of a
/// u64, and with the kind bit appended the record only fits a u128
/// varint — the widest record the codec must round-trip.
#[test]
fn regression_trace_io_roundtrip_two_pow_62_delta() {
    let accesses = [(0u64, false), (4_611_686_018_427_387_904u64, false)];
    let trace: Trace = accesses.iter().copied().collect();
    let back = io::from_bytes(io::to_bytes(&trace)).expect("roundtrip");
    assert_eq!(trace.accesses(), back.accesses());
}
