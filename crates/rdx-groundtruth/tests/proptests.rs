//! Property tests: structures against a naive oracle, Olken against brute
//! force, footprint formula against direct windowed measurement.

use proptest::prelude::*;
use rdx_groundtruth::footprint::direct_average_footprint;
use rdx_groundtruth::{brute_force_rd, FenwickStructure, FootprintCurve, OlkenTracker};
use rdx_trace::{Granularity, Trace};

#[derive(Debug, Clone)]
enum Op {
    Insert,
    RemoveNth(usize),
    CountGreater(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            2 => Just(Op::Insert),
            1 => any::<usize>().prop_map(Op::RemoveNth),
            2 => (0u64..500).prop_map(Op::CountGreater),
        ],
        1..120,
    )
}

proptest! {
    /// The Fenwick order-statistic tree agrees with a Vec oracle under
    /// arbitrary interleavings of insert/remove/count.
    #[test]
    fn structures_match_oracle(ops in arb_ops()) {
        let mut fen = FenwickStructure::new();
        let mut oracle: Vec<u64> = Vec::new();
        let mut t = 0u64;
        for op in ops {
            match op {
                Op::Insert => {
                    fen.insert_latest(t);
                    oracle.push(t);
                    t += 3;
                }
                Op::RemoveNth(i) if !oracle.is_empty() => {
                    let v = oracle.swap_remove(i % oracle.len());
                    prop_assert!(fen.remove(v));
                }
                Op::RemoveNth(_) => {}
                Op::CountGreater(q) => {
                    let expect = oracle.iter().filter(|&&x| x > q).count() as u64;
                    prop_assert_eq!(fen.count_greater(q), expect);
                }
            }
            prop_assert_eq!(fen.len(), oracle.len() as u64);
        }
    }

    /// Olken with the default structure matches brute force; cold count
    /// equals distinct blocks.
    #[test]
    fn olken_brute_force(blocks in prop::collection::vec(0u64..30, 1..200)) {
        let expect = brute_force_rd(&blocks);
        let mut olken = OlkenTracker::new();
        let mut cold = 0;
        for (i, &b) in blocks.iter().enumerate() {
            let d = olken.access(b);
            prop_assert_eq!(d, expect[i]);
            if d.is_infinite() {
                cold += 1;
            }
        }
        prop_assert_eq!(cold, olken.distinct_blocks());
    }

    /// The footprint curve is monotone, bounded by m, and matches direct
    /// measurement at sampled window sizes.
    #[test]
    fn footprint_properties(blocks in prop::collection::vec(0u64..20, 2..120)) {
        let trace = Trace::from_addresses("f", blocks.iter().copied());
        let fp = FootprintCurve::measure(trace.stream(), Granularity::BYTE);
        let n = blocks.len() as u64;
        let mut last = 0.0;
        for w in 0..=n {
            let v = fp.fp(w);
            prop_assert!(v >= last - 1e-9, "monotone at {}", w);
            prop_assert!(v <= fp.distinct_blocks() as f64 + 1e-9);
            last = v;
        }
        for w in [1u64, n / 2, n] {
            if w >= 1 {
                let direct = direct_average_footprint(&blocks, w as usize);
                prop_assert!((fp.fp(w) - direct).abs() < 1e-6, "w={}", w);
            }
        }
    }
}
