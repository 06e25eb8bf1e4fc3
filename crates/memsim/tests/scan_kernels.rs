//! Scalar-vs-SIMD equivalence for the needle scanner.
//!
//! [`NeedleSet::scan`] is the oracle; every kernel in `memsim::kernels`
//! must produce the identical [`ScanOutcome`] — same first-match
//! offset, same store prefix — for arbitrary needle counts, store-only
//! mixes, run lengths and match offsets. Runs are generated with a
//! deliberate bias toward the needle ranges so hits land at arbitrary
//! block offsets (including block-straddling tails), not just never.

use memsim::kernels::{run_scan, scan_kernels};
use memsim::{KernelChoice, KernelKind, NeedleSet};
use proptest::prelude::*;
use rdx_trace::Access;

/// Every kernel kind that must agree with the oracle. `Simd` is always
/// exercised: on hosts without AVX2 it degrades to the scalar kernel
/// inside `run_scan`, which must *still* match the oracle.
const KINDS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Simd];

fn needle_strategy() -> impl Strategy<Value = (u64, u64, bool)> {
    // Aligned 8-byte spans near the generated address range, plus
    // arbitrary (unaligned, wide, even wrapping) ranges: the kernels
    // must agree on the raw predicate, not just on armable ranges.
    prop_oneof![
        (0u64..64, Just(8u64), any::<bool>()).prop_map(|(s, w, o)| (s * 8, w, o)),
        (any::<u64>(), 0u64..1 << 48, any::<bool>()),
    ]
}

fn run_strategy() -> impl Strategy<Value = Vec<Access>> {
    // Addresses biased into the needles' aligned window so matches are
    // common at arbitrary offsets; stores mixed throughout.
    prop::collection::vec(
        (
            prop_oneof![3 => 0u64..512, 1 => any::<u64>()],
            any::<bool>(),
        ),
        0..220,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(a, s)| if s { Access::store(a) } else { Access::load(a) })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// All kernels reproduce the oracle's outcome exactly.
    #[test]
    fn kernels_match_scalar_oracle(
        needles in prop::collection::vec(needle_strategy(), 0..7),
        run in run_strategy(),
    ) {
        let set = NeedleSet::from_ranges(&needles);
        let want = set.scan(&run);
        for kind in KINDS {
            let got = run_scan(kind, &set, &run);
            prop_assert_eq!(got, want, "kernel {} deviates", kind.name());
        }
    }

    /// Block boundaries hold no surprises: a single guaranteed hit
    /// planted at every offset of a run is found at that offset by
    /// every kernel, with the same store prefix.
    #[test]
    fn planted_hit_found_at_every_offset(
        len in 1usize..40,
        hit_at_frac in 0.0f64..1.0,
        store_mix in any::<u64>(),
    ) {
        let hit_at = ((len - 1) as f64 * hit_at_frac) as usize;
        let set = NeedleSet::from_ranges(&[(0x10_0000, 8, false)]);
        let run: Vec<Access> = (0..len)
            .map(|i| {
                let addr = if i == hit_at { 0x10_0004 } else { (i as u64) * 8 };
                if store_mix >> (i % 64) & 1 == 1 {
                    Access::store(addr)
                } else {
                    Access::load(addr)
                }
            })
            .collect();
        let want = set.scan(&run);
        prop_assert_eq!(want.first_match, Some(hit_at));
        for kind in KINDS {
            prop_assert_eq!(run_scan(kind, &set, &run), want, "kernel {}", kind.name());
        }
    }
}

/// The capability table always offers scalar, has no SWAR row, and
/// resolution never lands on an unavailable row.
#[test]
fn capability_table_is_sound() {
    let table = scan_kernels();
    assert!(table
        .iter()
        .any(|e| e.kind == KernelKind::Scalar && e.available));
    assert!(table.iter().all(|e| e.kind != KernelKind::Swar));
    for choice in [
        KernelChoice::Auto,
        KernelChoice::Scalar,
        KernelChoice::Swar,
        KernelChoice::Simd,
    ] {
        let kind = memsim::kernels::resolve_scan(choice);
        assert!(
            table.iter().any(|e| e.kind == kind && e.available),
            "{} resolved to unavailable {}",
            choice.name(),
            kind.name()
        );
    }
}
