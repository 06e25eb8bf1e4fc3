//! Production-vs-oracle equivalence for the needle scanner.
//!
//! [`NeedleSet::scan`] is the oracle; the production scan
//! [`memsim::kernels::scan`] (AVX2 where this host has it, the oracle's
//! own loop elsewhere) must return the identical first-match offset
//! for arbitrary needle counts, store-only mixes, run lengths and
//! match offsets. Runs are generated with a deliberate bias toward the
//! needle ranges so hits land at arbitrary block offsets (including
//! block-straddling tails), not just never. Runs are columnar views
//! that may start at any bit of a store bitmap word, so each offset is
//! also checked against a walk over the plain `(address, is_store)`
//! pairs the view was built from.

use memsim::kernels::scan;
use memsim::NeedleSet;
use proptest::prelude::*;
use rdx_trace::{Access, AccessBuf};

fn needle_strategy() -> impl Strategy<Value = (u64, u64, bool)> {
    // Aligned 8-byte spans near the generated address range, plus
    // arbitrary (unaligned, wide, even wrapping) ranges: the kernels
    // must agree on the raw predicate, not just on armable ranges.
    prop_oneof![
        (0u64..64, Just(8u64), any::<bool>()).prop_map(|(s, w, o)| (s * 8, w, o)),
        (any::<u64>(), 0u64..1 << 48, any::<bool>()),
    ]
}

fn run_strategy() -> impl Strategy<Value = AccessBuf> {
    // Addresses biased into the needles' aligned window so matches are
    // common at arbitrary offsets; stores mixed throughout. Half the
    // runs are 1–72 accesses long, a segment at a dense sampling
    // period, where the kernel's per-call setup shows.
    let access = || {
        (
            prop_oneof![3 => 0u64..512, 1 => any::<u64>()],
            any::<bool>(),
        )
    };
    prop_oneof![
        prop::collection::vec(access(), 1..73),
        prop::collection::vec(access(), 0..220),
    ]
    .prop_map(|v: Vec<(u64, bool)>| {
        v.into_iter()
            .map(|(a, s)| if s { Access::store(a) } else { Access::load(a) })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The production scan reproduces the oracle's outcome exactly in
    /// every instance: 0–4 needles (one instance per count) and the
    /// generic one at 5 and 64, each with every needle read-write and
    /// with write-only needles mixed in.
    #[test]
    fn kernels_match_scalar_oracle(
        needles in prop::collection::vec(needle_strategy(), 64..65),
        run in run_strategy(),
    ) {
        for count in [0usize, 1, 2, 3, 4, 5, 64] {
            for gated in [false, true] {
                // A gated set's first needle is write-only; the rest
                // keep their drawn kind.
                let ranges: Vec<(u64, u64, bool)> = needles[..count]
                    .iter()
                    .enumerate()
                    .map(|(j, &(base, span, w))| (base, span, gated && (j == 0 || w)))
                    .collect();
                let set = NeedleSet::from_ranges(&ranges);
                let want = set.scan(run.as_slice());
                prop_assert_eq!(
                    scan(&set, run.as_slice()),
                    want,
                    "count={} gated={}",
                    count,
                    gated
                );
            }
        }
    }

    /// Block boundaries hold no surprises: a single guaranteed hit
    /// planted at every offset of a run is found at that offset by the
    /// production scan.
    #[test]
    fn planted_hit_found_at_every_offset(
        len in 1usize..40,
        hit_at_frac in 0.0f64..1.0,
        store_mix in any::<u64>(),
    ) {
        let hit_at = ((len - 1) as f64 * hit_at_frac) as usize;
        let set = NeedleSet::from_ranges(&[(0x10_0000, 8, false)]);
        let run: AccessBuf = (0..len)
            .map(|i| {
                let addr = if i == hit_at { 0x10_0004 } else { (i as u64) * 8 };
                if store_mix >> (i % 64) & 1 == 1 {
                    Access::store(addr)
                } else {
                    Access::load(addr)
                }
            })
            .collect();
        let want = set.scan(run.as_slice());
        prop_assert_eq!(want, Some(hit_at));
        prop_assert_eq!(scan(&set, run.as_slice()), want);
    }

    /// Views that start at every bit offset 0..=127 into the store
    /// bitmap, 0..=300 accesses long, under 0–64 needles mixing
    /// read-write and write-only ranges (the top aligned block, whose
    /// end wraps to zero, included): the oracle's outcome is the one a
    /// plain walk over the source pairs gives, and the production scan
    /// reproduces it.
    #[test]
    fn kernels_match_oracle_at_every_bitmap_offset(
        offset in 0usize..128,
        len in 0usize..301,
        pool in prop::collection::vec(
            (
                prop_oneof![
                    2 => 0u64..4096,
                    6 => any::<u64>(),
                    1 => (u64::MAX - 16)..u64::MAX,
                    1 => Just(u64::MAX),
                ],
                any::<bool>(),
            ),
            428..429,
        ),
        needles in prop::collection::vec(
            prop_oneof![
                4 => (0u64..512, any::<bool>()).prop_map(|(s, w)| (s * 8, 8u64, w)),
                1 => any::<bool>().prop_map(|w| (!7u64, 8u64, w)),
            ],
            0..65,
        ),
    ) {
        let pairs = &pool[..offset + len];
        let buf: AccessBuf = pairs
            .iter()
            .map(|&(a, s)| if s { Access::store(a) } else { Access::load(a) })
            .collect();
        let run = buf.as_slice().slice(offset..);
        let pairs = &pairs[offset..];
        let hits = |&(a, s): &(u64, bool)| {
            needles
                .iter()
                .any(|&(base, span, write_only): &(u64, u64, bool)| {
                    a.wrapping_sub(base) < span && (s || !write_only)
                })
        };
        let first = pairs.iter().position(hits);
        let set = NeedleSet::from_ranges(&needles);
        prop_assert_eq!(set.scan(run), first);
        prop_assert_eq!(scan(&set, run), first);
    }
}
