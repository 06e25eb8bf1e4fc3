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
//!
//! The AVX2 scan reads only the low address column (the low 32 bits),
//! so accesses whose low words collide under different high words are
//! where it could go wrong; one proptest draws little else.

use memsim::kernels::{self, ScanTally};
use memsim::NeedleSet;
use proptest::prelude::*;
use rdx_trace::{Access, AccessBuf, AccessSlice};

/// The production scan, its tally dropped.
fn scan(set: &NeedleSet, run: AccessSlice<'_>) -> Option<usize> {
    kernels::scan(set, run, &mut ScanTally::default())
}

fn run_of(pairs: &[(u64, bool)]) -> AccessBuf {
    pairs
        .iter()
        .map(|&(a, s)| if s { Access::store(a) } else { Access::load(a) })
        .collect()
}

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
        let buf = run_of(pairs);
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

/// A naturally aligned 1-, 2-, 4- or 8-byte block, the only ranges the
/// register file arms, in one of a few high words.
fn armable_needle(highs: &'static [u64]) -> impl Strategy<Value = (u64, u64, bool)> {
    ((0..highs.len(), 0u64..64), 0u32..4, any::<bool>()).prop_map(
        move |((k, slot), width, write_only)| {
            let hi = highs[k];
            let span = 1u64 << width;
            ((hi << 32) | ((slot * 8) & !(span - 1)), span, write_only)
        },
    )
}

/// High words the colliding proptest draws from: neighbouring regions
/// (array `r` of a registry kernel sits at `r << 32`), far apart ones
/// and the top of the address space.
const HIGHS: &[u64] = &[0, 1, 2, 3, 7, 8, 0x1234, 0xffff_fffe, 0xffff_ffff];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Accesses whose low words collide with the needles' under other
    /// high words: the same element of another region, and the element
    /// one span past it, whose low word misses the needle's block by
    /// one. The production scan returns the
    /// oracle's offset in gated and ungated sets of 1–4, 5 and 64
    /// needles, and the oracle is the plain walk over the pairs.
    #[test]
    fn colliding_low_words_never_fool_the_scan(
        needles in prop::collection::vec(armable_needle(HIGHS), 64..65),
        picks in prop::collection::vec(
            ((0usize..64, 0..HIGHS.len()), (0u64..8, 0u8..3), any::<bool>()),
            0..200,
        ),
    ) {
        // Each access copies a needle's slot into another high word:
        // the same element (kind 0), the next block's element (kind 1),
        // or a hit (kind 2).
        let pairs: Vec<(u64, bool)> = picks
            .iter()
            .map(|&((j, k), (byte, kind), store)| {
                let hi = HIGHS[k];
                let (base, span, _) = needles[j];
                let at = base + byte % span;
                let addr = match kind {
                    0 => (hi << 32) | (at & 0xffff_ffff),
                    1 => (hi << 32) | (at.wrapping_add(span) & 0xffff_ffff),
                    _ => at,
                };
                (addr, store)
            })
            .collect();
        let run = run_of(&pairs);
        for count in [1usize, 2, 3, 4, 5, 64] {
            for gated in [false, true] {
                let ranges: Vec<(u64, u64, bool)> = needles[..count]
                    .iter()
                    .enumerate()
                    .map(|(j, &(base, span, w))| (base, span, gated && (j == 0 || w)))
                    .collect();
                let first = pairs.iter().position(|&(a, s)| {
                    ranges
                        .iter()
                        .any(|&(base, span, w)| a.wrapping_sub(base) < span && (s || !w))
                });
                let set = NeedleSet::from_ranges(&ranges);
                prop_assert_eq!(set.scan(run.as_slice()), first);
                prop_assert_eq!(
                    scan(&set, run.as_slice()),
                    first,
                    "count={} gated={}",
                    count,
                    gated
                );
            }
        }
    }
}
