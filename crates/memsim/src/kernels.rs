//! The needle scanner's inner loop: AVX2 where the host has it, the
//! scalar oracle everywhere else.
//!
//! [`Machine::run`](crate::Machine::run)'s fast path owns the event
//! choreography (overflow gaps, trap replay, counter bulk-advance); the
//! per-access needle testing is [`scan`]. The host, not an option,
//! picks its loop:
//!
//! * **AVX2** on x86_64 CPUs where `is_x86_feature_detected!("avx2")`
//!   holds: eight 32-bit lanes of the run's low address column per
//!   compare, tested against each needle's low-column filter (an `and`
//!   and an `cmpeq` per needle, see [`NeedleSet`]), one instance per
//!   needle count for 1–4 needles and one generic instance for 5–64, so
//!   a call sets up only as many constants as there are armed
//!   registers. A block with a candidate lane is re-walked by the
//!   scalar oracle over its full addresses, so a false candidate (an
//!   access that differs from a needle only in its high word) costs a
//!   re-walk and never a wrong outcome. Its `unsafe` code is confined
//!   to this module and guarded by the feature check; the only other
//!   `unsafe` module is the decode kernels' (`rdx_trace::kernels`).
//! * **scalar** — [`NeedleSet::scan`], the unrolled per-access loop,
//!   everywhere else. It is also the oracle: [`scan`] must return the
//!   identical first-match offset on every input, which the equivalence
//!   proptests in `tests/scan_kernels.rs` enforce by calling both.
//!
//! Runs are columnar ([`AccessSlice`]): the AVX2 scan streams 4 bytes
//! of address per access (the low column), reads 8 per access only in
//! re-walked blocks, and reads the store bitmap only for write-only
//! needles. [`ScanTally`] counts both, once per machine chunk
//! (`rdx.machine.scan.bytes`, `rdx.machine.scan.false_candidates`).
//!
//! There is no SWAR scan: a blockwise one measured 0.7× scalar
//! (EXPERIMENTS.md P3).

#![allow(unsafe_code)]

use crate::scan::NeedleSet;
use rdx_trace::AccessSlice;

/// Accesses tested per block in the AVX2 kernel: one 8-lane compare.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// What the scans of a run read, summed over calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanTally {
    /// Accesses whose low address word a scan read: every access up to
    /// and including the hit, or the whole run when none hits.
    pub low_words: u64,
    /// Accesses whose high address word a scan read: those of re-walked
    /// candidate blocks on the AVX2 loop, every tested access on the
    /// scalar one.
    pub high_words: u64,
    /// Candidate blocks whose re-walk found no hit.
    pub false_candidates: u64,
}

impl ScanTally {
    /// Bytes of address columns read: 4 per word.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        4 * (self.low_words + self.high_words)
    }
}

/// Offset of the first access in `run` hitting any needle of `set`:
/// the AVX2 loop where this host has AVX2, else the oracle
/// [`NeedleSet::scan`]. Both give the same offset. What the call read
/// is added to `tally`; a set with no needles reads nothing.
#[inline]
pub fn scan(set: &NeedleSet, run: AccessSlice<'_>, tally: &mut ScanTally) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { avx2::first_match(set, run, tally) };
    }
    let hit = set.scan(run);
    if !set.is_empty() {
        let read = hit.map_or(run.len(), |off| off + 1) as u64;
        tally.low_words += read;
        tally.high_words += read;
    }
    hit
}

/// Whether [`scan`] runs the AVX2 loop on this host.
#[inline]
#[must_use]
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    let detected = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let detected = false;
    detected
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 lane kernel. All of memsim's `unsafe` lives here; every
    //! intrinsic call is guarded by the caller's feature check.
    //!
    //! The low address column is a plain `[u32]`, so each 8-access
    //! block is one unaligned 32-byte load straight into address lanes.
    //! Loads never read the high column or the store bitmap: only a
    //! re-walk needs the high words, and only write-only needles need
    //! the bitmap, from which they take the block's 8 bits.

    use super::{ScanTally, LANES};
    use crate::scan::{NeedleSet, MAX_NEEDLES};
    use rdx_trace::AccessSlice;
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_cmpeq_epi32, _mm256_loadu_si256, _mm256_or_si256,
        _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setzero_si256, _mm256_testz_si256,
    };

    /// Offset of the first access in `run` hitting any needle.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on this CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn first_match(
        set: &NeedleSet,
        run: AccessSlice<'_>,
        tally: &mut ScanTally,
    ) -> Option<usize> {
        // Monomorphize the kind gate away when every needle is
        // read-write (the paper's configuration): the gate ops vanish
        // from the hot loop instead of being re-tested per needle.
        let gated = set.store_only[..set.len()].iter().any(|&s| s);
        // Monomorphize the needle count for the x86 register file's
        // 1–4, so the constants are exactly as many as the armed
        // registers, stay in vector registers and the needle loop
        // unrolls; larger ablation sets take the one generic instance.
        match (set.len(), gated) {
            (0, _) => None,
            (1, false) => first_match_impl::<1, false>(set, run, tally),
            (1, true) => first_match_impl::<1, true>(set, run, tally),
            (2, false) => first_match_impl::<2, false>(set, run, tally),
            (2, true) => first_match_impl::<2, true>(set, run, tally),
            (3, false) => first_match_impl::<3, false>(set, run, tally),
            (3, true) => first_match_impl::<3, true>(set, run, tally),
            (4, false) => first_match_impl::<4, false>(set, run, tally),
            (4, true) => first_match_impl::<4, true>(set, run, tally),
            (_, false) => first_match_impl::<MAX_NEEDLES, false>(set, run, tally),
            (_, true) => first_match_impl::<MAX_NEEDLES, true>(set, run, tally),
        }
    }

    /// The per-needle constants, broadcast once per call.
    struct Needles<const N: usize> {
        n: usize,
        mask: [__m256i; N],
        key: [__m256i; N],
        /// All-ones for needles that accept loads too: the per-lane
        /// gate becomes `st | kind_pass` with no branch in the needle
        /// loop.
        kind_pass: [__m256i; N],
        /// Lane `k` holds bit `k` of a block's store byte.
        bits: __m256i,
    }

    impl<const N: usize> Needles<N> {
        #[target_feature(enable = "avx2")]
        fn new<const GATED: bool>(set: &NeedleSet) -> Self {
            let n = if N < MAX_NEEDLES { N } else { set.len() };
            debug_assert_eq!(n, set.len());
            let mut c = Needles {
                n,
                mask: [_mm256_setzero_si256(); N],
                key: [_mm256_setzero_si256(); N],
                kind_pass: [_mm256_setzero_si256(); N],
                bits: _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128),
            };
            for j in 0..n {
                c.mask[j] = _mm256_set1_epi32(set.mask[j] as i32);
                c.key[j] = _mm256_set1_epi32(set.key[j] as i32);
                if GATED {
                    c.kind_pass[j] = _mm256_set1_epi32(-i32::from(!set.store_only[j]));
                }
            }
            c
        }

        /// All-ones lanes where the block's low word `x` passes some
        /// needle's filter; `stores` holds the block's store bits
        /// (GATED only).
        #[target_feature(enable = "avx2")]
        #[inline]
        fn candidates<const GATED: bool>(&self, x: __m256i, stores: u64) -> __m256i {
            // All-ones lanes where the access is a store (GATED only).
            let st = if GATED {
                let b = _mm256_set1_epi32((stores & 0xff) as i32);
                _mm256_cmpeq_epi32(_mm256_and_si256(b, self.bits), self.bits)
            } else {
                _mm256_setzero_si256()
            };
            let mut hit = _mm256_setzero_si256();
            for j in 0..self.n {
                // Candidate iff x & mask == key, gated on kind: stores
                // always pass, loads only for read-write needles.
                let mut eq = _mm256_cmpeq_epi32(_mm256_and_si256(x, self.mask[j]), self.key[j]);
                if GATED {
                    eq = _mm256_and_si256(eq, _mm256_or_si256(st, self.kind_pass[j]));
                }
                hit = _mm256_or_si256(hit, eq);
            }
            hit
        }
    }

    /// Blockwise scan: one 8-lane filter test per 8-access block. A
    /// candidate block is re-walked with the scalar oracle for the
    /// exact offset, and so is the last partial block. `N` is the
    /// needle count for `N` < [`MAX_NEEDLES`]; the `MAX_NEEDLES`
    /// instance is the generic one and scans however many needles the
    /// set holds. `GATED` compiles in the per-needle store gate.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on this CPU.
    #[target_feature(enable = "avx2")]
    unsafe fn first_match_impl<const N: usize, const GATED: bool>(
        set: &NeedleSet,
        run: AccessSlice<'_>,
        tally: &mut ScanTally,
    ) -> Option<usize> {
        let needles = Needles::<N>::new::<GATED>(set);
        let n = needles.n;
        let low = run.low_words();
        // The exact predicate over the full addresses of `pos..end`:
        // the first hit, and how many high words it read.
        let exact = |pos: usize, end: usize| {
            let hit = set.first_match(run.slice(pos..end), n);
            (
                hit.map(|off| pos + off),
                hit.map_or(end - pos, |off| off + 1),
            )
        };
        let mut pos: usize = 0;
        let found = loop {
            let Some(block) = low.get(pos..pos + LANES) else {
                // The last partial block takes the exact predicate.
                let (found, read) = exact(pos, low.len());
                tally.high_words += read as u64;
                break found;
            };
            let stores = if GATED { run.store_word(pos) } else { 0 };
            let x = _mm256_loadu_si256(block.as_ptr().cast());
            let hit = needles.candidates::<GATED>(x, stores);
            // Rare: a quiet block costs one `testz`, a false candidate
            // one re-walk.
            if _mm256_testz_si256(hit, hit) == 0 {
                let (found, read) = exact(pos, pos + LANES);
                tally.high_words += read as u64;
                if found.is_some() {
                    break found;
                }
                tally.false_candidates += 1;
            }
            pos += LANES;
        };
        tally.low_words += found.map_or(low.len(), |off| off + 1) as u64;
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::{Access, AccessBuf};

    fn run_of(addrs: &[(u64, bool)]) -> AccessBuf {
        addrs
            .iter()
            .map(|&(a, s)| if s { Access::store(a) } else { Access::load(a) })
            .collect()
    }

    #[test]
    fn kernels_agree_on_block_straddling_hits() {
        let set = NeedleSet::from_ranges(&[(0x100, 8, false), (0x200, 8, true)]);
        // 19 accesses: the hit sits at offset 10 — inside the second
        // 8-access block — with stores in the quiet prefix.
        let mut accesses = vec![(0u64, false); 19];
        accesses[2] = (8, true);
        accesses[5] = (16, true);
        accesses[7] = (24, true);
        accesses[10] = (0x204, true); // store-only needle, store access
        let run = run_of(&accesses);
        let want = set.scan(run.as_slice());
        assert_eq!(want, Some(10));
        assert_eq!(scan(&set, run.as_slice(), &mut ScanTally::default()), want);
    }

    #[test]
    fn kernels_agree_on_store_only_suppression() {
        let set = NeedleSet::from_ranges(&[(0x40, 8, true)]);
        let run = run_of(&[(0x40, false), (0x44, false), (0x40, true)]);
        let want = set.scan(run.as_slice());
        assert_eq!(want, Some(2));
        assert_eq!(scan(&set, run.as_slice(), &mut ScanTally::default()), want);
    }

    #[test]
    fn kernels_agree_on_quiet_runs_and_tails() {
        let set = NeedleSet::from_ranges(&[(0x1000, 8, false)]);
        for len in 0..21u64 {
            let accesses: Vec<(u64, bool)> = (0..len).map(|i| (i * 8, i % 3 == 0)).collect();
            let run = run_of(&accesses);
            assert_eq!(set.scan(run.as_slice()), None);
            assert_eq!(
                scan(&set, run.as_slice(), &mut ScanTally::default()),
                None,
                "len={len}"
            );
        }
    }

    #[test]
    fn tally_counts_words_read_and_false_candidates() {
        // One read-write needle on 0x100. Accesses 3 and 4 sit in the
        // blocks just above and below it, which an exact filter passes
        // over; access 11 differs from it only in the high word, a
        // false candidate in block 1; access 20 hits in block 2.
        let set = NeedleSet::from_ranges(&[(0x100, 8, false)]);
        let mut accesses: Vec<(u64, bool)> = (0..24).map(|i| (i * 8, false)).collect();
        accesses[3] = (0x108, false);
        accesses[4] = (0xf8, false);
        accesses[11] = ((1 << 32) | 0x101, false);
        accesses[20] = (0x104, true);
        let run = run_of(&accesses);
        let mut tally = ScanTally::default();
        assert_eq!(scan(&set, run.as_slice(), &mut tally), Some(20));
        // The same candidate in a 13-access run's partial last block.
        assert_eq!(scan(&set, run.as_slice().slice(..13), &mut tally), None);
        // No needles: nothing read.
        let none = NeedleSet::from_ranges(&[]);
        assert_eq!(scan(&none, run.as_slice(), &mut tally), None);
        let want = if avx2_detected() {
            // Low words through the hit and of the whole second run;
            // high words of block 1, of block 2 up to the hit, and of
            // the second run's 5-access tail, which the exact predicate
            // tests with no candidate.
            ScanTally {
                low_words: 21 + 13,
                high_words: 8 + 5 + 5,
                false_candidates: 1,
            }
        } else {
            ScanTally {
                low_words: 21 + 13,
                high_words: 21 + 13,
                false_candidates: 0,
            }
        };
        assert_eq!(tally, want);
        assert_eq!(tally.bytes(), 4 * (want.low_words + want.high_words));
    }
}
