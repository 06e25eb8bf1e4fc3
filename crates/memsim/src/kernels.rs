//! The needle scanner's inner loop: AVX2 where the host has it, the
//! scalar oracle everywhere else.
//!
//! [`Machine::run`](crate::Machine::run)'s fast path owns the event
//! choreography (overflow gaps, trap replay, counter bulk-advance); the
//! per-access needle testing is [`scan`]. The host, not an option,
//! picks its loop:
//!
//! * **AVX2** on x86_64 CPUs where `is_x86_feature_detected!("avx2")`
//!   holds: four 64-bit address lanes per compare, loaded straight from
//!   the run's address column, the unsigned range test done with the
//!   sign-flip + signed-greater-than trick, one instance per needle
//!   count for 1–4 needles and one generic instance for 5–64, so a
//!   call sets up only as many constants as there are armed
//!   registers. Its `unsafe` code is confined to this module and
//!   guarded by the feature check; the only other `unsafe` module is
//!   the decode kernels' (`rdx_trace::kernels`).
//! * **scalar** — [`NeedleSet::scan`], the unrolled per-access loop,
//!   everywhere else. It is also the oracle: [`scan`] must return the
//!   identical first-match offset on every input, which the equivalence
//!   proptests in `tests/scan_kernels.rs` enforce by calling both.
//!
//! Runs are columnar ([`AccessSlice`]): the scan streams 8 bytes of
//! address per access, and reads the store bitmap only for write-only
//! needles.
//!
//! There is no SWAR scan: a blockwise one measured 0.7× scalar
//! (EXPERIMENTS.md P3).

#![allow(unsafe_code)]

use crate::scan::NeedleSet;
use rdx_trace::AccessSlice;

/// Accesses tested per block in the AVX2 kernel: two 4-lane compares.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// Offset of the first access in `run` hitting any needle of `set`:
/// the AVX2 loop where this host has AVX2, else the oracle
/// [`NeedleSet::scan`]. Both give the same offset.
#[inline]
pub fn scan(set: &NeedleSet, run: AccessSlice<'_>) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { avx2::first_match(set, run) };
    }
    set.scan(run)
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
    //! The address column is a plain `[u64]`, so each 8-access block is
    //! two unaligned 32-byte loads straight into address lanes. Loads
    //! never read the store bitmap: only write-only needles need it,
    //! and they take their lane mask from the block's 8 bitmap bits.

    use super::LANES;
    use crate::scan::{NeedleSet, MAX_NEEDLES};
    use rdx_trace::AccessSlice;
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_setzero_si256,
        _mm256_sub_epi64, _mm256_testz_si256, _mm256_xor_si256,
    };

    /// Sign-flip constant: turns an unsigned 64-bit compare into the
    /// signed compare AVX2 provides (`a <u b  ⇔  a^MSB <s b^MSB`).
    const MSB: i64 = i64::MIN;

    /// Offset of the first access in `run` hitting any needle.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on this CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn first_match(set: &NeedleSet, run: AccessSlice<'_>) -> Option<usize> {
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
            (1, false) => first_match_impl::<1, false>(set, run),
            (1, true) => first_match_impl::<1, true>(set, run),
            (2, false) => first_match_impl::<2, false>(set, run),
            (2, true) => first_match_impl::<2, true>(set, run),
            (3, false) => first_match_impl::<3, false>(set, run),
            (3, true) => first_match_impl::<3, true>(set, run),
            (4, false) => first_match_impl::<4, false>(set, run),
            (4, true) => first_match_impl::<4, true>(set, run),
            (_, false) => first_match_impl::<MAX_NEEDLES, false>(set, run),
            (_, true) => first_match_impl::<MAX_NEEDLES, true>(set, run),
        }
    }

    /// Blockwise scan: two 4-lane compares per 8-access block. Quiet
    /// blocks cost one `testz`; the rare hit block is re-walked with
    /// the scalar oracle for the exact offset. `N` is the needle count
    /// for `N` < [`MAX_NEEDLES`]; the `MAX_NEEDLES` instance is the
    /// generic one and scans however many needles the set holds.
    /// `GATED` compiles in the per-needle store gate.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on this CPU.
    #[target_feature(enable = "avx2")]
    unsafe fn first_match_impl<const N: usize, const GATED: bool>(
        set: &NeedleSet,
        run: AccessSlice<'_>,
    ) -> Option<usize> {
        let n = if N < MAX_NEEDLES { N } else { set.len() };
        debug_assert_eq!(n, set.len());
        // Broadcast the per-needle constants once per call, outside
        // the block loop.
        let mut base_v = [_mm256_setzero_si256(); N];
        let mut span_flip_v = [_mm256_setzero_si256(); N];
        // All-ones for needles that accept loads too: the per-lane gate
        // becomes `st | kind_pass` with no branch in the needle loop.
        let mut kind_pass_v = [_mm256_setzero_si256(); N];
        for j in 0..n {
            base_v[j] = _mm256_set1_epi64x(set.base[j] as i64);
            span_flip_v[j] = _mm256_set1_epi64x((set.span[j] as i64) ^ MSB);
            if GATED {
                kind_pass_v[j] = _mm256_set1_epi64x(-i64::from(!set.store_only[j]));
            }
        }
        let msb = _mm256_set1_epi64x(MSB);
        // Lane k of a half tests one bit of the block's store byte.
        let bit_lo = _mm256_set_epi64x(8, 4, 2, 1);
        let bit_hi = _mm256_set_epi64x(128, 64, 32, 16);

        let addrs = run.addrs();
        let mut pos: usize = 0;
        while let Some(block) = addrs.get(pos..pos + LANES) {
            let p: *const __m256i = block.as_ptr().cast();
            let lo = _mm256_loadu_si256(p);
            let hi = _mm256_loadu_si256(p.add(1));
            // All-ones lanes where the access is a store (GATED only).
            let (st_lo, st_hi) = if GATED {
                let bits = _mm256_set1_epi64x((run.store_word(pos) & 0xff) as i64);
                (
                    _mm256_cmpeq_epi64(_mm256_and_si256(bits, bit_lo), bit_lo),
                    _mm256_cmpeq_epi64(_mm256_and_si256(bits, bit_hi), bit_hi),
                )
            } else {
                (_mm256_setzero_si256(), _mm256_setzero_si256())
            };
            let mut hit_lo = _mm256_setzero_si256();
            let mut hit_hi = _mm256_setzero_si256();
            for j in 0..n {
                // d = addr - base (wrapping);  hit iff d <u span, gated
                // on kind: stores always pass, loads only for
                // read-write needles.
                let d_lo = _mm256_xor_si256(_mm256_sub_epi64(lo, base_v[j]), msb);
                let d_hi = _mm256_xor_si256(_mm256_sub_epi64(hi, base_v[j]), msb);
                let mut in_lo = _mm256_cmpgt_epi64(span_flip_v[j], d_lo);
                let mut in_hi = _mm256_cmpgt_epi64(span_flip_v[j], d_hi);
                if GATED {
                    in_lo = _mm256_and_si256(in_lo, _mm256_or_si256(st_lo, kind_pass_v[j]));
                    in_hi = _mm256_and_si256(in_hi, _mm256_or_si256(st_hi, kind_pass_v[j]));
                }
                hit_lo = _mm256_or_si256(hit_lo, in_lo);
                hit_hi = _mm256_or_si256(hit_hi, in_hi);
            }
            let any = _mm256_or_si256(hit_lo, hit_hi);
            if _mm256_testz_si256(any, any) == 0 {
                // Rare (at most once per quiet segment): the scalar
                // oracle pins the exact offset. An over-matching lane
                // falls through at the cost of a block re-walk — never
                // a wrong outcome.
                if let Some(off) = set.first_match(run.slice(pos..pos + LANES), n) {
                    return Some(pos + off);
                }
            }
            pos += LANES;
        }
        set.first_match(run.slice(pos..), n).map(|i| pos + i)
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
        assert_eq!(scan(&set, run.as_slice()), want);
    }

    #[test]
    fn kernels_agree_on_store_only_suppression() {
        let set = NeedleSet::from_ranges(&[(0x40, 8, true)]);
        let run = run_of(&[(0x40, false), (0x44, false), (0x40, true)]);
        let want = set.scan(run.as_slice());
        assert_eq!(want, Some(2));
        assert_eq!(scan(&set, run.as_slice()), want);
    }

    #[test]
    fn kernels_agree_on_quiet_runs_and_tails() {
        let set = NeedleSet::from_ranges(&[(0x1000, 8, false)]);
        for len in 0..21u64 {
            let accesses: Vec<(u64, bool)> = (0..len).map(|i| (i * 8, i % 3 == 0)).collect();
            let run = run_of(&accesses);
            assert_eq!(set.scan(run.as_slice()), None);
            assert_eq!(scan(&set, run.as_slice()), None, "len={len}");
        }
    }
}
