//! Scan kernels: interchangeable inner loops for the needle scanner,
//! behind one trait and a capability/cost table.
//!
//! [`Machine::run`](crate::Machine::run)'s fast path owns the event
//! choreography (overflow gaps, trap replay, counter bulk-advance); the
//! per-access needle testing is delegated to a [`ScanKernel`] resolved
//! once per run from [`MachineConfig::scan_kernel`]
//! (crate::MachineConfig::scan_kernel). The scan side has two kernels
//! (named with the same [`KernelKind`] taxonomy as the decode side in
//! `rdx_trace::kernels`):
//!
//! * **scalar** — [`NeedleSet::scan`], the unrolled per-access loop. It
//!   is the oracle: the AVX2 kernel must produce the identical
//!   [`ScanOutcome`] on every input, which the equivalence proptests in
//!   `tests/scan_kernels.rs` enforce.
//! * **simd** — AVX2 on x86_64 (runtime-detected): four 64-bit address
//!   lanes per compare, loaded straight from the run's address column,
//!   the unsigned range test done with the sign-flip +
//!   signed-greater-than trick. This is the only `unsafe` code in the
//!   workspace, confined to this module and guarded by
//!   `is_x86_feature_detected!`. Other hosts mark the row unavailable
//!   and resolve to scalar.
//!
//! Runs are columnar ([`AccessSlice`]): the scan streams 8 bytes of
//! address per access, and neither kernel counts stores per access.
//! The store prefix of an outcome is one popcount over the run's store
//! bitmap ([`AccessSlice::stores_in`]) up to the first match.
//!
//! There is no SWAR scan kernel: a blockwise one measured 0.7× scalar
//! (EXPERIMENTS.md P3), so the `swar` kind routes to scalar here. The
//! decode side keeps its SWAR kernel, where it wins.
//!
//! The capability/cost table idiom ([`scan_kernels`], `auto` picking
//! the cheapest available row) mirrors `rdx_trace::kernels`: adding an
//! arch kernel (e.g. aarch64 NEON) is one new row plus one impl.

#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use crate::scan::MAX_NEEDLES;
use crate::scan::{NeedleSet, ScanOutcome};
use rdx_trace::AccessSlice;
pub use rdx_trace::{KernelChoice, KernelEntry, KernelKind};

/// Accesses tested per block in the AVX2 kernel: two 4-lane compares.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// One interchangeable inner loop of the needle scanner.
///
/// Implementations must be exactly equivalent to the scalar oracle
/// [`NeedleSet::scan`]: same first-match offset, same store prefix
/// count, for every needle set and run.
pub trait ScanKernel {
    /// Which kernel family this is.
    fn kind(&self) -> KernelKind;

    /// Finds the first access in `run` hitting any needle of `set`,
    /// counting the stores that precede it.
    fn scan(&self, set: &NeedleSet, run: AccessSlice<'_>) -> ScanOutcome;
}

/// The per-access loop, retained as the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarScan;

impl ScanKernel for ScalarScan {
    fn kind(&self) -> KernelKind {
        KernelKind::Scalar
    }

    fn scan(&self, set: &NeedleSet, run: AccessSlice<'_>) -> ScanOutcome {
        set.scan(run)
    }
}

/// The x86_64 AVX2 kernel: four address lanes per compare.
///
/// Only constructed when `is_x86_feature_detected!("avx2")` holds (and
/// [`ScanKernel::scan`] re-checks, so a mis-forced kind degrades to the
/// scalar oracle instead of executing illegal instructions).
#[derive(Debug, Default, Clone, Copy)]
pub struct SimdScan;

impl ScanKernel for SimdScan {
    fn kind(&self) -> KernelKind {
        KernelKind::Simd
    }

    fn scan(&self, set: &NeedleSet, run: AccessSlice<'_>) -> ScanOutcome {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified on this CPU.
            let first_match = unsafe { avx2::first_match(set, run) };
            return ScanOutcome {
                first_match,
                stores_before: run.stores_in(..first_match.unwrap_or(run.len())),
            };
        }
        ScalarScan.scan(set, run)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 lane kernel. All `unsafe` in the workspace lives here;
    //! every intrinsic call is guarded by the caller's feature check.
    //!
    //! The address column is a plain `[u64]`, so each 8-access block is
    //! two unaligned 32-byte loads straight into address lanes. Loads
    //! never read the store bitmap: only write-only needles need it,
    //! and they take their lane mask from the block's 8 bitmap bits.

    use super::LANES;
    use crate::scan::NeedleSet;
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
        if set.is_empty() {
            return None;
        }
        // Monomorphize the kind gate away when every needle is
        // read-write (the paper's configuration): the gate ops vanish
        // from the hot loop instead of being re-tested per needle.
        if set.store_only[..set.len()].iter().any(|&s| s) {
            first_match_impl::<true>(set, run)
        } else {
            first_match_impl::<false>(set, run)
        }
    }

    /// Blockwise scan: two 4-lane compares per 8-access block. Quiet
    /// blocks cost one `testz`; the rare hit block is re-walked with
    /// the scalar oracle for the exact offset. `GATED` compiles in the
    /// per-needle store gate.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on this CPU.
    #[target_feature(enable = "avx2")]
    unsafe fn first_match_impl<const GATED: bool>(
        set: &NeedleSet,
        run: AccessSlice<'_>,
    ) -> Option<usize> {
        let n = set.len();
        // Hoist the per-needle broadcast constants out of the block
        // loop (n is not a compile-time constant, so LLVM cannot).
        let mut base_v = [_mm256_setzero_si256(); super::MAX_NEEDLES];
        let mut span_flip_v = [_mm256_setzero_si256(); super::MAX_NEEDLES];
        // All-ones for needles that accept loads too: the per-lane gate
        // becomes `st | kind_pass` with no branch in the needle loop.
        let mut kind_pass_v = [_mm256_setzero_si256(); super::MAX_NEEDLES];
        for j in 0..n {
            base_v[j] = _mm256_set1_epi64x(set.base[j] as i64);
            span_flip_v[j] = _mm256_set1_epi64x((set.span[j] as i64) ^ MSB);
            kind_pass_v[j] = _mm256_set1_epi64x(-i64::from(!set.store_only[j]));
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

/// The scan-side capability/cost table for this host.
///
/// The `simd` row is available only on x86_64 CPUs with AVX2; elsewhere
/// `resolve` degrades every choice to scalar.
#[must_use]
pub fn scan_kernels() -> [KernelEntry; 2] {
    [
        KernelEntry {
            kind: KernelKind::Scalar,
            available: true,
            cost: 100,
        },
        KernelEntry {
            kind: KernelKind::Simd,
            available: avx2_detected(),
            cost: 30,
        },
    ]
}

/// Whether this host can run the AVX2 scan kernel.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    let detected = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let detected = false;
    detected
}

/// Resolves a scan kernel choice against [`scan_kernels`].
#[must_use]
pub fn resolve_scan(choice: KernelChoice) -> KernelKind {
    rdx_trace::kernels::resolve(&scan_kernels(), choice)
}

/// Runs the scan kernel of `kind` (static dispatch — the machine
/// resolved the kind once per run). `Swar` has no scan kernel and runs
/// the scalar oracle.
#[inline]
pub fn run_scan(kind: KernelKind, set: &NeedleSet, run: AccessSlice<'_>) -> ScanOutcome {
    match kind {
        KernelKind::Scalar | KernelKind::Swar => ScalarScan.scan(set, run),
        KernelKind::Simd => SimdScan.scan(set, run),
    }
}

/// The scan kernel instance for `kind`, for benches and tests that
/// drive kernels directly (`Swar` maps to the scalar oracle).
#[must_use]
pub fn scan_kernel(kind: KernelKind) -> &'static dyn ScanKernel {
    match kind {
        KernelKind::Scalar | KernelKind::Swar => &ScalarScan,
        KernelKind::Simd => &SimdScan,
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
    fn resolve_auto_prefers_fastest_available() {
        // Auto takes AVX2 exactly where it is detected, scalar anywhere
        // else; a forced `swar` has no scan row and resolves like auto.
        let want = if avx2_detected() {
            KernelKind::Simd
        } else {
            KernelKind::Scalar
        };
        assert_eq!(resolve_scan(KernelChoice::Auto), want);
        assert_eq!(resolve_scan(KernelChoice::Scalar), KernelKind::Scalar);
        assert_eq!(resolve_scan(KernelChoice::Swar), want);
        assert_eq!(resolve_scan(KernelChoice::Simd), want);
    }

    #[test]
    fn kernels_agree_on_block_straddling_hits() {
        let set = NeedleSet::from_ranges(&[(0x100, 8, false), (0x200, 8, true)]);
        // 19 accesses: the hit sits at offset 10 — inside the second
        // 8-access block — with 3 stores in the quiet prefix.
        let mut accesses = vec![(0u64, false); 19];
        accesses[2] = (8, true);
        accesses[5] = (16, true);
        accesses[7] = (24, true);
        accesses[10] = (0x204, true); // store-only needle, store access
        let run = run_of(&accesses);
        let want = set.scan(run.as_slice());
        assert_eq!(want.first_match, Some(10));
        assert_eq!(want.stores_before, 3);
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            let got = run_scan(kind, &set, run.as_slice());
            assert_eq!(got, want, "kind={kind:?}");
        }
    }

    #[test]
    fn kernels_agree_on_store_only_suppression() {
        let set = NeedleSet::from_ranges(&[(0x40, 8, true)]);
        let run = run_of(&[(0x40, false), (0x44, false), (0x40, true)]);
        let want = set.scan(run.as_slice());
        assert_eq!(want.first_match, Some(2));
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            assert_eq!(run_scan(kind, &set, run.as_slice()), want, "kind={kind:?}");
        }
    }

    #[test]
    fn kernels_agree_on_quiet_runs_and_tails() {
        let set = NeedleSet::from_ranges(&[(0x1000, 8, false)]);
        for len in 0..21u64 {
            let accesses: Vec<(u64, bool)> = (0..len).map(|i| (i * 8, i % 3 == 0)).collect();
            let run = run_of(&accesses);
            let want = set.scan(run.as_slice());
            assert_eq!(want.first_match, None);
            for kind in [KernelKind::Scalar, KernelKind::Simd] {
                assert_eq!(
                    run_scan(kind, &set, run.as_slice()),
                    want,
                    "len={len} kind={kind:?}"
                );
            }
        }
    }
}
