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
//! * **scalar** — [`NeedleSet::scan`], the original unrolled per-access
//!   loop, kept verbatim. It is the oracle: the AVX2 kernel must
//!   produce the identical [`ScanOutcome`] on every input, which the
//!   equivalence proptests in `tests/scan_kernels.rs` enforce.
//! * **simd** — AVX2 on x86_64 (runtime-detected): four 64-bit address
//!   lanes per compare, the unsigned range test done with the
//!   sign-flip + signed-greater-than trick. This is the only `unsafe`
//!   code in the workspace, confined to this module and guarded by
//!   `is_x86_feature_detected!`. Other hosts mark the row unavailable
//!   and resolve to scalar.
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
use rdx_trace::Access;
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
    fn scan(&self, set: &NeedleSet, run: &[Access]) -> ScanOutcome;
}

/// The original unrolled per-access loop, retained as the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarScan;

impl ScanKernel for ScalarScan {
    fn kind(&self) -> KernelKind {
        KernelKind::Scalar
    }

    fn scan(&self, set: &NeedleSet, run: &[Access]) -> ScanOutcome {
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

    fn scan(&self, set: &NeedleSet, run: &[Access]) -> ScanOutcome {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified on this CPU.
            return unsafe { avx2::scan(set, run) };
        }
        ScalarScan.scan(set, run)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 lane kernel. All `unsafe` in the workspace lives here;
    //! every intrinsic call is guarded by the caller's feature check.
    //!
    //! Layout-aware lane loading: `Access` is `{ addr: Address(u64),
    //! kind: AccessKind }` with no guaranteed repr, so the kernel reads
    //! the field offsets with `offset_of!` at compile time. On the
    //! expected 16-byte layout (address on an 8-byte boundary) two
    //! accesses are fetched per unaligned 32-byte load and the address
    //! and kind lanes separated with one unpack each — no per-element
    //! scalar extraction. Any other layout falls back to scalar lane
    //! inserts (still AVX2 compares). The loads cover the struct's
    //! padding bytes; every lane derived from padding is masked off
    //! before use (only the address word and the kind byte feed any
    //! predicate).

    use super::LANES;
    use crate::scan::{count_stores, NeedleSet, ScanOutcome};
    use rdx_trace::Access;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x, _mm256_set_epi64x,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm256_sub_epi64, _mm256_testz_si256,
        _mm256_unpackhi_epi64, _mm256_unpacklo_epi64, _mm256_xor_si256,
    };

    /// Sign-flip constant: turns an unsigned 64-bit compare into the
    /// signed compare AVX2 provides (`a <u b  ⇔  a^MSB <s b^MSB`).
    const MSB: i64 = i64::MIN;

    /// Field geometry of [`Access`], checked at compile time.
    const ACCESS_SIZE: usize = std::mem::size_of::<Access>();
    const ADDR_OFF: usize = std::mem::offset_of!(Access, addr);
    const KIND_OFF: usize = std::mem::offset_of!(Access, kind);

    /// Whether the vectorized loader understands this layout: 16-byte
    /// stride, address word naturally aligned, kind inside the other
    /// word. Holds for every layout rustc actually picks; anything else
    /// (e.g. under randomized layouts) takes the insert-based path.
    const RAW_LANES: bool = ACCESS_SIZE == 16
        && ADDR_OFF.is_multiple_of(8)
        && KIND_OFF < 16
        && (KIND_OFF / 8) != (ADDR_OFF / 8)
        && std::mem::size_of::<rdx_trace::AccessKind>() == 1;

    /// Bit position of the kind byte within its 64-bit lane.
    const KIND_SHIFT: u32 = 8 * ((KIND_OFF % 8) as u32);

    /// The discriminant byte a store's `kind` field carries in memory.
    fn store_kind_byte() -> u8 {
        let probe = Access::store(0u64);
        // SAFETY: `kind` is an initialized one-byte enum field at
        // KIND_OFF inside `probe`.
        unsafe { *std::ptr::from_ref(&probe).cast::<u8>().add(KIND_OFF) }
    }

    /// Sums the four u64 lanes of an accumulator (cold path: once per
    /// scan, at the hit block or the end of the run).
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes.iter().sum()
    }

    /// Blockwise AVX2 scan: two 4-lane compares per 8-access block.
    /// Quiet blocks cost one `testz`; store counts accumulate in vector
    /// lanes and are summed once; the rare hit block is re-walked with
    /// the scalar oracle for the exact offset and store prefix.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on this CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan(set: &NeedleSet, run: &[Access]) -> ScanOutcome {
        if set.is_empty() {
            return ScanOutcome {
                first_match: None,
                stores_before: count_stores(run),
            };
        }
        // Monomorphize the kind gate away when every needle is
        // read-write (the paper's configuration): the gate ops vanish
        // from the hot loop instead of being re-tested per needle.
        if set.store_only[..set.len()].iter().any(|&s| s) {
            scan_impl::<true>(set, run)
        } else {
            scan_impl::<false>(set, run)
        }
    }

    /// The scan body; `GATED` compiles in the per-needle store gate.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on this CPU.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_impl<const GATED: bool>(set: &NeedleSet, run: &[Access]) -> ScanOutcome {
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
        let kind_mask = _mm256_set1_epi64x((0xffu64 << KIND_SHIFT) as i64);
        let store_byte = _mm256_set1_epi64x((u64::from(store_kind_byte()) << KIND_SHIFT) as i64);

        let mut store_cnt = _mm256_setzero_si256();
        let mut pos: usize = 0;
        while let Some(block) = run.get(pos..pos + LANES) {
            let (lo, hi, st_lo, st_hi) = if RAW_LANES {
                // Four 32-byte loads fetch the whole block; unpacks
                // split address words from kind words (lane order is
                // permuted, which no consumer below depends on).
                let p: *const __m256i = block.as_ptr().cast();
                let v0 = _mm256_loadu_si256(p);
                let v1 = _mm256_loadu_si256(p.add(1));
                let v2 = _mm256_loadu_si256(p.add(2));
                let v3 = _mm256_loadu_si256(p.add(3));
                let (lo, hi, meta_lo, meta_hi) = if ADDR_OFF == 0 {
                    (
                        _mm256_unpacklo_epi64(v0, v1),
                        _mm256_unpacklo_epi64(v2, v3),
                        _mm256_unpackhi_epi64(v0, v1),
                        _mm256_unpackhi_epi64(v2, v3),
                    )
                } else {
                    (
                        _mm256_unpackhi_epi64(v0, v1),
                        _mm256_unpackhi_epi64(v2, v3),
                        _mm256_unpacklo_epi64(v0, v1),
                        _mm256_unpacklo_epi64(v2, v3),
                    )
                };
                // All-ones lanes where the kind byte says store; the
                // padding bytes in the meta words are masked off here.
                let st_lo = _mm256_cmpeq_epi64(_mm256_and_si256(meta_lo, kind_mask), store_byte);
                let st_hi = _mm256_cmpeq_epi64(_mm256_and_si256(meta_hi, kind_mask), store_byte);
                (lo, hi, st_lo, st_hi)
            } else {
                let mut addr = [0i64; LANES];
                let mut store_lane = [0i64; LANES];
                for (k, access) in block.iter().enumerate() {
                    addr[k] = access.addr.raw() as i64;
                    store_lane[k] = -i64::from(access.kind.is_store());
                }
                (
                    _mm256_set_epi64x(addr[3], addr[2], addr[1], addr[0]),
                    _mm256_set_epi64x(addr[7], addr[6], addr[5], addr[4]),
                    _mm256_set_epi64x(store_lane[3], store_lane[2], store_lane[1], store_lane[0]),
                    _mm256_set_epi64x(store_lane[7], store_lane[6], store_lane[5], store_lane[4]),
                )
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
                // oracle pins the exact offset and in-block prefix. An
                // over-matching lane falls through at the cost of a
                // block re-walk — never a wrong outcome.
                let sub = set.scan_any(block, n);
                if let Some(off) = sub.first_match {
                    return ScanOutcome {
                        first_match: Some(pos + off),
                        stores_before: hsum(store_cnt) + sub.stores_before,
                    };
                }
            }
            // Store-mask lanes are 0 or −1: subtracting adds one per
            // store to the per-lane counters.
            store_cnt = _mm256_sub_epi64(store_cnt, _mm256_add_epi64(st_lo, st_hi));
            pos += LANES;
        }
        let tail = set.scan_any(&run[pos..], n);
        ScanOutcome {
            first_match: tail.first_match.map(|i| pos + i),
            stores_before: hsum(store_cnt) + tail.stores_before,
        }
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
pub fn run_scan(kind: KernelKind, set: &NeedleSet, run: &[Access]) -> ScanOutcome {
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

    fn run_of(addrs: &[(u64, bool)]) -> Vec<Access> {
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
        let want = set.scan(&run);
        assert_eq!(want.first_match, Some(10));
        assert_eq!(want.stores_before, 3);
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            let got = run_scan(kind, &set, &run);
            assert_eq!(got, want, "kind={kind:?}");
        }
    }

    #[test]
    fn kernels_agree_on_store_only_suppression() {
        let set = NeedleSet::from_ranges(&[(0x40, 8, true)]);
        let run = run_of(&[(0x40, false), (0x44, false), (0x40, true)]);
        let want = set.scan(&run);
        assert_eq!(want.first_match, Some(2));
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            assert_eq!(run_scan(kind, &set, &run), want, "kind={kind:?}");
        }
    }

    #[test]
    fn kernels_agree_on_quiet_runs_and_tails() {
        let set = NeedleSet::from_ranges(&[(0x1000, 8, false)]);
        for len in 0..21u64 {
            let accesses: Vec<(u64, bool)> = (0..len).map(|i| (i * 8, i % 3 == 0)).collect();
            let run = run_of(&accesses);
            let want = set.scan(&run);
            assert_eq!(want.first_match, None);
            for kind in [KernelKind::Scalar, KernelKind::Simd] {
                assert_eq!(run_scan(kind, &set, &run), want, "len={len} kind={kind:?}");
            }
        }
    }
}
