//! Decode kernels: the block decoder every RDXT decoder runs, and its
//! oracle.
//!
//! [`RdxtDecoder`](crate::RdxtDecoder) owns chunk bookkeeping (targets,
//! carried records, error parking); the per-record work is one of two
//! loops with the same signature:
//!
//! * [`BlockDecode`] — what every decoder runs. It reads the record
//!   bytes 64 at a time. One pass over a block's eight little-endian
//!   words builds two bit masks: the record-ending bytes (continuation
//!   bit clear) and each byte's bit 0. The block's complete records then
//!   come out of the masks with no byte loop: one bit extract of the
//!   bit-0 mask at the record starts gives every record's kind bit,
//!   appended to the store bitmap as one word, and each record is one
//!   unaligned `u64` load whose 7-bit groups one more extract packs into
//!   the zigzagged delta. Record boundaries come from the mask, not from
//!   the previous record's length, so the loads do not wait on each
//!   other and only `prev += delta` is serial. Records from a record
//!   longer than 8 bytes on, and buffer tails (fewer than 72 readable
//!   bytes), take the scalar per-record step with its full
//!   truncated/malformed taxonomy.
//!
//!   The loop is generic over its bit-extract primitive, with two
//!   instances. The host picks one once per decoder, with no option:
//!   BMI2 `pext` where the CPU has BMI2 and runs `pext` in hardware
//!   (Intel, AMD from family 19h; Zen 1 and 2 microcode it at tens of
//!   cycles), and a portable instance (multiply-compress for the masks,
//!   a shift-and-or fold for the payload) everywhere else. This module
//!   holds the workspace's only `unsafe` outside `memsim`: the one call
//!   into the BMI2 instance, behind the feature check.
//! * [`ScalarDecode`] — the original per-byte loop, kept verbatim as the
//!   oracle. Nothing in production calls it: the equivalence proptests
//!   in `io.rs` and `decoder.rs` and the decode benchmark call it
//!   directly, and both block instances must match it byte for byte
//!   (outcome, committed cursor, and error taxonomy).

#![allow(unsafe_code)]

use crate::columns::{AccessAppender, AccessBuf};
use crate::io::{unzigzag, varint_bits_overflow, TraceError};

/// Outcome of one kernel pass over a record window.
#[derive(Debug)]
pub struct KernelRun {
    /// Bytes consumed by *complete* records (the commit cursor —
    /// a partial record at a failure point is not included).
    pub committed: usize,
    /// The typed failure that stopped the pass, if any. The records
    /// decoded before it are valid and already pushed to `out`.
    pub failure: Option<TraceError>,
    /// Records the per-record scalar step read, a failed one included:
    /// every record for [`ScalarDecode`], the ones outside a block for
    /// [`BlockDecode`].
    pub slow_records: usize,
}

/// The original per-byte decode loop, retained verbatim as the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarDecode;

impl ScalarDecode {
    /// Decodes records from `bytes` onto the end of `out` until
    /// `out.len()` reaches `target`, the bytes run out (`Truncated`) or
    /// an overlong varint is hit (`Malformed`). `prev` is the
    /// delta-chain state, updated to cover exactly the records pushed.
    /// Store bits gather in a register word through an
    /// [`AccessAppender`], flushed every 64 records.
    pub fn decode_records(
        &self,
        bytes: &[u8],
        target: usize,
        prev: &mut u64,
        out: &mut AccessBuf,
    ) -> KernelRun {
        let start = out.len();
        let mut out = out.appender();
        let mut p = 0usize;
        let mut committed = 0usize;
        let mut failure: Option<TraceError> = None;
        'records: while out.len() < target {
            let mut raw = 0u128;
            let mut shift = 0u32;
            loop {
                let Some(&byte) = bytes.get(p) else {
                    failure = Some(TraceError::Truncated);
                    break 'records;
                };
                p += 1;
                let sig = u128::from(byte & 0x7f);
                // Same canonical-form rule as the scalar `get_varint`:
                // a continuation byte whose significant bits don't fit
                // the 128-bit payload would be silently shifted out.
                if varint_bits_overflow(sig, shift) {
                    failure = Some(TraceError::Malformed);
                    break 'records;
                }
                raw |= sig << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            push_record((raw >> 1) as u64, raw & 1 == 1, prev, &mut out);
            committed = p;
        }
        let slow_records = out.len() - start + usize::from(failure.is_some());
        KernelRun {
            committed,
            failure,
            slow_records,
        }
    }
}

/// Bytes per block: one bit per byte of a `u64` mask.
const BLOCK: usize = 64;
/// Readable bytes a block needs: a record starting at its last byte is
/// still one 8-byte load.
const BLOCK_READ: usize = BLOCK + 8;
/// Bit 7, the continuation bit, of each byte of a word.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
/// Payload bits of 8 little-endian varint bytes at once.
const PAYLOAD_MASK: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// Multiplier that gathers bit 0 of each byte into the top byte, in
/// order: the partial products never collide, so nothing carries.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// The decode instance this host runs, or one named directly: the one
/// block loop with BMI2 `pext` or with the portable gathers. Both are
/// exactly [`ScalarDecode::decode_records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDecode {
    /// True only where this CPU has BMI2: the `unsafe` call relies on it.
    bmi2: bool,
}

impl BlockDecode {
    /// The instance this host runs: BMI2 where the CPU has it and
    /// `pext` is fast, portable everywhere else.
    #[must_use]
    pub fn detect() -> BlockDecode {
        BlockDecode {
            bmi2: bmi2_detected() && host_pext_is_fast(),
        }
    }

    /// The portable instance, which runs on every host.
    #[must_use]
    pub fn portable() -> BlockDecode {
        BlockDecode { bmi2: false }
    }

    /// The BMI2 instance, where this CPU has BMI2 (fast `pext` or
    /// not), so tests and benchmarks can call it directly.
    #[must_use]
    pub fn bmi2() -> Option<BlockDecode> {
        bmi2_detected().then_some(BlockDecode { bmi2: true })
    }

    /// `bmi2` or `portable`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        if self.bmi2 {
            "bmi2"
        } else {
            "portable"
        }
    }

    /// Exactly [`ScalarDecode::decode_records`]: same accesses pushed,
    /// same committed cursor, same truncated-vs-malformed verdicts, for
    /// every input and target.
    pub fn decode_records(
        &self,
        bytes: &[u8],
        target: usize,
        prev: &mut u64,
        out: &mut AccessBuf,
    ) -> KernelRun {
        #[cfg(target_arch = "x86_64")]
        if self.bmi2 {
            // SAFETY: `bmi2` is set only by `detect` and `bmi2`, after
            // `bmi2_detected` found BMI2 and POPCNT on this CPU.
            return unsafe { decode_bmi2(bytes, target, prev, out) };
        }
        block_loop(&Portable, bytes, target, prev, out)
    }
}

/// Whether this CPU has BMI2 (and POPCNT, which every BMI2 CPU has).
fn bmi2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    let detected = std::arch::is_x86_feature_detected!("bmi2")
        && std::arch::is_x86_feature_detected!("popcnt");
    #[cfg(not(target_arch = "x86_64"))]
    let detected = false;
    detected
}

/// Whether this CPU runs `pext` in hardware, read from CPUID.
fn host_pext_is_fast() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let id = __cpuid(0);
        let mut vendor = [0u8; 12];
        for (dst, reg) in vendor.chunks_exact_mut(4).zip([id.ebx, id.edx, id.ecx]) {
            dst.copy_from_slice(&reg.to_le_bytes());
        }
        let eax = __cpuid(1).eax;
        let base = (eax >> 8) & 0xf;
        let family = if base == 0xf {
            base + ((eax >> 20) & 0xff)
        } else {
            base
        };
        pext_is_fast(&vendor, family)
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Whether a BMI2 CPU of this CPUID vendor and family runs `pext` at
/// full speed: every Intel one does; AMD's Zen 1 and 2 (family 17h) and
/// earlier microcode it, Zen 3 (19h) and later do not. Any other vendor
/// gets the portable loop.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn pext_is_fast(vendor: &[u8; 12], family: u32) -> bool {
    match vendor {
        b"GenuineIntel" => true,
        b"AuthenticAMD" => family >= 0x19,
        _ => false,
    }
}

/// The BMI2 instance of the block loop.
///
/// # Safety
///
/// The caller must have verified BMI2 and POPCNT support on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn decode_bmi2(bytes: &[u8], target: usize, prev: &mut u64, out: &mut AccessBuf) -> KernelRun {
    // The closure inherits this function's target features, so the
    // intrinsic is safe to call in it and inlines into the loop.
    block_loop(
        &Pext(|x, mask| std::arch::x86_64::_pext_u64(x, mask)),
        bytes,
        target,
        prev,
        out,
    )
}

/// The bit gathers the block loop is generic over.
trait Extract {
    /// Bit 7 of each byte of `x`, packed into the low 8 bits in order.
    fn high_bits(&self, x: u64) -> u64;
    /// The bits of `x` under `mask`, packed into the low bits in order
    /// (`pext`).
    fn compress(&self, x: u64, mask: u64) -> u64;
    /// The zigzagged delta of the `len`-byte record (1..=8) at the low
    /// end of `w`: its 7-bit groups without the kind bit.
    fn delta(&self, w: u64, len: usize) -> u64;
}

/// Every gather as one `pext`.
#[cfg(target_arch = "x86_64")]
struct Pext<F>(F);

#[cfg(target_arch = "x86_64")]
impl<F: Fn(u64, u64) -> u64> Extract for Pext<F> {
    #[inline(always)]
    fn high_bits(&self, x: u64) -> u64 {
        (self.0)(x, HIGH_BITS)
    }

    #[inline(always)]
    fn compress(&self, x: u64, mask: u64) -> u64 {
        (self.0)(x, mask)
    }

    #[inline(always)]
    fn delta(&self, w: u64, len: usize) -> u64 {
        (self.0)(w, PAYLOAD_MASK & !1 & low_bytes(len))
    }
}

/// The gathers in plain integer arithmetic.
struct Portable;

impl Extract for Portable {
    #[inline(always)]
    fn high_bits(&self, x: u64) -> u64 {
        ((x & HIGH_BITS) >> 7).wrapping_mul(GATHER) >> 56
    }

    #[inline(always)]
    fn compress(&self, x: u64, mut mask: u64) -> u64 {
        let mut packed = 0;
        let mut k = 0;
        while mask != 0 {
            packed |= ((x >> mask.trailing_zeros()) & 1) << k;
            k += 1;
            mask &= mask - 1;
        }
        packed
    }

    #[inline(always)]
    fn delta(&self, w: u64, len: usize) -> u64 {
        fold7(w & low_bytes(len) & PAYLOAD_MASK) >> 1
    }
}

/// The low `len` (1..=8) bytes of a word set.
#[inline(always)]
fn low_bytes(len: usize) -> u64 {
    u64::MAX >> (64 - 8 * len)
}

/// The block loop: whole blocks while 72 bytes are readable and the
/// block's first record is at most 8 bytes long, the scalar step for
/// one record otherwise.
#[inline(always)]
fn block_loop<E: Extract>(
    x: &E,
    bytes: &[u8],
    target: usize,
    prev: &mut u64,
    out: &mut AccessBuf,
) -> KernelRun {
    let mut p = 0usize;
    let mut committed = 0usize;
    let mut slow_records = 0usize;
    while out.len() < target {
        if let Some(block) = bytes.get(p..).and_then(<[u8]>::first_chunk) {
            let span = block_records(x, block, target - out.len(), prev, out);
            if span > 0 {
                p += span;
                committed = p;
                continue;
            }
        }
        // Tail of the buffer, or a first record longer than 8 bytes:
        // the scalar step handles truncation and the overlong
        // (128-bit overflow) rule.
        slow_records += 1;
        match scalar_record(bytes, &mut p) {
            Ok(raw) => {
                push_record((raw >> 1) as u64, raw & 1 == 1, prev, &mut out.appender());
                committed = p;
            }
            Err(e) => {
                return KernelRun {
                    committed,
                    failure: Some(e),
                    slow_records,
                }
            }
        }
    }
    KernelRun {
        committed,
        failure: None,
        slow_records,
    }
}

/// Decodes the complete records of one block, at most `need` of them
/// and none from the first record longer than 8 bytes on, and returns
/// the bytes they span (0 when there are none).
#[inline(always)]
fn block_records<E: Extract>(
    x: &E,
    block: &[u8; BLOCK_READ],
    need: usize,
    prev: &mut u64,
    out: &mut AccessBuf,
) -> usize {
    let mut ends = 0u64;
    let mut low = 0u64;
    for k in 0..BLOCK / 8 {
        let w = word_at(block, 8 * k);
        ends |= x.high_bits(!w) << (8 * k);
        // Bit 0 of each byte moved up to bit 7.
        low |= x.high_bits(w << 7) << (8 * k);
    }
    if ends == 0 {
        return 0;
    }
    // Bytes before the last record end that end no record. A record
    // longer than 8 bytes is a run of 8 of them, and the lowest bit of
    // `run` is where the first such record starts.
    let inner = !ends & (u64::MAX >> ends.leading_zeros());
    let run = inner & (inner >> 1);
    let run = run & (run >> 2);
    let run = run & (run >> 4);
    if run != 0 {
        ends &= (1 << run.trailing_zeros()) - 1;
    }
    let mut n = ends.count_ones() as usize;
    if n > need {
        ends = lowest_set_bits(ends, need);
        n = need;
    }
    if ends == 0 {
        return 0;
    }
    let span = 64 - ends.leading_zeros() as usize;
    let starts = ((ends << 1) | 1) & (u64::MAX >> (64 - span));
    let mut start = 0usize;
    for slot in out.append_run(n, x.compress(low, starts)) {
        let end = ends.trailing_zeros() as usize;
        ends &= ends - 1;
        let delta = x.delta(word_at(block, start), end + 1 - start);
        start = end + 1;
        *prev = prev.wrapping_add(unzigzag(delta) as u64);
        *slot = *prev;
    }
    span
}

/// The little-endian word at byte `i % 64` of a block. A block holds 8
/// bytes past its last start, so the word is always there (and the
/// compiler drops the fallback).
#[inline(always)]
fn word_at(block: &[u8; BLOCK_READ], i: usize) -> u64 {
    block[i % BLOCK..]
        .split_first_chunk()
        .map_or(0, |(word, _)| u64::from_le_bytes(*word))
}

/// The lowest `k` set bits of `x`.
fn lowest_set_bits(mut x: u64, k: usize) -> u64 {
    let mut kept = 0;
    for _ in 0..k {
        let bit = x & x.wrapping_neg();
        kept |= bit;
        x ^= bit;
    }
    kept
}

/// Folds eight 7-bit varint payload groups (already masked, little-
/// endian byte order) into one ≤ 56-bit value: three halving rounds of
/// shift-and-or, the classic SWAR compaction.
#[inline]
fn fold7(x: u64) -> u64 {
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

/// Reads one raw record the scalar way (byte loop, full error
/// taxonomy), advancing `p` past the bytes it read. On error `p` may
/// sit past the offending byte — the caller's commit cursor is what
/// rewinds.
fn scalar_record(bytes: &[u8], p: &mut usize) -> Result<u128, TraceError> {
    let mut raw = 0u128;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*p) else {
            return Err(TraceError::Truncated);
        };
        *p += 1;
        let sig = u128::from(byte & 0x7f);
        if varint_bits_overflow(sig, shift) {
            return Err(TraceError::Malformed);
        }
        raw |= sig << shift;
        if byte & 0x80 == 0 {
            return Ok(raw);
        }
        shift += 7;
    }
}

/// Applies one decoded record (zigzagged delta + kind bit) to the
/// address chain and appends the access.
#[inline(always)]
fn push_record(zz_delta: u64, is_store: bool, prev: &mut u64, out: &mut AccessAppender<'_>) {
    let delta = unzigzag(zz_delta);
    *prev = prev.wrapping_add(delta as u64);
    out.push(*prev, is_store);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold7_matches_shift_sum() {
        // Reference: sum of (byte & 0x7f) << (7 * i).
        let cases = [
            0u64,
            0x7f,
            0x0102_0304_0506_0708,
            0x7f7f_7f7f_7f7f_7f7f,
            0x0123_4567_89ab_cdef & PAYLOAD_MASK,
        ];
        for w in cases {
            let masked = w & PAYLOAD_MASK;
            let want = masked
                .to_le_bytes()
                .iter()
                .enumerate()
                .map(|(i, &b)| u64::from(b) << (7 * i))
                .sum::<u64>();
            assert_eq!(fold7(masked), want, "w={w:#x}");
        }
    }

    #[test]
    fn portable_gathers_match_a_bit_loop() {
        // Reference pext: walk the mask bit by bit.
        let pext = |x: u64, mask: u64| {
            (0..64)
                .filter(|i| mask >> i & 1 == 1)
                .enumerate()
                .fold(0u64, |acc, (k, i)| acc | (x >> i & 1) << k)
        };
        let words = [
            0u64,
            u64::MAX,
            0x8001_7f80_ff00_0180,
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
        ];
        for w in words {
            assert_eq!(Portable.high_bits(w), pext(w, HIGH_BITS), "w={w:#x}");
            for mask in words {
                assert_eq!(Portable.compress(w, mask), pext(w, mask));
            }
            for len in 1..=8 {
                let want = pext(w, PAYLOAD_MASK & !1 & low_bytes(len));
                assert_eq!(Portable.delta(w, len), want, "w={w:#x} len={len}");
            }
        }
        assert_eq!(lowest_set_bits(0b1011_0110, 3), 0b0001_0110);
    }

    #[test]
    fn fast_pext_pick_by_vendor_and_family() {
        let cases: [(&[u8; 12], u32, bool); 8] = [
            (b"GenuineIntel", 6, true),
            (b"GenuineIntel", 0xf, true),
            (b"AuthenticAMD", 0x15, false), // Excavator: microcoded
            (b"AuthenticAMD", 0x17, false), // Zen 1 / Zen 2
            (b"AuthenticAMD", 0x19, true),  // Zen 3 / Zen 4
            (b"AuthenticAMD", 0x1a, true),  // Zen 5
            (b"HygonGenuine", 0x18, false), // Zen 1 derivative
            (b"CentaurHauls", 7, false),
        ];
        for (vendor, family, fast) in cases {
            assert_eq!(
                pext_is_fast(vendor, family),
                fast,
                "{} family {family:#x}",
                String::from_utf8_lossy(vendor)
            );
        }
    }
}
