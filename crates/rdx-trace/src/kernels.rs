//! Decode kernels: the bulk varint decoder's inner loop and its oracle.
//!
//! [`TraceReader::decode_chunk`](crate::TraceReader::decode_chunk) owns
//! chunk bookkeeping (targets, cursor commit, error parking); the
//! per-record byte crunching is one of two loops with the same
//! signature:
//!
//! * [`SwarDecode`] — what every decoder runs. SIMD-within-a-register:
//!   loads 8 bytes as one `u64` via `from_le_bytes`, finds the record
//!   terminator (continuation bit clear) with `!w & 0x8080…80`, and
//!   folds the 7-bit payload groups with three mask/shift rounds — no
//!   per-byte branches, no `u128` arithmetic on the common short
//!   records. Records longer than 8 bytes and buffer tails fall back to
//!   the scalar per-record step.
//! * [`ScalarDecode`] — the original per-byte loop, kept verbatim as the
//!   oracle. Nothing in production calls it: the equivalence proptests
//!   in `io.rs` and `decoder.rs` and the decode benchmark call it
//!   directly, and SWAR must match it byte for byte (outcome, committed
//!   cursor, and error taxonomy).
//!
//! There is no lane-SIMD decoder: the terminator search is already
//! word-parallel here and the address chain (`prev += delta`) is
//! serial, so a lane kernel has nothing left to parallelize. (The scan
//! side in `memsim` does ship an AVX2 kernel.)

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
        KernelRun { committed, failure }
    }
}

/// Continuation bits of 8 little-endian varint bytes at once.
const CONT_MASK: u64 = 0x8080_8080_8080_8080;
/// Payload bits of 8 little-endian varint bytes at once.
const PAYLOAD_MASK: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// The portable SWAR kernel: u64-lane terminator find + branch-free
/// payload fold for records of ≤ 8 bytes (56 payload bits — every
/// address delta below ±2^54, i.e. all realistic traces); longer
/// records and buffer tails take the scalar per-record step.
#[derive(Debug, Default, Clone, Copy)]
pub struct SwarDecode;

impl SwarDecode {
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
        let mut out = out.appender();
        let mut p = 0usize;
        let mut committed = 0usize;
        while out.len() < target {
            // Fast lane: 8 readable bytes and a terminator among them.
            if let Some(window) = bytes.get(p..p + 8) {
                let mut w8 = [0u8; 8];
                w8.copy_from_slice(window);
                let w = u64::from_le_bytes(w8);
                let term = !w & CONT_MASK;
                if term != 0 {
                    // Byte index of the first clear continuation bit =
                    // last byte of this record.
                    let len = (term.trailing_zeros() as usize >> 3) + 1;
                    // Keep the record's bytes, drop marker bits, fold
                    // the 7-bit groups. A ≤ 8-byte record carries at
                    // most 56 significant bits, so it can never trip
                    // the 128-bit overlong rule — no check needed.
                    let keep = w & (u64::MAX >> (64 - 8 * len));
                    let raw = fold7(keep & PAYLOAD_MASK);
                    push_record(raw >> 1, raw & 1 == 1, prev, &mut out);
                    p += len;
                    committed = p;
                    continue;
                }
            }
            // Slow lane: tail of the buffer, or a record spilling past
            // the 8-byte window — the scalar step handles truncation
            // and the overlong (128-bit overflow) rule.
            match scalar_record(bytes, &mut p) {
                Ok(raw) => {
                    push_record((raw >> 1) as u64, raw & 1 == 1, prev, &mut out);
                    committed = p;
                }
                Err(e) => {
                    return KernelRun {
                        committed,
                        failure: Some(e),
                    }
                }
            }
        }
        KernelRun {
            committed,
            failure: None,
        }
    }
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
/// rewinds. The caller appends the record, so the appender (and its
/// register-held store word) never leaves the kernel's loop.
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
}
