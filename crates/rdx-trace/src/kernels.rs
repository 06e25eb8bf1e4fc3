//! Decode kernels: interchangeable inner loops for the bulk varint
//! decoder, behind one trait and a capability/cost table.
//!
//! [`TraceReader::decode_chunk`](crate::TraceReader::decode_chunk) owns
//! chunk bookkeeping (targets, cursor commit, error parking); the
//! per-record byte crunching is delegated to a [`DecodeKernel`] chosen
//! once per reader. Three kinds exist workspace-wide ([`KernelKind`]):
//!
//! * **scalar** — the original per-byte loop, kept verbatim. It is the
//!   oracle: every other kernel must be byte-for-byte equivalent to it
//!   (outcome, committed cursor, and error taxonomy), which the
//!   equivalence proptests in `io.rs` enforce.
//! * **swar** — SIMD-within-a-register: loads 8 bytes as one `u64` via
//!   `from_le_bytes`, finds the record terminator (continuation bit
//!   clear) with `!w & 0x8080…80`, and folds the 7-bit payload groups
//!   with three mask/shift rounds — no per-byte branches, no `u128`
//!   arithmetic on the common short records. Records longer than 8
//!   bytes and buffer tails fall back to the scalar per-record step.
//! * **simd** — reserved for arch-specific lane kernels. The decoder's
//!   boundary find is already word-parallel and its value chain is
//!   serial in `prev`, so no lane-level variant beats SWAR here; the
//!   table marks the slot unavailable and [`resolve`] falls back to
//!   SWAR. (The scan side in `memsim` does ship an AVX2 kernel.)
//!
//! The table idiom (capability + relative cost per kernel, `auto`
//! resolving to the cheapest available) follows Morello's kernel/cost
//! split, so adding an arch kernel is one new row plus one impl.

use crate::columns::{AccessAppender, AccessBuf};
use crate::io::{unzigzag, varint_bits_overflow, TraceError};

/// A concrete kernel implementation family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable per-element reference implementation (the oracle).
    Scalar,
    /// Portable SIMD-within-a-register implementation (safe Rust).
    Swar,
    /// Arch-specific SIMD (runtime-detected; availability varies).
    Simd,
}

impl KernelKind {
    /// The kernel's name as used in CLI flags and bench JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Swar => "swar",
            KernelKind::Simd => "simd",
        }
    }
}

/// A kernel selection: a fixed kind, or `auto` (cheapest available).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Pick the cheapest available kernel from the capability table.
    #[default]
    Auto,
    /// Force the scalar reference kernel.
    Scalar,
    /// Force the portable SWAR kernel.
    Swar,
    /// Request the arch SIMD kernel (falls back to SWAR where the
    /// table marks it unavailable).
    Simd,
}

impl KernelChoice {
    /// Parses a CLI kernel name (`auto|scalar|swar|simd`).
    #[must_use]
    pub fn parse(s: &str) -> Option<KernelChoice> {
        match s {
            "auto" => Some(KernelChoice::Auto),
            "scalar" => Some(KernelChoice::Scalar),
            "swar" => Some(KernelChoice::Swar),
            "simd" => Some(KernelChoice::Simd),
            _ => None,
        }
    }

    /// The choice's CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Scalar => "scalar",
            KernelChoice::Swar => "swar",
            KernelChoice::Simd => "simd",
        }
    }
}

/// One row of a capability/cost table: whether a kernel kind is usable
/// on this host, and its relative cost (scalar ≡ 100; lower is faster).
#[derive(Debug, Clone, Copy)]
pub struct KernelEntry {
    /// The kernel family this row describes.
    pub kind: KernelKind,
    /// True when the kernel can run on this host (arch + CPU features).
    pub available: bool,
    /// Relative cost per element, scalar = 100 (used by `auto`).
    pub cost: u32,
}

/// Resolves a [`KernelChoice`] against a capability table: `auto` takes
/// the cheapest available row; a forced kind that is unavailable
/// degrades to the cheapest available portable kind (never scalar
/// unless scalar is all that's left).
#[must_use]
pub fn resolve(table: &[KernelEntry], choice: KernelChoice) -> KernelKind {
    let cheapest = table
        .iter()
        .filter(|e| e.available)
        .min_by_key(|e| e.cost)
        .map_or(KernelKind::Scalar, |e| e.kind);
    let want = match choice {
        KernelChoice::Auto => return cheapest,
        KernelChoice::Scalar => KernelKind::Scalar,
        KernelChoice::Swar => KernelKind::Swar,
        KernelChoice::Simd => KernelKind::Simd,
    };
    if table.iter().any(|e| e.kind == want && e.available) {
        want
    } else {
        cheapest
    }
}

/// The decode-side capability/cost table for this host.
///
/// The `simd` row is unavailable by design, not omission: the
/// terminator search is already word-parallel in the SWAR kernel and
/// the address chain (`prev += delta`) is serial, so a lane kernel has
/// nothing left to parallelize. `resolve` sends `simd` to SWAR.
#[must_use]
pub fn decode_kernels() -> [KernelEntry; 3] {
    [
        KernelEntry {
            kind: KernelKind::Scalar,
            available: true,
            cost: 100,
        },
        KernelEntry {
            kind: KernelKind::Swar,
            available: true,
            cost: 35,
        },
        KernelEntry {
            kind: KernelKind::Simd,
            available: false,
            cost: 35,
        },
    ]
}

/// Resolves a decode kernel choice against [`decode_kernels`].
#[must_use]
pub fn resolve_decode(choice: KernelChoice) -> KernelKind {
    resolve(&decode_kernels(), choice)
}

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

/// One interchangeable inner loop of the bulk varint decoder.
///
/// Implementations must be exactly equivalent to [`ScalarDecode`]:
/// same accesses pushed, same committed cursor, same
/// truncated-vs-malformed verdicts, for every input and target.
pub trait DecodeKernel {
    /// Which kernel family this is.
    fn kind(&self) -> KernelKind;

    /// Decodes records from `bytes` onto the end of `out` until
    /// `out.len()` reaches `target`, the bytes run out (`Truncated`) or
    /// an overlong varint is hit (`Malformed`). `prev` is the
    /// delta-chain state, updated to cover exactly the records pushed.
    /// Store bits gather in a register word through an
    /// [`AccessAppender`], flushed every 64 records.
    fn decode_records(
        &self,
        bytes: &[u8],
        target: usize,
        prev: &mut u64,
        out: &mut AccessBuf,
    ) -> KernelRun;
}

/// The original per-byte decode loop, retained verbatim as the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarDecode;

impl DecodeKernel for ScalarDecode {
    fn kind(&self) -> KernelKind {
        KernelKind::Scalar
    }

    fn decode_records(
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

impl DecodeKernel for SwarDecode {
    fn kind(&self) -> KernelKind {
        KernelKind::Swar
    }

    fn decode_records(
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

/// Runs the decode kernel of `kind` (static dispatch — the reader
/// resolved the kind once at construction).
pub(crate) fn run_decode(
    kind: KernelKind,
    bytes: &[u8],
    target: usize,
    prev: &mut u64,
    out: &mut AccessBuf,
) -> KernelRun {
    match kind {
        KernelKind::Scalar => ScalarDecode.decode_records(bytes, target, prev, out),
        // The table has no arch decode kernel; `Simd` cannot reach a
        // reader (resolve_decode sends it to SWAR), but stay total.
        KernelKind::Swar | KernelKind::Simd => SwarDecode.decode_records(bytes, target, prev, out),
    }
}

/// The decode kernel instance for `kind`, for benches and tests that
/// drive kernels directly.
#[must_use]
pub fn decode_kernel(kind: KernelKind) -> &'static dyn DecodeKernel {
    match kind {
        KernelKind::Scalar => &ScalarDecode,
        KernelKind::Swar | KernelKind::Simd => &SwarDecode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_auto_picks_cheapest_available() {
        assert_eq!(resolve_decode(KernelChoice::Auto), KernelKind::Swar);
        assert_eq!(resolve_decode(KernelChoice::Scalar), KernelKind::Scalar);
        assert_eq!(resolve_decode(KernelChoice::Swar), KernelKind::Swar);
        // No arch decode kernel: simd degrades to the portable SWAR.
        assert_eq!(resolve_decode(KernelChoice::Simd), KernelKind::Swar);
    }

    #[test]
    fn resolve_handles_empty_and_unavailable_tables() {
        assert_eq!(resolve(&[], KernelChoice::Auto), KernelKind::Scalar);
        let none = [KernelEntry {
            kind: KernelKind::Simd,
            available: false,
            cost: 10,
        }];
        assert_eq!(resolve(&none, KernelChoice::Simd), KernelKind::Scalar);
    }

    #[test]
    fn choice_names_roundtrip() {
        for c in [
            KernelChoice::Auto,
            KernelChoice::Scalar,
            KernelChoice::Swar,
            KernelChoice::Simd,
        ] {
            assert_eq!(KernelChoice::parse(c.name()), Some(c));
        }
        assert_eq!(KernelChoice::parse("avx9"), None);
    }

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
