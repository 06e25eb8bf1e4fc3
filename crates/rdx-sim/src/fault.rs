//! Input-corruption faults: deterministic byte surgery on valid RDXT
//! streams.
//!
//! The injector never flips random bits — each fault is a precise,
//! schedule-positionable corruption with a known required verdict:
//!
//! * [`truncate_tail`] cuts bytes off the end → the decoder must
//!   deliver the decodable prefix and park `TraceError::Truncated`.
//! * [`overlong_varint`] splices a varint whose continuation bytes
//!   carry significant bits past the 128-bit payload → the decoder
//!   must deliver the prefix and park `TraceError::Malformed`.
//!
//! RDXT layout (see `rdx_trace::io`): magic `RDXT` (4) · version u32 LE
//! (4) · name_len u32 LE (4) · name · count u64 LE (8) · varint
//! records. The helpers below parse that header to patch the declared
//! count coherently, so the fault under test is the *record*
//! corruption, not an accidental header mismatch.

use bytes::Bytes;

/// Offset of the name-length field in the fixed header.
const NAME_LEN_AT: usize = 8;
/// Fixed-width header bytes before the name: magic, version, name_len.
const PRE_NAME: usize = 12;
/// Count field width.
const COUNT_LEN: usize = 8;

/// Which input corruption a session scenario injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFault {
    /// Cut bytes off the end of the stream (`Truncated`).
    TruncateTail,
    /// Splice an overlong varint after the valid records (`Malformed`).
    OverlongVarint,
}

/// Byte offset of the count field, i.e. end of the name. `None` if the
/// buffer is too short to even hold the fixed header (valid inputs
/// always can).
fn count_at(bytes: &[u8]) -> Option<usize> {
    let name_len = u32::from_le_bytes([
        *bytes.get(NAME_LEN_AT)?,
        *bytes.get(NAME_LEN_AT + 1)?,
        *bytes.get(NAME_LEN_AT + 2)?,
        *bytes.get(NAME_LEN_AT + 3)?,
    ]) as usize;
    let at = PRE_NAME + name_len;
    (bytes.len() >= at + COUNT_LEN).then_some(at)
}

/// Cuts `cut` bytes off the tail (clamped so at least the header
/// survives): mid-record truncation when `cut` lands inside a varint.
#[must_use]
pub fn truncate_tail(bytes: &[u8], cut: usize) -> Bytes {
    let floor = count_at(bytes).map_or(0, |at| at + COUNT_LEN);
    let keep = bytes.len().saturating_sub(cut).max(floor);
    Bytes::from(bytes[..keep].to_vec())
}

/// Appends one record whose varint encoding is overlong (19
/// continuation bytes carry significant bits past the 128-bit
/// payload), bumping the declared count to match — so the stream fails
/// on the *encoding*, not on a count mismatch. Returns the input
/// unchanged if it is too short to carry the fixed header.
#[must_use]
pub fn overlong_varint(bytes: &[u8]) -> Bytes {
    let Some(at) = count_at(bytes) else {
        return Bytes::from(bytes.to_vec());
    };
    let mut out = bytes.to_vec();
    let mut count = [0u8; COUNT_LEN];
    count.copy_from_slice(&out[at..at + COUNT_LEN]);
    let declared = u64::from_le_bytes(count).wrapping_add(1);
    out[at..at + COUNT_LEN].copy_from_slice(&declared.to_le_bytes());
    // 19 × 0xff: by byte 19 the shift is 126 and 7 significant bits no
    // longer fit below bit 128 — both decoders reject this as
    // Malformed before the terminator is even reached.
    out.extend_from_slice(&[0xff; 19]);
    out.push(0x7f);
    Bytes::from(out)
}

/// Applies `fault` to a valid RDXT byte stream. For `TruncateTail` the
/// cut size comes from the schedule (`cut`), so every byte boundary —
/// including mid-varint and mid-header-adjacent ones — gets explored
/// across seeds.
#[must_use]
pub fn apply(fault: InputFault, bytes: &[u8], cut: usize) -> Bytes {
    match fault {
        InputFault::TruncateTail => truncate_tail(bytes, cut),
        InputFault::OverlongVarint => overlong_varint(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::{io, AccessStream, Trace, TraceError, TraceReader};

    fn sample() -> Bytes {
        io::to_bytes(&Trace::from_addresses("fault", (0..100u64).map(|i| i * 64)))
    }

    #[test]
    fn truncate_yields_truncated_error() {
        let raw = sample();
        for cut in [1, 5, 17] {
            let hurt = truncate_tail(&raw, cut);
            assert_eq!(hurt.len(), raw.len() - cut);
            let mut r = TraceReader::new(hurt).expect("header intact");
            while r.next_access().is_some() {}
            assert!(matches!(r.finish(), Err(TraceError::Truncated)));
        }
    }

    #[test]
    fn truncate_never_cuts_into_header() {
        let raw = sample();
        let hurt = truncate_tail(&raw, raw.len());
        assert!(TraceReader::new(hurt).is_ok(), "header must survive");
    }

    #[test]
    fn overlong_yields_malformed_error() {
        let raw = sample();
        let hurt = overlong_varint(&raw);
        let mut r = TraceReader::new(hurt).expect("header intact");
        let mut prefix = 0u64;
        while r.next_access().is_some() {
            prefix += 1;
        }
        assert_eq!(prefix, 100, "valid records still decode");
        assert!(matches!(r.finish(), Err(TraceError::Malformed)));
    }
}
