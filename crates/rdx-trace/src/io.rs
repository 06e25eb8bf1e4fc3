//! Binary trace serialization.
//!
//! Format (`RDXT` version 1), little-endian throughout:
//!
//! ```text
//! magic    [u8; 4]  = b"RDXT"
//! version  u32      = 1
//! name_len u32
//! name     [u8; name_len] (UTF-8)
//! count    u64
//! records  count × record
//! ```
//!
//! Each record is a LEB128-style varint of `zigzag(addr_delta) << 1 | kind`,
//! where `addr_delta` is the signed difference from the previous address.
//! Regular strides compress to 1–2 bytes per access, which matters for
//! multi-hundred-million access traces.
//!
//! Malformed input is **never** a panic: every decode path — the one-shot
//! [`from_bytes`] as well as the batch-wise [`TraceReader`] and the
//! incremental [`RdxtDecoder`] — reports a typed [`TraceError`] and
//! leaves the process in control of recovery. Proptests below drive
//! arbitrary garbage through every layer to keep that guarantee honest.

use crate::chunk::{Chunk, DEFAULT_CHUNK_CAPACITY};
use crate::columns::AccessBuf;
use crate::decoder::RdxtDecoder;
use crate::trace::Trace;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: &[u8; 4] = b"RDXT";
const VERSION: u32 = 1;

/// Longest embedded trace name the format accepts, in bytes.
///
/// The wire field is a `u32`, but an unbounded name is useless and a
/// `name.len() as u32` cast would silently truncate the length field of
/// a multi-gigabyte name, desynchronizing the header from its payload.
/// Construction ([`crate::Trace`]) clamps names to this bound; encoding
/// ([`try_to_bytes`]) and decoding ([`TraceReader::new`]) reject
/// anything longer.
pub const MAX_NAME_LEN: usize = 4096;

/// `name` cut at the last char boundary that fits [`MAX_NAME_LEN`].
#[must_use]
pub(crate) fn clamp_name(name: &str) -> &str {
    if name.len() <= MAX_NAME_LEN {
        return name;
    }
    let mut end = MAX_NAME_LEN;
    while !name.is_char_boundary(end) {
        end -= 1;
    }
    &name[..end]
}

/// Errors produced by trace (de)serialization.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the `RDXT` magic.
    BadMagic,
    /// The input has an unsupported format version.
    BadVersion(u32),
    /// The input ended before the declared record count was read.
    Truncated,
    /// A varint record is non-canonical: a continuation byte carries
    /// significant bits past the 128-bit payload (an overlong encoding
    /// would silently decode to a wrong value), or the header violates a
    /// format bound such as [`MAX_NAME_LEN`]. Unlike
    /// [`Truncated`](TraceError::Truncated) this is corruption, not
    /// short input — retrying with more bytes cannot fix it.
    Malformed,
    /// The embedded name is not valid UTF-8.
    BadName,
    /// The trace name exceeds [`MAX_NAME_LEN`] bytes and cannot be
    /// serialized without clamping.
    NameTooLong(usize),
    /// Bytes remain after the declared record count was decoded.
    TrailingData(usize),
}

/// Former name of [`TraceError`].
#[deprecated(note = "renamed to TraceError")]
pub type TraceIoError = TraceError;

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "trace file truncated (input ended early)"),
            TraceError::Malformed => {
                write!(f, "trace record malformed (overlong varint encoding)")
            }
            TraceError::BadName => write!(f, "trace name is not valid utf-8"),
            TraceError::NameTooLong(n) => {
                write!(f, "trace name is {n} bytes; the limit is {MAX_NAME_LEN}")
            }
            TraceError::TrailingData(n) => {
                write!(f, "{n} trailing byte(s) after the declared record count")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A fresh instance of a parked decode error. `TraceError` is not
/// `Clone` (it can wrap `std::io::Error`), but the errors the decoders
/// park are always the format kinds, which a fused decoder must keep
/// re-reporting without losing the truncated-vs-malformed distinction.
pub(crate) fn dup_decode_error(e: &TraceError) -> TraceError {
    match e {
        TraceError::Malformed => TraceError::Malformed,
        TraceError::BadMagic => TraceError::BadMagic,
        TraceError::BadVersion(v) => TraceError::BadVersion(*v),
        TraceError::BadName => TraceError::BadName,
        _ => TraceError::Truncated,
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// True when OR-ing `sig << shift` into a `u128` would lose bits: the
/// shift is past the payload width, or the byte's significant bits do
/// not all fit below bit 128. Such an encoding is overlong — decoding
/// it "successfully" would produce a silently wrong value, so both the
/// scalar and the bulk decoder reject it as [`TraceError::Malformed`].
#[inline]
pub(crate) fn varint_bits_overflow(sig: u128, shift: u32) -> bool {
    // `shift >= 128` must short-circuit: a shift that large is itself
    // UB-adjacent (masked in release, panic in debug).
    shift >= 128 || (sig << shift) >> shift != sig
}

pub(crate) fn get_varint(buf: &mut Bytes) -> Result<u128, TraceError> {
    let mut v = 0u128;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(TraceError::Truncated);
        }
        let byte = buf.get_u8();
        let sig = u128::from(byte & 0x7f);
        if varint_bits_overflow(sig, shift) {
            return Err(TraceError::Malformed);
        }
        v |= sig << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Serializes a trace into bytes, erroring on an unencodable name.
///
/// [`Trace`] construction clamps names to [`MAX_NAME_LEN`], so inputs
/// built through its constructors always encode; the error path guards
/// traces deserialized or patched by other means.
///
/// # Errors
///
/// [`TraceError::NameTooLong`] when the name exceeds [`MAX_NAME_LEN`]
/// bytes — the header length field must never be silently truncated.
pub fn try_to_bytes(trace: &Trace) -> Result<Bytes, TraceError> {
    if trace.name().len() > MAX_NAME_LEN {
        return Err(TraceError::NameTooLong(trace.name().len()));
    }
    Ok(to_bytes(trace))
}

/// Serializes a trace into bytes.
///
/// The name is written clamped to [`MAX_NAME_LEN`] bytes (a no-op for
/// traces built through [`Trace`]'s constructors, which already enforce
/// the bound); the length field always matches the bytes written. Use
/// [`try_to_bytes`] to reject over-long names instead of clamping.
#[must_use]
pub fn to_bytes(trace: &Trace) -> Bytes {
    let name = clamp_name(trace.name()).as_bytes();
    let accesses = trace.accesses();
    // The records' exact size, so the buffer is reserved once. Each
    // address is rebuilt from its two words inside the delta chain.
    let deltas = || {
        accesses.addrs().scan(0u64, |prev, addr| {
            let delta = addr.wrapping_sub(*prev) as i64;
            *prev = addr;
            Some(zigzag(delta))
        })
    };
    let body: usize = deltas().map(record_len).sum();
    let mut buf = BytesMut::with_capacity(MAGIC.len() + 16 + name.len() + body);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    // The clamp bounds `name.len()` ≤ MAX_NAME_LEN, so this cast is
    // exact and the length field agrees with the payload that follows.
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name);
    buf.put_u64_le(trace.len() as u64);
    // Records gather in a stack block, copied out whenever the next
    // one might not fit.
    let mut block = [0u8; ENCODE_BLOCK];
    let mut at = 0;
    let mut stores = 0;
    for (i, zz) in deltas().enumerate() {
        if i % 64 == 0 {
            stores = accesses.store_word(i);
        }
        let kind = stores & 1;
        stores >>= 1;
        if at > ENCODE_BLOCK - 8 {
            buf.put_slice(&block[..at]);
            at = 0;
        }
        if zz >> 55 == 0 {
            at += put_short_varint(&mut block[at..], (zz << 1) | kind);
        } else {
            // |delta| ≥ 2^54: a 9- or 10-byte record, or (from 2^62)
            // one whose payload needs more than 64 bits.
            buf.put_slice(&block[..at]);
            at = 0;
            put_varint(&mut buf, (u128::from(zz) << 1) | u128::from(kind));
        }
    }
    buf.put_slice(&block[..at]);
    rdx_metrics::counter("rdx.trace.encode.events").add(trace.len() as u64);
    rdx_metrics::counter("rdx.trace.encode.bytes").add(buf.len() as u64);
    buf.freeze()
}

/// Bytes of the stack block `to_bytes` gathers records in.
const ENCODE_BLOCK: usize = 4096;

/// Bytes of the record of a zigzagged delta `zz`: its significant bits
/// plus the kind bit, 7 to a byte.
fn record_len(zz: u64) -> usize {
    (71 - zz.leading_zeros() as usize) / 7
}

/// Writes `v` (< 2^56) as a varint of at most 8 bytes at the start of
/// `out`, exactly the bytes [`put_varint`] writes for it, and returns
/// how many. `out` must have room for 8 bytes.
///
/// There is no byte loop, so a record's length costs no branch: the
/// 7-bit groups spread into bytes, every byte but the last is flagged,
/// and all 8 bytes are stored.
#[inline]
fn put_short_varint(out: &mut [u8], v: u64) -> usize {
    debug_assert!(v >> 56 == 0);
    let len = (63 - (v | 1).leading_zeros() as usize) / 7 + 1;
    let more = HIGH_BITS & ((1 << (8 * (len - 1))) - 1);
    out[..8].copy_from_slice(&(spread7(v) | more).to_le_bytes());
    len
}

/// Bit 7 of each byte of a word.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Spreads the low 56 bits of `x` into eight 7-bit groups, one per
/// byte, little-endian: the inverse of the decoder's fold.
#[inline]
fn spread7(x: u64) -> u64 {
    let x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x00ff_ffff_f000_0000) << 4);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1)
}

/// Counts one bulk decode pass of `n` records over `bytes` bytes, `slow`
/// of them read by the per-record scalar step.
pub(crate) fn count_decoded(bytes: usize, n: usize, slow: usize) {
    if n == 0 {
        return;
    }
    rdx_metrics::counter("rdx.trace.decode.bytes").add(bytes as u64);
    rdx_metrics::counter("rdx.trace.decode.accesses").add(n as u64);
    rdx_metrics::counter("rdx.trace.decode.chunks").incr();
    // Most passes have none, and a counter lookup costs a lock.
    if slow > 0 {
        rdx_metrics::counter("rdx.trace.decode.slow_records").add(slow as u64);
    }
}

/// A parsed `RDXT` header.
#[derive(Debug)]
pub struct Header {
    /// The embedded trace name.
    pub name: String,
    /// The record count the header declares.
    pub declared: u64,
    /// Header length in bytes: the records start here.
    pub len: usize,
}

/// Longest possible header: fixed fields plus a [`MAX_NAME_LEN`] name.
/// A first read of at least this many bytes holds any valid header.
pub const MAX_HEADER_LEN: usize = 4 + 4 + 4 + MAX_NAME_LEN + 8;

/// The header rules of the format, shared by every decoder: parses the
/// header at the start of `bytes` (which may run on into the records).
///
/// # Errors
///
/// [`TraceError::BadMagic`] when the first four bytes are missing or
/// wrong, [`TraceError::BadVersion`], [`TraceError::Malformed`] for a
/// name longer than [`MAX_NAME_LEN`], [`TraceError::BadName`] for a
/// non-UTF-8 name, and [`TraceError::Truncated`] when `bytes` ends
/// inside the header — the only verdict more bytes can change.
pub fn parse_header(bytes: &[u8]) -> Result<Header, TraceError> {
    if bytes.get(..4) != Some(&MAGIC[..]) {
        return Err(TraceError::BadMagic);
    }
    let field = |at: usize, len: usize| bytes.get(at..at + len).ok_or(TraceError::Truncated);
    let u32_at = |at: usize| -> Result<u32, TraceError> {
        let mut le = [0u8; 4];
        le.copy_from_slice(field(at, 4)?);
        Ok(u32::from_le_bytes(le))
    };
    let version = u32_at(4)?;
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let name_len = u32_at(8)? as usize;
    if name_len > MAX_NAME_LEN {
        return Err(TraceError::Malformed);
    }
    let name = std::str::from_utf8(field(12, name_len)?)
        .map_err(|_| TraceError::BadName)?
        .to_owned();
    let mut count = [0u8; 8];
    count.copy_from_slice(field(12 + name_len, 8)?);
    Ok(Header {
        name,
        declared: u64::from_le_bytes(count),
        len: 12 + name_len + 8,
    })
}

/// Whole-buffer decoder of the `RDXT` format: one [`RdxtDecoder`] fed
/// the entire buffer, decoded in caller-sized batches through
/// [`decode_chunk`](TraceReader::decode_chunk).
///
/// Construction ([`TraceReader::new`]) validates the header eagerly.
/// Records decode through the same record loop a streaming session
/// runs, so malformed input is a typed [`TraceError`] — a recoverable
/// condition, not a panic — and [`finish`](TraceReader::finish) gives
/// the same verdict [`RdxtDecoder::finish`] gives for the same bytes.
#[derive(Debug)]
pub struct TraceReader {
    /// Record bytes the decoder has not consumed yet.
    buf: Bytes,
    name: String,
    decoder: RdxtDecoder,
}

impl TraceReader {
    /// Parses the header and prepares to decode the records.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the magic, version, name, or count
    /// fields are missing or malformed.
    pub fn new(bytes: impl Into<Bytes>) -> Result<TraceReader, TraceError> {
        let mut buf: Bytes = bytes.into();
        let header = parse_header(&buf)?;
        buf.advance(header.len);
        Ok(TraceReader {
            buf,
            decoder: RdxtDecoder::after_header(&header),
            name: header.name,
        })
    }

    /// The trace's embedded name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The record count declared in the header.
    #[must_use]
    pub fn declared_len(&self) -> u64 {
        self.decoder.declared()
    }

    /// Records decoded so far.
    #[must_use]
    pub fn decoded(&self) -> u64 {
        self.decoder.decoded()
    }

    /// Bulk-decodes up to `max` (≥ 1) accesses into `out` in one tight
    /// pass.
    ///
    /// `out` is cleared and reused: `out.base_index` is set to the
    /// stream index of the first decoded access.
    ///
    /// Returns the number of accesses decoded; `Ok(0)` means a clean
    /// end of trace. The reader is fused: after an error every further
    /// call fails with the same kind.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when the input ends before the declared
    /// record count is reached, [`TraceError::Malformed`] at an overlong
    /// record. The successfully decoded prefix (possibly empty) is left
    /// in `out` — error recovery is at chunk granularity: the prefix is
    /// valid, everything after the error is not.
    pub fn decode_chunk(&mut self, out: &mut Chunk, max: usize) -> Result<usize, TraceError> {
        out.base_index = self.decoder.decoded();
        let used = self.decoder.decode(&self.buf, &mut out.accesses, max)?;
        self.buf.advance(used);
        let n = out.accesses.len();
        if n < max {
            // The decoder stopped short of `max`, so it consumed the
            // whole input: a declared record still missing never comes.
            self.decoder.end_input()?;
        }
        Ok(n)
    }

    /// Verifies the reader consumed the input exactly: all declared
    /// records decoded and no bytes left over.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] if records are missing,
    /// [`TraceError::TrailingData`] if bytes remain.
    pub fn finish(mut self) -> Result<(), TraceError> {
        if !self.buf.is_empty() && self.decoder.decoded() == self.decoder.declared() {
            // Every declared record is out: what the decoder has not
            // seen yet is trailing data, which it counts, not decodes.
            let _ = self.decoder.decode(&self.buf, &mut AccessBuf::new(), 1);
        }
        self.decoder.finish()
    }
}

/// Deserializes a trace from bytes.
///
/// # Errors
///
/// Returns a [`TraceError`] if the input is not a valid version-1 trace
/// consumed exactly (trailing bytes after the declared records are
/// rejected as [`TraceError::TrailingData`]).
pub fn from_bytes(bytes: impl Into<Bytes>) -> Result<Trace, TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let mut accesses = AccessBuf::new();
    let mut chunk = Chunk::default();
    while reader.decode_chunk(&mut chunk, DEFAULT_CHUNK_CAPACITY)? > 0 {
        accesses.extend_from_slice(chunk.accesses.as_slice());
    }
    let name = reader.name().to_owned();
    reader.finish()?;
    Ok(Trace::from_buf(name, accesses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Access;

    /// Decodes `reader` to its end in batches of at most `max`: the
    /// accesses delivered (the prefix before an error included) and
    /// the first error.
    pub(super) fn drain(reader: &mut TraceReader, max: usize) -> (AccessBuf, Option<TraceError>) {
        let mut got = AccessBuf::new();
        let mut chunk = Chunk::default();
        loop {
            let r = reader.decode_chunk(&mut chunk, max);
            assert_eq!(chunk.base_index, got.len() as u64);
            got.extend_from_slice(chunk.accesses.as_slice());
            match r {
                Ok(0) => return (got, None),
                Ok(_) => {}
                Err(e) => return (got, Some(e)),
            }
        }
    }

    fn sample_trace() -> Trace {
        let mut t: Trace = [
            (0x1000u64, false),
            (0x1040, true),
            (0x0008, false), // backwards jump exercises signed deltas
            (0xdead_beef_0000, true),
            (0xdead_beef_0000, false),
        ]
        .into_iter()
        .collect();
        t.push(Access::load(u64::MAX));
        t
    }

    #[test]
    fn roundtrip_bytes() {
        let t = Trace::from_stream("roundtrip", sample_trace().stream());
        let b = to_bytes(&t);
        let t2 = from_bytes(b).unwrap();
        assert_eq!(t2.name(), "roundtrip");
        assert_eq!(t.accesses(), t2.accesses());
    }

    #[test]
    fn roundtrip_empty() {
        let t = Trace::new("empty");
        let t2 = from_bytes(to_bytes(&t)).unwrap();
        assert_eq!(t2.name(), "empty");
        assert!(t2.is_empty());
    }

    #[test]
    fn bytes_from_a_vec_keeps_its_buffer() {
        // Converting a `Vec` into `Bytes` (and freezing a `BytesMut`)
        // moves the buffer: `to_bytes` and every frame reader hand
        // their output on without a second whole-buffer copy.
        let v = vec![7u8; 4096];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.slice(16..).as_ptr(), at.wrapping_add(16));
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(&[1, 2, 3]);
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), at);
    }

    #[test]
    fn strided_trace_compresses() {
        let t = Trace::from_addresses("s", (0..10_000u64).map(|i| i * 64));
        let b = to_bytes(&t);
        // 64-byte stride zigzags to 128, shifted once more -> 2-byte varints.
        assert!(b.len() < 10_000 * 3, "got {} bytes", b.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes(&b"NOPE00000000"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let t = Trace::new("v");
        let mut raw = to_bytes(&t).to_vec();
        raw[4] = 99;
        let err = from_bytes(raw).unwrap_err();
        assert!(matches!(err, TraceError::BadVersion(99)), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let t = Trace::from_addresses("t", [1u64, 2, 3]);
        let raw = to_bytes(&t);
        for cut in 1..raw.len() {
            let sliced = raw.slice(..cut);
            assert!(
                from_bytes(sliced).is_err(),
                "truncation at {cut} must be detected"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let t = Trace::from_addresses("t", [1u64, 2, 3]);
        let mut raw = to_bytes(&t).to_vec();
        raw.push(0x00);
        let err = from_bytes(raw).unwrap_err();
        assert!(matches!(err, TraceError::TrailingData(1)), "{err}");
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        assert!(TraceError::Truncated.to_string().contains("truncated"));
        assert!(TraceError::Malformed.to_string().contains("malformed"));
        assert!(TraceError::BadVersion(7).to_string().contains('7'));
        assert!(TraceError::TrailingData(3).to_string().contains('3'));
        let e = TraceError::NameTooLong(MAX_NAME_LEN + 1).to_string();
        assert!(e.contains(&MAX_NAME_LEN.to_string()), "{e}");
    }

    /// An overlong varint: 18 continuation bytes reach shift 126, where
    /// only two significant bits still fit; `last` carries more.
    fn overlong_varint(last: u8) -> Vec<u8> {
        let mut bytes = vec![0x81u8; 18];
        bytes.push(last);
        bytes
    }

    #[test]
    fn overlong_varint_rejected_not_silently_truncated() {
        // Pre-fix behavior: the high bits of the 19th byte were shifted
        // out and the varint "decoded" to a wrong value. It must error.
        for last in [0x04u8, 0x7f, 0x84, 0xff] {
            let mut buf = Bytes::from(overlong_varint(last));
            assert!(
                matches!(get_varint(&mut buf), Err(TraceError::Malformed)),
                "last={last:#04x} must be rejected"
            );
        }
        // A 19th byte whose significant bits fit (≤ 2 bits) is legal...
        let mut buf = Bytes::from(overlong_varint(0x03));
        assert!(get_varint(&mut buf).is_ok());
        // ...but a 20th byte never is (shift 133 ≥ 128), even a zero.
        let mut bytes = vec![0x80u8; 19];
        bytes.push(0x00);
        let mut buf = Bytes::from(bytes);
        assert!(matches!(get_varint(&mut buf), Err(TraceError::Malformed)));
    }

    /// A valid single-record trace whose record bytes are replaced by
    /// `record`, with the declared count forced to `declared`.
    fn trace_with_raw_record(record: &[u8], declared: u64) -> Vec<u8> {
        let t = Trace::from_addresses("raw", [1u64]);
        let raw = to_bytes(&t).to_vec();
        let name_len = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]) as usize;
        let count_at = 12 + name_len;
        let mut out = raw[..count_at].to_vec();
        out.extend_from_slice(&declared.to_le_bytes());
        out.extend_from_slice(record);
        out
    }

    #[test]
    fn malformed_record_distinguished_from_truncation_everywhere() {
        let raw = trace_with_raw_record(&overlong_varint(0x7f), 1);
        // one-shot
        assert!(matches!(
            from_bytes(raw.clone()),
            Err(TraceError::Malformed)
        ));
        // bulk: the error is parked and keeps the Malformed kind
        let mut reader = TraceReader::new(raw).unwrap();
        let mut chunk = Chunk::default();
        assert!(matches!(
            reader.decode_chunk(&mut chunk, 16),
            Err(TraceError::Malformed)
        ));
        assert!(matches!(
            reader.decode_chunk(&mut chunk, 16),
            Err(TraceError::Malformed)
        ));
        assert!(matches!(reader.finish(), Err(TraceError::Malformed)));
        // short input still reports Truncated, not Malformed
        let cut = trace_with_raw_record(&[0x81], 1);
        assert!(matches!(from_bytes(cut), Err(TraceError::Truncated)));
    }

    #[test]
    fn serializer_rejects_oversized_name() {
        let t = Trace::with_unchecked_name("n".repeat(MAX_NAME_LEN + 1));
        assert!(matches!(
            try_to_bytes(&t),
            Err(TraceError::NameTooLong(n)) if n == MAX_NAME_LEN + 1
        ));
        // The infallible encoder clamps instead, keeping the length
        // field and the payload consistent; the result decodes.
        let raw = to_bytes(&t);
        let t2 = from_bytes(raw).unwrap();
        assert_eq!(t2.name().len(), MAX_NAME_LEN);
        // In-bounds names pass `try_to_bytes` unchanged.
        let ok = Trace::from_addresses("fine", [1u64, 2]);
        assert_eq!(try_to_bytes(&ok).unwrap(), to_bytes(&ok));
    }

    #[test]
    fn decoder_rejects_oversized_name_length() {
        let t = Trace::from_addresses("n", [1u64]);
        let mut raw = to_bytes(&t).to_vec();
        let bad_len = (MAX_NAME_LEN as u32 + 1).to_le_bytes();
        raw[8..12].copy_from_slice(&bad_len);
        assert!(matches!(TraceReader::new(raw), Err(TraceError::Malformed)));
    }

    #[test]
    fn zigzag_extremes_roundtrip_through_codec() {
        // i64::MIN/MAX zigzag to the top of the u64 range; with the kind
        // bit the varint record needs more than 64 bits of payload.
        let t: Trace = [
            (0u64, false),
            (u64::MAX, true),             // delta +MAX ≡ -1 as i64
            (0u64, false),                // delta wraps back down
            (i64::MAX as u64, true),      // delta i64::MAX
            (i64::MAX as u64 + 1, false), // net position i64::MIN as u64
        ]
        .into_iter()
        .collect();
        let t2 = from_bytes(to_bytes(&t)).unwrap();
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = t2.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn reader_streams_accesses() {
        let t = sample_trace();
        let raw = to_bytes(&Trace::from_stream("r", t.stream()));
        let mut reader = TraceReader::new(raw).unwrap();
        assert_eq!(reader.name(), "r");
        assert_eq!(reader.declared_len(), t.len() as u64);
        assert_eq!(reader.decoded(), 0);
        let (got, err) = drain(&mut reader, DEFAULT_CHUNK_CAPACITY);
        assert!(err.is_none());
        assert_eq!(got.as_slice(), t.accesses());
        assert_eq!(reader.decoded(), t.len() as u64);
        assert!(reader.finish().is_ok());
    }

    #[test]
    fn reader_parks_truncation_error_for_stream_drivers() {
        let t = Trace::from_addresses("cut", (0..100u64).map(|i| i * 64));
        let raw = to_bytes(&t);
        let cut = raw.slice(..raw.len() - 7);
        let mut reader = TraceReader::new(cut).unwrap();
        let (got, err) = drain(&mut reader, 1);
        assert!(got.len() < 100, "decode must end early, got {}", got.len());
        assert!(matches!(err, Some(TraceError::Truncated)));
        // fused: further calls keep failing without panicking, and the
        // verdict keeps the kind
        let mut chunk = Chunk::default();
        assert!(matches!(
            reader.decode_chunk(&mut chunk, 8),
            Err(TraceError::Truncated)
        ));
        assert!(matches!(reader.finish(), Err(TraceError::Truncated)));
    }

    #[test]
    fn reader_finish_detects_unconsumed_records() {
        let t = Trace::from_addresses("partial", [1u64, 2, 3]);
        let mut reader = TraceReader::new(to_bytes(&t)).unwrap();
        assert_eq!(reader.decode_chunk(&mut Chunk::default(), 1).unwrap(), 1);
        assert!(matches!(reader.finish(), Err(TraceError::Truncated)));
    }

    #[test]
    fn decode_chunk_bulk_decodes_whole_trace() {
        let t = sample_trace();
        let raw = to_bytes(&Trace::from_stream("bulk", t.stream()));
        let mut reader = TraceReader::new(raw).unwrap();
        let mut chunk = Chunk::default();
        let mut got = Vec::new();
        let mut bases = Vec::new();
        loop {
            let n = reader.decode_chunk(&mut chunk, 4).unwrap();
            if n == 0 {
                break;
            }
            bases.push(chunk.base_index);
            got.extend(chunk.accesses.iter());
        }
        assert_eq!(got, t.iter().collect::<Vec<_>>());
        assert_eq!(bases, vec![0, 4]);
        assert!(reader.finish().is_ok());
    }

    #[test]
    fn decode_chunk_keeps_prefix_on_truncation_and_fuses() {
        let t = Trace::from_addresses("cut", (0..100u64).map(|i| i * 64));
        let raw = to_bytes(&t);
        let cut = raw.slice(..raw.len() - 7);
        let mut reader = TraceReader::new(cut).unwrap();
        let mut chunk = Chunk::default();
        let err = reader.decode_chunk(&mut chunk, 1 << 16).unwrap_err();
        assert!(matches!(err, TraceError::Truncated));
        assert!(!chunk.is_empty(), "decoded prefix must be preserved");
        assert_eq!(chunk.len() as u64, reader.decoded());
        // fused: the next bulk call fails with a cleared chunk
        assert!(reader.decode_chunk(&mut chunk, 16).is_err());
        assert!(chunk.is_empty());
        assert!(matches!(reader.finish(), Err(TraceError::Truncated)));
    }

    #[test]
    fn chunk_api_serves_decoded_prefix_before_parked_error() {
        // Small batches: whole batches of the prefix come out before
        // the call that reaches the cut fails.
        let t = Trace::from_addresses("cutc", (0..50u64).map(|i| i * 64));
        let raw = to_bytes(&t);
        let cut = raw.slice(..raw.len() - 5);
        let mut reader = TraceReader::new(cut).unwrap();
        let mut chunk = Chunk::default();
        let mut delivered = 0u64;
        let err = loop {
            match reader.decode_chunk(&mut chunk, 8) {
                Ok(n) => {
                    assert_eq!(n, 8, "a full batch before the cut");
                    delivered += 8;
                }
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceError::Truncated));
        assert!(delivered >= 40, "the prefix batches came first");
        delivered += chunk.len() as u64;
        assert!(delivered < 50, "decode must end early, got {delivered}");
        assert_eq!(delivered, reader.decoded());
        assert!(reader.finish().is_err());
    }

    #[test]
    fn absurd_declared_count_does_not_preallocate() {
        // A 30-byte file whose header declares u64::MAX records must
        // fail with a typed error, not abort in a capacity reservation.
        let t = Trace::from_addresses("big", [1u64, 2, 3]);
        let mut raw = to_bytes(&t).to_vec();
        let name_len = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]) as usize;
        let count_at = 12 + name_len;
        raw[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        // one-shot decode
        assert!(matches!(
            from_bytes(raw.clone()),
            Err(TraceError::Truncated)
        ));
        // bulk decode
        let mut reader = TraceReader::new(raw.clone()).unwrap();
        assert_eq!(reader.declared_len(), u64::MAX);
        let mut chunk = Chunk::default();
        assert!(reader.decode_chunk(&mut chunk, usize::MAX).is_err());
        assert_eq!(chunk.len(), 3, "valid prefix records still decode");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::Access;
    use proptest::prelude::*;

    /// Runs the scalar oracle and every block instance this host can
    /// run on `data`, onto a buffer already holding `held` accesses, up
    /// to `target` accesses in all: everything observable must agree.
    fn check_block_kernels(data: &[u8], target: usize, prev: u64, held: usize) {
        use crate::kernels::{BlockDecode, ScalarDecode};
        let head: AccessBuf = (0..held as u64)
            .map(|i| {
                if i % 3 == 0 {
                    Access::store(i)
                } else {
                    Access::load(i)
                }
            })
            .collect();
        let tag = |f: &Option<TraceError>| match f {
            None => 0u8,
            Some(TraceError::Truncated) => 1,
            Some(TraceError::Malformed) => 2,
            Some(_) => 3,
        };
        let mut scalar_prev = prev;
        let mut scalar_out = head.clone();
        let scalar = ScalarDecode.decode_records(data, target, &mut scalar_prev, &mut scalar_out);
        let instances = [Some(BlockDecode::portable()), BlockDecode::bmi2()];
        for kernel in instances.into_iter().flatten() {
            let name = kernel.name();
            let mut block_prev = prev;
            let mut block_out = head.clone();
            let block = kernel.decode_records(data, target, &mut block_prev, &mut block_out);
            prop_assert_eq!(&block_out, &scalar_out, "{}", name);
            prop_assert_eq!(block.committed, scalar.committed, "{}", name);
            prop_assert_eq!(block_prev, scalar_prev, "{}", name);
            prop_assert_eq!(tag(&block.failure), tag(&scalar.failure), "{}", name);
            prop_assert!(block.slow_records <= scalar.slow_records, "{}", name);
        }
    }

    proptest! {
        /// The raw u128 varint round-trips over its full width, and
        /// decoding consumes the exact bytes encoding produced.
        #[test]
        fn varint_roundtrip_full_u128(hi in any::<u64>(), lo in any::<u64>()) {
            let v = (u128::from(hi) << 64) | u128::from(lo);
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            prop_assert_eq!(get_varint(&mut bytes).unwrap(), v);
            prop_assert_eq!(bytes.remaining(), 0);
        }

        /// A truncated varint is always `Truncated`, never a panic or a
        /// bogus value.
        #[test]
        fn varint_truncation_detected(hi in any::<u64>(), lo in any::<u64>()) {
            let v = (u128::from(hi) << 64) | u128::from(lo);
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let full = buf.freeze();
            for cut in 0..full.len() {
                let mut sliced = full.slice(..cut);
                prop_assert!(matches!(
                    get_varint(&mut sliced),
                    Err(TraceError::Truncated)
                ));
            }
        }

        /// Whole-trace round-trip: arbitrary address/kind sequences —
        /// including the empty trace — survive encode/decode exactly.
        #[test]
        fn trace_roundtrip(
            records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..64)
        ) {
            let t: Trace = records.iter().copied().collect();
            let t2 = from_bytes(to_bytes(&t)).unwrap();
            prop_assert_eq!(t.len(), t2.len());
            let a: Vec<_> = t.iter().collect();
            let b: Vec<_> = t2.iter().collect();
            prop_assert_eq!(a, b);
        }

        /// Deltas near the zigzag extremes (|delta| ≥ 2^62, where the
        /// kind bit overflows the u64 varint into u128) round-trip.
        #[test]
        fn extreme_delta_roundtrip(start in any::<u64>(), jump in any::<u64>()) {
            let t: Trace = [
                (start, false),
                (start.wrapping_add(jump), true),
                (start.wrapping_add(jump).wrapping_add(1 << 62), false),
                (start, true),
            ]
            .into_iter()
            .collect();
            let t2 = from_bytes(to_bytes(&t)).unwrap();
            let a: Vec<_> = t.iter().collect();
            let b: Vec<_> = t2.iter().collect();
            prop_assert_eq!(a, b);
        }

        /// The encoder writes exactly the bytes of one `put_varint` per
        /// record over deltas of every width: 1–8 byte records on the
        /// word path, and 9–10 byte ones and the zigzag extremes
        /// (|delta| ≥ 2^62) on the u128 one. The word varint alone
        /// matches `put_varint` on values of every width it takes.
        #[test]
        fn encoder_matches_put_varint_per_record(
            pairs in prop::collection::vec((prop_oneof![
                0u64..4096,
                any::<u64>(),
                Just(0u64),
                Just(u64::MAX),
                Just((1u64 << 54) - 1),
                Just(1u64 << 54),
                Just(1u64 << 62),
                Just(i64::MAX as u64),
                Just(i64::MIN as u64),
            ], any::<bool>()), 0..300),
            word in any::<u64>(),
            shift in 0u32..64,
        ) {
            let t: Trace = pairs.iter().copied().collect();
            let raw = to_bytes(&t);
            let header = parse_header(&raw).unwrap();
            let mut want = BytesMut::new();
            let mut prev = 0u64;
            for a in t.iter() {
                let delta = a.addr.raw().wrapping_sub(prev) as i64;
                prev = a.addr.raw();
                put_varint(&mut want, (u128::from(zigzag(delta)) << 1) | u128::from(a.kind.is_store()));
            }
            prop_assert_eq!(&raw[header.len..], &want[..]);
            let v = word >> shift.max(8);
            let mut one = BytesMut::new();
            put_varint(&mut one, u128::from(v));
            let mut out = [0u8; 8];
            let n = put_short_varint(&mut out, v);
            prop_assert_eq!(&out[..n], &one[..]);
            prop_assert_eq!(record_len(v >> 1), n);
        }

        /// Every prefix of a valid encoding is rejected as an error (the
        /// empty prefix included) — decoding never panics or succeeds on
        /// a cut file.
        #[test]
        fn truncated_trace_always_errors(
            records in prop::collection::vec((any::<u64>(), any::<bool>()), 1..16)
        ) {
            let t: Trace = records.iter().copied().collect();
            let full = to_bytes(&t);
            for cut in 0..full.len() {
                prop_assert!(from_bytes(full.slice(..cut)).is_err());
            }
        }

        /// Cut files through the batch-wise reader: it either fails at
        /// the header or ends early with a typed error — never a panic,
        /// never a silently complete decode.
        #[test]
        fn truncated_trace_stream_always_errors(
            records in prop::collection::vec((any::<u64>(), any::<bool>()), 1..16),
            max in 1usize..8,
        ) {
            let t: Trace = records.iter().copied().collect();
            let full = to_bytes(&t);
            for cut in 0..full.len() {
                match TraceReader::new(full.slice(..cut)) {
                    Err(_) => {} // header already invalid
                    Ok(mut reader) => {
                        let (got, err) = super::tests::drain(&mut reader, max);
                        prop_assert!(got.len() < records.len());
                        prop_assert!(matches!(err, Some(TraceError::Truncated)));
                        prop_assert!(reader.finish().is_err());
                    }
                }
            }
        }

        /// Arbitrary garbage input returns an error without panicking.
        #[test]
        fn corrupt_input_never_panics(
            data in prop::collection::vec(any::<u8>(), 0..256)
        ) {
            // Most random inputs fail the magic check; force a valid
            // header prefix on a second copy so the varint decoder and
            // count field see the garbage too.
            let _ = from_bytes(data.clone());
            let mut framed = to_bytes(&Trace::new("fuzz")).to_vec();
            framed.extend_from_slice(&data);
            let _ = from_bytes(framed);
        }

        /// Every overlong encoding — one whose continuation bytes carry
        /// significant bits past the 128-bit payload — is rejected as
        /// `Malformed` by the scalar decoder and the bulk decoder alike.
        /// (The pre-fix decoders silently shifted the excess bits out
        /// and returned a wrong value.)
        #[test]
        fn overlong_encodings_rejected_by_scalar_and_bulk(
            body in prop::collection::vec(any::<u8>(), 18..19),
            last in 4u8..128,
            continuation in any::<bool>(),
        ) {
            // 18 continuation bytes reach shift 126, where only two
            // significant bits still fit; `last` carries more, as a
            // terminator or as a further continuation byte.
            let mut overlong: Vec<u8> = body.iter().map(|b| b | 0x80).collect();
            overlong.push(if continuation { last | 0x80 } else { last });
            // scalar
            let mut buf = Bytes::from(overlong.clone());
            prop_assert!(matches!(
                get_varint(&mut buf),
                Err(TraceError::Malformed)
            ));
            // bulk: splice the record into a valid header
            let t = Trace::from_addresses("o", [1u64]);
            let raw = to_bytes(&t).to_vec();
            let name_len =
                u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]) as usize;
            let mut framed = raw[..12 + name_len].to_vec();
            framed.extend_from_slice(&1u64.to_le_bytes());
            framed.extend_from_slice(&overlong);
            let mut reader = TraceReader::new(framed).unwrap();
            let mut chunk = Chunk::default();
            prop_assert!(matches!(
                reader.decode_chunk(&mut chunk, 16),
                Err(TraceError::Malformed)
            ));
        }

        /// Kernel equivalence at the kernel boundary: both block
        /// instances reproduce the scalar oracle exactly — accesses,
        /// committed cursor, delta-chain state, and truncated-vs-
        /// malformed verdict — on arbitrary byte windows (mostly
        /// garbage, so truncation and overlong cut points of every
        /// flavor) and arbitrary record targets, appended to a buffer
        /// already holding any number of accesses.
        #[test]
        fn block_kernels_match_scalar_kernel_on_raw_windows(
            data in prop::collection::vec(any::<u8>(), 0..256),
            target in 0usize..96,
            prev in any::<u64>(),
            held in 0usize..130,
        ) {
            check_block_kernels(&data, held + target, prev, held);
        }

        /// The same equivalence over record streams: runs of 1–20-byte
        /// records (overlong ones included) whose lengths move every
        /// record boundary across the 64-byte blocks, cut at any
        /// offset, asked for any target, appended at every bitmap
        /// offset.
        #[test]
        fn block_kernels_match_scalar_kernel_on_record_runs(
            records in prop::collection::vec((1usize..21, any::<u64>(), any::<u64>()), 0..120),
            cut_back in 0usize..80,
            target in 0usize..200,
            prev in any::<u64>(),
            held in 0usize..130,
        ) {
            let mut data = Vec::new();
            for &(len, lo, hi) in &records {
                // `len` bytes of payload from the two words; every byte
                // but the last carries the continuation bit. A 19-byte
                // record may overflow 128 bits, and 20 bytes always do.
                let payload = (u128::from(hi) << 64) | u128::from(lo);
                for i in 0..len {
                    let byte = (payload >> (7 * i).min(127)) as u8 & 0x7f;
                    data.push(if i + 1 < len { byte | 0x80 } else { byte });
                }
            }
            let cut = data.len().saturating_sub(cut_back);
            check_block_kernels(&data[..cut], held + target, prev, held);
        }

        /// Kernel equivalence at the reader boundary: `decode_chunk`
        /// yields, chunk after chunk, exactly what the scalar oracle
        /// decodes from the same record bytes in one call — accesses,
        /// stream indices, and truncated-vs-malformed verdict — over
        /// records of every varint width (arbitrary u64 deltas reach
        /// 10-byte records; small strides stay at 1–2), every chunk
        /// capacity, and every truncation cut.
        #[test]
        fn decode_chunk_kernels_agree_across_widths_and_cuts(
            records in prop::collection::vec(
                (prop_oneof![0u64..2048, any::<u64>()], any::<bool>()), 0..64),
            capacity in 1usize..40,
            cut_back in 0usize..24,
        ) {
            use crate::kernels::ScalarDecode;
            let t: Trace = records.iter().copied().collect();
            let full = to_bytes(&t);
            let cut = full.len().saturating_sub(cut_back).max(20);
            for raw in [full.clone(), full.slice(..cut.min(full.len()))] {
                let Ok(header) = parse_header(&raw) else { continue };
                let mut want = AccessBuf::new();
                let oracle = ScalarDecode.decode_records(
                    &raw[header.len..], header.declared as usize, &mut 0, &mut want);
                let mut reader = TraceReader::new(raw).unwrap();
                let mut chunk = Chunk::default();
                let mut got = AccessBuf::new();
                let verdict = loop {
                    let r = reader.decode_chunk(&mut chunk, capacity);
                    prop_assert_eq!(chunk.base_index, got.len() as u64);
                    prop_assert!(chunk.accesses.len() <= capacity);
                    got.extend_from_slice(chunk.accesses.as_slice());
                    prop_assert_eq!(reader.decoded(), got.len() as u64);
                    match r {
                        Ok(0) => break None,
                        Ok(n) => prop_assert_eq!(n, chunk.accesses.len()),
                        Err(e) => break Some(e),
                    }
                };
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(
                    verdict.map(|e| matches!(e, TraceError::Malformed)),
                    oracle.failure.map(|e| matches!(e, TraceError::Malformed))
                );
            }
        }

        /// Arbitrary garbage through both incremental layers — the
        /// batch-wise reader and the piece-fed decoder — never panics:
        /// a decode that ends before its declared count always fails,
        /// and both layers decode the same accesses to the same verdict.
        #[test]
        fn corrupt_input_never_panics_streaming(
            data in prop::collection::vec(any::<u8>(), 0..256),
            max in 1usize..40,
            piece in 1usize..64,
        ) {
            for bytes in [data.clone(), {
                let mut framed = to_bytes(&Trace::new("fuzz")).to_vec();
                framed.extend_from_slice(&data);
                framed
            }] {
                let mut decoder = RdxtDecoder::new();
                let mut fed = AccessBuf::new();
                let mut out = AccessBuf::new();
                'feed: for mut rest in bytes.chunks(piece) {
                    while !rest.is_empty() {
                        let r = decoder.decode(rest, &mut out, max);
                        prop_assert!(out.len() <= max);
                        fed.extend_from_slice(out.as_slice());
                        match r {
                            Ok(used) => rest = &rest[used..],
                            Err(_) => break 'feed,
                        }
                    }
                }
                let verdict = decoder.finish();
                let Ok(mut reader) = TraceReader::new(bytes) else {
                    prop_assert!(verdict.is_err());
                    continue;
                };
                let (got, err) = super::tests::drain(&mut reader, max);
                prop_assert_eq!(reader.decoded(), got.len() as u64);
                if reader.decoded() < reader.declared_len() {
                    prop_assert!(err.is_some());
                }
                prop_assert_eq!(&got, &fed);
                let finish = reader.finish();
                prop_assert_eq!(finish.is_ok(), verdict.is_ok());
            }
        }
    }
}
