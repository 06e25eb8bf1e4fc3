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
//! [`from_bytes`] / [`read_trace`] as well as the streaming
//! [`TraceReader`] — reports a typed [`TraceError`] and leaves the
//! process in control of recovery. Proptests below drive arbitrary
//! garbage through both layers to keep that guarantee honest.

use crate::chunk::{Chunk, DEFAULT_CHUNK_CAPACITY};
use crate::decoder::RdxtDecoder;
use crate::event::Access;
use crate::kernels::{self, KernelChoice, KernelKind};
use crate::stream::AccessStream;
use crate::trace::Trace;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{Read, Write};

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
    /// An internal pipeline failure: a decode stage went away without
    /// delivering a verdict (e.g. a decoder thread that exited without
    /// reporting). Unlike [`Truncated`](TraceError::Truncated) this says
    /// nothing about the input — it is infrastructure, not data.
    Internal(&'static str),
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
            TraceError::Internal(what) => {
                write!(f, "internal decode-pipeline failure: {what}")
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
    let mut buf = BytesMut::with_capacity(trace.len() * 2 + 64);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    let name = clamp_name(trace.name()).as_bytes();
    // The clamp bounds `name.len()` ≤ MAX_NAME_LEN, so this cast is
    // exact and the length field agrees with the payload that follows.
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name);
    buf.put_u64_le(trace.len() as u64);
    let mut prev: u64 = 0;
    for a in trace.iter() {
        let delta = a.addr.raw().wrapping_sub(prev) as i64;
        prev = a.addr.raw();
        let kind_bit = u128::from(a.kind.is_store());
        // The zigzagged delta needs the full 64 bits for |delta| ≥ 2^62,
        // so the kind bit pushes the record into u128 varint territory.
        put_varint(&mut buf, (u128::from(zigzag(delta)) << 1) | kind_bit);
    }
    rdx_metrics::counter("rdx.trace.encode.events").add(trace.len() as u64);
    rdx_metrics::counter("rdx.trace.encode.bytes").add(buf.len() as u64);
    buf.freeze()
}

/// Counts one bulk decode pass of `n` records over `bytes` bytes.
pub(crate) fn count_decoded(kernel: KernelKind, bytes: usize, n: usize) {
    if n == 0 {
        return;
    }
    rdx_metrics::counter("rdx.trace.decode.bytes").add(bytes as u64);
    rdx_metrics::counter("rdx.trace.decode.events").add(n as u64);
    rdx_metrics::counter("rdx.trace.decode.accesses").add(n as u64);
    rdx_metrics::counter("rdx.trace.decode.chunks").incr();
    match kernel {
        KernelKind::Scalar => {
            rdx_metrics::counter("rdx.trace.decode.scalar_accesses").add(n as u64);
        }
        KernelKind::Swar | KernelKind::Simd => {
            rdx_metrics::counter("rdx.trace.decode.swar_accesses").add(n as u64);
        }
    }
}

/// A parsed `RDXT` header.
#[derive(Debug)]
pub(crate) struct Header {
    /// The embedded trace name.
    pub(crate) name: String,
    /// The record count the header declares.
    pub(crate) declared: u64,
    /// Header length in bytes: the records start here.
    pub(crate) len: usize,
}

/// Longest possible header: fixed fields plus a [`MAX_NAME_LEN`] name.
pub(crate) const MAX_HEADER_LEN: usize = 4 + 4 + 4 + MAX_NAME_LEN + 8;

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
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header, TraceError> {
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

/// Incremental decoder of the `RDXT` format that yields accesses as an
/// [`AccessStream`], so a trace file can feed the profiler without ever
/// being materialized as a [`Trace`].
///
/// Construction ([`TraceReader::new`]) validates the header eagerly.
/// Records decode lazily through one [`RdxtDecoder`] fed the whole
/// buffer, the same record loop a streaming session runs:
/// [`try_next`](TraceReader::try_next) surfaces malformed input as a
/// typed [`TraceError`], and the infallible [`AccessStream`] view ends
/// the stream on error while parking the error in
/// [`error`](TraceReader::error) for the caller to inspect afterwards —
/// corrupt input is a recoverable condition, not a panic.
#[derive(Debug)]
pub struct TraceReader {
    /// Record bytes the decoder has not consumed yet.
    buf: Bytes,
    name: String,
    decoder: RdxtDecoder,
    /// Bulk-decoded accesses not yet handed out through the chunk API.
    pending: Chunk,
    pos: usize,
    chunk_capacity: usize,
}

impl TraceReader {
    /// Parses the header and prepares to stream the records.
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
            pending: Chunk::default(),
            pos: 0,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
        })
    }

    /// Selects the decode kernel [`decode_chunk`](TraceReader::decode_chunk)
    /// dispatches to (default: `auto`, the cheapest available kernel in
    /// [`kernels::decode_kernels`]). Every kernel is bit-identical in
    /// output; the choice only affects speed.
    #[must_use]
    pub fn with_kernel(mut self, choice: KernelChoice) -> Self {
        self.decoder.kernel = kernels::resolve_decode(choice);
        self
    }

    /// The decode kernel this reader resolved to.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.decoder.kernel
    }

    /// Sets the number of accesses the reader bulk-decodes per refill of
    /// its internal chunk buffer (≥ 1; default
    /// [`DEFAULT_CHUNK_CAPACITY`]). Only affects the chunk API, not
    /// [`try_next`](TraceReader::try_next).
    #[must_use]
    pub fn with_chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity.max(1);
        self
    }

    /// Reads all of `reader` and parses the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and header format errors.
    pub fn from_reader<R: Read>(mut reader: R) -> Result<TraceReader, TraceError> {
        let mut data = Vec::new();
        reader.read_to_end(&mut data)?;
        TraceReader::new(data)
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

    /// Records decoded from the wire so far. When the chunk API is in
    /// use this can run ahead of what the consumer has pulled by up to
    /// one internal chunk buffer.
    #[must_use]
    pub fn decoded(&self) -> u64 {
        self.decoder.decoded()
    }

    /// The decode error the [`AccessStream`] view ran into, if any.
    ///
    /// Drivers that consume the reader as an infallible stream must
    /// check this once the stream ends to distinguish a clean EOF from
    /// corrupt input.
    #[must_use]
    pub fn error(&self) -> Option<&TraceError> {
        self.decoder.error()
    }

    /// Decodes the next access, `Ok(None)` at a clean end of trace.
    ///
    /// The reader is fused: after an error or the final record it keeps
    /// returning the error / `Ok(None)` respectively.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when the input ends before the declared
    /// record count is reached, [`TraceError::Malformed`] at an overlong
    /// record.
    pub fn try_next(&mut self) -> Result<Option<Access>, TraceError> {
        // Serve accesses already bulk-decoded into the chunk buffer
        // first (mixed chunk/scalar consumption must preserve order);
        // after an error the buffer holds the decoded prefix, which is
        // still delivered before the parked error surfaces. Refills
        // decode one record, so `decoded` never runs ahead here.
        if self.buffered() == 0 {
            self.refill(1);
        }
        match self.pending.accesses.get(self.pos) {
            Some(&a) => {
                self.pos += 1;
                Ok(Some(a))
            }
            None => self
                .decoder
                .error()
                .map_or(Ok(None), |e| Err(dup_decode_error(e))),
        }
    }

    /// Bulk-decodes up to `max` (≥ 1) accesses into `out` in one tight
    /// pass.
    ///
    /// `out` is cleared and reused: `out.base_index` is set to the
    /// stream index of the first decoded access.
    ///
    /// Returns the number of accesses decoded; `Ok(0)` means a clean
    /// end of trace. The reader stays fused exactly like `try_next`:
    /// after an error every further call fails.
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

    /// Refills the internal chunk buffer with up to `max` accesses via
    /// [`decode_chunk`](TraceReader::decode_chunk). A failed bulk decode
    /// stays parked in the decoder; the successfully decoded prefix is
    /// still served.
    fn refill(&mut self, max: usize) {
        let mut pending = std::mem::take(&mut self.pending);
        let _ = self.decode_chunk(&mut pending, max);
        self.pending = pending;
        self.pos = 0;
    }

    /// Accesses bulk-decoded but not yet handed out.
    fn buffered(&self) -> usize {
        self.pending.len() - self.pos
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
            let _ = self.decoder.decode(&self.buf, &mut Vec::new(), 1);
        }
        self.decoder.finish()
    }
}

impl AccessStream for TraceReader {
    fn next_access(&mut self) -> Option<Access> {
        // Decode errors end the stream; the error is parked in the
        // decoder for the caller to inspect afterwards.
        self.try_next().unwrap_or_default()
    }

    fn remaining_hint(&self) -> Option<u64> {
        let buffered = self.buffered() as u64;
        if self.error().is_some() {
            return Some(buffered);
        }
        Some(buffered + (self.declared_len() - self.decoded()))
    }

    fn chunk_capable(&self) -> bool {
        true
    }

    fn next_chunk(&mut self) -> Option<&[Access]> {
        if self.buffered() == 0 {
            self.refill(self.chunk_capacity);
            if self.buffered() == 0 {
                return None;
            }
        }
        self.pending.accesses.get(self.pos..)
    }

    fn consume_chunk(&mut self, n: usize) {
        debug_assert!(n <= self.buffered());
        self.pos += n.min(self.buffered());
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
    let mut trace = Trace::new(reader.name().to_owned());
    let mut chunk = Chunk::default();
    while reader.decode_chunk(&mut chunk, DEFAULT_CHUNK_CAPACITY)? > 0 {
        trace.extend(chunk.accesses.iter().copied());
    }
    reader.finish()?;
    Ok(trace)
}

/// Writes a trace to any [`Write`] sink (a `&mut W` also works).
///
/// # Errors
///
/// Propagates I/O errors from the sink.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceError> {
    writer.write_all(&to_bytes(trace))?;
    Ok(())
}

/// Reads a trace from any [`Read`] source (a `&mut R` also works).
///
/// # Errors
///
/// Propagates I/O errors and format errors.
pub fn read_trace<R: Read>(mut reader: R) -> Result<Trace, TraceError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    from_bytes(data)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn roundtrip_via_io() {
        let t = Trace::from_addresses("io", (0..1000u64).map(|i| i * 64));
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let t2 = read_trace(&buf[..]).unwrap();
        assert_eq!(t.accesses(), t2.accesses());
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
        // scalar streaming: parked error keeps the Malformed kind
        let mut reader = TraceReader::new(raw.clone()).unwrap();
        assert!(matches!(reader.try_next(), Err(TraceError::Malformed)));
        assert!(matches!(reader.try_next(), Err(TraceError::Malformed)));
        assert!(matches!(reader.error(), Some(TraceError::Malformed)));
        assert!(matches!(reader.finish(), Err(TraceError::Malformed)));
        // bulk
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
        assert_eq!(reader.remaining_hint(), Some(t.len() as u64));
        let mut got = Vec::new();
        while let Some(a) = reader.next_access() {
            got.push(a);
        }
        assert_eq!(got.as_slice(), t.accesses());
        assert_eq!(reader.decoded(), t.len() as u64);
        assert!(reader.error().is_none());
        assert!(reader.finish().is_ok());
    }

    #[test]
    fn reader_parks_truncation_error_for_stream_drivers() {
        let t = Trace::from_addresses("cut", (0..100u64).map(|i| i * 64));
        let raw = to_bytes(&t);
        let cut = raw.slice(..raw.len() - 7);
        let mut reader = TraceReader::new(cut).unwrap();
        let streamed = reader.count_remaining();
        assert!(streamed < 100, "stream must end early, got {streamed}");
        assert!(matches!(reader.error(), Some(TraceError::Truncated)));
        // fused: further pulls keep failing without panicking
        assert!(reader.next_access().is_none());
        assert!(reader.try_next().is_err());
        assert_eq!(reader.remaining_hint(), Some(0));
        assert!(reader.finish().is_err());
    }

    #[test]
    fn reader_finish_detects_unconsumed_records() {
        let t = Trace::from_addresses("partial", [1u64, 2, 3]);
        let mut reader = TraceReader::new(to_bytes(&t)).unwrap();
        assert!(reader.next_access().is_some());
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
            got.extend_from_slice(&chunk.accesses);
        }
        assert_eq!(got.as_slice(), t.accesses());
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
        assert!(matches!(reader.error(), Some(TraceError::Truncated)));
    }

    #[test]
    fn reader_is_chunk_capable_and_serves_slices() {
        let t = Trace::from_addresses("slices", (0..300u64).map(|i| i * 8));
        let raw = to_bytes(&t);
        let mut reader = TraceReader::new(raw).unwrap().with_chunk_capacity(128);
        assert!(reader.chunk_capable());
        assert_eq!(reader.remaining_hint(), Some(300));
        let mut got = Vec::new();
        let mut lens = Vec::new();
        while let Some(run) = reader.next_chunk() {
            lens.push(run.len());
            got.extend_from_slice(run);
            let n = run.len();
            reader.consume_chunk(n);
        }
        assert_eq!(lens, vec![128, 128, 44]);
        assert_eq!(got.as_slice(), t.accesses());
        assert!(reader.finish().is_ok());
    }

    #[test]
    fn reader_mixed_scalar_and_chunk_reads_preserve_order() {
        let t = Trace::from_addresses("mix", (0..20u64).map(|i| i * 8));
        let mut reader = TraceReader::new(to_bytes(&t))
            .unwrap()
            .with_chunk_capacity(8);
        // chunk, partial consume, scalar reads from the same buffer,
        // then chunks again — the global order must be unbroken.
        let first = reader.next_chunk().expect("first chunk");
        assert_eq!(first.len(), 8);
        reader.consume_chunk(3);
        assert_eq!(reader.next_access().unwrap().addr.raw(), 3 * 8);
        assert_eq!(reader.next_chunk().expect("rest").len(), 4);
        reader.consume_chunk(4);
        let mut rest = Vec::new();
        while let Some(a) = reader.next_access() {
            rest.push(a.addr.raw());
        }
        assert_eq!(rest, (8..20u64).map(|i| i * 8).collect::<Vec<_>>());
        assert!(reader.finish().is_ok());
    }

    #[test]
    fn chunk_api_serves_decoded_prefix_before_parked_error() {
        let t = Trace::from_addresses("cutc", (0..50u64).map(|i| i * 64));
        let raw = to_bytes(&t);
        let cut = raw.slice(..raw.len() - 5);
        let mut reader = TraceReader::new(cut).unwrap();
        let mut streamed = 0u64;
        while let Some(run) = reader.next_chunk() {
            streamed += run.len() as u64;
            let n = run.len();
            reader.consume_chunk(n);
        }
        assert!(streamed < 50, "stream must end early, got {streamed}");
        assert_eq!(streamed, reader.decoded());
        assert!(matches!(reader.error(), Some(TraceError::Truncated)));
        assert!(reader.next_chunk().is_none());
        assert_eq!(reader.remaining_hint(), Some(0));
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
        // streaming decode through Trace::from_stream (remaining_hint is
        // absurd; the materializer must clamp its reservation)
        let mut reader = TraceReader::new(raw).unwrap();
        let streamed = Trace::from_stream("clamped", &mut reader);
        assert_eq!(streamed.len(), 3);
        assert!(reader.error().is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

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

        /// The streaming reader agrees byte-for-byte with the one-shot
        /// decoder when driven purely through the `AccessStream` trait.
        #[test]
        fn reader_stream_matches_from_bytes(
            records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..64)
        ) {
            let t: Trace = records.iter().copied().collect();
            let raw = to_bytes(&t);
            let mut reader = TraceReader::new(raw).unwrap();
            let streamed = Trace::from_stream("s", &mut reader);
            prop_assert!(reader.error().is_none());
            prop_assert_eq!(streamed.accesses(), t.accesses());
            prop_assert!(reader.finish().is_ok());
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

        /// Cut files through the *stream* layer: the reader either fails
        /// at the header or ends the stream early with a parked error —
        /// never a panic, never a silently complete stream.
        #[test]
        fn truncated_trace_stream_always_errors(
            records in prop::collection::vec((any::<u64>(), any::<bool>()), 1..16)
        ) {
            let t: Trace = records.iter().copied().collect();
            let full = to_bytes(&t);
            for cut in 0..full.len() {
                match TraceReader::new(full.slice(..cut)) {
                    Err(_) => {} // header already invalid
                    Ok(mut reader) => {
                        let n = reader.count_remaining();
                        prop_assert!(
                            n < records.len() as u64 || reader.error().is_some()
                        );
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

        /// `decode_chunk` yields the byte-for-byte same access sequence
        /// — and on corrupt input the same first error at the same
        /// decoded offset — as the per-access `try_next` loop, for any
        /// chunk capacity and any truncation point.
        #[test]
        fn decode_chunk_matches_try_next(
            records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..64),
            capacity in 1usize..40,
            cut_back in 0usize..24,
        ) {
            let t: Trace = records.iter().copied().collect();
            let full = to_bytes(&t);
            let cut = full.len().saturating_sub(cut_back).max(20);
            for raw in [full.clone(), full.slice(..cut.min(full.len()))] {
                let Ok(mut scalar) = TraceReader::new(raw.clone()) else { continue };
                let mut want = Vec::new();
                let scalar_err = loop {
                    match scalar.try_next() {
                        Ok(Some(a)) => want.push(a),
                        Ok(None) => break false,
                        Err(_) => break true,
                    }
                };
                let Ok(mut bulk) = TraceReader::new(raw) else { continue };
                let mut got = Vec::new();
                let mut chunk = Chunk::default();
                let bulk_err = loop {
                    match bulk.decode_chunk(&mut chunk, capacity) {
                        Ok(0) => break false,
                        Ok(_) => {
                            prop_assert_eq!(chunk.base_index, got.len() as u64);
                            got.extend_from_slice(&chunk.accesses);
                        }
                        Err(e) => {
                            prop_assert!(matches!(e, TraceError::Truncated));
                            got.extend_from_slice(&chunk.accesses);
                            break true;
                        }
                    }
                };
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(bulk_err, scalar_err);
                prop_assert_eq!(bulk.decoded(), scalar.decoded());
            }
        }

        /// The chunk-API view of the reader (what `Machine::run`'s fast
        /// path consumes) agrees with pure scalar consumption on valid
        /// and truncated inputs alike.
        #[test]
        fn reader_chunk_api_matches_scalar(
            records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..64),
            capacity in 1usize..40,
            cut_back in 0usize..24,
        ) {
            let t: Trace = records.iter().copied().collect();
            let full = to_bytes(&t);
            let cut = full.len().saturating_sub(cut_back).max(20);
            for raw in [full.clone(), full.slice(..cut.min(full.len()))] {
                let Ok(mut scalar) = TraceReader::new(raw.clone()) else { continue };
                let mut want = Vec::new();
                while let Some(a) = scalar.next_access() {
                    want.push(a);
                }
                let Ok(reader) = TraceReader::new(raw) else { continue };
                let mut chunked = reader.with_chunk_capacity(capacity);
                let mut got = Vec::new();
                while let Some(run) = chunked.next_chunk() {
                    prop_assert!(!run.is_empty());
                    got.extend_from_slice(run);
                    let n = run.len();
                    chunked.consume_chunk(n);
                }
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(chunked.error().is_some(), scalar.error().is_some());
                prop_assert_eq!(chunked.decoded(), scalar.decoded());
            }
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

        /// Kernel equivalence at the trait boundary: the SWAR kernel
        /// reproduces the scalar oracle exactly — accesses, committed
        /// cursor, delta-chain state, and truncated-vs-malformed
        /// verdict — on arbitrary byte windows (mostly garbage, so
        /// truncation and overlong cut points of every flavor) and
        /// arbitrary record targets.
        #[test]
        fn swar_kernel_matches_scalar_kernel_on_raw_windows(
            data in prop::collection::vec(any::<u8>(), 0..256),
            target in 0usize..96,
            prev in any::<u64>(),
        ) {
            use crate::kernels::{DecodeKernel, ScalarDecode, SwarDecode};
            let mut scalar_prev = prev;
            let mut scalar_out = Vec::new();
            let scalar = ScalarDecode.decode_records(
                &data, target, &mut scalar_prev, &mut scalar_out);
            let mut swar_prev = prev;
            let mut swar_out = Vec::new();
            let swar = SwarDecode.decode_records(
                &data, target, &mut swar_prev, &mut swar_out);
            prop_assert_eq!(&swar_out, &scalar_out);
            prop_assert_eq!(swar.committed, scalar.committed);
            prop_assert_eq!(swar_prev, scalar_prev);
            let tag = |f: &Option<TraceError>| match f {
                None => 0u8,
                Some(TraceError::Truncated) => 1,
                Some(TraceError::Malformed) => 2,
                Some(_) => 3,
            };
            prop_assert_eq!(tag(&swar.failure), tag(&scalar.failure));
        }

        /// Kernel equivalence at the reader boundary: a reader forced
        /// to each kernel decodes the byte-for-byte same chunks, errors
        /// and counts, over records of every varint width (arbitrary
        /// u64 deltas reach 10-byte records; small strides stay at
        /// 1–2), every chunk capacity, and every truncation cut.
        #[test]
        fn decode_chunk_kernels_agree_across_widths_and_cuts(
            records in prop::collection::vec(
                (prop_oneof![0u64..2048, any::<u64>()], any::<bool>()), 0..64),
            capacity in 1usize..40,
            cut_back in 0usize..24,
        ) {
            let t: Trace = records.iter().copied().collect();
            let full = to_bytes(&t);
            let cut = full.len().saturating_sub(cut_back).max(20);
            for raw in [full.clone(), full.slice(..cut.min(full.len()))] {
                let Ok(scalar) = TraceReader::new(raw.clone()) else { continue };
                let Ok(swar) = TraceReader::new(raw) else { continue };
                let mut scalar = scalar.with_kernel(KernelChoice::Scalar);
                let mut swar = swar.with_kernel(KernelChoice::Swar);
                prop_assert_eq!(scalar.kernel(), KernelKind::Scalar);
                prop_assert_eq!(swar.kernel(), KernelKind::Swar);
                let mut sc = Chunk::default();
                let mut sw = Chunk::default();
                loop {
                    let a = scalar.decode_chunk(&mut sc, capacity);
                    let b = swar.decode_chunk(&mut sw, capacity);
                    prop_assert_eq!(&sw.accesses, &sc.accesses);
                    prop_assert_eq!(sw.base_index, sc.base_index);
                    prop_assert_eq!(swar.decoded(), scalar.decoded());
                    match (a, b) {
                        (Ok(0), Ok(0)) => break,
                        (Ok(n), Ok(m)) => prop_assert_eq!(n, m),
                        (Err(ea), Err(eb)) => {
                            prop_assert_eq!(
                                matches!(ea, TraceError::Malformed),
                                matches!(eb, TraceError::Malformed)
                            );
                            break;
                        }
                        (a, b) => prop_assert!(
                            false, "kernels disagree: {a:?} vs {b:?}"),
                    }
                }
            }
        }

        /// Arbitrary garbage through the *stream* layer: header parsing
        /// and record streaming never panic, and a stream that ends
        /// before its declared count always parks an error.
        #[test]
        fn corrupt_input_never_panics_streaming(
            data in prop::collection::vec(any::<u8>(), 0..256)
        ) {
            for bytes in [data.clone(), {
                let mut framed = to_bytes(&Trace::new("fuzz")).to_vec();
                framed.extend_from_slice(&data);
                framed
            }] {
                if let Ok(mut reader) = TraceReader::new(bytes) {
                    let streamed = reader.count_remaining();
                    prop_assert_eq!(reader.decoded(), streamed);
                    if streamed < reader.declared_len() {
                        prop_assert!(reader.error().is_some());
                    }
                }
            }
        }
    }
}
