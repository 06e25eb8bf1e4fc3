//! Length-prefixed frame codec for the rdx-server wire protocol.
//!
//! A frame is a `u32` little-endian payload length followed by that many
//! payload bytes. The first payload byte is a message tag by convention,
//! but this layer only moves opaque payloads; message semantics live in
//! `rdx-server`. [`PayloadWriter`] / [`PayloadReader`] provide the field
//! encoding (fixed-width integers, varints via the RDXT varint layer,
//! and length-prefixed byte strings) shared by every message.
//!
//! The codec is defensive in both directions: lengths are bounded by
//! [`MAX_FRAME_LEN`] before any allocation, a length field can never be
//! silently truncated on write, and a payload that ends mid-field or
//! carries an overlong varint is a typed [`FrameError::Malformed`] — not
//! a panic, and not a misleading "truncated input" report.

use crate::io::{get_varint, put_varint};
use crate::TraceError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload, enforced on both read and write
/// (16 MiB). Bounds the allocation an untrusted peer can force per frame.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Errors from the frame codec.
#[derive(Debug)]
pub enum FrameError {
    /// An underlying transport error.
    Io(io::Error),
    /// A frame declared (or a writer was handed) a payload larger than
    /// [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The transport ended mid-frame: inside the length prefix or before
    /// the declared payload was complete.
    TruncatedFrame,
    /// A complete frame whose payload violates the field grammar: a
    /// field past the payload end, an overlong varint, or invalid UTF-8
    /// where text was required.
    Malformed,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::Oversized(len) => {
                write!(
                    f,
                    "frame payload is {len} bytes; the limit is {MAX_FRAME_LEN}"
                )
            }
            FrameError::TruncatedFrame => write!(f, "transport ended mid-frame"),
            FrameError::Malformed => write!(f, "frame payload malformed"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::TruncatedFrame
        } else {
            FrameError::Io(e)
        }
    }
}

/// Writes one frame: `u32` LE length prefix, then the payload.
///
/// # Errors
///
/// [`FrameError::Oversized`] if the payload exceeds [`MAX_FRAME_LEN`]
/// (the length field is never silently truncated), or an [`FrameError::Io`]
/// from the transport.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(payload.len()));
    }
    // Exact: MAX_FRAME_LEN fits in u32, and the bound was just checked.
    #[allow(clippy::cast_possible_truncation)]
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame payload.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary.
///
/// # Errors
///
/// [`FrameError::TruncatedFrame`] if the stream ends inside a frame,
/// [`FrameError::Oversized`] if the declared length exceeds
/// [`MAX_FRAME_LEN`] (checked before allocating), or [`FrameError::Io`].
/// The payload buffer grows as bytes arrive, so a peer that declares a
/// large frame and sends less cannot make the reader fill that much
/// memory.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Bytes>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::TruncatedFrame),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = Vec::with_capacity(len.min(FIRST_RESERVE));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::TruncatedFrame);
    }
    Ok(Some(Bytes::from(payload)))
}

/// The most [`read_frame`] reserves before any payload byte arrives
/// (128 KiB). It holds a 64 KiB `TraceChunk` frame with its message
/// header, the `rdx client` default, in one allocation.
const FIRST_RESERVE: usize = 128 << 10;

/// Builds one frame payload field by field.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: BytesMut,
}

impl PayloadWriter {
    /// Starts a payload with its leading message tag.
    #[must_use]
    pub fn new(tag: u8) -> Self {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(tag);
        PayloadWriter { buf }
    }

    /// Appends a byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a varint in the RDXT record encoding.
    pub fn put_varint(&mut self, v: u128) {
        put_varint(&mut self.buf, v);
    }

    /// Appends a length-prefixed byte string (`u32` LE length + bytes).
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if `bytes` is longer than
    /// [`MAX_FRAME_LEN`] — the length prefix is never cast-truncated.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        if bytes.len() > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(bytes.len()));
        }
        // Exact: bounded by MAX_FRAME_LEN above.
        #[allow(clippy::cast_possible_truncation)]
        self.buf.put_u32_le(bytes.len() as u32);
        self.buf.put_slice(bytes);
        Ok(())
    }

    /// Appends a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if the string exceeds [`MAX_FRAME_LEN`].
    pub fn put_str(&mut self, s: &str) -> Result<(), FrameError> {
        self.put_bytes(s.as_bytes())
    }

    /// Finishes the payload.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Decodes one frame payload field by field.
#[derive(Debug)]
pub struct PayloadReader {
    buf: Bytes,
}

impl PayloadReader {
    /// Wraps a complete frame payload.
    #[must_use]
    pub fn new(payload: Bytes) -> Self {
        PayloadReader { buf: payload }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] if the payload is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, FrameError> {
        if self.buf.remaining() < 1 {
            return Err(FrameError::Malformed);
        }
        Ok(self.buf.get_u8())
    }

    /// Takes a `u32`, little-endian.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, FrameError> {
        if self.buf.remaining() < 4 {
            return Err(FrameError::Malformed);
        }
        Ok(self.buf.get_u32_le())
    }

    /// Takes a `u64`, little-endian.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, FrameError> {
        if self.buf.remaining() < 8 {
            return Err(FrameError::Malformed);
        }
        Ok(self.buf.get_u64_le())
    }

    /// Takes a varint in the RDXT record encoding.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] if the payload ends mid-varint or the
    /// encoding is overlong — inside a complete frame both are grammar
    /// violations, not transport truncation.
    pub fn take_varint(&mut self) -> Result<u128, FrameError> {
        get_varint(&mut self.buf).map_err(|e| match e {
            TraceError::Malformed | TraceError::Truncated => FrameError::Malformed,
            TraceError::Io(io_err) => FrameError::Io(io_err),
            _ => FrameError::Malformed,
        })
    }

    /// Takes a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] if the declared length overruns the
    /// payload (the length is validated before any copy).
    pub fn take_bytes(&mut self) -> Result<Bytes, FrameError> {
        let len = self.take_u32()? as usize;
        if self.buf.remaining() < len {
            return Err(FrameError::Malformed);
        }
        let bytes = self.buf.slice(..len);
        self.buf.advance(len);
        Ok(bytes)
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on overrun or invalid UTF-8.
    pub fn take_str(&mut self) -> Result<String, FrameError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed)
    }

    /// Asserts the payload was fully consumed.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] if undecoded bytes remain — a message
    /// longer than its grammar is as suspect as one shorter.
    pub fn expect_end(&self) -> Result<(), FrameError> {
        if self.buf.has_remaining() {
            return Err(FrameError::Malformed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip_including_empty() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();

        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap().as_ref(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap().as_ref(), [0xAB; 300]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF -> None");
        assert!(read_frame(&mut r).unwrap().is_none(), "EOF is sticky");
    }

    #[test]
    fn eof_inside_frame_is_truncation() {
        // Mid length prefix.
        let mut r = Cursor::new(vec![0x05, 0x00]);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedFrame)
        ));
        // Complete prefix, short payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedFrame)
        ));
        // A header declaring the largest legal frame, then EOF.
        let max = u32::try_from(MAX_FRAME_LEN).unwrap();
        let mut r = Cursor::new(max.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedFrame)
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // Declares u32::MAX bytes; must fail on the bound check, not by
        // attempting (and possibly aborting on) a 4 GiB allocation.
        let mut r = Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        match read_frame(&mut r) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &big),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn payload_field_roundtrip() {
        let mut w = PayloadWriter::new(0x42);
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_varint(u128::MAX);
        w.put_varint(0);
        w.put_bytes(b"chunk-bytes").unwrap();
        w.put_str("séssion").unwrap();
        let payload = w.finish();

        let mut r = PayloadReader::new(payload);
        assert_eq!(r.take_u8().unwrap(), 0x42);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_varint().unwrap(), u128::MAX);
        assert_eq!(r.take_varint().unwrap(), 0);
        assert_eq!(r.take_bytes().unwrap().as_ref(), b"chunk-bytes");
        assert_eq!(r.take_str().unwrap(), "séssion");
        r.expect_end().unwrap();
    }

    #[test]
    fn payload_overruns_are_malformed() {
        let mut r = PayloadReader::new(Bytes::from(&[1u8, 2]));
        assert!(matches!(r.take_u32(), Err(FrameError::Malformed)));
        let mut r = PayloadReader::new(Bytes::from(&[1u8, 2, 3]));
        assert!(matches!(r.take_u64(), Err(FrameError::Malformed)));
        // Byte-string length overrunning the payload.
        let mut w = PayloadWriter::new(0);
        w.put_u32(100); // claims 100 bytes follow
        w.put_u8(1);
        let mut r = PayloadReader::new(w.finish());
        r.take_u8().unwrap();
        assert!(matches!(r.take_bytes(), Err(FrameError::Malformed)));
        // Empty payload.
        let mut r = PayloadReader::new(Bytes::default());
        assert!(matches!(r.take_u8(), Err(FrameError::Malformed)));
    }

    #[test]
    fn payload_varint_errors_are_malformed() {
        // Ends mid-varint: continuation byte then nothing.
        let mut r = PayloadReader::new(Bytes::from(&[0x80u8]));
        assert!(matches!(r.take_varint(), Err(FrameError::Malformed)));
        // Overlong: 18 continuation bytes then a terminator with bits
        // that don't fit at shift 126.
        let mut overlong = vec![0x81u8; 18];
        overlong.push(0x7F);
        let mut r = PayloadReader::new(Bytes::from(overlong));
        assert!(matches!(r.take_varint(), Err(FrameError::Malformed)));
    }

    #[test]
    fn trailing_payload_bytes_detected() {
        let mut w = PayloadWriter::new(9);
        w.put_u8(1);
        let mut r = PayloadReader::new(w.finish());
        assert_eq!(r.take_u8().unwrap(), 9);
        assert!(matches!(r.expect_end(), Err(FrameError::Malformed)));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.take_u8().unwrap(), 1);
        r.expect_end().unwrap();
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = PayloadWriter::new(0);
        w.put_bytes(&[0xFF, 0xFE]).unwrap();
        let mut r = PayloadReader::new(w.finish());
        r.take_u8().unwrap();
        assert!(matches!(r.take_str(), Err(FrameError::Malformed)));
    }

    #[test]
    fn error_display_and_source() {
        assert!(FrameError::TruncatedFrame.to_string().contains("mid-frame"));
        assert!(FrameError::Oversized(99).to_string().contains("99"));
        assert!(FrameError::Malformed.to_string().contains("malformed"));
        let io_err = FrameError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
        assert!(std::error::Error::source(&io_err).is_some());
        assert!(std::error::Error::source(&FrameError::Malformed).is_none());
        // UnexpectedEof maps to the typed truncation, not a raw Io.
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(FrameError::from(eof), FrameError::TruncatedFrame));
    }
}
