//! Resumable `RDXT` decoding for byte streams that arrive in pieces.
//!
//! A long-lived ingestion session receives a trace as framed chunks
//! that split the header and the varint records anywhere, and must not
//! hold on to the bytes. [`RdxtDecoder`] consumes such chunks as they
//! come: it parses the header once enough bytes have arrived (through
//! the same rules as `TraceReader::new`), decodes records with the bulk
//! kernels, and carries only what a boundary can split — at most one
//! partial record — plus the delta-chain address to the next chunk.
//!
//! A [`TraceReader`](crate::TraceReader) is this decoder fed its whole
//! buffer, so the file path and the streaming path share one record
//! loop and one verdict: [`finish`](RdxtDecoder::finish) reports every
//! declared record and nothing after them, or `Truncated`,
//! `TrailingData` or `Malformed`. Bytes past the declared record count
//! are counted, not decoded.

use crate::event::Access;
use crate::io::{self, Header, TraceError, MAX_HEADER_LEN};
use crate::kernels::{self, KernelChoice, KernelKind};

/// Longest valid varint record: 19 bytes carry 133 payload bits, the
/// first encoding length past 128. A 20th byte is always overlong.
const MAX_RECORD_LEN: usize = 19;

/// Where the decoder is in the stream.
#[derive(Debug)]
enum Phase {
    /// Collecting header bytes (at most [`MAX_HEADER_LEN`]).
    Header(Vec<u8>),
    /// Decoding records, `declared` of them in all.
    Records { declared: u64 },
}

/// An incremental `RDXT` decoder fed one byte chunk at a time.
///
/// After an error the decoder is fused: every further
/// [`decode`](RdxtDecoder::decode) call fails with the same kind.
#[derive(Debug)]
pub struct RdxtDecoder {
    phase: Phase,
    /// Bytes of a record split by the last chunk boundary.
    carry: [u8; MAX_RECORD_LEN + 1],
    carry_len: usize,
    prev: u64,
    decoded: u64,
    /// Bytes received after the last declared record.
    trailing: u64,
    error: Option<TraceError>,
    /// The record kernel, resolved once (every kernel decodes
    /// identically; the choice only affects speed).
    pub(crate) kernel: KernelKind,
}

impl Default for RdxtDecoder {
    fn default() -> Self {
        RdxtDecoder::new()
    }
}

impl RdxtDecoder {
    /// A decoder at the start of a stream, with the auto decode kernel.
    #[must_use]
    pub fn new() -> RdxtDecoder {
        RdxtDecoder {
            phase: Phase::Header(Vec::new()),
            carry: [0; MAX_RECORD_LEN + 1],
            carry_len: 0,
            prev: 0,
            decoded: 0,
            trailing: 0,
            error: None,
            kernel: kernels::resolve_decode(KernelChoice::Auto),
        }
    }

    /// A decoder whose header someone else parsed: the next byte it is
    /// fed is the first record.
    pub(crate) fn after_header(header: &Header) -> RdxtDecoder {
        let mut decoder = RdxtDecoder::new();
        decoder.enter_records(header);
        decoder
    }

    fn enter_records(&mut self, header: &Header) {
        rdx_metrics::counter("rdx.trace.decode.bytes").add(header.len as u64);
        rdx_metrics::counter("rdx.trace.decode.kernel").incr();
        self.phase = Phase::Records {
            declared: header.declared,
        };
    }

    /// True once the whole header has arrived.
    #[must_use]
    pub fn header_complete(&self) -> bool {
        matches!(self.phase, Phase::Records { .. })
    }

    /// The record count the header declares (0 until it is complete).
    pub(crate) fn declared(&self) -> u64 {
        match self.phase {
            Phase::Records { declared } => declared,
            Phase::Header(_) => 0,
        }
    }

    /// Records decoded so far (never more than declared).
    #[must_use]
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// The error the decoder is fused on, if any.
    pub(crate) fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Decodes the next piece of the stream into `out` (cleared first),
    /// stopping after `max` (≥ 1) accesses. Returns how many bytes of
    /// `input` it consumed: all of them unless `out` filled up, in which
    /// case the caller passes the rest again. A call on non-empty input
    /// always consumes at least one byte.
    ///
    /// # Errors
    ///
    /// The header errors of `TraceReader::new` other than `Truncated`
    /// (which only means the header is still arriving), and
    /// [`TraceError::Malformed`] at an overlong record. Records decoded
    /// before a malformed one are left in `out`.
    pub fn decode(
        &mut self,
        input: &[u8],
        out: &mut Vec<Access>,
        max: usize,
    ) -> Result<usize, TraceError> {
        out.clear();
        if let Some(e) = &self.error {
            return Err(io::dup_decode_error(e));
        }
        // Each call is one bulk pass to the counters, a record completed
        // from the carry included.
        let mut committed = 0;
        let result = self.decode_inner(input, out, max.max(1), &mut committed);
        io::count_decoded(self.kernel, committed, out.len());
        if let Err(e) = &result {
            self.error = Some(io::dup_decode_error(e));
        }
        result
    }

    /// Declares that no more input will come. A declared record still
    /// missing then fuses the decoder on [`TraceError::Truncated`].
    pub(crate) fn end_input(&mut self) -> Result<(), TraceError> {
        if self.error.is_none() && self.decoded < self.declared() {
            self.error = Some(TraceError::Truncated);
        }
        match &self.error {
            Some(e) => Err(io::dup_decode_error(e)),
            None => Ok(()),
        }
    }

    fn decode_inner(
        &mut self,
        input: &[u8],
        out: &mut Vec<Access>,
        max: usize,
        committed: &mut usize,
    ) -> Result<usize, TraceError> {
        let mut pos = 0;
        if let Phase::Header(buf) = &mut self.phase {
            // Copy no more than a header can span; whatever the header
            // does not use is record bytes, decoded straight from
            // `input` below.
            let had = buf.len();
            let take = input.len().min(MAX_HEADER_LEN - had);
            buf.extend_from_slice(&input[..take]);
            if buf.len() < 4 {
                return Ok(input.len());
            }
            match io::parse_header(buf) {
                Ok(header) => {
                    pos = header.len - had;
                    self.enter_records(&header);
                }
                Err(TraceError::Truncated) => return Ok(input.len()),
                Err(e) => return Err(e),
            }
        }
        let Phase::Records { declared } = self.phase else {
            return Ok(input.len());
        };
        if self.carry_len > 0 && pos < input.len() {
            pos += self.complete_carry(&input[pos..], out, committed)?;
        }
        if self.carry_len == 0 && pos < input.len() && self.decoded < declared && out.len() < max {
            let want = usize::try_from(declared - self.decoded)
                .map_or(max - out.len(), |left| left.min(max - out.len()));
            let bytes = &input[pos..];
            // Every record is at least one byte, so the input bounds the
            // reservation whatever the header declares.
            out.reserve(want.min(bytes.len()));
            let before = out.len();
            let run = kernels::run_decode(self.kernel, bytes, before + want, &mut self.prev, out);
            self.decoded += (out.len() - before) as u64;
            pos += run.committed;
            *committed += run.committed;
            match run.failure {
                None => {}
                Some(TraceError::Truncated) => {
                    // The chunk ends inside a record: carry its bytes
                    // (fewer than 20, or the kernel would have called
                    // the record overlong).
                    let tail = &input[pos..];
                    let slot = self
                        .carry
                        .get_mut(..tail.len())
                        .ok_or(TraceError::Malformed)?;
                    slot.copy_from_slice(tail);
                    self.carry_len = tail.len();
                    pos = input.len();
                }
                Some(e) => return Err(e),
            }
        }
        if self.decoded == declared && pos < input.len() {
            self.trailing += (input.len() - pos) as u64;
            pos = input.len();
        }
        Ok(pos)
    }

    /// Completes the carried partial record with the leading bytes of
    /// `input`, returning how many of them it used.
    fn complete_carry(
        &mut self,
        input: &[u8],
        out: &mut Vec<Access>,
        committed: &mut usize,
    ) -> Result<usize, TraceError> {
        // A window one byte past the longest record always resolves to
        // a record or `Malformed` unless the input runs out first.
        let had = self.carry_len;
        let take = input.len().min(self.carry.len() - had);
        let mut window = self.carry;
        window[had..had + take].copy_from_slice(&input[..take]);
        let run = kernels::run_decode(self.kernel, &window[..had + take], 1, &mut self.prev, out);
        match run.failure {
            None => {
                self.decoded += 1;
                self.carry_len = 0;
                *committed += run.committed;
                Ok(run.committed.saturating_sub(had))
            }
            Some(TraceError::Truncated) => {
                // Still inside the record, and `take` was all of `input`.
                self.carry = window;
                self.carry_len = had + take;
                Ok(take)
            }
            Some(e) => Err(e),
        }
    }

    /// The decode verdict over everything received: exactly what
    /// `TraceReader::finish` reports for the same bytes.
    ///
    /// # Errors
    ///
    /// The parked decode error; the header error (`BadMagic` for fewer
    /// than four bytes, else `Truncated`) when the header never
    /// completed; [`TraceError::Truncated`] when declared records are
    /// missing; [`TraceError::TrailingData`] when bytes follow the last
    /// declared record.
    pub fn finish(&self) -> Result<(), TraceError> {
        if let Some(e) = &self.error {
            return Err(io::dup_decode_error(e));
        }
        match &self.phase {
            Phase::Header(buf) => Err(io::parse_header(buf).err().unwrap_or(TraceError::Truncated)),
            Phase::Records { declared } => {
                if self.decoded < *declared {
                    Err(TraceError::Truncated)
                } else if self.trailing > 0 {
                    Err(TraceError::TrailingData(
                        usize::try_from(self.trailing).unwrap_or(usize::MAX),
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, Address};
    use crate::io::to_bytes;
    use crate::{Trace, TraceReader};
    use bytes::{Buf, Bytes};
    use proptest::prelude::*;

    /// Feeds `chunks` in order with batches of at most `max` accesses;
    /// returns the accesses and the first error.
    fn feed(
        dec: &mut RdxtDecoder,
        chunks: &[&[u8]],
        max: usize,
    ) -> (Vec<Access>, Option<TraceError>) {
        let mut got = Vec::new();
        let mut out = Vec::new();
        for chunk in chunks {
            let mut rest = *chunk;
            loop {
                let r = dec.decode(rest, &mut out, max);
                assert!(out.len() <= max);
                got.extend_from_slice(&out);
                match r {
                    Ok(used) => rest = &rest[used..],
                    Err(e) => return (got, Some(e)),
                }
                if rest.is_empty() {
                    break;
                }
            }
        }
        (got, None)
    }

    /// What a `TraceReader` over the whole buffer yields: the decoded
    /// accesses and its verdict (header error, or `finish`).
    fn oracle(bytes: &[u8]) -> (Vec<Access>, Result<(), TraceError>) {
        let mut reader = match TraceReader::new(bytes.to_vec()) {
            Ok(r) => r,
            Err(e) => return (Vec::new(), Err(e)),
        };
        let mut got = Vec::new();
        while let Ok(Some(a)) = reader.try_next() {
            got.push(a);
        }
        (got, reader.finish())
    }

    /// The format read the plain way: the shared header rules, then
    /// one scalar `get_varint` per declared record. It shares no record
    /// code with the decoder (or the `TraceReader` built on it).
    fn reference(bytes: &[u8]) -> (Vec<Access>, Result<(), TraceError>) {
        let header = match io::parse_header(bytes) {
            Ok(h) => h,
            Err(e) => return (Vec::new(), Err(e)),
        };
        let mut buf = Bytes::from(bytes[header.len..].to_vec());
        let mut got = Vec::new();
        let mut prev = 0u64;
        for _ in 0..header.declared {
            let raw = match io::get_varint(&mut buf) {
                Ok(raw) => raw,
                Err(e) => return (got, Err(e)),
            };
            prev = prev.wrapping_add(io::unzigzag((raw >> 1) as u64) as u64);
            let kind = if raw & 1 == 1 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            got.push(Access {
                addr: Address::new(prev),
                kind,
            });
        }
        let verdict = if buf.has_remaining() {
            Err(TraceError::TrailingData(buf.remaining()))
        } else {
            Ok(())
        };
        (got, verdict)
    }

    fn same_verdict(a: &Result<(), TraceError>, b: &Result<(), TraceError>) -> bool {
        match (a, b) {
            (Ok(()), Ok(())) => true,
            (Err(x), Err(y)) => x.to_string() == y.to_string(),
            _ => false,
        }
    }

    fn sample() -> Vec<u8> {
        let t = Trace::from_addresses("split", (0..60u64).map(|i| (i * 4093) % 100_000 * 8));
        to_bytes(&t).to_vec()
    }

    #[test]
    fn every_split_point_decodes_like_the_reader() {
        let raw = sample();
        let (want, verdict) = oracle(&raw);
        assert!(verdict.is_ok());
        for split in 0..=raw.len() {
            let mut dec = RdxtDecoder::new();
            let (got, err) = feed(&mut dec, &[&raw[..split], &raw[split..]], 1 << 10);
            assert!(err.is_none(), "split {split}");
            assert_eq!(got, want, "split {split}");
            assert_eq!(dec.decoded(), 60);
            assert!(dec.finish().is_ok(), "split {split}");
        }
    }

    #[test]
    fn one_byte_chunks_and_tiny_batches() {
        let raw = sample();
        let (want, _) = oracle(&raw);
        let bytes: Vec<&[u8]> = raw.chunks(1).collect();
        for max in [1, 2, 7] {
            let mut dec = RdxtDecoder::new();
            dec.kernel = kernels::resolve_decode(KernelChoice::Scalar);
            let (got, err) = feed(&mut dec, &bytes, max);
            assert!(err.is_none());
            assert_eq!(got, want, "max {max}");
            assert!(dec.finish().is_ok());
        }
        // One chunk, batch of one: the caller re-passes the rest.
        let mut dec = RdxtDecoder::new();
        let mut out = Vec::new();
        let used = dec.decode(&raw, &mut out, 1).unwrap();
        assert_eq!(out.len(), 1);
        assert!(used < raw.len());
    }

    #[test]
    fn a_split_record_carries_then_resolves() {
        let t = Trace::from_addresses("", [0u64]);
        let mut head = to_bytes(&t).to_vec();
        head.pop(); // drop the one record, keep the header (declares 1)
        let mut dec = RdxtDecoder::new();
        let mut out = Vec::new();
        assert_eq!(dec.decode(&head, &mut out, 8).unwrap(), head.len());
        assert!(dec.header_complete());
        assert_eq!(dec.decode(&[0x81], &mut out, 8).unwrap(), 1);
        assert!(out.is_empty());
        assert!(matches!(dec.finish(), Err(TraceError::Truncated)));
        assert_eq!(dec.decode(&[0x01], &mut out, 8).unwrap(), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(dec.decoded(), 1);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn overlong_record_is_malformed_and_fused() {
        let t = Trace::from_addresses("o", [8u64, 16]);
        let raw = to_bytes(&t).to_vec();
        let header = raw.len() - 2;
        let mut bad = raw[..header].to_vec();
        bad.extend_from_slice(&[0x81; 18]);
        bad.push(0x04); // 19th byte with bits past 128: overlong
        bad.push(0x02);
        for split in header..bad.len() {
            let mut dec = RdxtDecoder::new();
            let (_, err) = feed(&mut dec, &[&bad[..split], &bad[split..]], 64);
            assert!(matches!(err, Some(TraceError::Malformed)), "split {split}");
            let mut out = Vec::new();
            assert!(matches!(
                dec.decode(&[0x02], &mut out, 8),
                Err(TraceError::Malformed)
            ));
            assert!(matches!(dec.finish(), Err(TraceError::Malformed)));
        }
    }

    #[test]
    fn bytes_past_the_declared_count_are_trailing_not_decoded() {
        let raw = sample();
        let mut long = raw.clone();
        long.extend_from_slice(&[0xff; 25]); // would be overlong if decoded
        long.push(0x02);
        let mut dec = RdxtDecoder::new();
        let (got, err) = feed(
            &mut dec,
            &[&long[..raw.len() - 3], &long[raw.len() - 3..]],
            16,
        );
        assert!(err.is_none(), "trailing bytes are not validated");
        assert_eq!(got.len(), 60);
        assert!(matches!(dec.finish(), Err(TraceError::TrailingData(26))));
        assert!(same_verdict(&dec.finish(), &oracle(&long).1));
    }

    #[test]
    fn header_errors_match_the_reader() {
        let raw = sample();
        let mut bad_magic = raw.clone();
        bad_magic[0] = b'X';
        let mut bad_version = raw.clone();
        bad_version[4] = 9;
        let mut long_name = raw.clone();
        long_name[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut bad_name = raw.clone();
        bad_name[12] = 0xff;
        for bytes in [bad_magic, bad_version, long_name, bad_name] {
            let want = TraceReader::new(bytes.clone()).unwrap_err().to_string();
            let mut dec = RdxtDecoder::new();
            let (_, err) = feed(&mut dec, &[&bytes[..2], &bytes[2..]], 8);
            assert_eq!(err.map(|e| e.to_string()), Some(want.clone()));
            assert_eq!(dec.finish().unwrap_err().to_string(), want);
        }
        // A header still arriving is no error until finish, which then
        // agrees with the reader on the same short input.
        for cut in [0, 3, 4, 11, 17, 24] {
            let mut dec = RdxtDecoder::new();
            let (_, err) = feed(&mut dec, &[&raw[..cut]], 8);
            assert!(err.is_none(), "cut {cut}");
            assert!(!dec.header_complete());
            assert!(
                same_verdict(&dec.finish(), &oracle(&raw[..cut]).1),
                "cut {cut}"
            );
        }
    }

    proptest! {
        /// Any chunking of any byte stream behind a valid header —
        /// mostly garbage records, so truncation and overlong cuts of
        /// every flavor, and any declared count — decodes to what the
        /// scalar reference reads from the concatenation, with the same
        /// verdict, for both kernels and any batch size; and so does a
        /// `TraceReader` over the concatenation.
        #[test]
        fn any_chunking_matches_the_reference(
            records in prop::collection::vec(any::<u8>(), 0..200),
            declared in 0u64..120,
            cuts in prop::collection::vec(0usize..260, 0..6),
            max in 1usize..40,
            scalar in any::<bool>(),
        ) {
            let mut raw = b"RDXT".to_vec();
            raw.extend_from_slice(&1u32.to_le_bytes());
            raw.extend_from_slice(&2u32.to_le_bytes());
            raw.extend_from_slice(b"pt");
            raw.extend_from_slice(&declared.to_le_bytes());
            raw.extend_from_slice(&records);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(raw.len())).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut at = 0;
            for c in cuts.into_iter().chain([raw.len()]) {
                chunks.push(&raw[at..c]);
                at = c;
            }
            let kernel = if scalar { KernelChoice::Scalar } else { KernelChoice::Swar };
            let mut dec = RdxtDecoder::new();
            dec.kernel = kernels::resolve_decode(kernel);
            let (got, err) = feed(&mut dec, &chunks, max);
            let (want, verdict) = reference(&raw);
            match err {
                // A malformed record fails the stream at once; the
                // reference reads the same prefix and then fails too.
                Some(e) => {
                    prop_assert!(matches!(e, TraceError::Malformed));
                    prop_assert!(matches!(verdict, Err(TraceError::Malformed)));
                }
                None => prop_assert!(same_verdict(&dec.finish(), &verdict)),
            }
            prop_assert_eq!(&got, &want);
            let (read, read_verdict) = oracle(&raw);
            prop_assert!(same_verdict(&read_verdict, &verdict));
            prop_assert_eq!(read, want);
        }
    }
}
