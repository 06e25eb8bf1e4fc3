//! Bounded-size chunking of access streams.
//!
//! The parallel measurement paths (sharded ground truth, batch runners)
//! consume a stream as a sequence of [`Chunk`]s: contiguous runs of
//! accesses tagged with their starting position in the stream. Chunking
//! keeps memory bounded — only a few chunks are ever in flight — while
//! preserving the global access order that reuse metrics depend on:
//! every access keeps its exact stream index (`base_index + offset`),
//! no matter which thread processes the chunk.

use crate::columns::{AccessBuf, AccessSlice};
use crate::event::Access;
use crate::stream::AccessStream;

/// Default accesses per chunk. 64Ki accesses = 520 KiB of columns
/// (512 KiB of addresses, 8 KiB of store bitmap): large enough to
/// amortize hand-off, small enough that a handful of in-flight chunks
/// stay within a few percent of a trace's footprint.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 16;

/// A contiguous run of accesses starting at `base_index` in the stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Chunk {
    /// Stream index of the first access.
    pub base_index: u64,
    /// The accesses, in stream order.
    pub accesses: AccessBuf,
}

impl Chunk {
    /// Stream index of access `i` of this chunk.
    #[must_use]
    pub fn index_of(&self, i: usize) -> u64 {
        self.base_index + i as u64
    }

    /// Number of accesses in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True when the chunk holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// Adapter that cuts an [`AccessStream`] into bounded [`Chunk`]s.
#[derive(Debug)]
pub struct Chunker<S> {
    stream: S,
    capacity: usize,
    next_index: u64,
    done: bool,
    bulk: bool,
}

impl<S: AccessStream> Chunker<S> {
    /// Wraps `stream`, producing chunks of at most
    /// [`DEFAULT_CHUNK_CAPACITY`] accesses.
    pub fn new(stream: S) -> Self {
        Self::with_capacity(stream, DEFAULT_CHUNK_CAPACITY)
    }

    /// Wraps `stream` with an explicit per-chunk capacity (≥ 1).
    pub fn with_capacity(stream: S, capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be positive");
        let bulk = stream.chunk_capable();
        Chunker {
            stream,
            capacity,
            next_index: 0,
            done: false,
            bulk,
        }
    }

    /// Pulls the next chunk, or `None` once the stream is exhausted.
    /// Every chunk except possibly the last is exactly `capacity` long.
    ///
    /// Chunk-capable streams (see [`AccessStream::next_chunk`]) are
    /// drained by bulk slice copies instead of per-access pulls.
    pub fn next_chunk(&mut self) -> Option<Chunk> {
        if self.done {
            return None;
        }
        let mut accesses = AccessBuf::with_capacity(self.capacity);
        if self.bulk {
            while accesses.len() < self.capacity {
                let want = self.capacity - accesses.len();
                let Some(run) = self.stream.next_chunk() else {
                    break;
                };
                let k = run.len().min(want);
                accesses.extend_from_slice(run.slice(..k));
                self.stream.consume_chunk(k);
            }
        }
        // Streams without chunks, or past their last one, step per access.
        let mut out = accesses.appender();
        while out.len() < self.capacity {
            match self.stream.next_access() {
                Some(a) => out.push(a.addr.raw(), a.kind.is_store()),
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        drop(out);
        if accesses.is_empty() {
            return None;
        }
        rdx_metrics::counter("rdx.trace.chunk.chunks").incr();
        rdx_metrics::counter("rdx.trace.chunk.accesses").add(accesses.len() as u64);
        let base_index = self.next_index;
        self.next_index += accesses.len() as u64;
        Some(Chunk {
            base_index,
            accesses,
        })
    }

    /// Total accesses handed out so far.
    #[must_use]
    pub fn accesses_delivered(&self) -> u64 {
        self.next_index
    }
}

impl<S: AccessStream> Iterator for Chunker<S> {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        self.next_chunk()
    }
}

/// Stream adapter that guarantees [`AccessStream::next_chunk`] works;
/// created by [`AccessStream::into_chunks`] or [`Chunked::new`].
///
/// Two modes, chosen once at construction from the inner stream's
/// [`chunk_capable`](AccessStream::chunk_capable) answer:
///
/// * **pass-through** — the inner stream already exposes slices; every
///   chunk call forwards directly, zero buffering, zero copies.
/// * **buffering** — accesses are pulled into an internal buffer of at
///   most `capacity` accesses, which is then exposed as a slice. The one
///   buffer is reused for the whole run, so the adapter allocates a
///   bounded amount once, no matter how long the stream is.
///
/// Either way the access sequence is unchanged, so any measurement over
/// the adapter is bit-identical to one over the bare stream.
#[derive(Debug)]
pub struct Chunked<S> {
    inner: S,
    passthrough: bool,
    buf: AccessBuf,
    pos: usize,
    capacity: usize,
}

impl<S: AccessStream> Chunked<S> {
    /// Wraps `stream` with the default buffer capacity
    /// ([`DEFAULT_CHUNK_CAPACITY`]); pass-through when the stream is
    /// already chunk-capable.
    pub fn new(stream: S) -> Self {
        Self::with_capacity(stream, DEFAULT_CHUNK_CAPACITY)
    }

    /// Wraps `stream` with an explicit buffer capacity (≥ 1). The
    /// capacity only matters in buffering mode: a pass-through inner
    /// stream keeps its own (possibly larger) chunk sizes.
    pub fn with_capacity(stream: S, capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be positive");
        let passthrough = stream.chunk_capable();
        Chunked {
            inner: stream,
            passthrough,
            buf: AccessBuf::new(),
            pos: 0,
            capacity,
        }
    }

    /// Unwraps the adapter, discarding any buffered (already consumed
    /// from the inner stream, not yet delivered) accesses.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Buffered accesses not yet handed out.
    fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Refills the (empty) buffer with up to `capacity` accesses.
    fn refill(&mut self) {
        debug_assert_eq!(self.buffered(), 0);
        self.buf.clear();
        self.pos = 0;
        self.buf.reserve(self.capacity);
        let mut out = self.buf.appender();
        while out.len() < self.capacity {
            match self.inner.next_access() {
                Some(a) => out.push(a.addr.raw(), a.kind.is_store()),
                None => break,
            }
        }
    }
}

impl<S: AccessStream> AccessStream for Chunked<S> {
    fn next_access(&mut self) -> Option<Access> {
        if self.passthrough {
            return self.inner.next_access();
        }
        if self.buffered() == 0 {
            self.refill();
            if self.buffered() == 0 {
                return None;
            }
        }
        let a = self.buf.get(self.pos);
        self.pos += 1;
        Some(a)
    }

    fn remaining_hint(&self) -> Option<u64> {
        let hint = self.inner.remaining_hint()?;
        Some(hint + self.buffered() as u64)
    }

    fn chunk_capable(&self) -> bool {
        true
    }

    fn next_chunk(&mut self) -> Option<AccessSlice<'_>> {
        if self.passthrough {
            return self.inner.next_chunk();
        }
        if self.buffered() == 0 {
            self.refill();
            if self.buffered() == 0 {
                return None;
            }
        }
        Some(self.buf.as_slice().slice(self.pos..))
    }

    fn consume_chunk(&mut self, n: usize) {
        if self.passthrough {
            self.inner.consume_chunk(n);
        } else {
            debug_assert!(n <= self.buffered());
            self.pos += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn chunks_partition_stream_exactly() {
        let t = Trace::from_addresses("c", (0..1000u64).map(|i| i * 8));
        let chunks: Vec<Chunk> = Chunker::with_capacity(t.stream(), 64).collect();
        assert_eq!(chunks.len(), 1000usize.div_ceil(64));
        let mut expected_base = 0u64;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.base_index, expected_base);
            let expect_len = if i + 1 == chunks.len() { 1000 % 64 } else { 64 };
            assert_eq!(c.len(), expect_len);
            expected_base += c.len() as u64;
        }
        assert_eq!(expected_base, 1000);
        let replayed: Vec<u64> = chunks
            .iter()
            .flat_map(|c| c.accesses.addrs().iter().copied())
            .collect();
        assert_eq!(replayed, (0..1000u64).map(|i| i * 8).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_positions_are_global() {
        let t = Trace::from_addresses("i", (0..10u64).map(|i| i * 64));
        let chunks: Vec<Chunk> = Chunker::with_capacity(t.stream(), 4).collect();
        let indices: Vec<u64> = chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(|i| c.index_of(i)))
            .collect();
        assert_eq!(indices, (0..10u64).collect::<Vec<_>>());
        assert_eq!(chunks[1].index_of(2), 6);
    }

    #[test]
    fn empty_stream_yields_no_chunks() {
        let t = Trace::new("e");
        let mut chunker = Chunker::new(t.stream());
        assert!(chunker.next_chunk().is_none());
        assert!(chunker.next_chunk().is_none());
        assert_eq!(chunker.accesses_delivered(), 0);
    }

    #[test]
    fn chunked_passthrough_preserves_inner_chunks() {
        let t = Trace::from_addresses("p", (0..100u64).map(|i| i * 8));
        let mut s = Chunked::with_capacity(t.stream(), 7);
        assert!(s.chunk_capable());
        // Pass-through: the inner TraceStream serves its whole remainder,
        // ignoring the adapter capacity.
        let len = s.next_chunk().expect("chunk").len();
        assert_eq!(len, 100);
        s.consume_chunk(40);
        assert_eq!(s.remaining_hint(), Some(60));
        assert_eq!(s.next_access().unwrap().addr.raw(), 40 * 8);
        assert_eq!(s.count_remaining(), 59);
    }

    #[test]
    fn chunked_buffers_streaming_sources() {
        use crate::stream::Opaque;
        let t = Trace::from_addresses("b", (0..20u64).map(|i| i * 8));
        let mut s = Chunked::with_capacity(Opaque::new(t.stream()), 8);
        assert!(s.chunk_capable());
        let mut seen: Vec<u64> = Vec::new();
        let mut lens = Vec::new();
        while let Some(chunk) = s.next_chunk() {
            lens.push(chunk.len());
            seen.extend(chunk.iter().map(|a| a.addr.raw()));
            let taken = chunk.len();
            s.consume_chunk(taken);
        }
        assert_eq!(lens, vec![8, 8, 4]);
        assert_eq!(seen, (0..20u64).map(|i| i * 8).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_partial_consume_repeeks_remainder() {
        use crate::stream::Opaque;
        let t = Trace::from_addresses("r", (0..10u64).map(|i| i * 8));
        let mut s = Chunked::with_capacity(Opaque::new(t.stream()), 6);
        assert_eq!(s.next_chunk().expect("first fill").len(), 6);
        s.consume_chunk(2);
        let chunk = s.next_chunk().expect("rest of the buffer");
        assert_eq!(chunk.len(), 4);
        assert_eq!(chunk.get(0).addr.raw(), 16);
        s.consume_chunk(4);
        // Scalar reads interleave with chunk reads over the same buffer.
        assert_eq!(s.next_access().unwrap().addr.raw(), 48);
        assert_eq!(s.next_chunk().expect("tail").len(), 3);
        s.consume_chunk(3);
        assert!(s.next_chunk().is_none());
        assert!(s.next_access().is_none());
    }

    #[test]
    fn into_chunks_builds_adapter() {
        use crate::stream::AccessStream;
        let t = Trace::from_addresses("a", (0..5u64).map(|i| i * 8));
        let mut s = t.stream().into_chunks(2);
        assert_eq!(s.next_chunk().expect("chunk").len(), 5);
        s.consume_chunk(5);
        assert!(s.next_chunk().is_none());
        let inner = s.into_inner();
        assert_eq!(inner.remaining_hint(), Some(0));
    }

    #[test]
    fn chunker_bulk_fills_from_capable_streams() {
        let t = Trace::from_addresses("k", (0..1000u64).map(|i| i * 8));
        // Chunk-capable source: the Chunker slices it instead of pulling
        // per access, but the produced chunks are identical.
        let bulk: Vec<Chunk> = Chunker::with_capacity(t.stream(), 64).collect();
        let scalar: Vec<Chunk> =
            Chunker::with_capacity(crate::stream::Opaque::new(t.stream()), 64).collect();
        assert_eq!(bulk, scalar);
    }

    #[test]
    fn exact_multiple_has_no_empty_tail() {
        let t = Trace::from_addresses("m", (0..128u64).map(|i| i * 8));
        let chunks: Vec<Chunk> = Chunker::with_capacity(t.stream(), 64).collect();
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == 64));
    }
}
