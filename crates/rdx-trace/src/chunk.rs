//! Bounded-size chunking of access streams.
//!
//! The parallel measurement paths (sharded ground truth, batch runners)
//! consume a stream as a sequence of [`Chunk`]s: contiguous runs of
//! accesses tagged with their starting position in the stream. Chunking
//! keeps memory bounded — only a few chunks are ever in flight — while
//! preserving the global access order that reuse metrics depend on:
//! every access keeps its exact stream index (`base_index + offset`),
//! no matter which thread processes the chunk.

use crate::columns::AccessBuf;
use crate::stream::AccessStream;

/// Default accesses per chunk. 64Ki accesses = 520 KiB of columns
/// (512 KiB of addresses, 8 KiB of store bitmap): large enough to
/// amortize hand-off, small enough that a handful of in-flight chunks
/// stay within a few percent of a trace's footprint. It is also the
/// fixed RDXT decode batch: a 64 KiB read block, at one byte or more
/// per record, never fills more than one.
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
        Chunker {
            stream,
            capacity,
            next_index: 0,
            done: false,
        }
    }

    /// Pulls the next chunk, or `None` once the stream is exhausted.
    /// Every chunk except possibly the last is exactly `capacity` long.
    /// One [`fill`](AccessStream::fill) writes it.
    pub fn next_chunk(&mut self) -> Option<Chunk> {
        if self.done {
            return None;
        }
        let mut accesses = AccessBuf::with_capacity(self.capacity);
        if self.stream.fill(&mut accesses, self.capacity) < self.capacity {
            self.done = true;
        }
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
        let replayed: Vec<u64> = chunks.iter().flat_map(|c| c.accesses.addrs()).collect();
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
    fn exact_multiple_has_no_empty_tail() {
        let t = Trace::from_addresses("m", (0..128u64).map(|i| i * 8));
        let chunks: Vec<Chunk> = Chunker::with_capacity(t.stream(), 64).collect();
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == 64));
    }
}
