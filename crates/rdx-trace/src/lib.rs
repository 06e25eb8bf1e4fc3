//! Memory access traces: the common currency of this workspace.
//!
//! Every component — the simulated machine, the RDX profiler, ground-truth
//! measurement, the baselines and the cache models — consumes a stream of
//! [`Access`]es. This crate defines:
//!
//! * [`Address`] / [`AccessKind`] / [`Access`] — the event vocabulary.
//! * [`AccessStream`] — a pull-based stream of accesses, so that
//!   billion-access workloads never need to be materialized; [`Trace`] is the
//!   materialized form used by tests and small experiments.
//! * [`Granularity`] — byte ↔ cache-line ↔ word address mapping. Reuse
//!   distance is measured at a chosen granularity (the paper uses cache
//!   lines, a.k.a. data blocks of 64 bytes).
//! * [`Chunker`] / [`Chunk`] — bounded-size, globally-indexed chunking of
//!   a stream, the transport unit of the parallel measurement paths.
//! * [`AccessStream::next_chunk`] / [`Chunked`] — borrowed-slice access to
//!   contiguous runs of a stream, the transport of the machine's bulk-scan
//!   fast path ([`Opaque`] hides the capability when the per-access slow
//!   path must be forced).
//! * [`io`] — a compact binary trace format (magic + version header,
//!   delta-encoded addresses) for persisting traces, with a streaming
//!   [`TraceReader`] and typed [`TraceError`]s: malformed input is a
//!   recoverable error everywhere, never a panic. The reader is
//!   chunk-capable: [`TraceReader::decode_chunk`] bulk-decodes a whole
//!   bounded chunk per call, and [`PipelinedReader`] runs that decoder
//!   on a dedicated thread (decode-ahead over a ring of recycled
//!   buffers), so file-backed profiling feeds the machine fast path.
//!   [`RdxtDecoder`] decodes the same format from byte chunks as they
//!   arrive (a server session), carrying only a split record between
//!   chunks; a `TraceReader` is that decoder fed its whole buffer.
//! * [`frame`] — a length-prefixed frame codec with typed
//!   [`FrameError`]s and [`PayloadWriter`] / [`PayloadReader`] field
//!   encoding, the wire layer of the `rdx serve` protocol.
//! * [`TraceStats`] — single-pass summary statistics of a stream.
//!
//! # Example
//!
//! ```
//! use rdx_trace::{Access, AccessKind, AccessStream, Address, Trace};
//!
//! let trace = Trace::from_addresses("demo", [0x1000u64, 0x1040, 0x1000]);
//! let mut stream = trace.stream();
//! assert_eq!(stream.next_access().unwrap().addr, Address::new(0x1000));
//! assert_eq!(trace.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod decoder;
mod event;
pub mod frame;
pub mod io;
pub mod kernels;
mod pipeline;
mod stats;
mod stream;
mod trace;

pub use bytes::Bytes;
pub use chunk::{Chunk, Chunked, Chunker, DEFAULT_CHUNK_CAPACITY};
pub use decoder::RdxtDecoder;
pub use event::{Access, AccessKind, Address, Granularity};
pub use frame::{FrameError, PayloadReader, PayloadWriter, MAX_FRAME_LEN};
pub use io::{TraceError, TraceReader, MAX_NAME_LEN};
pub use kernels::{DecodeKernel, KernelChoice, KernelEntry, KernelKind};
pub use pipeline::{
    DecodeMsg, DecodeTurn, DecoderTask, PipelineOptions, PipelinedReader, VirtualLink,
};
pub use stats::TraceStats;
pub use stream::{AccessStream, FnStream, Opaque, Take};
pub use trace::{Trace, TraceStream};
