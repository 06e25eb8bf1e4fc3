//! Memory access traces: the common currency of this workspace.
//!
//! Every component — the simulated machine, the RDX profiler, ground-truth
//! measurement, the baselines and the cache models — consumes a stream of
//! [`Access`]es. This crate defines:
//!
//! * [`Address`] / [`AccessKind`] / [`Access`] — the event vocabulary.
//!   An [`Access`] is one event (a sample, a trap, one access of a
//!   chunk's iteration); nothing stores accesses in bulk as `Access`
//!   values.
//! * [`AccessBuf`] / [`AccessSlice`] — the bulk layout: each address
//!   split into a `u32` low column ([`split_addr`]) and a
//!   `u32` high column, plus a store bitmap, ~8.125 bytes per access.
//!   `AccessBuf` owns the columns (written through an
//!   [`AccessAppender`], which flushes 64 accesses at a time);
//!   `AccessSlice` is a borrowed view that can start at any access and
//!   offers `get(i)`, `addr(i)`, iteration by value or by address,
//!   sub-slicing and `stores_in(range)` by popcount.
//! * [`AccessStream`] — a pull-based stream of accesses, so that
//!   billion-access workloads never need to be materialized. Its one
//!   required method, [`next_chunk(max)`](AccessStream::next_chunk),
//!   lends the next 1..=`max` accesses as an [`AccessSlice`] and
//!   advances past them; [`fill`](AccessStream::fill) copies into a
//!   caller's columns. [`Trace`] is the materialized form (an
//!   `AccessBuf` plus a name) used by tests, experiments and the
//!   benchmark; its [`TraceStream`] lends the whole unread remainder in
//!   one view, which is what keeps the machine's in-memory path
//!   zero-copy.
//! * [`Granularity`] — byte ↔ cache-line ↔ word address mapping. Reuse
//!   distance is measured at a chosen granularity (the paper uses cache
//!   lines, a.k.a. data blocks of 64 bytes).
//! * [`Chunker`] / [`Chunk`] — bounded-size, globally-indexed chunking of
//!   a stream into `AccessBuf`s, the transport unit of the parallel
//!   measurement paths.
//! * [`io`] — a compact binary trace format (magic + version header,
//!   delta-encoded addresses) for persisting traces, with typed
//!   [`TraceError`]s: malformed input is a recoverable error
//!   everywhere, never a panic. [`RdxtDecoder`] decodes the format from
//!   byte blocks as they arrive (a file read block by block, a server
//!   session's chunks), carrying only a split record between blocks,
//!   and writes straight into an `AccessBuf`; a [`TraceReader`] is that
//!   decoder fed one whole in-memory buffer, decoded in batches.
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
//! let trace: Trace = [(0x1000u64, false), (0x1040, true), (0x1000, false)]
//!     .into_iter()
//!     .collect();
//! let mut stream = trace.stream();
//! let first = stream.next_chunk(1).unwrap();
//! assert_eq!(first.get(0).addr, Address::new(0x1000));
//! assert_eq!(trace.len(), 3);
//! // The columnar view: one popcount counts the stores in a range.
//! let view = trace.accesses();
//! assert_eq!(view.stores_in(..), 1);
//! assert_eq!(view.slice(1..).get(0).kind, AccessKind::Store);
//! ```

// The BMI2 decode instance needs a core::arch intrinsic, so this crate
// can only *deny* unsafe code, not forbid it: `kernels.rs` re-allows it
// for exactly that module, and the unsafe-confinement lint pins every
// `unsafe` token in the workspace to the allowlisted kernel files.
// rdx-lint-allow: forbid-unsafe — arch intrinsics confined to kernels.rs
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod columns;
mod decoder;
mod event;
pub mod frame;
pub mod io;
pub mod kernels;
mod stats;
mod stream;
mod trace;

pub use bytes::Bytes;
pub use chunk::{Chunk, Chunker, DEFAULT_CHUNK_CAPACITY};
pub use columns::{
    join_addr, split_addr, AccessAppender, AccessBuf, AccessSlice, Addrs, Iter as AccessIter,
};
pub use decoder::RdxtDecoder;
pub use event::{Access, AccessKind, Address, Granularity};
pub use frame::{FrameError, PayloadReader, PayloadWriter, MAX_FRAME_LEN};
pub use io::{TraceError, TraceReader, MAX_HEADER_LEN, MAX_NAME_LEN};
pub use stats::TraceStats;
pub use stream::AccessStream;
pub use trace::{Trace, TraceStream};
