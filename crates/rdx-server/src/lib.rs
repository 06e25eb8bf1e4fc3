//! rdx-server — a long-lived framed profiling service for RDX.
//!
//! Instead of profiling one `.rdxt` file per process invocation, a
//! daemon accepts connections over TCP or a Unix domain socket and
//! multiplexes many concurrent profiling *sessions*: each session
//! receives an RDXT byte stream in arbitrary chunks and can be asked
//! for live histograms, metrics, and a final profile at close. A
//! session pushes each chunk on arrival into the same ingestion loop
//! the local file path runs (`rdx_core::RdxtIngest`: decoder, machine,
//! profiler and post-pass), so server-side profiles are bit-identical
//! to local ones, and a snapshot
//! equals the local profile of the bytes received so far — the
//! loopback integration tests pin this against the workspace's golden
//! digest.
//!
//! The wire protocol is length-prefixed frames ([`rdx_trace::frame`])
//! carrying tagged messages ([`protocol`]). Everything is bounded:
//! frame sizes, per-session streamed bytes, and every internal queue,
//! so backpressure propagates to the client socket rather than growing
//! memory. There is no async runtime — plain `std::net` blocking I/O
//! with a thread per connection, per session, and per write side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;

mod client;
mod net;
mod server;
mod session;

pub use client::{AggregateReply, Client, ClientError, CloseAck, FlushAck, MetricsReply};
pub use net::Listen;
pub use protocol::{
    ErrorCode, Fnv64, HistogramSnapshot, ProfileSnapshot, SessionOptions, PROTOCOL_VERSION,
};
pub use server::{Server, ServerHandle, ServerOptions};
pub use session::{SessionCmd, SessionEvent, SessionStepper};
