//! Message grammar of the rdx-server wire protocol.
//!
//! Every message travels as one frame (see [`rdx_trace::frame`]); the
//! first payload byte is the message tag, client tags in `0x01..=0x7F`
//! and server tags in `0x80..=0xFF`. Decoding is strict: unknown tags,
//! fields past the payload end, and trailing bytes are all
//! [`FrameError::Malformed`], so a confused peer is detected at the
//! first bad message instead of desynchronizing the stream.

use bytes::Bytes;
use rdx_core::limits::{check_decode_buffer, check_period, check_registers, LimitError};
use rdx_core::{IngestOptions, RdxConfig, RdxProfile};
use rdx_trace::{FrameError, PayloadReader, PayloadWriter};

/// Protocol revision; bumped on any grammar change. [`Hello`] carries
/// it and the server refuses mismatches, so stale clients fail fast.
///
/// [`Hello`]: ClientMessage::Hello
pub const PROTOCOL_VERSION: u32 = 2;

/// Default sampling period for sessions that don't specify one,
/// matching the CLI's default operating point.
pub const DEFAULT_PERIOD: u64 = 2048;

// Client message tags.
const T_HELLO: u8 = 0x01;
const T_OPEN: u8 = 0x02;
const T_CHUNK: u8 = 0x03;
const T_FLUSH: u8 = 0x04;
const T_SNAP_HIST: u8 = 0x05;
const T_SNAP_METRICS: u8 = 0x06;
const T_CLOSE: u8 = 0x07;
const T_SNAP_AGG: u8 = 0x08;

// Server message tags.
const T_HELLO_ACK: u8 = 0x81;
const T_OPENED: u8 = 0x82;
const T_FLUSHED: u8 = 0x84;
const T_HISTOGRAM: u8 = 0x85;
const T_METRICS: u8 = 0x86;
const T_CLOSED: u8 = 0x87;
const T_AGGREGATE: u8 = 0x88;
const T_ERROR: u8 = 0xEE;

/// Per-session profiling options carried by `OpenSession`.
///
/// Mirrors the CLI's profiling flags; the server validates them with
/// the same [`rdx_core::limits`] checks the CLI uses at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOptions {
    /// Mean PMU sampling period in accesses (≥ 1).
    pub period: u64,
    /// Debug registers to model (1..=4).
    pub registers: u32,
    /// Machine RNG seed.
    pub seed: u64,
    /// Accesses per decode batch (≥ 1): the server decodes a chunk
    /// into the live profile at most this many accesses (and at most
    /// 2^20) at a time.
    pub chunk_capacity: u64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        let config = RdxConfig::default();
        SessionOptions {
            period: DEFAULT_PERIOD,
            registers: 4,
            seed: config.machine.seed,
            chunk_capacity: IngestOptions::default().chunk_capacity as u64,
        }
    }
}

impl SessionOptions {
    /// Validates every field with the shared [`rdx_core::limits`]
    /// checks (the same ones the CLI applies at flag-parse time).
    ///
    /// # Errors
    ///
    /// The first [`LimitError`], naming the offending parameter.
    pub fn validate(&self) -> Result<(), LimitError> {
        check_period(self.period)?;
        check_registers(usize::try_from(self.registers).unwrap_or(usize::MAX))?;
        check_decode_buffer(usize::try_from(self.chunk_capacity).unwrap_or(usize::MAX))?;
        Ok(())
    }

    /// The profiler configuration these options describe.
    #[must_use]
    pub fn config(&self) -> RdxConfig {
        RdxConfig::default()
            .with_period(self.period)
            .with_seed(self.seed)
            .with_registers(usize::try_from(self.registers).unwrap_or(4))
    }

    /// The ingestion (decode) options these options describe.
    #[must_use]
    pub fn ingest(&self) -> IngestOptions {
        IngestOptions::default()
            .with_chunk_capacity(usize::try_from(self.chunk_capacity).unwrap_or(usize::MAX))
    }
}

/// Typed reasons a server [`Error`](ServerMessage::Error) frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// A frame or message that violates the protocol grammar.
    Protocol = 1,
    /// The client's protocol version is not supported.
    Version = 2,
    /// A command referenced a session id that is not open.
    UnknownSession = 3,
    /// `OpenSession` options failed validation.
    InvalidOptions = 4,
    /// The session's trace byte stream is malformed (RDXT-level).
    MalformedTrace = 5,
    /// The session exceeded its streamed-bytes budget.
    Overflow = 6,
    /// The request cannot be answered yet (e.g. snapshot before a
    /// complete trace header has arrived).
    NotReady = 7,
    /// A server-side infrastructure failure (not the client's fault):
    /// e.g. the connection's writer could not be set up.
    Internal = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<ErrorCode, FrameError> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Version,
            3 => ErrorCode::UnknownSession,
            4 => ErrorCode::InvalidOptions,
            5 => ErrorCode::MalformedTrace,
            6 => ErrorCode::Overflow,
            7 => ErrorCode::NotReady,
            8 => ErrorCode::Internal,
            _ => return Err(FrameError::Malformed),
        })
    }
}

/// A histogram flattened for the wire: `(lo, hi, weight)` buckets plus
/// the infinite (cold) weight. Weights travel as exact `f64` bit
/// patterns so digests over them are bit-stable end to end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// `(range.lo, range.hi, weight)` per bucket, in histogram order.
    pub buckets: Vec<(u64, u64, f64)>,
    /// Weight of the infinite (cold / never-reused) bucket.
    pub infinite: f64,
}

impl HistogramSnapshot {
    /// Adds `other`'s weight into this snapshot.
    ///
    /// Bucket lists hold only occupied buckets of one binning, sorted
    /// by range, so this is a sorted merge: equal `(lo, hi)` ranges sum
    /// their weights, ranges present on one side only carry over. The
    /// infinite (cold) weight is additive — the composition rule the
    /// cold-correction golden tests pin.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let a = std::mem::take(&mut self.buckets);
        let b = &other.buckets;
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (alo, ahi, aw) = a[i];
            let (blo, bhi, bw) = b[j];
            match (alo, ahi).cmp(&(blo, bhi)) {
                std::cmp::Ordering::Equal => {
                    out.push((alo, ahi, aw + bw));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.buckets = out;
        self.infinite += other.infinite;
    }
}

/// A profile flattened for the wire — everything the registry golden
/// digest covers, in one copyable snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Accesses profiled so far (the decodable prefix).
    pub accesses: u64,
    /// PMU samples taken.
    pub samples: u64,
    /// Watchpoint traps observed.
    pub traps: u64,
    /// Watchpoint evictions (censored intervals).
    pub evictions: u64,
    /// Estimated distinct-block count.
    pub m_estimate: f64,
    /// Reuse-distance histogram.
    pub rd: HistogramSnapshot,
    /// Reuse-time histogram.
    pub rt: HistogramSnapshot,
}

impl ProfileSnapshot {
    /// Flattens a measured profile.
    #[must_use]
    pub fn from_profile(p: &RdxProfile) -> ProfileSnapshot {
        let flatten = |h: &rdx_histogram::Histogram| HistogramSnapshot {
            buckets: h
                .buckets()
                .map(|b| (b.range.lo, b.range.hi, b.weight))
                .collect(),
            infinite: h.infinite_weight(),
        };
        ProfileSnapshot {
            accesses: p.accesses,
            samples: p.samples,
            traps: p.traps,
            evictions: p.evictions,
            m_estimate: p.m_estimate,
            rd: flatten(p.rd.as_histogram()),
            rt: flatten(p.rt.as_histogram()),
        }
    }

    /// Folds `other` into this snapshot — the wire-level face of the
    /// profile merge monoid.
    ///
    /// Counters and the distinct-block estimate are additive;
    /// histograms merge bucket-range by bucket-range (see
    /// [`HistogramSnapshot::merge`]). The server answers
    /// [`SnapshotAggregate`] by folding `ProfileSnapshot::default()`
    /// with each requested session's snapshot **in request order**
    /// through this exact function, so a client folding per-session
    /// snapshots the same way reproduces the server's aggregate
    /// bit for bit.
    ///
    /// [`SnapshotAggregate`]: ClientMessage::SnapshotAggregate
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        self.accesses = self.accesses.saturating_add(other.accesses);
        self.samples = self.samples.saturating_add(other.samples);
        self.traps = self.traps.saturating_add(other.traps);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.m_estimate += other.m_estimate;
        self.rd.merge(&other.rd);
        self.rt.merge(&other.rt);
    }

    /// Folds this snapshot into a digest in the exact word order the
    /// registry golden tests use: rd histogram, rt histogram, samples,
    /// traps, evictions, m-estimate bits.
    pub fn fold_into(&self, d: &mut Fnv64) {
        for h in [&self.rd, &self.rt] {
            for &(lo, hi, w) in &h.buckets {
                d.push(lo);
                d.push(hi);
                d.push(w.to_bits());
            }
            d.push(h.infinite.to_bits());
        }
        d.push(self.samples);
        d.push(self.traps);
        d.push(self.evictions);
        d.push(self.m_estimate.to_bits());
    }

    fn put(&self, w: &mut PayloadWriter) -> Result<(), FrameError> {
        w.put_u64(self.accesses);
        w.put_u64(self.samples);
        w.put_u64(self.traps);
        w.put_u64(self.evictions);
        w.put_u64(self.m_estimate.to_bits());
        for h in [&self.rd, &self.rt] {
            let n = u32::try_from(h.buckets.len())
                .map_err(|_| FrameError::Oversized(h.buckets.len()))?;
            w.put_u32(n);
            for &(lo, hi, weight) in &h.buckets {
                w.put_u64(lo);
                w.put_u64(hi);
                w.put_u64(weight.to_bits());
            }
            w.put_u64(h.infinite.to_bits());
        }
        Ok(())
    }

    fn take(r: &mut PayloadReader) -> Result<ProfileSnapshot, FrameError> {
        let accesses = r.take_u64()?;
        let samples = r.take_u64()?;
        let traps = r.take_u64()?;
        let evictions = r.take_u64()?;
        let m_estimate = f64::from_bits(r.take_u64()?);
        let mut hists = [HistogramSnapshot::default(), HistogramSnapshot::default()];
        for h in &mut hists {
            let n = r.take_u32()? as usize;
            // 24 bytes per bucket: a count the payload can't back is
            // rejected before any allocation.
            if n.saturating_mul(24) > r.remaining() {
                return Err(FrameError::Malformed);
            }
            let mut buckets = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = r.take_u64()?;
                let hi = r.take_u64()?;
                let weight = f64::from_bits(r.take_u64()?);
                buckets.push((lo, hi, weight));
            }
            h.buckets = buckets;
            h.infinite = f64::from_bits(r.take_u64()?);
        }
        let [rd, rt] = hists;
        Ok(ProfileSnapshot {
            accesses,
            samples,
            traps,
            evictions,
            m_estimate,
            rd,
            rt,
        })
    }
}

/// FNV-1a over little-endian `u64` words — the same digest the
/// workspace's golden determinism tests pin, so a server-side profile
/// can be crosschecked bit-for-bit against the local path.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Starts a digest at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word in, byte by byte, little-endian.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Messages a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// Protocol handshake; must be the first message on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Opens a profiling session.
    OpenSession {
        /// Display name; also the fallback trace label.
        name: String,
        /// Profiling and decode options.
        opts: SessionOptions,
    },
    /// Appends raw RDXT bytes to a session's stream. Chunks may split
    /// the trace anywhere — mid-header, mid-record.
    TraceChunk {
        /// Target session.
        session: u32,
        /// The bytes.
        bytes: Bytes,
    },
    /// Synchronization point: the server acknowledges once every chunk
    /// sent before it has been ingested.
    Flush {
        /// Target session.
        session: u32,
    },
    /// Requests a live profile (histograms + counters) over the bytes
    /// received so far.
    SnapshotHistogram {
        /// Target session.
        session: u32,
    },
    /// Requests session byte/record counters and the server's metrics
    /// registry snapshot.
    SnapshotMetrics {
        /// Target session.
        session: u32,
    },
    /// Closes a session; the reply carries the final profile.
    CloseSession {
        /// Target session.
        session: u32,
    },
    /// Requests one fleet profile over several open sessions: the
    /// server snapshots each listed session and folds the snapshots
    /// into a single [`ProfileSnapshot`] (in list order, via
    /// [`ProfileSnapshot::merge`]) with bounded memory — one
    /// accumulator, however many sessions are listed.
    SnapshotAggregate {
        /// Sessions to fold, in fold order. Must be non-empty; every
        /// id must be open and past its trace header.
        sessions: Vec<u32>,
    },
}

impl ClientMessage {
    /// Encodes into one frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if a variable-length field exceeds the
    /// frame bound.
    pub fn encode(&self) -> Result<Bytes, FrameError> {
        let payload = match self {
            ClientMessage::Hello { version } => {
                let mut w = PayloadWriter::new(T_HELLO);
                w.put_u32(*version);
                w.finish()
            }
            ClientMessage::OpenSession { name, opts } => {
                let mut w = PayloadWriter::new(T_OPEN);
                w.put_str(name)?;
                w.put_u64(opts.period);
                w.put_u32(opts.registers);
                w.put_u64(opts.seed);
                w.put_u64(opts.chunk_capacity);
                w.finish()
            }
            ClientMessage::TraceChunk { session, bytes } => {
                let mut w = PayloadWriter::new(T_CHUNK);
                w.put_u32(*session);
                w.put_bytes(bytes)?;
                w.finish()
            }
            ClientMessage::Flush { session } => tag_session(T_FLUSH, *session),
            ClientMessage::SnapshotHistogram { session } => tag_session(T_SNAP_HIST, *session),
            ClientMessage::SnapshotMetrics { session } => tag_session(T_SNAP_METRICS, *session),
            ClientMessage::CloseSession { session } => tag_session(T_CLOSE, *session),
            ClientMessage::SnapshotAggregate { sessions } => {
                let mut w = PayloadWriter::new(T_SNAP_AGG);
                let n = u32::try_from(sessions.len())
                    .map_err(|_| FrameError::Oversized(sessions.len()))?;
                w.put_u32(n);
                for &session in sessions {
                    w.put_u32(session);
                }
                w.finish()
            }
        };
        Ok(payload)
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on an unknown tag, a field overrun, or
    /// trailing bytes.
    pub fn decode(payload: Bytes) -> Result<ClientMessage, FrameError> {
        let mut r = PayloadReader::new(payload);
        let msg = match r.take_u8()? {
            T_HELLO => ClientMessage::Hello {
                version: r.take_u32()?,
            },
            T_OPEN => {
                let name = r.take_str()?;
                let opts = SessionOptions {
                    period: r.take_u64()?,
                    registers: r.take_u32()?,
                    seed: r.take_u64()?,
                    chunk_capacity: r.take_u64()?,
                };
                ClientMessage::OpenSession { name, opts }
            }
            T_CHUNK => ClientMessage::TraceChunk {
                session: r.take_u32()?,
                bytes: r.take_bytes()?,
            },
            T_FLUSH => ClientMessage::Flush {
                session: r.take_u32()?,
            },
            T_SNAP_HIST => ClientMessage::SnapshotHistogram {
                session: r.take_u32()?,
            },
            T_SNAP_METRICS => ClientMessage::SnapshotMetrics {
                session: r.take_u32()?,
            },
            T_CLOSE => ClientMessage::CloseSession {
                session: r.take_u32()?,
            },
            T_SNAP_AGG => {
                let n = r.take_u32()? as usize;
                // 4 bytes per id: a count the payload can't back is
                // rejected before any allocation.
                if n.saturating_mul(4) > r.remaining() {
                    return Err(FrameError::Malformed);
                }
                let mut sessions = Vec::with_capacity(n);
                for _ in 0..n {
                    sessions.push(r.take_u32()?);
                }
                ClientMessage::SnapshotAggregate { sessions }
            }
            _ => return Err(FrameError::Malformed),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

fn tag_session(tag: u8, session: u32) -> Bytes {
    let mut w = PayloadWriter::new(tag);
    w.put_u32(session);
    w.finish()
}

/// Messages the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// Handshake acknowledgement.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// A session was opened.
    SessionOpened {
        /// The new session's id (unique per connection).
        session: u32,
    },
    /// All chunks sent before the `Flush` have been ingested.
    Flushed {
        /// The session.
        session: u32,
        /// Trace bytes received so far.
        received_bytes: u64,
        /// Declared records decoded so far.
        records: u64,
    },
    /// A live profile over the bytes received so far.
    Histogram {
        /// The session.
        session: u32,
        /// The profile.
        profile: ProfileSnapshot,
    },
    /// Session counters plus the server's metrics registry snapshot.
    Metrics {
        /// The session.
        session: u32,
        /// Trace bytes received so far.
        received_bytes: u64,
        /// Declared records decoded so far.
        records: u64,
        /// `rdx_metrics::snapshot().to_json()` of the server process.
        registry_json: String,
    },
    /// The session is closed; this is its final answer.
    SessionClosed {
        /// The session.
        session: u32,
        /// True when a complete, valid trace was received and decoded
        /// to exactly its declared record count.
        clean: bool,
        /// The final profile (over the decodable prefix when unclean).
        profile: ProfileSnapshot,
    },
    /// One fleet profile answering a
    /// [`SnapshotAggregate`](ClientMessage::SnapshotAggregate): every
    /// requested session's snapshot folded into a single profile.
    Aggregate {
        /// How many sessions were folded in.
        sessions: u32,
        /// The fleet profile.
        profile: ProfileSnapshot,
    },
    /// A typed error. `session` 0 means the connection itself.
    Error {
        /// The session at fault, or 0 for connection-level errors.
        session: u32,
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl ServerMessage {
    /// Encodes into one frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if a variable-length field exceeds the
    /// frame bound.
    pub fn encode(&self) -> Result<Bytes, FrameError> {
        let payload = match self {
            ServerMessage::HelloAck { version } => {
                let mut w = PayloadWriter::new(T_HELLO_ACK);
                w.put_u32(*version);
                w.finish()
            }
            ServerMessage::SessionOpened { session } => tag_session(T_OPENED, *session),
            ServerMessage::Flushed {
                session,
                received_bytes,
                records,
            } => {
                let mut w = PayloadWriter::new(T_FLUSHED);
                w.put_u32(*session);
                w.put_u64(*received_bytes);
                w.put_u64(*records);
                w.finish()
            }
            ServerMessage::Histogram { session, profile } => {
                let mut w = PayloadWriter::new(T_HISTOGRAM);
                w.put_u32(*session);
                profile.put(&mut w)?;
                w.finish()
            }
            ServerMessage::Metrics {
                session,
                received_bytes,
                records,
                registry_json,
            } => {
                let mut w = PayloadWriter::new(T_METRICS);
                w.put_u32(*session);
                w.put_u64(*received_bytes);
                w.put_u64(*records);
                w.put_str(registry_json)?;
                w.finish()
            }
            ServerMessage::SessionClosed {
                session,
                clean,
                profile,
            } => {
                let mut w = PayloadWriter::new(T_CLOSED);
                w.put_u32(*session);
                w.put_u8(u8::from(*clean));
                profile.put(&mut w)?;
                w.finish()
            }
            ServerMessage::Aggregate { sessions, profile } => {
                let mut w = PayloadWriter::new(T_AGGREGATE);
                w.put_u32(*sessions);
                profile.put(&mut w)?;
                w.finish()
            }
            ServerMessage::Error {
                session,
                code,
                message,
            } => {
                let mut w = PayloadWriter::new(T_ERROR);
                w.put_u32(*session);
                w.put_u8(*code as u8);
                w.put_str(message)?;
                w.finish()
            }
        };
        Ok(payload)
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on an unknown tag, a field overrun, or
    /// trailing bytes.
    pub fn decode(payload: Bytes) -> Result<ServerMessage, FrameError> {
        let mut r = PayloadReader::new(payload);
        let msg = match r.take_u8()? {
            T_HELLO_ACK => ServerMessage::HelloAck {
                version: r.take_u32()?,
            },
            T_OPENED => ServerMessage::SessionOpened {
                session: r.take_u32()?,
            },
            T_FLUSHED => ServerMessage::Flushed {
                session: r.take_u32()?,
                received_bytes: r.take_u64()?,
                records: r.take_u64()?,
            },
            T_HISTOGRAM => ServerMessage::Histogram {
                session: r.take_u32()?,
                profile: ProfileSnapshot::take(&mut r)?,
            },
            T_METRICS => ServerMessage::Metrics {
                session: r.take_u32()?,
                received_bytes: r.take_u64()?,
                records: r.take_u64()?,
                registry_json: r.take_str()?,
            },
            T_CLOSED => ServerMessage::SessionClosed {
                session: r.take_u32()?,
                clean: r.take_u8()? != 0,
                profile: ProfileSnapshot::take(&mut r)?,
            },
            T_AGGREGATE => ServerMessage::Aggregate {
                sessions: r.take_u32()?,
                profile: ProfileSnapshot::take(&mut r)?,
            },
            T_ERROR => ServerMessage::Error {
                session: r.take_u32()?,
                code: ErrorCode::from_u8(r.take_u8()?)?,
                message: r.take_str()?,
            },
            _ => return Err(FrameError::Malformed),
        };
        r.expect_end()?;
        Ok(msg)
    }

    /// The session a message concerns (0 for connection-level ones).
    #[must_use]
    pub fn session(&self) -> u32 {
        match self {
            // An aggregate spans sessions: like the handshake, it
            // belongs to the connection, not to any one session.
            ServerMessage::HelloAck { .. } | ServerMessage::Aggregate { .. } => 0,
            ServerMessage::SessionOpened { session }
            | ServerMessage::Flushed { session, .. }
            | ServerMessage::Histogram { session, .. }
            | ServerMessage::Metrics { session, .. }
            | ServerMessage::SessionClosed { session, .. }
            | ServerMessage::Error { session, .. } => *session,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(msg: ClientMessage) {
        let wire = msg.encode().expect("encodes");
        let back = ClientMessage::decode(wire).expect("decodes");
        assert_eq!(back, msg);
    }

    fn roundtrip_server(msg: ServerMessage) {
        let wire = msg.encode().expect("encodes");
        let back = ServerMessage::decode(wire).expect("decodes");
        assert_eq!(back, msg);
    }

    fn sample_profile() -> ProfileSnapshot {
        ProfileSnapshot {
            accesses: 60_000,
            samples: 117,
            traps: 95,
            evictions: 4,
            m_estimate: 799.25,
            rd: HistogramSnapshot {
                buckets: vec![(0, 2, 0.5), (2, 4, 1.75)],
                infinite: 0.25,
            },
            rt: HistogramSnapshot {
                buckets: vec![(0, 1024, 3.0)],
                infinite: 0.0,
            },
        }
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMessage::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_client(ClientMessage::OpenSession {
            name: "zipf".to_string(),
            opts: SessionOptions {
                period: 512,
                registers: 2,
                seed: 7,
                chunk_capacity: 777,
            },
        });
        roundtrip_client(ClientMessage::TraceChunk {
            session: 3,
            bytes: Bytes::from(vec![1, 2, 3, 0x80, 0xFF]),
        });
        for session in [0u32, 1, u32::MAX] {
            roundtrip_client(ClientMessage::Flush { session });
            roundtrip_client(ClientMessage::SnapshotHistogram { session });
            roundtrip_client(ClientMessage::SnapshotMetrics { session });
            roundtrip_client(ClientMessage::CloseSession { session });
        }
        for sessions in [vec![], vec![1], vec![3, 1, 2, u32::MAX]] {
            roundtrip_client(ClientMessage::SnapshotAggregate { sessions });
        }
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMessage::HelloAck {
            version: PROTOCOL_VERSION,
        });
        roundtrip_server(ServerMessage::SessionOpened { session: 9 });
        roundtrip_server(ServerMessage::Flushed {
            session: 9,
            received_bytes: 1 << 20,
            records: 60_000,
        });
        roundtrip_server(ServerMessage::Histogram {
            session: 9,
            profile: sample_profile(),
        });
        roundtrip_server(ServerMessage::Metrics {
            session: 9,
            received_bytes: 123,
            records: 45,
            registry_json: "{\"counters\":{}}".to_string(),
        });
        roundtrip_server(ServerMessage::SessionClosed {
            session: 9,
            clean: true,
            profile: sample_profile(),
        });
        roundtrip_server(ServerMessage::Aggregate {
            sessions: 3,
            profile: sample_profile(),
        });
        roundtrip_server(ServerMessage::Error {
            session: 0,
            code: ErrorCode::Protocol,
            message: "first message must be Hello".to_string(),
        });
    }

    #[test]
    fn aggregate_session_count_is_bounds_checked() {
        // A session count the payload can't back is rejected before
        // any allocation, mirroring the histogram bucket-count guard.
        let mut w = PayloadWriter::new(T_SNAP_AGG);
        w.put_u32(u32::MAX);
        assert!(matches!(
            ClientMessage::decode(w.finish()),
            Err(FrameError::Malformed)
        ));
    }

    #[test]
    fn version_1_open_session_layout_is_malformed() {
        // Protocol 1 carried a pipelined flag (u8) and a decode-ahead
        // depth (u64) around the chunk capacity; its payload decodes to a typed error
        // under this grammar, never a panic or a misread option.
        let mut w = PayloadWriter::new(T_OPEN);
        w.put_str("zipf").expect("short name");
        w.put_u64(512); // period
        w.put_u32(4); // registers
        w.put_u64(7); // seed
        w.put_u8(1); // pipelined
        w.put_u64(1 << 16); // chunk_capacity
        w.put_u64(2); // decode-ahead depth
        assert!(matches!(
            ClientMessage::decode(w.finish()),
            Err(FrameError::Malformed)
        ));
    }

    #[test]
    fn snapshot_merge_sums_counters_and_aligned_buckets() {
        let mut fleet = ProfileSnapshot::default();
        fleet.merge(&sample_profile());
        fleet.merge(&sample_profile());
        let one = sample_profile();
        assert_eq!(fleet.accesses, 2 * one.accesses);
        assert_eq!(fleet.samples, 2 * one.samples);
        assert_eq!(fleet.traps, 2 * one.traps);
        assert_eq!(fleet.evictions, 2 * one.evictions);
        assert_eq!(fleet.m_estimate, 2.0 * one.m_estimate);
        // Identical binnings: same bucket ranges, doubled weights.
        assert_eq!(fleet.rd.buckets.len(), one.rd.buckets.len());
        for (m, o) in fleet.rd.buckets.iter().zip(&one.rd.buckets) {
            assert_eq!((m.0, m.1), (o.0, o.1));
            assert_eq!(m.2, 2.0 * o.2);
        }
        assert_eq!(fleet.rd.infinite, 2.0 * one.rd.infinite);
    }

    #[test]
    fn snapshot_merge_interleaves_disjoint_buckets_in_order() {
        let mut a = HistogramSnapshot {
            buckets: vec![(0, 2, 1.0), (4, 8, 2.0)],
            infinite: 1.0,
        };
        let b = HistogramSnapshot {
            buckets: vec![(2, 4, 0.5), (4, 8, 3.0), (8, 16, 4.0)],
            infinite: 0.5,
        };
        a.merge(&b);
        assert_eq!(
            a.buckets,
            vec![(0, 2, 1.0), (2, 4, 0.5), (4, 8, 5.0), (8, 16, 4.0)]
        );
        assert_eq!(a.infinite, 1.5);
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_rejected() {
        assert!(matches!(
            ClientMessage::decode(Bytes::from(vec![0x7E])),
            Err(FrameError::Malformed)
        ));
        assert!(matches!(
            ServerMessage::decode(Bytes::from(vec![0x70])),
            Err(FrameError::Malformed)
        ));
        // A valid message followed by junk is rejected whole.
        let mut wire = ClientMessage::Flush { session: 1 }
            .encode()
            .expect("encodes")
            .to_vec();
        wire.push(0xAA);
        assert!(matches!(
            ClientMessage::decode(Bytes::from(wire)),
            Err(FrameError::Malformed)
        ));
        // Empty payloads have no tag.
        assert!(matches!(
            ClientMessage::decode(Bytes::default()),
            Err(FrameError::Malformed)
        ));
    }

    #[test]
    fn truncated_payloads_rejected() {
        let wire = ServerMessage::Histogram {
            session: 1,
            profile: sample_profile(),
        }
        .encode()
        .expect("encodes");
        for cut in [1, 5, 13, wire.len() - 1] {
            let short = Bytes::from(wire.to_vec()[..cut].to_vec());
            assert!(
                matches!(ServerMessage::decode(short), Err(FrameError::Malformed)),
                "cut at {cut}"
            );
        }
        // A bucket count the payload can't back is rejected.
        let mut w = PayloadWriter::new(0x85);
        w.put_u32(1); // session
        w.put_u64(0); // accesses
        w.put_u64(0); // samples
        w.put_u64(0); // traps
        w.put_u64(0); // evictions
        w.put_u64(0); // m bits
        w.put_u32(u32::MAX); // ludicrous bucket count
        assert!(matches!(
            ServerMessage::decode(w.finish()),
            Err(FrameError::Malformed)
        ));
    }

    #[test]
    fn options_validate_via_shared_limits() {
        assert!(SessionOptions::default().validate().is_ok());
        let bad = [
            SessionOptions {
                period: 0,
                ..SessionOptions::default()
            },
            SessionOptions {
                registers: 0,
                ..SessionOptions::default()
            },
            SessionOptions {
                registers: 5,
                ..SessionOptions::default()
            },
            SessionOptions {
                chunk_capacity: 0,
                ..SessionOptions::default()
            },
        ];
        for opts in bad {
            assert!(opts.validate().is_err(), "{opts:?}");
        }
    }

    #[test]
    fn session_options_map_to_config_and_ingest() {
        let opts = SessionOptions {
            period: 512,
            registers: 3,
            seed: 7,
            chunk_capacity: 1234,
        };
        let config = opts.config();
        assert_eq!(config.machine.sampling.period, 512);
        assert_eq!(config.machine.registers, 3);
        assert_eq!(config.machine.seed, 7);
        assert_eq!(opts.ingest().chunk_capacity, 1234);
        // Defaults mirror the local profiling defaults exactly — the
        // precondition for bit-identical server-side profiles.
        let d = SessionOptions::default();
        assert_eq!(d.config().machine.seed, RdxConfig::default().machine.seed);
        assert_eq!(
            d.ingest().chunk_capacity,
            IngestOptions::default().chunk_capacity
        );
    }

    #[test]
    fn snapshot_digest_matches_manual_fnv() {
        let p = sample_profile();
        let mut d = Fnv64::new();
        p.fold_into(&mut d);
        // Manual replication of the golden digest word order.
        let mut manual = Fnv64::new();
        for h in [&p.rd, &p.rt] {
            for &(lo, hi, w) in &h.buckets {
                manual.push(lo);
                manual.push(hi);
                manual.push(w.to_bits());
            }
            manual.push(h.infinite.to_bits());
        }
        manual.push(p.samples);
        manual.push(p.traps);
        manual.push(p.evictions);
        manual.push(p.m_estimate.to_bits());
        assert_eq!(d.value(), manual.value());
    }
}
