//! Blocking client for the rdx-server protocol.
//!
//! One [`Client`] owns one connection and may multiplex many sessions
//! over it. Replies that arrive for *other* sessions while waiting for
//! a specific one are parked in a pending queue and handed out when
//! their session is asked about — so interleaved use of several
//! sessions over a single connection just works.

use crate::net::{AnyStream, Listen};
use crate::protocol::{
    ClientMessage, ErrorCode, ProfileSnapshot, ServerMessage, SessionOptions, PROTOCOL_VERSION,
};
use bytes::Bytes;
use rdx_trace::frame::{read_frame, write_frame, FrameError};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::time::Duration;

/// How long a reply may take before the client gives up. Generous —
/// a reply waits behind every chunk queued before it — but finite, so
/// a wedged server can't hang tests or CI forever.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Everything that can go wrong talking to a server.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// Frame- or message-level failure.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Server {
        /// The session at fault (0 = the connection).
        session: u32,
        /// The error class.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server violated the protocol (wrong reply, early close).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Server {
                session,
                code,
                message,
            } => write!(f, "server error (session {session}, {code:?}): {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A `Flush` acknowledgement: what the server has ingested so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushAck {
    /// Trace bytes the server has received for the session.
    pub received_bytes: u64,
    /// Declared RDXT records decoded so far.
    pub records: u64,
}

/// A `SnapshotMetrics` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReply {
    /// Trace bytes the server has received for the session.
    pub received_bytes: u64,
    /// Declared RDXT records decoded so far.
    pub records: u64,
    /// The server process's `rdx_metrics` registry as JSON.
    pub registry_json: String,
}

/// A `SnapshotAggregate` reply: one fleet profile over many sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateReply {
    /// How many sessions the server folded in.
    pub sessions: u32,
    /// The fleet profile.
    pub profile: ProfileSnapshot,
}

/// The final answer of a closed session.
#[derive(Debug, Clone, PartialEq)]
pub struct CloseAck {
    /// True when the trace decoded completely and cleanly.
    pub clean: bool,
    /// The final profile.
    pub profile: ProfileSnapshot,
}

/// A connected, handshaken client.
pub struct Client {
    writer: BufWriter<AnyStream>,
    reader: BufReader<AnyStream>,
    /// Replies read while waiting for a different session's answer.
    pending: VecDeque<ServerMessage>,
}

impl Client {
    /// Connects and performs the `Hello`/`HelloAck` handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, framing errors, or a version-mismatch
    /// error frame from the server.
    pub fn connect(listen: &Listen) -> Result<Client, ClientError> {
        let stream = AnyStream::connect(listen)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let writer = BufWriter::new(stream.try_clone()?);
        let reader = BufReader::new(stream);
        let mut client = Client {
            writer,
            reader,
            pending: VecDeque::new(),
        };
        client.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match client.recv()? {
            ServerMessage::HelloAck { version } if version == PROTOCOL_VERSION => Ok(client),
            ServerMessage::HelloAck { version } => Err(ClientError::Protocol(format!(
                "server speaks protocol version {version}, client speaks {PROTOCOL_VERSION}"
            ))),
            ServerMessage::Error {
                session,
                code,
                message,
            } => Err(ClientError::Server {
                session,
                code,
                message,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Opens a session and returns its id.
    ///
    /// # Errors
    ///
    /// Typed server errors (e.g. [`ErrorCode::InvalidOptions`]) or
    /// transport failures.
    pub fn open_session(&mut self, name: &str, opts: SessionOptions) -> Result<u32, ClientError> {
        self.send(&ClientMessage::OpenSession {
            name: name.to_string(),
            opts,
        })?;
        // A SessionOpened reply can't be correlated by session id (the
        // id is the answer), so take the first one that shows up.
        let msg = self.wait_matching(|m| matches!(m, ServerMessage::SessionOpened { .. }), 0)?;
        match msg {
            ServerMessage::SessionOpened { session } => Ok(session),
            other => Err(unexpected("SessionOpened", &other)),
        }
    }

    /// Streams trace bytes to a session. Fire-and-forget: errors the
    /// chunk provokes surface at the next acknowledged command.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn send_chunk(&mut self, session: u32, bytes: &[u8]) -> Result<(), ClientError> {
        self.send(&ClientMessage::TraceChunk {
            session,
            bytes: Bytes::from(bytes.to_vec()),
        })
    }

    /// Waits until everything sent so far has been ingested.
    ///
    /// # Errors
    ///
    /// Typed server errors (a malformed or overflowed stream surfaces
    /// here) or transport failures.
    pub fn flush(&mut self, session: u32) -> Result<FlushAck, ClientError> {
        self.send(&ClientMessage::Flush { session })?;
        let msg = self.wait_matching(
            move |m| matches!(m, ServerMessage::Flushed { session: s, .. } if *s == session),
            session,
        )?;
        match msg {
            ServerMessage::Flushed {
                received_bytes,
                records,
                ..
            } => Ok(FlushAck {
                received_bytes,
                records,
            }),
            other => Err(unexpected("Flushed", &other)),
        }
    }

    /// Requests a live profile over the bytes received so far.
    ///
    /// # Errors
    ///
    /// Typed server errors ([`ErrorCode::NotReady`] before a complete
    /// header) or transport failures.
    pub fn snapshot_histogram(&mut self, session: u32) -> Result<ProfileSnapshot, ClientError> {
        self.send(&ClientMessage::SnapshotHistogram { session })?;
        let msg = self.wait_matching(
            move |m| matches!(m, ServerMessage::Histogram { session: s, .. } if *s == session),
            session,
        )?;
        match msg {
            ServerMessage::Histogram { profile, .. } => Ok(profile),
            other => Err(unexpected("Histogram", &other)),
        }
    }

    /// Requests session counters and the server's metrics registry.
    ///
    /// # Errors
    ///
    /// Typed server errors or transport failures.
    pub fn snapshot_metrics(&mut self, session: u32) -> Result<MetricsReply, ClientError> {
        self.send(&ClientMessage::SnapshotMetrics { session })?;
        let msg = self.wait_matching(
            move |m| matches!(m, ServerMessage::Metrics { session: s, .. } if *s == session),
            session,
        )?;
        match msg {
            ServerMessage::Metrics {
                received_bytes,
                records,
                registry_json,
                ..
            } => Ok(MetricsReply {
                received_bytes,
                records,
                registry_json,
            }),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Closes a session and returns its final profile.
    ///
    /// # Errors
    ///
    /// Typed server errors or transport failures.
    pub fn close_session(&mut self, session: u32) -> Result<CloseAck, ClientError> {
        self.send(&ClientMessage::CloseSession { session })?;
        let msg = self.wait_matching(
            move |m| matches!(m, ServerMessage::SessionClosed { session: s, .. } if *s == session),
            session,
        )?;
        match msg {
            ServerMessage::SessionClosed { clean, profile, .. } => Ok(CloseAck { clean, profile }),
            other => Err(unexpected("SessionClosed", &other)),
        }
    }

    /// Asks the server for one fleet profile over several open
    /// sessions, folded server-side with bounded memory.
    ///
    /// The reply equals folding `ProfileSnapshot::default()` with each
    /// session's [`snapshot_histogram`](Self::snapshot_histogram)
    /// result in `sessions` order through [`ProfileSnapshot::merge`] —
    /// bit for bit, which the loopback tests pin.
    ///
    /// # Errors
    ///
    /// Typed server errors (an empty list, an unknown session, or one
    /// that is failed or not yet past its trace header aborts the whole
    /// aggregate) or transport failures.
    pub fn snapshot_aggregate(&mut self, sessions: &[u32]) -> Result<AggregateReply, ClientError> {
        self.send(&ClientMessage::SnapshotAggregate {
            sessions: sessions.to_vec(),
        })?;
        let msg = self.wait_matching_err(
            |m| matches!(m, ServerMessage::Aggregate { .. }),
            // The server blames whichever session broke the aggregate.
            |_| true,
        )?;
        match msg {
            ServerMessage::Aggregate { sessions, profile } => {
                Ok(AggregateReply { sessions, profile })
            }
            other => Err(unexpected("Aggregate", &other)),
        }
    }

    fn send(&mut self, msg: &ClientMessage) -> Result<(), ClientError> {
        let payload = msg.encode()?;
        write_frame(&mut self.writer, &payload)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerMessage, ClientError> {
        match read_frame(&mut self.reader)? {
            Some(payload) => Ok(ServerMessage::decode(payload)?),
            None => Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            )),
        }
    }

    /// Returns the first reply matching `want` (which encodes both the
    /// expected shape and the session it concerns). Error frames for
    /// `err_session` — or for the connection, session 0 —
    /// short-circuit; replies for other sessions are parked in
    /// `pending` for their own waiters.
    fn wait_matching(
        &mut self,
        want: impl Fn(&ServerMessage) -> bool,
        err_session: u32,
    ) -> Result<ServerMessage, ClientError> {
        self.wait_matching_err(want, move |s| s == err_session || s == 0)
    }

    /// [`wait_matching`](Self::wait_matching) with an explicit error
    /// scope: error frames whose session satisfies `err` short-circuit,
    /// others are parked. Multi-session commands (aggregation) pass
    /// `|_| true` — the server may blame any of the involved sessions.
    fn wait_matching_err(
        &mut self,
        want: impl Fn(&ServerMessage) -> bool,
        err: impl Fn(u32) -> bool,
    ) -> Result<ServerMessage, ClientError> {
        // Pending replies first — they arrived earlier.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending.get(i).is_some_and(&want) {
                if let Some(m) = self.pending.remove(i) {
                    return Ok(m);
                }
            }
            i += 1;
        }
        loop {
            let msg = self.recv()?;
            if let ServerMessage::Error {
                session: s,
                code,
                message,
            } = &msg
            {
                if err(*s) {
                    return Err(ClientError::Server {
                        session: *s,
                        code: *code,
                        message: message.clone(),
                    });
                }
                // Another session's problem; park it.
                self.pending.push_back(msg);
                continue;
            }
            if want(&msg) {
                return Ok(msg);
            }
            self.pending.push_back(msg);
        }
    }
}

fn unexpected(wanted: &str, got: &ServerMessage) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
