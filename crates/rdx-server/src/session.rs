//! Per-session worker: owns one RDXT byte stream and answers profile
//! questions about it.
//!
//! A session decodes each chunk on arrival and feeds the accesses
//! straight into a live profiler — the machine run and the RDX profiler
//! state of [`LiveProfile`] — so it never holds the trace. Decoding goes
//! through [`RdxtDecoder`], which parses the header with the same rules
//! as the file reader, decodes records with the same bulk kernels in
//! batches of at most `chunk_capacity` accesses, and carries only a
//! record split by a chunk boundary. A malformed stream is reported at
//! the chunk that contains the corruption, not at close. Session memory
//! is the profiler state (armed registers plus the pairs collected so
//! far) and one decode batch, whatever the stream's length.
//!
//! A snapshot clones that state, finishes the clone and runs the same
//! post-pass as a local profile: O(pairs), not O(bytes received). The
//! machine and profiler never read the declared trace length, and the
//! machine's fast path is independent of how the accesses were sliced,
//! so a snapshot after any byte prefix equals `profile_rdxt` of that
//! prefix bit for bit, and the close answer equals the local
//! file-backed profile of the whole stream.
//!
//! The state machine itself ([`SessionState::handle`]) is a pure
//! command-in/frames-out step function with no threads or clocks in
//! it. Production drives it from a dedicated thread over a bounded
//! command channel ([`SessionWorker::run`]); the connection reader
//! blocks when that channel fills, which propagates backpressure to
//! the client's socket. The deterministic simulator drives the same
//! machine one command at a time through [`SessionStepper`], so
//! out-of-order and post-failure command sequences are pinned by
//! replayable tests.

use crate::protocol::{ErrorCode, ProfileSnapshot, ServerMessage, SessionOptions};
use bytes::Bytes;
use rdx_core::{LiveProfile, RdxRunner};
use rdx_trace::{Access, RdxtDecoder, TraceError};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Largest decode batch in accesses (16 MiB of them), whatever
/// `chunk_capacity` the client asked for: one 16 MiB frame of 1-byte
/// records must not allocate a quarter-gigabyte batch.
const MAX_BATCH: usize = 1 << 20;

/// Commands the connection reader forwards to a session worker.
#[derive(Debug)]
pub enum SessionCmd {
    /// More trace bytes.
    Chunk(Bytes),
    /// Acknowledge ingestion of everything sent so far.
    Flush,
    /// Profile the bytes so far and reply with histograms.
    SnapshotHistogram,
    /// Profile the bytes so far and hand the snapshot back through the
    /// given channel — to the connection thread for fleet aggregation,
    /// not to the client. Failures travel as the session's error class
    /// so the connection can report which session broke the aggregate.
    Aggregate(SyncSender<Result<ProfileSnapshot, ErrorCode>>),
    /// Reply with session counters and the metrics registry.
    SnapshotMetrics,
    /// Final profile, then terminate.
    Close,
}

/// One session's identity and reply plumbing.
pub(crate) struct SessionWorker {
    pub(crate) id: u32,
    pub(crate) opts: SessionOptions,
    /// Encoded reply frames, towards the connection's writer thread.
    pub(crate) out: SyncSender<Bytes>,
    /// Per-session byte budget; exceeding it fails the session.
    pub(crate) max_bytes: usize,
}

/// The session's mutable state, advanced one command per
/// [`handle`](SessionState::handle) call.
struct SessionState {
    decoder: RdxtDecoder,
    /// The profile so far; taken by `Close`.
    live: Option<LiveProfile>,
    /// Reused decode batch (at most `chunk_capacity` accesses).
    batch: Vec<Access>,
    /// Trace bytes received, for the budget and the acks.
    received: u64,
    failure: Option<ErrorCode>,
}

impl SessionState {
    fn new(opts: &SessionOptions) -> Self {
        SessionState {
            decoder: RdxtDecoder::new(),
            live: Some(RdxRunner::new(opts.config()).start()),
            batch: Vec::new(),
            received: 0,
            failure: None,
        }
    }

    /// Applies one command, sending any reply through `w.out`. Returns
    /// `false` once the session is over (after `Close`).
    fn handle(&mut self, w: &SessionWorker, cmd: SessionCmd) -> bool {
        match cmd {
            SessionCmd::Chunk(bytes) => {
                if self.failure.is_some() {
                    // The error was already reported; drain quietly.
                    return true;
                }
                if let Err(code) = self.ingest(w, &bytes) {
                    self.failure = Some(code);
                    self.live = None;
                    self.batch = Vec::new();
                }
                true
            }
            SessionCmd::Flush => {
                if let Some(code) = self.failure {
                    w.send_failed(code);
                } else {
                    w.send(&ServerMessage::Flushed {
                        session: w.id,
                        received_bytes: self.received,
                        records: self.decoder.decoded(),
                    });
                }
                true
            }
            SessionCmd::SnapshotHistogram => {
                if let Some(code) = self.failure {
                    w.send_failed(code);
                } else {
                    match self.snapshot() {
                        Some(profile) => {
                            rdx_metrics::counter("rdx.server.snapshots").incr();
                            w.send(&ServerMessage::Histogram {
                                session: w.id,
                                profile,
                            });
                        }
                        None => w.send_error(
                            ErrorCode::NotReady,
                            "no complete trace header received yet",
                        ),
                    }
                }
                true
            }
            SessionCmd::Aggregate(reply) => {
                let result = if let Some(code) = self.failure {
                    Err(code)
                } else {
                    self.snapshot().ok_or(ErrorCode::NotReady)
                };
                // A send error means the connection thread stopped
                // waiting (it aborted the aggregate); nothing to do.
                let _ = reply.send(result);
                true
            }
            SessionCmd::SnapshotMetrics => {
                if let Some(code) = self.failure {
                    w.send_failed(code);
                } else {
                    w.send(&ServerMessage::Metrics {
                        session: w.id,
                        received_bytes: self.received,
                        records: self.decoder.decoded(),
                        registry_json: rdx_metrics::snapshot().to_json(),
                    });
                }
                true
            }
            SessionCmd::Close => {
                let live = self.live.take().filter(|_| self.decoder.header_complete());
                let (clean, profile) = match live {
                    Some(live) if self.failure.is_none() => (
                        self.decoder.finish().is_ok(),
                        ProfileSnapshot::from_profile(&live.finish()),
                    ),
                    _ => (false, ProfileSnapshot::default()),
                };
                w.send(&ServerMessage::SessionClosed {
                    session: w.id,
                    clean,
                    profile,
                });
                false
            }
        }
    }

    /// Decodes a chunk into the live profile, one bounded batch at a
    /// time. Returns the failure class on budget overflow or corruption
    /// (the error frame is sent here, with the trace-level detail).
    fn ingest(&mut self, w: &SessionWorker, bytes: &[u8]) -> Result<(), ErrorCode> {
        let total = self.received.saturating_add(bytes.len() as u64);
        if total > w.max_bytes as u64 {
            w.send_error(
                ErrorCode::Overflow,
                &format!("session exceeds {} streamed bytes", w.max_bytes),
            );
            return Err(ErrorCode::Overflow);
        }
        rdx_metrics::counter("rdx.server.chunk_bytes").add(bytes.len() as u64);
        self.received = total;
        let capacity =
            usize::try_from(w.opts.chunk_capacity).map_or(MAX_BATCH, |c| c.min(MAX_BATCH));
        let mut rest = bytes;
        while !rest.is_empty() {
            let used = self
                .decoder
                .decode(rest, &mut self.batch, capacity)
                .map_err(|e| {
                    w.send_trace_error(&e);
                    ErrorCode::MalformedTrace
                })?;
            if let Some(live) = &mut self.live {
                live.feed(&self.batch);
            }
            rest = &rest[used..];
        }
        Ok(())
    }

    /// The profile of the records received so far; `None` until a
    /// complete header has arrived.
    fn snapshot(&self) -> Option<ProfileSnapshot> {
        let live = self
            .live
            .as_ref()
            .filter(|_| self.decoder.header_complete())?;
        Some(ProfileSnapshot::from_profile(&live.snapshot()))
    }
}

impl SessionWorker {
    pub(crate) fn run(self, rx: &Receiver<SessionCmd>) {
        let mut state = SessionState::new(&self.opts);
        while let Ok(cmd) = rx.recv() {
            if !state.handle(&self, cmd) {
                break;
            }
        }
        // Reached on Close and on command-channel disconnect (the
        // connection went away); either way the session is over.
        rdx_metrics::counter("rdx.server.sessions_closed").incr();
    }

    fn send(&self, msg: &ServerMessage) {
        if let Ok(payload) = msg.encode() {
            let _ = self.out.send(payload);
        }
    }

    fn send_error(&self, code: ErrorCode, message: &str) {
        rdx_metrics::counter("rdx.server.errors").incr();
        self.send(&ServerMessage::Error {
            session: self.id,
            code,
            message: message.to_string(),
        });
    }

    fn send_trace_error(&self, e: &TraceError) {
        self.send_error(ErrorCode::MalformedTrace, &e.to_string());
    }

    /// Replies to a command arriving after the session already failed:
    /// the original class, so clients correlate follow-ups with the
    /// first report.
    fn send_failed(&self, code: ErrorCode) {
        self.send_error(code, "session already failed; close it");
    }
}

/// What one [`SessionStepper::step`] produced.
#[derive(Debug)]
pub enum SessionEvent {
    /// A reply frame the connection would have written to the client,
    /// decoded.
    Reply(ServerMessage),
    /// The session terminated (the command was `Close`).
    Closed,
}

/// A session state machine driven one command at a time on the
/// caller's thread — no worker thread, no connection, no clock.
///
/// This is the exact machine [`SessionWorker::run`] loops on its
/// dedicated thread; the deterministic simulator uses the stepper to
/// replay chosen command interleavings (chunk boundaries mid-varint,
/// snapshots after failure, out-of-order close) and assert on the
/// decoded replies.
pub struct SessionStepper {
    worker: SessionWorker,
    state: SessionState,
    rx: Receiver<Bytes>,
    closed: bool,
}

impl SessionStepper {
    /// A stepper for one session. `opts` should already be validated
    /// (see [`SessionOptions::validate`]); `max_bytes` is the session's
    /// streamed-bytes budget.
    #[must_use]
    pub fn new(id: u32, opts: SessionOptions, max_bytes: usize) -> Self {
        // One command emits at most one reply frame and every step
        // drains the queue, so capacity 4 makes sends non-blocking:
        // a single-threaded stepper can never deadlock on its own
        // output.
        let (out, rx) = sync_channel::<Bytes>(4);
        let state = SessionState::new(&opts);
        SessionStepper {
            worker: SessionWorker {
                id,
                opts,
                out,
                max_bytes,
            },
            state,
            rx,
            closed: false,
        }
    }

    /// Applies one command and returns the events it produced, in
    /// order. Commands after `Close` produce nothing (the real worker
    /// is gone by then: its channel is disconnected).
    pub fn step(&mut self, cmd: SessionCmd) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        if self.closed {
            return events;
        }
        if !self.state.handle(&self.worker, cmd) {
            self.closed = true;
        }
        while let Ok(payload) = self.rx.try_recv() {
            // Frames come from ServerMessage::encode, so decode cannot
            // fail; stay panic-free regardless.
            debug_assert!(ServerMessage::decode(payload.clone()).is_ok());
            if let Ok(msg) = ServerMessage::decode(payload) {
                events.push(SessionEvent::Reply(msg));
            }
        }
        if self.closed {
            events.push(SessionEvent::Closed);
        }
        events
    }

    /// True once a `Close` command has been applied.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Trace bytes received so far.
    #[must_use]
    pub fn received_bytes(&self) -> u64 {
        self.state.received
    }

    /// Declared records decoded so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.state.decoder.decoded()
    }

    /// The sticky failure class, if the session has failed.
    #[must_use]
    pub fn failure(&self) -> Option<ErrorCode> {
        self.state.failure
    }
}
