//! The daemon: accept loop, per-connection framing, and session
//! multiplexing.
//!
//! Threading model (no async runtime — the workspace's vendored deps
//! are std-only):
//!
//! ```text
//! accept thread ──► connection thread (reads frames, owns sessions)
//!                     ├─► writer thread   (drains bounded reply queue)
//!                     ├─► session worker  (bounded command queue)
//!                     └─► session worker  ...
//! ```
//!
//! Every channel is bounded (`sync_channel`), so backpressure reaches
//! the client's socket instead of growing queues: a slow profiler
//! blocks the connection reader on the session queue, which stops
//! frame reads, which fills the client's TCP window.
//!
//! Teardown is cooperative and leak-free: dropping a session's command
//! sender ends its worker; dropping the writer's sender ends the writer
//! after it drains. A writer whose socket died keeps *draining* its
//! queue (discarding payloads) so workers never block against a dead
//! connection.
//!
//! Accepted TCP streams have `TCP_NODELAY` set (`net.rs`). Nagle's
//! algorithm held a client's small requests behind unacknowledged chunk
//! bytes until the server's delayed ACK (~40 ms on Linux); the client
//! sets the option on its own socket, and the daemon sets it on every
//! accepted one because it cannot set it on a third-party client's.

use crate::net::{AnyListener, AnyStream, Listen};
use crate::protocol::{
    ClientMessage, ErrorCode, ProfileSnapshot, ServerMessage, SessionOptions, PROTOCOL_VERSION,
};
use bytes::Bytes;
use rdx_trace::frame::{read_frame, write_frame, FrameError};
use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crate::session::{SessionCmd, SessionWorker};

/// Tuning knobs for a server instance. The defaults suit a loopback
/// profiling service; the CLI exposes the operationally interesting
/// ones.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Per-session cap on streamed trace bytes (default 256 MiB). The
    /// session decodes bytes as they arrive and does not keep them; the
    /// cap bounds how much one session may send.
    pub max_session_bytes: usize,
    /// Command-queue depth per session (chunks in flight before the
    /// connection reader blocks).
    pub session_queue: usize,
    /// Reply-queue depth per connection.
    pub writer_queue: usize,
    /// Serve exactly this many connections, then stop accepting and
    /// exit once they finish. `None` serves forever. Lets tests and CI
    /// run a server with a natural exit instead of a kill.
    pub max_connections: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_session_bytes: 256 << 20,
            session_queue: 8,
            writer_queue: 64,
            max_connections: None,
        }
    }
}

impl ServerOptions {
    /// Sets the per-session streamed-bytes cap.
    #[must_use]
    pub fn with_max_session_bytes(mut self, bytes: usize) -> Self {
        self.max_session_bytes = bytes;
        self
    }

    /// Sets a connection budget after which the server exits.
    #[must_use]
    pub fn with_max_connections(mut self, conns: usize) -> Self {
        self.max_connections = Some(conns);
        self
    }
}

/// A running server: the accept loop and everything under it.
pub struct Server;

impl Server {
    /// Binds the listener and starts the accept loop on a background
    /// thread. The returned handle reports the resolved address (TCP
    /// port 0 resolves to a real port) and controls shutdown.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(listen: &Listen, opts: ServerOptions) -> io::Result<ServerHandle> {
        let (listener, resolved) = AnyListener::bind(listen)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let opts = Arc::new(opts);
            thread::Builder::new()
                .name("rdx-server-accept".to_string())
                .spawn(move || accept_loop(&listener, &opts, &shutdown))?
        };
        Ok(ServerHandle {
            resolved,
            shutdown,
            accept: Some(accept),
        })
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    resolved: Listen,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved listen spec — connect clients here.
    #[must_use]
    pub fn listen(&self) -> &Listen {
        &self.resolved
    }

    /// Blocks until the accept loop exits on its own (only happens
    /// with a `max_connections` budget).
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Asks the accept loop to stop and joins it. In-flight
    /// connections finish their teardown before the loop returns.
    pub fn shutdown(&mut self) {
        if let Some(h) = self.accept.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // The accept call is blocking; poke it with a throwaway
            // connection so it observes the flag.
            if let Ok(mut s) = AnyStream::connect(&self.resolved) {
                let _ = s.flush();
            }
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &AnyListener, opts: &Arc<ServerOptions>, shutdown: &Arc<AtomicBool>) {
    let mut served = 0usize;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if let Some(budget) = opts.max_connections {
            if served >= budget {
                break;
            }
        }
        let stream = match listener.accept() {
            Ok(s) => s,
            // Transient accept errors (e.g. a client that vanished
            // between SYN and accept) shouldn't kill the server.
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the stream was the shutdown poke (or too late)
        }
        served += 1;
        rdx_metrics::counter("rdx.server.connections").incr();
        let opts = Arc::clone(opts);
        let spawned = thread::Builder::new()
            .name(format!("rdx-server-conn-{served}"))
            .spawn(move || connection(stream, &opts));
        if let Ok(h) = spawned {
            conns.push(h);
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Runs one connection: splits the stream, starts the writer, serves
/// frames until EOF/error, then tears everything down in dependency
/// order (sessions, then writer).
fn connection(mut stream: AnyStream, opts: &ServerOptions) {
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            // Without a write half there can be no writer thread.
            // Don't vanish silently (the client would hang awaiting a
            // reply that can never come): count it and tell the client
            // directly, best effort.
            rdx_metrics::counter("rdx.server.conn_failures").incr();
            best_effort_error(&mut stream, "cannot split connection stream");
            return;
        }
    };
    let (tx, rx) = sync_channel::<Bytes>(opts.writer_queue);
    let writer_dead = Arc::new(AtomicBool::new(false));
    let dead = Arc::clone(&writer_dead);
    let writer = thread::Builder::new()
        .name("rdx-server-writer".to_string())
        .spawn(move || writer_loop(write_half, &rx, &dead));
    let Ok(writer) = writer else {
        rdx_metrics::counter("rdx.server.conn_failures").incr();
        best_effort_error(&mut stream, "cannot start connection writer");
        return;
    };
    serve_connection(stream, &tx, opts, &writer_dead);
    drop(tx); // writer drains remaining replies, then exits
    let _ = writer.join();
}

/// Last-resort reply when the connection's writer plumbing could not
/// be set up: one `Internal` error frame, written synchronously to the
/// socket. Best effort — the socket may be just as broken.
fn best_effort_error(stream: &mut AnyStream, message: &str) {
    let msg = ServerMessage::Error {
        session: 0,
        code: ErrorCode::Internal,
        message: message.to_string(),
    };
    if let Ok(payload) = msg.encode() {
        let mut w = BufWriter::new(stream);
        if write_frame(&mut w, &payload).is_ok() {
            let _ = w.flush();
        }
    }
}

/// Drains encoded reply frames to the socket. Batches: after a
/// blocking recv, opportunistically drains whatever else is queued
/// before flushing, so bursts of replies cost one flush.
///
/// On a write error the socket is considered dead but the loop keeps
/// receiving (and discarding) until the senders hang up — otherwise
/// session workers would block forever against a full queue nobody
/// drains. Death is published through the shared flag so the
/// connection reader stops feeding sessions whose answers can never
/// reach the client (see [`serve_connection`]).
fn writer_loop(stream: AnyStream, rx: &Receiver<Bytes>, dead: &AtomicBool) {
    let mut w = BufWriter::new(stream);
    while let Ok(payload) = rx.recv() {
        if !dead.load(Ordering::Relaxed) && write_frame(&mut w, &payload).is_err() {
            mark_writer_dead(dead);
        }
        while let Ok(extra) = rx.try_recv() {
            if !dead.load(Ordering::Relaxed) && write_frame(&mut w, &extra).is_err() {
                mark_writer_dead(dead);
            }
        }
        if !dead.load(Ordering::Relaxed) && w.flush().is_err() {
            mark_writer_dead(dead);
        }
    }
}

/// Flags the writer's socket as dead, counting the transition once.
fn mark_writer_dead(dead: &AtomicBool) {
    if !dead.swap(true, Ordering::Relaxed) {
        rdx_metrics::counter("rdx.server.writer_dead").incr();
    }
}

/// A live session as the connection thread sees it.
struct SessionHandle {
    tx: SyncSender<SessionCmd>,
    join: JoinHandle<()>,
}

/// Reads and dispatches client frames until the client goes away,
/// breaks the protocol, or the writer reports its socket dead (no
/// reply can reach the client anymore, so sessions must not keep
/// profiling into the void). Always leaves with every session worker
/// joined.
fn serve_connection(
    stream: AnyStream,
    out: &SyncSender<Bytes>,
    opts: &ServerOptions,
    writer_dead: &AtomicBool,
) {
    let mut r = BufReader::new(stream);
    let mut sessions: BTreeMap<u32, SessionHandle> = BTreeMap::new();
    let mut next_id: u32 = 1;

    // Handshake: the first frame must be a version-matched Hello.
    match next_message(&mut r) {
        Ok(Some(ClientMessage::Hello { version })) if version == PROTOCOL_VERSION => {
            send(
                out,
                &ServerMessage::HelloAck {
                    version: PROTOCOL_VERSION,
                },
            );
        }
        Ok(Some(ClientMessage::Hello { version })) => {
            send_error(
                out,
                0,
                ErrorCode::Version,
                &format!(
                    "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                ),
            );
            return;
        }
        Ok(Some(_)) => {
            send_error(out, 0, ErrorCode::Protocol, "first message must be Hello");
            return;
        }
        Ok(None) | Err(_) => return, // silent connect-and-leave probe
    }

    loop {
        if writer_dead.load(Ordering::Relaxed) {
            break; // writer's socket died: tear down, don't profile on
        }
        let msg = match next_message(&mut r) {
            Ok(Some(m)) => m,
            Ok(None) => break, // clean EOF
            Err(FrameError::Oversized(len)) => {
                send_error(
                    out,
                    0,
                    ErrorCode::Protocol,
                    &format!("frame of {len} bytes exceeds the protocol bound"),
                );
                break;
            }
            Err(FrameError::Malformed) => {
                send_error(out, 0, ErrorCode::Protocol, "malformed frame payload");
                break;
            }
            Err(_) => break, // truncated frame or socket error: client is gone
        };
        match msg {
            ClientMessage::Hello { .. } => {
                send_error(out, 0, ErrorCode::Protocol, "duplicate Hello");
                break;
            }
            ClientMessage::OpenSession { opts: sopts, .. } => {
                if let Err(e) = sopts.validate() {
                    send_error(out, 0, ErrorCode::InvalidOptions, &e.to_string());
                    continue;
                }
                match open_session(&mut next_id, sopts, out, opts) {
                    Some((id, handle)) => {
                        sessions.insert(id, handle);
                        rdx_metrics::counter("rdx.server.sessions_opened").incr();
                        send(out, &ServerMessage::SessionOpened { session: id });
                    }
                    None => {
                        send_error(out, 0, ErrorCode::Protocol, "cannot start session worker");
                    }
                }
            }
            ClientMessage::TraceChunk { session, bytes } => {
                dispatch(&mut sessions, out, session, SessionCmd::Chunk(bytes));
            }
            ClientMessage::Flush { session } => {
                dispatch(&mut sessions, out, session, SessionCmd::Flush);
            }
            ClientMessage::SnapshotHistogram { session } => {
                dispatch(&mut sessions, out, session, SessionCmd::SnapshotHistogram);
            }
            ClientMessage::SnapshotMetrics { session } => {
                dispatch(&mut sessions, out, session, SessionCmd::SnapshotMetrics);
            }
            ClientMessage::SnapshotAggregate { sessions: ids } => {
                aggregate(&mut sessions, out, &ids);
            }
            ClientMessage::CloseSession { session } => {
                match sessions.remove(&session) {
                    Some(handle) => {
                        // The Close reply (final profile) comes from the
                        // worker itself, ordered after every queued chunk.
                        let _ = handle.tx.send(SessionCmd::Close);
                        drop(handle.tx);
                        let _ = handle.join.join();
                    }
                    None => {
                        send_error(out, session, ErrorCode::UnknownSession, "no such session");
                    }
                }
            }
        }
    }

    // Disconnect teardown: hang up on every worker, then join. Workers
    // see the channel close and exit without replying.
    for (_, handle) in std::mem::take(&mut sessions) {
        drop(handle.tx);
        let _ = handle.join.join();
    }
}

/// Reads one frame and decodes it. `Ok(None)` is clean EOF.
fn next_message(r: &mut BufReader<AnyStream>) -> Result<Option<ClientMessage>, FrameError> {
    match read_frame(r)? {
        Some(payload) => {
            rdx_metrics::counter("rdx.server.frames").incr();
            ClientMessage::decode(payload).map(Some)
        }
        None => Ok(None),
    }
}

/// Spawns a session worker; `None` if the thread can't start.
fn open_session(
    next_id: &mut u32,
    sopts: SessionOptions,
    out: &SyncSender<Bytes>,
    server: &ServerOptions,
) -> Option<(u32, SessionHandle)> {
    let id = *next_id;
    *next_id = next_id.wrapping_add(1).max(1);
    let (tx, rx) = sync_channel::<SessionCmd>(server.session_queue);
    let worker = SessionWorker {
        id,
        opts: sopts,
        out: out.clone(),
        max_bytes: server.max_session_bytes,
    };
    let join = thread::Builder::new()
        .name(format!("rdx-server-session-{id}"))
        .spawn(move || worker.run(&rx))
        .ok()?;
    Some((id, SessionHandle { tx, join }))
}

/// Routes a command to its session, with a typed error for unknown ids
/// and teardown for workers that died mid-stream.
fn dispatch(
    sessions: &mut BTreeMap<u32, SessionHandle>,
    out: &SyncSender<Bytes>,
    session: u32,
    cmd: SessionCmd,
) {
    let Some(handle) = sessions.get(&session) else {
        send_error(out, session, ErrorCode::UnknownSession, "no such session");
        return;
    };
    // Blocking send: a full queue is backpressure, not an error. A
    // disconnected queue means the worker died; reap it.
    if handle.tx.send(cmd).is_err() {
        if let Some(handle) = sessions.remove(&session) {
            let _ = handle.join.join();
        }
        send_error(
            out,
            session,
            ErrorCode::UnknownSession,
            "session worker exited",
        );
    }
}

/// Answers a `SnapshotAggregate`: snapshots each listed session and
/// folds the answers into one fleet profile, **in request order**, so
/// the reply is reproducible by a client folding per-session snapshots
/// the same way. Memory is bounded by one accumulator plus one
/// in-flight snapshot regardless of how many sessions are listed.
///
/// All-or-nothing: an unknown, failed, or not-ready session aborts the
/// aggregate with a typed error naming it — a partial fleet profile
/// would be silently wrong.
fn aggregate(sessions: &mut BTreeMap<u32, SessionHandle>, out: &SyncSender<Bytes>, ids: &[u32]) {
    if ids.is_empty() {
        send_error(
            out,
            0,
            ErrorCode::Protocol,
            "aggregate needs at least one session",
        );
        return;
    }
    let mut fleet = ProfileSnapshot::default();
    for &id in ids {
        let Some(handle) = sessions.get(&id) else {
            send_error(out, id, ErrorCode::UnknownSession, "no such session");
            return;
        };
        let (reply_tx, reply_rx) = sync_channel::<Result<ProfileSnapshot, ErrorCode>>(1);
        if handle.tx.send(SessionCmd::Aggregate(reply_tx)).is_err() {
            if let Some(handle) = sessions.remove(&id) {
                let _ = handle.join.join();
            }
            send_error(out, id, ErrorCode::UnknownSession, "session worker exited");
            return;
        }
        // The snapshot is ordered after every chunk already queued for
        // the session — an aggregate sees everything sent before it.
        match reply_rx.recv() {
            Ok(Ok(snapshot)) => fleet.merge(&snapshot),
            Ok(Err(code)) => {
                send_error(out, id, code, "session cannot join the aggregate");
                return;
            }
            Err(_) => {
                send_error(out, id, ErrorCode::Internal, "session died mid-aggregate");
                return;
            }
        }
    }
    rdx_metrics::counter("rdx.server.aggregates").incr();
    send(
        out,
        &ServerMessage::Aggregate {
            sessions: ids.len() as u32,
            profile: fleet,
        },
    );
}

fn send(out: &SyncSender<Bytes>, msg: &ServerMessage) {
    if let Ok(payload) = msg.encode() {
        let _ = out.send(payload);
    }
}

fn send_error(out: &SyncSender<Bytes>, session: u32, code: ErrorCode, message: &str) {
    rdx_metrics::counter("rdx.server.errors").incr();
    send(
        out,
        &ServerMessage::Error {
            session,
            code,
            message: message.to_string(),
        },
    );
}
