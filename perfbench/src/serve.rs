//! One client session against the loopback server: open, stream an
//! RDXT trace in fixed-size chunks with a snapshot at a fixed byte
//! cadence, flush, close.

use crate::gate::{self, Failure};
use crate::spans::Tracer;
use rdx_server::{Client, SessionOptions};

/// Bytes per `TraceChunk` frame: the default of `rdx client`
/// (`--chunk-bytes`), so the frames match the traffic it sends.
pub const CHUNK_BYTES: usize = 64 << 10;

/// A snapshot is taken each time this many more bytes have been sent.
pub const SNAPSHOT_EVERY: usize = 1 << 20;

/// What one session measured.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// `(bytes sent so far, round-trip seconds, digest)` per snapshot.
    pub snapshots: Vec<(usize, f64, u64)>,
    /// Seconds in `send_chunk` and `flush`.
    pub send_s: f64,
    /// Seconds in snapshot round trips.
    pub snapshot_s: f64,
    /// Seconds in `close_session`.
    pub close_s: f64,
    /// Frames sent.
    pub frames: u64,
    /// VmRSS after the last chunk minus after the first, when asked.
    pub rss_growth_mb: f64,
    /// Accesses in the final profile.
    pub accesses: u64,
}

/// Streams `bytes` through one session and checks the final profile's
/// digest against `want`. With `measure_rss`, flushes after the first
/// chunk so both VmRSS readings see the server's ingest.
///
/// # Errors
///
/// A [`Failure`] for a server error, a short flush, an unclean close or
/// a digest mismatch.
#[allow(clippy::too_many_arguments)]
pub fn stream_session(
    client: &mut Client,
    name: &str,
    bytes: &[u8],
    opts: SessionOptions,
    want: u64,
    measure_rss: bool,
    tracer: &mut Tracer,
    op: u64,
) -> Result<SessionStats, Failure> {
    let server = |e: rdx_server::ClientError| Failure::Server(format!("{name}: {e}"));
    let root = tracer.open("op.session", None, op);
    let mut st = SessionStats::default();
    let (session, _) = tracer.span("server.open_session", root, op, || {
        client.open_session(name, opts)
    });
    let session = session.map_err(server)?;
    st.frames += 1;
    let mut sent = 0usize;
    let mut next_snapshot = SNAPSHOT_EVERY;
    let mut rss_first = 0.0;
    for (k, chunk) in bytes.chunks(CHUNK_BYTES).enumerate() {
        let (r, secs) = tracer.span("server.send_chunk", root, op, || {
            client.send_chunk(session, chunk)
        });
        r.map_err(server)?;
        st.send_s += secs;
        st.frames += 1;
        sent += chunk.len();
        if measure_rss && k == 0 {
            let (r, secs) = tracer.span("server.flush", root, op, || client.flush(session));
            r.map_err(server)?;
            st.send_s += secs;
            st.frames += 1;
            rss_first = crate::stats::rss_mb();
        }
        if sent >= next_snapshot && sent < bytes.len() {
            let (snap, secs) = tracer.span("server.snapshot_histogram", root, op, || {
                client.snapshot_histogram(session)
            });
            let snap = snap.map_err(server)?;
            st.snapshot_s += secs;
            st.frames += 1;
            st.snapshots
                .push((sent, secs, gate::snapshot_digest(&snap)));
            next_snapshot += SNAPSHOT_EVERY;
        }
    }
    let (ack, secs) = tracer.span("server.flush", root, op, || client.flush(session));
    let ack = ack.map_err(server)?;
    st.send_s += secs;
    st.frames += 1;
    if ack.received_bytes != bytes.len() as u64 {
        return Err(Failure::Server(format!(
            "{name}: server holds {} of {} bytes",
            ack.received_bytes,
            bytes.len()
        )));
    }
    if measure_rss {
        st.rss_growth_mb = crate::stats::rss_mb() - rss_first;
    }
    let (close, secs) = tracer.span("server.close_session", root, op, || {
        client.close_session(session)
    });
    let close = close.map_err(server)?;
    st.close_s = secs;
    st.frames += 1;
    tracer.close(root);
    if !close.clean {
        return Err(Failure::Decode(format!("{name}: session closed unclean")));
    }
    gate::expect(name, want, gate::snapshot_digest(&close.profile))?;
    st.accesses = close.profile.accesses;
    Ok(st)
}
