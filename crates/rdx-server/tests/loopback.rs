//! Loopback integration: a real server on 127.0.0.1, real clients, and
//! the workspace's golden digest.
//!
//! The registry digest pinned by `fastpath_equivalence.rs` and
//! `ingest_golden.rs` must be
//! reproduced a fourth way here: through the framed network protocol,
//! with the trace bytes chopped into arbitrary chunks and interleaved
//! across concurrent sessions. Any divergence between the server-side
//! profiling path and the local one shows up as a digest mismatch.

use rdx_server::{
    Client, ClientError, ErrorCode, Fnv64, Listen, Server, ServerOptions, SessionOptions,
};
use rdx_trace::{io, Trace};
use rdx_workloads::{suite, Params};
use std::time::{Duration, Instant};

/// Must match `GOLDEN` in the three local-path golden tests.
const GOLDEN: u64 = 0x17ea_4869_2cad_4966;

fn golden_params() -> Params {
    Params::default().with_accesses(60_000).with_elements(800)
}

fn golden_options() -> SessionOptions {
    SessionOptions {
        period: 512,
        seed: 7,
        ..SessionOptions::default()
    }
}

/// RDXT bytes for every suite workload, in suite order.
fn suite_rdxt() -> Vec<(&'static str, Vec<u8>)> {
    let params = golden_params();
    suite()
        .iter()
        .map(|w| {
            let trace = Trace::from_stream(w.name, w.stream(&params));
            (w.name, io::to_bytes(&trace).to_vec())
        })
        .collect()
}

fn start_server(opts: ServerOptions) -> rdx_server::ServerHandle {
    Server::bind(&Listen::parse("127.0.0.1:0"), opts).expect("bind loopback")
}

#[test]
fn interleaved_sessions_reproduce_golden_digest() {
    let handle = start_server(ServerOptions::default());
    let mut client = Client::connect(handle.listen()).expect("connect");
    let traces = suite_rdxt();

    // Open one session per workload up front, then interleave odd-sized
    // chunks across all of them round-robin, so the server must keep
    // every partial stream (including split headers and split varints)
    // straight concurrently.
    let sessions: Vec<u32> = traces
        .iter()
        .map(|(name, _)| client.open_session(name, golden_options()).expect("open"))
        .collect();
    const CHUNK: usize = 10_007; // odd size: chunks split records mid-byte
    let mut offsets = vec![0usize; traces.len()];
    loop {
        let mut sent_any = false;
        for (i, (_, bytes)) in traces.iter().enumerate() {
            if offsets[i] >= bytes.len() {
                continue;
            }
            let end = (offsets[i] + CHUNK).min(bytes.len());
            client
                .send_chunk(sessions[i], &bytes[offsets[i]..end])
                .expect("chunk");
            offsets[i] = end;
            sent_any = true;
        }
        if !sent_any {
            break;
        }
    }

    // Flush acks must account for every byte.
    for (i, (_, bytes)) in traces.iter().enumerate() {
        let ack = client.flush(sessions[i]).expect("flush");
        assert_eq!(ack.received_bytes, bytes.len() as u64);
    }

    // Close in suite order, folding final profiles into the digest.
    let mut digest = Fnv64::new();
    for (i, (name, _)) in traces.iter().enumerate() {
        let ack = client.close_session(sessions[i]).expect("close");
        assert!(ack.clean, "{name}: expected a clean decode");
        ack.profile.fold_into(&mut digest);
    }
    assert_eq!(
        digest.value(),
        GOLDEN,
        "server-side registry digest {:#018x} deviates from the local \
         golden baseline — the framed path must be bit-identical",
        digest.value()
    );
}

#[test]
fn concurrent_connections_each_reproduce_golden_digest() {
    let handle = start_server(ServerOptions::default());
    let listen = handle.listen().clone();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let listen = listen.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&listen).expect("connect");
                let mut digest = Fnv64::new();
                for (name, bytes) in suite_rdxt() {
                    let session = client.open_session(name, golden_options()).expect("open");
                    for chunk in bytes.chunks(64 << 10) {
                        client.send_chunk(session, chunk).expect("chunk");
                    }
                    let ack = client.close_session(session).expect("close");
                    assert!(ack.clean, "{name}: expected a clean decode");
                    ack.profile.fold_into(&mut digest);
                }
                digest.value()
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().expect("worker"), GOLDEN);
    }
}

/// A small request written behind a burst of 64 KiB chunks must not
/// wait for the server's delayed ACK (~40 ms on Linux) under Nagle's
/// algorithm. The timed `Flush` names a second, idle session, so it
/// carries the transport alone and not the burst's ingest, which costs
/// several ms per chunk in an unoptimized build; the burst's own
/// session is flushed untimed before the next burst.
///
/// Without `TCP_NODELAY` only about half the round trips wait (~41 ms
/// each; whether one does depends on how the server's reads of the
/// burst race its delayed-ACK timer), so the median can land on either
/// side. The upper quartile reads ~42 ms in every such run, and under
/// 1 ms with `TCP_NODELAY`; holding it under 20 ms also holds the
/// median there.
#[test]
fn flush_round_trips_do_not_wait_on_delayed_acks() {
    const BURST: usize = 4 << 16;
    let handle = start_server(ServerOptions::default());
    let mut client = Client::connect(handle.listen()).expect("connect");
    let idle = client.open_session("idle", golden_options()).expect("open");
    let mut round_trips = Vec::new();
    for (name, bytes) in suite_rdxt() {
        let session = client.open_session(name, golden_options()).expect("open");
        for burst in bytes.chunks(BURST) {
            for chunk in burst.chunks(64 << 10) {
                client.send_chunk(session, chunk).expect("chunk");
            }
            let start = Instant::now();
            client.flush(idle).expect("flush idle session");
            round_trips.push(start.elapsed());
            client.flush(session).expect("flush");
        }
        assert!(client.close_session(session).expect("close").clean);
    }
    assert!(round_trips.len() >= 8, "{} flushes", round_trips.len());
    round_trips.sort_unstable();
    let upper_quartile = round_trips[round_trips.len() * 3 / 4];
    assert!(
        upper_quartile < Duration::from_millis(20),
        "upper-quartile flush round trip {upper_quartile:?} over {} bursts \
         (median {:?}): small frames are waiting behind unacknowledged \
         chunk bytes",
        round_trips.len(),
        round_trips[round_trips.len() / 2]
    );
}

#[test]
fn live_snapshots_converge_to_the_final_profile() {
    let handle = start_server(ServerOptions::default());
    let mut client = Client::connect(handle.listen()).expect("connect");
    let (name, bytes) = suite_rdxt().into_iter().next().expect("suite nonempty");
    let session = client.open_session(name, golden_options()).expect("open");

    // Before any bytes: a snapshot is NotReady, not a crash.
    let err = client
        .snapshot_histogram(session)
        .expect_err("no header yet");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::NotReady,
            ..
        }
    ));

    let mid = bytes.len() / 2;
    client.send_chunk(session, &bytes[..mid]).expect("chunk");
    let partial = client.snapshot_histogram(session).expect("mid snapshot");
    client.send_chunk(session, &bytes[mid..]).expect("chunk");
    let full = client.snapshot_histogram(session).expect("full snapshot");
    assert!(partial.accesses < full.accesses);

    let metrics = client.snapshot_metrics(session).expect("metrics");
    assert_eq!(metrics.received_bytes, bytes.len() as u64);
    assert!(metrics.registry_json.starts_with('{'));

    let ack = client.close_session(session).expect("close");
    assert!(ack.clean);
    assert_eq!(ack.profile, full);
}

#[test]
fn fleet_aggregate_equals_client_side_fold_of_snapshots() {
    use rdx_server::ProfileSnapshot;

    let handle = start_server(ServerOptions::default());
    let mut client = Client::connect(handle.listen()).expect("connect");
    let traces = suite_rdxt();

    let sessions: Vec<u32> = traces
        .iter()
        .map(|(name, _)| client.open_session(name, golden_options()).expect("open"))
        .collect();
    for (i, (_, bytes)) in traces.iter().enumerate() {
        for chunk in bytes.chunks(48 << 10) {
            client.send_chunk(sessions[i], chunk).expect("chunk");
        }
    }

    // The contract: the server's bounded-memory fold equals a client
    // folding per-session snapshots in request order — bit for bit.
    let mut expected = ProfileSnapshot::default();
    for &s in &sessions {
        expected.merge(&client.snapshot_histogram(s).expect("snapshot"));
    }
    let reply = client.snapshot_aggregate(&sessions).expect("aggregate");
    assert_eq!(reply.sessions, sessions.len() as u32);
    assert_eq!(reply.profile, expected);

    // Counters are additive across the fleet.
    assert_eq!(
        reply.profile.accesses,
        traces.len() as u64 * golden_params().accesses
    );

    // A permuted request folds in *its* order: exact counters agree,
    // while KM-corrected fractional weights may differ in final ULPs
    // (float addition is not order-independent) — which is exactly why
    // the reply contract pins the fold to request order.
    let mut reversed: Vec<u32> = sessions.clone();
    reversed.reverse();
    let back = client.snapshot_aggregate(&reversed).expect("aggregate");
    assert_eq!(back.sessions, reply.sessions);
    assert_eq!(back.profile.accesses, reply.profile.accesses);
    assert_eq!(back.profile.samples, reply.profile.samples);
    assert_eq!(back.profile.traps, reply.profile.traps);

    // Error scoping: unknown and absent sessions abort the aggregate
    // with a typed error, and the connection stays usable.
    let err = client
        .snapshot_aggregate(&[sessions[0], 999])
        .expect_err("unknown session must abort the aggregate");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::UnknownSession,
            session: 999,
            ..
        }
    ));
    let err = client
        .snapshot_aggregate(&[])
        .expect_err("empty aggregate is a protocol error");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::Protocol,
            ..
        }
    ));

    // A session with no trace header yet is NotReady, named by id.
    let fresh = client
        .open_session("fresh", golden_options())
        .expect("open");
    let err = client
        .snapshot_aggregate(&[sessions[0], fresh])
        .expect_err("headerless session must abort the aggregate");
    match err {
        ClientError::Server { code, session, .. } => {
            assert_eq!(code, ErrorCode::NotReady);
            assert_eq!(session, fresh);
        }
        other => panic!("expected a typed server error, got {other}"),
    }

    // Still healthy: sessions close cleanly after all that.
    for &s in &sessions {
        assert!(client.close_session(s).expect("close").clean);
    }
}

#[test]
fn malformed_stream_fails_its_session_but_not_its_neighbors() {
    let handle = start_server(ServerOptions::default());
    let mut client = Client::connect(handle.listen()).expect("connect");
    let (name, bytes) = suite_rdxt().into_iter().next().expect("suite nonempty");

    let good = client.open_session(name, golden_options()).expect("open");
    let bad = client
        .open_session("corrupt", golden_options())
        .expect("open");

    // The bad session gets a valid prefix, then an overlong varint (19
    // continuation bytes can't fit in a u128) — exactly the corruption
    // class the decoder hardening rejects.
    let split = bytes.len() / 3;
    client.send_chunk(bad, &bytes[..split]).expect("chunk");
    client.send_chunk(bad, &[0xFF; 19]).expect("corrupt chunk");
    let err = client
        .flush(bad)
        .expect_err("flush must surface corruption");
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::MalformedTrace,
                ..
            }
        ),
        "{err}"
    );

    // The sibling session on the same connection is untouched.
    for chunk in bytes.chunks(32 << 10) {
        client.send_chunk(good, chunk).expect("chunk");
    }
    let ack = client.close_session(good).expect("close");
    assert!(ack.clean, "sibling session must decode cleanly");

    // The failed session still closes, reporting unclean.
    let ack = client.close_session(bad).expect("close");
    assert!(!ack.clean);
}

#[test]
fn typed_errors_keep_the_connection_usable() {
    let handle = start_server(ServerOptions::default());
    let mut client = Client::connect(handle.listen()).expect("connect");

    // Unknown session id.
    let err = client.flush(42).expect_err("no such session");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::UnknownSession,
            ..
        }
    ));

    // Invalid options, rejected by the shared limits checks.
    let err = client
        .open_session(
            "zero-period",
            SessionOptions {
                period: 0,
                ..SessionOptions::default()
            },
        )
        .expect_err("period 0 must be rejected");
    match &err {
        ClientError::Server {
            code: ErrorCode::InvalidOptions,
            message,
            ..
        } => assert!(message.contains("period"), "{message}"),
        other => panic!("expected InvalidOptions, got {other}"),
    }

    let err = client
        .open_session(
            "too-many-registers",
            SessionOptions {
                registers: 7,
                ..SessionOptions::default()
            },
        )
        .expect_err("7 registers must be rejected");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::InvalidOptions,
            ..
        }
    ));

    // After all that, the connection still opens and serves sessions.
    let (name, bytes) = suite_rdxt().into_iter().next().expect("suite nonempty");
    let session = client.open_session(name, golden_options()).expect("open");
    client.send_chunk(session, &bytes).expect("chunk");
    let ack = client.close_session(session).expect("close");
    assert!(ack.clean);
}

#[test]
fn session_byte_budget_is_enforced() {
    let handle = start_server(ServerOptions::default().with_max_session_bytes(1 << 10));
    let mut client = Client::connect(handle.listen()).expect("connect");
    let (name, bytes) = suite_rdxt().into_iter().next().expect("suite nonempty");
    let session = client.open_session(name, golden_options()).expect("open");
    client.send_chunk(session, &bytes).expect("chunk");
    let err = client.flush(session).expect_err("budget exceeded");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::Overflow,
            ..
        }
    ));
}

#[test]
fn disconnecting_mid_stream_leaves_the_server_usable() {
    let handle = start_server(ServerOptions::default());
    let (name, bytes) = suite_rdxt().into_iter().next().expect("suite nonempty");

    // First client opens sessions, streams half a trace, and vanishes
    // without closing anything.
    {
        let mut doomed = Client::connect(handle.listen()).expect("connect");
        let session = doomed.open_session(name, golden_options()).expect("open");
        doomed
            .send_chunk(session, &bytes[..bytes.len() / 2])
            .expect("chunk");
        // Drop: socket closes with a session open and bytes in flight.
    }

    // The server must still serve a full, clean session afterwards.
    let mut client = Client::connect(handle.listen()).expect("connect");
    let session = client.open_session(name, golden_options()).expect("open");
    client.send_chunk(session, &bytes).expect("chunk");
    let ack = client.close_session(session).expect("close");
    assert!(ack.clean);
}

#[test]
fn version_mismatch_is_refused_with_a_typed_error() {
    use rdx_server::protocol::{ClientMessage, ServerMessage};
    use rdx_trace::frame::{read_frame, write_frame};
    use std::io::Write;
    use std::net::TcpStream;

    let handle = start_server(ServerOptions::default());
    let addr = handle.listen().to_string();
    // Protocol-1 and protocol-2 clients (whose `OpenSession` carried
    // decode-ahead fields and a decode-batch capacity) and a client
    // from the future are all refused.
    for version in [1, 2, 999] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let hello = ClientMessage::Hello { version }.encode().expect("encode");
        write_frame(&mut stream, &hello).expect("write");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream)
            .expect("read")
            .expect("a reply frame");
        let msg = ServerMessage::decode(reply).expect("decode");
        assert!(
            matches!(
                msg,
                ServerMessage::Error {
                    code: ErrorCode::Version,
                    ..
                }
            ),
            "version {version}: {msg:?}"
        );
        // The server hangs up after refusing; the next read is clean EOF.
        assert!(read_frame(&mut stream).expect("read").is_none());
    }
}

#[test]
fn junk_first_frame_gets_a_protocol_error() {
    use rdx_server::protocol::ServerMessage;
    use rdx_trace::frame::{read_frame, write_frame};
    use std::io::Write;
    use std::net::TcpStream;

    let handle = start_server(ServerOptions::default());
    let addr = handle.listen().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut stream, &[0xDE, 0xAD, 0xBE, 0xEF]).expect("write");
    stream.flush().expect("flush");
    // The payload doesn't decode as any message: the server reports a
    // protocol error (or just hangs up, which is also a valid refusal
    // for a pre-handshake probe).
    if let Some(reply) = read_frame(&mut stream).expect("read") {
        let msg = ServerMessage::decode(reply).expect("decode");
        assert!(matches!(
            msg,
            ServerMessage::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
    }

    // And the listener is still healthy.
    let mut client = Client::connect(handle.listen()).expect("connect");
    let session = client
        .open_session("after-junk", golden_options())
        .expect("open");
    let ack = client.close_session(session).expect("close");
    assert!(!ack.clean); // no bytes: not clean, but fully functional
}

#[test]
fn max_connections_budget_exits_naturally() {
    let mut handle = start_server(ServerOptions::default().with_max_connections(2));
    let (name, bytes) = suite_rdxt().into_iter().next().expect("suite nonempty");
    for _ in 0..2 {
        let mut client = Client::connect(handle.listen()).expect("connect");
        let session = client.open_session(name, golden_options()).expect("open");
        client.send_chunk(session, &bytes).expect("chunk");
        let ack = client.close_session(session).expect("close");
        assert!(ack.clean);
    }
    // Both budgeted connections served and closed: the accept loop
    // exits on its own and wait() returns.
    handle.wait();
}
