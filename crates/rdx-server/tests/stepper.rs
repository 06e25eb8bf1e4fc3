//! The session state machine against its prefix oracle, driven through
//! [`SessionStepper`] (no sockets, no threads).
//!
//! A session decodes chunks on arrival into a live profiler, and a
//! snapshot finishes a clone of that state. Nothing in the machine or
//! the profiler reads the declared trace length, so a snapshot after
//! any byte prefix must equal `profile_rdxt` of that same prefix bit
//! for bit, and the close answer must equal the whole stream's profile
//! — whatever the chunking: 1-byte chunks, cuts inside the header,
//! cuts inside a varint record, and one chunk that spans several
//! decode batches.

use proptest::prelude::*;
use rdx_core::{IngestOptions, RdxRunner, RdxtIngest, RdxtInput};
use rdx_server::protocol::ServerMessage;
use rdx_server::SessionStepper;
use rdx_server::{ErrorCode, Fnv64, ProfileSnapshot, SessionCmd, SessionEvent, SessionOptions};
use rdx_trace::{io, Bytes, Trace};

const MAX_BYTES: usize = 1 << 24;

fn digest(s: &ProfileSnapshot) -> u64 {
    let mut d = Fnv64::new();
    s.fold_into(&mut d);
    d.value()
}

/// `profile_rdxt` of a byte prefix; `None` while the header is short.
fn oracle(opts: &SessionOptions, prefix: &[u8]) -> Option<(ProfileSnapshot, bool)> {
    let input = RdxtInput::from_bytes("oracle", prefix.to_vec()).ok()?;
    let (profile, verdict) = RdxRunner::new(opts.config()).profile_rdxt(input, &IngestOptions);
    Some((ProfileSnapshot::from_profile(&profile), verdict.is_ok()))
}

/// The single reply a command produced.
fn reply(events: Vec<SessionEvent>) -> ServerMessage {
    let mut replies: Vec<ServerMessage> = events
        .into_iter()
        .filter_map(|e| match e {
            SessionEvent::Reply(m) => Some(m),
            SessionEvent::Closed => None,
        })
        .collect();
    assert_eq!(replies.len(), 1, "one reply per command: {replies:?}");
    replies.remove(0)
}

/// Streams `bytes` cut at `cuts`, snapshotting after the chunks marked
/// in `snap_after`; checks every snapshot against the prefix oracle.
/// Returns the close reply's `(clean, profile)`.
fn stream(
    opts: SessionOptions,
    bytes: &[u8],
    cuts: &[usize],
    snap_after: &[bool],
) -> Result<(bool, ProfileSnapshot), String> {
    let mut stepper = SessionStepper::new(1, opts, MAX_BYTES);
    let mut at = 0;
    for (k, &cut) in cuts.iter().chain([&bytes.len()]).enumerate() {
        let cut = cut.clamp(at, bytes.len());
        let chunk = Bytes::from(bytes[at..cut].to_vec());
        at = cut;
        let events = stepper.step(SessionCmd::Chunk(chunk));
        if !events.is_empty() {
            return Err(format!("chunk ending at {at} answered {events:?}"));
        }
        if !snap_after.get(k).copied().unwrap_or(false) {
            continue;
        }
        let want = oracle(&opts, &bytes[..at]);
        match (reply(stepper.step(SessionCmd::SnapshotHistogram)), want) {
            (ServerMessage::Histogram { profile, .. }, Some((want, _))) => {
                if digest(&profile) != digest(&want) || profile.accesses != want.accesses {
                    return Err(format!(
                        "snapshot after {at} bytes: {} accesses vs {}",
                        profile.accesses, want.accesses
                    ));
                }
            }
            (
                ServerMessage::Error {
                    code: ErrorCode::NotReady,
                    ..
                },
                None,
            ) => {}
            (got, want) => {
                return Err(format!(
                    "snapshot after {at} bytes answered {got:?}, oracle {want:?}"
                ))
            }
        }
    }
    match reply(stepper.step(SessionCmd::Close)) {
        ServerMessage::SessionClosed { clean, profile, .. } => Ok((clean, profile)),
        other => Err(format!("close answered {other:?}")),
    }
}

/// A trace whose records span 1- to 6-byte varints, under a name of
/// `name_len` bytes so header cuts land in every field.
fn rdxt(addrs: &[u64], name_len: usize) -> Vec<u8> {
    let name = "n".repeat(name_len);
    io::to_bytes(&Trace::from_addresses(name, addrs.iter().copied())).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn snapshots_equal_profile_rdxt_of_the_same_prefix(
        addrs in prop::collection::vec(
            prop_oneof![0u64..64, 0u64..(1 << 20), 0u64..(1 << 40)],
            0..1500,
        ),
        name_len in 0usize..24,
        cuts in prop::collection::vec(0usize..9000, 0..12),
        snap_after in prop::collection::vec(any::<bool>(), 0..13),
        period in 4u64..120,
    ) {
        let bytes = rdxt(&addrs, name_len);
        let mut cuts = cuts;
        cuts.sort_unstable();
        let opts = SessionOptions { period, ..SessionOptions::default() };
        let result = stream(opts, &bytes, &cuts, &snap_after);
        prop_assert!(result.is_ok(), "{:?}", result);
        let (clean, profile) = result.expect("checked above");
        let (want, _) = oracle(&opts, &bytes).expect("complete header");
        prop_assert!(clean);
        prop_assert_eq!(digest(&profile), digest(&want));
        prop_assert_eq!(profile.accesses, addrs.len() as u64);
    }
}

#[test]
fn one_byte_chunks_with_a_snapshot_after_each() {
    // 40 blocks far apart: multi-byte records that are reused.
    let addrs: Vec<u64> = (0..300u64)
        .map(|i| ((i % 40) * 0x9e37_79b9) % (1 << 36))
        .collect();
    let bytes = rdxt(&addrs, 5);
    let cuts: Vec<usize> = (1..bytes.len()).collect();
    let snap_after = vec![true; bytes.len()];
    let opts = SessionOptions {
        period: 16,
        ..SessionOptions::default()
    };
    let (clean, profile) = stream(opts, &bytes, &cuts, &snap_after).expect("oracle holds");
    assert!(clean);
    assert_eq!(profile.accesses, 300);
}

#[test]
fn one_push_of_several_decode_batches_profiles_like_memory() {
    // 160 000 records in a single push or chunk decode as three batches
    // (`DEFAULT_CHUNK_CAPACITY` = 65 536); at period 64, PMU overflow
    // gaps and armed watchpoints straddle both batch borders.
    let trace = Trace::from_addresses(
        "batches",
        (0..160_000u64).map(|i| (i * 2_654_435_761) % 12_289 * 64),
    );
    let bytes = io::to_bytes(&trace);
    let opts = SessionOptions {
        period: 64,
        ..SessionOptions::default()
    };
    let runner = RdxRunner::new(opts.config());
    let want = digest(&ProfileSnapshot::from_profile(
        &runner.profile(trace.stream()),
    ));
    let check = |what: &str, got: &ProfileSnapshot| {
        assert_eq!(got.accesses, 160_000, "{what}");
        assert_eq!(digest(got), want, "{what}");
    };

    let mut ingest = RdxtIngest::new(&runner);
    ingest.push(&bytes).expect("valid RDXT bytes");
    let snapshot = ingest.snapshot().expect("header arrived");
    check("ingest snapshot", &ProfileSnapshot::from_profile(&snapshot));
    let (profile, verdict) = ingest.finish();
    assert!(verdict.is_ok());
    check("ingest finish", &ProfileSnapshot::from_profile(&profile));

    let mut stepper = SessionStepper::new(1, opts, MAX_BYTES);
    assert!(stepper.step(SessionCmd::Chunk(bytes)).is_empty());
    match reply(stepper.step(SessionCmd::SnapshotHistogram)) {
        ServerMessage::Histogram { profile, .. } => check("session snapshot", &profile),
        other => panic!("snapshot answered {other:?}"),
    }
    match reply(stepper.step(SessionCmd::Close)) {
        ServerMessage::SessionClosed {
            clean: true,
            profile,
            ..
        } => check("session close", &profile),
        other => panic!("close answered {other:?}"),
    }
}

#[test]
fn trailing_bytes_count_nothing_and_close_unclean() {
    let addrs: Vec<u64> = (0..400u64).map(|i| (i % 37) * 64).collect();
    let declared = addrs.len() as u64;
    let mut bytes = rdxt(&addrs, 3);
    // Well-formed records past the declared count, then an overlong
    // varint: none of it is decoded, so none of it is an error until
    // close.
    bytes.extend_from_slice(&[0x02, 0x80, 0x01, 0x7e]);
    bytes.extend_from_slice(&[0x81; 18]);
    bytes.push(0x7f);
    let opts = SessionOptions {
        period: 32,
        ..SessionOptions::default()
    };
    let mut stepper = SessionStepper::new(7, opts, MAX_BYTES);
    for piece in bytes.chunks(97) {
        let events = stepper.step(SessionCmd::Chunk(Bytes::from(piece.to_vec())));
        assert!(events.is_empty(), "no error frame mid-stream: {events:?}");
    }
    match reply(stepper.step(SessionCmd::Flush)) {
        ServerMessage::Flushed {
            received_bytes,
            records,
            ..
        } => {
            assert_eq!(received_bytes, bytes.len() as u64);
            assert_eq!(records, declared);
        }
        other => panic!("flush answered {other:?}"),
    }
    let (want, clean) = oracle(&opts, &bytes).expect("header");
    assert!(!clean, "profile_rdxt reports the trailing data too");
    assert_eq!(want.accesses, declared);
    match reply(stepper.step(SessionCmd::SnapshotHistogram)) {
        ServerMessage::Histogram { profile, .. } => {
            assert_eq!(profile.accesses, declared);
            assert_eq!(digest(&profile), digest(&want));
        }
        other => panic!("snapshot answered {other:?}"),
    }
    match reply(stepper.step(SessionCmd::Close)) {
        ServerMessage::SessionClosed { clean, profile, .. } => {
            assert!(!clean, "trailing data closes unclean");
            assert_eq!(digest(&profile), digest(&want));
        }
        other => panic!("close answered {other:?}"),
    }
}

#[test]
fn a_short_stream_closes_unclean_with_its_prefix_profile() {
    let addrs: Vec<u64> = (0..500u64).map(|i| (i * 8191) % 4096 * 8).collect();
    let bytes = rdxt(&addrs, 4);
    let cut = bytes.len() - 7;
    let opts = SessionOptions::default();
    let (clean, profile) =
        stream(opts, &bytes[..cut], &[40, 41], &[true, true, true]).expect("oracle holds");
    let (want, want_clean) = oracle(&opts, &bytes[..cut]).expect("header");
    assert!(!clean && !want_clean);
    assert_eq!(digest(&profile), digest(&want));
}
