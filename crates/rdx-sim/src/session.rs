//! Virtual scheduling of rdx-server sessions.
//!
//! Drives the production session state machine through
//! [`rdx_server::SessionStepper`]: one command per step on the
//! caller's thread, with the schedule choosing chunk boundaries
//! (including mid-varint and mid-header splits) and where control
//! commands land between them. No sockets, no threads — the same
//! machine the server runs per-session, and the same ingestion loop
//! `profile_rdxt` runs over a file, under schedules a loopback test
//! would only ever sample.
//!
//! Invariants across all schedules:
//!
//! * clean streams: no error reply ever, every `Flushed` echoes the
//!   byte count so far, every histogram snapshot equals `profile_rdxt`
//!   of the same byte prefix (or is `NotReady` while the header is
//!   short), and `Close` reports `clean = true` with the full declared
//!   record count decoded;
//! * overlong-varint streams: the first error reply is
//!   `MalformedTrace`, arrives with the chunk containing the
//!   corruption, and every later command's reply carries the same
//!   sticky failure class;
//! * truncated streams: no error reply (more bytes could still come),
//!   the snapshot and the unclean close both equal
//!   `RdxRunner::profile` of the records the bytes hold;
//! * disorderly streams: snapshots before the header get `NotReady`
//!   (not a crash, not a stale answer), and commands after `Close`
//!   produce nothing.

use crate::fault::{self, InputFault};
use crate::sched::{pick_shared, SharedPicker};
use crate::{shared, SeededPicker, SplitMix64, Violation};
use bytes::Bytes;
use rdx_core::{RdxRunner, RdxtInput};
use rdx_server::protocol::ServerMessage;
use rdx_server::{
    ErrorCode, Fnv64, ProfileSnapshot, SessionCmd, SessionEvent, SessionOptions, SessionStepper,
};
use rdx_trace::{io, AccessStream, Trace, TraceReader};

/// Per-session byte budget for sim sessions — far above any scenario's
/// trace size, so `Overflow` never muddies the invariant under test.
const MAX_BYTES: usize = 1 << 20;

/// A deterministic small trace for session scenarios.
fn session_trace(rng: &mut SplitMix64) -> (Bytes, u64) {
    let len = 20 + rng.below(200) as u64;
    let stride = 8 + rng.below(64) as u64;
    let t = Trace::from_addresses("sess", (0..len).map(|i| (i * stride) % 4096));
    (io::to_bytes(&t), len)
}

/// Splits `bytes` into schedule-chosen chunks (every boundary
/// possible, including size-1 slivers across the header).
fn split_chunks(bytes: &Bytes, picker: &SharedPicker) -> Vec<Bytes> {
    let mut chunks = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        let take = 1 + pick_shared(picker, remaining);
        chunks.push(bytes.slice(at..at + take));
        at += take;
    }
    chunks
}

/// Feeds one chunk and classifies the replies: `Ok(n)` = n error
/// replies seen (0 normally), with their first code.
fn error_replies(events: &[SessionEvent]) -> Vec<ErrorCode> {
    events
        .iter()
        .filter_map(|e| match e {
            SessionEvent::Reply(ServerMessage::Error { code, .. }) => Some(*code),
            _ => None,
        })
        .collect()
}

/// FNV-1a of a snapshot in the registry golden word order.
fn digest(s: &ProfileSnapshot) -> u64 {
    let mut d = Fnv64::new();
    s.fold_into(&mut d);
    d.value()
}

/// Checks a `SnapshotHistogram` reply against `profile_rdxt` of the
/// byte prefix the session had received.
fn check_snapshot(
    events: &[SessionEvent],
    opts: &SessionOptions,
    prefix: Bytes,
) -> Result<(), String> {
    let want = RdxtInput::from_bytes("prefix", prefix).ok().map(|input| {
        let runner = RdxRunner::new(opts.config());
        ProfileSnapshot::from_profile(&runner.profile_rdxt(input, &opts.ingest()).0)
    });
    match (events.first(), want) {
        (Some(SessionEvent::Reply(ServerMessage::Histogram { profile, .. })), Some(want))
            if digest(profile) == digest(&want) && profile.accesses == want.accesses =>
        {
            Ok(())
        }
        (
            Some(SessionEvent::Reply(ServerMessage::Error {
                code: ErrorCode::NotReady,
                ..
            })),
            None,
        ) => Ok(()),
        (got, want) => Err(format!(
            "snapshot answered {got:?}, profile_rdxt of the prefix is {want:?}"
        )),
    }
}

/// Clean-stream invariant under one seeded schedule.
///
/// # Errors
///
/// [`Violation`] with the seed on any divergence.
pub fn run_clean_seeded(seed: u64) -> Result<(), Violation> {
    let mut rng = SplitMix64::new(seed ^ 0x5e55_0000_0000_0003);
    let (bytes, declared) = session_trace(&mut rng);
    let picker = shared(SeededPicker::new(seed));
    // A short period so snapshots of these small traces hold pairs.
    let opts = SessionOptions {
        period: 16,
        ..SessionOptions::default()
    };
    let mut stepper = SessionStepper::new(1, opts, MAX_BYTES);
    let fail = |invariant, detail| Err(Violation::seeded(invariant, seed, detail));

    let mut sent = 0u64;
    for chunk in split_chunks(&bytes, &picker) {
        sent += chunk.len() as u64;
        let events = stepper.step(SessionCmd::Chunk(chunk));
        if !error_replies(&events).is_empty() {
            return fail(
                "session-clean-no-errors",
                format!("error reply on a clean stream after {sent} bytes"),
            );
        }
        // The schedule decides whether a snapshot lands here; it must
        // profile exactly the bytes sent so far.
        if pick_shared(&picker, 4) == 0 {
            let prefix = bytes.slice(..usize::try_from(sent).unwrap_or(usize::MAX));
            let events = stepper.step(SessionCmd::SnapshotHistogram);
            if let Err(detail) = check_snapshot(&events, &opts, prefix) {
                return fail(
                    "session-snapshot-prefix",
                    format!("after {sent} bytes: {detail}"),
                );
            }
        }
        // The schedule decides whether a Flush lands here; its ack
        // must echo exactly the bytes sent so far.
        if pick_shared(&picker, 3) == 0 {
            let events = stepper.step(SessionCmd::Flush);
            match events.first() {
                Some(SessionEvent::Reply(ServerMessage::Flushed { received_bytes, .. }))
                    if *received_bytes == sent => {}
                other => {
                    return fail(
                        "session-flush-echo",
                        format!("after {sent} bytes, Flush answered {other:?}"),
                    );
                }
            }
        }
    }
    // All bytes in: the validator must have seen every declared record.
    let events = stepper.step(SessionCmd::Flush);
    match events.first() {
        Some(SessionEvent::Reply(ServerMessage::Flushed { records, .. }))
            if *records == declared => {}
        other => {
            return fail(
                "session-records-complete",
                format!("final Flush reported {other:?}, want {declared} records"),
            );
        }
    }
    let events = stepper.step(SessionCmd::Close);
    let closed_clean = events.iter().any(|e| {
        matches!(
            e,
            SessionEvent::Reply(ServerMessage::SessionClosed { clean: true, .. })
        )
    });
    if !closed_clean || !stepper.is_closed() {
        return fail(
            "session-clean-close",
            format!("Close on a complete clean stream answered {events:?}"),
        );
    }
    Ok(())
}

/// Corrupt-stream invariants under one seeded chunking: the injected
/// fault is applied to a valid trace and the result streamed into a
/// session. A truncated stream draws no error and describes exactly
/// the records it holds; an overlong varint fails the session, typed
/// and sticky, at the chunk that decides it.
///
/// # Errors
///
/// [`Violation`] with the seed on any divergence.
pub fn run_faulted_seeded(seed: u64, input_fault: InputFault) -> Result<(), Violation> {
    let mut rng = SplitMix64::new(seed ^ 0xc0c0_0000_0000_0004);
    let (clean_bytes, _) = session_trace(&mut rng);
    let cut = 1 + rng.below(clean_bytes.len().saturating_sub(21).max(1));
    let bytes = fault::apply(input_fault, &clean_bytes, cut);
    let picker = shared(SeededPicker::new(seed));
    match input_fault {
        InputFault::TruncateTail => run_truncated(seed, &bytes, &picker),
        InputFault::OverlongVarint => run_overlong(seed, &bytes, &picker),
    }
}

/// The oracle for a corrupt stream: `RdxRunner::profile` of the
/// records a whole-buffer [`TraceReader`] decodes before it stops.
fn prefix_oracle(bytes: &Bytes, opts: &SessionOptions) -> Option<ProfileSnapshot> {
    let mut reader = TraceReader::new(bytes.clone()).ok()?;
    let mut prefix = Trace::new("prefix");
    while let Some(a) = reader.next_access() {
        prefix.push(a);
    }
    let profile = RdxRunner::new(opts.config()).profile(prefix.stream());
    Some(ProfileSnapshot::from_profile(&profile))
}

/// A tail cut off a stream: more bytes could still arrive, so no chunk
/// draws an error. The snapshot, the record count and the unclean
/// close all describe exactly the records the bytes hold.
fn run_truncated(seed: u64, bytes: &Bytes, picker: &SharedPicker) -> Result<(), Violation> {
    let opts = SessionOptions {
        period: 16,
        ..SessionOptions::default()
    };
    let mut stepper = SessionStepper::new(1, opts, MAX_BYTES);
    let fail = |invariant, detail| Err(Violation::seeded(invariant, seed, detail));
    let Some(want) = prefix_oracle(bytes, &opts) else {
        return fail(
            "session-truncate-header",
            "the cut reached the header".into(),
        );
    };
    for chunk in split_chunks(bytes, picker) {
        let events = stepper.step(SessionCmd::Chunk(chunk));
        if !error_replies(&events).is_empty() {
            return fail(
                "session-truncate-no-error",
                format!("a truncated stream drew {events:?} mid-stream"),
            );
        }
    }
    let events = stepper.step(SessionCmd::Flush);
    match events.first() {
        Some(SessionEvent::Reply(ServerMessage::Flushed { records, .. }))
            if *records == want.accesses => {}
        other => {
            return fail(
                "session-truncate-records",
                format!("Flush answered {other:?}, want {} records", want.accesses),
            );
        }
    }
    let events = stepper.step(SessionCmd::SnapshotHistogram);
    match events.first() {
        Some(SessionEvent::Reply(ServerMessage::Histogram { profile, .. }))
            if digest(profile) == digest(&want) && profile.accesses == want.accesses => {}
        other => {
            return fail(
                "session-truncate-prefix",
                format!("snapshot answered {other:?}, the decoded prefix profiles to {want:?}"),
            );
        }
    }
    let events = stepper.step(SessionCmd::Close);
    match events.first() {
        Some(SessionEvent::Reply(ServerMessage::SessionClosed {
            clean: false,
            profile,
            ..
        })) if digest(profile) == digest(&want) => Ok(()),
        other => fail(
            "session-truncate-close",
            format!("Close answered {other:?}, want clean=false with the prefix profile"),
        ),
    }
}

/// An overlong varint spliced into the record stream: reported as
/// `MalformedTrace` with the chunk that contains it, sticky for every
/// later command, and `clean = false` at close.
fn run_overlong(seed: u64, bytes: &Bytes, picker: &SharedPicker) -> Result<(), Violation> {
    let mut stepper = SessionStepper::new(1, SessionOptions::default(), MAX_BYTES);
    let fail = |invariant, detail| Err(Violation::seeded(invariant, seed, detail));

    // The spliced record is the last 20 bytes; its 19th byte is the
    // first that cannot fit, so that byte's chunk must draw the error.
    let decisive = bytes.len() - 2;
    let mut first_error: Option<ErrorCode> = None;
    let mut sent = 0;
    for chunk in split_chunks(bytes, picker) {
        let range = sent..sent + chunk.len();
        sent = range.end;
        let events = stepper.step(SessionCmd::Chunk(chunk));
        let errors = error_replies(&events);
        if first_error.is_none() && !errors.is_empty() && !range.contains(&decisive) {
            return fail(
                "session-corrupt-at-its-chunk",
                format!("error on bytes {range:?}, the corruption is decided at byte {decisive}"),
            );
        }
        for code in errors {
            if first_error.is_none() {
                first_error = Some(code);
            }
        }
    }
    if first_error != Some(ErrorCode::MalformedTrace) {
        return fail(
            "session-corrupt-typed-error",
            format!("first error on a corrupt stream was {first_error:?}, want MalformedTrace"),
        );
    }
    if stepper.failure() != Some(ErrorCode::MalformedTrace) {
        return fail(
            "session-corrupt-sticky",
            format!("failure not sticky: {:?}", stepper.failure()),
        );
    }
    // Every post-failure command must answer with the original class.
    for cmd in [SessionCmd::Flush, SessionCmd::SnapshotHistogram] {
        let events = stepper.step(cmd);
        if error_replies(&events) != vec![ErrorCode::MalformedTrace] {
            return fail(
                "session-corrupt-sticky",
                format!("post-failure command answered {events:?}"),
            );
        }
    }
    let events = stepper.step(SessionCmd::Close);
    let closed_dirty = events.iter().any(|e| {
        matches!(
            e,
            SessionEvent::Reply(ServerMessage::SessionClosed { clean: false, .. })
        )
    });
    if !closed_dirty {
        return fail(
            "session-corrupt-close",
            format!("Close after corruption answered {events:?}, want clean=false"),
        );
    }
    Ok(())
}

/// Disorderly-command invariant under one seeded schedule: snapshots
/// before the header, then a normal stream, then commands after close.
///
/// # Errors
///
/// [`Violation`] with the seed on any divergence.
pub fn run_disorder_seeded(seed: u64) -> Result<(), Violation> {
    let mut rng = SplitMix64::new(seed ^ 0xd150_0000_0000_0005);
    let (bytes, _) = session_trace(&mut rng);
    let picker = shared(SeededPicker::new(seed));
    let mut stepper = SessionStepper::new(1, SessionOptions::default(), MAX_BYTES);
    let fail = |invariant, detail| Err(Violation::seeded(invariant, seed, detail));

    // A histogram snapshot before any bytes: NotReady, not a crash and
    // not a fabricated empty profile.
    let events = stepper.step(SessionCmd::SnapshotHistogram);
    if error_replies(&events) != vec![ErrorCode::NotReady] {
        return fail(
            "session-snapshot-before-header",
            format!("pre-header snapshot answered {events:?}, want NotReady"),
        );
    }
    // NotReady is advisory, not sticky: the stream must still work.
    for chunk in split_chunks(&bytes, &picker) {
        let events = stepper.step(SessionCmd::Chunk(chunk));
        if !error_replies(&events).is_empty() {
            return fail(
                "session-notready-not-sticky",
                "valid chunk rejected after a premature snapshot".to_string(),
            );
        }
    }
    let events = stepper.step(SessionCmd::Close);
    if !stepper.is_closed() {
        return fail(
            "session-close",
            format!("Close did not close the session ({events:?})"),
        );
    }
    // Out-of-order: commands after Close fall into the void, exactly
    // like sends on the real worker's disconnected channel.
    for cmd in [SessionCmd::Flush, SessionCmd::SnapshotMetrics] {
        let events = stepper.step(cmd);
        if !events.is_empty() {
            return fail(
                "session-after-close",
                format!("command after Close produced {events:?}"),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_schedules_hold() {
        for seed in 0..24 {
            run_clean_seeded(seed).expect("clean session invariants");
        }
    }

    #[test]
    fn corrupt_schedules_hold() {
        for seed in 0..24 {
            for input_fault in [InputFault::TruncateTail, InputFault::OverlongVarint] {
                run_faulted_seeded(seed, input_fault).expect("corrupt session invariants");
            }
        }
    }

    #[test]
    fn disorder_schedules_hold() {
        for seed in 0..24 {
            run_disorder_seeded(seed).expect("disorder session invariants");
        }
    }
}
