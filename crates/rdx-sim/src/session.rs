//! Virtual scheduling of rdx-server sessions.
//!
//! Drives the production session state machine through
//! [`rdx_server::SessionStepper`]: one command per step on the
//! caller's thread, with the schedule choosing chunk boundaries
//! (including mid-varint and mid-header splits) and where control
//! commands land between them. No sockets, no threads — the same
//! machine the server runs per-session, under schedules a loopback
//! test would only ever sample.
//!
//! Invariants across all schedules:
//!
//! * clean streams: no error reply ever, every `Flushed` echoes the
//!   byte count so far, every histogram snapshot equals `profile_rdxt`
//!   of the same byte prefix (or is `NotReady` while the header is
//!   short), and `Close` reports `clean = true` with the full declared
//!   record count decoded;
//! * corrupt streams: the first error reply is `MalformedTrace`,
//!   arrives with the chunk containing the corruption, and every later
//!   command's reply carries the same sticky failure class;
//! * disorderly streams: snapshots before the header get `NotReady`
//!   (not a crash, not a stale answer), and commands after `Close`
//!   produce nothing.

use crate::fault;
use crate::sched::{pick_shared, SharedPicker};
use crate::{shared, SeededPicker, SplitMix64, Violation};
use bytes::Bytes;
use rdx_core::{RdxRunner, RdxtInput};
use rdx_server::protocol::ServerMessage;
use rdx_server::{
    ErrorCode, Fnv64, ProfileSnapshot, SessionCmd, SessionEvent, SessionOptions, SessionStepper,
};
use rdx_trace::{io, Trace};

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

/// Corrupt-stream invariant under one seeded schedule: an overlong
/// varint spliced into the record stream must be reported as
/// `MalformedTrace` with the chunk that contains it, stick for every
/// later command, and force `clean = false` at close.
///
/// # Errors
///
/// [`Violation`] with the seed on any divergence.
pub fn run_corrupt_seeded(seed: u64) -> Result<(), Violation> {
    let mut rng = SplitMix64::new(seed ^ 0xc0c0_0000_0000_0004);
    let (clean_bytes, _) = session_trace(&mut rng);
    let bytes = fault::overlong_varint(&clean_bytes);
    let picker = shared(SeededPicker::new(seed));
    let mut stepper = SessionStepper::new(1, SessionOptions::default(), MAX_BYTES);
    let fail = |invariant, detail| Err(Violation::seeded(invariant, seed, detail));

    let mut first_error: Option<ErrorCode> = None;
    for chunk in split_chunks(&bytes, &picker) {
        let events = stepper.step(SessionCmd::Chunk(chunk));
        for code in error_replies(&events) {
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
            run_corrupt_seeded(seed).expect("corrupt session invariants");
        }
    }

    #[test]
    fn disorder_schedules_hold() {
        for seed in 0..24 {
            run_disorder_seeded(seed).expect("disorder session invariants");
        }
    }
}
