//! Session-stepper reproduction of the registry golden digest.
//!
//! The repo pins one FNV-1a digest over the reference workload suite's
//! profiles — `fastpath_equivalence.rs` from in-memory traces and
//! generator streams through the chunk fast path,
//! `ingest_golden.rs` through `profile_rdxt`. This module is the fourth
//! execution shape: each workload's RDXT bytes streamed into the
//! production session state machine ([`SessionStepper`]) in
//! seed-chosen chunks, digesting the profile each `Close` returns.
//! Chunk boundaries land anywhere — inside the header, inside a varint
//! — so `rdx sim` proves end to end that how a stream is cut never
//! leaks into results.

use crate::{SplitMix64, Violation};
use rdx_server::protocol::ServerMessage;
use rdx_server::{Fnv64, SessionCmd, SessionEvent, SessionOptions, SessionStepper};
use rdx_trace::{io, Trace};
use rdx_workloads::{suite, Params};

/// Decode batch for the golden sessions: odd and small, so batch
/// borders straddle PMU overflow gaps and armed-watchpoint lifetimes
/// (matching the adversarial capacity the golden ingest test uses).
const CAPACITY: u64 = 777;
/// Largest seeded chunk in bytes.
const MAX_CHUNK: usize = 8192;

/// Streams the reference suite through one session per workload, in
/// chunks of 1 to 8192 bytes drawn from `seed`, and digests the
/// registry exactly like the golden tests do.
///
/// # Errors
///
/// [`Violation`] if any session does not close cleanly — the digest
/// would be meaningless on a partial profile.
pub fn registry_digest_chunked(seed: u64) -> Result<u64, Violation> {
    let params = Params::default().with_accesses(60_000).with_elements(800);
    let opts = SessionOptions {
        period: 512,
        seed: 7,
        chunk_capacity: CAPACITY,
        ..SessionOptions::default()
    };
    let mut digest = Fnv64::new();
    for (i, w) in suite().iter().enumerate() {
        let raw = io::to_bytes(&Trace::from_stream(w.name, w.stream(&params)));
        // Each workload gets its own chunking derived from the run
        // seed, so one `rdx sim` invocation samples distinct cuts per
        // workload.
        let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        let mut stepper = SessionStepper::new(1, opts, usize::MAX);
        let mut at = 0;
        while at < raw.len() {
            let end = raw.len().min(at + 1 + rng.below(MAX_CHUNK));
            stepper.step(SessionCmd::Chunk(raw.slice(at..end)));
            at = end;
        }
        let closed = stepper
            .step(SessionCmd::Close)
            .into_iter()
            .find_map(|e| match e {
                SessionEvent::Reply(ServerMessage::SessionClosed {
                    clean: true,
                    profile,
                    ..
                }) => Some(profile),
                _ => None,
            });
        let Some(profile) = closed else {
            return Err(Violation::seeded(
                "golden-clean-close",
                seed,
                format!("{}: session did not close cleanly", w.name),
            ));
        };
        profile.fold_into(&mut digest);
    }
    Ok(digest.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::REGISTRY_GOLDEN_DIGEST;

    #[test]
    fn session_chunking_reproduces_registry_golden_digest() {
        let got = registry_digest_chunked(0).expect("clean sessions");
        assert_eq!(
            got, REGISTRY_GOLDEN_DIGEST,
            "session registry digest {got:#018x} deviates from the pinned \
             baseline — chunk boundaries must never change results",
        );
    }

    #[test]
    fn digest_is_schedule_independent() {
        let a = registry_digest_chunked(1).expect("clean sessions");
        let b = registry_digest_chunked(0xdead_beef).expect("clean sessions");
        assert_eq!(a, b, "two different chunkings produced different digests");
        assert_eq!(a, REGISTRY_GOLDEN_DIGEST);
    }
}
