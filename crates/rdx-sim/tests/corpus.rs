//! Fixed-seed regression corpus: one pinned scenario per bug the
//! simulator was built to catch, plus determinism pins.
//!
//! Every entry names a specific historical failure mode and replays it
//! under fixed seeds forever. When one of these fails, the seed in the
//! violation message reproduces the exact schedule — `rdx sim --seed N`
//! from the command line, or the same call here under a debugger.

use rdx_sim::fault::InputFault;
use rdx_sim::{batch, session, FaultSet, SimConfig};

/// Corrupt input must surface, under any chunking, as the profile of
/// the decodable prefix (truncation) or a typed error at the chunk
/// holding the corruption (overlong varint).
#[test]
fn corrupt_input_delivers_prefix_then_typed_error() {
    for seed in [7, 11, 42, 1009, 65537] {
        session::run_faulted_seeded(seed, InputFault::TruncateTail).expect("truncate invariant");
        session::run_faulted_seeded(seed, InputFault::OverlongVarint).expect("overlong invariant");
    }
}

/// Bug: `profile_batch`'s result channel was unbounded, hiding any
/// backpressure deadlock the bounded fix could have introduced. The sim
/// proves the bound (capacity = worker count) quiesces under *every*
/// schedule of the small scenario and under seeded large ones.
#[test]
fn bounded_batch_queue_never_deadlocks() {
    let n = batch::explore_exhaustive_small(8192).expect("every schedule quiesces");
    assert!(n > 10, "schedule tree collapsed to {n} schedules");
    for seed in 0..32 {
        batch::run_seeded(seed, true).expect("seeded batch schedule quiesces");
    }
}

/// Panic propagation is task-ordered: the lowest-indexed failed task's
/// payload is the one re-raised, under every claim interleaving.
#[test]
fn batch_panic_propagation_is_task_ordered() {
    for seed in [3, 17, 2024, 9000] {
        batch::run_seeded(seed, true).expect("task-order propagation");
    }
}

/// Session invariants: clean streams ack byte counts exactly; corrupt
/// streams fail typed, sticky, and dirty-close; disorderly command
/// streams get NotReady (not a crash) and silence after Close.
#[test]
fn session_failure_ordering_is_pinned() {
    for seed in [0, 9, 77, 512, 4096] {
        session::run_clean_seeded(seed).expect("clean session");
        session::run_faulted_seeded(seed, InputFault::OverlongVarint).expect("corrupt session");
        session::run_disorder_seeded(seed).expect("disorder session");
    }
}

/// Determinism pin: the same seed must replay to the same outcome —
/// byte-for-byte equal violations or byte-for-byte equal success.
#[test]
fn same_seed_replays_identically() {
    let cfg = SimConfig {
        seed: 1234,
        schedules: 8,
        faults: FaultSet::all(),
    };
    let a = rdx_sim::run_suite(&cfg).expect("suite passes");
    let b = rdx_sim::run_suite(&cfg).expect("suite passes");
    assert_eq!(a.scenarios, b.scenarios);
    assert_eq!(a.golden_digest, b.golden_digest);
}

/// Smoke: the full suite at a small schedule count, exactly what the CI
/// sim leg runs before the randomized sweep.
#[test]
fn run_suite_smoke() {
    let report = rdx_sim::run_suite(&SimConfig {
        seed: 0,
        schedules: 4,
        faults: FaultSet::all(),
    })
    .expect("full suite passes");
    assert_eq!(report.golden_digest, rdx_sim::REGISTRY_GOLDEN_DIGEST);
    assert!(report.total_schedules() > 0);
}
