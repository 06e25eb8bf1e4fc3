//! A live profile's snapshot after any prefix equals a whole-stream
//! profile of that prefix, and its final profile equals the whole
//! stream's — whatever slices the accesses arrived in, and however
//! many snapshots were taken on the way.
//!
//! Every `RdxProfile` field is compared bit for bit except
//! `profiler_bytes`: `RdxProfiler::memory_bytes` counts `Vec`
//! capacity, which depends on the push history and is not preserved by
//! the clone a snapshot finishes.

use memsim::PmuEvent;
use proptest::prelude::*;
use rdx_core::{RdxConfig, RdxProfile, RdxRunner, ReplacementPolicy};
use rdx_trace::{Access, AccessBuf, AccessSlice, Trace};

/// Field-by-field bit equality, `profiler_bytes` aside (see above).
fn same_profile(a: &RdxProfile, b: &RdxProfile) -> bool {
    a.rd == b.rd
        && a.rt == b.rt
        && a.granularity == b.granularity
        && a.accesses == b.accesses
        && a.samples == b.samples
        && a.traps == b.traps
        && a.evictions == b.evictions
        && a.end_censored == b.end_censored
        && a.dropped_samples == b.dropped_samples
        && a.duplicate_samples == b.duplicate_samples
        && a.m_estimate.to_bits() == b.m_estimate.to_bits()
        && a.time_overhead.to_bits() == b.time_overhead.to_bits()
        && a.cost == b.cost
}

fn whole(config: RdxConfig, accesses: AccessSlice<'_>) -> RdxProfile {
    let trace = Trace::from_addresses("prefix", accesses.addrs().iter().copied());
    RdxRunner::new(config).profile(trace.stream())
}

/// Feeds `accesses` in slices cut at `cuts`, checking a snapshot after
/// every slice and the final profile.
fn check(config: RdxConfig, accesses: AccessSlice<'_>, cuts: &[usize]) -> Result<(), String> {
    let mut live = RdxRunner::new(config).start();
    let mut at = 0;
    for &cut in cuts.iter().chain([&accesses.len()]) {
        let cut = cut.clamp(at, accesses.len());
        live.feed(accesses.slice(at..cut));
        at = cut;
        if !same_profile(&live.snapshot(), &whole(config, accesses.slice(..at))) {
            return Err(format!("snapshot after {at} accesses differs"));
        }
    }
    if !same_profile(&live.finish(), &whole(config, accesses)) {
        return Err("final profile differs".to_string());
    }
    Ok(())
}

fn addresses(addrs: &[u64]) -> AccessBuf {
    addrs.iter().map(|&a| Access::load(a * 8)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshots_equal_profiles_of_the_prefix(
        addrs in prop::collection::vec(0u64..300, 0..2500),
        cuts in prop::collection::vec(0usize..2500, 0..8),
        period in 8u64..200,
        registers in 1usize..5,
        seed in any::<u64>(),
        evict_random in any::<bool>(),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        let replacement = if evict_random {
            ReplacementPolicy::EvictRandom
        } else {
            ReplacementPolicy::EvictOldest
        };
        let config = RdxConfig::default()
            .with_period(period)
            .with_registers(registers)
            .with_seed(seed)
            .with_replacement(replacement);
        let result = check(config, addresses(&addrs).as_slice(), &cuts);
        prop_assert!(result.is_ok(), "{:?}", result);
    }
}

#[test]
fn one_access_slices_match() {
    let addrs: Vec<u64> = (0..3000u64).map(|i| (i * 7) % 211).collect();
    let cuts: Vec<usize> = (0..3000).step_by(97).collect();
    let config = RdxConfig::default().with_period(64);
    let accesses = addresses(&addrs);
    let all = accesses.as_slice();
    let mut live = RdxRunner::new(config).start();
    for i in 0..all.len() {
        live.feed(all.slice(i..=i));
        if cuts.contains(&(i + 1)) {
            assert!(same_profile(
                &live.snapshot(),
                &whole(config, all.slice(..=i))
            ));
        }
    }
    assert!(same_profile(&live.finish(), &whole(config, all)));
}

#[test]
fn per_access_sampling_modes_match_too() {
    // Skid and event-filtered sampling take the per-access step, not
    // the chunk fast path; snapshots must hold there as well.
    let addrs: Vec<u64> = (0..4000u64).map(|i| (i * 13) % 389).collect();
    let mut skid = RdxConfig::default().with_period(50);
    skid.machine.sampling.max_skid = 3;
    let mut loads = RdxConfig::default().with_period(40);
    loads.machine.sampling.event = PmuEvent::Loads;
    for config in [skid, loads] {
        check(config, addresses(&addrs).as_slice(), &[1, 999, 1000, 2500])
            .expect("snapshots match");
    }
}
