//! The RDX profiler: sample handler, trap handler, replacement policy.

use crate::config::{RdxConfig, ReplacementPolicy};
use memsim::{Hardware, Profiler, Sample, Slot, Trap, Watchpoint};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A completed use–reuse observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompletedPair {
    /// Reuse time in intervening accesses.
    pub reuse_time: u64,
}

/// The profiler state accumulated across PMU samples and debug traps.
///
/// This is the component that would run inside perf-event overflow and
/// SIGTRAP handlers on real hardware: it owns no histogram logic, only the
/// raw observations; [`crate::RdxRunner`] post-processes them into a
/// [`crate::RdxProfile`].
///
/// Cloning is how a live profile answers snapshots: the clone is
/// finished and post-processed while the original keeps running.
#[derive(Debug, Clone)]
pub struct RdxProfiler {
    watch_width: u8,
    replacement: ReplacementPolicy,
    /// Age limit in accesses (0 = no aging).
    max_armed_accesses: u64,
    rng: SmallRng,
    pub(crate) completed: Vec<CompletedPair>,
    /// Durations of watchpoints evicted by the replacement policy.
    pub(crate) evicted: Vec<u64>,
    /// Durations of watchpoints still armed when the run ended.
    pub(crate) end_censored: Vec<u64>,
    /// Samples dropped because the policy was [`ReplacementPolicy::DropNew`]
    /// and no register was free.
    pub(crate) dropped_samples: u64,
    /// Samples skipped because the sampled address was already being
    /// watched (re-arming would double-count the same interval).
    pub(crate) duplicate_samples: u64,
}

impl RdxProfiler {
    /// Creates a profiler for the given configuration.
    #[must_use]
    pub fn new(config: &RdxConfig) -> Self {
        RdxProfiler {
            watch_width: config.watch_width,
            replacement: config.replacement,
            max_armed_accesses: config
                .max_armed_periods
                .saturating_mul(config.machine.sampling.period),
            rng: SmallRng::seed_from_u64(config.machine.seed ^ 0x5244_5850_524f_4631),
            completed: Vec::new(),
            evicted: Vec::new(),
            end_censored: Vec::new(),
            dropped_samples: 0,
            duplicate_samples: 0,
        }
    }

    /// Number of completed use–reuse pairs observed so far.
    #[must_use]
    pub fn completed_pairs(&self) -> usize {
        self.completed.len()
    }

    /// Approximate heap bytes of profiler state (memory-overhead
    /// accounting; the fixed runtime cost lives in the machine cost model).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.completed.capacity() * std::mem::size_of::<CompletedPair>()
            + (self.evicted.capacity() + self.end_censored.capacity()) * std::mem::size_of::<u64>()
    }

    fn evict_victim(&mut self, hw: &mut Hardware) -> Option<Slot> {
        // Runs inside the sample handler whenever the register file is
        // full, so it must not allocate: each policy walks `armed_iter`
        // directly. `min_by_key` returns the *first* minimal element,
        // matching the old collect-then-scan victim on `armed_at` ties,
        // and the RNG is drawn only for `EvictRandom` with a non-empty
        // file — the exact draw schedule of the allocating version.
        match self.replacement {
            ReplacementPolicy::DropNew => None,
            ReplacementPolicy::EvictOldest => hw
                .armed_iter()
                .min_by_key(|&(_, info)| info.armed_at)
                .map(|(slot, _)| slot),
            ReplacementPolicy::EvictRandom => {
                let count = hw.armed_count();
                if count == 0 {
                    return None;
                }
                let k = self.rng.random_range(0..count);
                hw.armed_iter().nth(k).map(|(slot, _)| slot)
            }
        }
    }
}

impl Profiler for RdxProfiler {
    fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware) {
        // Aging: release registers whose watchpoint has been armed beyond
        // the age limit — these are overwhelmingly cold (never-reused)
        // samples that would otherwise clog the register file forever.
        if self.max_armed_accesses > 0 {
            let now = hw.access_count();
            // The register file holds at most 64 slots, so a fixed stack
            // buffer replaces a per-sample heap allocation here.
            let mut expired = [Slot(0); 64];
            let mut expired_len = 0;
            for (slot, info) in hw.armed_iter() {
                if now.saturating_sub(info.accesses_at_arm) > self.max_armed_accesses {
                    expired[expired_len] = slot;
                    expired_len += 1;
                }
            }
            for &slot in &expired[..expired_len] {
                if let Some(info) = hw.disarm(slot) {
                    self.evicted.push(now.saturating_sub(info.accesses_at_arm));
                }
            }
        }
        let wp = Watchpoint::read_write(sample.access.addr, self.watch_width);
        // Never arm two watchpoints on the same range: the second would
        // shadow the first and the pair accounting would double-count.
        if hw
            .armed_iter()
            .any(|(_, info)| info.watchpoint.addr == wp.addr)
        {
            self.duplicate_samples += 1;
            return;
        }
        if hw.armed_count() == hw.register_count() {
            match self.evict_victim(hw) {
                None => {
                    self.dropped_samples += 1;
                    return;
                }
                Some(slot) => {
                    if let Some(info) = hw.disarm(slot) {
                        self.evicted
                            .push(hw.access_count().saturating_sub(info.accesses_at_arm));
                    }
                }
            }
        }
        if hw.arm(wp, sample.access.addr.raw()).is_err() {
            // Defensive: the eviction above guarantees a free slot, so
            // treat a failed arm like a dropped sample instead of dying.
            self.dropped_samples += 1;
        }
    }

    fn on_trap(&mut self, trap: &Trap, _hw: &mut Hardware) {
        // The access counter is read after each access retires, so the
        // number of accesses strictly between sample and reuse is the
        // difference minus the trapping access itself.
        let reuse_time = trap
            .accesses
            .saturating_sub(trap.info.accesses_at_arm)
            .saturating_sub(1);
        self.completed.push(CompletedPair { reuse_time });
    }

    fn on_finish(&mut self, hw: &mut Hardware) {
        let now = hw.access_count();
        let mut armed = [Slot(0); 64];
        let mut armed_len = 0;
        for (slot, _) in hw.armed_iter() {
            armed[armed_len] = slot;
            armed_len += 1;
        }
        for &slot in &armed[..armed_len] {
            if let Some(info) = hw.disarm(slot) {
                self.end_censored
                    .push(now.saturating_sub(info.accesses_at_arm));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::Machine;
    use rdx_trace::Trace;

    fn run(trace: &Trace, config: RdxConfig) -> (RdxProfiler, memsim::RunReport) {
        let mut prof = RdxProfiler::new(&config);
        let report = Machine::new(config.machine).run(trace.stream(), &mut prof);
        (prof, report)
    }

    fn fixed_period(period: u64) -> RdxConfig {
        let mut c = RdxConfig::default().with_period(period);
        c.machine.sampling.jitter = 0;
        c
    }

    #[test]
    fn completes_pairs_on_cyclic_trace() {
        // 64-block cycle: every sampled block is reused 64 accesses later.
        let trace = Trace::from_addresses("cyc", (0..50_000u64).map(|i| (i % 64) * 8));
        let (prof, report) = run(&trace, fixed_period(100));
        assert!(prof.completed_pairs() > 400, "{}", prof.completed_pairs());
        // every completed pair has reuse time exactly 63
        for p in &prof.completed {
            assert_eq!(p.reuse_time, 63);
        }
        assert_eq!(report.ledger.traps as usize, prof.completed.len());
    }

    #[test]
    fn streaming_trace_all_end_censored_or_evicted() {
        // no reuse at all → no traps; samples either end-censored or evicted
        let trace = Trace::from_addresses("str", (0..100_000u64).map(|i| i * 8));
        let (prof, report) = run(&trace, fixed_period(1000));
        assert_eq!(prof.completed_pairs(), 0);
        assert_eq!(report.ledger.traps, 0);
        assert_eq!(prof.end_censored.len(), 4, "4 registers still armed");
        assert_eq!(
            prof.evicted.len() as u64 + 4 + prof.dropped_samples + prof.duplicate_samples,
            report.ledger.samples,
        );
    }

    #[test]
    fn drop_new_policy_never_evicts() {
        let trace = Trace::from_addresses("str", (0..100_000u64).map(|i| i * 8));
        let cfg = fixed_period(1000)
            .with_replacement(ReplacementPolicy::DropNew)
            .with_max_armed_periods(0);
        let (prof, report) = run(&trace, cfg);
        assert!(prof.evicted.is_empty());
        assert_eq!(prof.dropped_samples, report.ledger.samples - 4);
    }

    #[test]
    fn aging_releases_cold_watchpoints() {
        // Streaming trace: without aging, the 4 registers fill and stay
        // stuck; with an age limit of 8 periods they recycle.
        let trace = Trace::from_addresses("str", (0..100_000u64).map(|i| i * 8));
        let cfg = fixed_period(1000)
            .with_replacement(ReplacementPolicy::DropNew)
            .with_max_armed_periods(8);
        let (prof, _) = run(&trace, cfg);
        assert!(
            prof.evicted.len() >= 4 * (100 / 8 - 2),
            "aging must recycle registers, got {} evictions",
            prof.evicted.len()
        );
        for &d in &prof.evicted {
            assert!(d > 8 * 1000, "evicted only beyond the age limit, got {d}");
        }
    }

    #[test]
    fn evict_random_policy_evicts() {
        let trace = Trace::from_addresses("str", (0..100_000u64).map(|i| i * 8));
        let cfg = fixed_period(1000).with_replacement(ReplacementPolicy::EvictRandom);
        let (prof, _) = run(&trace, cfg);
        assert!(!prof.evicted.is_empty());
    }

    #[test]
    fn duplicate_addresses_not_double_armed() {
        // constant address: every sample hits the same watch range
        let trace = Trace::from_addresses("one", std::iter::repeat_n(0x40u64, 50_000));
        let (prof, report) = run(&trace, fixed_period(100));
        assert!(prof.duplicate_samples > 0 || report.ledger.traps > 0);
        // immediate reuse: every completed pair has time 0
        for p in &prof.completed {
            assert_eq!(p.reuse_time, 0);
        }
    }

    #[test]
    fn eviction_durations_reasonable() {
        // streaming + FIFO: a watchpoint survives exactly 4 sampling gaps
        let trace = Trace::from_addresses("str", (0..100_000u64).map(|i| i * 8));
        let (prof, _) = run(
            &trace,
            fixed_period(1000).with_replacement(ReplacementPolicy::EvictOldest),
        );
        for &d in &prof.evicted {
            assert_eq!(d % 1000, 0, "durations are multiples of the fixed period");
            assert_eq!(d, 4000, "FIFO with 4 registers → evicted after 4 gaps");
        }
    }

    #[test]
    fn watch_width_controls_trap_granularity() {
        // accesses alternate between byte 0 and byte 4 of the same 8-byte
        // word; an 8-byte watch traps on both, a 4-byte watch only on the
        // sampled half... alternation: 0,4,0,4
        let addrs: Vec<u64> = (0..40_000u64).map(|i| (i % 2) * 4).collect();
        let trace = Trace::from_addresses("w", addrs);
        let wide = run(&trace, fixed_period(100)).0;
        let narrow = run(&trace, fixed_period(100).with_watch_width(4)).0;
        // wide watch: next access (other half-word) traps → reuse time 0
        assert!(wide.completed.iter().all(|p| p.reuse_time == 0));
        // narrow watch: traps only on the same half → reuse time 1
        assert!(narrow.completed.iter().all(|p| p.reuse_time == 1));
        assert!(!wide.completed.is_empty() && !narrow.completed.is_empty());
    }

    #[test]
    fn memory_accounting() {
        let trace = Trace::from_addresses("m", (0..50_000u64).map(|i| (i % 1000) * 8));
        let (prof, _) = run(&trace, fixed_period(100));
        assert!(prof.memory_bytes() > std::mem::size_of::<RdxProfiler>());
    }
}
