//! Property tests for the machine model: sampling statistics and
//! watchpoint semantics under arbitrary traces.

use memsim::{
    Hardware, Machine, MachineConfig, Profiler, Sample, SamplingConfig, Trap, Watchpoint,
};
use proptest::prelude::*;
use rdx_trace::Trace;

#[derive(Default)]
struct Recorder {
    samples: Vec<u64>,
    traps: Vec<(u64, u64)>, // (armed_at, trap_index)
}

impl Profiler for Recorder {
    fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware) {
        self.samples.push(sample.index);
        if hw.armed_count() < hw.register_count() {
            let _ = hw.arm(Watchpoint::read_write(sample.access.addr, 8), 0);
        }
    }
    fn on_trap(&mut self, trap: &Trap, _hw: &mut Hardware) {
        self.traps.push((trap.info.armed_at, trap.index));
    }
}

/// Records complete event payloads (counters included) and keeps the
/// registers churning with FIFO eviction, so any divergence between the
/// machine's two execution paths — event position, slot choice, counter
/// snapshot, arm metadata — shows up as an inequality.
#[derive(Default)]
struct EventLog {
    samples: Vec<Sample>,
    traps: Vec<Trap>,
    finish_armed: Vec<(u64, u64)>, // (armed_at, tag) of still-armed regs
}

impl Profiler for EventLog {
    fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware) {
        self.samples.push(*sample);
        if hw.armed_count() == hw.register_count() {
            let oldest = hw
                .armed_iter()
                .min_by_key(|(_, info)| info.armed_at)
                .map(|(slot, _)| slot)
                .expect("registers are full");
            hw.disarm(oldest);
        }
        hw.arm(Watchpoint::read_write(sample.access.addr, 8), sample.index)
            .expect("a slot is free");
    }

    fn on_trap(&mut self, trap: &Trap, _hw: &mut Hardware) {
        self.traps.push(*trap);
    }

    fn on_finish(&mut self, hw: &mut Hardware) {
        self.finish_armed = hw
            .armed_iter()
            .map(|(_, info)| (info.armed_at, info.tag))
            .collect();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sample count matches n/period within jitter tolerance, samples are
    /// strictly increasing, and every trap fires strictly after its arm.
    #[test]
    fn machine_invariants(
        addrs in prop::collection::vec(0u64..512, 100..2000),
        period in 10u64..200,
        seed in any::<u64>(),
    ) {
        let trace = Trace::from_addresses("p", addrs.iter().map(|a| a * 8));
        let config = MachineConfig {
            sampling: SamplingConfig::precise(period),
            seed,
            ..MachineConfig::default()
        };
        let mut rec = Recorder::default();
        let report = Machine::new(config).run(trace.stream(), &mut rec);
        prop_assert_eq!(report.accesses, addrs.len() as u64);
        // strictly increasing sample indices
        for w in rec.samples.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // sampling rate within loose bounds
        let expected = addrs.len() as u64 / period;
        if expected >= 5 {
            let got = rec.samples.len() as u64;
            prop_assert!(got >= expected / 2 && got <= expected * 2,
                "expected ≈{} samples, got {}", expected, got);
        }
        // traps strictly after arming, and counted in the ledger
        for &(armed_at, trap_index) in &rec.traps {
            prop_assert!(trap_index > armed_at);
        }
        prop_assert_eq!(report.ledger.traps as usize, rec.traps.len());
    }

    /// The chunk-scanning fast path delivers the exact event stream of
    /// the per-access slow loop: same samples (with counters), same traps
    /// (slot, arm metadata, counters), same ledger — across arbitrary
    /// load/store mixes, periods, jitter, register counts, and chunk
    /// capacities small enough that reuse pairs straddle chunk borders.
    #[test]
    fn fast_path_equivalent_to_slow_loop(
        accesses in prop::collection::vec((0u64..256, any::<bool>()), 200..2500),
        period in 5u64..200,
        jittered in any::<bool>(),
        registers in 1usize..6,
        chunk_capacity in 3usize..160,
        seed in any::<u64>(),
    ) {
        let trace: Trace = accesses.iter().map(|&(a, s)| (a * 8, s)).collect();
        let config = MachineConfig {
            registers,
            sampling: SamplingConfig {
                period,
                jitter: if jittered { period / 10 } else { 0 },
            },
            seed,
            ..MachineConfig::default()
        };
        let machine = Machine::new(config);

        // Slow loop: every access single-steps.
        let mut slow = EventLog::default();
        let mut stepped = machine.start_stepped();
        stepped.feed(trace.accesses(), &mut slow);
        let slow_report = stepped.finish(&mut slow);
        // Fast path over the whole trace as one zero-copy chunk.
        let mut fast = EventLog::default();
        let fast_report = machine.run(trace.stream(), &mut fast);
        // Fast path over small chunks: overflow gaps and armed
        // watchpoint lifetimes straddle chunk boundaries.
        let mut chunked = EventLog::default();
        let mut run = machine.start();
        let all = trace.accesses();
        for start in (0..all.len()).step_by(chunk_capacity) {
            run.feed(all.slice(start..all.len().min(start + chunk_capacity)), &mut chunked);
        }
        let chunked_report = run.finish(&mut chunked);

        prop_assert_eq!(&slow.samples, &fast.samples);
        prop_assert_eq!(&slow.traps, &fast.traps);
        prop_assert_eq!(&slow.finish_armed, &fast.finish_armed);
        prop_assert_eq!(&slow_report, &fast_report);
        prop_assert_eq!(&slow.samples, &chunked.samples);
        prop_assert_eq!(&slow.traps, &chunked.traps);
        prop_assert_eq!(&slow.finish_armed, &chunked.finish_armed);
        prop_assert_eq!(&slow_report, &chunked_report);
    }

    /// The machine is a pure function of (trace, config).
    #[test]
    fn determinism(
        addrs in prop::collection::vec(0u64..128, 100..800),
        seed in any::<u64>(),
    ) {
        let trace = Trace::from_addresses("d", addrs.iter().map(|a| a * 8));
        let config = MachineConfig::default().with_sampling_period(50).with_seed(seed);
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        Machine::new(config).run(trace.stream(), &mut a);
        Machine::new(config).run(trace.stream(), &mut b);
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(a.traps, b.traps);
    }
}
