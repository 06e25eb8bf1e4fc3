//! The machine event loop tying the PMU and debug registers to a profiler.

use crate::cost::{CostLedger, CostModel};
use crate::debug::{ArmError, ArmInfo, DebugRegisterFile, Slot, Watchpoint};
use crate::kernels::{self, KernelChoice, KernelKind};
use crate::pmu::{CounterSnapshot, Pmu, PmuEvent, PmuOutcome, SamplingConfig};
use crate::scan::NeedleSet;
use rdx_trace::{Access, AccessStream};

/// Machine configuration: register count, sampling mode, cost model, seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of hardware debug registers (x86: 4).
    pub registers: usize,
    /// PMU sampling configuration.
    pub sampling: SamplingConfig,
    /// Cycle/byte cost model for overhead accounting.
    pub cost: CostModel,
    /// Seed for the PMU's period randomization.
    pub seed: u64,
    /// Which scan kernel the fast path uses (resolved once per run).
    pub scan_kernel: KernelChoice,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            registers: 4,
            sampling: SamplingConfig::default(),
            cost: CostModel::default(),
            seed: 0x005D_1CE5,
            scan_kernel: KernelChoice::Auto,
        }
    }
}

impl MachineConfig {
    /// Sets the mean sampling period, keeping 10 % jitter.
    #[must_use]
    pub fn with_sampling_period(mut self, period: u64) -> Self {
        self.sampling = SamplingConfig {
            period,
            jitter: period / 10,
            ..self.sampling
        };
        self
    }

    /// Sets the number of debug registers.
    #[must_use]
    pub fn with_registers(mut self, registers: usize) -> Self {
        self.registers = registers;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the full sampling configuration.
    #[must_use]
    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }

    /// Selects the fast path's scan kernel (default: auto).
    #[must_use]
    pub fn with_scan_kernel(mut self, kernel: KernelChoice) -> Self {
        self.scan_kernel = kernel;
        self
    }
}

/// A delivered PMU sample: the profiler's overflow handler input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// The sampled access (PEBS gives its precise effective address).
    pub access: Access,
    /// Zero-based index of the access in the run.
    pub index: u64,
    /// Counter values *after* this access retired.
    pub counters: CounterSnapshot,
}

/// A delivered debug trap: the profiler's watchpoint handler input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// The trapping access.
    pub access: Access,
    /// Zero-based index of the access in the run.
    pub index: u64,
    /// The register that fired. The machine has already disarmed it (x86
    /// debug exceptions are delivered with the breakpoint condition
    /// recorded in DR6; profilers clear it before resuming).
    pub slot: Slot,
    /// Arm metadata recorded when the watchpoint was set.
    pub info: ArmInfo,
    /// Counter values *after* the trapping access retired.
    pub counters: CounterSnapshot,
}

/// A client of the simulated machine — the profiler under test.
///
/// Handlers receive a [`Hardware`] view giving controlled access to the
/// debug registers and counters, mirroring what a perf/signal handler can do
/// on a real kernel.
pub trait Profiler {
    /// Called when the sampling counter overflows on an access.
    fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware);

    /// Called when an access hits an armed watchpoint. The watchpoint has
    /// been disarmed before delivery.
    fn on_trap(&mut self, trap: &Trap, hw: &mut Hardware);

    /// Called once after the stream ends, with watchpoints still armed.
    /// Profilers typically drain armed registers here to account for
    /// never-reused (censored) samples.
    fn on_finish(&mut self, hw: &mut Hardware) {
        let _ = hw;
    }
}

/// The hardware interface exposed to profiler handlers.
#[derive(Debug)]
pub struct Hardware<'a> {
    drf: &'a mut DebugRegisterFile,
    ledger: &'a mut CostLedger,
    counters: CounterSnapshot,
    index: u64,
}

impl Hardware<'_> {
    /// Arms a watchpoint in the first free debug register, tagging it with
    /// profiler-chosen metadata. The arm is stamped with the current access
    /// index and counter value.
    ///
    /// # Errors
    ///
    /// Returns [`ArmError::NoFreeRegister`] when all registers are armed;
    /// the profiler must [`disarm`](Hardware::disarm) one first (its
    /// replacement policy).
    pub fn arm(&mut self, watchpoint: Watchpoint, tag: u64) -> Result<Slot, ArmError> {
        let info = ArmInfo {
            watchpoint,
            armed_at: self.index,
            accesses_at_arm: self.counters.loads + self.counters.stores,
            tag,
        };
        let slot = self.drf.arm(info)?;
        self.ledger.arms += 1;
        Ok(slot)
    }

    /// Disarms a register, returning its arm metadata if it was armed.
    pub fn disarm(&mut self, slot: Slot) -> Option<ArmInfo> {
        self.drf.disarm(slot)
    }

    /// Iterates over currently armed registers.
    pub fn armed_iter(&self) -> impl Iterator<Item = (Slot, &ArmInfo)> {
        self.drf.armed_iter()
    }

    /// Number of armed registers.
    #[must_use]
    pub fn armed_count(&self) -> usize {
        self.drf.armed_count()
    }

    /// Total number of debug registers.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.drf.len()
    }

    /// Current PMU counter values.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        self.counters
    }

    /// Total counted accesses (loads + stores) so far.
    #[must_use]
    pub fn access_count(&self) -> u64 {
        self.counters.loads + self.counters.stores
    }

    /// Zero-based index of the current access (or of the last access, in
    /// [`Profiler::on_finish`]).
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }
}

/// Summary of one machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Number of accesses executed.
    pub accesses: u64,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Event counts for overhead accounting.
    pub ledger: CostLedger,
    /// The cost model the machine was configured with.
    pub cost: CostModel,
}

impl RunReport {
    /// Fractional time overhead of the profiler on this run.
    #[must_use]
    pub fn time_overhead(&self) -> f64 {
        self.ledger.time_overhead(&self.cost)
    }
}

/// The simulated machine.
///
/// Drives an [`AccessStream`] through the PMU and debug-register models,
/// delivering samples and traps to a [`Profiler`]. Deterministic for a
/// given configuration (including seed).
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine with the given configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        Machine { config }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Starts a push-style run: the returned [`MachineRun`] holds the
    /// PMU, debug registers, ledger and access index, and the caller
    /// feeds it slices of accesses as they arrive. Sampling configs
    /// eligible for the fast path (see [`run`](Machine::run)) replay
    /// every slice through it; the rest step per access.
    #[must_use]
    pub fn start(&self) -> MachineRun {
        MachineRun::new(&self.config, fast_path_eligible(&self.config))
    }

    /// Runs the stream to completion, delivering events to `profiler`.
    ///
    /// Event order on each access: counters advance first; then an armed
    /// watchpoint covering the access fires a [`Trap`] (the register is
    /// disarmed before delivery); then, if the sampling counter overflowed
    /// on this access, a [`Sample`] is delivered. A watchpoint armed inside
    /// a handler is first eligible to fire on the *next* access — hardware
    /// cannot retroactively trap the access that is already retiring.
    ///
    /// The run is a loop of [`MachineRun::feed`] calls plus one
    /// [`MachineRun::finish`]: chunk-capable streams feed their chunks
    /// as they come, other streams are batched through a fixed stack
    /// buffer.
    ///
    /// # Fast path
    ///
    /// When the stream exposes contiguous chunks
    /// ([`AccessStream::next_chunk`]) and the sampling mode is the precise
    /// all-accesses default (`event == Accesses`, `max_skid == 0`), the
    /// machine skips the per-access state machines for the quiet gaps
    /// between overflows: the PMU countdown bounds how many accesses can
    /// pass without an event, a [`NeedleSet`] scan locates the first
    /// watchpoint hit inside that gap, and counters/ledger advance in
    /// bulk. Only accesses that deliver an event (and the overflow access
    /// itself) take the ordinary step, so samples, traps, evictions, RNG
    /// consumption and cost accounting are bit-identical to the slow
    /// loop. Everything else — non-chunked streams, skidding or
    /// event-filtered sampling — steps per access.
    pub fn run(&self, mut stream: impl AccessStream, profiler: &mut impl Profiler) -> RunReport {
        let fast = fast_path_eligible(&self.config) && stream.chunk_capable();
        let mut run = MachineRun::new(&self.config, fast);
        if fast {
            while let Some(chunk) = stream.next_chunk() {
                let n = chunk.len();
                run.feed(chunk, profiler);
                stream.consume_chunk(n);
            }
        }
        // Non-chunked streams (and whatever a chunk-capable stream
        // still yields per access once its chunks run out).
        let mut batch = [Access::load(0); SLOW_BATCH];
        loop {
            let mut n = 0;
            while n < SLOW_BATCH {
                let Some(access) = stream.next_access() else {
                    break;
                };
                batch[n] = access;
                n += 1;
            }
            run.feed(&batch[..n], profiler);
            if n < SLOW_BATCH {
                break;
            }
        }
        run.finish(profiler)
    }
}

/// Accesses [`Machine::run`] pulls from a non-chunked stream per
/// [`MachineRun::feed`] call.
const SLOW_BATCH: usize = 512;

/// True when the sampling mode admits the chunk fast path: precise
/// (skid-free) sampling over all accesses.
fn fast_path_eligible(config: &MachineConfig) -> bool {
    config.sampling.max_skid == 0 && config.sampling.event == PmuEvent::Accesses
}

/// A machine run in progress: the PMU, the debug-register file, the
/// cost ledger and the access index, carried between
/// [`feed`](MachineRun::feed) calls.
///
/// The state is plain data, so a run can be cloned mid-stream; cloning
/// it together with the profiler and finishing the clone yields exactly
/// what finishing the original at that point would (a live snapshot),
/// while the original keeps consuming accesses.
#[derive(Debug, Clone)]
pub struct MachineRun {
    pmu: Pmu,
    drf: DebugRegisterFile,
    ledger: CostLedger,
    index: u64,
    cost: CostModel,
    /// Scan kernel, resolved once per run against the host capability
    /// table and never re-dispatched inside the loop.
    kernel: KernelKind,
    /// Replay slices through the chunk fast path (else step per access).
    fast: bool,
}

impl MachineRun {
    fn new(config: &MachineConfig, fast: bool) -> Self {
        let kernel = kernels::resolve_scan(config.scan_kernel);
        if fast {
            rdx_metrics::counter("rdx.machine.scan.kernel").incr();
        }
        MachineRun {
            pmu: Pmu::new(config.sampling, config.seed),
            drf: DebugRegisterFile::new(config.registers),
            ledger: CostLedger::default(),
            index: 0,
            cost: config.cost,
            kernel,
            fast,
        }
    }

    /// Executes `accesses` as the next stretch of the run, delivering
    /// events to `profiler`. Splitting a stream into slices anywhere
    /// changes nothing: the PMU countdown and armed registers carry
    /// over, so any sequence of feeds equals one feed of the
    /// concatenation.
    pub fn feed(&mut self, accesses: &[Access], profiler: &mut impl Profiler) {
        if accesses.is_empty() {
            return;
        }
        let n = accesses.len() as u64;
        if self.fast {
            run_chunk(
                accesses,
                self.kernel,
                &mut self.pmu,
                &mut self.drf,
                &mut self.ledger,
                profiler,
                &mut self.index,
            );
            // Engagement counters, flushed once per feed so the
            // (feature-gated) metrics atomics stay off the hot path and
            // a snapshot's cloned finish never counts them again.
            rdx_metrics::counter("rdx.machine.fastpath.chunks").incr();
            rdx_metrics::counter("rdx.machine.fastpath.scanned_accesses").add(n);
            // Per-kernel totals, named literally per match arm so the
            // counter-manifest lint sees every name.
            match self.kernel {
                KernelKind::Scalar | KernelKind::Swar => {
                    rdx_metrics::counter("rdx.machine.scan.scalar_accesses").add(n);
                }
                KernelKind::Simd => {
                    rdx_metrics::counter("rdx.machine.scan.simd_accesses").add(n);
                }
            }
        } else {
            for &access in accesses {
                step_access(
                    access,
                    &mut self.pmu,
                    &mut self.drf,
                    &mut self.ledger,
                    profiler,
                    self.index,
                );
                self.index += 1;
            }
            rdx_metrics::counter("rdx.machine.fastpath.fallbacks").add(n);
        }
    }

    /// Ends the run: delivers [`Profiler::on_finish`] with the
    /// watchpoints still armed and reports the totals.
    pub fn finish(mut self, profiler: &mut impl Profiler) -> RunReport {
        let counters = self.pmu.counters();
        let mut hw = Hardware {
            drf: &mut self.drf,
            ledger: &mut self.ledger,
            counters,
            index: self.index.saturating_sub(1),
        };
        profiler.on_finish(&mut hw);
        RunReport {
            accesses: self.index,
            counters,
            ledger: self.ledger,
            cost: self.cost,
        }
    }
}

/// One access through the full PMU + debug-register state machines: the
/// single stepping implementation both the slow loop and the fast path's
/// event deliveries go through.
fn step_access(
    access: Access,
    pmu: &mut Pmu,
    drf: &mut DebugRegisterFile,
    ledger: &mut CostLedger,
    profiler: &mut impl Profiler,
    index: u64,
) {
    let outcome = pmu.on_event(access.kind.is_store());
    ledger.accesses += 1;
    let counters = pmu.counters();

    if let Some(slot) = drf.matching(&access) {
        // Disarm before delivery, like a real handler clearing DR7;
        // matching() only returns armed slots, so disarm cannot miss.
        if let Some(info) = drf.disarm(slot) {
            ledger.traps += 1;
            let trap = Trap {
                access,
                index,
                slot,
                info,
                counters,
            };
            let mut hw = Hardware {
                drf,
                ledger,
                counters,
                index,
            };
            profiler.on_trap(&trap, &mut hw);
        }
    }

    if outcome == PmuOutcome::SampleHere {
        ledger.samples += 1;
        let sample = Sample {
            access,
            index,
            counters,
        };
        let mut hw = Hardware {
            drf,
            ledger,
            counters,
            index,
        };
        profiler.on_sample(&sample, &mut hw);
    }
}

/// Replays one contiguous chunk through the event-driven fast path.
///
/// Invariant on entry and exit: `pmu.countdown() ≥ 1`, no skid pending,
/// and the needle set is rebuilt after every delivered event (the only
/// points where a handler can rearrange the registers). Each iteration
/// handles one *segment*: the quiet prefix bounded by the next overflow
/// (`countdown − 1` accesses) and the chunk end, scanned in bulk, then
/// at most one single-stepped event access.
fn run_chunk(
    chunk: &[Access],
    kernel: KernelKind,
    pmu: &mut Pmu,
    drf: &mut DebugRegisterFile,
    ledger: &mut CostLedger,
    profiler: &mut impl Profiler,
    index: &mut u64,
) {
    let mut needles = NeedleSet::from_registers(drf);
    let mut pos: usize = 0;
    while pos < chunk.len() {
        let remaining = chunk.len() - pos;
        // The overflow access itself must single-step (it consumes RNG
        // and delivers the sample), so the scannable quiet run is at
        // most countdown − 1 accesses long.
        let gap = pmu.countdown() - 1;
        let quiet = remaining.min(usize::try_from(gap).unwrap_or(usize::MAX));
        let scan = kernels::run_scan(kernel, &needles, &chunk[pos..pos + quiet]);
        match scan.first_match {
            Some(off) => {
                // Trap inside the quiet run: bulk-advance the prefix,
                // then step the trapping access for real.
                let prefix = off as u64;
                pmu.advance_quiet(prefix - scan.stores_before, scan.stores_before);
                ledger.accesses += prefix;
                *index += prefix;
                step_access(chunk[pos + off], pmu, drf, ledger, profiler, *index);
                *index += 1;
                pos += off + 1;
                needles = NeedleSet::from_registers(drf);
            }
            None => {
                // Whole quiet run passes without an event.
                let run = quiet as u64;
                pmu.advance_quiet(run - scan.stores_before, scan.stores_before);
                ledger.accesses += run;
                *index += run;
                pos += quiet;
                if quiet < remaining {
                    // Next access overflows the sampling counter.
                    step_access(chunk[pos], pmu, drf, ledger, profiler, *index);
                    *index += 1;
                    pos += 1;
                    needles = NeedleSet::from_registers(drf);
                }
                // else: chunk exhausted mid-gap; the countdown carries
                // the remainder into the next chunk (or the run's end).
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::{Address, Trace};

    /// Records every event it sees; arms a watchpoint on each sample.
    #[derive(Default)]
    struct Recorder {
        samples: Vec<Sample>,
        traps: Vec<Trap>,
        finish_armed: usize,
    }

    impl Profiler for Recorder {
        fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware) {
            self.samples.push(*sample);
            let wp = Watchpoint::read_write(sample.access.addr, 8);
            // Evict the oldest armed register if full (FIFO), like RDX.
            if hw.armed_count() == hw.register_count() {
                let oldest = hw
                    .armed_iter()
                    .min_by_key(|(_, info)| info.armed_at)
                    .map(|(slot, _)| slot)
                    .expect("registers are full");
                hw.disarm(oldest);
            }
            hw.arm(wp, sample.access.addr.raw()).expect("slot freed");
        }

        fn on_trap(&mut self, trap: &Trap, _hw: &mut Hardware) {
            self.traps.push(*trap);
        }

        fn on_finish(&mut self, hw: &mut Hardware) {
            self.finish_armed = hw.armed_count();
        }
    }

    fn config(period: u64) -> MachineConfig {
        let mut c = MachineConfig::default().with_sampling_period(period);
        c.sampling.jitter = 0;
        c
    }

    #[test]
    fn trap_fires_on_reuse() {
        // Period 4: sample lands on the 4th access (index 3, addr 0), which
        // repeats every 4 accesses; the next access to 0 is index 4.
        let addrs = [0u64, 8, 16, 0, 0, 8, 16, 0];
        let trace = Trace::from_addresses("t", addrs);
        let mut rec = Recorder::default();
        let report = Machine::new(config(4)).run(trace.stream(), &mut rec);
        assert_eq!(report.accesses, 8);
        assert_eq!(rec.samples.len(), 2);
        assert_eq!(rec.samples[0].index, 3);
        assert_eq!(rec.samples[0].access.addr, Address::new(0));
        // watchpoint on 0 armed at index 3 → traps at index 4
        assert_eq!(rec.traps.len(), 1);
        assert_eq!(rec.traps[0].index, 4);
        assert_eq!(rec.traps[0].info.armed_at, 3);
        // reuse time from counter snapshots: accesses strictly between = 0
        let rt = rec.traps[0].counters.value(crate::PmuEvent::Accesses)
            - rec.traps[0].info.accesses_at_arm
            - 1;
        assert_eq!(rt, 0);
    }

    #[test]
    fn armed_watchpoint_does_not_trap_its_own_access() {
        // Single address: each sample arms on the same access's address, and
        // the trap must come on a LATER access.
        let trace = Trace::from_addresses("same", std::iter::repeat_n(0x40u64, 20));
        let mut rec = Recorder::default();
        Machine::new(config(5)).run(trace.stream(), &mut rec);
        for t in &rec.traps {
            assert!(t.index > t.info.armed_at);
        }
        assert!(!rec.traps.is_empty());
    }

    #[test]
    fn no_reuse_no_traps() {
        let trace = Trace::from_addresses("stream", (0..1000u64).map(|i| i * 64));
        let mut rec = Recorder::default();
        let report = Machine::new(config(100)).run(trace.stream(), &mut rec);
        assert_eq!(rec.traps.len(), 0);
        assert_eq!(rec.samples.len(), 10);
        // on_finish saw the still-armed registers (4 at most, ≥1 armed)
        assert!(rec.finish_armed >= 1);
        assert_eq!(report.ledger.samples, 10);
        assert_eq!(report.ledger.traps, 0);
    }

    #[test]
    fn ledger_counts_arms() {
        let trace = Trace::from_addresses("a", (0..1000u64).map(|i| (i % 10) * 64));
        let mut rec = Recorder::default();
        let report = Machine::new(config(50)).run(trace.stream(), &mut rec);
        assert_eq!(report.ledger.arms as usize, rec.samples.len());
        assert_eq!(report.ledger.accesses, 1000);
    }

    #[test]
    fn overhead_reflects_event_counts() {
        let trace = Trace::from_addresses("o", (0..100_000u64).map(|i| (i % 100) * 64));
        let mut rec = Recorder::default();
        let report = Machine::new(config(10_000)).run(trace.stream(), &mut rec);
        // 10 samples + ≤10 traps at 10k cycles each vs 300k base cycles.
        let ovh = report.time_overhead();
        assert!(ovh > 0.0 && ovh < 0.5, "overhead {ovh} out of range");
    }

    #[test]
    fn deterministic_runs() {
        let trace = Trace::from_addresses("d", (0..10_000u64).map(|i| (i * 37) % 4096 * 64));
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let cfg = MachineConfig::default()
            .with_sampling_period(500)
            .with_seed(11);
        Machine::new(cfg).run(trace.stream(), &mut a);
        Machine::new(cfg).run(trace.stream(), &mut b);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.traps, b.traps);
    }

    #[test]
    fn different_seed_different_samples() {
        let trace = Trace::from_addresses("s", (0..100_000u64).map(|i| (i % 333) * 64));
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        Machine::new(
            MachineConfig::default()
                .with_sampling_period(1000)
                .with_seed(1),
        )
        .run(trace.stream(), &mut a);
        Machine::new(
            MachineConfig::default()
                .with_sampling_period(1000)
                .with_seed(2),
        )
        .run(trace.stream(), &mut b);
        assert_ne!(
            a.samples.iter().map(|s| s.index).collect::<Vec<_>>(),
            b.samples.iter().map(|s| s.index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_stream_still_calls_finish() {
        struct FinishFlag(bool);
        impl Profiler for FinishFlag {
            fn on_sample(&mut self, _: &Sample, _: &mut Hardware) {}
            fn on_trap(&mut self, _: &Trap, _: &mut Hardware) {}
            fn on_finish(&mut self, _: &mut Hardware) {
                self.0 = true;
            }
        }
        let trace = Trace::new("e");
        let mut p = FinishFlag(false);
        let report = Machine::new(MachineConfig::default()).run(trace.stream(), &mut p);
        assert!(p.0);
        assert_eq!(report.accesses, 0);
    }

    #[test]
    fn split_feeds_equal_one_run() {
        let trace = Trace::from_addresses("f", (0..20_000u64).map(|i| (i * 37) % 997 * 8));
        let cfg = MachineConfig::default()
            .with_sampling_period(300)
            .with_seed(4);
        let mut whole = Recorder::default();
        let want = Machine::new(cfg).run(trace.stream(), &mut whole);
        for split in [1usize, 7, 299, 300, 4096] {
            let mut rec = Recorder::default();
            let mut run = Machine::new(cfg).start();
            for part in trace.accesses().chunks(split) {
                run.feed(part, &mut rec);
            }
            assert_eq!(run.finish(&mut rec), want, "split {split}");
            assert_eq!(rec.samples, whole.samples, "split {split}");
            assert_eq!(rec.traps, whole.traps, "split {split}");
            assert_eq!(rec.finish_armed, whole.finish_armed);
        }
    }

    #[test]
    fn finishing_a_clone_equals_a_run_of_the_prefix() {
        let trace = Trace::from_addresses("c", (0..10_000u64).map(|i| (i % 211) * 8));
        let cfg = MachineConfig::default().with_sampling_period(97);
        let (head, tail) = trace.accesses().split_at(6_001);
        let mut rec = Recorder::default();
        let mut run = Machine::new(cfg).start();
        run.feed(head, &mut rec);
        let mut snap_rec = Recorder {
            samples: rec.samples.clone(),
            traps: rec.traps.clone(),
            finish_armed: 0,
        };
        let snap = run.clone().finish(&mut snap_rec);
        let prefix = Trace::from_addresses("p", head.iter().map(|a| a.addr.raw()));
        let mut want_rec = Recorder::default();
        assert_eq!(snap, Machine::new(cfg).run(prefix.stream(), &mut want_rec));
        assert_eq!(snap_rec.finish_armed, want_rec.finish_armed);
        // The original run is unaffected by the snapshot.
        run.feed(tail, &mut rec);
        let mut full_rec = Recorder::default();
        assert_eq!(
            run.finish(&mut rec),
            Machine::new(cfg).run(trace.stream(), &mut full_rec)
        );
        assert_eq!(rec.traps, full_rec.traps);
    }

    #[test]
    fn config_builders() {
        let c = MachineConfig::default()
            .with_registers(2)
            .with_sampling_period(100)
            .with_seed(5);
        assert_eq!(c.registers, 2);
        assert_eq!(c.sampling.period, 100);
        assert_eq!(c.sampling.jitter, 10);
        assert_eq!(c.seed, 5);
    }
}
