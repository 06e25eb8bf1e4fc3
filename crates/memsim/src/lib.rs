//! A simulated commodity-CPU substrate for sampling-based profilers.
//!
//! The RDX paper runs on real x86 hardware and uses two facilities that are
//! present in every commodity processor:
//!
//! 1. **Performance-counter sampling** — a PMU counter counts retired memory
//!    accesses and raises an interrupt every `period` events, delivering the
//!    precise effective address of the sampled access (PEBS-style).
//! 2. **Hardware debug registers** — x86 exposes four (DR0–DR3) address
//!    watchpoints that trap on the next load/store to a small aligned range.
//!
//! This crate models both faithfully enough that a profiler written against
//! it exhibits the same statistical behaviour as one written against
//! `perf_event_open` + `ptrace`/`perf` breakpoints:
//!
//! * [`Pmu`] — event counters and a sampling engine with **period
//!   randomization** (to break lock-step with loops) and an optional **skid**
//!   model (non-PEBS sampling delivers a nearby, later access).
//! * [`DebugRegisterFile`] — a small, fixed set of watchpoints with x86
//!   width/alignment rules (1/2/4/8 bytes, naturally aligned).
//! * [`Machine`] — the event loop: drives an access stream through the PMU
//!   and debug registers and calls back into a [`Profiler`] exactly like the
//!   kernel delivers PMU interrupts and debug traps to a signal handler.
//! * [`CostModel`] / [`CostLedger`] — a cycle/byte cost model so that the
//!   time and memory overheads the paper reports (≈5 % / ≈7 %) can be
//!   reproduced from event counts.
//!
//! The machine is deterministic given a seed, which makes every experiment
//! in this workspace reproducible.
//!
//! # Example
//!
//! ```
//! use memsim::{Machine, MachineConfig, Profiler, Hardware, Sample, Trap};
//! use rdx_trace::Trace;
//!
//! /// Counts samples and arms nothing.
//! #[derive(Default)]
//! struct SampleCounter {
//!     samples: u64,
//! }
//!
//! impl Profiler for SampleCounter {
//!     fn on_sample(&mut self, _sample: &Sample, _hw: &mut Hardware) {
//!         self.samples += 1;
//!     }
//!     fn on_trap(&mut self, _trap: &Trap, _hw: &mut Hardware) {}
//! }
//!
//! let trace = Trace::from_addresses("demo", (0..10_000u64).map(|i| i * 64));
//! let mut profiler = SampleCounter::default();
//! let config = MachineConfig::default().with_sampling_period(1000);
//! let report = Machine::new(config).run(trace.stream(), &mut profiler);
//! assert_eq!(report.accesses, 10_000);
//! assert!(profiler.samples >= 9);
//! ```

// The AVX2 scan kernel needs core::arch intrinsics, so this crate can
// only *deny* unsafe code, not forbid it: `kernels.rs` re-allows it for
// exactly that module, and the unsafe-confinement lint pins every
// `unsafe` token in the workspace to that one file.
// rdx-lint-allow: forbid-unsafe — arch intrinsics confined to kernels.rs
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod debug;
pub mod kernels;
mod machine;
mod pmu;
mod scan;

pub use cost::{CostLedger, CostModel};
pub use debug::{ArmError, ArmInfo, DebugRegisterFile, Slot, WatchKind, Watchpoint};
pub use kernels::{KernelChoice, KernelEntry, KernelKind, ScanKernel};
pub use machine::{
    Hardware, Machine, MachineConfig, MachineRun, Profiler, RunReport, Sample, Trap,
};
pub use pmu::{CounterSnapshot, Pmu, PmuEvent, SamplingConfig};
pub use scan::{NeedleSet, ScanOutcome};
