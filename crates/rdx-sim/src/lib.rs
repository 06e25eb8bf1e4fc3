//! rdx-sim — deterministic simulation of the workspace's concurrent
//! paths.
//!
//! The batch dispatch pool and the rdx-server session loop have
//! thread/channel/failure interleavings — and a session has chunk
//! boundaries — that ordinary unit tests only sample incidentally:
//! whatever schedule the OS happened to produce is the one that got
//! tested. This crate replaces the OS with a **seeded, wall-clock-free
//! virtual scheduler**: every concurrent component is driven one
//! explicit step at a time on a single thread, with each scheduling
//! decision drawn from a [`Picker`] — a seeded RNG for randomized
//! sweeps ([`SeededPicker`]), a recorded choice list for exhaustive
//! DFS over all schedules of a small scenario
//! ([`explore_exhaustive`]). Same seed → same schedule → same outcome,
//! so every failure is replayable from its seed alone.
//!
//! The components are not reimplemented for simulation; the production
//! types expose step hooks the simulator drives directly:
//!
//! * [`rdx_core::batch::dispatch`] is the claim/collect core of
//!   `profile_batch`, driven here by virtual workers
//!   ([`batch::run_batch`]).
//! * [`rdx_server::SessionStepper`] is the session state machine one
//!   command at a time ([`session`]), over the same ingestion loop
//!   `profile_rdxt` runs on a file.
//!
//! On top of the scheduler sits a **fault injector** ([`fault`]):
//! truncated tails and overlong varints cut into seed-chosen chunks,
//! command streams that snapshot before a header or keep talking
//! after a failure. Each scenario asserts the invariants that must
//! survive any schedule — prefix profiles and typed errors at the
//! right chunk, panic propagation in task order, and a bit-identical
//! [`REGISTRY_GOLDEN_DIGEST`] when faults are absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fault;
pub mod golden;
pub mod rng;
pub mod sched;
pub mod session;

use std::fmt;

pub use rng::SplitMix64;
pub use sched::{explore_exhaustive, shared, Picker, RecordingPicker, SeededPicker, SharedPicker};

/// The workspace's golden registry digest: FNV-1a over every suite
/// workload's profile at the canonical parameters. Must match `GOLDEN`
/// in rdx-core's `fastpath_equivalence.rs` / `ingest_golden.rs` —
/// chunked server sessions are a fourth execution
/// shape pinning the same constant.
pub const REGISTRY_GOLDEN_DIGEST: u64 = 0x17ea_4869_2cad_4966;

/// An invariant the simulator caught being violated: which invariant,
/// under which seed (for replay), and what was observed.
#[derive(Debug)]
pub struct Violation {
    /// Short name of the violated invariant.
    pub invariant: &'static str,
    /// The seed whose schedule produced the violation (replay with
    /// `rdx sim --seed`), if the scenario was seed-driven.
    pub seed: Option<u64>,
    /// What was observed instead of the invariant holding.
    pub detail: String,
}

impl Violation {
    /// A violation from a seeded schedule.
    #[must_use]
    pub fn seeded(invariant: &'static str, seed: u64, detail: String) -> Self {
        Violation {
            invariant,
            seed: Some(seed),
            detail,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant `{}` violated", self.invariant)?;
        if let Some(seed) = self.seed {
            write!(f, " (replay: --seed {seed})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for Violation {}

/// Which fault classes a sim run injects. Fault-free invariants
/// (oracle equivalence, the golden digest) always run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSet {
    /// Trace bytes cut mid-record (`TraceError::Truncated`).
    pub truncate: bool,
    /// An overlong varint spliced into the record stream
    /// (`TraceError::Malformed`).
    pub overlong: bool,
    /// Batch tasks that panic, at schedule-chosen claim positions.
    pub batch_panic: bool,
    /// Session command streams that misbehave: snapshots before the
    /// header, commands after failure or close.
    pub session_disorder: bool,
}

impl FaultSet {
    /// Every fault class enabled — the default.
    #[must_use]
    pub fn all() -> Self {
        FaultSet {
            truncate: true,
            overlong: true,
            batch_panic: true,
            session_disorder: true,
        }
    }

    /// No fault injection: only the fault-free invariants.
    #[must_use]
    pub fn none() -> Self {
        FaultSet {
            truncate: false,
            overlong: false,
            batch_panic: false,
            session_disorder: false,
        }
    }

    /// Parses a `--faults` list: `all`, `none`, or a comma-separated
    /// subset of `truncate`, `overlong`, `batch-panic`,
    /// `session-disorder`.
    ///
    /// # Errors
    ///
    /// A message naming the unknown fault class.
    pub fn parse(list: &str) -> Result<FaultSet, String> {
        match list {
            "all" => return Ok(FaultSet::all()),
            "none" => return Ok(FaultSet::none()),
            _ => {}
        }
        let mut set = FaultSet::none();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match name {
                "truncate" => set.truncate = true,
                "overlong" => set.overlong = true,
                "batch-panic" => set.batch_panic = true,
                "session-disorder" => set.session_disorder = true,
                other => {
                    return Err(format!(
                        "unknown fault class `{other}` (expected all, none, truncate, \
                         overlong, batch-panic, session-disorder)"
                    ))
                }
            }
        }
        Ok(set)
    }
}

impl Default for FaultSet {
    fn default() -> Self {
        FaultSet::all()
    }
}

/// Configuration of one [`run_suite`] sweep.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Base seed; schedule `k` of a scenario runs under `seed + k`.
    pub seed: u64,
    /// Randomized schedules per scenario (exhaustive exploration of the
    /// small scenarios runs in addition).
    pub schedules: usize,
    /// Which fault classes to inject.
    pub faults: FaultSet,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            schedules: 64,
            faults: FaultSet::all(),
        }
    }
}

/// What a completed [`run_suite`] sweep covered.
#[derive(Debug)]
pub struct SimReport {
    /// `(scenario name, schedules executed)` per scenario that ran.
    pub scenarios: Vec<(String, usize)>,
    /// The registry digest reproduced through chunked sessions (always
    /// equals [`REGISTRY_GOLDEN_DIGEST`] when `Ok`).
    pub golden_digest: u64,
}

impl SimReport {
    /// Total schedules executed across all scenarios.
    #[must_use]
    pub fn total_schedules(&self) -> usize {
        self.scenarios.iter().map(|(_, n)| n).sum()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, n) in &self.scenarios {
            writeln!(f, "  {name}: {n} schedules ok")?;
        }
        writeln!(
            f,
            "  golden registry digest {:#018x} reproduced",
            self.golden_digest
        )
    }
}

/// Runs the full simulation suite: exhaustive exploration of the small
/// batch scenario, `cfg.schedules` seeded schedules per enabled fault
/// class, and the golden digest through chunked sessions.
///
/// # Errors
///
/// The first [`Violation`] encountered, carrying the seed to replay it.
pub fn run_suite(cfg: &SimConfig) -> Result<SimReport, Violation> {
    let mut scenarios: Vec<(String, usize)> = Vec::new();
    let seeds = || (0..cfg.schedules).map(|k| cfg.seed.wrapping_add(k as u64));

    // Batch dispatch: ordered results and task-order panic propagation
    // under every schedule.
    let explored = batch::explore_exhaustive_small(4096)?;
    scenarios.push(("batch/dispatch (exhaustive)".into(), explored));
    for seed in seeds() {
        batch::run_seeded(seed, cfg.faults.batch_panic)?;
    }
    scenarios.push(("batch/dispatch (seeded)".into(), cfg.schedules));

    // Server sessions: chunk boundaries anywhere, plus corrupt input
    // and disorderly command streams when enabled.
    for seed in seeds() {
        session::run_clean_seeded(seed)?;
    }
    scenarios.push(("session/clean".into(), cfg.schedules));
    for (enabled, input_fault, name) in [
        (
            cfg.faults.truncate,
            fault::InputFault::TruncateTail,
            "session/truncate",
        ),
        (
            cfg.faults.overlong,
            fault::InputFault::OverlongVarint,
            "session/overlong",
        ),
    ] {
        if enabled {
            for seed in seeds() {
                session::run_faulted_seeded(seed, input_fault)?;
            }
            scenarios.push((name.into(), cfg.schedules));
        }
    }
    if cfg.faults.session_disorder {
        for seed in seeds() {
            session::run_disorder_seeded(seed)?;
        }
        scenarios.push(("session/disorder".into(), cfg.schedules));
    }

    // The expensive capstone: the registry golden digest, reproduced
    // through sessions fed seed-chosen chunks.
    let golden_digest = golden::registry_digest_chunked(cfg.seed)?;
    if golden_digest != REGISTRY_GOLDEN_DIGEST {
        return Err(Violation::seeded(
            "golden-digest",
            cfg.seed,
            format!(
                "chunked-session registry digest {golden_digest:#018x} deviates from \
                 {REGISTRY_GOLDEN_DIGEST:#018x}"
            ),
        ));
    }
    scenarios.push(("golden/registry-digest".into(), 1));

    Ok(SimReport {
        scenarios,
        golden_digest,
    })
}
