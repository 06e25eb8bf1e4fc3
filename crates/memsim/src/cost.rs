//! The cycle/byte cost model used to reproduce the paper's overhead results.
//!
//! Real overhead measurements are wall-clock and RSS; in a simulated
//! substrate both are first-order linear in event counts, so we account
//! events and convert with calibrated per-event cycle costs. The defaults
//! are calibrated to published magnitudes for a ~2.5 GHz x86 server:
//!
//! * an application memory access plus its surrounding non-memory work:
//!   ~3 cycles,
//! * a PMU overflow interrupt + PEBS readout + debug-register arming
//!   syscall: ~6 000 cycles (≈2.4 µs),
//! * a debug trap (signal delivery + handler + disarm): ~4 000 cycles,
//! * an exhaustive-instrumentation per-access callback (Pin-style analysis
//!   routine plus Olken-tree update): ~250 cycles.
//!
//! With the paper's default sampling period of 64 Ki accesses this yields
//! RDX time overhead ≈ (6000+4000)/(65536·3) ≈ 5 % — the abstract's number —
//! while the instrumentation baseline lands at (3+250)/3 ≈ 84×, i.e. the
//! "orders of magnitude" the abstract contrasts against.

use serde::{Deserialize, Serialize};

/// Per-event cycle costs and fixed memory footprints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Application cycles attributed to one memory access (base work).
    pub cycles_per_access: f64,
    /// Cycles for one PMU sample: overflow interrupt, PEBS record readout,
    /// handler logic and arming a debug register.
    pub cycles_per_sample: f64,
    /// Cycles for one debug-register trap: exception, signal delivery,
    /// handler logic and disarming.
    pub cycles_per_trap: f64,
    /// Cycles for one exhaustive-instrumentation callback (baseline tools).
    pub cycles_per_instrumented_access: f64,
    /// Fixed profiler memory: runtime library, perf ring buffers, signal
    /// stacks (bytes).
    pub profiler_fixed_bytes: u64,
    /// Per-distinct-block bookkeeping bytes of an exhaustive tool
    /// (hash-map entry + Olken tree node).
    pub instrumentation_bytes_per_block: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cycles_per_access: 3.0,
            cycles_per_sample: 6_000.0,
            cycles_per_trap: 4_000.0,
            cycles_per_instrumented_access: 250.0,
            profiler_fixed_bytes: 512 * 1024,
            instrumentation_bytes_per_block: 88,
        }
    }
}

/// Event counts accumulated during a run, convertible to overheads via a
/// [`CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CostLedger {
    /// Memory accesses executed by the application: a machine run's
    /// PMU count, filled in when the run finishes.
    pub accesses: u64,
    /// PMU samples delivered.
    pub samples: u64,
    /// Debug traps delivered.
    pub traps: u64,
    /// Watchpoint arm operations.
    pub arms: u64,
}

impl CostLedger {
    /// Application base cycles without any profiling.
    #[must_use]
    pub fn base_cycles(&self, model: &CostModel) -> f64 {
        self.accesses as f64 * model.cycles_per_access
    }

    /// Extra cycles spent in the sampling profiler.
    #[must_use]
    pub fn profiling_cycles(&self, model: &CostModel) -> f64 {
        self.samples as f64 * model.cycles_per_sample + self.traps as f64 * model.cycles_per_trap
    }

    /// Fractional time overhead of the sampling profiler
    /// (`profiling / base`); 0 when no accesses ran.
    #[must_use]
    pub fn time_overhead(&self, model: &CostModel) -> f64 {
        let base = self.base_cycles(model);
        if base == 0.0 {
            0.0
        } else {
            self.profiling_cycles(model) / base
        }
    }

    /// Slowdown factor of an exhaustive-instrumentation tool on the same
    /// run (`(base + callbacks) / base`).
    #[must_use]
    pub fn instrumentation_slowdown(&self, model: &CostModel) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        (model.cycles_per_access + model.cycles_per_instrumented_access) / model.cycles_per_access
    }

    /// Bytes of bookkeeping an exhaustive tool needs for `distinct_blocks`
    /// monitored blocks.
    #[must_use]
    pub fn instrumentation_bytes(&self, model: &CostModel, distinct_blocks: u64) -> u64 {
        distinct_blocks.saturating_mul(model.instrumentation_bytes_per_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_gives_paper_overhead() {
        // One sample + one trap per 64Ki accesses ≈ 5% overhead.
        let model = CostModel::default();
        let ledger = CostLedger {
            accesses: 64 * 1024 * 100,
            samples: 100,
            traps: 100,
            arms: 100,
        };
        let ovh = ledger.time_overhead(&model);
        assert!(
            (0.03..0.08).contains(&ovh),
            "expected ≈5% overhead, got {ovh}"
        );
    }

    #[test]
    fn instrumentation_is_orders_of_magnitude() {
        let model = CostModel::default();
        let ledger = CostLedger {
            accesses: 1000,
            ..CostLedger::default()
        };
        let slow = ledger.instrumentation_slowdown(&model);
        assert!(
            slow > 50.0,
            "instrumentation slowdown {slow} should be ≫10×"
        );
    }

    #[test]
    fn zero_access_run() {
        let model = CostModel::default();
        let ledger = CostLedger::default();
        assert_eq!(ledger.time_overhead(&model), 0.0);
        assert_eq!(ledger.instrumentation_slowdown(&model), 1.0);
        assert_eq!(ledger.base_cycles(&model), 0.0);
    }

    #[test]
    fn overhead_scales_with_sampling_rate() {
        let model = CostModel::default();
        let sparse = CostLedger {
            accesses: 1_000_000,
            samples: 15,
            traps: 15,
            arms: 15,
        };
        let dense = CostLedger {
            accesses: 1_000_000,
            samples: 1500,
            traps: 1500,
            arms: 1500,
        };
        assert!(dense.time_overhead(&model) > 50.0 * sparse.time_overhead(&model));
    }

    #[test]
    fn instrumentation_memory_scales_with_footprint() {
        let model = CostModel::default();
        let ledger = CostLedger::default();
        assert_eq!(ledger.instrumentation_bytes(&model, 0), 0);
        assert_eq!(
            ledger.instrumentation_bytes(&model, 1 << 20),
            (1u64 << 20) * 88
        );
    }
}
