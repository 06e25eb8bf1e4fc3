//! Profiler configuration.

use memsim::MachineConfig;
use rdx_histogram::Binning;
use rdx_trace::Granularity;

/// What to do when a sample arrives and every debug register is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Drop the incoming sample, keeping old watchpoints armed — the
    /// default. A watchpoint stays armed until it traps, so arbitrarily
    /// long reuse intervals are observed *exactly*; which intervals get
    /// measured is thinned by register availability, which is (to first
    /// order) independent of the interval about to be measured. Combined
    /// with [`RdxConfig::max_armed_periods`] aging so that never-reused
    /// (cold) watchpoints cannot clog all registers forever.
    DropNew,
    /// Evict the longest-armed watchpoint (FIFO). Simple, but imposes a
    /// hard observability horizon of `registers × period` accesses: any
    /// reuse interval longer than that is *never* observed, no matter how
    /// much weight correction is applied afterwards. Ablation A2 quantifies
    /// the damage.
    EvictOldest,
    /// Evict a uniformly random armed watchpoint. Survival
    /// of an armed watchpoint is geometric (`(1−1/K)^j` after `j` samples),
    /// so arbitrarily long reuse intervals remain observable with known,
    /// correctable probability; the Kaplan–Meier IPCW correction
    /// ([`crate::km`]) then reweights the observed tail.
    EvictRandom,
}

/// How sampled reuse times become reuse distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConversionMethod {
    /// Footprint-theory conversion: `d = fp(t+1) − 1` (the paper's method).
    Footprint,
    /// Naive baseline for ablation A4: report the reuse time as if it were
    /// the distance (`d = t`). Overestimates whenever blocks repeat within
    /// the interval.
    TimeAsDistance,
}

/// Whether and how to correct for watchpoint-eviction censoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CensoringCorrection {
    /// No correction: evicted samples are discarded, end-of-run armed
    /// watchpoints count as cold. Biases against long reuse intervals.
    None,
    /// Inverse-probability-of-censoring weighting driven by a Kaplan–Meier
    /// estimate of the eviction process (see [`crate::km`]).
    Ipcw,
}

/// Full configuration of an RDX profiling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdxConfig {
    /// The simulated machine: sampling period/jitter, debug-register
    /// count, cost model, seed.
    pub machine: MachineConfig,
    /// Watchpoint width in bytes (1, 2, 4 or 8). The paper uses the maximal
    /// 8-byte width to widen each trap's coverage.
    pub watch_width: u8,
    /// Replacement policy under register pressure.
    pub replacement: ReplacementPolicy,
    /// Time→distance conversion method.
    pub conversion: ConversionMethod,
    /// Censoring correction.
    pub censoring: CensoringCorrection,
    /// Age limit for armed watchpoints, in sampling periods: a watchpoint
    /// armed longer than `max_armed_periods × period` accesses is evicted
    /// (recorded as a censored interval) so that cold samples release
    /// their registers. 0 disables aging. This bounds the observable reuse
    /// time at `max_armed_periods × period`; intervals beyond it surface
    /// through the Kaplan–Meier residual instead.
    pub max_armed_periods: u64,
    /// Histogram binning for the produced histograms.
    pub binning: Binning,
    /// Granularity at which distances are reported. Watchpoints are at most
    /// 8 bytes wide, so at granularities coarser than [`Granularity::WORD`]
    /// a trap fires on same-*word* reuse rather than same-block reuse — the
    /// approximation the paper accepts (evaluated by ablation A5).
    pub granularity: Granularity,
}

impl Default for RdxConfig {
    fn default() -> Self {
        RdxConfig {
            machine: MachineConfig::default(),
            watch_width: 8,
            replacement: ReplacementPolicy::DropNew,
            conversion: ConversionMethod::Footprint,
            censoring: CensoringCorrection::Ipcw,
            max_armed_periods: 256,
            binning: Binning::log2(),
            granularity: Granularity::WORD,
        }
    }
}

impl RdxConfig {
    /// Sets the mean sampling period (with 10 % jitter).
    #[must_use]
    pub fn with_period(mut self, period: u64) -> Self {
        self.machine = self.machine.with_sampling_period(period);
        self
    }

    /// Sets the number of debug registers.
    #[must_use]
    pub fn with_registers(mut self, registers: usize) -> Self {
        self.machine = self.machine.with_registers(registers);
        self
    }

    /// Sets the machine RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.machine = self.machine.with_seed(seed);
        self
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Sets the armed-watchpoint age limit (in sampling periods; 0 = off).
    #[must_use]
    pub fn with_max_armed_periods(mut self, periods: u64) -> Self {
        self.max_armed_periods = periods;
        self
    }

    /// Sets the conversion method.
    #[must_use]
    pub fn with_conversion(mut self, conversion: ConversionMethod) -> Self {
        self.conversion = conversion;
        self
    }

    /// Sets the censoring correction.
    #[must_use]
    pub fn with_censoring(mut self, censoring: CensoringCorrection) -> Self {
        self.censoring = censoring;
        self
    }

    /// Sets the watchpoint width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn with_watch_width(mut self, width: u8) -> Self {
        assert!(
            matches!(width, 1 | 2 | 4 | 8),
            "watchpoint width must be 1, 2, 4 or 8 bytes"
        );
        self.watch_width = width;
        self
    }

    /// Sets the reporting granularity.
    #[must_use]
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Sets the histogram binning.
    #[must_use]
    pub fn with_binning(mut self, binning: Binning) -> Self {
        self.binning = binning;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_operating_point() {
        let c = RdxConfig::default();
        assert_eq!(c.machine.sampling.period, 64 * 1024);
        assert_eq!(c.machine.registers, 4);
        assert_eq!(c.watch_width, 8);
        assert_eq!(c.replacement, ReplacementPolicy::DropNew);
        assert_eq!(c.max_armed_periods, 256);
        assert_eq!(c.conversion, ConversionMethod::Footprint);
        assert_eq!(c.censoring, CensoringCorrection::Ipcw);
    }

    #[test]
    fn builders_chain() {
        let c = RdxConfig::default()
            .with_period(100)
            .with_registers(2)
            .with_seed(3)
            .with_replacement(ReplacementPolicy::DropNew)
            .with_conversion(ConversionMethod::TimeAsDistance)
            .with_censoring(CensoringCorrection::None)
            .with_watch_width(4)
            .with_granularity(Granularity::CACHE_LINE)
            .with_binning(Binning::log2_sub(2));
        assert_eq!(c.machine.sampling.period, 100);
        assert_eq!(c.machine.registers, 2);
        assert_eq!(c.watch_width, 4);
        assert_eq!(c.replacement, ReplacementPolicy::DropNew);
        assert_eq!(c.conversion, ConversionMethod::TimeAsDistance);
        assert_eq!(c.censoring, CensoringCorrection::None);
        assert_eq!(c.granularity, Granularity::CACHE_LINE);
    }

    #[test]
    #[should_panic(expected = "1, 2, 4 or 8")]
    fn invalid_watch_width() {
        let _ = RdxConfig::default().with_watch_width(3);
    }
}
