//! The performance-monitoring-unit model: the access counter and sampling.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Largest sampling period the PMU accepts: 2^63.
///
/// An inter-sample gap is drawn from `[period − jitter, period + jitter]`
/// with `jitter < period`, so at most this period `period + jitter`
/// still fits a `u64`.
pub const MAX_PERIOD: u64 = 1 << 63;

/// Configuration of the sampling engine.
///
/// The PMU models the one event RDX samples,
/// `MEM_UOPS_RETIRED.ALL_LOADS_STORES`, with precise (PEBS-like)
/// delivery: every retired access counts, and a sample reports the
/// exact effective address of the access that overflowed the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Mean sampling period (accesses between samples), in
    /// `1..=`[`MAX_PERIOD`].
    pub period: u64,
    /// If non-zero, each inter-sample gap is drawn uniformly from
    /// `[period − jitter, period + jitter]`. Randomization breaks lock-step
    /// resonance between the sampling period and loop trip counts — the
    /// standard technique RDX inherits from PMU-profiling practice.
    pub jitter: u64,
}

impl SamplingConfig {
    /// Precise sampling of all memory accesses with 10 % period
    /// randomization, the profiler's default mode.
    #[must_use]
    pub fn precise(period: u64) -> Self {
        SamplingConfig {
            period,
            jitter: period / 10,
        }
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig::precise(64 * 1024)
    }
}

/// The PMU: a free-running access counter plus a sampling countdown.
#[derive(Debug, Clone)]
pub struct Pmu {
    /// Retired accesses so far.
    accesses: u64,
    config: SamplingConfig,
    /// Events until the next counter overflow.
    countdown: u64,
    rng: SmallRng,
}

/// What the PMU reports for one event, returned by [`Pmu::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmuOutcome {
    /// Nothing sampled at this event.
    Quiet,
    /// This event is a sample: the profiler's overflow handler runs on it.
    SampleHere,
}

impl Pmu {
    /// Creates a PMU with the given sampling configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `config.period` is zero or above [`MAX_PERIOD`], or if
    /// `config.jitter >= config.period`.
    #[must_use]
    pub fn new(config: SamplingConfig, seed: u64) -> Self {
        assert!(config.period > 0, "sampling period must be non-zero");
        assert!(
            config.period <= MAX_PERIOD,
            "sampling period {} exceeds MAX_PERIOD (2^63)",
            config.period
        );
        assert!(
            config.jitter < config.period,
            "jitter must be smaller than the period"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let countdown = Self::draw_gap(&config, &mut rng);
        Pmu {
            accesses: 0,
            config,
            countdown,
            rng,
        }
    }

    fn draw_gap(config: &SamplingConfig, rng: &mut SmallRng) -> u64 {
        if config.jitter == 0 {
            config.period
        } else {
            rng.random_range(config.period - config.jitter..=config.period + config.jitter)
        }
    }

    /// Retired accesses counted so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Counted events until the next overflow fires (always ≥ 1: the
    /// countdown is re-armed the instant it reaches zero).
    #[must_use]
    pub fn countdown(&self) -> u64 {
        self.countdown
    }

    /// Bulk-advances the PMU over `n` accesses known to be quiet.
    ///
    /// Equivalent to `n` calls to [`Pmu::on_event`] that all return
    /// [`PmuOutcome::Quiet`] — same counter value, same countdown, and
    /// (crucially) no RNG consumption, so a subsequent single-stepped
    /// overflow draws the identical next gap. The caller must guarantee
    /// quietness: `n` must be shorter than the countdown, which debug
    /// builds assert.
    pub fn advance_quiet(&mut self, n: u64) {
        debug_assert!(n < self.countdown, "bulk run covers an overflow");
        self.accesses += n;
        self.countdown -= n;
    }

    /// Advances the PMU by one retired access. Returns whether the
    /// profiler's sample handler should run *on this access*.
    pub fn on_event(&mut self) -> PmuOutcome {
        self.accesses += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = Self::draw_gap(&self.config, &mut self.rng);
            PmuOutcome::SampleHere
        } else {
            PmuOutcome::Quiet
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_period_samples_exactly() {
        let mut pmu = Pmu::new(
            SamplingConfig {
                period: 100,
                jitter: 0,
            },
            7,
        );
        let mut sample_indices = Vec::new();
        for i in 1..=1000u64 {
            if pmu.on_event() == PmuOutcome::SampleHere {
                sample_indices.push(i);
            }
        }
        assert_eq!(
            sample_indices,
            (1..=10).map(|k| k * 100).collect::<Vec<_>>()
        );
        assert_eq!(pmu.accesses(), 1000);
    }

    #[test]
    fn jittered_period_mean_close() {
        let mut pmu = Pmu::new(
            SamplingConfig {
                period: 100,
                jitter: 30,
            },
            42,
        );
        let mut samples = 0u64;
        let n = 1_000_000u64;
        for _ in 0..n {
            if pmu.on_event() == PmuOutcome::SampleHere {
                samples += 1;
            }
        }
        let mean_gap = n as f64 / samples as f64;
        assert!(
            (mean_gap - 100.0).abs() < 2.0,
            "mean gap {mean_gap} should be ≈100"
        );
    }

    #[test]
    fn bulk_advance_matches_stepped_quiet_run() {
        let cfg = SamplingConfig::precise(500);
        let mut stepped = Pmu::new(cfg, 9);
        let mut bulk = Pmu::new(cfg, 9);
        assert!(stepped.countdown() > 100);
        for _ in 0..100u64 {
            assert_eq!(stepped.on_event(), PmuOutcome::Quiet);
        }
        bulk.advance_quiet(100);
        assert_eq!(bulk.accesses(), stepped.accesses());
        assert_eq!(bulk.countdown(), stepped.countdown());
        // Walk both to the overflow: they fire on the same event and
        // re-arm with the same (RNG-drawn) next gap.
        let left = bulk.countdown();
        for k in 1..=left {
            let a = stepped.on_event();
            let b = bulk.on_event();
            assert_eq!(a, b);
            if k == left {
                assert_eq!(a, PmuOutcome::SampleHere);
            }
        }
        assert_eq!(bulk.countdown(), stepped.countdown());
    }

    #[test]
    fn determinism_by_seed() {
        let run = |seed| {
            let mut pmu = Pmu::new(SamplingConfig::precise(50), seed);
            (0..5000)
                .filter(|_| pmu.on_event() == PmuOutcome::SampleHere)
                .count()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = Pmu::new(
            SamplingConfig {
                period: 0,
                jitter: 0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "smaller than the period")]
    fn oversized_jitter_rejected() {
        let _ = Pmu::new(
            SamplingConfig {
                period: 10,
                jitter: 10,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PERIOD")]
    fn period_above_max_rejected() {
        let _ = Pmu::new(SamplingConfig::precise(MAX_PERIOD + 1), 0);
    }

    #[test]
    fn max_period_and_widest_jitter_draw_without_overflow() {
        // The widest gap range the assertions admit ends at u64::MAX.
        for seed in 0..64 {
            let pmu = Pmu::new(
                SamplingConfig {
                    period: MAX_PERIOD,
                    jitter: MAX_PERIOD - 1,
                },
                seed,
            );
            assert!(pmu.countdown() >= 1);
        }
        let mut pmu = Pmu::new(SamplingConfig::precise(MAX_PERIOD), 3);
        pmu.advance_quiet(pmu.countdown() - 1);
        assert_eq!(pmu.on_event(), PmuOutcome::SampleHere);
    }

    #[test]
    fn default_is_precise_64k() {
        let c = SamplingConfig::default();
        assert_eq!(c.period, 64 * 1024);
        assert!(c.jitter > 0);
    }
}
