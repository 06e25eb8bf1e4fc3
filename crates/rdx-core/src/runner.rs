//! The end-to-end driver: machine run → censoring correction → conversion.
//!
//! [`RdxRunner::profile`] runs a whole stream; a [`LiveProfile`] runs
//! the same pipeline pushed one slice at a time and answers snapshots
//! of the prefix so far. Both end in the one post-pass that turns the
//! profiler's raw observations into an [`RdxProfile`].

use crate::config::{CensoringCorrection, ConversionMethod, RdxConfig};
use crate::convert::WeightedFootprint;
use crate::km::{KaplanMeier, Observation};
use crate::profiler::RdxProfiler;
use crate::report::RdxProfile;
use memsim::{Machine, MachineRun, RunReport};
use rdx_histogram::{RdHistogram, ReuseDistance, ReuseTime, RtHistogram};
use rdx_trace::{Access, AccessStream};

/// Runs the RDX profiler over access streams.
///
/// Construct once per configuration and reuse across workloads; each
/// [`profile`](RdxRunner::profile) call is independent and deterministic.
#[derive(Debug, Clone)]
pub struct RdxRunner {
    config: RdxConfig,
}

impl RdxRunner {
    /// Creates a runner with the given configuration.
    #[must_use]
    pub fn new(config: RdxConfig) -> Self {
        RdxRunner { config }
    }

    /// The runner's configuration.
    #[must_use]
    pub fn config(&self) -> &RdxConfig {
        &self.config
    }

    /// Profiles one access stream, producing the estimated reuse-distance
    /// histogram and overhead accounting.
    pub fn profile(&self, stream: impl AccessStream) -> RdxProfile {
        let _profile_span = rdx_metrics::span("rdx.profile");
        let mut profiler = RdxProfiler::new(&self.config);
        let machine_span = rdx_metrics::span("machine");
        let report = Machine::new(self.config.machine).run(stream, &mut profiler);
        drop(machine_span);
        count_profile(&report);
        self.post_pass(&profiler, &report)
    }

    /// Starts a live profile: an empty machine run and profiler that
    /// accept accesses as they arrive (see [`LiveProfile`]).
    #[must_use]
    pub fn start(&self) -> LiveProfile {
        LiveProfile {
            runner: self.clone(),
            run: Machine::new(self.config.machine).start(),
            profiler: RdxProfiler::new(&self.config),
        }
    }

    /// The post-pass every profile ends in, over a finished machine run:
    /// Kaplan–Meier censoring correction, scaling to the run, footprint
    /// conversion and the histogram build.
    fn post_pass(&self, profiler: &RdxProfiler, report: &RunReport) -> RdxProfile {
        let cfg = &self.config;
        let n = report.counters.loads + report.counters.stores;

        // --- Censoring correction -------------------------------------
        // Two intertwined processes act on each armed watchpoint:
        //
        // * the *reuse* process — the block is accessed again at its reuse
        //   interval (an event we want the distribution of);
        // * the *eviction* process — register pressure disarms the
        //   watchpoint first (censoring, biased against long intervals).
        //
        // A Kaplan–Meier fit of the eviction process yields IPCW weights
        // `1/C_evict(t)` that de-bias the observed pairs; the cold bucket
        // is the IPCW-corrected count of watchpoints still armed at the
        // end of the run (last touches of their blocks).
        let censor_span = rdx_metrics::span("censor");
        let (pair_weights, cold_frac): (Vec<(u64, f64)>, f64) = match cfg.censoring {
            CensoringCorrection::None => {
                let resolved = profiler.completed.len() + profiler.end_censored.len();
                let cold = if resolved == 0 {
                    0.0
                } else {
                    profiler.end_censored.len() as f64 / resolved as f64
                };
                (
                    profiler
                        .completed
                        .iter()
                        .map(|p| (p.reuse_time, 1.0))
                        .collect(),
                    cold,
                )
            }
            CensoringCorrection::Ipcw => {
                let mut evict_obs: Vec<Observation> = Vec::with_capacity(
                    profiler.completed.len() + profiler.evicted.len() + profiler.end_censored.len(),
                );
                let mut reuse_obs: Vec<Observation> = Vec::with_capacity(evict_obs.capacity());
                for p in &profiler.completed {
                    let d = p.reuse_time + 1;
                    evict_obs.push(Observation {
                        duration: d,
                        evicted: false,
                    });
                    reuse_obs.push(Observation {
                        duration: d,
                        evicted: true, // a reuse-process *event*
                    });
                }
                for &d in &profiler.evicted {
                    evict_obs.push(Observation {
                        duration: d,
                        evicted: true,
                    });
                    reuse_obs.push(Observation {
                        duration: d,
                        evicted: false,
                    });
                }
                for &d in &profiler.end_censored {
                    evict_obs.push(Observation {
                        duration: d,
                        evicted: false,
                    });
                    reuse_obs.push(Observation {
                        duration: d,
                        evicted: false,
                    });
                }
                let km_evict = KaplanMeier::fit(&evict_obs);
                let pairs: Vec<(u64, f64)> = profiler
                    .completed
                    .iter()
                    .map(|p| (p.reuse_time, km_evict.inverse_weight(p.reuse_time + 1)))
                    .collect();
                // Cold bucket: IPCW-corrected count of samples that were
                // still armed (never reused) when the run ended — an
                // unbiased estimate of the last-touch fraction m/n.
                let cold_raw: f64 = profiler
                    .end_censored
                    .iter()
                    .map(|&d| km_evict.inverse_weight(d))
                    .sum();
                let pair_raw: f64 = pairs.iter().map(|&(_, w)| w).sum();
                let cold = if pair_raw + cold_raw > 0.0 {
                    cold_raw / (pair_raw + cold_raw)
                } else if reuse_obs.is_empty() {
                    0.0
                } else {
                    1.0
                };
                (pairs, cold)
            }
        };
        drop(censor_span);

        // --- Scale the sampled distribution to the full run -----------
        // Each access has exactly one reuse time (cold = infinite) and
        // samples are uniform over accesses: the finite portion carries
        // (1 − cold)·n total weight, the cold bucket m̂ = cold·n.
        let m_estimate = cold_frac.clamp(0.0, 1.0) * n as f64;
        let pair_total: f64 = pair_weights.iter().map(|&(_, w)| w).sum();
        let scale = if pair_total > 0.0 {
            (1.0 - cold_frac).max(0.0) * n as f64 / pair_total
        } else {
            0.0
        };

        // --- Time → distance conversion -------------------------------
        // One pass over the pairs feeds both histograms: the footprint
        // curve is built from a scaling iterator and each pair is scaled
        // once, recorded into rt, converted, and recorded into rd — no
        // intermediate scaled vector, no re-scan.
        let convert_span = rdx_metrics::span("convert");
        let fp = match cfg.conversion {
            ConversionMethod::Footprint => Some(WeightedFootprint::from_sampled_iter(
                n,
                m_estimate,
                pair_weights.iter().map(|&(t, w)| (t, w * scale)),
            )),
            ConversionMethod::TimeAsDistance => None,
        };
        let footprint_bytes = fp.as_ref().map_or(0, WeightedFootprint::memory_bytes);
        let mut rt = RtHistogram::new(cfg.binning);
        let mut rd = RdHistogram::new(cfg.binning);
        for &(t, w) in &pair_weights {
            let w = w * scale;
            rt.record(ReuseTime::finite(t), w);
            let d = match &fp {
                Some(fp) => fp.distance_of(t),
                None => ReuseDistance::finite(t),
            };
            rd.record(d, w);
        }
        if m_estimate > 0.0 {
            rt.record(ReuseTime::INFINITE, m_estimate);
            rd.record(ReuseDistance::INFINITE, m_estimate);
        }
        drop(convert_span);

        let profiler_bytes = cfg.machine.cost.profiler_fixed_bytes
            + profiler.memory_bytes() as u64
            + rd.as_histogram().memory_bytes() as u64
            + rt.as_histogram().memory_bytes() as u64
            + footprint_bytes as u64;

        RdxProfile {
            rd,
            rt,
            granularity: cfg.granularity,
            accesses: n,
            samples: report.ledger.samples,
            traps: report.ledger.traps,
            evictions: profiler.evicted.len() as u64,
            end_censored: profiler.end_censored.len() as u64,
            dropped_samples: profiler.dropped_samples,
            duplicate_samples: profiler.duplicate_samples,
            m_estimate,
            time_overhead: report.time_overhead(),
            profiler_bytes,
            cost: cfg.machine.cost,
        }
    }
}

/// Counts one finished profile (snapshots are not counted).
fn count_profile(report: &RunReport) {
    rdx_metrics::counter("rdx.runner.profiles").incr();
    rdx_metrics::counter("rdx.runner.accesses").add(report.counters.loads + report.counters.stores);
}

/// A profile under construction ([`RdxRunner::start`]): the machine run
/// and the profiler state, fed one slice of accesses at a time.
///
/// This is the push-style face of [`RdxRunner::profile`] for inputs
/// that arrive incrementally (a server session). A
/// [`snapshot`](LiveProfile::snapshot) finishes a clone of the state —
/// O(pairs observed), not O(accesses fed) — and equals
/// `RdxRunner::profile` of the accesses fed so far.
#[derive(Debug, Clone)]
pub struct LiveProfile {
    runner: RdxRunner,
    run: MachineRun,
    profiler: RdxProfiler,
}

impl LiveProfile {
    /// Runs the next stretch of the access stream.
    pub fn feed(&mut self, accesses: &[Access]) {
        self.run.feed(accesses, &mut self.profiler);
    }

    /// The profile of the accesses fed so far; the live state is left
    /// untouched and keeps accepting accesses.
    #[must_use]
    pub fn snapshot(&self) -> RdxProfile {
        let mut profiler = self.profiler.clone();
        let report = self.run.clone().finish(&mut profiler);
        self.runner.post_pass(&profiler, &report)
    }

    /// The final profile.
    #[must_use]
    pub fn finish(mut self) -> RdxProfile {
        let report = self.run.finish(&mut self.profiler);
        count_profile(&report);
        self.runner.post_pass(&self.profiler, &report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Trace;

    fn fixed(period: u64) -> RdxConfig {
        let mut c = RdxConfig::default().with_period(period);
        c.machine.sampling.jitter = 0;
        c
    }

    #[test]
    fn cyclic_trace_distance_estimate() {
        let k = 128u64;
        let trace = Trace::from_addresses("cyc", (0..200_000u64).map(|i| (i % k) * 8));
        let profile = RdxRunner::new(fixed(500)).profile(trace.stream());
        assert!(profile.traps > 300);
        // All reuses at distance k−1 = 127; the log2 bucket [64,128) or
        // [128,256) should hold essentially all finite weight.
        let h = profile.rd.as_histogram();
        let near = h.weight_for(127) + h.weight_for(128);
        assert!(
            near > 0.9 * h.finite_weight(),
            "estimate concentrated near 127: {near} of {}",
            h.finite_weight()
        );
        // m̂ should be small relative to n (few cold accesses)
        assert!(
            profile.cold_fraction() < 0.05,
            "{}",
            profile.cold_fraction()
        );
    }

    #[test]
    fn histogram_totals_scale_to_n() {
        let trace = Trace::from_addresses("t", (0..100_000u64).map(|i| (i % 50) * 8));
        let profile = RdxRunner::new(fixed(200)).profile(trace.stream());
        let total = profile.rd.total_weight();
        assert!(
            (total - profile.accesses as f64).abs() < 1e-6 * profile.accesses as f64,
            "rd total {total} vs n {}",
            profile.accesses
        );
        let rt_total = profile.rt.total_weight();
        assert!((rt_total - total).abs() < 1e-6 * total);
    }

    #[test]
    fn streaming_trace_is_all_cold() {
        let trace = Trace::from_addresses("s", (0..200_000u64).map(|i| i * 8));
        let profile = RdxRunner::new(fixed(1000)).profile(trace.stream());
        assert_eq!(profile.traps, 0);
        assert!(
            profile.cold_fraction() > 0.95,
            "{}",
            profile.cold_fraction()
        );
        assert_eq!(profile.rd.as_histogram().finite_weight(), 0.0);
    }

    #[test]
    fn empty_stream_profile() {
        let trace = Trace::new("e");
        let profile = RdxRunner::new(fixed(100)).profile(trace.stream());
        assert_eq!(profile.accesses, 0);
        assert_eq!(profile.samples, 0);
        assert!(profile.rd.as_histogram().is_empty());
        assert_eq!(profile.m_estimate, 0.0);
    }

    #[test]
    fn overhead_at_paper_operating_point() {
        // Period 64Ki on a reuse-heavy trace: ≈5% time overhead.
        let trace = Trace::from_addresses("o", (0..2_000_000u64).map(|i| (i % 1000) * 8));
        let profile = RdxRunner::new(RdxConfig::default()).profile(trace.stream());
        assert!(
            profile.time_overhead < 0.10,
            "overhead {} should be featherlight",
            profile.time_overhead
        );
        assert!(profile.instrumentation_slowdown() > 50.0);
    }

    #[test]
    fn conversion_method_changes_estimates() {
        // random uniform over 256 blocks: reuse times overestimate distances
        let addrs: Vec<u64> = {
            let mut x = 1234567u64;
            (0..300_000)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((x >> 33) % 256) * 8
                })
                .collect()
        };
        let trace = Trace::from_addresses("r", addrs);
        let fp_profile = RdxRunner::new(fixed(300)).profile(trace.stream());
        let naive_profile =
            RdxRunner::new(fixed(300).with_conversion(ConversionMethod::TimeAsDistance))
                .profile(trace.stream());
        let fp_mean = fp_profile.rd.as_histogram().finite_mean().unwrap();
        let naive_mean = naive_profile.rd.as_histogram().finite_mean().unwrap();
        // True mean distance for uniform-256 ≈ 255·(H(255)) style ≪ mean time.
        assert!(
            fp_mean < naive_mean,
            "footprint conversion must shrink naive times: {fp_mean} vs {naive_mean}"
        );
        // distances are bounded by the footprint (256)
        assert!(fp_mean <= 300.0, "{fp_mean}");
    }

    #[test]
    fn deterministic_profiles() {
        let trace = Trace::from_addresses("d", (0..100_000u64).map(|i| (i % 321) * 8));
        let a = RdxRunner::new(RdxConfig::default().with_period(500).with_seed(1))
            .profile(trace.stream());
        let b = RdxRunner::new(RdxConfig::default().with_period(500).with_seed(1))
            .profile(trace.stream());
        assert_eq!(a.rd, b.rd);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn censoring_correction_recovers_long_reuses() {
        // Two-scale trace: mostly short reuses + rare very long reuses.
        // Under FIFO eviction the long intervals get censored; IPCW should
        // recover more long-distance weight than no correction.
        let mut addrs = Vec::new();
        for i in 0..400_000u64 {
            if i % 50 == 0 {
                // slow cycle over 4000 "cold-ish" blocks → long reuse
                addrs.push((10_000 + (i / 50) % 4000) * 8);
            } else {
                // fast cycle over 8 hot blocks
                addrs.push((i % 8) * 8);
            }
        }
        let trace = Trace::from_addresses("two", addrs);
        let with = RdxRunner::new(fixed(97)).profile(trace.stream());
        let without = RdxRunner::new(fixed(97).with_censoring(CensoringCorrection::None))
            .profile(trace.stream());
        let tail = |p: &RdxProfile| {
            let h = p.rd.as_histogram();
            let fin = h.finite_weight();
            if fin == 0.0 {
                return 0.0;
            }
            h.buckets()
                .filter(|b| b.range.lo >= 256)
                .map(|b| b.weight)
                .sum::<f64>()
                / fin
        };
        assert!(
            tail(&with) >= tail(&without),
            "IPCW tail {} ≥ uncorrected tail {}",
            tail(&with),
            tail(&without)
        );
    }
}
