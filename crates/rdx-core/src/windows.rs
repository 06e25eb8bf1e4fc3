//! Windowed (phase-aware) profiling — an extension beyond the paper.
//!
//! The footprint conversion assumes the reuse-time distribution is
//! homogeneous over the run; phase-changing programs (the `phased` kernel,
//! compilers, servers with shifting working sets) violate that and are the
//! profiler's weakest case. The standard remedy is to profile in windows:
//! each window gets its own samples, censoring correction and footprint
//! curve, so conversion happens against phase-local statistics, and the
//! sequence of per-window histograms doubles as a phase-change detector
//! (see the `production_monitor` example).

use crate::report::RdxProfile;
use crate::runner::RdxRunner;
use rdx_histogram::accuracy::total_variation;
use rdx_histogram::RdHistogram;
use rdx_trace::AccessStream;

/// A sequence of per-window profiles plus merged totals.
#[derive(Debug, Clone)]
pub struct WindowedProfile {
    /// Per-window profiles, in stream order. The final window may cover
    /// fewer accesses than the window length.
    pub windows: Vec<RdxProfile>,
    /// The union histogram: per-window reuse-distance histograms merged
    /// (weights add; totals equal the whole run's access count).
    pub merged_rd: RdHistogram,
}

impl WindowedProfile {
    /// Total accesses across all windows.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.windows.iter().map(|w| w.accesses).sum()
    }

    /// Total-variation divergence between consecutive windows' normalized
    /// reuse-distance histograms — the phase-change signal. Entry `i`
    /// compares windows `i` and `i+1`.
    #[must_use]
    pub fn phase_divergences(&self) -> Vec<f64> {
        self.windows
            .windows(2)
            .map(|pair| {
                total_variation(pair[0].rd.as_histogram(), pair[1].rd.as_histogram())
                    .expect("windows share the configured binning")
            })
            .collect()
    }

    /// Indices `i` where the divergence between windows `i` and `i+1`
    /// exceeds `threshold` — detected phase boundaries.
    #[must_use]
    pub fn phase_changes(&self, threshold: f64) -> Vec<usize> {
        self.phase_divergences()
            .iter()
            .enumerate()
            .filter(|&(_, d)| *d > threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

impl RdxRunner {
    /// Profiles a stream in consecutive windows of `window_accesses`
    /// accesses each, producing phase-local histograms.
    ///
    /// Each window restarts the profiler (watchpoints armed across a
    /// boundary are accounted to the earlier window as end-censored), so
    /// windows are independent and individually correct; the merged
    /// histogram is their weight sum.
    ///
    /// # Panics
    ///
    /// Panics if `window_accesses` is zero.
    pub fn profile_windows(
        &self,
        mut stream: impl AccessStream,
        window_accesses: u64,
    ) -> WindowedProfile {
        assert!(window_accesses > 0, "window length must be non-zero");
        let mut windows = Vec::new();
        let mut merged_rd = RdHistogram::new(self.config().binning);
        let window = usize::try_from(window_accesses).unwrap_or(usize::MAX);
        loop {
            let mut live = self.start();
            let mut left = window;
            while left > 0 {
                let Some(chunk) = stream.next_chunk(left) else {
                    break;
                };
                left -= chunk.len();
                live.feed(chunk);
            }
            if left == window {
                break;
            }
            let profile = live.finish();
            merged_rd
                .merge(&profile.rd)
                .expect("windows share the configured binning");
            windows.push(profile);
            if left > 0 {
                break;
            }
        }
        WindowedProfile { windows, merged_rd }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RdxConfig;
    use rdx_trace::Trace;

    fn two_phase_trace() -> Trace {
        // phase 1: tight 8-block loop; phase 2: wide 4000-block loop
        let mut addrs = Vec::new();
        for i in 0..400_000u64 {
            addrs.push((i % 8) * 8);
        }
        for i in 0..400_000u64 {
            addrs.push((10_000 + i % 4000) * 8);
        }
        Trace::from_addresses("phases", addrs)
    }

    fn runner() -> RdxRunner {
        let mut cfg = RdxConfig::default().with_period(512);
        cfg.machine.sampling.jitter = 51;
        RdxRunner::new(cfg)
    }

    #[test]
    fn windows_cover_whole_stream() {
        let trace = two_phase_trace();
        let wp = runner().profile_windows(trace.stream(), 100_000);
        assert_eq!(wp.windows.len(), 8);
        assert_eq!(wp.accesses(), 800_000);
        assert!((wp.merged_rd.total_weight() - 800_000.0).abs() < 1.0);
    }

    #[test]
    fn ragged_final_window() {
        let trace = Trace::from_addresses("r", (0..250_000u64).map(|i| (i % 100) * 8));
        let wp = runner().profile_windows(trace.stream(), 100_000);
        assert_eq!(wp.windows.len(), 3);
        assert_eq!(wp.windows[2].accesses, 50_000);
    }

    #[test]
    fn detects_the_phase_boundary() {
        let trace = two_phase_trace();
        let wp = runner().profile_windows(trace.stream(), 100_000);
        let changes = wp.phase_changes(0.5);
        // the single real phase change is between windows 3 and 4
        assert_eq!(
            changes,
            vec![3],
            "divergences: {:?}",
            wp.phase_divergences()
        );
    }

    #[test]
    fn windowed_beats_global_on_phased_mix() {
        // Phase-local conversion should estimate the tight loop's small
        // distances and the wide loop's large distances separately; the
        // merged histogram must show substantial mass in both regions.
        let trace = two_phase_trace();
        let wp = runner().profile_windows(trace.stream(), 100_000);
        let h = wp.merged_rd.as_histogram();
        let small: f64 = h
            .buckets()
            .filter(|b| b.range.hi <= 64)
            .map(|b| b.weight)
            .sum();
        let large: f64 = h
            .buckets()
            .filter(|b| b.range.lo >= 1024)
            .map(|b| b.weight)
            .sum();
        let fin = h.finite_weight();
        assert!(
            small > 0.3 * fin,
            "small-distance phase visible: {small} of {fin}"
        );
        assert!(
            large > 0.3 * fin,
            "large-distance phase visible: {large} of {fin}"
        );
    }

    /// A window may end inside a generator's 64 Ki buffer: each
    /// window's profile still equals `profile` of exactly that window's
    /// accesses, bit for bit. 1 000-access windows end mid-buffer
    /// throughout; 70 000-access windows cross the buffer edges at
    /// 65 536 and 131 072.
    #[test]
    fn windows_cut_through_generator_chunks() {
        use rdx_workloads::{by_name, Params};
        let params = Params::default()
            .with_accesses(150_000)
            .with_elements(5000)
            .with_seed(3);
        let r = runner();
        for name in ["zipf", "spmv"] {
            let w = by_name(name).expect("registry kernel");
            let whole = Trace::from_stream(name, w.stream(&params));
            for window in [1_000usize, 70_000] {
                let wp = r.profile_windows(w.stream(&params), window as u64);
                assert_eq!(wp.windows.len(), 150_000usize.div_ceil(window));
                for (i, got) in wp.windows.iter().enumerate() {
                    let start = i * window;
                    let end = whole.len().min(start + window);
                    let sub: Trace = whole
                        .accesses()
                        .slice(start..end)
                        .iter()
                        .map(|a| (a.addr.raw(), a.kind.is_store()))
                        .collect();
                    let want = r.profile(sub.stream());
                    let label = format!("{name} window {i} of {window}");
                    assert_eq!(got, &want, "{label}");
                    assert_eq!(
                        got.m_estimate.to_bits(),
                        want.m_estimate.to_bits(),
                        "{label}"
                    );
                    assert_eq!(
                        got.time_overhead.to_bits(),
                        want.time_overhead.to_bits(),
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let trace = Trace::new("e");
        let _ = runner().profile_windows(trace.stream(), 0);
    }
}
