//! Order statistics and process memory readings.

/// Median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// beyond it: the value with exactly that many larger samples, and its
/// percentile rank. `None` when there are too few samples.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = v.len() - 1 - TAIL_BEYOND;
    let pct = 100.0 * (i + 1) as f64 / v.len() as f64;
    Some((v[i], pct))
}

/// A `kB` field of `/proc/self/status`, in MiB.
#[must_use]
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:").unwrap_or(f64::NAN)
}

/// Returns the heap's free pages to the kernel, so that the resident
/// set counts only live data (glibc's `malloc_trim`; a no-op elsewhere).
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers and only releases pages
        // of free heap chunks.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Trims the heap and resets `VmHWM` to the current resident set, so
/// that [`peak_rss_mb`] reads the peak since this call; `false` where
/// the kernel refuses.
#[must_use]
pub fn reset_peak_rss() -> bool {
    trim_heap();
    // Writing 5 to clear_refs resets the peak RSS (Linux 4.0 and later).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set (`VmRSS`) in MiB.
#[must_use]
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:").unwrap_or(f64::NAN)
}

/// Host CPU time stolen from this machine so far (the `steal` column
/// of `/proc/stat`), in clock ticks; 0 where unavailable.
#[must_use]
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 10 samples (91..=100) lie beyond the 90th value.
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail(&xs[..10]), None);
    }
}
