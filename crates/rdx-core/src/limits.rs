//! Shared validation of user-supplied numeric parameters.
//!
//! The CLI flags and the server's `OpenSession` options feed the same
//! machinery, so they share one set of bounds checks. Historically these
//! values were "fixed" silently downstream (`--registers 7` quietly
//! truncated to the 4-watchpoint machine); validating at the trust
//! boundary turns each misuse into a clear per-parameter error instead
//! of a silently different experiment.

use std::fmt;

/// The simulated machine models the x86 debug-register file: 4 slots.
pub const MAX_REGISTERS: usize = 4;

/// Largest accepted sampling period, 2^63: the PMU draws each gap from
/// `period ± period / 10`, which overflows a `u64` above ≈1.677e19, and
/// [`memsim::Pmu::new`] asserts this same bound.
pub use memsim::MAX_PERIOD;

/// A parameter outside its valid range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitError {
    /// Parameter name in flag spelling (`period`, `registers`, ...).
    pub param: &'static str,
    /// The requirement, as prose (`at least 1`, `between 1 and 4`).
    pub requirement: &'static str,
    /// The rejected value.
    pub got: u64,
}

impl fmt::Display for LimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} must be {} (got {})",
            self.param, self.requirement, self.got
        )
    }
}

impl std::error::Error for LimitError {}

/// Validates a sampling period: the PMU cannot sample every 0
/// accesses, nor draw a jittered gap above [`MAX_PERIOD`].
///
/// # Errors
///
/// [`LimitError`] if `period` is 0 or exceeds [`MAX_PERIOD`].
pub fn check_period(period: u64) -> Result<u64, LimitError> {
    let requirement = match period {
        0 => "at least 1",
        p if p > MAX_PERIOD => "at most 2^63",
        _ => return Ok(period),
    };
    Err(LimitError {
        param: "period",
        requirement,
        got: period,
    })
}

/// Validates a debug-register count against the 4-slot machine model.
///
/// # Errors
///
/// [`LimitError`] if `registers` is 0 or exceeds [`MAX_REGISTERS`].
pub fn check_registers(registers: usize) -> Result<usize, LimitError> {
    if registers == 0 || registers > MAX_REGISTERS {
        return Err(LimitError {
            param: "registers",
            requirement: "between 1 and 4",
            got: registers as u64,
        });
    }
    Ok(registers)
}

/// Validates a worker count.
///
/// # Errors
///
/// [`LimitError`] if `jobs` is 0.
pub fn check_jobs(jobs: usize) -> Result<usize, LimitError> {
    if jobs == 0 {
        return Err(LimitError {
            param: "jobs",
            requirement: "at least 1",
            got: 0,
        });
    }
    Ok(jobs)
}

/// Validates an access-count parameter (`Params::with_accesses` panics
/// on 0, so the boundary must reject it first).
///
/// # Errors
///
/// [`LimitError`] if `accesses` is 0.
pub fn check_accesses(accesses: u64) -> Result<u64, LimitError> {
    if accesses == 0 {
        return Err(LimitError {
            param: "accesses",
            requirement: "at least 1",
            got: 0,
        });
    }
    Ok(accesses)
}

/// Validates an element-count parameter (`Params::with_elements` panics
/// on 0, so the boundary must reject it first).
///
/// # Errors
///
/// [`LimitError`] if `elements` is 0.
pub fn check_elements(elements: u64) -> Result<u64, LimitError> {
    if elements == 0 {
        return Err(LimitError {
            param: "elements",
            requirement: "at least 1",
            got: 0,
        });
    }
    Ok(elements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_enforced() {
        assert!(check_period(0).is_err());
        assert_eq!(check_period(1), Ok(1));
        assert_eq!(check_period(1 << 20), Ok(1 << 20));

        assert!(check_registers(0).is_err());
        assert_eq!(check_registers(1), Ok(1));
        assert_eq!(check_registers(4), Ok(4));
        assert!(check_registers(5).is_err());

        assert!(check_jobs(0).is_err());
        assert_eq!(check_jobs(8), Ok(8));

        assert!(check_accesses(0).is_err());
        assert_eq!(check_accesses(1), Ok(1));
        assert!(check_elements(0).is_err());
        assert_eq!(check_elements(1 << 30), Ok(1 << 30));
    }

    #[test]
    fn errors_name_the_parameter_and_value() {
        let e = check_registers(7).unwrap_err();
        assert_eq!(e.to_string(), "registers must be between 1 and 4 (got 7)");
        let e = check_period(0).unwrap_err();
        assert_eq!(e.to_string(), "period must be at least 1 (got 0)");
        let e = check_jobs(0).unwrap_err();
        assert_eq!(e.param, "jobs");
        assert_eq!(e.got, 0);
        let e = check_accesses(0).unwrap_err();
        assert_eq!(e.to_string(), "accesses must be at least 1 (got 0)");
        let e = check_elements(0).unwrap_err();
        assert_eq!(e.param, "elements");
    }

    #[test]
    fn period_bound_is_where_the_jittered_gap_still_fits() {
        assert_eq!(MAX_PERIOD, 1 << 63);
        assert_eq!(check_period(MAX_PERIOD), Ok(MAX_PERIOD));
        assert_eq!(check_period(MAX_PERIOD - 1), Ok(MAX_PERIOD - 1));
        // The largest accepted period builds a PMU: its widest gap fits.
        assert!(MAX_PERIOD.checked_add(MAX_PERIOD / 10).is_some());
        let _ = memsim::Pmu::new(memsim::SamplingConfig::precise(MAX_PERIOD), 1);
        let above = check_period(MAX_PERIOD + 1).unwrap_err();
        assert_eq!(above.param, "period");
        assert_eq!(above.got, MAX_PERIOD + 1);
        let huge = check_period(17_000_000_000_000_000_000).unwrap_err();
        assert_eq!(
            huge.to_string(),
            "period must be at most 2^63 (got 17000000000000000000)"
        );
        assert!(check_period(u64::MAX).is_err());
    }
}
