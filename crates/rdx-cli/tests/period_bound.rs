//! A sampling period above `MAX_PERIOD` (2^63) is a flag error, exit 1
//! with the `--period` message, not a panic in the PMU; the bound
//! itself still profiles.

use std::process::Command;

fn profile_with_period(period: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rdx"))
        .args(["profile", "zipf", "--accesses", "1000", "--period", period])
        .output()
        .expect("run rdx")
}

#[test]
fn period_above_the_bound_is_a_flag_error() {
    let out = profile_with_period("17000000000000000000");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("--period must be at most 2^63 (got 17000000000000000000)"),
        "{stderr}"
    );
}

#[test]
fn period_at_the_bound_profiles() {
    let out = profile_with_period("9223372036854775808");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("zipf"));
}
