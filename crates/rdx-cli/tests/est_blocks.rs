//! `est. blocks` never prints as `-0`. With no watchpoint end-censored
//! the profile's `m_estimate` is −0.0, and `{:.0}` formats that as
//! `-0`; the CLI normalises it at every print site. These settings
//! leave `zipf` (and, in the suite, several other workloads) with
//! nothing end-censored.

use std::process::Command;

const SETTINGS: &[&str] = &[
    "--accesses",
    "60000",
    "--elements",
    "800",
    "--period",
    "512",
    "--seed",
    "7",
];

fn rdx(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rdx"))
        .args(args)
        .args(SETTINGS)
        .output()
        .expect("run rdx");
    assert!(out.status.success(), "rdx {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn assert_no_negative_zero(stdout: &str) {
    for line in stdout.lines() {
        assert!(
            !line
                .split(|c: char| c.is_whitespace() || c == ',')
                .any(|field| field == "-0"),
            "negative zero in: {line}"
        );
    }
}

#[test]
fn est_blocks_prints_no_negative_zero() {
    let profile = rdx(&["profile", "zipf"]);
    assert!(profile.contains("est. blocks     : 0\n"), "{profile}");
    assert_no_negative_zero(&profile);
    for suite in [rdx(&["suite"]), rdx(&["suite", "--csv"])] {
        assert!(suite.lines().any(|l| l.starts_with("zipf")), "{suite}");
        assert_no_negative_zero(&suite);
    }
}
