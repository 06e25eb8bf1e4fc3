//! A reader that closes `rdx`'s stdout early (`rdx … | head`) ends the
//! command quietly: exit 0, nothing on stderr, no panic. Each command
//! here runs with a piped stdout whose read end is dropped at once, so
//! its first report line already meets a closed pipe.

use std::process::{Command, Stdio};

fn run_with_closed_stdout(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rdx"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rdx");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for rdx");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "rdx {args:?} panicked: {stderr}"
    );
    assert!(out.status.success(), "rdx {args:?} failed: {out:?}");
    assert!(stderr.is_empty(), "rdx {args:?} wrote to stderr: {stderr}");
}

#[test]
fn profile_ends_quietly_on_a_closed_stdout() {
    run_with_closed_stdout(&[
        "profile",
        "zipf",
        "--accesses",
        "200000",
        "--elements",
        "800",
        "--period",
        "512",
    ]);
}

#[test]
fn list_ends_quietly_on_a_closed_stdout() {
    run_with_closed_stdout(&["list"]);
}
