//! Shared experiment plumbing for the table/figure binaries.
//!
//! Every experiment binary in `src/bin/` regenerates one table or figure of
//! the paper (see `DESIGN.md` for the index). They share workload sizing,
//! profiling configs, a parallel sweep driver, and plain-text table output
//! through this crate.
//!
//! Scale knobs (all experiments honour them):
//!
//! * `RDX_ACCESSES` — accesses per workload (default 4 000 000).
//! * `RDX_ELEMENTS` — footprint in 8-byte elements (default 60 000).
//! * `RDX_PERIOD` — sampling period for accuracy experiments
//!   (default 2048; the overhead experiments always use the paper's 64 Ki
//!   operating point).
//! * `RDX_JOBS` — worker threads for parallel sweeps (default: the
//!   machine's available parallelism).
//!
//! The defaults keep the full suite under a minute; the paper-scale
//! configuration (`RDX_ACCESSES=134217728 RDX_PERIOD=65536`) reproduces the
//! headline operating point exactly at ~100× the runtime.

#![forbid(unsafe_code)]

use parking_lot::Mutex;
use rdx_core::{profile_batch, BatchTask, RdxConfig, RdxProfile};
use rdx_workloads::{suite, Params, WorkloadSpec};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Workload sizing for experiments, honouring the env overrides.
#[must_use]
pub fn experiment_params() -> Params {
    let mut p = Params::default().with_accesses(4_000_000);
    if let Some(v) = env_u64("RDX_ACCESSES") {
        p = p.with_accesses(v);
    }
    if let Some(v) = env_u64("RDX_ELEMENTS") {
        p = p.with_elements(v);
    }
    p
}

/// Profiler config for accuracy experiments (dense sampling so that the
/// default short runs still collect a few hundred pairs).
#[must_use]
pub fn accuracy_config() -> RdxConfig {
    let period = env_u64("RDX_PERIOD").unwrap_or(2048);
    RdxConfig::default().with_period(period)
}

/// Profiler config at the paper's headline operating point (period 64 Ki).
#[must_use]
pub fn paper_config() -> RdxConfig {
    RdxConfig::default()
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Worker-thread count for parallel sweeps: `RDX_JOBS` if set (≥ 1),
/// otherwise the machine's available parallelism.
#[must_use]
pub fn jobs() -> usize {
    env_u64("RDX_JOBS").map_or_else(rdx_core::default_jobs, |v| {
        usize::try_from(v.max(1)).unwrap_or(1)
    })
}

/// Runs `f` for every workload in the suite on a bounded pool of
/// [`jobs()`](jobs) threads, returning `(workload, result)` rows in
/// canonical suite order.
pub fn per_workload<T, F>(f: F) -> Vec<(&'static WorkloadSpec, T)>
where
    T: Send,
    F: Fn(&'static WorkloadSpec) -> T + Sync,
{
    per_workload_with_jobs(f, jobs())
}

/// [`per_workload`] with an explicit worker-thread cap.
pub fn per_workload_with_jobs<T, F>(f: F, jobs: usize) -> Vec<(&'static WorkloadSpec, T)>
where
    T: Send,
    F: Fn(&'static WorkloadSpec) -> T + Sync,
{
    let workloads = suite();
    let n = workloads.len();
    let jobs = jobs.clamp(1, n.max(1));
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let cursor = AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..jobs {
            let results = &results;
            let f = &f;
            let cursor = &cursor;
            scope.spawn(move |_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&workloads[i]);
                results.lock().push((i, r));
            });
        }
    })
    .expect("workload thread panicked");
    let mut rows = results.into_inner();
    rows.sort_by_key(|&(i, _)| i);
    rows.into_iter().map(|(i, r)| (&workloads[i], r)).collect()
}

/// Profiles every workload in the suite under `config` on at most `jobs`
/// threads via [`rdx_core::profile_batch`]; rows are in canonical suite
/// order and identical to a sequential run regardless of `jobs`.
#[must_use]
pub fn par_profile_suite(
    config: RdxConfig,
    params: &Params,
    jobs: usize,
) -> Vec<(&'static WorkloadSpec, RdxProfile)> {
    let params = *params;
    let tasks: Vec<_> = suite()
        .iter()
        .map(|w| BatchTask {
            config,
            make_stream: move || w.stream(&params),
        })
        .collect();
    suite().iter().zip(profile_batch(tasks, jobs)).collect()
}

/// Geometric mean of positive values (0 if empty or any non-positive).
#[must_use]
pub fn geo_mean(values: &[f64]) -> f64 {
    rdx_histogram::accuracy::geometric_mean(values).unwrap_or(0.0)
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<&str>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", out.trim_end());
    };
    line(headers.to_vec());
    line(widths.iter().map(|_| "---").collect());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Minimum wall time of `reps` runs of `f` (seconds, > 0) and the last
/// result — the standard best-of-N timing loop for the throughput
/// experiments.
pub fn time_min<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64().max(1e-9));
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

/// Timed repetitions for benchmark loops: `RDX_REPS` (≥ 1, default 3).
#[must_use]
pub fn reps() -> u32 {
    std::env::var("RDX_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Options shared by the benchmark binaries that support regression
/// checking (`exp_throughput`, `exp_decode`): `--check` compares fresh
/// numbers against the recorded baseline instead of rewriting it, and
/// `--tol <0..1>` overrides the allowed relative regression.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BenchArgs {
    /// Run in regression-check mode.
    pub check: bool,
    /// Explicit tolerance override (fraction of the recorded value).
    pub tol: Option<f64>,
}

/// Parses this process's command-line arguments into [`BenchArgs`].
///
/// # Errors
///
/// Returns a usage message for unknown flags, a missing or unparseable
/// `--tol` value, or a tolerance outside `[0, 1)`.
pub fn bench_args() -> Result<BenchArgs, String> {
    parse_bench_args(std::env::args().skip(1))
}

/// [`bench_args`] over an explicit argument iterator (testable form).
///
/// # Errors
///
/// Same conditions as [`bench_args`].
pub fn parse_bench_args(args: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::default();
    let mut it = args;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => out.check = true,
            "--tol" => {
                let value = it.next().ok_or("--tol needs a value")?;
                let tol: f64 = value
                    .parse()
                    .map_err(|_| format!("--tol must be a number in [0, 1) (got '{value}')"))?;
                if !(0.0..1.0).contains(&tol) {
                    return Err(format!("--tol must be in [0, 1) (got {tol})"));
                }
                out.tol = Some(tol);
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}' (expected [--check] [--tol <0..1>])"
                ))
            }
        }
    }
    Ok(out)
}

/// The `RDX_KERNEL` environment override for the kernel
/// microbenchmarks: `scalar` makes the measured side time the scalar
/// oracle instead of this host's production kernel, so its ratio over
/// the oracle drops to about 1. CI sets `RDX_KERNEL=scalar` to prove
/// the regression gate actually fails without the fast kernels. Unset
/// or `auto` times the production kernel.
///
/// # Panics
///
/// Panics when the variable is set to something other than
/// `auto|scalar` — a typo must not silently bench the default.
#[must_use]
pub fn kernel_override() -> bool {
    let Ok(value) = std::env::var("RDX_KERNEL") else {
        return false;
    };
    match value.as_str() {
        "auto" => false,
        "scalar" => true,
        _ => panic!("RDX_KERNEL must be auto or scalar (got '{value}')"),
    }
}

/// Reads the recorded benchmark baseline for `--check` mode:
/// `RDX_BENCH_BASELINE` if set, else `BENCH_rdx.json`.
///
/// # Errors
///
/// Propagates the [`std::io::Error`] from reading the file.
pub fn read_bench_baseline() -> std::io::Result<String> {
    let path = std::env::var("RDX_BENCH_BASELINE").unwrap_or_else(|_| "BENCH_rdx.json".into());
    std::fs::read_to_string(path)
}

/// Resolves the `--check` tolerance: an explicit `--tol` wins, then the
/// recorded section's `check_tolerance` field, then 0.25.
#[must_use]
pub fn resolve_tolerance(args_tol: Option<f64>, baseline: &str, section: &str) -> f64 {
    args_tol
        .or_else(|| json_number(baseline, &[section, "check_tolerance"]))
        .unwrap_or(0.25)
}

/// One regression check: passes when `fresh >= recorded × (1 − tol)` —
/// only a drop below the recorded value by more than the tolerance
/// band fails; being faster than recorded always passes. Prints the
/// verdict either way.
#[must_use]
pub fn check_metric(label: &str, fresh: f64, recorded: f64, tol: f64) -> bool {
    let floor = recorded * (1.0 - tol);
    let ok = fresh >= floor;
    println!(
        "check {label}: fresh {fresh:.3} vs recorded {recorded:.3} \
         (floor {floor:.3}, tolerance {}) ... {}",
        pct(tol),
        if ok { "ok" } else { "REGRESSION" }
    );
    ok
}

/// Walks `path` through nested JSON objects starting at `text` and
/// returns the raw text of the value it lands on. `None` when any step
/// is not an object or the key is absent.
#[must_use]
pub fn json_lookup(text: &str, path: &[&str]) -> Option<String> {
    let mut cur = text.trim().to_string();
    for key in path {
        cur = parse_top_level(&cur)?
            .into_iter()
            .find(|(k, _)| k == key)?
            .1;
    }
    Some(cur)
}

/// [`json_lookup`] specialised to a bare numeric leaf.
#[must_use]
pub fn json_number(text: &str, path: &[&str]) -> Option<f64> {
    json_lookup(text, path)?.parse().ok()
}

/// Rewrites one top-level section of the benchmark results file
/// (`BENCH_rdx.json`, path override `RDX_BENCH_OUT`), preserving every
/// other section so the experiment binaries can each own one key.
/// Returns the path written.
///
/// # Errors
///
/// Propagates the [`std::io::Error`] from writing the file.
pub fn update_bench_json(section: &str, body: &str) -> std::io::Result<String> {
    update_bench_json_at(&bench_out_path("BENCH_rdx.json"), section, body)
}

/// The benchmark results path: `RDX_BENCH_OUT` if set, else `default`.
#[must_use]
pub fn bench_out_path(default: &str) -> String {
    std::env::var("RDX_BENCH_OUT").unwrap_or_else(|_| default.into())
}

/// [`update_bench_json`] against an explicit path (check mode writes
/// its fresh numbers to a separate artifact file, not the baseline).
///
/// # Errors
///
/// Propagates the [`std::io::Error`] from writing the file.
pub fn update_bench_json_at(path: &str, section: &str, body: &str) -> std::io::Result<String> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, merge_json_section(&existing, section, body))?;
    Ok(path.to_string())
}

/// [`update_bench_json`], but any top-level key of the *recorded*
/// section listed in `keep_keys` that the new `body` does not produce
/// is carried over instead of destroyed — so a partial re-run (or a
/// hand-tuned `check_tolerance`) survives the merge.
///
/// # Errors
///
/// Propagates the [`std::io::Error`] from writing the file.
pub fn update_bench_json_keeping(
    section: &str,
    body: &str,
    keep_keys: &[&str],
) -> std::io::Result<String> {
    let out = bench_out_path("BENCH_rdx.json");
    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let body = keep_section_keys(&existing, section, body, keep_keys);
    std::fs::write(&out, merge_json_section(&existing, section, &body))?;
    Ok(out)
}

/// Returns `body` with every `keep_keys` entry that exists at the top
/// level of `existing`'s `section` but not in `body` appended to it.
/// Falls back to `body` verbatim when either side fails to parse as an
/// object or nothing needs keeping.
#[must_use]
pub fn keep_section_keys(existing: &str, section: &str, body: &str, keep_keys: &[&str]) -> String {
    let kept = json_lookup(existing, &[section])
        .and_then(|old| Some((parse_top_level(&old)?, parse_top_level(body)?)))
        .map(|(old_entries, mut new_entries)| {
            let mut added = false;
            for &key in keep_keys {
                if new_entries.iter().any(|(k, _)| k == key) {
                    continue;
                }
                if let Some(entry) = old_entries.iter().find(|(k, _)| k == key) {
                    new_entries.push(entry.clone());
                    added = true;
                }
            }
            (new_entries, added)
        });
    match kept {
        Some((entries, true)) => {
            let mut s = String::from("{\n");
            for (i, (key, value)) in entries.iter().enumerate() {
                let comma = if i + 1 == entries.len() { "" } else { "," };
                s.push_str(&format!("    \"{key}\": {value}{comma}\n"));
            }
            s.push_str("  }");
            s
        }
        _ => body.trim().to_string(),
    }
}

/// Returns `existing` (a JSON object, possibly empty or unparseable —
/// then treated as `{}`) with the top-level key `section` replaced by,
/// or appended as, `body` (a complete JSON value). The workspace
/// deliberately vendors no JSON crate, so this is a minimal structural
/// scan: it understands strings (with escapes) and balanced `{}`/`[]`,
/// which is all the hand-rolled benchmark output uses.
#[must_use]
pub fn merge_json_section(existing: &str, section: &str, body: &str) -> String {
    let mut entries = parse_top_level(existing).unwrap_or_default();
    let body = body.trim().to_string();
    if let Some(entry) = entries.iter_mut().find(|(k, _)| k == section) {
        entry.1 = body;
    } else {
        entries.push((section.to_string(), body));
    }
    let mut s = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("  \"{key}\": {value}{comma}\n"));
    }
    s.push_str("}\n");
    s
}

/// Splits the top level of a JSON object into `(key, raw value text)`
/// pairs. `None` when `existing` is not a single object.
fn parse_top_level(existing: &str) -> Option<Vec<(String, String)>> {
    let bytes = existing.as_bytes();
    let mut i = 0;
    skip_ws(bytes, &mut i);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    let mut entries = Vec::new();
    loop {
        skip_ws(bytes, &mut i);
        match bytes.get(i)? {
            b'}' => return Some(entries),
            b'"' => {
                let key = read_string(existing, &mut i)?;
                skip_ws(bytes, &mut i);
                if bytes.get(i) != Some(&b':') {
                    return None;
                }
                i += 1;
                skip_ws(bytes, &mut i);
                let start = i;
                read_value(existing, &mut i)?;
                entries.push((key, existing.get(start..i)?.trim().to_string()));
                skip_ws(bytes, &mut i);
                if bytes.get(i) == Some(&b',') {
                    i += 1;
                }
            }
            _ => return None,
        }
    }
}

fn skip_ws(bytes: &[u8], i: &mut usize) {
    while bytes.get(*i).is_some_and(u8::is_ascii_whitespace) {
        *i += 1;
    }
}

/// Reads the quoted string starting at `*i` (which must be `"`),
/// honouring backslash escapes; leaves `*i` just past the close quote.
fn read_string(s: &str, i: &mut usize) -> Option<String> {
    let bytes = s.as_bytes();
    let start = *i + 1;
    *i = start;
    while let Some(&b) = bytes.get(*i) {
        match b {
            b'\\' => *i += 2,
            b'"' => {
                let out = s.get(start..*i)?.to_string();
                *i += 1;
                return Some(out);
            }
            _ => *i += 1,
        }
    }
    None
}

/// Advances `*i` past one JSON value: a string, a balanced `{}`/`[]`
/// composite (string-aware), or a bare scalar.
fn read_value(s: &str, i: &mut usize) -> Option<()> {
    let bytes = s.as_bytes();
    match bytes.get(*i)? {
        b'"' => {
            read_string(s, i)?;
            Some(())
        }
        b'{' | b'[' => {
            let mut depth = 0usize;
            while let Some(&b) = bytes.get(*i) {
                match b {
                    b'"' => {
                        read_string(s, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth = depth.checked_sub(1)?;
                        if depth == 0 {
                            *i += 1;
                            return Some(());
                        }
                    }
                    _ => {}
                }
                *i += 1;
            }
            None
        }
        _ => {
            // Bare scalar: number / true / false / null.
            while bytes
                .get(*i)
                .is_some_and(|&b| !b.is_ascii_whitespace() && b != b',' && b != b'}' && b != b']')
            {
                *i += 1;
            }
            Some(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_workload_covers_suite_in_order() {
        let rows = per_workload(|w| w.name.len());
        assert_eq!(rows.len(), suite().len());
        for (i, (w, len)) in rows.iter().enumerate() {
            assert_eq!(w.name, suite()[i].name);
            assert_eq!(*len, w.name.len());
        }
    }

    #[test]
    fn per_workload_with_jobs_is_deterministic() {
        let one = per_workload_with_jobs(|w| w.name.to_string(), 1);
        let many = per_workload_with_jobs(|w| w.name.to_string(), 7);
        assert_eq!(one.len(), many.len());
        for ((wa, a), (wb, b)) in one.iter().zip(&many) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn par_profile_suite_matches_sequential() {
        let params = Params::default().with_accesses(10_000).with_elements(800);
        let config = RdxConfig::default().with_period(512);
        let seq = par_profile_suite(config, &params, 1);
        let par = par_profile_suite(config, &params, 4);
        assert_eq!(seq.len(), suite().len());
        for ((wa, a), (wb, b)) in seq.iter().zip(&par) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(a.rd, b.rd, "{}: rd mismatch across jobs", wa.name);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn geo_mean_basics() {
        assert_eq!(geo_mean(&[]), 0.0);
        assert!((geo_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0512), "5.1%");
    }

    #[test]
    fn default_params() {
        let p = experiment_params();
        assert!(p.accesses >= 1000);
        assert!(p.elements >= 1000);
    }

    #[test]
    fn merge_inserts_into_empty_or_garbage() {
        for existing in ["", "not json at all", "[1,2]"] {
            let merged = merge_json_section(existing, "decode", "{\"x\": 1}");
            assert_eq!(
                merged, "{\n  \"decode\": {\"x\": 1}\n}\n",
                "from {existing:?}"
            );
        }
    }

    #[test]
    fn merge_replaces_section_and_preserves_others() {
        let first = merge_json_section("", "throughput", "{\"max\": 5.7, \"rows\": [1, 2]}");
        let both = merge_json_section(&first, "decode", "{\"speedup\": 3.2}");
        assert!(both.contains("\"throughput\": {\"max\": 5.7, \"rows\": [1, 2]}"));
        assert!(both.contains("\"decode\": {\"speedup\": 3.2}"));
        let replaced = merge_json_section(&both, "throughput", "{\"max\": 9.9}");
        assert!(replaced.contains("\"throughput\": {\"max\": 9.9}"));
        assert!(!replaced.contains("5.7"));
        assert!(replaced.contains("\"decode\": {\"speedup\": 3.2}"));
    }

    #[test]
    fn merge_handles_nesting_strings_and_scalars() {
        let tricky = concat!(
            "{\n",
            "  \"a\": {\"s\": \"br{ace\\\" ]\", \"arr\": [{\"k\": [1, 2]}, 3]},\n",
            "  \"b\": true,\n",
            "  \"c\": -1.5e3\n",
            "}\n"
        );
        let merged = merge_json_section(tricky, "b", "false");
        assert!(merged.contains("\"a\": {\"s\": \"br{ace\\\" ]\", \"arr\": [{\"k\": [1, 2]}, 3]}"));
        assert!(merged.contains("\"b\": false"));
        assert!(merged.contains("\"c\": -1.5e3"));
        // Merging is idempotent-stable: a second merge of the same
        // section parses its own output.
        let again = merge_json_section(&merged, "b", "false");
        assert_eq!(merged, again);
    }

    #[test]
    fn merge_migrates_legacy_flat_file_by_keeping_keys() {
        // The pre-sectioned BENCH_rdx.json was one flat object; merging
        // a new section must not destroy the flat keys.
        let legacy =
            "{\n  \"accesses\": 4000000,\n  \"workloads\": [\n    {\"name\": \"x\"}\n  ]\n}\n";
        let merged = merge_json_section(legacy, "decode", "{\"ok\": 1}");
        assert!(merged.contains("\"accesses\": 4000000"));
        assert!(merged.contains("{\"name\": \"x\"}"));
        assert!(merged.contains("\"decode\": {\"ok\": 1}"));
    }

    #[test]
    fn time_min_returns_positive_and_result() {
        let (secs, out) = time_min(2, || 41 + 1);
        assert!(secs > 0.0);
        assert_eq!(out, 42);
    }

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        parse_bench_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn bench_args_parse_and_validate() {
        assert_eq!(args(&[]).unwrap(), BenchArgs::default());
        assert_eq!(
            args(&["--check"]).unwrap(),
            BenchArgs {
                check: true,
                tol: None
            }
        );
        let both = args(&["--check", "--tol", "0.1"]).unwrap();
        assert!(both.check);
        assert_eq!(both.tol, Some(0.1));
        assert!(args(&["--tol"]).unwrap_err().contains("needs a value"));
        assert!(args(&["--tol", "nope"]).unwrap_err().contains("number"));
        assert!(args(&["--tol", "1.5"]).unwrap_err().contains("[0, 1)"));
        assert!(args(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    const BASELINE: &str = concat!(
        "{\n",
        "  \"decode\": {\n",
        "    \"kernel\": \"swar\",\n",
        "    \"kernel_speedup\": 3.25,\n",
        "    \"check_tolerance\": 0.4,\n",
        "    \"decode_only\": {\"bulk_speedup\": 4.962}\n",
        "  }\n",
        "}\n"
    );

    #[test]
    fn json_lookup_walks_nested_objects() {
        assert_eq!(
            json_lookup(BASELINE, &["decode", "kernel"]).as_deref(),
            Some("\"swar\"")
        );
        assert_eq!(
            json_number(BASELINE, &["decode", "kernel_speedup"]),
            Some(3.25)
        );
        assert_eq!(
            json_number(BASELINE, &["decode", "decode_only", "bulk_speedup"]),
            Some(4.962)
        );
        assert_eq!(json_number(BASELINE, &["decode", "missing"]), None);
        assert_eq!(json_number(BASELINE, &["nope", "kernel_speedup"]), None);
        // Quoted strings are not numbers.
        assert_eq!(json_number(BASELINE, &["decode", "kernel"]), None);
    }

    #[test]
    fn resolve_tolerance_prefers_flag_then_recorded_then_default() {
        assert_eq!(resolve_tolerance(Some(0.1), BASELINE, "decode"), 0.1);
        assert_eq!(resolve_tolerance(None, BASELINE, "decode"), 0.4);
        assert_eq!(resolve_tolerance(None, BASELINE, "throughput"), 0.25);
        assert_eq!(resolve_tolerance(None, "", "decode"), 0.25);
    }

    #[test]
    fn check_metric_fails_only_below_the_band() {
        assert!(check_metric("m", 3.2, 3.25, 0.25)); // small dip: inside band
        assert!(check_metric("m", 9.9, 3.25, 0.25)); // faster always passes
        assert!(!check_metric("m", 1.0, 3.25, 0.25)); // collapse: below floor
        assert!(check_metric("m", 3.25 * 0.75, 3.25, 0.25)); // exactly at floor
    }

    #[test]
    fn keep_section_keys_restores_recorded_fields_missing_from_the_new_body() {
        // A decode-only re-run that (like an older binary) renders no
        // kernel/tolerance fields must not destroy the recorded ones.
        let body = "{\n    \"accesses\": 9,\n    \"decode_only\": {\"bulk_speedup\": 5.0}\n  }";
        let kept = keep_section_keys(
            BASELINE,
            "decode",
            body,
            &["kernel", "kernel_speedup", "check_tolerance"],
        );
        let merged = merge_json_section(BASELINE, "decode", &kept);
        assert_eq!(json_number(&merged, &["decode", "accesses"]), Some(9.0));
        assert_eq!(
            json_number(&merged, &["decode", "decode_only", "bulk_speedup"]),
            Some(5.0)
        );
        assert_eq!(
            json_lookup(&merged, &["decode", "kernel"]).as_deref(),
            Some("\"swar\"")
        );
        assert_eq!(
            json_number(&merged, &["decode", "kernel_speedup"]),
            Some(3.25)
        );
        assert_eq!(
            json_number(&merged, &["decode", "check_tolerance"]),
            Some(0.4)
        );
    }

    #[test]
    fn keep_section_keys_never_overrides_fresh_values() {
        let body = "{\n    \"kernel\": \"scalar\",\n    \"kernel_speedup\": 1.0\n  }";
        let kept = keep_section_keys(BASELINE, "decode", body, &["kernel", "kernel_speedup"]);
        assert_eq!(kept, body.trim());
        // No recorded section at all: body passes through verbatim.
        assert_eq!(
            keep_section_keys("", "decode", body, &["kernel"]),
            body.trim()
        );
        // Non-object body: untouched.
        assert_eq!(
            keep_section_keys(BASELINE, "decode", "42", &["kernel"]),
            "42"
        );
    }
}
