//! `rdx` — profile a workload's reuse distances from the command line.
//!
//! ```text
//! rdx list
//! rdx profile <workload|file.rdxt> [--accesses N] [--elements N]
//!             [--period N] [--seed N] [--registers N] [--jobs N]
//!             [--exact] [--mrc] [--csv] [--metrics] [--save file.rdxp]
//! rdx suite [file.rdxt ...] [--accesses N] [--elements N] [--period N]
//!           [--seed N] [--jobs N] [--csv] [--metrics]
//!           [--merge] [--out file.rdxp]
//! rdx merge <file.rdxp ...> [--out file.rdxp] [--csv] [--mrc]
//! rdx trace <file> [--metrics]
//! rdx serve --listen <addr|socket-path> [--max-conns N]
//!           [--max-session-bytes N]
//! rdx client <addr|socket-path> <workload|file.rdxt> [--accesses N]
//!            [--elements N] [--period N] [--seed N] [--registers N]
//!            [--chunk-bytes N] [--aggregate N] [--crosscheck] [--metrics]
//! rdx sim [--seed N] [--schedules N] [--faults LIST]
//! rdx static <kernel> [--accesses N] [--elements N] [--seed N]
//!            [--exact] [--mrc] [--csv] [--metrics]
//! ```
//!
//! `profile` accepts either a registry workload name or a path to a
//! serialized RDXT trace; `suite` profiles the whole registry, or — when
//! leading file arguments are given — each trace file in parallel. File
//! inputs stream through the same decode-and-profile loop as a server
//! session, read in fixed 64 KiB blocks and decoded in fixed batches,
//! so no command holds a whole trace file.
//!
//! Profiles are a merge monoid: `profile --save` writes a profile in
//! the versioned RDXP wire format, `merge` folds RDXP files from disk
//! into one fleet profile (in command-line order, bit-identical to
//! chained pairwise merges), and `suite --merge` appends the whole
//! registry's fleet profile — `--out` writes it as RDXP for a later
//! `rdx merge`. Incompatible inputs
//! (version, binning, granularity, or cost-model mismatches) are typed
//! errors naming both sides, never panics.
//!
//! The hot loops take no flag: the needle scanner runs AVX2 where the
//! host has it and its scalar loop elsewhere, and the varint decoder
//! reads 64-byte blocks through BMI2 `pext` where the host runs it fast
//! and portable integer gathers elsewhere. Every loop is bit-identical
//! to its scalar oracle,
//! so the host changes speed, never output.
//!
//! `serve` runs the long-lived framed profiling daemon from
//! `rdx-server`; `client` streams a workload or trace file to such a
//! daemon in `--chunk-bytes`-sized pieces and prints the profile the
//! server measured. `--crosscheck` additionally profiles the same bytes
//! locally and fails unless the two profiles are bit-identical.
//!
//! Numeric flags are validated at parse time against
//! `rdx_core::limits` — `--period 0` or `--registers 7` is a flag
//! error, not a silently adjusted experiment — and the server applies
//! the same checks to session options arriving over the wire.
//!
//! `--jobs N` parallelizes: `suite` fans workloads over `N` profiler
//! threads (deterministic, same output as `--jobs 1`), and `profile
//! --exact` measures ground truth with `N` shards.
//!
//! `sim` runs the deterministic simulation suite from `rdx-sim`: the
//! concurrent paths (batch dispatch, server sessions) driven step by
//! step under seeded schedules and chunkings with fault injection. A
//! violation prints the seed that replays it and exits nonzero.
//! `--faults` takes `all`, `none`, or a comma-separated subset of
//! `truncate`, `overlong`, `batch-panic`, `session-disorder`.
//!
//! `static` estimates an affine kernel's reuse profile symbolically
//! (`rdx-static`) without generating or executing a single access:
//! `--mrc` pushes the estimate through `rdx-cache::predict` for
//! trace-free miss-ratio what-ifs, `--exact` compares against exact
//! Olken ground truth, and `--metrics` proves the zero-access claim by
//! crosschecking that every trace/profiler counter stayed zero.
//! Non-affine workloads are rejected with a typed explanation.
//!
//! `--metrics` appends a JSON observability report (from `rdx-metrics`)
//! that crosschecks the registry counters against the profile fields;
//! a mismatch is a failure. `rdx trace <file>` validates a serialized
//! trace by streaming it through the incremental decoder in the same
//! blocks, reporting decode throughput and batch statistics — and
//! decode errors instead of crashing on corrupt input.

#![forbid(unsafe_code)]

use rdx_core::{
    load_rdxt, profile_batch, profile_rdxt_batch, BatchTask, IngestOptions, RdxConfig, RdxProfile,
    RdxRunner, RdxtInput, BLOCK_LEN,
};
use rdx_groundtruth::{ExactProfile, ShardedExact};
use rdx_histogram::accuracy::histogram_intersection;
use rdx_histogram::{Binning, Histogram};
use rdx_trace::{AccessBuf, Granularity, RdxtDecoder, DEFAULT_CHUNK_CAPACITY};
use rdx_workloads::{by_name, suite, Params, WorkloadSpec};
use std::io::{self, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rdx list\n  rdx profile <workload|file.rdxt> [--accesses N] \
         [--elements N] [--period N]\n              [--seed N] [--registers N] [--jobs N] \
         [--exact] [--mrc] [--csv] [--metrics]\n              [--save file.rdxp]\n  \
         rdx suite [file.rdxt ...] [--accesses N] \
         [--elements N] [--period N] [--seed N]\n            [--jobs N] [--csv] [--metrics] \
         [--merge] [--out file.rdxp]\n  \
         rdx merge <file.rdxp ...> [--out file.rdxp] [--csv] [--mrc]\n  \
         rdx trace <file> [--metrics]\n  \
         rdx serve --listen <addr|socket-path> [--max-conns N] [--max-session-bytes N]\n  \
         rdx client <addr|socket-path> <workload|file.rdxt> [--accesses N] [--elements N]\n             \
         [--period N] [--seed N] [--registers N] [--chunk-bytes N]\n             \
         [--aggregate N] [--crosscheck] [--metrics]\n  \
         rdx sim [--seed N] [--schedules N] [--faults LIST]\n  \
         rdx static <kernel> [--accesses N] [--elements N] [--seed N]\n             \
         [--exact] [--mrc] [--csv] [--metrics]"
    );
    ExitCode::FAILURE
}

/// Runs the command with every report written to one locked stdout.
/// A reader that closes the pipe early (`rdx … | head`) ends the
/// command quietly with success; any other write error fails it.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing the report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    match args.first().map(String::as_str) {
        Some("list") => {
            writeln!(out, "{:16} {:32} description", "name", "spec analog")?;
            for w in suite() {
                writeln!(out, "{:16} {:32} {}", w.name, w.spec_analog, w.description)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("profile") => profile(&args[1..], out),
        Some("suite") => suite_cmd(&args[1..], out),
        Some("merge") => merge_cmd(&args[1..], out),
        Some("trace") => trace_cmd(&args[1..], out),
        Some("serve") => serve_cmd(&args[1..], out),
        Some("client") => client_cmd(&args[1..], out),
        Some("sim") => sim_cmd(&args[1..], out),
        Some("static") => static_cmd(&args[1..], out),
        _ => Ok(usage()),
    }
}

/// Parsed command-line options, filled by a single left-to-right scan.
#[derive(Debug, Default, PartialEq, Eq)]
struct Opts {
    accesses: Option<u64>,
    elements: Option<u64>,
    seed: Option<u64>,
    period: Option<u64>,
    registers: Option<u64>,
    jobs: Option<u64>,
    chunk_bytes: Option<u64>,
    aggregate: Option<u64>,
    save: Option<String>,
    out: Option<String>,
    exact: bool,
    mrc: bool,
    csv: bool,
    metrics: bool,
    crosscheck: bool,
    merge: bool,
}

impl Opts {
    /// Parses `args` strictly left to right. Flags not in `allowed` are
    /// rejected, as is any flag given twice; every value flag consumes
    /// exactly the argument that follows it.
    fn parse(args: &[String], allowed: &[&str]) -> Result<Opts, String> {
        let mut opts = Opts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            if !allowed.contains(&flag) {
                return Err(format!("unknown flag '{flag}'"));
            }
            match flag {
                "--exact" | "--mrc" | "--csv" | "--metrics" | "--crosscheck" | "--merge" => {
                    let slot = match flag {
                        "--exact" => &mut opts.exact,
                        "--mrc" => &mut opts.mrc,
                        "--metrics" => &mut opts.metrics,
                        "--crosscheck" => &mut opts.crosscheck,
                        "--merge" => &mut opts.merge,
                        _ => &mut opts.csv,
                    };
                    if *slot {
                        return Err(format!("duplicate flag '{flag}'"));
                    }
                    *slot = true;
                }
                "--save" | "--out" => {
                    let slot = if flag == "--save" {
                        &mut opts.save
                    } else {
                        &mut opts.out
                    };
                    if slot.is_some() {
                        return Err(format!("duplicate flag '{flag}'"));
                    }
                    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    *slot = Some(value.clone());
                }
                _ => {
                    let slot = match flag {
                        "--accesses" => &mut opts.accesses,
                        "--elements" => &mut opts.elements,
                        "--seed" => &mut opts.seed,
                        "--period" => &mut opts.period,
                        "--registers" => &mut opts.registers,
                        "--jobs" => &mut opts.jobs,
                        "--chunk-bytes" => &mut opts.chunk_bytes,
                        "--aggregate" => &mut opts.aggregate,
                        _ => unreachable!("allowed flags are handled above"),
                    };
                    if slot.is_some() {
                        return Err(format!("duplicate flag '{flag}'"));
                    }
                    let value = it
                        .next()
                        .ok_or_else(|| format!("{flag} needs a value"))?
                        .parse::<u64>()
                        .map_err(|e| format!("{flag}: {e}"))?;
                    *slot = Some(value);
                }
            }
        }
        opts.validate()?;
        Ok(opts)
    }

    /// Bounds-checks every numeric flag against `rdx_core::limits` at
    /// parse time, so `--period 0` or `--registers 7` is a flag error
    /// here rather than a silently clamped experiment downstream. The
    /// server applies the same checks to options arriving over the wire.
    fn validate(&self) -> Result<(), String> {
        use rdx_core::limits::{
            check_accesses, check_elements, check_jobs, check_period, check_registers,
        };
        let err = |e: rdx_core::LimitError| format!("--{e}");
        if let Some(v) = self.accesses {
            check_accesses(v).map_err(err)?;
        }
        if let Some(v) = self.elements {
            check_elements(v).map_err(err)?;
        }
        if let Some(v) = self.period {
            check_period(v).map_err(err)?;
        }
        if let Some(v) = self.registers {
            check_registers(usize::try_from(v).unwrap_or(usize::MAX)).map_err(err)?;
        }
        if let Some(v) = self.jobs {
            check_jobs(usize::try_from(v).unwrap_or(usize::MAX)).map_err(err)?;
        }
        if self.chunk_bytes == Some(0) {
            return Err("--chunk-bytes must be at least 1 (got 0)".to_string());
        }
        if let Some(v) = self.aggregate {
            if !(1..=64).contains(&v) {
                return Err(format!("--aggregate must be between 1 and 64 (got {v})"));
            }
        }
        Ok(())
    }

    fn params(&self) -> Params {
        let mut p = Params::default().with_accesses(4_000_000);
        if let Some(v) = self.accesses {
            p = p.with_accesses(v);
        }
        if let Some(v) = self.elements {
            p = p.with_elements(v);
        }
        if let Some(v) = self.seed {
            p = p.with_seed(v);
        }
        p
    }

    fn config(&self) -> RdxConfig {
        let mut c = RdxConfig::default().with_period(self.period.unwrap_or(2048));
        if let Some(v) = self.seed {
            c = c.with_seed(v);
        }
        if let Some(v) = self.registers {
            c = c.with_registers(v as usize);
        }
        c
    }

    fn jobs(&self) -> usize {
        match self.jobs {
            Some(v) => usize::try_from(v.max(1)).unwrap_or(1),
            None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

const PROFILE_FLAGS: &[&str] = &[
    "--accesses",
    "--elements",
    "--seed",
    "--period",
    "--registers",
    "--jobs",
    "--exact",
    "--mrc",
    "--csv",
    "--metrics",
    "--save",
];

const SUITE_FLAGS: &[&str] = &[
    "--accesses",
    "--elements",
    "--seed",
    "--period",
    "--jobs",
    "--csv",
    "--metrics",
    "--merge",
    "--out",
];

const MERGE_FLAGS: &[&str] = &["--out", "--csv", "--mrc"];

const TRACE_FLAGS: &[&str] = &["--metrics"];

const STATIC_FLAGS: &[&str] = &[
    "--accesses",
    "--elements",
    "--seed",
    "--exact",
    "--mrc",
    "--csv",
    "--metrics",
];

const CLIENT_FLAGS: &[&str] = &[
    "--accesses",
    "--elements",
    "--seed",
    "--period",
    "--registers",
    "--chunk-bytes",
    "--aggregate",
    "--crosscheck",
    "--metrics",
];

fn profile(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let Some(name) = args.first() else {
        return Ok(usage());
    };
    if name.starts_with("--") {
        return Ok(usage());
    }
    let opts = match Opts::parse(&args[1..], PROFILE_FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if let Some(workload) = by_name(name) {
        return profile_workload(workload, &opts, out);
    }
    if std::path::Path::new(name).exists() {
        return profile_file(name, &opts, out);
    }
    eprintln!("unknown workload '{name}' and no such trace file; try `rdx list`");
    Ok(ExitCode::FAILURE)
}

fn profile_workload(
    workload: &WorkloadSpec,
    opts: &Opts,
    out: &mut dyn Write,
) -> io::Result<ExitCode> {
    let params = opts.params();
    let config = opts.config();
    let csv = opts.csv;

    if opts.metrics {
        rdx_metrics::reset();
    }
    let profile = RdxRunner::new(config).profile(workload.stream(&params));
    if !csv {
        writeln!(
            out,
            "workload        : {} ({})",
            workload.name, workload.spec_analog
        )?;
        writeln!(out, "accesses        : {}", profile.accesses)?;
        writeln!(
            out,
            "samples/traps   : {} / {}",
            profile.samples, profile.traps
        )?;
        writeln!(
            out,
            "est. blocks     : {:.0}",
            est_blocks(profile.m_estimate)
        )?;
        writeln!(
            out,
            "time overhead   : {:.2}%",
            profile.time_overhead * 100.0
        )?;
        writeln!(
            out,
            "memory overhead : {:.2}% (of {} B footprint)",
            profile.memory_overhead(params.footprint_bytes()) * 100.0,
            params.footprint_bytes()
        )?;
        writeln!(
            out,
            "instrumentation : {:.0}x slowdown (for contrast)",
            profile.instrumentation_slowdown()
        )?;
        writeln!(out, "\nreuse-distance histogram (weights normalized):")?;
    }
    print_histogram(profile.rd.as_histogram(), csv, out)?;

    if opts.mrc {
        print_mrc(&profile, out)?;
    }

    if opts.exact {
        let jobs = opts.jobs();
        let exact = if jobs > 1 {
            ShardedExact::new(jobs).measure(
                workload.stream(&params),
                Granularity::WORD,
                Binning::log2(),
            )
        } else {
            ExactProfile::measure(workload.stream(&params), Granularity::WORD, Binning::log2())
        };
        let acc = histogram_intersection(profile.rd.as_histogram(), exact.rd.as_histogram())
            .expect("same binning");
        writeln!(out, "\nexact (ground-truth) histogram:")?;
        print_histogram(exact.rd.as_histogram(), csv, out)?;
        writeln!(out, "\naccuracy vs ground truth: {:.1}%", acc * 100.0)?;
    }
    if let Some(path) = &opts.save {
        let code = save_profile(path, &profile, out)?;
        if code != ExitCode::SUCCESS {
            return Ok(code);
        }
    }
    if opts.metrics {
        return emit_metrics_report(&[(workload.name.to_string(), profile)], out);
    }
    Ok(ExitCode::SUCCESS)
}

/// Profiles one serialized RDXT trace file, streamed block by block;
/// the profile covers the decodable prefix, and a short or
/// trailing-data decode is a failure after reporting.
fn profile_file(path: &str, opts: &Opts, out: &mut dyn Write) -> io::Result<ExitCode> {
    for (flag, given) in [
        ("--accesses", opts.accesses.is_some()),
        ("--elements", opts.elements.is_some()),
        ("--exact", opts.exact),
    ] {
        if given {
            eprintln!("error: {flag} applies to generated workloads; '{path}' is a trace file");
            return Ok(ExitCode::FAILURE);
        }
    }
    if opts.metrics {
        rdx_metrics::reset();
    }
    let input = match load_rdxt(path) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let label = input.label.clone();
    let declared = input.declared;
    let csv = opts.csv;
    let (profile, verdict) = RdxRunner::new(opts.config()).profile_rdxt(input, &IngestOptions);
    if !csv {
        writeln!(out, "trace           : {label}")?;
        writeln!(
            out,
            "source          : {path} ({declared} declared accesses)"
        )?;
        writeln!(out, "accesses        : {}", profile.accesses)?;
        writeln!(
            out,
            "samples/traps   : {} / {}",
            profile.samples, profile.traps
        )?;
        writeln!(
            out,
            "est. blocks     : {:.0}",
            est_blocks(profile.m_estimate)
        )?;
        writeln!(
            out,
            "time overhead   : {:.2}%",
            profile.time_overhead * 100.0
        )?;
        writeln!(
            out,
            "ingestion       : {} KiB blocks (decode batch {DEFAULT_CHUNK_CAPACITY})",
            BLOCK_LEN >> 10
        )?;
        writeln!(out, "\nreuse-distance histogram (weights normalized):")?;
    }
    print_histogram(profile.rd.as_histogram(), csv, out)?;
    if opts.mrc {
        print_mrc(&profile, out)?;
    }
    let mut code = ExitCode::SUCCESS;
    if let Err(e) = verdict {
        eprintln!(
            "error: '{path}' decoded {} of {declared} declared accesses: {e}",
            profile.accesses
        );
        code = ExitCode::FAILURE;
    }
    if let Some(save) = &opts.save {
        let save_code = save_profile(save, &profile, out)?;
        if code == ExitCode::SUCCESS {
            code = save_code;
        }
    }
    if opts.metrics {
        let metrics_code = emit_metrics_report(&[(label, profile)], out)?;
        if code == ExitCode::SUCCESS {
            code = metrics_code;
        }
    }
    Ok(code)
}

fn print_mrc(profile: &RdxProfile, out: &mut dyn Write) -> io::Result<()> {
    let mrc = profile.miss_ratio_curve();
    writeln!(out, "\nmiss-ratio curve (capacity in blocks):")?;
    for cap in [1u64 << 6, 1 << 9, 1 << 12, 1 << 15, 1 << 18, 1 << 21] {
        writeln!(out, "  {:>10} {:.4}", cap, mrc.miss_ratio(cap))?;
    }
    Ok(())
}

/// Profiles every registry workload in parallel and prints one summary
/// row per workload (identical output for any `--jobs` value). Leading
/// non-flag arguments are RDXT trace files to profile instead.
fn suite_cmd(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (files, flag_args) = args.split_at(split);
    let opts = match Opts::parse(flag_args, SUITE_FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if opts.out.is_some() && !opts.merge {
        eprintln!("error: --out requires --merge (it writes the merged fleet profile)");
        return Ok(ExitCode::FAILURE);
    }
    if !files.is_empty() {
        return suite_files(files, &opts, out);
    }
    let params = opts.params();
    let config = opts.config();
    let jobs = opts.jobs();

    if opts.metrics {
        rdx_metrics::reset();
    }
    let tasks: Vec<_> = suite()
        .iter()
        .map(|w| BatchTask {
            config,
            make_stream: move || w.stream(&params),
        })
        .collect();
    let profiles = profile_batch(tasks, jobs);

    if opts.csv {
        writeln!(
            out,
            "workload,accesses,samples,traps,est_blocks,time_overhead,mean_rd"
        )?;
    } else {
        writeln!(
            out,
            "suite: {} workloads, {} accesses each, period {}, {} jobs\n",
            suite().len(),
            params.accesses,
            config.machine.sampling.period,
            jobs
        )?;
        writeln!(
            out,
            "{:16} {:>10} {:>8} {:>8} {:>11} {:>9} {:>10}",
            "workload", "accesses", "samples", "traps", "est. blocks", "overhead", "mean rd"
        )?;
    }
    for (w, p) in suite().iter().zip(&profiles) {
        let mean_rd = p.rd.as_histogram().finite_mean().unwrap_or(f64::NAN);
        if opts.csv {
            writeln!(
                out,
                "{},{},{},{},{:.0},{:.6},{:.1}",
                w.name,
                p.accesses,
                p.samples,
                p.traps,
                est_blocks(p.m_estimate),
                p.time_overhead,
                mean_rd
            )?;
        } else {
            writeln!(
                out,
                "{:16} {:>10} {:>8} {:>8} {:>11.0} {:>8.2}% {:>10.1}",
                w.name,
                p.accesses,
                p.samples,
                p.traps,
                est_blocks(p.m_estimate),
                p.time_overhead * 100.0,
                mean_rd
            )?;
        }
    }
    if !opts.csv {
        let total: u64 = profiles.iter().map(|p: &RdxProfile| p.accesses).sum();
        writeln!(out, "\ntotal accesses profiled: {total}")?;
    }
    let mut code = ExitCode::SUCCESS;
    if opts.merge {
        code = emit_fleet(profiles.clone(), profiles.len(), &opts, out)?;
    }
    if opts.metrics {
        let rows: Vec<(String, RdxProfile)> = suite()
            .iter()
            .map(|w| w.name.to_string())
            .zip(profiles)
            .collect();
        let metrics_code = emit_metrics_report(&rows, out)?;
        if code == ExitCode::SUCCESS {
            code = metrics_code;
        }
    }
    Ok(code)
}

/// Profiles a set of RDXT trace files in parallel, one summary row per
/// file. A file that decodes short of its declared record count is
/// reported (its profile covers the decodable prefix) and fails the run.
fn suite_files(files: &[String], opts: &Opts, out: &mut dyn Write) -> io::Result<ExitCode> {
    for (flag, given) in [
        ("--accesses", opts.accesses.is_some()),
        ("--elements", opts.elements.is_some()),
    ] {
        if given {
            eprintln!("error: {flag} applies to generated workloads, not trace files");
            return Ok(ExitCode::FAILURE);
        }
    }
    if opts.metrics {
        rdx_metrics::reset();
    }
    let mut inputs = Vec::with_capacity(files.len());
    for path in files {
        match load_rdxt(path) {
            Ok(input) => inputs.push(input),
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let config = opts.config();
    let jobs = opts.jobs();
    let reports = profile_rdxt_batch(config, inputs, jobs);

    if opts.csv {
        writeln!(
            out,
            "trace,declared,accesses,samples,traps,est_blocks,time_overhead,mean_rd,clean"
        )?;
    } else {
        writeln!(
            out,
            "suite: {} trace files, period {}, {} jobs\n",
            reports.len(),
            config.machine.sampling.period,
            jobs
        )?;
        writeln!(
            out,
            "{:16} {:>10} {:>10} {:>8} {:>8} {:>11} {:>9} {:>10}",
            "trace",
            "declared",
            "accesses",
            "samples",
            "traps",
            "est. blocks",
            "overhead",
            "mean rd"
        )?;
    }
    for r in &reports {
        let p = &r.profile;
        let mean_rd = p.rd.as_histogram().finite_mean().unwrap_or(f64::NAN);
        if opts.csv {
            writeln!(
                out,
                "{},{},{},{},{},{:.0},{:.6},{:.1},{}",
                r.label,
                r.declared,
                p.accesses,
                p.samples,
                p.traps,
                est_blocks(p.m_estimate),
                p.time_overhead,
                mean_rd,
                !r.truncated()
            )?;
        } else {
            writeln!(
                out,
                "{:16} {:>10} {:>10} {:>8} {:>8} {:>11.0} {:>8.2}% {:>10.1}{}",
                r.label,
                r.declared,
                p.accesses,
                p.samples,
                p.traps,
                est_blocks(p.m_estimate),
                p.time_overhead * 100.0,
                mean_rd,
                if r.truncated() { "  [truncated]" } else { "" }
            )?;
        }
    }
    let truncated = reports.iter().filter(|r| r.truncated()).count();
    for r in reports.iter().filter(|r| r.truncated()) {
        eprintln!(
            "warning: '{}' decoded {} of {} declared accesses",
            r.label, r.profile.accesses, r.declared
        );
    }
    let mut code = ExitCode::SUCCESS;
    if truncated > 0 {
        eprintln!(
            "error: {truncated} of {} trace files were truncated or corrupt",
            reports.len()
        );
        code = ExitCode::FAILURE;
    }
    if opts.merge {
        let fleet: Vec<RdxProfile> = reports.iter().map(|r| r.profile.clone()).collect();
        let n = fleet.len();
        let merge_code = emit_fleet(fleet, n, opts, out)?;
        if code == ExitCode::SUCCESS {
            code = merge_code;
        }
    }
    if opts.metrics {
        let rows: Vec<(String, RdxProfile)> =
            reports.into_iter().map(|r| (r.label, r.profile)).collect();
        let metrics_code = emit_metrics_report(&rows, out)?;
        if code == ExitCode::SUCCESS {
            code = metrics_code;
        }
    }
    Ok(code)
}

/// Writes a profile to `path` in the versioned RDXP wire format.
fn save_profile(path: &str, profile: &RdxProfile, out: &mut dyn Write) -> io::Result<ExitCode> {
    let bytes = rdx_core::encode_profile(profile);
    match std::fs::write(path, &bytes) {
        Ok(()) => {
            writeln!(
                out,
                "saved profile   : {path} ({} B, RDXP v{})",
                bytes.len(),
                rdx_core::RDXP_VERSION
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: cannot write '{path}': {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Merges a batch of profiles into one fleet profile and prints it
/// (used by both `rdx merge` and `rdx suite --merge`). The profiles are
/// folded in order, so the output depends only on the inputs.
fn emit_fleet(
    profiles: Vec<RdxProfile>,
    sources: usize,
    opts: &Opts,
    out: &mut dyn Write,
) -> io::Result<ExitCode> {
    let merged = match rdx_core::merge_batch(profiles, 1) {
        Ok(Some(p)) => p,
        Ok(None) => {
            eprintln!("error: nothing to merge");
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => {
            eprintln!("error: profiles are not mergeable: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if !opts.csv {
        writeln!(out, "\nfleet profile   : {sources} profiles merged")?;
        writeln!(out, "accesses        : {}", merged.accesses)?;
        writeln!(
            out,
            "samples/traps   : {} / {}",
            merged.samples, merged.traps
        )?;
        writeln!(
            out,
            "est. blocks     : {:.0}",
            est_blocks(merged.m_estimate)
        )?;
        writeln!(
            out,
            "time overhead   : {:.2}%",
            merged.time_overhead * 100.0
        )?;
        writeln!(
            out,
            "\nmerged reuse-distance histogram (weights normalized):"
        )?;
    }
    print_histogram(merged.rd.as_histogram(), opts.csv, out)?;
    if opts.mrc {
        print_mrc(&merged, out)?;
    }
    match &opts.out {
        Some(path) => save_profile(path, &merged, out),
        None => Ok(ExitCode::SUCCESS),
    }
}

/// Merges serialized RDXP profiles from disk into one fleet profile.
/// Decode failures (bad magic, version mismatch, truncation) and merge
/// incompatibilities (binning, granularity, cost model) are typed,
/// per-file errors — never panics.
fn merge_cmd(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (files, flag_args) = args.split_at(split);
    if files.is_empty() {
        eprintln!("error: merge needs at least one RDXP profile file");
        return Ok(usage());
    }
    let opts = match Opts::parse(flag_args, MERGE_FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut profiles = Vec::with_capacity(files.len());
    for path in files {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot read '{path}': {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        match rdx_core::decode_profile(&bytes) {
            Ok(p) => profiles.push(p),
            Err(e) => {
                eprintln!("error: '{path}' is not a loadable RDXP profile: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if !opts.csv {
        writeln!(out, "merging {} profile(s):", files.len())?;
        for (path, p) in files.iter().zip(&profiles) {
            writeln!(
                out,
                "  {path}: {} accesses, {} samples, {} traps",
                p.accesses, p.samples, p.traps
            )?;
        }
    }
    emit_fleet(profiles, files.len(), &opts, out)
}

/// Counter names whose registry totals must equal the summed profile
/// fields — the observability layer is only trustworthy if it agrees
/// exactly with the numbers the profiler itself reports.
fn crosscheck_rows(rows: &[(String, RdxProfile)]) -> [(&'static str, u64); 6] {
    let sum = |f: fn(&RdxProfile) -> u64| rows.iter().map(|(_, p)| f(p)).sum();
    [
        ("rdx.profiler.samples", sum(|p| p.samples)),
        ("rdx.profiler.traps", sum(|p| p.traps)),
        ("rdx.profiler.evictions", sum(|p| p.evictions)),
        ("rdx.profiler.end_censored", sum(|p| p.end_censored)),
        ("rdx.profiler.dropped_samples", sum(|p| p.dropped_samples)),
        (
            "rdx.profiler.duplicate_samples",
            sum(|p| p.duplicate_samples),
        ),
    ]
}

/// Prints the `--metrics` JSON report: per-workload profile counters,
/// the counter crosscheck, and the full registry snapshot. Returns
/// FAILURE when a crosscheck row disagrees (collection bug), SUCCESS
/// otherwise.
fn emit_metrics_report(rows: &[(String, RdxProfile)], out: &mut dyn Write) -> io::Result<ExitCode> {
    use std::fmt::Write as _;
    let snap = rdx_metrics::snapshot();
    let checks = crosscheck_rows(rows);
    let matched = checks
        .iter()
        .all(|&(name, want)| snap.counter(name).unwrap_or(0) == want);

    let mut json = String::new();
    json.push_str("{\"workloads\":[");
    for (i, (name, p)) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"name\":\"{name}\",\"accesses\":{},\"samples\":{},\"traps\":{},\
             \"evictions\":{},\"end_censored\":{},\"dropped_samples\":{},\
             \"duplicate_samples\":{}}}",
            p.accesses,
            p.samples,
            p.traps,
            p.evictions,
            p.end_censored,
            p.dropped_samples,
            p.duplicate_samples
        );
    }
    json.push_str("],\"crosscheck\":[");
    for (i, &(name, want)) in checks.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let got = snap.counter(name).unwrap_or(0);
        let _ = write!(
            json,
            "{{\"counter\":\"{name}\",\"expected\":{want},\"observed\":{got},\
             \"matched\":{}}}",
            got == want
        );
    }
    let _ = write!(
        json,
        "],\"matched\":{matched},\"registry\":{}",
        snap.to_json()
    );
    json.push('}');

    writeln!(out, "\nmetrics report:")?;
    writeln!(out, "{json}")?;
    if matched {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("error: metrics counters disagree with profile fields (see crosscheck)");
        Ok(ExitCode::FAILURE)
    }
}

/// Validates a serialized trace file by streaming it in read blocks
/// through the incremental decoder, reporting decode throughput and
/// batch statistics. Corrupt or truncated input is reported as a
/// decode error with the position reached — never a panic.
fn trace_cmd(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let Some(path) = args.first() else {
        return Ok(usage());
    };
    if path.starts_with("--") {
        return Ok(usage());
    }
    let opts = match Opts::parse(&args[1..], TRACE_FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if opts.metrics {
        rdx_metrics::reset();
    }
    let input = match load_rdxt(path) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let (name, declared) = (input.label.clone(), input.declared);
    let mut decoder = RdxtDecoder::new();
    let mut batch = AccessBuf::new();
    let (mut total_bytes, mut stores, mut chunks, mut accesses) = (0u64, 0u64, 0u64, 0u64);
    // Observational readout only: the elapsed time prints as a decode
    // rate and never feeds back into any measurement.
    // rdx-lint-allow: wall-clock — reports decode throughput to the user; not on a measurement path
    let start = std::time::Instant::now();
    let read = input.read_blocks(|block| {
        total_bytes += block.len() as u64;
        let mut rest = block;
        while !rest.is_empty() {
            let used = decoder.decode(rest, &mut batch, DEFAULT_CHUNK_CAPACITY);
            if !batch.is_empty() {
                chunks += 1;
                accesses += batch.len() as u64;
                stores += batch.as_slice().stores_in(..);
            }
            rest = &rest[used?..];
        }
        Ok(())
    });
    let elapsed = start.elapsed();
    if let Err(e) = read.and_then(|()| decoder.finish()) {
        eprintln!(
            "error: '{path}' is corrupt after {} of {declared} declared accesses: {e}",
            decoder.decoded(),
        );
        return Ok(ExitCode::FAILURE);
    }
    let loads = accesses - stores;
    writeln!(out, "trace           : {name}")?;
    writeln!(out, "file size       : {total_bytes} B")?;
    writeln!(
        out,
        "accesses        : {accesses} ({loads} loads, {stores} stores)"
    )?;
    if chunks > 0 {
        writeln!(out, "chunks          : {chunks}")?;
    }
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 && accesses > 0 {
        writeln!(
            out,
            "decode rate     : {:.0} M acc/s ({:.0} MB/s)",
            accesses as f64 / secs / 1e6,
            total_bytes as f64 / secs / 1e6
        )?;
    }
    if opts.metrics {
        return emit_trace_metrics(decoder.decoded(), out);
    }
    Ok(ExitCode::SUCCESS)
}

/// Counters the `rdx trace --metrics` report prints, in output order.
const DECODE_COUNTERS: &[&str] = &[
    "rdx.trace.decode.accesses",
    "rdx.trace.decode.bytes",
    "rdx.trace.decode.chunks",
];

/// Prints the `rdx trace --metrics` JSON report: the decode counters
/// and a crosscheck of `rdx.trace.decode.accesses` against the record
/// count the validator itself decoded. FAILURE when they disagree.
fn emit_trace_metrics(decoded: u64, out: &mut dyn Write) -> io::Result<ExitCode> {
    use std::fmt::Write as _;
    let snap = rdx_metrics::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let observed = counter("rdx.trace.decode.accesses");
    let matched = observed == decoded;

    let mut json = String::new();
    json.push_str("{\"decode\":{");
    for (i, name) in DECODE_COUNTERS.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{}", counter(name));
    }
    let _ = write!(
        json,
        "}},\"crosscheck\":[{{\"counter\":\"rdx.trace.decode.accesses\",\
         \"expected\":{decoded},\"observed\":{observed},\"matched\":{matched}}}],\
         \"matched\":{matched},\"registry\":{}",
        snap.to_json()
    );
    json.push('}');

    writeln!(out, "\nmetrics report:")?;
    writeln!(out, "{json}")?;
    if matched {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("error: rdx.trace.decode.accesses disagrees with the validator's own count");
        Ok(ExitCode::FAILURE)
    }
}

/// Runs the long-lived framed profiling daemon. `--listen` takes a TCP
/// address (`127.0.0.1:7979`, port 0 picks one) or a Unix socket path;
/// the resolved address is printed (and flushed) before serving so
/// scripts can capture it. With `--max-conns N` the server exits
/// cleanly after serving N connections.
fn serve_cmd(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let mut listen: Option<String> = None;
    let mut max_conns: Option<u64> = None;
    let mut max_session_bytes: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let slot = match flag {
            "--listen" => {
                if listen.is_some() {
                    eprintln!("error: duplicate flag '--listen'");
                    return Ok(ExitCode::FAILURE);
                }
                let Some(value) = it.next() else {
                    eprintln!("error: --listen needs a value");
                    return Ok(ExitCode::FAILURE);
                };
                listen = Some(value.clone());
                continue;
            }
            "--max-conns" => &mut max_conns,
            "--max-session-bytes" => &mut max_session_bytes,
            _ => {
                eprintln!("error: unknown flag '{flag}'");
                return Ok(ExitCode::FAILURE);
            }
        };
        if slot.is_some() {
            eprintln!("error: duplicate flag '{flag}'");
            return Ok(ExitCode::FAILURE);
        }
        let value = match it.next().map(|v| v.parse::<u64>()) {
            Some(Ok(v)) if v > 0 => v,
            Some(Ok(v)) => {
                eprintln!("error: {flag} must be at least 1 (got {v})");
                return Ok(ExitCode::FAILURE);
            }
            Some(Err(e)) => {
                eprintln!("error: {flag}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            None => {
                eprintln!("error: {flag} needs a value");
                return Ok(ExitCode::FAILURE);
            }
        };
        *slot = Some(value);
    }
    let Some(spec) = listen else {
        eprintln!("error: serve requires --listen <addr|socket-path>");
        return Ok(usage());
    };
    let mut server_opts = rdx_server::ServerOptions::default();
    if let Some(n) = max_conns {
        server_opts = server_opts.with_max_connections(usize::try_from(n).unwrap_or(usize::MAX));
    }
    if let Some(n) = max_session_bytes {
        server_opts = server_opts.with_max_session_bytes(usize::try_from(n).unwrap_or(usize::MAX));
    }
    let mut handle = match rdx_server::Server::bind(&rdx_server::Listen::parse(&spec), server_opts)
    {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot listen on '{spec}': {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // Flushed immediately: scripts (and CI) parse the resolved address
    // from this line while the server keeps running.
    writeln!(out, "rdx-server listening on {}", handle.listen())?;
    out.flush()?;
    handle.wait();
    writeln!(out, "rdx-server exiting (connection budget served)")?;
    Ok(ExitCode::SUCCESS)
}

/// Streams a workload or RDXT trace file to a running server and prints
/// the profile the server measured, plus its registry-golden digest.
/// With `--crosscheck` the same bytes are also profiled locally and the
/// two profiles must be bit-identical.
fn client_cmd(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let (Some(addr), Some(target)) = (args.first(), args.get(1)) else {
        return Ok(usage());
    };
    if addr.starts_with("--") || target.starts_with("--") {
        return Ok(usage());
    }
    let opts = match Opts::parse(&args[2..], CLIENT_FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    // The bytes to stream: a generated registry workload serialized to
    // RDXT, or a trace file read verbatim.
    let (label, bytes) = if let Some(w) = by_name(target) {
        let params = opts.params();
        let trace = rdx_trace::Trace::from_stream(w.name, w.stream(&params));
        (w.name.to_string(), rdx_trace::io::to_bytes(&trace).to_vec())
    } else if std::path::Path::new(target).exists() {
        for (flag, given) in [
            ("--accesses", opts.accesses.is_some()),
            ("--elements", opts.elements.is_some()),
        ] {
            if given {
                eprintln!(
                    "error: {flag} applies to generated workloads; '{target}' is a trace file"
                );
                return Ok(ExitCode::FAILURE);
            }
        }
        match std::fs::read(target) {
            Ok(b) => (target.clone(), b),
            Err(e) => {
                eprintln!("error: cannot read '{target}': {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    } else {
        eprintln!("unknown workload '{target}' and no such trace file; try `rdx list`");
        return Ok(ExitCode::FAILURE);
    };

    let mut sopts = rdx_server::SessionOptions::default();
    if let Some(v) = opts.period {
        sopts.period = v;
    }
    if let Some(v) = opts.seed {
        sopts.seed = v;
    }
    if let Some(v) = opts.registers {
        sopts.registers = u32::try_from(v).unwrap_or(u32::MAX);
    }
    let chunk_bytes = usize::try_from(opts.chunk_bytes.unwrap_or(64 << 10)).unwrap_or(usize::MAX);

    let listen = rdx_server::Listen::parse(addr);
    if let Some(n) = opts.aggregate {
        for (flag, given) in [
            ("--crosscheck", opts.crosscheck),
            ("--metrics", opts.metrics),
        ] {
            if given {
                eprintln!(
                    "error: {flag} does not apply to --aggregate mode \
                     (it always crosschecks the server fold bit for bit)"
                );
                return Ok(ExitCode::FAILURE);
            }
        }
        let (reply, expected) =
            match client_aggregate(&listen, &label, &bytes, sopts, chunk_bytes, n) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
        let mut digest = rdx_server::Fnv64::new();
        reply.profile.fold_into(&mut digest);
        writeln!(out, "sessions        : {} x {label}", reply.sessions)?;
        writeln!(out, "accesses        : {}", reply.profile.accesses)?;
        writeln!(
            out,
            "samples/traps   : {} / {}",
            reply.profile.samples, reply.profile.traps
        )?;
        writeln!(out, "aggregate digest: {:#018x}", digest.value())?;
        let sessions = u32::try_from(n).unwrap_or(u32::MAX);
        if reply.sessions == sessions && reply.profile == expected {
            writeln!(
                out,
                "crosscheck      : PASS (server fold matches client-side fold)"
            )?;
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!("error: aggregate crosscheck FAILED — server fold differs from client-side fold");
        return Ok(ExitCode::FAILURE);
    }
    let served = (|| -> Result<_, rdx_server::ClientError> {
        let mut client = rdx_server::Client::connect(&listen)?;
        let session = client.open_session(&label, sopts)?;
        for chunk in bytes.chunks(chunk_bytes) {
            client.send_chunk(session, chunk)?;
        }
        let flush = client.flush(session)?;
        let metrics = if opts.metrics {
            Some(client.snapshot_metrics(session)?)
        } else {
            None
        };
        let close = client.close_session(session)?;
        Ok((flush, metrics, close))
    })();
    let (flush, metrics, close) = match served {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    let mut digest = rdx_server::Fnv64::new();
    close.profile.fold_into(&mut digest);
    writeln!(out, "session         : {label}")?;
    writeln!(out, "server          : {listen}")?;
    writeln!(
        out,
        "sent            : {} B in {} chunk(s) of ≤{chunk_bytes} B",
        bytes.len(),
        bytes.len().div_ceil(chunk_bytes.max(1))
    )?;
    writeln!(
        out,
        "ingested        : {} B, {} records",
        flush.received_bytes, flush.records
    )?;
    writeln!(out, "accesses        : {}", close.profile.accesses)?;
    writeln!(
        out,
        "samples/traps   : {} / {}",
        close.profile.samples, close.profile.traps
    )?;
    writeln!(
        out,
        "est. blocks     : {:.0}",
        est_blocks(close.profile.m_estimate)
    )?;
    writeln!(out, "clean decode    : {}", close.clean)?;
    writeln!(out, "profile digest  : {:#018x}", digest.value())?;
    if let Some(m) = &metrics {
        writeln!(out, "\nserver metrics registry:")?;
        writeln!(out, "{}", m.registry_json)?;
    }
    let mut code = if close.clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: server reported an unclean decode");
        ExitCode::FAILURE
    };

    if opts.crosscheck {
        // Profile the identical bytes locally with the identical
        // options; the server's answer must match bit for bit.
        let input = match RdxtInput::from_bytes(label.clone(), bytes) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("error: crosscheck cannot decode local bytes: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let (local, _verdict) = RdxRunner::new(sopts.config()).profile_rdxt(input, &IngestOptions);
        let mut local_digest = rdx_server::Fnv64::new();
        rdx_server::ProfileSnapshot::from_profile(&local).fold_into(&mut local_digest);
        if local_digest.value() == digest.value() {
            writeln!(out, "crosscheck      : PASS (local digest matches)")?;
        } else {
            eprintln!(
                "error: crosscheck FAILED — local digest {:#018x} != server digest {:#018x}",
                local_digest.value(),
                digest.value()
            );
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

/// `rdx client … --aggregate N`: stream the same bytes into `n`
/// sessions and ask the server to fold them with one
/// `SnapshotAggregate` request. Returns the reply and a client-side
/// fold of the per-session snapshots in the same session order, which
/// the reply contract says must equal it bit for bit.
fn client_aggregate(
    listen: &rdx_server::Listen,
    label: &str,
    bytes: &[u8],
    sopts: rdx_server::SessionOptions,
    chunk_bytes: usize,
    n: u64,
) -> Result<(rdx_server::AggregateReply, rdx_server::ProfileSnapshot), rdx_server::ClientError> {
    let mut client = rdx_server::Client::connect(listen)?;
    let mut sessions = Vec::new();
    for i in 0..n {
        let session = client.open_session(&format!("{label}#{i}"), sopts)?;
        for chunk in bytes.chunks(chunk_bytes) {
            client.send_chunk(session, chunk)?;
        }
        client.flush(session)?;
        sessions.push(session);
    }
    let mut expected = rdx_server::ProfileSnapshot::default();
    for &s in &sessions {
        expected.merge(&client.snapshot_histogram(s)?);
    }
    let reply = client.snapshot_aggregate(&sessions)?;
    for &s in &sessions {
        client.close_session(s)?;
    }
    Ok((reply, expected))
}

/// Parsed `rdx sim` options (its flags don't overlap the profiling
/// commands': `--seed` here names a schedule, not a workload).
#[derive(Debug, PartialEq, Eq)]
struct SimArgs {
    seed: u64,
    schedules: usize,
    faults: rdx_sim::FaultSet,
}

impl SimArgs {
    fn parse(args: &[String]) -> Result<SimArgs, String> {
        let mut seed: Option<u64> = None;
        let mut schedules: Option<u64> = None;
        let mut faults: Option<rdx_sim::FaultSet> = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            match flag {
                "--seed" | "--schedules" => {
                    let slot = if flag == "--seed" {
                        &mut seed
                    } else {
                        &mut schedules
                    };
                    if slot.is_some() {
                        return Err(format!("duplicate flag '{flag}'"));
                    }
                    let value = it
                        .next()
                        .ok_or_else(|| format!("{flag} needs a value"))?
                        .parse::<u64>()
                        .map_err(|e| format!("{flag}: {e}"))?;
                    *slot = Some(value);
                }
                "--faults" => {
                    if faults.is_some() {
                        return Err("duplicate flag '--faults'".to_string());
                    }
                    let value = it.next().ok_or("--faults needs a value")?;
                    faults = Some(rdx_sim::FaultSet::parse(value)?);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let schedules = match schedules {
            Some(0) => return Err("--schedules must be at least 1 (got 0)".to_string()),
            Some(v) => usize::try_from(v).unwrap_or(usize::MAX),
            None => 64,
        };
        Ok(SimArgs {
            seed: seed.unwrap_or(0),
            schedules,
            faults: faults.unwrap_or_default(),
        })
    }
}

/// Runs the deterministic simulation suite: seeded schedules and fault
/// injection over batch dispatch and server sessions, plus the
/// golden-digest reproduction through seeded session chunkings. A violation prints its replay seed and exits FAILURE.
fn sim_cmd(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let parsed = match SimArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let cfg = rdx_sim::SimConfig {
        seed: parsed.seed,
        schedules: parsed.schedules,
        faults: parsed.faults,
    };
    writeln!(
        out,
        "sim: base seed {}, {} schedules per scenario",
        cfg.seed, cfg.schedules
    )?;
    match rdx_sim::run_suite(&cfg) {
        Ok(report) => {
            write!(out, "{report}")?;
            writeln!(
                out,
                "sim: {} schedules passed, no invariant violations",
                report.total_schedules()
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(v) => {
            eprintln!("error: {v}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Counters that must read zero after a static estimate — the proof
/// that `rdx-static` neither generated, scanned, decoded, nor profiled
/// a single access. The snapshot is taken before any `--exact`
/// ground-truth run, which legitimately consumes a stream.
const STATIC_ZERO_COUNTERS: &[&str] = &[
    "rdx.machine.fastpath.scanned_accesses",
    "rdx.profiler.samples",
    "rdx.profiler.traps",
    "rdx.runner.accesses",
    "rdx.runner.profiles",
    "rdx.sharded.accesses",
    "rdx.trace.decode.accesses",
    "rdx.trace.encode.events",
];

/// Estimates a kernel's reuse profile symbolically via `rdx-static` —
/// no access is generated or executed. `--mrc` feeds the estimate into
/// `rdx-cache::predict`; `--exact` compares against exact Olken ground
/// truth; `--metrics` proves the zero-access claim by crosschecking
/// that every dynamic-path counter stayed zero. Non-affine workloads
/// exit FAILURE with a typed explanation, never a wrong profile.
fn static_cmd(args: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let Some(name) = args.first() else {
        return Ok(usage());
    };
    if name.starts_with("--") {
        return Ok(usage());
    }
    let opts = match Opts::parse(&args[1..], STATIC_FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if opts.metrics {
        rdx_metrics::reset();
    }
    let params = opts.params();
    let stat = match rdx_static::estimate(name, &params) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, rdx_static::StaticError::NotAffine { .. }) {
                eprintln!(
                    "note: static models exist for: {}",
                    rdx_static::affine_kernels().join(", ")
                );
            }
            return Ok(ExitCode::FAILURE);
        }
    };
    // Snapshot now, not at exit: the zero-access proof covers the
    // estimate itself, not a later --exact comparison run.
    let snap = opts.metrics.then(rdx_metrics::snapshot);
    let csv = opts.csv;
    if !csv {
        writeln!(out, "kernel          : {} (static estimate)", stat.kernel)?;
        writeln!(out, "modeled accesses: {}", stat.accesses)?;
        writeln!(out, "period          : {} accesses", stat.period)?;
        writeln!(out, "footprint       : {} blocks", stat.footprint)?;
        writeln!(out, "stores          : {}", stat.stores)?;
        writeln!(out, "reuse classes   : {}", stat.classes)?;
        writeln!(
            out,
            "\nstatic reuse-distance histogram (weights normalized):"
        )?;
    }
    print_histogram(stat.rd.as_histogram(), csv, out)?;

    if opts.mrc {
        let levels = rdx_cache::hierarchy();
        // Word-granular estimate: 8-byte blocks, like Granularity::WORD.
        let preds = rdx_cache::predict::miss_ratios(&stat.rd, &levels, 8);
        writeln!(
            out,
            "\npredicted miss ratios (rdx-cache hierarchy, full associativity):"
        )?;
        for lvl in &preds {
            writeln!(
                out,
                "  {:4} {:>10} blocks  {:.4}",
                lvl.name, lvl.capacity_blocks, lvl.miss_ratio
            )?;
        }
    }

    let mut code = ExitCode::SUCCESS;
    if opts.exact {
        let spec = by_name(name).expect("affine kernels are registry members");
        let exact = ExactProfile::measure(spec.stream(&params), Granularity::WORD, Binning::log2());
        let acc = histogram_intersection(stat.rd.as_histogram(), exact.rd.as_histogram())
            .expect("same binning");
        writeln!(out, "\nexact (ground-truth) histogram:")?;
        print_histogram(exact.rd.as_histogram(), csv, out)?;
        writeln!(
            out,
            "\nstatic accuracy vs ground truth: {:.1}%",
            acc * 100.0
        )?;
        if stat.footprint != exact.distinct_blocks {
            eprintln!(
                "error: static footprint {} != exact distinct blocks {}",
                stat.footprint, exact.distinct_blocks
            );
            code = ExitCode::FAILURE;
        }
    }
    if let Some(snap) = snap {
        let metrics_code = emit_static_metrics(&snap, out)?;
        if code == ExitCode::SUCCESS {
            code = metrics_code;
        }
    }
    Ok(code)
}

/// Prints the `rdx static --metrics` JSON report: the static counters
/// plus the zero-access crosscheck — every dynamic-path counter in
/// [`STATIC_ZERO_COUNTERS`] must read zero, or the trace-free claim is
/// false and the command FAILs.
fn emit_static_metrics(snap: &rdx_metrics::Snapshot, out: &mut dyn Write) -> io::Result<ExitCode> {
    use std::fmt::Write as _;
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let matched = counter("rdx.static.estimates") == 1
        && STATIC_ZERO_COUNTERS.iter().all(|n| counter(n) == 0);

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"static\":{{\"estimates\":{},\"rejected\":{}}},",
        counter("rdx.static.estimates"),
        counter("rdx.static.rejected")
    );
    json.push_str("\"zero_access_crosscheck\":[");
    for (i, name) in STATIC_ZERO_COUNTERS.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let got = counter(name);
        let _ = write!(
            json,
            "{{\"counter\":\"{name}\",\"expected\":0,\"observed\":{got},\"matched\":{}}}",
            got == 0
        );
    }
    let _ = write!(
        json,
        "],\"matched\":{matched},\"registry\":{}",
        snap.to_json()
    );
    json.push('}');

    writeln!(out, "\nmetrics report:")?;
    writeln!(out, "{json}")?;
    if matched {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "error: a dynamic-path counter is nonzero; the static estimate is not trace-free"
        );
        Ok(ExitCode::FAILURE)
    }
}

/// An `m_estimate` as the `est. blocks` column shows it: with nothing
/// end-censored the estimate is −0.0, which `{:.0}` would print as
/// `-0`. Only the display is normalised; the profile keeps its bits.
fn est_blocks(m_estimate: f64) -> f64 {
    if m_estimate == 0.0 {
        0.0
    } else {
        m_estimate
    }
}

fn print_histogram(h: &Histogram, csv: bool, out: &mut dyn Write) -> io::Result<()> {
    let n = h.normalized();
    let sep = if csv { "," } else { "  " };
    for b in n.buckets() {
        let bar_len = (b.weight * 50.0).round() as usize;
        if csv {
            writeln!(out, "{}{sep}{}{sep}{:.6}", b.range.lo, b.range.hi, b.weight)?;
        } else {
            writeln!(
                out,
                "  [{:>10}, {:>10})  {:>7.3}%  {}",
                b.range.lo,
                b.range.hi,
                b.weight * 100.0,
                "#".repeat(bar_len)
            )?;
        }
    }
    if n.infinite_weight() > 0.0 {
        if csv {
            writeln!(out, "inf{sep}inf{sep}{:.6}", n.infinite_weight())?;
        } else {
            writeln!(
                out,
                "  [{:>10}, {:>10})  {:>7.3}%  {}",
                "cold",
                "",
                n.infinite_weight() * 100.0,
                "#".repeat((n.infinite_weight() * 50.0).round() as usize)
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes access to the process-global metrics registry: every
    /// test that decodes traces or profiles must hold this so the
    /// `--metrics` crosschecks see only their own increments.
    static METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn metrics_guard() -> std::sync::MutexGuard<'static, ()> {
        METRICS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs a command with its report discarded.
    fn quiet(
        cmd: fn(&[String], &mut dyn Write) -> io::Result<ExitCode>,
        args: &[String],
    ) -> ExitCode {
        cmd(args, &mut io::sink()).expect("writing to a sink never fails")
    }

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn parses_left_to_right() {
        let opts = Opts::parse(
            &to_args(&["--accesses", "1000", "--exact", "--jobs", "4"]),
            PROFILE_FLAGS,
        )
        .unwrap();
        assert_eq!(opts.accesses, Some(1000));
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.exact);
        assert!(!opts.csv);
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = Opts::parse(&to_args(&["--bogus", "3"]), PROFILE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        // The decode-ahead reader, the kernel selector and the
        // decode-batch size are gone: every command that took them now
        // rejects them.
        for flags in [PROFILE_FLAGS, SUITE_FLAGS, CLIENT_FLAGS, TRACE_FLAGS] {
            for args in [
                &["--pipelined"][..],
                &["--no-pipelined"][..],
                &["--decode-ahead", "2"][..],
                &["--kernel", "scalar"][..],
                &["--decode-buffer", "8"][..],
            ] {
                let err = Opts::parse(&to_args(args), flags).unwrap_err();
                assert!(
                    err.contains(&format!("unknown flag '{}'", args[0])),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn rejects_duplicate_value_flag() {
        let err = Opts::parse(
            &to_args(&["--period", "512", "--period", "1024"]),
            PROFILE_FLAGS,
        )
        .unwrap_err();
        assert!(err.contains("duplicate flag '--period'"), "{err}");
    }

    #[test]
    fn rejects_duplicate_boolean_flag() {
        let err = Opts::parse(&to_args(&["--csv", "--csv"]), PROFILE_FLAGS).unwrap_err();
        assert!(err.contains("duplicate flag '--csv'"), "{err}");
    }

    #[test]
    fn rejects_missing_value() {
        let err = Opts::parse(&to_args(&["--accesses"]), PROFILE_FLAGS).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn rejects_flag_as_value() {
        // A flag immediately following a value flag is consumed as its
        // value and fails to parse — it is never silently skipped.
        let err = Opts::parse(&to_args(&["--accesses", "--csv"]), PROFILE_FLAGS).unwrap_err();
        assert!(err.contains("--accesses"), "{err}");
    }

    #[test]
    fn suite_flags_exclude_registers() {
        let err = Opts::parse(&to_args(&["--registers", "2"]), SUITE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn metrics_flag_parses_for_both_commands() {
        for flags in [PROFILE_FLAGS, SUITE_FLAGS] {
            let opts = Opts::parse(&to_args(&["--metrics"]), flags).unwrap();
            assert!(opts.metrics);
        }
        let err = Opts::parse(&to_args(&["--metrics", "--metrics"]), SUITE_FLAGS).unwrap_err();
        assert!(err.contains("duplicate flag '--metrics'"), "{err}");
    }

    #[test]
    fn trace_flags_reject_profile_flags() {
        let err = Opts::parse(&to_args(&["--period", "512"]), TRACE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let opts = Opts::parse(&to_args(&["--metrics"]), TRACE_FLAGS).unwrap();
        assert!(opts.metrics);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rdx-cli-test-{}-{name}", std::process::id()))
    }

    fn write_sample_trace(name: &str, accesses: u64) -> (std::path::PathBuf, Vec<u8>) {
        let trace = rdx_trace::Trace::from_addresses(name, (0..accesses).map(|i| (i % 257) * 64));
        let bytes = rdx_trace::io::to_bytes(&trace).to_vec();
        let path = temp_path(&format!("{name}.rdxt"));
        std::fs::write(&path, &bytes).unwrap();
        (path, bytes)
    }

    #[test]
    fn trace_cmd_accepts_valid_and_rejects_corrupt_files() {
        let _guard = metrics_guard();
        let trace =
            rdx_trace::Trace::from_addresses("roundtrip", (0..500u64).map(|i| (i % 37) * 8));
        let bytes = rdx_trace::io::to_bytes(&trace);
        let good = temp_path("good.rdxt");
        std::fs::write(&good, &bytes).unwrap();
        assert_eq!(
            quiet(trace_cmd, &[good.display().to_string()]),
            ExitCode::SUCCESS
        );

        // Truncating the record stream must yield a decode error, not a
        // panic — the CLI recovers and reports the position reached.
        let cut = temp_path("cut.rdxt");
        std::fs::write(&cut, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(
            quiet(trace_cmd, &[cut.display().to_string()]),
            ExitCode::FAILURE
        );

        let _ = std::fs::remove_file(good);
        let _ = std::fs::remove_file(cut);
    }

    #[test]
    fn trace_cmd_metrics_crosscheck_passes() {
        let _guard = metrics_guard();
        // Several 64 KiB read blocks, so several decode batches; the
        // counter crosscheck must still match the validator's own count.
        let (path, _) = write_sample_trace("trace-metrics", 100_000);
        let code = quiet(
            trace_cmd,
            &to_args(&[&path.display().to_string(), "--metrics"]),
        );
        assert_eq!(code, ExitCode::SUCCESS);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn profile_accepts_trace_files_and_flags_corruption() {
        let _guard = metrics_guard();
        let (path, bytes) = write_sample_trace("profile-file", 30_000);
        let arg = path.display().to_string();
        assert_eq!(
            quiet(profile, &to_args(&[&arg, "--period", "512", "--csv"])),
            ExitCode::SUCCESS
        );
        // Workload-only flags are rejected for file inputs.
        assert_eq!(
            quiet(profile, &to_args(&[&arg, "--exact"])),
            ExitCode::FAILURE
        );
        // A truncated file profiles its prefix but exits FAILURE.
        let cut = temp_path("profile-cut.rdxt");
        std::fs::write(&cut, &bytes[..bytes.len() - 7]).unwrap();
        assert_eq!(
            quiet(profile, &to_args(&[&cut.display().to_string(), "--csv"])),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(cut);
    }

    #[test]
    fn profile_rejects_decode_flags_for_workloads() {
        // `--decode-buffer` is gone for workloads and trace files alike.
        let (path, _) = write_sample_trace("profile-decode-flag", 1_000);
        for target in ["zipf".to_string(), path.display().to_string()] {
            let code = quiet(profile, &to_args(&[&target, "--decode-buffer", "8"]));
            assert_eq!(code, ExitCode::FAILURE, "{target}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn suite_profiles_trace_files_and_flags_truncation() {
        let _guard = metrics_guard();
        let (a, _) = write_sample_trace("suite-a", 20_000);
        let (b, bytes) = write_sample_trace("suite-b", 25_000);
        let args = to_args(&[
            &a.display().to_string(),
            &b.display().to_string(),
            "--period",
            "512",
            "--csv",
            "--jobs",
            "2",
        ]);
        assert_eq!(quiet(suite_cmd, &args), ExitCode::SUCCESS);

        // One corrupt member fails the whole run.
        let cut = temp_path("suite-cut.rdxt");
        std::fs::write(&cut, &bytes[..bytes.len() - 9]).unwrap();
        let args = to_args(&[
            &a.display().to_string(),
            &cut.display().to_string(),
            "--csv",
        ]);
        assert_eq!(quiet(suite_cmd, &args), ExitCode::FAILURE);

        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
        let _ = std::fs::remove_file(cut);
    }

    #[test]
    fn numeric_flags_validated_at_parse_time() {
        for (args, needle) in [
            (
                &["--period", "0"][..],
                "--period must be at least 1 (got 0)",
            ),
            (
                &["--period", "9223372036854775809"][..],
                "--period must be at most 2^63 (got 9223372036854775809)",
            ),
            (
                &["--registers", "0"][..],
                "--registers must be between 1 and 4 (got 0)",
            ),
            (
                &["--registers", "7"][..],
                "--registers must be between 1 and 4 (got 7)",
            ),
            (&["--jobs", "0"][..], "--jobs must be at least 1 (got 0)"),
        ] {
            let err = Opts::parse(&to_args(args), PROFILE_FLAGS).unwrap_err();
            assert_eq!(err, needle);
        }
        let err = Opts::parse(&to_args(&["--chunk-bytes", "0"]), CLIENT_FLAGS).unwrap_err();
        assert_eq!(err, "--chunk-bytes must be at least 1 (got 0)");
        // In-range values still parse.
        let opts = Opts::parse(
            &to_args(&["--period", "1", "--registers", "4"]),
            PROFILE_FLAGS,
        )
        .unwrap();
        assert_eq!(opts.period, Some(1));
        assert_eq!(opts.registers, Some(4));
    }

    #[test]
    fn client_streams_to_server_and_crosschecks() {
        let _guard = metrics_guard();
        let handle = rdx_server::Server::bind(
            &rdx_server::Listen::parse("127.0.0.1:0"),
            rdx_server::ServerOptions::default(),
        )
        .unwrap();
        let addr = handle.listen().to_string();
        // Generated workload, odd chunk size, crosscheck against the
        // local profiling path: the digests must agree bit for bit.
        let code = quiet(
            client_cmd,
            &to_args(&[
                &addr,
                "zipf",
                "--accesses",
                "20000",
                "--elements",
                "400",
                "--period",
                "512",
                "--seed",
                "7",
                "--chunk-bytes",
                "9973",
                "--crosscheck",
            ]),
        );
        assert_eq!(code, ExitCode::SUCCESS);

        // A trace file streams and crosschecks too.
        let (path, _) = write_sample_trace("client-file", 10_000);
        let code = quiet(
            client_cmd,
            &to_args(&[&addr, &path.display().to_string(), "--crosscheck"]),
        );
        assert_eq!(code, ExitCode::SUCCESS);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn client_rejects_bad_targets_and_dead_servers() {
        // Unknown workload/file never even connects.
        let code = quiet(client_cmd, &to_args(&["127.0.0.1:1", "no-such-workload"]));
        assert_eq!(code, ExitCode::FAILURE);
        // A server that isn't there is an error, not a hang or panic.
        let code = quiet(
            client_cmd,
            &to_args(&["127.0.0.1:9", "zipf", "--accesses", "100"]),
        );
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn sim_args_parse_and_validate() {
        let a = SimArgs::parse(&to_args(&["--seed", "42", "--schedules", "8"])).unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.schedules, 8);
        assert_eq!(a.faults, rdx_sim::FaultSet::all());

        let a = SimArgs::parse(&to_args(&["--faults", "truncate,batch-panic"])).unwrap();
        assert!(a.faults.truncate && a.faults.batch_panic);
        assert!(!a.faults.overlong && !a.faults.session_disorder);

        for (args, needle) in [
            (&["--faults", "bogus"][..], "unknown fault class"),
            // The decoder thread whose death this fault simulated is gone.
            (
                &["--faults", "worker-death"][..],
                "unknown fault class `worker-death`",
            ),
            (&["--schedules", "0"][..], "--schedules must be at least 1"),
            (&["--seed", "1", "--seed", "2"][..], "duplicate flag"),
            (&["--period", "512"][..], "unknown flag"),
        ] {
            let err = SimArgs::parse(&to_args(args)).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn sim_cmd_runs_a_small_sweep() {
        // The sweep decodes and profiles, so it holds the metrics lock.
        let _guard = metrics_guard();
        // A tiny schedule count keeps this fast; the full sweep runs in
        // rdx-sim's own tests and the CI sim leg.
        let code = quiet(sim_cmd, &to_args(&["--seed", "1", "--schedules", "2"]));
        assert_eq!(code, ExitCode::SUCCESS);
        let code = quiet(sim_cmd, &to_args(&["--bogus"]));
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn static_flags_reject_dynamic_tuning() {
        for args in [
            &["--period", "512"][..],
            &["--registers", "2"][..],
            &["--jobs", "4"][..],
            &["--kernel", "swar"][..],
            &["--decode-buffer", "16"][..],
        ] {
            let err = Opts::parse(&to_args(args), STATIC_FLAGS).unwrap_err();
            assert!(err.contains("unknown flag"), "{args:?}: {err}");
        }
        let opts = Opts::parse(
            &to_args(&["--accesses", "5000", "--elements", "300", "--mrc"]),
            STATIC_FLAGS,
        )
        .unwrap();
        assert_eq!(opts.accesses, Some(5000));
        assert!(opts.mrc);
    }

    #[test]
    fn zero_accesses_and_elements_are_flag_errors() {
        // Params::with_accesses(0) would panic downstream; the boundary
        // rejects it as a per-parameter error first.
        for flags in [PROFILE_FLAGS, SUITE_FLAGS, STATIC_FLAGS] {
            let err = Opts::parse(&to_args(&["--accesses", "0"]), flags).unwrap_err();
            assert_eq!(err, "--accesses must be at least 1 (got 0)");
            let err = Opts::parse(&to_args(&["--elements", "0"]), flags).unwrap_err();
            assert_eq!(err, "--elements must be at least 1 (got 0)");
        }
    }

    #[test]
    fn static_cmd_estimates_affine_and_rejects_non_affine() {
        let _guard = metrics_guard();
        let code = quiet(
            static_cmd,
            &to_args(&[
                "stream_triad",
                "--accesses",
                "60000",
                "--elements",
                "3000",
                "--exact",
                "--mrc",
                "--csv",
            ]),
        );
        assert_eq!(code, ExitCode::SUCCESS);

        // Non-affine workloads are a typed refusal, not a wrong answer.
        let code = quiet(
            static_cmd,
            &to_args(&["pointer_chase", "--accesses", "1000"]),
        );
        assert_eq!(code, ExitCode::FAILURE);
        let code = quiet(static_cmd, &to_args(&["no-such-kernel"]));
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn static_cmd_metrics_prove_zero_dynamic_accesses() {
        let _guard = metrics_guard();
        // The crosscheck fails the command if any trace/profiler/runner
        // counter moved — the trace-free claim, enforced.
        let code = quiet(
            static_cmd,
            &to_args(&[
                "matmul_naive",
                "--accesses",
                "50000",
                "--elements",
                "768",
                "--metrics",
            ]),
        );
        assert_eq!(code, ExitCode::SUCCESS);
        let snap = rdx_metrics::snapshot();
        assert_eq!(snap.counter("rdx.static.estimates"), Some(1));
        for name in STATIC_ZERO_COUNTERS {
            assert_eq!(snap.counter(name).unwrap_or(0), 0, "{name}");
        }
    }

    #[test]
    fn save_out_and_merge_flags_parse() {
        let opts = Opts::parse(&to_args(&["--save", "p.rdxp"]), PROFILE_FLAGS).unwrap();
        assert_eq!(opts.save.as_deref(), Some("p.rdxp"));
        let err = Opts::parse(&to_args(&["--save"]), PROFILE_FLAGS).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err =
            Opts::parse(&to_args(&["--save", "a", "--save", "b"]), PROFILE_FLAGS).unwrap_err();
        assert!(err.contains("duplicate flag '--save'"), "{err}");

        let opts = Opts::parse(&to_args(&["--merge", "--out", "fleet.rdxp"]), SUITE_FLAGS).unwrap();
        assert!(opts.merge);
        assert_eq!(opts.out.as_deref(), Some("fleet.rdxp"));

        // merge takes only output flags; profiling knobs are rejected.
        for args in [&["--period", "512"][..], &["--save", "x"][..]] {
            let err = Opts::parse(&to_args(args), MERGE_FLAGS).unwrap_err();
            assert!(err.contains("unknown flag"), "{args:?}: {err}");
        }
        let opts = Opts::parse(&to_args(&["--out", "f", "--csv", "--mrc"]), MERGE_FLAGS).unwrap();
        assert_eq!(opts.out.as_deref(), Some("f"));
        assert!(opts.csv && opts.mrc);
    }

    #[test]
    fn merge_rejects_kernel_and_jobs() {
        // merge folds in order on one thread: it takes neither knob.
        let err = Opts::parse(&to_args(&["--kernel", "simd"]), MERGE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag '--kernel'"), "{err}");
        let err = Opts::parse(&to_args(&["--jobs", "2"]), MERGE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag '--jobs'"), "{err}");
        // suite --merge still takes --jobs for its profiling pass.
        let opts = Opts::parse(&to_args(&["--merge", "--jobs", "2"]), SUITE_FLAGS).unwrap();
        assert!(opts.merge);
        assert_eq!(opts.jobs(), 2);
    }

    #[test]
    fn profile_save_then_merge_round_trips() {
        let _guard = metrics_guard();
        let shard_a = temp_path("shard-a.rdxp").display().to_string();
        let shard_b = temp_path("shard-b.rdxp").display().to_string();
        let fleet = temp_path("fleet.rdxp").display().to_string();
        for (path, seed) in [(&shard_a, "3"), (&shard_b, "4")] {
            let code = quiet(
                profile,
                &to_args(&[
                    "zipf",
                    "--accesses",
                    "20000",
                    "--elements",
                    "400",
                    "--period",
                    "512",
                    "--seed",
                    seed,
                    "--csv",
                    "--save",
                    path,
                ]),
            );
            assert_eq!(code, ExitCode::SUCCESS);
        }
        let code = quiet(
            merge_cmd,
            &to_args(&[&shard_a, &shard_b, "--csv", "--out", &fleet]),
        );
        assert_eq!(code, ExitCode::SUCCESS);

        // The written fleet profile is exactly merge_batch of the parts.
        let a = rdx_core::decode_profile(&std::fs::read(&shard_a).unwrap()).unwrap();
        let b = rdx_core::decode_profile(&std::fs::read(&shard_b).unwrap()).unwrap();
        let merged = rdx_core::decode_profile(&std::fs::read(&fleet).unwrap()).unwrap();
        let direct = rdx_core::merge_batch(vec![a.clone(), b.clone()], 1)
            .unwrap()
            .unwrap();
        assert_eq!(merged, direct);
        assert_eq!(merged.accesses, a.accesses + b.accesses);

        for p in [shard_a, shard_b, fleet] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merge_cmd_reports_typed_errors() {
        let _guard = metrics_guard();
        // No inputs at all.
        assert_eq!(quiet(merge_cmd, &to_args(&["--csv"])), ExitCode::FAILURE);
        // Missing file.
        assert_eq!(
            quiet(merge_cmd, &to_args(&["/no/such/profile.rdxp"])),
            ExitCode::FAILURE
        );
        // Not an RDXP payload: recoverable decode error, not a panic.
        let junk = temp_path("junk.rdxp");
        std::fs::write(&junk, b"definitely not a profile").unwrap();
        assert_eq!(
            quiet(merge_cmd, &[junk.display().to_string()]),
            ExitCode::FAILURE
        );

        // Two structurally valid profiles with different binnings: the
        // merge itself fails with a typed incompatibility.
        let good = temp_path("good.rdxp");
        let odd = temp_path("odd.rdxp");
        let params = rdx_workloads::Params::default()
            .with_accesses(5_000)
            .with_elements(100);
        let p = RdxRunner::new(RdxConfig::default().with_period(512))
            .profile(by_name("zipf").unwrap().stream(&params));
        std::fs::write(&good, rdx_core::encode_profile(&p)).unwrap();
        let mut q = p.clone();
        q.rd = rdx_histogram::RdHistogram::new(Binning::linear(64));
        std::fs::write(&odd, rdx_core::encode_profile(&q)).unwrap();
        assert_eq!(
            quiet(
                merge_cmd,
                &to_args(&[
                    &good.display().to_string(),
                    &odd.display().to_string(),
                    "--csv",
                ])
            ),
            ExitCode::FAILURE
        );
        for p in [junk, good, odd] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn suite_merge_emits_one_fleet_profile() {
        let _guard = metrics_guard();
        let fleet = temp_path("suite-fleet.rdxp").display().to_string();
        let code = quiet(
            suite_cmd,
            &to_args(&[
                "--accesses",
                "4000",
                "--elements",
                "200",
                "--period",
                "512",
                "--csv",
                "--merge",
                "--out",
                &fleet,
            ]),
        );
        assert_eq!(code, ExitCode::SUCCESS);
        let merged = rdx_core::decode_profile(&std::fs::read(&fleet).unwrap()).unwrap();
        // One fleet profile covering every registry workload's accesses.
        assert_eq!(merged.accesses, 4000 * suite().len() as u64);
        let _ = std::fs::remove_file(fleet);

        // --out without --merge is a flag error.
        assert_eq!(
            quiet(suite_cmd, &to_args(&["--out", "x.rdxp"])),
            ExitCode::FAILURE
        );
    }

    #[test]
    fn metrics_crosscheck_rows_sum_profiles() {
        let _guard = metrics_guard();
        let params = rdx_workloads::Params::default()
            .with_accesses(30_000)
            .with_elements(400);
        let runner = RdxRunner::new(RdxConfig::default().with_period(512));
        let rows: Vec<(String, RdxProfile)> = ["zipf", "stream_triad"]
            .iter()
            .map(|n| {
                (
                    (*n).to_string(),
                    runner.profile(by_name(n).unwrap().stream(&params)),
                )
            })
            .collect();
        let checks = crosscheck_rows(&rows);
        let samples: u64 = rows.iter().map(|(_, p)| p.samples).sum();
        assert!(checks.contains(&("rdx.profiler.samples", samples)));
        assert!(samples > 0);
    }
}
