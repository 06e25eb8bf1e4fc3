//! `rdx-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one line per metric, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! output failed its check (or the pinned digest differs), 2 on bad
//! arguments or a set-up error.

use rdx_perfbench::ledger::{self, metric, Metric};
use rdx_perfbench::run::{self, Refs, Tally, Timed};
use rdx_perfbench::setup::{self, Workload};
use rdx_perfbench::spans::Tracer;
use rdx_perfbench::stats;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seed whose workload digests are pinned below.
const PINNED_SEED: u64 = 42;

/// Workload digest at [`PINNED_SEED`]: every reference profile, then
/// the merged roll-up, in the registry golden word order.
fn pinned_digest(workload: Workload) -> u64 {
    match workload {
        Workload::InmemDense => 0xf175_6f02_aeb8_0dda,
        // The same traces at the default configuration.
        Workload::InmemPaper | Workload::RdxtPaper | Workload::ServeSnapshots => {
            0x7b65_762f_d24a_98ec
        }
    }
}

/// Where runs leave their temp files and span logs.
const OUT_DIR: &str = ".perfbench_out";

/// The run's temp-file directory, removed when the run ends (a panic
/// included).
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    bad(&format!(
                        "expected one of {}",
                        Workload::ALL.map(Workload::name).join(", ")
                    ))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(PINNED_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: rdx-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let dir = RunDir(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    let result = std::fs::create_dir_all(&dir.0)
        .map_err(|e| e.to_string())
        .and_then(|()| bench(&args, &dir.0));
    drop(dir);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(correct)`.
fn bench(args: &Args, dir: &Path) -> Result<bool, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch, 0);
    println!(
        "perfbench {} seed={} seconds={} trace={} cpus={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rdx_core::default_jobs()
    );

    let (mut inputs, setup_times) =
        setup::setup(w, args.seed, dir, &mut tracer).map_err(|e| format!("set-up: {e}"))?;
    let each: Vec<String> = setup_times
        .each_s
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    println!("set-up runs             {} s", each.join(" "));
    let refs = Refs::compute(w, &inputs).map_err(|e| format!("references: {e}"))?;
    let digest = refs.workload_digest();
    let pin_ok = args.seed != PINNED_SEED || digest == pinned_digest(w);
    println!(
        "workload digest {digest:#018x}{}",
        if args.seed == PINNED_SEED {
            if pin_ok {
                " (matches the pinned digest)"
            } else {
                " (DIFFERS from the pinned digest)"
            }
        } else {
            ""
        }
    );

    if !args.trace && matches!(w, Workload::RdxtPaper | Workload::ServeSnapshots) {
        // Their timed phase reads only the RDXT bytes, and on rdxt_paper
        // only from the temp files.
        inputs.traces = Vec::new();
        if w == Workload::RdxtPaper {
            inputs.rdxt = Vec::new();
        }
    }

    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(
            args,
            &inputs,
            &refs,
            dir,
            setup_times,
            &mut tracer,
            &mut tally,
        )?
    } else {
        let mut off = Tracer::new(false, epoch, 0);
        // peak_rss_mb is the timed phase's peak, not set-up's or the
        // references'.
        if stats::reset_peak_rss() {
            println!(
                "resident at start       {:.1} MiB (VmHWM reset)",
                stats::rss_mb()
            );
        } else {
            println!("resident at start       VmHWM reset refused: peak_rss_mb includes set-up");
        }
        let steal = stats::steal_ticks();
        let t = run::timed_phase(w, &inputs, &refs, args.seconds, &mut off);
        // /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
        let stolen_s = stats::steal_ticks().saturating_sub(steal) as f64 / 100.0;
        println!(
            "host steal              {stolen_s:.2} s of CPU during the {:.1} s timed phase",
            t.wall_s
        );
        let m = end_to_end(w, &t, setup_times);
        tally.absorb(t.tally);
        m
    };
    drop(inputs);

    if args.trace {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for f in &tally.shown {
        println!("FAILED: {f}");
    }
    let correct = pin_ok && tally.failed == 0;
    let rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "error_rate            {rate} ({} failed of {} attempted)",
        tally.failed, tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// A finite JSON number (non-finite readings print as 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn print(m: &Metric) {
    println!("{:<24}{} {}", m.name, m.value, m.unit);
}

/// The end-to-end metrics of an untraced timed phase.
fn end_to_end(w: Workload, t: &Timed, setup_times: setup::SetupTimes) -> Vec<Metric> {
    let p50 = stats::median(&t.latencies_ms);
    // With ten samples or fewer no percentile has ten beyond it; the
    // maximum is the closest reading.
    let (tail, pct) = stats::tail(&t.latencies_ms)
        .unwrap_or_else(|| (t.latencies_ms.iter().copied().fold(0.0, f64::max), 100.0));
    let op = match w {
        Workload::ServeSnapshots => "snapshot_histogram round trip",
        Workload::RdxtPaper => "one pass of load_rdxt + profile_rdxt over the five files",
        Workload::InmemPaper => "one pass of RdxRunner::profile over the five traces, then merge",
        Workload::InmemDense => "one pass of RdxRunner::profile over the five traces",
    };
    let metrics = vec![
        metric("throughput_acc_per_s", t.throughput(), "1/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("setup_s", setup_times.total_s, "s"),
        metric("peak_rss_mb", t.peak_rss_mb, "MiB"),
    ];
    for m in &metrics {
        print(m);
    }
    // Printed but left out of the JSON result: host steal stalls move
    // this order statistic by more than any regression bound between
    // identical runs (see README.md).
    print(&metric("latency_tail_ms", tail, "ms"));
    println!(
        "latency operation       {op}; tail is p{pct:.2} of {} samples ({} beyond it)",
        t.latencies_ms.len(),
        stats::TAIL_BEYOND
    );
    metrics
}

/// Slices of the traced run's timed phase. Untraced and traced slices
/// alternate, so host drift during the run touches both alike.
const TRACE_SLICES: usize = 4;

/// The traced run: alternating untraced and traced slices of the timed
/// phase, then the per-layer ledger.
fn traced(
    args: &Args,
    inputs: &setup::Inputs,
    refs: &Refs,
    dir: &Path,
    setup_times: setup::SetupTimes,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    // (accesses, wall seconds) of the untraced and the traced slices.
    let (mut plain, mut traced) = ((0u64, 0.0), (0u64, 0.0));
    let (mut call_s, mut thread_s) = (0.0, 0.0);
    for k in 0..TRACE_SLICES {
        let on = k % 2 == 1;
        let mut slice = Tracer::new(on, tracer.epoch(), 0);
        let t = run::timed_phase(
            w,
            inputs,
            refs,
            args.seconds / TRACE_SLICES as f64,
            &mut slice,
        );
        let sum = if on { &mut traced } else { &mut plain };
        sum.0 += t.accesses;
        sum.1 += t.wall_s;
        if on {
            call_s += slice.call_secs();
            thread_s += t.wall_s * t.threads as f64;
            tracer.absorb(slice, k as u64);
        }
        tally.absorb(t.tally);
    }
    let unattributed = 1.0 - call_s / thread_s;
    let overhead = 1.0 - (traced.0 as f64 / traced.1) / (plain.0 as f64 / plain.1);
    let mut metrics = vec![metric("gen.busy_s", setup_times.gen_s, "s")];
    metrics.extend(
        ledger::run(w, inputs, refs, dir, tracer, tally).map_err(|e| format!("ledger: {e}"))?,
    );
    metrics.push(metric("unattributed_frac", unattributed, "ratio"));
    metrics.push(metric("tracing_overhead_frac", overhead, "ratio"));
    for m in &metrics {
        print(m);
    }
    Ok(metrics)
}
