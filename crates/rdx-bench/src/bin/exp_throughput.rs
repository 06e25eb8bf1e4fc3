//! Throughput contrast: chunk-scanning fast path vs per-access slow loop.
//!
//! For every registry workload at the paper's 64 Ki operating point, the
//! trace is materialized once and profiled twice — through the zero-copy
//! chunk fast path (`trace.stream()`) and through the same stream with
//! its chunk capability hidden (`Opaque`), which forces the machine to
//! single-step every access. Both runs produce bit-identical profiles
//! (asserted here; the binary fails loudly on divergence), so the only
//! difference is accesses per second.
//!
//! A second contrast isolates the needle scanner itself: the same quiet
//! run is swept by the production scan ([`memsim::kernels::scan`], AVX2
//! where the host has it) and by the scalar oracle `NeedleSet::scan`,
//! both called the same way, in back-to-back rounds, and the median of
//! the rounds' production-over-oracle ratios becomes `kernel_speedup` —
//! an in-process ratio that is immune to host speed, which is what the
//! CI regression gate checks.
//! The same run swept in 64-access slices, one scan call per slice as
//! at a period-64 sampling rate, gives `short_run_kernel_speedup`: it
//! charges the kernel's per-call setup, which a whole-run sweep hides.
//!
//! Besides the table, results land in the `"throughput"` section of
//! `BENCH_rdx.json` (path override: `RDX_BENCH_OUT`; other sections,
//! e.g. `exp_decode`'s `"decode"`, are preserved) for CI artifact
//! upload. `RDX_ACCESSES` scales the run; `RDX_REPS` (default 3)
//! controls how many timed repetitions the profile minimum is taken
//! over (at least nine rounds for the scan ratios).
//!
//! `--check [--tol <0..1>]` switches to regression-check mode: only the
//! scan-kernel microbenchmark runs, its fresh `kernel_speedup` and
//! `short_run_kernel_speedup` are each compared against the recorded
//! baseline (`BENCH_rdx.json`, override
//! `RDX_BENCH_BASELINE`; fail only below recorded × (1 − tol)), and the
//! fresh numbers go to `BENCH_fresh.json` (override `RDX_BENCH_OUT`)
//! for artifact upload. `RDX_KERNEL=scalar` makes the production side
//! time the oracle instead — CI sets it to prove the gate fails without
//! the fast kernel.

use memsim::{kernels, NeedleSet, ScanOutcome};
use rdx_bench::{
    bench_args, bench_out_path, check_metric, experiment_params, json_number, kernel_override,
    median, paper_config, print_table, read_bench_baseline, reps, resolve_tolerance, time_min,
    update_bench_json_at, update_bench_json_keeping,
};
use rdx_core::{RdxProfile, RdxRunner};
use rdx_trace::{Access, AccessBuf, AccessSlice, Opaque, Trace};
use rdx_workloads::suite;
use std::fmt::Write as _;

struct Row {
    name: &'static str,
    fast_aps: f64,
    slow_aps: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.fast_aps / self.slow_aps
    }
}

fn assert_identical(name: &str, fast: &RdxProfile, slow: &RdxProfile) {
    assert_eq!(fast.rd, slow.rd, "{name}: rd histogram diverged");
    assert_eq!(fast.rt, slow.rt, "{name}: rt histogram diverged");
    assert_eq!(fast.samples, slow.samples, "{name}: sample count diverged");
    assert_eq!(fast.traps, slow.traps, "{name}: trap count diverged");
    assert_eq!(
        fast.m_estimate.to_bits(),
        slow.m_estimate.to_bits(),
        "{name}: m_estimate diverged"
    );
}

/// One scan-kernel measurement: the loop the production side ran, the
/// quiet-run throughput of both sides, whole-run and in short slices,
/// and the production-vs-oracle ratios the regression gate pins.
struct ScanBench {
    /// `simd` when the production side scanned with AVX2, else `scalar`.
    kernel: &'static str,
    accesses: u64,
    whole: Sides,
    short: Sides,
}

impl ScanBench {
    fn kernel_speedup(&self) -> f64 {
        self.whole.speedup
    }

    fn short_run_kernel_speedup(&self) -> f64 {
        self.short.speedup
    }
}

/// Both sides of one contrast: each side's median throughput and the
/// median of the rounds' production-over-oracle ratios.
struct Sides {
    scalar_aps: f64,
    auto_aps: f64,
    speedup: f64,
}

/// Accesses per scan pass: one plausible PMU overflow gap's worth.
const SCAN_RUN: usize = 1 << 16;

/// Accesses per scan call in the short-run contrast: a segment at
/// period 64, the length a dense-period run hands the kernel.
const SHORT_RUN: usize = 64;

/// Fewest alternating rounds the scan-kernel microbenchmark times.
const SCAN_MIN_ROUNDS: u32 = 9;

type ScanFn = fn(&NeedleSet, AccessSlice<'_>) -> ScanOutcome;

/// Times the production scan and the scalar oracle over the hot case —
/// a quiet run (no needle hits) swept end to end, exactly what the
/// machine fast path does between PMU overflows — once in whole-run
/// calls and once in `SHORT_RUN`-access calls.
fn scan_kernel_bench(total_accesses: u64, reps: u32) -> ScanBench {
    // Four read-write 8-byte needles (the paper's DR0–DR3 at maximal
    // width) parked far above the run so no access hits — the machine
    // fast path's hot case between PMU overflows.
    let needles = NeedleSet::from_ranges(&[
        (0x7fff_0000, 8, false),
        (0x7fff_1000, 8, false),
        (0x7fff_2000, 8, false),
        (0x7fff_3000, 8, false),
    ]);
    // Built in the columnar layout the machine scans (`AccessBuf`).
    let run: AccessBuf = (0..SCAN_RUN as u64)
        .map(|i| {
            if i % 5 == 0 {
                Access::store(i * 8)
            } else {
                Access::load(i * 8)
            }
        })
        .collect();
    let passes = (total_accesses as usize / SCAN_RUN).max(1);
    let accesses = (SCAN_RUN * passes) as u64;

    let oracle: ScanFn = NeedleSet::scan;
    let forced = kernel_override();
    let production = if forced { oracle } else { kernels::scan };
    let time = |slice: usize| {
        time_sides(
            [oracle, production],
            &needles,
            run.as_slice(),
            passes,
            slice,
            reps,
        )
    };
    let whole = time(SCAN_RUN);
    let short = time(SHORT_RUN);
    ScanBench {
        kernel: if !forced && kernels::avx2_detected() {
            "simd"
        } else {
            "scalar"
        },
        accesses,
        whole,
        short,
    }
}

/// Times `sides` sweeping `run` `passes` times in calls of `slice`
/// accesses.
///
/// Each round times the oracle and then the production side, back to
/// back, and the speedup is the median of the rounds' ratios: a host
/// stall then moves one round's ratio, not the best rep of whichever
/// side it hit. A round at the CI scale lasts about a millisecond, so
/// at least `SCAN_MIN_ROUNDS` are taken whatever `reps` asks. Both
/// sides are called through a fn pointer, so they are timed at the same
/// boundary.
fn time_sides(
    sides: [ScanFn; 2],
    needles: &NeedleSet,
    run: AccessSlice<'_>,
    passes: usize,
    slice: usize,
    reps: u32,
) -> Sides {
    let mut rounds: Vec<[f64; 2]> = Vec::new();
    for _ in 0..reps.max(SCAN_MIN_ROUNDS) {
        let mut round = [0.0; 2];
        for (scan, secs_out) in sides.into_iter().zip(&mut round) {
            let (secs, sink) = time_min(1, || {
                let mut sink = 0u64;
                for _ in 0..passes {
                    for start in (0..run.len()).step_by(slice) {
                        let out = scan(needles, run.slice(start..run.len().min(start + slice)));
                        sink = sink
                            .wrapping_add(out.stores_before)
                            .wrapping_add(out.first_match.map_or(0, |i| i as u64));
                    }
                }
                sink
            });
            std::hint::black_box(sink);
            *secs_out = secs;
        }
        rounds.push(round);
    }
    let accesses = (passes * run.len()) as f64;
    let aps = |side: usize| accesses / median(rounds.iter().map(|r| r[side]).collect());
    Sides {
        scalar_aps: aps(0),
        auto_aps: aps(1),
        speedup: median(rounds.iter().map(|r| r[0] / r[1]).collect()),
    }
}

fn print_scan_bench(bench: &ScanBench) {
    println!(
        "\nscan kernels (quiet run, {} accesses, production scan runs '{}'):",
        bench.accesses, bench.kernel
    );
    print_table(
        &["kernel", "acc/s", "vs scalar"],
        &[
            vec![
                "scalar (oracle)".into(),
                format!("{:.3e}", bench.whole.scalar_aps),
                "1.00x".into(),
            ],
            vec![
                format!("{} (production)", bench.kernel),
                format!("{:.3e}", bench.whole.auto_aps),
                format!("{:.2}x", bench.kernel_speedup()),
            ],
        ],
    );
    println!(
        "kernel_speedup (production vs scalar oracle): {:.2}x",
        bench.kernel_speedup()
    );
    println!(
        "short_run_kernel_speedup ({SHORT_RUN}-access calls, {:.3e} vs {:.3e} acc/s): {:.2}x",
        bench.short.auto_aps,
        bench.short.scalar_aps,
        bench.short_run_kernel_speedup()
    );
}

/// `--check`: rerun only the scan-kernel microbenchmark, gate on the
/// recorded `kernel_speedup` and `short_run_kernel_speedup` ratios, and
/// write the fresh numbers to a separate artifact file. Returns the
/// process exit code.
fn check_mode(tol_flag: Option<f64>, accesses: u64, reps: u32) -> i32 {
    let baseline = match read_bench_baseline() {
        Ok(text) => text,
        Err(e) => {
            eprintln!("exp_throughput --check: cannot read recorded baseline: {e}");
            return 2;
        }
    };
    let gates = ["kernel_speedup", "short_run_kernel_speedup"];
    let mut recorded = [0.0; 2];
    for (key, value) in gates.iter().zip(&mut recorded) {
        let Some(v) = json_number(&baseline, &["throughput", "scan_kernel", key]) else {
            eprintln!(
                "exp_throughput --check: baseline has no throughput.scan_kernel.{key} \
                 (run exp_throughput once without --check to record it)"
            );
            return 2;
        };
        *value = v;
    }
    let tol = resolve_tolerance(tol_flag, &baseline, "throughput");
    let bench = scan_kernel_bench(accesses, reps);
    print_scan_bench(&bench);
    let fresh = [bench.kernel_speedup(), bench.short_run_kernel_speedup()];
    // Both gates are checked and printed, whichever fails first.
    let mut ok = true;
    for ((key, fresh), recorded) in gates.iter().zip(fresh).zip(recorded) {
        ok &= check_metric(
            &format!("throughput.scan_kernel.{key}"),
            fresh,
            recorded,
            tol,
        );
    }
    let out = update_bench_json_at(
        &bench_out_path("BENCH_fresh.json"),
        "throughput",
        &render_check_section(&bench, tol, ok),
    )
    .unwrap_or_else(|e| panic!("writing fresh check numbers: {e}"));
    println!("wrote {out} (section \"throughput\", check mode)");
    i32::from(!ok)
}

fn main() {
    let args = bench_args().unwrap_or_else(|e| {
        eprintln!("exp_throughput: {e}");
        std::process::exit(2);
    });
    let params = experiment_params();
    let config = paper_config();
    let period = config.machine.sampling.period;
    let reps = reps();
    if args.check {
        std::process::exit(check_mode(args.tol, params.accesses, reps));
    }
    println!(
        "Throughput: bulk-scan fast path vs per-access loop \
         ({} accesses, period {}, best of {})\n",
        params.accesses, period, reps
    );

    let mut rows: Vec<Row> = Vec::new();
    for w in suite() {
        let trace = Trace::from_stream(w.name, w.stream(&params));
        let n = trace.len() as f64;
        let runner = RdxRunner::new(config);
        let (fast_s, fast) = time_min(reps, || runner.profile(trace.stream()));
        let (slow_s, slow) = time_min(reps, || runner.profile(Opaque::new(trace.stream())));
        assert_identical(w.name, &fast, &slow);
        rows.push(Row {
            name: w.name,
            fast_aps: n / fast_s,
            slow_aps: n / slow_s,
        });
    }

    print_table(
        &["workload", "fast acc/s", "slow acc/s", "speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    format!("{:.3e}", r.fast_aps),
                    format!("{:.3e}", r.slow_aps),
                    format!("{:.2}x", r.speedup()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let max = rows.iter().map(Row::speedup).fold(0.0f64, f64::max);
    println!("\nmax speedup: {max:.2}x (profiles verified bit-identical)");

    let bench = scan_kernel_bench(params.accesses, reps);
    print_scan_bench(&bench);

    // A hand-tuned check_tolerance in the recorded file survives
    // re-runs; the gate falls back to 0.25 when absent.
    let out = update_bench_json_keeping(
        "throughput",
        &render_section(&rows, &bench, params.accesses, period, max),
        &["check_tolerance"],
    )
    .unwrap_or_else(|e| panic!("writing benchmark results: {e}"));
    println!("wrote {out} (section \"throughput\")");
}

/// The `"scan_kernel"` subobject shared by both output modes.
fn render_scan_kernel(bench: &ScanBench, indent: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "{indent}  \"kernel\": \"{}\",", bench.kernel);
    let _ = writeln!(s, "{indent}  \"accesses\": {},", bench.accesses);
    let _ = writeln!(
        s,
        "{indent}  \"scalar_accesses_per_sec\": {:.1},",
        bench.whole.scalar_aps
    );
    // A production side that ran the scalar loop too has no row of
    // its own: its throughput is only the ratio below.
    if bench.kernel != "scalar" {
        let _ = writeln!(
            s,
            "{indent}  \"{}_accesses_per_sec\": {:.1},",
            bench.kernel, bench.whole.auto_aps
        );
    }
    let _ = writeln!(
        s,
        "{indent}  \"kernel_speedup\": {:.3},",
        bench.kernel_speedup()
    );
    let _ = writeln!(s, "{indent}  \"short_run_accesses\": {SHORT_RUN},");
    let _ = writeln!(
        s,
        "{indent}  \"short_run_scalar_accesses_per_sec\": {:.1},",
        bench.short.scalar_aps
    );
    if bench.kernel != "scalar" {
        let _ = writeln!(
            s,
            "{indent}  \"short_run_{}_accesses_per_sec\": {:.1},",
            bench.kernel, bench.short.auto_aps
        );
    }
    let _ = writeln!(
        s,
        "{indent}  \"short_run_kernel_speedup\": {:.3}",
        bench.short_run_kernel_speedup()
    );
    let _ = write!(s, "{indent}}}");
    s
}

/// The fresh-numbers artifact written by `--check`.
fn render_check_section(bench: &ScanBench, tol: f64, ok: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "    \"check_tolerance\": {tol:.3},");
    let _ = writeln!(s, "    \"check_passed\": {ok},");
    let _ = writeln!(
        s,
        "    \"scan_kernel\": {}",
        render_scan_kernel(bench, "    ")
    );
    let _ = write!(s, "  }}");
    s
}

/// Hand-rolled JSON (the workspace deliberately vendors no JSON crate):
/// every value written is a finite number or a registry identifier, so
/// no string escaping is needed. The object becomes the `"throughput"`
/// section of `BENCH_rdx.json`.
fn render_section(rows: &[Row], bench: &ScanBench, accesses: u64, period: u64, max: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "    \"accesses\": {accesses},");
    let _ = writeln!(s, "    \"period\": {period},");
    let _ = writeln!(s, "    \"max_speedup\": {max:.3},");
    let _ = writeln!(
        s,
        "    \"scan_kernel\": {},",
        render_scan_kernel(bench, "    ")
    );
    let _ = writeln!(s, "    \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"fast_accesses_per_sec\": {:.1}, \
             \"slow_accesses_per_sec\": {:.1}, \"speedup\": {:.3}}}{comma}",
            r.name,
            r.fast_aps,
            r.slow_aps,
            r.speedup()
        );
    }
    let _ = writeln!(s, "    ]");
    let _ = write!(s, "  }}");
    s
}
