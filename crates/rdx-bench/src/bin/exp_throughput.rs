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
//! run is swept by every registered scan kernel ([`memsim::kernels`]),
//! and the auto-dispatched kernel's throughput over the scalar oracle's
//! becomes `kernel_speedup` — an in-process ratio that is immune to
//! host speed, which is what the CI regression gate checks.
//!
//! Besides the table, results land in the `"throughput"` section of
//! `BENCH_rdx.json` (path override: `RDX_BENCH_OUT`; other sections,
//! e.g. `exp_decode`'s `"decode"`, are preserved) for CI artifact
//! upload. `RDX_ACCESSES` scales the run; `RDX_REPS` (default 3)
//! controls how many timed repetitions the minimum is taken over.
//!
//! `--check [--tol <0..1>]` switches to regression-check mode: only the
//! scan-kernel microbenchmark runs, its fresh `kernel_speedup` is
//! compared against the recorded baseline (`BENCH_rdx.json`, override
//! `RDX_BENCH_BASELINE`; fail only below recorded × (1 − tol)), and the
//! fresh numbers go to `BENCH_fresh.json` (override `RDX_BENCH_OUT`)
//! for artifact upload. `RDX_KERNEL` forces what "auto" resolves to —
//! CI sets `RDX_KERNEL=scalar` to prove the gate fails when the fast
//! kernels are disabled.

use memsim::kernels::{resolve_scan, run_scan, scan_kernels};
use memsim::{KernelChoice, KernelKind, NeedleSet};
use rdx_bench::{
    bench_args, bench_out_path, check_metric, experiment_params, json_number, kernel_override,
    paper_config, print_table, read_bench_baseline, reps, resolve_tolerance, time_min,
    update_bench_json_at, update_bench_json_keeping,
};
use rdx_core::{RdxProfile, RdxRunner};
use rdx_trace::{Access, AccessBuf, Opaque, Trace};
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

/// One scan-kernel measurement: the resolved auto kernel, every
/// registered kernel's quiet-run throughput, and the auto-vs-scalar
/// ratio the regression gate pins.
struct ScanBench {
    auto_kind: KernelKind,
    accesses: u64,
    per_kernel: Vec<(&'static str, f64)>,
    scalar_aps: f64,
    auto_aps: f64,
}

impl ScanBench {
    fn kernel_speedup(&self) -> f64 {
        self.auto_aps / self.scalar_aps
    }
}

/// Accesses per scan pass: one plausible PMU overflow gap's worth.
const SCAN_RUN: usize = 1 << 16;

/// Times every registered scan kernel over the hot case — a quiet run
/// (no needle hits) swept end to end, exactly what the machine fast
/// path does between PMU overflows.
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

    let auto_choice = kernel_override().unwrap_or(KernelChoice::Auto);
    let auto_kind = resolve_scan(auto_choice);
    let mut per_kernel = Vec::new();
    let aps_of = |kind: KernelKind| {
        let (secs, sink) = time_min(reps, || {
            let mut sink = 0u64;
            for _ in 0..passes {
                let out = run_scan(kind, &needles, run.as_slice());
                sink = sink
                    .wrapping_add(out.stores_before)
                    .wrapping_add(out.first_match.map_or(0, |i| i as u64));
            }
            sink
        });
        std::hint::black_box(sink);
        accesses as f64 / secs
    };
    for entry in scan_kernels() {
        per_kernel.push((entry.kind.name(), aps_of(entry.kind)));
    }
    let lookup = |kind: KernelKind| {
        per_kernel
            .iter()
            .find(|&&(name, _)| name == kind.name())
            .map_or(0.0, |&(_, aps)| aps)
    };
    ScanBench {
        auto_kind,
        accesses,
        scalar_aps: lookup(KernelKind::Scalar),
        auto_aps: lookup(auto_kind),
        per_kernel,
    }
}

fn print_scan_bench(bench: &ScanBench) {
    println!(
        "\nscan kernels (quiet run, {} accesses, auto resolves to '{}'):",
        bench.accesses,
        bench.auto_kind.name()
    );
    print_table(
        &["kernel", "acc/s", "vs scalar"],
        &bench
            .per_kernel
            .iter()
            .map(|&(name, aps)| {
                vec![
                    name.to_string(),
                    format!("{aps:.3e}"),
                    format!("{:.2}x", aps / bench.scalar_aps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "kernel_speedup (auto vs scalar): {:.2}x",
        bench.kernel_speedup()
    );
}

/// `--check`: rerun only the scan-kernel microbenchmark, gate on the
/// recorded `kernel_speedup` ratio, and write the fresh numbers to a
/// separate artifact file. Returns the process exit code.
fn check_mode(tol_flag: Option<f64>, accesses: u64, reps: u32) -> i32 {
    let baseline = match read_bench_baseline() {
        Ok(text) => text,
        Err(e) => {
            eprintln!("exp_throughput --check: cannot read recorded baseline: {e}");
            return 2;
        }
    };
    let Some(recorded) = json_number(&baseline, &["throughput", "scan_kernel", "kernel_speedup"])
    else {
        eprintln!(
            "exp_throughput --check: baseline has no throughput.scan_kernel.kernel_speedup \
             (run exp_throughput once without --check to record it)"
        );
        return 2;
    };
    let tol = resolve_tolerance(tol_flag, &baseline, "throughput");
    let bench = scan_kernel_bench(accesses, reps);
    print_scan_bench(&bench);
    let ok = check_metric(
        "throughput.scan_kernel.kernel_speedup",
        bench.kernel_speedup(),
        recorded,
        tol,
    );
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
    let _ = writeln!(s, "{indent}  \"kernel\": \"{}\",", bench.auto_kind.name());
    let _ = writeln!(s, "{indent}  \"accesses\": {},", bench.accesses);
    for &(name, aps) in &bench.per_kernel {
        let _ = writeln!(s, "{indent}  \"{name}_accesses_per_sec\": {aps:.1},");
    }
    let _ = writeln!(
        s,
        "{indent}  \"kernel_speedup\": {:.3}",
        bench.kernel_speedup()
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
