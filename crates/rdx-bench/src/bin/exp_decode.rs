//! Ingestion rates: RDXT decode alone and file-backed profiling.
//!
//! **Decode-only.** Every registry workload is serialized to RDXT bytes
//! once; the whole set is then drained without profiling through
//! `decode_chunk` into a reusable buffer, giving the raw decoder
//! throughput it can feed the machine.
//!
//! **End-to-end.** Each serialized workload is profiled at the paper's
//! 64 Ki operating point through `profile_rdxt`, the block-by-block
//! ingestion loop every RDXT path runs, and each profile is asserted
//! bit-identical to `RdxRunner::profile` of the in-memory trace.
//!
//! **Decode kernels.** Every serialized workload's record bytes are
//! additionally drained in chunk-sized batches by the scalar oracle, by
//! the block-decode instance this host runs and by the portable
//! instance ([`rdx_trace::kernels`]), all called the same way, in
//! back-to-back rounds; the median of the rounds' production-vs-oracle
//! ratios is `kernel_speedup`, an in-process number immune to host
//! speed — the quantity the CI regression gate checks. The portable
//! instance's ratio, `portable_speedup`, is reported beside it.
//!
//! Results land in the `"decode"` section of `BENCH_rdx.json` (path
//! override `RDX_BENCH_OUT`; other sections, e.g. `exp_throughput`'s
//! `"throughput"`, are preserved). `RDX_ACCESSES` scales the run;
//! `RDX_REPS` (default 3) controls the best-of-N timing (at least nine
//! pairs for the kernel ratio).
//!
//! `--check [--tol <0..1>]` switches to regression-check mode: only the
//! decode-kernel contrast runs, fresh `kernel_speedup` is compared
//! against the recorded baseline (`BENCH_rdx.json`, override
//! `RDX_BENCH_BASELINE`; fail only below recorded × (1 − tol)), and
//! fresh numbers go to `BENCH_fresh.json` (override `RDX_BENCH_OUT`).
//! `RDX_KERNEL=scalar` makes the production side time the oracle
//! instead — CI sets it to prove the gate fails without the fast
//! kernel.

use rdx_bench::{
    bench_args, bench_out_path, check_metric, experiment_params, json_number, kernel_override,
    median, paper_config, print_table, read_bench_baseline, reps, resolve_tolerance, time_min,
    update_bench_json_at, update_bench_json_keeping,
};
use rdx_core::{IngestOptions, RdxProfile, RdxRunner, RdxtInput};
use rdx_trace::kernels::{BlockDecode, KernelRun, ScalarDecode};
use rdx_trace::{io, AccessBuf, Bytes, Chunk, Trace, TraceReader, DEFAULT_CHUNK_CAPACITY};
use rdx_workloads::suite;
use std::fmt::Write as _;

struct Row {
    name: &'static str,
    bulk_aps: f64,
}

fn assert_identical(name: &str, what: &str, a: &RdxProfile, b: &RdxProfile) {
    assert_eq!(a.rd, b.rd, "{name}: rd histogram diverged ({what})");
    assert_eq!(a.rt, b.rt, "{name}: rt histogram diverged ({what})");
    assert_eq!(
        a.samples, b.samples,
        "{name}: sample count diverged ({what})"
    );
    assert_eq!(a.traps, b.traps, "{name}: trap count diverged ({what})");
    assert_eq!(
        a.m_estimate.to_bits(),
        b.m_estimate.to_bits(),
        "{name}: m_estimate diverged ({what})"
    );
}

/// One decode-kernel measurement: the kernel the production side ran,
/// each side's median record-drain throughput, and the medians of the
/// per-round ratios to the oracle.
struct KernelBench {
    /// `bmi2` or `portable`, or `scalar` when `RDX_KERNEL=scalar`
    /// forced the oracle.
    auto_name: &'static str,
    scalar_aps: f64,
    auto_aps: f64,
    portable_aps: f64,
    speedup: f64,
    portable_speedup: f64,
}

impl KernelBench {
    fn kernel_speedup(&self) -> f64 {
        self.speedup
    }
}

/// Records from `bytes` onto `out` until `out` holds `target` accesses,
/// by the scalar oracle (`None`) or a block instance.
fn decode_with(
    kernel: Option<BlockDecode>,
    bytes: &[u8],
    target: usize,
    prev: &mut u64,
    out: &mut AccessBuf,
) -> KernelRun {
    match kernel {
        Some(block) => block.decode_records(bytes, target, prev, out),
        None => ScalarDecode.decode_records(bytes, target, prev, out),
    }
}

/// Fewest rounds the decode-kernel microbenchmark times.
const DECODE_MIN_ROUNDS: u32 = 9;

/// Times the record drain over the serialized suite with the scalar
/// oracle, the production block instance (`RDX_KERNEL=scalar` times
/// the oracle there too) and the portable instance. Each side decodes
/// every blob's records in `DEFAULT_CHUNK_CAPACITY` batches into one
/// reused buffer, the way `RdxtDecoder` calls its kernel.
///
/// Each round times the three sides back to back, and each speedup is
/// the median of the rounds' ratios. On a shared host the sides' best
/// rounds can come from different host states, so a best-of-N per side
/// swings the ratio; a round shares one.
fn decode_kernel_bench(blobs: &[(&'static str, u64, Bytes)], total: u64, reps: u32) -> KernelBench {
    let production = (!kernel_override()).then(BlockDecode::detect);
    let records: Vec<(&str, usize, &[u8])> = blobs
        .iter()
        .map(|(name, n, raw)| {
            let header = io::parse_header(raw).expect("valid trace bytes");
            (*name, *n as usize, &raw[header.len..])
        })
        .collect();
    let drain = |kernel: Option<BlockDecode>| {
        let mut n = 0u64;
        let mut out = AccessBuf::with_capacity(DEFAULT_CHUNK_CAPACITY);
        for &(name, mut left, mut bytes) in &records {
            let mut prev = 0u64;
            while left > 0 {
                out.clear();
                let target = left.min(DEFAULT_CHUNK_CAPACITY);
                let run = decode_with(kernel, bytes, target, &mut prev, &mut out);
                assert!(
                    run.failure.is_none() && out.len() == target,
                    "{name}: clean trace failed to decode"
                );
                left -= target;
                n += target as u64;
                bytes = &bytes[run.committed..];
            }
        }
        n
    };
    let rounds: Vec<[f64; 3]> = (0..reps.max(DECODE_MIN_ROUNDS))
        .map(|_| {
            [None, production, Some(BlockDecode::portable())].map(|kernel| {
                let (secs, n) = time_min(1, || drain(kernel));
                assert_eq!(n, total, "drain lost records");
                secs
            })
        })
        .collect();
    let aps = |side: usize| total as f64 / median(rounds.iter().map(|r| r[side]).collect());
    let ratio = |side: usize| median(rounds.iter().map(|r| r[0] / r[side]).collect());
    KernelBench {
        auto_name: production.map_or("scalar", |k| k.name()),
        scalar_aps: aps(0),
        auto_aps: aps(1),
        portable_aps: aps(2),
        speedup: ratio(1),
        portable_speedup: ratio(2),
    }
}

fn print_kernel_bench(bench: &KernelBench, total: u64) {
    println!(
        "\ndecode kernels (record drain, {total} accesses, production runs '{}'):",
        bench.auto_name
    );
    print_table(
        &["kernel", "acc/s", "vs scalar"],
        &[
            vec![
                "scalar".into(),
                format!("{:.3e}", bench.scalar_aps),
                "1.00x".into(),
            ],
            vec![
                bench.auto_name.into(),
                format!("{:.3e}", bench.auto_aps),
                format!("{:.2}x", bench.kernel_speedup()),
            ],
            vec![
                "portable".into(),
                format!("{:.3e}", bench.portable_aps),
                format!("{:.2}x", bench.portable_speedup),
            ],
        ],
    );
    println!(
        "kernel_speedup (production vs scalar oracle): {:.2}x",
        bench.kernel_speedup()
    );
}

/// Serializes every registry workload once; the timed loops share
/// these buffers (`Bytes` clones are refcounted, not copies).
fn serialize_suite(params: &rdx_workloads::Params) -> Vec<(&'static str, u64, Bytes)> {
    suite()
        .iter()
        .map(|w| {
            let trace = Trace::from_stream(w.name, w.stream(params));
            (w.name, trace.len() as u64, io::to_bytes(&trace))
        })
        .collect()
}

/// `--check`: rerun only the decode-kernel contrast, gate on the
/// recorded `kernel_speedup` ratio, and write the fresh numbers to a
/// separate artifact file. Returns the process exit code.
fn check_mode(tol_flag: Option<f64>, params: &rdx_workloads::Params, reps: u32) -> i32 {
    let baseline = match read_bench_baseline() {
        Ok(text) => text,
        Err(e) => {
            eprintln!("exp_decode --check: cannot read recorded baseline: {e}");
            return 2;
        }
    };
    let Some(recorded) = json_number(&baseline, &["decode", "kernel_speedup"]) else {
        eprintln!(
            "exp_decode --check: baseline has no decode.kernel_speedup \
             (run exp_decode once without --check to record it)"
        );
        return 2;
    };
    let tol = resolve_tolerance(tol_flag, &baseline, "decode");
    let blobs = serialize_suite(params);
    let total: u64 = blobs.iter().map(|&(_, n, _)| n).sum();
    let bench = decode_kernel_bench(&blobs, total, reps);
    print_kernel_bench(&bench, total);
    let ok = check_metric(
        "decode.kernel_speedup",
        bench.kernel_speedup(),
        recorded,
        tol,
    );
    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "    \"check_tolerance\": {tol:.3},");
    let _ = writeln!(body, "    \"check_passed\": {ok},");
    let _ = writeln!(body, "    \"kernel\": \"{}\",", bench.auto_name);
    let _ = writeln!(
        body,
        "    \"kernel_scalar_accesses_per_sec\": {:.1},",
        bench.scalar_aps
    );
    let _ = writeln!(
        body,
        "    \"kernel_accesses_per_sec\": {:.1},",
        bench.auto_aps
    );
    let _ = writeln!(
        body,
        "    \"kernel_speedup\": {:.3},",
        bench.kernel_speedup()
    );
    let _ = writeln!(body, "{}", render_portable(&bench));
    let _ = write!(body, "  }}");
    let out = update_bench_json_at(&bench_out_path("BENCH_fresh.json"), "decode", &body)
        .unwrap_or_else(|e| panic!("writing fresh check numbers: {e}"));
    println!("wrote {out} (section \"decode\", check mode)");
    i32::from(!ok)
}

fn main() {
    let args = bench_args().unwrap_or_else(|e| {
        eprintln!("exp_decode: {e}");
        std::process::exit(2);
    });
    let params = experiment_params();
    let config = paper_config();
    let period = config.machine.sampling.period;
    let reps = reps();
    if args.check {
        std::process::exit(check_mode(args.tol, &params, reps));
    }
    println!(
        "Ingestion: RDXT decode and file-backed profiling \
         ({} accesses/workload, period {period}, best of {reps})\n",
        params.accesses
    );

    let blobs = serialize_suite(&params);
    let total: u64 = blobs.iter().map(|&(_, n, _)| n).sum();

    // Decode-only throughput over the whole serialized suite.
    let (bulk_s, bulk_n) = time_min(reps, || {
        let mut n = 0u64;
        let mut chunk = Chunk::default();
        for (name, _, raw) in &blobs {
            let mut r = TraceReader::new(raw.clone()).expect("valid trace bytes");
            loop {
                match r.decode_chunk(&mut chunk, DEFAULT_CHUNK_CAPACITY) {
                    Ok(0) => break,
                    Ok(k) => n += k as u64,
                    Err(e) => panic!("{name}: clean trace failed to decode: {e}"),
                }
            }
        }
        n
    });
    assert_eq!(bulk_n, total, "bulk drain lost records");
    let kernel_bench = decode_kernel_bench(&blobs, total, reps);
    let bulk_only_aps = total as f64 / bulk_s;
    println!("decode-only ({total} accesses over the serialized suite): {bulk_only_aps:.3e} acc/s");

    // End-to-end file-backed profiling at the paper operating point,
    // each profile checked against the in-memory trace's.
    let runner = RdxRunner::new(config);
    let mut rows: Vec<Row> = Vec::new();
    for (w, (name, n, raw)) in suite().iter().zip(&blobs) {
        let (bulk_s, bulk) = time_min(reps, || {
            let input = RdxtInput::from_bytes(*name, raw.clone()).expect("valid trace bytes");
            let (p, verdict) = runner.profile_rdxt(input, &IngestOptions);
            assert!(verdict.is_ok(), "{name}: clean decode expected");
            p
        });
        let in_memory = runner.profile(Trace::from_stream(w.name, w.stream(&params)).stream());
        assert_identical(name, "profile_rdxt vs in-memory", &bulk, &in_memory);
        rows.push(Row {
            name,
            bulk_aps: *n as f64 / bulk_s,
        });
    }

    println!(
        "\nend-to-end file-backed profiling (period {period}, profiles verified bit-identical):"
    );
    print_table(
        &["workload", "profile_rdxt acc/s"],
        &rows
            .iter()
            .map(|r| vec![r.name.to_string(), format!("{:.3e}", r.bulk_aps)])
            .collect::<Vec<_>>(),
    );
    print_kernel_bench(&kernel_bench, total);

    // A hand-tuned check_tolerance in the recorded file survives
    // re-runs; the gate falls back to 0.25 when absent.
    let out = update_bench_json_keeping(
        "decode",
        &render_section(&rows, &kernel_bench, total, period, bulk_only_aps),
        &["check_tolerance"],
    )
    .unwrap_or_else(|e| panic!("writing benchmark results: {e}"));
    println!("wrote {out} (section \"decode\")");
}

/// The portable instance's two keys, without a trailing comma.
fn render_portable(bench: &KernelBench) -> String {
    format!(
        "    \"portable_accesses_per_sec\": {:.1},\n    \"portable_speedup\": {:.3}",
        bench.portable_aps, bench.portable_speedup
    )
}

/// Hand-rolled JSON for the `"decode"` section (no JSON crate in the
/// workspace); every value is a finite number or a registry identifier.
fn render_section(
    rows: &[Row],
    kernel_bench: &KernelBench,
    total: u64,
    period: u64,
    bulk_aps: f64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "    \"accesses\": {total},");
    let _ = writeln!(s, "    \"period\": {period},");
    let _ = writeln!(s, "    \"kernel\": \"{}\",", kernel_bench.auto_name);
    let _ = writeln!(
        s,
        "    \"kernel_scalar_accesses_per_sec\": {:.1},",
        kernel_bench.scalar_aps
    );
    let _ = writeln!(
        s,
        "    \"kernel_accesses_per_sec\": {:.1},",
        kernel_bench.auto_aps
    );
    let _ = writeln!(
        s,
        "    \"kernel_speedup\": {:.3},",
        kernel_bench.kernel_speedup()
    );
    let _ = writeln!(s, "{},", render_portable(kernel_bench));
    let _ = writeln!(s, "    \"decode_only\": {{");
    let _ = writeln!(s, "      \"bulk_accesses_per_sec\": {bulk_aps:.1}");
    let _ = writeln!(s, "    }},");
    let _ = writeln!(s, "    \"end_to_end\": {{");
    let _ = writeln!(s, "      \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "        {{\"name\": \"{}\", \"bulk_accesses_per_sec\": {:.1}}}{comma}",
            r.name, r.bulk_aps
        );
    }
    let _ = writeln!(s, "      ]");
    let _ = writeln!(s, "    }}");
    let _ = write!(s, "  }}");
    s
}
