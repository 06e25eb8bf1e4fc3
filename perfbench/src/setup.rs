//! Workloads and their set-up: traces generated from the seed, RDXT
//! encodings, temp files and the loopback server.

use crate::spans::Tracer;
use rdx_core::RdxConfig;
use rdx_server::{Listen, Server, ServerHandle, ServerOptions, SessionOptions};
use rdx_trace::{io, Trace};
use rdx_workloads::Params;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The registry kernels every workload profiles: streaming, Zipf,
/// random, stencil and phased access patterns.
pub const KERNELS: [&str; 5] = [
    "stream_triad",
    "zipf",
    "random_uniform",
    "stencil2d",
    "phased",
];

/// Accesses per generated trace.
pub const ACCESSES: u64 = 4 << 20;

/// Nominal footprint in 8-byte elements (4.8 MB, larger than L2).
pub const ELEMENTS: u64 = 600_000;

/// Sampling period of the dense workload.
pub const DENSE_PERIOD: u64 = 64;

/// Times set-up runs in one benchmark run; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pre-built in-memory traces at the default (64 Ki) period, then a
    /// merge and RDXP round trip.
    InmemPaper,
    /// The same traces at a dense period.
    InmemDense,
    /// The same kernels as RDXT temp files through `load_rdxt` +
    /// `profile_rdxt`.
    RdxtPaper,
    /// Closed-loop loopback server sessions with mid-stream snapshots.
    ServeSnapshots,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::InmemPaper,
        Workload::InmemDense,
        Workload::RdxtPaper,
        Workload::ServeSnapshots,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::InmemPaper => "inmem_paper",
            Workload::InmemDense => "inmem_dense",
            Workload::RdxtPaper => "rdxt_paper",
            Workload::ServeSnapshots => "serve_snapshots",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The profiler configuration the workload runs at.
    #[must_use]
    pub fn config(self) -> RdxConfig {
        match self {
            Workload::InmemDense => RdxConfig::default().with_period(DENSE_PERIOD),
            _ => RdxConfig::default(),
        }
    }

    /// Server session options matching [`config`](Workload::config).
    #[must_use]
    pub fn session_options(self) -> SessionOptions {
        let cfg = self.config();
        SessionOptions {
            period: cfg.machine.sampling.period,
            seed: cfg.machine.seed,
            ..SessionOptions::default()
        }
    }
}

/// A SplitMix64 step: the per-kernel generator seeds derive from the
/// command-line seed through it.
#[must_use]
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator parameters of kernel `k` for `seed`.
#[must_use]
pub fn params(seed: u64, k: usize, accesses: u64) -> Params {
    Params::default()
        .with_accesses(accesses)
        .with_elements(ELEMENTS)
        .with_seed(mix(seed ^ (k as u64).wrapping_mul(0x100_0000_01B3)))
}

/// Generates the kernel mix for `seed`.
///
/// # Panics
///
/// If a kernel in [`KERNELS`] is missing from the registry.
#[must_use]
pub fn generate(seed: u64, accesses: u64) -> Vec<Trace> {
    KERNELS
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let spec = rdx_workloads::by_name(name).expect("kernel is in the registry");
            Trace::from_stream(*name, spec.stream(&params(seed, k, accesses)))
        })
        .collect()
}

/// Everything a workload's timed phase needs.
pub struct Inputs {
    /// The generated traces, one per kernel. The file and server
    /// workloads free them once the references are profiled, unless
    /// the traced run's ledger needs them.
    pub traces: Vec<Trace>,
    /// RDXT encodings of `traces` (file and server workloads).
    pub rdxt: Vec<Vec<u8>>,
    /// Temp files holding `rdxt` (file workload).
    pub files: Vec<PathBuf>,
    /// The loopback server (server workload).
    pub server: Option<ServerHandle>,
}

/// Set-up timings of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Median wall time of one whole set-up.
    pub total_s: f64,
    /// Wall time of each set-up, in order.
    pub each_s: [f64; SETUP_REPEATS],
    /// Median time in the workload generators.
    pub gen_s: f64,
}

/// One set-up: generate, and for the file and server workloads encode,
/// write temp files and bind the server.
///
/// # Errors
///
/// Temp-file or bind failures.
pub fn setup_once(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<(Inputs, f64)> {
    let root = tracer.open("setup", None, 0);
    let (traces, gen_s) = tracer.span("workloads.generate", root, 0, || generate(seed, ACCESSES));
    let mut inputs = Inputs {
        traces,
        rdxt: Vec::new(),
        files: Vec::new(),
        server: None,
    };
    if matches!(workload, Workload::RdxtPaper | Workload::ServeSnapshots) {
        for t in &inputs.traces {
            let (bytes, _) = tracer.span("io.to_bytes", root, 0, || io::to_bytes(t).to_vec());
            inputs.rdxt.push(bytes);
        }
    }
    if workload == Workload::RdxtPaper {
        for (t, bytes) in inputs.traces.iter().zip(&inputs.rdxt) {
            let path = dir.join(format!("{}.rdxt", t.name()));
            tracer
                .span("fs.write", root, 0, || std::fs::write(&path, bytes))
                .0?;
            inputs.files.push(path);
        }
    }
    if workload == Workload::ServeSnapshots {
        let listen = Listen::parse("127.0.0.1:0");
        let (server, _) = tracer.span("server.bind", root, 0, || {
            Server::bind(&listen, ServerOptions::default())
        });
        inputs.server = Some(server?);
    }
    tracer.close(root);
    Ok((inputs, gen_s))
}

/// Runs set-up [`SETUP_REPEATS`] times, keeping the last inputs and the
/// median timings.
///
/// # Errors
///
/// Temp-file or bind failures.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<(Inputs, SetupTimes)> {
    let mut totals = Vec::with_capacity(SETUP_REPEATS);
    let mut gens = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous repeat's inputs (and stop its server) first,
        // so every repeat starts from the same state.
        drop(kept.take());
        crate::stats::trim_heap();
        let t0 = Instant::now();
        let (inputs, gen_s) = setup_once(workload, seed, dir, tracer)?;
        totals.push(t0.elapsed().as_secs_f64());
        gens.push(gen_s);
        kept = Some(inputs);
    }
    let inputs = kept.expect("SETUP_REPEATS is at least 1");
    let mut each_s = [0.0; SETUP_REPEATS];
    each_s.copy_from_slice(&totals);
    Ok((
        inputs,
        SetupTimes {
            total_s: crate::stats::median(&totals),
            each_s,
            gen_s: crate::stats::median(&gens),
        },
    ))
}
