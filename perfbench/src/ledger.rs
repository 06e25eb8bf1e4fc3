//! The per-layer ledger of a traced run: each layer's public calls,
//! timed from outside over the workload's own traces and
//! configuration.

use crate::gate::{self, Failure};
use crate::run::{Refs, Tally};
use crate::serve::{self, SessionStats};
use crate::setup::{Inputs, Workload};
use crate::spans::Tracer;
use crate::stats::median;
use memsim::{Hardware, Machine, Profiler, Sample, Trap};
use rdx_core::{default_jobs, IngestOptions, RdxProfiler, RdxRunner};
use rdx_server::{Client, Listen, Server, ServerOptions};
use rdx_trace::{io, Chunk, TraceReader, DEFAULT_CHUNK_CAPACITY};
use std::path::Path;
use std::time::Instant;

/// A `memsim::Profiler` that forwards to an inner profiler and times
/// the handler calls: the machine's per-access slow steps.
pub struct TimedProfiler<P> {
    inner: P,
    /// Seconds inside `on_sample`, `on_trap` and `on_finish`.
    pub busy_s: f64,
    /// `on_sample` calls.
    pub samples: u64,
    /// `on_trap` calls.
    pub traps: u64,
}

impl<P: Profiler> TimedProfiler<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedProfiler {
            inner,
            busy_s: 0.0,
            samples: 0,
            traps: 0,
        }
    }
}

impl<P: Profiler> Profiler for TimedProfiler<P> {
    fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware) {
        let t0 = Instant::now();
        self.inner.on_sample(sample, hw);
        self.busy_s += t0.elapsed().as_secs_f64();
        self.samples += 1;
    }

    fn on_trap(&mut self, trap: &Trap, hw: &mut Hardware) {
        let t0 = Instant::now();
        self.inner.on_trap(trap, hw);
        self.busy_s += t0.elapsed().as_secs_f64();
        self.traps += 1;
    }

    fn on_finish(&mut self, hw: &mut Hardware) {
        let t0 = Instant::now();
        self.inner.on_finish(hw);
        self.busy_s += t0.elapsed().as_secs_f64();
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Passes over the traces; each timing is the median pass's.
pub const LEDGER_ROUNDS: usize = 3;

/// Sums the ledger accumulates over the traces in one pass.
#[derive(Default, Clone, Copy)]
struct Sums {
    accesses: u64,
    machine_s: f64,
    slowstep_s: f64,
    samples: u64,
    traps: u64,
    runner_s: f64,
    encode_s: f64,
    bytes: u64,
    read_s: f64,
    decode_s: f64,
    pipelined_s: f64,
    bulk_s: f64,
}

/// Runs every layer's public calls on each trace ([`LEDGER_ROUNDS`]
/// passes), then one server session per trace, and returns the
/// per-layer metrics (all but the two whole-run fractions).
///
/// # Errors
///
/// Temp-file or bind failures.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    refs: &Refs,
    dir: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> std::io::Result<Vec<Metric>> {
    let cfg = refs.config;
    let runner = RdxRunner::new(cfg);
    let machine = Machine::new(cfg.machine);
    let pipelined = IngestOptions::default();
    let bulk = IngestOptions::default().with_pipelined(false);
    let mut rounds = Vec::with_capacity(LEDGER_ROUNDS);
    let mut profiles = Vec::new();
    let mut encoded = Vec::new();
    let base = 1u64 << 40;
    for round in 0..LEDGER_ROUNDS {
        profiles.clear();
        encoded.clear();
        let mut s = Sums::default();
        for (i, t) in inputs.traces.iter().enumerate() {
            let op = base + (round * inputs.traces.len() + i) as u64;
            let root = tracer.open("ledger.trace", None, op);
            s.accesses += t.len() as u64;

            let (_, secs) = tracer.span("machine.run", root, op, || {
                machine.run(t.stream(), &mut RdxProfiler::new(&cfg))
            });
            s.machine_s += secs;

            let mut timed = TimedProfiler::new(RdxProfiler::new(&cfg));
            tracer.span("machine.run_timed_handlers", root, op, || {
                machine.run(t.stream(), &mut timed)
            });
            s.slowstep_s += timed.busy_s;
            s.samples += timed.samples;
            s.traps += timed.traps;

            let (p, secs) = tracer.span("runner.profile", root, op, || runner.profile(t.stream()));
            s.runner_s += secs;
            tally.record(gate::expect(t.name(), refs.digests[i], gate::digest(&p)));
            profiles.push(p);

            let (bytes, secs) = tracer.span("io.to_bytes", root, op, || io::to_bytes(t));
            s.encode_s += secs;
            s.bytes += bytes.len() as u64;
            let path = dir.join(format!("ledger-{}.rdxt", t.name()));
            tracer
                .span("fs.write", root, op, || std::fs::write(&path, &bytes))
                .0?;

            let (input, secs) =
                tracer.span("ingest.load_rdxt", root, op, || rdx_core::load_rdxt(&path));
            s.read_s += secs;
            tally.record(input.map(drop).map_err(|e| Failure::Load(e.to_string())));

            let (decoded, secs) = tracer.span("io.decode_chunk", root, op, || drain(bytes.clone()));
            s.decode_s += secs;
            tally.record(match decoded {
                Ok(n) if n == t.len() as u64 => Ok(()),
                Ok(n) => Err(Failure::Decode(format!(
                    "{}: {n} of {} accesses",
                    t.name(),
                    t.len()
                ))),
                Err(e) => Err(Failure::Decode(format!("{}: {e}", t.name()))),
            });

            for (opts, name, sum) in [
                (&pipelined, "ingest.pipelined", &mut s.pipelined_s),
                (&bulk, "ingest.bulk", &mut s.bulk_s),
            ] {
                let id = tracer.open(name, root, op);
                let t0 = Instant::now();
                let r = gate::profile_file(&runner, &path, opts, refs.digests[i], tracer, id, op);
                *sum += t0.elapsed().as_secs_f64();
                tracer.close(id);
                tally.record(r.map(drop));
            }
            std::fs::remove_file(&path)?;
            encoded.push(bytes);
            tracer.close(root);
        }
        rounds.push(s);
    }
    let op = base + (LEDGER_ROUNDS * inputs.traces.len()) as u64;
    let root = tracer.open("ledger.merge", None, op);
    let merged = gate::merge_roundtrip(profiles, default_jobs(), tracer, root, op);
    tracer.close(root);
    let (merge_s, wire_s) = match merged {
        Ok((p, merge_s, wire_s)) => {
            tally.record(gate::expect("merge", refs.merged, gate::digest(&p)));
            (merge_s, wire_s)
        }
        Err(e) => {
            tally.record(Err(e));
            (f64::NAN, f64::NAN)
        }
    };

    let server = server_sessions(workload, inputs, refs, &encoded, tracer, tally, op + 1)?;

    let med = |f: fn(&Sums) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let machine_s = med(|s| s.machine_s);
    let slowstep_s = med(|s| s.slowstep_s);
    // Paired per pass, so host drift between passes cancels.
    let post_s = med(|s| s.runner_s - s.machine_s);
    let read_s = med(|s| s.read_s);
    let decode_s = med(|s| s.decode_s);
    let pipelined_s = med(|s| s.pipelined_s);
    // Counts repeat exactly in every pass.
    let Sums {
        accesses,
        samples,
        traps,
        bytes,
        ..
    } = rounds[0];
    let accesses = accesses as f64;
    Ok(vec![
        metric("encode.busy_s", med(|s| s.encode_s), "s"),
        metric("machine.busy_s", machine_s, "s"),
        metric("scan.acc_per_s", accesses / (machine_s - slowstep_s), "1/s"),
        metric("slowstep.busy_s", slowstep_s, "s"),
        metric("slowstep.samples", samples as f64, "count"),
        metric("slowstep.traps", traps as f64, "count"),
        metric(
            "slowstep.ns_per_event",
            slowstep_s * 1e9 / (samples + traps).max(1) as f64,
            "ns",
        ),
        metric("post.busy_s", post_s, "s"),
        metric("read.busy_s", read_s, "s"),
        metric("decode.busy_s", decode_s, "s"),
        metric("decode.acc_per_s", accesses / decode_s, "1/s"),
        metric("rdxt.bytes_per_acc", bytes as f64 / accesses, "B/acc"),
        metric("ingest.pipelined_s", pipelined_s, "s"),
        metric("ingest.bulk_s", med(|s| s.bulk_s), "s"),
        metric(
            "ingest.unattributed_s",
            pipelined_s - (read_s + decode_s + machine_s + post_s),
            "s",
        ),
        metric("merge.busy_s", merge_s, "s"),
        metric("wire.busy_s", wire_s, "s"),
    ]
    .into_iter()
    .chain(server)
    .collect())
}

/// Decodes every record of an RDXT buffer through
/// `TraceReader::decode_chunk` and returns the access count.
fn drain(bytes: rdx_trace::Bytes) -> Result<u64, rdx_trace::TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let mut chunk = Chunk::default();
    let mut n = 0u64;
    loop {
        match reader.decode_chunk(&mut chunk, DEFAULT_CHUNK_CAPACITY)? {
            0 => break,
            k => n += k as u64,
        }
    }
    reader.finish()?;
    Ok(n)
}

/// One server session per trace, one after another on one connection.
fn server_sessions(
    workload: Workload,
    inputs: &Inputs,
    refs: &Refs,
    encoded: &[rdx_trace::Bytes],
    tracer: &mut Tracer,
    tally: &mut Tally,
    base: u64,
) -> std::io::Result<Vec<Metric>> {
    // The server workload measures its own set-up server; the others
    // bind one here.
    let own;
    let listen = match &inputs.server {
        Some(h) => h.listen().clone(),
        None => {
            own = Server::bind(&Listen::parse("127.0.0.1:0"), ServerOptions::default())?;
            own.listen().clone()
        }
    };
    let opts = workload.session_options();
    let mut sessions: Vec<SessionStats> = Vec::new();
    match Client::connect(&listen) {
        Ok(mut client) => {
            for (i, t) in inputs.traces.iter().enumerate() {
                let r = serve::stream_session(
                    &mut client,
                    t.name(),
                    &encoded[i],
                    opts,
                    refs.digests[i],
                    true,
                    tracer,
                    base + i as u64,
                );
                match r {
                    Ok(st) => {
                        tally.record(Ok(()));
                        sessions.push(st);
                    }
                    Err(e) => {
                        tally.record(Err(e));
                        break;
                    }
                }
            }
        }
        Err(e) => tally.record(Err(Failure::Server(e.to_string()))),
    }
    // Snapshot latency by position in the stream: first and last
    // quarter of each session's bytes.
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for (st, bytes) in sessions.iter().zip(encoded) {
        let len = bytes.len() as f64;
        for &(at, secs, _) in &st.snapshots {
            let pos = at as f64 / len;
            if pos <= 0.25 {
                first.push(secs);
            } else if pos > 0.75 {
                last.push(secs);
            }
        }
    }
    let sum = |f: fn(&SessionStats) -> f64| sessions.iter().map(f).sum::<f64>();
    let closes: Vec<f64> = sessions.iter().map(|s| s.close_s * 1e3).collect();
    Ok(vec![
        metric("server.send_s", sum(|s| s.send_s), "s"),
        metric("server.snapshot_s", sum(|s| s.snapshot_s), "s"),
        metric("server.close_ms", median(&closes), "ms"),
        metric("server.frames", sum(|s| s.frames as f64), "count"),
        metric(
            "server.snapshot_growth",
            median(&last) / median(&first),
            "ratio",
        ),
        metric(
            "server.rss_growth_mb",
            median(&sessions.iter().map(|s| s.rss_growth_mb).collect::<Vec<_>>()),
            "MiB",
        ),
    ])
}
