//! The timed phase of each workload: the production calls a user's run
//! makes, repeated until the time is up, every output checked.

use crate::gate::{self, Failure};
use crate::serve::{self, SessionStats};
use crate::setup::{Inputs, Workload, KERNELS};
use crate::spans::Tracer;
use rdx_core::{default_jobs, IngestOptions, RdxConfig, RdxProfile, RdxRunner};
use rdx_server::Client;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Failures are printed up to this many per run.
const SHOWN_FAILURES: usize = 5;

/// Counts of checked operations.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check or errored.
    pub failed: u64,
    /// The first few failures, for the report.
    pub shown: Vec<String>,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(&e);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, e: &Failure) {
        self.failed += 1;
        if self.shown.len() < SHOWN_FAILURES {
            self.shown.push(e.to_string());
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for s in other.shown {
            if self.shown.len() < SHOWN_FAILURES {
                self.shown.push(s);
            }
        }
    }
}

/// The reference outputs a workload's operations are checked against.
#[derive(Debug)]
pub struct Refs {
    /// The configuration the references were profiled at.
    pub config: RdxConfig,
    /// In-memory reference profile per trace.
    pub profiles: Vec<RdxProfile>,
    /// Digest of each reference profile.
    pub digests: Vec<u64>,
    /// Digest of the merged-and-round-tripped reference profiles.
    pub merged: u64,
}

impl Refs {
    /// Profiles every trace in memory at the workload's configuration.
    ///
    /// # Errors
    ///
    /// A [`Failure`] if the reference merge fails.
    pub fn compute(workload: Workload, inputs: &Inputs) -> Result<Refs, Failure> {
        let config = workload.config();
        let profiles = gate::references(&inputs.traces, config);
        let digests = profiles.iter().map(gate::digest).collect();
        let mut off = Tracer::new(false, Instant::now(), 0);
        let (merged, _, _) =
            gate::merge_roundtrip(profiles.clone(), default_jobs(), &mut off, None, 0)?;
        Ok(Refs {
            config,
            profiles,
            digests,
            merged: gate::digest(&merged),
        })
    }

    /// The workload digest: every reference digest, then the merged one.
    #[must_use]
    pub fn workload_digest(&self) -> u64 {
        let mut all = self.digests.clone();
        all.push(self.merged);
        gate::fold(&all)
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Accesses profiled (streamed to a final profile, for the server).
    pub accesses: u64,
    /// Per-operation latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Checked operations.
    pub tally: Tally,
    /// Threads that issued operations.
    pub threads: usize,
    /// `VmHWM` in MiB when the operations ended, before the checks that
    /// follow them.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// Accesses per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.accesses as f64 / self.wall_s
    }
}

/// Runs the workload's operations for `seconds`, recording spans into
/// `tracer` when it is on.
#[must_use]
pub fn timed_phase(
    workload: Workload,
    inputs: &Inputs,
    refs: &Refs,
    seconds: f64,
    tracer: &mut Tracer,
) -> Timed {
    let (mut out, snapshots) = match workload {
        Workload::InmemPaper | Workload::InmemDense => {
            (inmem(workload, inputs, refs, seconds, tracer), Vec::new())
        }
        Workload::RdxtPaper => (rdxt(inputs, refs, seconds, tracer), Vec::new()),
        Workload::ServeSnapshots => serve_loop(workload, inputs, refs, seconds, tracer),
    };
    // Read before the snapshot check, which profiles byte prefixes of
    // its own.
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    check_snapshots(inputs, refs, &snapshots, &mut out.tally);
    out
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// One pass over the kernel mix, as `rdx suite --jobs 1` makes it:
/// every pre-built trace profiled in memory; on `inmem_paper` the pass
/// ends with the `--merge` roll-up (merge + RDXP round trip).
fn inmem(
    workload: Workload,
    inputs: &Inputs,
    refs: &Refs,
    seconds: f64,
    tracer: &mut Tracer,
) -> Timed {
    let runner = RdxRunner::new(refs.config);
    let jobs = default_jobs();
    let mut out = Timed {
        threads: 1,
        ..Timed::default()
    };
    let mut op = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        op += 1;
        let t0 = Instant::now();
        let root = tracer.open("op.suite", None, op);
        let mut pass = Vec::with_capacity(inputs.traces.len());
        for (i, t) in inputs.traces.iter().enumerate() {
            let (p, _) = tracer.span("runner.profile", root, op, || runner.profile(t.stream()));
            out.accesses += p.accesses;
            out.tally
                .record(gate::expect(t.name(), refs.digests[i], gate::digest(&p)));
            pass.push(p);
        }
        if workload == Workload::InmemPaper {
            let merged = gate::merge_roundtrip(pass, jobs, tracer, root, op);
            out.tally.record(
                merged.and_then(|(m, _, _)| gate::expect("merge", refs.merged, gate::digest(&m))),
            );
        }
        tracer.close(root);
        out.latencies_ms.push(ms(t0.elapsed().as_secs_f64()));
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// One pass over the RDXT files, as `rdx suite --jobs 1 <files>` makes
/// it: `load_rdxt` + `profile_rdxt` with default (pipelined) ingest
/// options per file.
fn rdxt(inputs: &Inputs, refs: &Refs, seconds: f64, tracer: &mut Tracer) -> Timed {
    let runner = RdxRunner::new(refs.config);
    let opts = IngestOptions::default();
    let mut out = Timed {
        threads: 1,
        ..Timed::default()
    };
    let mut op = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        op += 1;
        let t0 = Instant::now();
        let root = tracer.open("op.suite_files", None, op);
        for (i, path) in inputs.files.iter().enumerate() {
            let r = gate::profile_file(&runner, path, &opts, refs.digests[i], tracer, root, op);
            out.tally.record(r.map(|p| out.accesses += p.accesses));
        }
        tracer.close(root);
        out.latencies_ms.push(ms(t0.elapsed().as_secs_f64()));
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Client connections in the closed loop: two, or fewer on a host with
/// fewer cores.
fn serve_clients() -> usize {
    default_jobs().clamp(1, 2)
}

/// One client thread's share of the closed loop.
#[derive(Default)]
struct ClientShare {
    timed: Timed,
    /// `(trace, bytes sent, digest)` per snapshot, for the gate.
    snapshots: Vec<(usize, usize, u64)>,
}

/// Closed-loop sessions on the loopback server: each client streams one
/// trace per session, snapshots at a fixed cadence and closes, then
/// starts the next. Returns the `(trace, bytes sent, digest)` of every
/// snapshot, for [`check_snapshots`].
fn serve_loop(
    workload: Workload,
    inputs: &Inputs,
    refs: &Refs,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Timed, Vec<(usize, usize, u64)>) {
    let listen = inputs
        .server
        .as_ref()
        .expect("the server workload binds a server in set-up")
        .listen()
        .clone();
    let opts = workload.session_options();
    let clients = serve_clients();
    let epoch = tracer.epoch();
    let on = tracer.is_on();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let shares: Vec<(ClientShare, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let listen = &listen;
                scope.spawn(move || {
                    let mut tr = Tracer::new(on, epoch, c as u32 + 1);
                    let mut share = ClientShare::default();
                    let mut client = None;
                    let n = inputs.rdxt.len();
                    let mut k = 0usize;
                    while Instant::now() < deadline {
                        let i = (c + k * clients) % n;
                        k += 1;
                        let op = ((c as u64) << 32) | k as u64;
                        let r = match client.take() {
                            Some(cl) => Ok(cl),
                            None => Client::connect(listen),
                        }
                        .map_err(|e| Failure::Server(e.to_string()))
                        .and_then(|mut cl| {
                            let st = serve::stream_session(
                                &mut cl,
                                KERNELS[i],
                                &inputs.rdxt[i],
                                opts,
                                refs.digests[i],
                                false,
                                &mut tr,
                                op,
                            );
                            client = Some(cl);
                            st
                        });
                        match r {
                            Ok(st) => share.add(i, st),
                            Err(e) => {
                                // Reconnect: the connection's state is unknown.
                                client = None;
                                share.timed.tally.record(Err(e));
                            }
                        }
                    }
                    (share, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = Timed {
        wall_s,
        threads: clients,
        ..Timed::default()
    };
    let mut snapshots = Vec::new();
    for (share, tr) in shares {
        tracer.absorb(tr, 0);
        out.accesses += share.timed.accesses;
        out.latencies_ms.extend(share.timed.latencies_ms);
        out.tally.absorb(share.timed.tally);
        snapshots.extend(share.snapshots);
    }
    (out, snapshots)
}

impl ClientShare {
    fn add(&mut self, trace: usize, st: SessionStats) {
        self.timed.tally.attempted += st.snapshots.len() as u64 + 1;
        self.timed
            .latencies_ms
            .extend(st.snapshots.iter().map(|&(_, s, _)| ms(s)));
        self.timed.accesses += st.accesses;
        self.snapshots
            .extend(st.snapshots.iter().map(|&(at, _, d)| (trace, at, d)));
    }
}

/// Checks every mid-stream snapshot against `profile_rdxt` of the same
/// byte prefix (each distinct prefix is profiled once).
fn check_snapshots(
    inputs: &Inputs,
    refs: &Refs,
    snapshots: &[(usize, usize, u64)],
    tally: &mut Tally,
) {
    let opts = IngestOptions::default();
    let mut want: BTreeMap<(usize, usize), Result<u64, String>> = BTreeMap::new();
    for &(i, at, got) in snapshots {
        let name = KERNELS[i];
        let r = want
            .entry((i, at))
            .or_insert_with(|| {
                gate::prefix_digest(name, &inputs.rdxt[i][..at], refs.config, &opts)
                    .map_err(|e| e.to_string())
            })
            .clone();
        let outcome = match r {
            Ok(w) => gate::expect(&format!("{name} snapshot at {at} B"), w, got),
            Err(e) => Err(Failure::Load(e)),
        };
        if let Err(e) = outcome {
            tally.fail(&e);
        }
    }
}
