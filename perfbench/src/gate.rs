//! The correctness gate: every profile the benchmark obtains is
//! digested in the registry golden word order
//! (`ProfileSnapshot::from_profile` + `fold_into`) and compared with the
//! in-memory reference for the same trace and configuration.

use crate::spans::Tracer;
use rdx_core::{
    decode_profile, encode_profile, load_rdxt, merge_batch, IngestOptions, RdxConfig, RdxProfile,
    RdxRunner, RdxtInput,
};
use rdx_server::{Fnv64, ProfileSnapshot};
use rdx_trace::Trace;
use std::fmt;
use std::path::Path;

/// Digest of one profile snapshot in the golden word order.
#[must_use]
pub fn snapshot_digest(s: &ProfileSnapshot) -> u64 {
    let mut d = Fnv64::new();
    s.fold_into(&mut d);
    d.value()
}

/// Digest of one profile in the golden word order.
#[must_use]
pub fn digest(p: &RdxProfile) -> u64 {
    snapshot_digest(&ProfileSnapshot::from_profile(p))
}

/// Folds a list of per-profile digests into one workload digest.
#[must_use]
pub fn fold(digests: &[u64]) -> u64 {
    let mut d = Fnv64::new();
    for &x in digests {
        d.push(x);
    }
    d.value()
}

/// Why one checked operation failed.
#[derive(Debug)]
pub enum Failure {
    /// The input could not be loaded.
    Load(String),
    /// The input did not decode cleanly.
    Decode(String),
    /// A merge or RDXP round trip failed.
    Merge(String),
    /// The server answered with an error or the connection failed.
    Server(String),
    /// The profile's digest differs from the reference.
    Mismatch {
        /// What was profiled.
        what: String,
        /// The reference digest.
        want: u64,
        /// The digest obtained.
        got: u64,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Load(e) => write!(f, "load failed: {e}"),
            Failure::Decode(e) => write!(f, "decode failed: {e}"),
            Failure::Merge(e) => write!(f, "merge failed: {e}"),
            Failure::Server(e) => write!(f, "server failed: {e}"),
            Failure::Mismatch { what, want, got } => {
                write!(f, "{what}: digest {got:#018x}, reference {want:#018x}")
            }
        }
    }
}

/// Checks a digest against its reference.
///
/// # Errors
///
/// [`Failure::Mismatch`] when they differ.
pub fn expect(what: &str, want: u64, got: u64) -> Result<(), Failure> {
    if want == got {
        Ok(())
    } else {
        Err(Failure::Mismatch {
            what: what.to_string(),
            want,
            got,
        })
    }
}

/// The in-memory reference profiles of `traces` at `config`.
#[must_use]
pub fn references(traces: &[Trace], config: RdxConfig) -> Vec<RdxProfile> {
    let runner = RdxRunner::new(config);
    traces.iter().map(|t| runner.profile(t.stream())).collect()
}

/// Merges profiles and round-trips the result through RDXP, as
/// `rdx suite --merge` rolls a run up. Returns the round-tripped
/// profile with the seconds spent merging and on the wire.
///
/// # Errors
///
/// [`Failure::Merge`] on an incompatible batch or a wire error.
pub fn merge_roundtrip(
    profiles: Vec<RdxProfile>,
    jobs: usize,
    tracer: &mut Tracer,
    parent: Option<u32>,
    op: u64,
) -> Result<(RdxProfile, f64, f64), Failure> {
    let (merged, merge_s) = tracer.span("merge.merge_batch", parent, op, || {
        merge_batch(profiles, jobs)
    });
    let merged = merged
        .map_err(|e| Failure::Merge(e.to_string()))?
        .ok_or_else(|| Failure::Merge("empty batch".to_string()))?;
    let (decoded, wire_s) = tracer.span("wire.roundtrip", parent, op, || {
        decode_profile(&encode_profile(&merged))
    });
    let decoded = decoded.map_err(|e| Failure::Merge(e.to_string()))?;
    Ok((decoded, merge_s, wire_s))
}

/// Loads and profiles one RDXT file as `rdx profile file.rdxt` does,
/// checking the decode verdict and the digest against `want`. Returns
/// the checked profile.
///
/// # Errors
///
/// A [`Failure`] naming what went wrong.
pub fn profile_file(
    runner: &RdxRunner,
    path: &Path,
    opts: &IngestOptions,
    want: u64,
    tracer: &mut Tracer,
    parent: Option<u32>,
    op: u64,
) -> Result<RdxProfile, Failure> {
    let what = path.display().to_string();
    let (input, _) = tracer.span("ingest.load_rdxt", parent, op, || load_rdxt(path));
    let input = input.map_err(|e| Failure::Load(e.to_string()))?;
    let ((profile, verdict), _) = tracer.span("ingest.profile_rdxt", parent, op, || {
        runner.profile_rdxt(input, opts)
    });
    verdict.map_err(|e| Failure::Decode(format!("{what}: {e}")))?;
    expect(&what, want, digest(&profile))?;
    Ok(profile)
}

/// The reference digest of a server snapshot taken after `prefix`
/// bytes of an RDXT stream: `profile_rdxt` of the same byte prefix.
///
/// # Errors
///
/// [`Failure::Load`] when the prefix holds no complete header.
pub fn prefix_digest(
    name: &str,
    prefix: &[u8],
    config: RdxConfig,
    opts: &IngestOptions,
) -> Result<u64, Failure> {
    let input = RdxtInput::from_bytes(name.to_string(), prefix.to_vec())
        .map_err(|e| Failure::Load(e.to_string()))?;
    let (profile, _verdict) = RdxRunner::new(config).profile_rdxt(input, opts);
    Ok(digest(&profile))
}
