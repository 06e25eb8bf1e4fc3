//! RDXT ingestion: trace bytes into the profiling engine.
//!
//! There is one ingestion loop, [`RdxtIngest`]. It owns an incremental
//! [`RdxtDecoder`], a [`LiveProfile`] and one bounded decode batch;
//! every [`push`](RdxtIngest::push) decodes the next piece of the byte
//! stream into the batch and feeds it to the live profile. A file
//! reaches the loop in fixed [`BLOCK_LEN`] blocks
//! ([`RdxRunner::profile_rdxt`]), a server session as its chunks
//! arrive, so neither path holds the trace: memory is the profiler
//! state, one batch and one read block.
//!
//! Headers are validated when an input is loaded ([`load_rdxt`] reads
//! one block, which always covers the largest header), so profiling on
//! a batch worker cannot fail to start; record-level corruption
//! surfaces as the verdict next to a profile of the decodable prefix.

use crate::batch::run_batch;
use crate::config::RdxConfig;
use crate::report::RdxProfile;
use crate::runner::{LiveProfile, RdxRunner};
use rdx_trace::{
    io, AccessBuf, KernelChoice, KernelKind, RdxtDecoder, TraceError, DEFAULT_CHUNK_CAPACITY,
    MAX_HEADER_LEN,
};
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Bytes per read block of a file input.
pub const BLOCK_LEN: usize = 64 << 10;

// The first block must hold any valid header.
const _: () = assert!(BLOCK_LEN >= MAX_HEADER_LEN);

/// Largest decode batch in accesses (1 Mi of them, 8.125 MiB of
/// columns), whatever `chunk_capacity` asks for: one 16 MiB server
/// frame of 1-byte records must not allocate a 130 MiB batch.
const MAX_BATCH: usize = 1 << 20;

/// How RDXT input is decoded.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Accesses per decode batch (default [`DEFAULT_CHUNK_CAPACITY`],
    /// capped at 2^20).
    pub chunk_capacity: usize,
    /// Which decode kernel the decoder uses (default: auto, the
    /// cheapest available in the trace layer's capability table).
    pub decode_kernel: KernelChoice,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            decode_kernel: KernelChoice::Auto,
        }
    }
}

impl IngestOptions {
    /// Does nothing: there is one ingestion path. Kept only because
    /// the benchmark's ledger (`perfbench/src/ledger.rs`) still calls it.
    #[doc(hidden)]
    #[must_use]
    pub fn with_pipelined(self, _pipelined: bool) -> Self {
        self
    }

    /// Sets the accesses decoded per batch.
    #[must_use]
    pub fn with_chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity;
        self
    }

    /// Selects the decode kernel (default: auto).
    #[must_use]
    pub fn with_decode_kernel(mut self, kernel: KernelChoice) -> Self {
        self.decode_kernel = kernel;
        self
    }
}

/// The ingestion loop: RDXT bytes in, a live profile out.
///
/// Bytes may be pushed in pieces of any size, split anywhere; a
/// [`snapshot`](RdxtIngest::snapshot) after any prefix equals
/// [`RdxRunner::profile`] of the records that prefix holds.
#[derive(Debug)]
pub struct RdxtIngest {
    decoder: RdxtDecoder,
    live: LiveProfile,
    /// Reused decode batch (at most `capacity` accesses).
    batch: AccessBuf,
    capacity: usize,
}

impl RdxtIngest {
    /// An empty loop profiling under `runner`'s configuration.
    #[must_use]
    pub fn new(runner: &RdxRunner, opts: &IngestOptions) -> RdxtIngest {
        RdxtIngest {
            decoder: RdxtDecoder::new().with_kernel(opts.decode_kernel),
            live: runner.start(),
            batch: AccessBuf::new(),
            capacity: opts.chunk_capacity.clamp(1, MAX_BATCH),
        }
    }

    /// Decodes the next piece of the stream into the live profile, one
    /// bounded batch at a time.
    ///
    /// # Errors
    ///
    /// The decoder's error (see [`RdxtDecoder::decode`]). The records
    /// before a malformed one are profiled; the loop is fused after.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        let mut rest = bytes;
        while !rest.is_empty() {
            let used = self.decoder.decode(rest, &mut self.batch, self.capacity);
            self.live.feed(self.batch.as_slice());
            rest = &rest[used?..];
        }
        Ok(())
    }

    /// True once the whole header has arrived.
    #[must_use]
    pub fn header_complete(&self) -> bool {
        self.decoder.header_complete()
    }

    /// Declared records decoded so far.
    #[must_use]
    pub fn decoded(&self) -> u64 {
        self.decoder.decoded()
    }

    /// The decode kernel in use.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.decoder.kernel()
    }

    /// The profile of the records pushed so far; `None` until a
    /// complete header has arrived.
    #[must_use]
    pub fn snapshot(&self) -> Option<RdxProfile> {
        self.header_complete().then(|| self.live.snapshot())
    }

    /// The final profile and the decode verdict over everything pushed
    /// (see [`RdxtDecoder::finish`]).
    pub fn finish(self) -> (RdxProfile, Result<(), TraceError>) {
        let verdict = self.decoder.finish();
        (self.live.finish(), verdict)
    }
}

/// Why an RDXT input could not be loaded.
#[derive(Debug)]
pub enum IngestError {
    /// Reading the file failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not a valid RDXT trace (bad header).
    Trace {
        /// The offending path.
        path: PathBuf,
        /// The underlying format error.
        source: TraceError,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            IngestError::Trace { path, source } => {
                write!(f, "{} is not a valid RDXT trace: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            IngestError::Trace { source, .. } => Some(source),
        }
    }
}

/// A header-validated RDXT input, ready to stream: the first block read
/// (or a whole in-memory buffer) plus the rest of its file.
#[derive(Debug)]
pub struct RdxtInput {
    /// Display label: the trace's embedded name, or the file stem when
    /// the embedded name is empty.
    pub label: String,
    /// Record count declared by the header.
    pub declared: u64,
    head: bytes::Bytes,
    rest: Option<File>,
}

impl RdxtInput {
    /// Wraps an in-memory RDXT byte buffer, validating the header.
    ///
    /// `fallback_label` is used when the embedded trace name is empty.
    ///
    /// # Errors
    ///
    /// [`TraceError`] if the header is malformed or incomplete.
    pub fn from_bytes(
        fallback_label: impl Into<String>,
        bytes: impl Into<bytes::Bytes>,
    ) -> Result<RdxtInput, TraceError> {
        RdxtInput::new(fallback_label.into(), bytes.into(), None)
    }

    fn new(
        fallback_label: String,
        head: bytes::Bytes,
        rest: Option<File>,
    ) -> Result<RdxtInput, TraceError> {
        let header = io::parse_header(&head)?;
        let label = if header.name.is_empty() {
            fallback_label
        } else {
            header.name
        };
        Ok(RdxtInput {
            label,
            declared: header.declared,
            head,
            rest,
        })
    }

    /// Hands the input to `sink` in blocks of at most [`BLOCK_LEN`]
    /// bytes, in order, stopping at the first error.
    ///
    /// # Errors
    ///
    /// The first error of `sink`, or [`TraceError::Io`] when reading
    /// the file fails.
    pub fn read_blocks(
        self,
        mut sink: impl FnMut(&[u8]) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        for block in self.head.chunks(BLOCK_LEN) {
            sink(block)?;
        }
        let Some(mut file) = self.rest else {
            return Ok(());
        };
        let mut block = vec![0; BLOCK_LEN];
        loop {
            match file.read(&mut block) {
                Ok(0) => return Ok(()),
                Ok(n) => sink(&block[..n])?,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Opens an RDXT file and validates its header from the first block;
/// the rest of the file is read when the input is profiled.
///
/// # Errors
///
/// [`IngestError`] when the file cannot be read or is not a valid RDXT
/// trace.
pub fn load_rdxt(path: impl AsRef<Path>) -> Result<RdxtInput, IngestError> {
    let path = path.as_ref();
    let io_error = |source| IngestError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut file = File::open(path).map_err(io_error)?;
    let mut head = Vec::with_capacity(BLOCK_LEN);
    (&mut file)
        .take(BLOCK_LEN as u64)
        .read_to_end(&mut head)
        .map_err(io_error)?;
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    RdxtInput::new(stem, head.into(), Some(file)).map_err(|source| IngestError::Trace {
        path: path.to_path_buf(),
        source,
    })
}

/// One file's profile out of [`profile_rdxt_batch`].
#[derive(Debug)]
pub struct RdxtReport {
    /// Display label of the input (embedded name or file stem).
    pub label: String,
    /// Record count the header declared.
    pub declared: u64,
    /// The profile measured over the decodable prefix.
    pub profile: RdxProfile,
}

impl RdxtReport {
    /// True when fewer accesses were profiled than the header declared —
    /// the input was truncated or corrupt past some point.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.profile.accesses != self.declared
    }
}

impl RdxRunner {
    /// Profiles one RDXT input end to end, block by block through
    /// [`RdxtIngest`], and reports both the profile (of the decodable
    /// prefix) and the decode verdict (clean / truncated / malformed /
    /// trailing data / read error).
    pub fn profile_rdxt(
        &self,
        input: RdxtInput,
        opts: &IngestOptions,
    ) -> (RdxProfile, Result<(), TraceError>) {
        let mut ingest = RdxtIngest::new(self, opts);
        let read = input.read_blocks(|block| ingest.push(block));
        let (profile, verdict) = ingest.finish();
        (profile, read.and(verdict))
    }
}

/// Profiles a set of RDXT inputs in parallel on at most `jobs` threads
/// of the batch pool (results in input order, worker panics re-raised
/// in task order; see [`crate::profile_batch`]).
///
/// Decode errors do not panic a task: each profile covers the decodable
/// prefix of its input, and [`RdxtReport::truncated`] flags inputs that
/// fell short of their declared record count.
#[must_use]
pub fn profile_rdxt_batch(
    config: RdxConfig,
    inputs: Vec<RdxtInput>,
    opts: &IngestOptions,
    jobs: usize,
) -> Vec<RdxtReport> {
    let runner = RdxRunner::new(config);
    let runner = &runner;
    let tasks: Vec<_> = inputs
        .into_iter()
        .map(|input| {
            move || {
                let (label, declared) = (input.label.clone(), input.declared);
                let (profile, _verdict) = runner.profile_rdxt(input, opts);
                RdxtReport {
                    label,
                    declared,
                    profile,
                }
            }
        })
        .collect();
    run_batch(tasks, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::{io, Trace};

    fn sample_bytes(name: &str, n: u64) -> Vec<u8> {
        let t = Trace::from_stream(
            name,
            Trace::from_addresses(name, (0..n).map(|i| (i % 257) * 64)).stream(),
        );
        io::to_bytes(&t).to_vec()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdx-ingest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// The same bytes as an in-memory input and as a file input.
    fn both_inputs(label: &str, raw: &[u8], dir: &Path) -> [RdxtInput; 2] {
        let path = dir.join(format!("{label}.rdxt"));
        std::fs::write(&path, raw).expect("write");
        [
            RdxtInput::from_bytes(label, raw.to_vec()).expect("valid header"),
            load_rdxt(&path).expect("valid header"),
        ]
    }

    #[test]
    fn file_profile_matches_in_memory_both_paths() {
        // Larger than a few read blocks, so records straddle them.
        let t = Trace::from_addresses("m", (0..200_000u64).map(|i| (i % 511) * 64));
        let raw = io::to_bytes(&t);
        assert!(raw.len() > 3 * BLOCK_LEN);
        let runner = RdxRunner::new(RdxConfig::default().with_period(512).with_seed(3));
        let want = runner.profile(t.stream());
        let dir = temp_dir("both");
        let opts = IngestOptions::default().with_chunk_capacity(1024);
        for (k, input) in both_inputs("m", &raw, &dir).into_iter().enumerate() {
            let (profile, verdict) = runner.profile_rdxt(input, &opts);
            assert!(verdict.is_ok(), "input {k}");
            assert_eq!(profile.rd, want.rd, "input {k}");
            assert_eq!(profile.rt, want.rt);
            assert_eq!(profile.samples, want.samples);
            assert_eq!(profile.traps, want.traps);
            assert_eq!(profile.accesses, want.accesses);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_profiles_prefix_and_reports() {
        let mut raw = sample_bytes("cut", 30_000);
        raw.truncate(raw.len() - 11);
        let dir = temp_dir("cut");
        for input in both_inputs("cut", &raw, &dir) {
            let declared = input.declared;
            let runner = RdxRunner::new(RdxConfig::default().with_period(256));
            let (profile, verdict) = runner.profile_rdxt(input, &IngestOptions::default());
            assert!(profile.accesses < declared);
            assert!(matches!(verdict, Err(TraceError::Truncated)), "{verdict:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_in_any_pieces_snapshots_the_prefix() {
        let raw = sample_bytes("live", 5_000);
        let runner = RdxRunner::new(RdxConfig::default().with_period(64));
        let mut ingest = RdxtIngest::new(&runner, &IngestOptions::default().with_chunk_capacity(7));
        assert!(ingest.snapshot().is_none(), "no header yet");
        for piece in raw.chunks(333) {
            ingest.push(piece).expect("clean bytes");
        }
        let snap = ingest.snapshot().expect("header arrived");
        let (profile, verdict) = ingest.finish();
        assert!(verdict.is_ok());
        assert_eq!(snap.rd, profile.rd);
        assert_eq!(profile.accesses, 5_000);
    }

    #[test]
    fn batch_over_files_matches_sequential() {
        let config = RdxConfig::default().with_period(512).with_seed(9);
        let runner = RdxRunner::new(config);
        let raws: Vec<(String, Vec<u8>)> = (0..4u64)
            .map(|k| {
                (
                    format!("w{k}"),
                    sample_bytes(&format!("w{k}"), 20_000 + 1000 * k),
                )
            })
            .collect();
        let sequential: Vec<RdxProfile> = raws
            .iter()
            .map(|(label, raw)| {
                let input = RdxtInput::from_bytes(label.clone(), raw.clone()).expect("valid");
                runner.profile_rdxt(input, &IngestOptions::default()).0
            })
            .collect();
        let inputs: Vec<RdxtInput> = raws
            .iter()
            .map(|(label, raw)| RdxtInput::from_bytes(label.clone(), raw.clone()).expect("valid"))
            .collect();
        let reports = profile_rdxt_batch(config, inputs, &IngestOptions::default(), 4);
        assert_eq!(reports.len(), 4);
        for (report, want) in reports.iter().zip(&sequential) {
            assert!(!report.truncated());
            assert_eq!(report.profile.rd, want.rd);
            assert_eq!(report.profile.samples, want.samples);
        }
    }

    #[test]
    fn batch_flags_truncated_inputs() {
        let good = sample_bytes("good", 10_000);
        let mut bad = sample_bytes("bad", 10_000);
        bad.truncate(bad.len() - 20);
        let inputs = vec![
            RdxtInput::from_bytes("good", good).expect("valid"),
            RdxtInput::from_bytes("bad", bad).expect("header intact"),
        ];
        let reports = profile_rdxt_batch(
            RdxConfig::default().with_period(128),
            inputs,
            &IngestOptions::default(),
            2,
        );
        assert!(!reports[0].truncated());
        assert!(reports[1].truncated());
    }

    #[test]
    fn load_rdxt_reports_missing_file_and_bad_header() {
        let err = load_rdxt("/nonexistent/definitely-missing.rdxt").unwrap_err();
        assert!(matches!(err, IngestError::Io { .. }), "{err}");
        let dir = temp_dir("load");
        let bad = dir.join("not-a-trace.rdxt");
        std::fs::write(&bad, b"definitely not RDXT").expect("write");
        let err = load_rdxt(&bad).unwrap_err();
        assert!(matches!(
            err,
            IngestError::Trace {
                source: TraceError::BadMagic,
                ..
            }
        ));
        let good = dir.join("roundtrip.rdxt");
        std::fs::write(&good, sample_bytes("roundtrip", 1000)).expect("write");
        let input = load_rdxt(&good).expect("valid trace file");
        assert_eq!(input.label, "roundtrip");
        assert_eq!(input.declared, 1000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_embedded_name_falls_back_to_label() {
        let t: Trace = (0..100u64).map(|i| (i * 64, false)).collect(); // name ""
        let input = RdxtInput::from_bytes("fallback", io::to_bytes(&t)).expect("valid");
        assert_eq!(input.label, "fallback");
    }
}
