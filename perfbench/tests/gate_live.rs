//! The correctness gate is live: a single flipped RDXT record byte, or
//! a wrong reference, makes the checked operation fail.

use rdx_core::{IngestOptions, RdxConfig, RdxRunner};
use rdx_perfbench::gate::{self, Failure};
use rdx_perfbench::setup;
use rdx_perfbench::spans::Tracer;
use rdx_trace::{io, Trace};
use rdx_workloads::Params;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-gate");
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir.join(name)
}

fn profile_file(path: &Path, config: RdxConfig, want: u64) -> Result<(), Failure> {
    let mut off = Tracer::new(false, Instant::now(), 0);
    gate::profile_file(
        &RdxRunner::new(config),
        path,
        &IngestOptions::default(),
        want,
        &mut off,
        None,
        0,
    )
    .map(drop)
}

/// The benchmark's kernel mix, small, over a footprint small enough
/// that every kernel reuses its data within the trace.
fn small_mix() -> Vec<Trace> {
    setup::KERNELS
        .iter()
        .map(|name| {
            let params = Params::default()
                .with_accesses(50_000)
                .with_elements(2_000)
                .with_seed(7);
            let spec = rdx_workloads::by_name(name).expect("kernel is in the registry");
            Trace::from_stream(*name, spec.stream(&params))
        })
        .collect()
}

#[test]
fn flipped_record_byte_fails_the_gate() {
    // Dense sampling, so that shifting the addresses after one record
    // changes the measured reuse pairs.
    let config = RdxConfig::default().with_period(64);
    let traces = small_mix();
    let refs = gate::references(&traces, config);
    for (t, reference) in traces.iter().zip(&refs) {
        let want = gate::digest(reference);
        let bytes = io::to_bytes(t).to_vec();

        let clean = scratch(&format!("{}-clean.rdxt", t.name()));
        std::fs::write(&clean, &bytes).expect("write clean file");
        profile_file(&clean, config, want).expect("the clean file passes the gate");

        // Bit 5 of a record byte mid-file. A record is the varint of
        // `zigzag(delta) << 1 | kind`, so this bit moves one delta by a
        // nonzero multiple of 8 bytes: every later access lands on
        // another word, and the profile no longer matches its reference.
        let mut shifted = bytes.clone();
        shifted[bytes.len() / 2] ^= 0x20;
        // The continuation bit of the last byte: the final record never
        // ends, so the decode fails.
        let mut unterminated = bytes.clone();
        *unterminated.last_mut().expect("non-empty file") ^= 0x80;
        for (what, flipped) in [("shifted", shifted), ("unterminated", unterminated)] {
            let bad = scratch(&format!("{}-{what}.rdxt", t.name()));
            std::fs::write(&bad, &flipped).expect("write flipped file");
            let Err(err) = profile_file(&bad, config, want) else {
                panic!(
                    "{} ({what}): a flipped record byte passed the gate",
                    t.name()
                );
            };
            let expected = match what {
                "shifted" => matches!(err, Failure::Mismatch { .. }),
                _ => matches!(err, Failure::Decode(_)),
            };
            assert!(expected, "{} ({what}): unexpected failure {err}", t.name());
        }
    }
}

#[test]
fn wrong_reference_fails_the_gate() {
    let config = RdxConfig::default();
    let traces = setup::generate(7, 20_000);
    let refs = gate::references(&traces, config);
    let want = gate::digest(&refs[0]);
    assert!(gate::expect("same", want, want).is_ok());
    assert!(matches!(
        gate::expect("other", want, want ^ 1),
        Err(Failure::Mismatch { .. })
    ));
    // A reference taken at another period does not match.
    let dense = gate::references(&traces[..1], config.with_period(64));
    assert_ne!(gate::digest(&dense[0]), want);
}

#[test]
fn generation_is_a_function_of_the_seed() {
    let a = setup::generate(3, 10_000);
    let b = setup::generate(3, 10_000);
    let c = setup::generate(4, 10_000);
    assert!(a.iter().zip(&b).all(|(x, y)| x.accesses() == y.accesses()));
    assert!(a.iter().zip(&c).any(|(x, y)| x.accesses() != y.accesses()));
}
