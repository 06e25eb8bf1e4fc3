//! RDXT ingestion must be invisible in the output: profiling an
//! RDXT-serialized workload through `profile_rdxt` — from an in-memory
//! buffer or a file read block by block, at any batch size — reproduces
//! the exact registry golden digest that `fastpath_equivalence.rs`
//! pins for in-memory traces and generator streams through the chunk
//! fast path. Same constant, another execution shape. Decoding the same bytes with
//! each decode kernel called directly — both block-decode instances and
//! the scalar oracle — and profiling in memory lands on it too.

use rdx_core::{
    load_rdxt, profile_rdxt_batch, IngestOptions, RdxConfig, RdxProfile, RdxRunner, RdxtInput,
};
use rdx_histogram::Histogram;
use rdx_trace::kernels::{BlockDecode, ScalarDecode};
use rdx_trace::{io, AccessBuf, Trace};
use rdx_workloads::{suite, Params};

/// FNV-1a over u64 words — the same digest as `fastpath_equivalence.rs`,
/// so both tests pin one baseline.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_histogram(&mut self, h: &Histogram) {
        for b in h.buckets() {
            self.push(b.range.lo);
            self.push(b.range.hi);
            self.push(b.weight.to_bits());
        }
        self.push(h.infinite_weight().to_bits());
    }
}

/// Must match `GOLDEN` in `fastpath_equivalence.rs`.
const GOLDEN: u64 = 0x17ea_4869_2cad_4966;

fn config() -> RdxConfig {
    RdxConfig::default().with_period(512).with_seed(7)
}

/// The registry suite serialized to RDXT bytes, in suite order.
fn registry_bytes() -> Vec<(&'static str, rdx_trace::Bytes)> {
    let params = Params::default().with_accesses(60_000).with_elements(800);
    suite()
        .iter()
        .map(|w| {
            (
                w.name,
                io::to_bytes(&Trace::from_stream(w.name, w.stream(&params))),
            )
        })
        .collect()
}

fn digest_profiles<'a>(profiles: impl IntoIterator<Item = &'a RdxProfile>) -> u64 {
    let mut digest = Digest::new();
    for p in profiles {
        digest.push_histogram(p.rd.as_histogram());
        digest.push_histogram(p.rt.as_histogram());
        digest.push(p.samples);
        digest.push(p.traps);
        digest.push(p.evictions);
        digest.push(p.m_estimate.to_bits());
    }
    digest.0
}

fn registry_digest_through_bytes(opts: &IngestOptions) -> u64 {
    let runner = RdxRunner::new(config());
    let profiles: Vec<RdxProfile> = registry_bytes()
        .into_iter()
        .map(|(name, raw)| {
            let input = RdxtInput::from_bytes(name, raw).expect("valid RDXT bytes");
            let (p, verdict) = runner.profile_rdxt(input, opts);
            assert!(verdict.is_ok(), "{name}: clean decode expected");
            p
        })
        .collect();
    digest_profiles(&profiles)
}

#[test]
fn bulk_ingestion_reproduces_registry_golden_digest() {
    let got = registry_digest_through_bytes(&IngestOptions::default());
    assert_eq!(
        got, GOLDEN,
        "file-backed registry digest {got:#018x} deviates from the \
         in-memory baseline — the bulk decoder must be bit-identical",
    );
}

#[test]
fn odd_chunk_capacities_reproduce_the_digest() {
    // Batch borders must never matter: a tiny odd capacity forces PMU
    // overflow gaps and armed-watchpoint lifetimes to straddle batches,
    // and a huge one is capped.
    for capacity in [777, usize::MAX] {
        let got =
            registry_digest_through_bytes(&IngestOptions::default().with_chunk_capacity(capacity));
        assert_eq!(got, GOLDEN, "capacity {capacity}");
    }
}

#[test]
fn every_decode_kernel_reproduces_the_digest() {
    // Each kernel decodes every registry blob's records in one call,
    // outside the decoder; the columns, profiled in memory, land on the
    // same bits. The scalar oracle runs nowhere in production, so this
    // is what keeps it pinned to the digest.
    // The BMI2 instance runs where this CPU has BMI2, fast `pext` or not.
    let kernels = [
        ("scalar", None),
        ("portable", Some(BlockDecode::portable())),
    ]
    .into_iter()
    .chain(BlockDecode::bmi2().map(|b| ("bmi2", Some(b))));
    let runner = RdxRunner::new(config());
    for (kernel, block) in kernels {
        let profiles: Vec<RdxProfile> = registry_bytes()
            .into_iter()
            .map(|(name, raw)| {
                let header = io::parse_header(&raw).expect("valid RDXT header");
                let records = &raw[header.len..];
                let mut accesses = AccessBuf::new();
                let declared = usize::try_from(header.declared).expect("fits usize");
                let run = match block {
                    Some(b) => b.decode_records(records, declared, &mut 0, &mut accesses),
                    None => ScalarDecode.decode_records(records, declared, &mut 0, &mut accesses),
                };
                assert!(
                    run.failure.is_none() && run.committed == records.len(),
                    "{name}: the {kernel} kernel must decode every record",
                );
                let mut live = runner.start();
                live.feed(accesses.as_slice());
                live.finish()
            })
            .collect();
        let got = digest_profiles(&profiles);
        assert_eq!(
            got, GOLDEN,
            "decode kernel '{kernel}' digest {got:#018x} deviates — every \
             kernel must be bit-identical",
        );
    }
}

#[test]
fn file_batch_reproduces_registry_golden_digest() {
    // Real files, read block by block, profiled on the batch pool.
    let dir = std::env::temp_dir().join(format!("rdx-ingest-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let inputs = registry_bytes()
        .into_iter()
        .map(|(name, raw)| {
            let path = dir.join(format!("{name}.rdxt"));
            std::fs::write(&path, &raw).expect("write");
            load_rdxt(&path).expect("valid trace file")
        })
        .collect();
    let reports = profile_rdxt_batch(config(), inputs, &IngestOptions::default(), 3);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(reports.iter().all(|r| !r.truncated()));
    let got = digest_profiles(reports.iter().map(|r| &r.profile));
    assert_eq!(got, GOLDEN, "batch-of-files registry digest {got:#018x}");
}
