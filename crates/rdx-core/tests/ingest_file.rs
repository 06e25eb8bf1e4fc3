//! RDXT files through `load_rdxt` + `profile_rdxt`: the header is
//! validated from the first read block, the records stream in fixed
//! blocks, and a file cut anywhere — inside the header, inside a
//! record, on a block boundary — gets the verdict and the prefix
//! profile its bytes deserve.

use rdx_core::{
    load_rdxt, IngestError, IngestOptions, RdxConfig, RdxProfile, RdxRunner, RdxtInput, BLOCK_LEN,
};
use rdx_trace::{io, AccessStream, Trace, TraceError, TraceReader, MAX_HEADER_LEN, MAX_NAME_LEN};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdx-ingest-file-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write");
    path
}

fn runner() -> RdxRunner {
    RdxRunner::new(RdxConfig::default().with_period(256).with_seed(5))
}

/// The fields the registry digest covers, plus the access count.
fn assert_same(got: &RdxProfile, want: &RdxProfile, what: &str) {
    assert_eq!(got.accesses, want.accesses, "{what}: accesses");
    assert_eq!(got.rd, want.rd, "{what}: rd");
    assert_eq!(got.rt, want.rt, "{what}: rt");
    assert_eq!(got.samples, want.samples, "{what}: samples");
    assert_eq!(got.traps, want.traps, "{what}: traps");
    assert_eq!(got.evictions, want.evictions, "{what}: evictions");
    assert_eq!(
        got.m_estimate.to_bits(),
        want.m_estimate.to_bits(),
        "{what}: m_estimate"
    );
}

/// `RdxRunner::profile` of the records a whole-buffer reader decodes
/// from `bytes` before it stops.
fn prefix_profile(bytes: &[u8]) -> RdxProfile {
    let mut reader = TraceReader::new(bytes.to_vec()).expect("header intact");
    let mut prefix = Trace::new("prefix");
    while let Some(a) = reader.next_access() {
        prefix.push(a);
    }
    runner().profile(prefix.stream())
}

#[test]
fn cuts_inside_the_header_fail_to_load() {
    let raw = io::to_bytes(&Trace::from_addresses("hdr", (0..100u64).map(|i| i * 64)));
    let header_len = 12 + "hdr".len() + 8;
    let dir = temp_dir("hdr");
    for cut in 0..header_len {
        let path = write(&dir, "cut.rdxt", &raw[..cut]);
        match load_rdxt(&path) {
            Err(IngestError::Trace { .. }) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cuts_inside_the_records_profile_the_decoded_prefix() {
    // Several read blocks of records, so cuts land on and around block
    // boundaries as well as mid-record.
    let t = Trace::from_addresses("rec", (0..150_000u64).map(|i| (i * 7919 % 3001) * 64));
    let raw = io::to_bytes(&t);
    assert!(raw.len() > 2 * BLOCK_LEN + 64);
    let header_len = 12 + "rec".len() + 8;
    let dir = temp_dir("rec");
    let cuts = [
        header_len,
        header_len + 1,
        BLOCK_LEN - 1,
        BLOCK_LEN,
        BLOCK_LEN + 1,
        2 * BLOCK_LEN + 3,
        raw.len() - 1,
    ];
    for cut in cuts {
        let path = write(&dir, "cut.rdxt", &raw[..cut]);
        let input = load_rdxt(&path).expect("the header survives the cut");
        assert_eq!(input.declared, 150_000);
        let (profile, verdict) = runner().profile_rdxt(input, &IngestOptions::default());
        assert!(
            matches!(verdict, Err(TraceError::Truncated)),
            "cut at {cut}: {verdict:?}"
        );
        assert!(profile.accesses < 150_000);
        assert_same(
            &profile,
            &prefix_profile(&raw[..cut]),
            &format!("cut at {cut}"),
        );
    }
    // The whole file is clean and equals the in-memory profile.
    let path = write(&dir, "whole.rdxt", &raw);
    let (profile, verdict) =
        runner().profile_rdxt(load_rdxt(&path).expect("valid"), &IngestOptions::default());
    assert!(verdict.is_ok());
    assert_same(&profile, &runner().profile(t.stream()), "whole file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trailing_bytes_after_the_records_are_reported() {
    let mut raw =
        io::to_bytes(&Trace::from_addresses("tail", (0..5_000u64).map(|i| i * 8))).to_vec();
    raw.extend_from_slice(&[0x55; BLOCK_LEN + 9]);
    let dir = temp_dir("tail");
    let path = write(&dir, "tail.rdxt", &raw);
    let (profile, verdict) = runner().profile_rdxt(
        load_rdxt(&path).expect("valid header"),
        &IngestOptions::default(),
    );
    assert_eq!(profile.accesses, 5_000);
    assert!(
        matches!(verdict, Err(TraceError::TrailingData(n)) if n == BLOCK_LEN + 9),
        "{verdict:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overlong_record_profiles_the_records_before_it() {
    // 20 000 valid records, then one whose 19th byte overflows 128
    // bits, counted in the header, then 10 000 more: the profile covers
    // exactly the records before the corrupt one.
    let good = io::to_bytes(&Trace::from_addresses(
        "bad",
        (0..20_000u64).map(|i| (i % 613) * 64),
    ));
    let header_len = 12 + "bad".len() + 8;
    let mut raw = good.to_vec();
    raw[header_len - 8..header_len].copy_from_slice(&30_001u64.to_le_bytes());
    raw.extend_from_slice(&[0xff; 19]);
    raw.push(0x7f);
    raw.extend_from_slice(&[0x02; 10_000]);
    let dir = temp_dir("bad");
    let path = write(&dir, "bad.rdxt", &raw);
    let (profile, verdict) = runner().profile_rdxt(
        load_rdxt(&path).expect("valid header"),
        &IngestOptions::default(),
    );
    assert!(matches!(verdict, Err(TraceError::Malformed)), "{verdict:?}");
    assert_eq!(profile.accesses, 20_000);
    assert_same(
        &profile,
        &prefix_profile(&good),
        "records before the corrupt one",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_largest_header_loads_from_the_first_block() {
    let name = "n".repeat(MAX_NAME_LEN);
    let t = Trace::from_addresses(name.as_str(), (0..40_000u64).map(|i| (i % 997) * 64));
    assert_eq!(t.name().len(), MAX_NAME_LEN);
    let raw = io::to_bytes(&t);
    let dir = temp_dir("name");
    let path = write(&dir, "long-name.rdxt", &raw);
    let input = load_rdxt(&path).expect("the largest header fits the first block");
    assert_eq!(input.label, name);
    let (from_file, verdict) = runner().profile_rdxt(input, &IngestOptions::default());
    assert!(verdict.is_ok());
    let input = RdxtInput::from_bytes("bytes", raw.clone()).expect("valid");
    let (from_bytes, verdict) = runner().profile_rdxt(input, &IngestOptions::default());
    assert!(verdict.is_ok());
    assert_same(&from_file, &from_bytes, "file vs bytes");
    // One byte short of the largest header is still an incomplete one.
    let path = write(&dir, "short.rdxt", &raw[..MAX_HEADER_LEN - 1]);
    assert!(matches!(
        load_rdxt(&path),
        Err(IngestError::Trace {
            source: TraceError::Truncated,
            ..
        })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
