//! Every registry kernel's raw access sequence, pinned.
//!
//! `DIGESTS` holds a hash of the `(addr, is_store)` sequence each kernel
//! streams at four `Params`, tiny element counts included. The table was
//! recorded from the per-access closure generators, so any rewrite of a
//! kernel must reproduce its stream bit for bit — through every way of
//! pulling it.

use proptest::prelude::*;
use rdx_trace::{AccessBuf, AccessStream, Chunker, Trace};
use rdx_workloads::{suite, Params};

/// The four parameter sets, in `DIGESTS` column order.
fn params() -> [Params; 4] {
    [
        Params::default()
            .with_accesses(30_000)
            .with_elements(1024)
            .with_seed(7),
        Params::default().with_accesses(1000).with_elements(1),
        Params::default()
            .with_accesses(4097)
            .with_elements(37)
            .with_seed(11),
        Params::default()
            .with_accesses(70_001)
            .with_elements(60_000)
            .with_seed(3),
    ]
}

/// FNV-1a over each access's little-endian address and a store byte,
/// then the access count.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }

    fn push(&mut self, addr: u64, is_store: bool) {
        for b in addr.to_le_bytes() {
            self.byte(b);
        }
        self.byte(u8::from(is_store));
    }

    fn finish(mut self, len: u64) -> u64 {
        for b in len.to_le_bytes() {
            self.byte(b);
        }
        self.0
    }
}

/// The digest of a stream read by `next_chunk(max)` pulls.
fn digest_of(mut stream: impl AccessStream, max: usize) -> u64 {
    let mut d = Digest::new();
    let mut n = 0;
    while let Some(chunk) = stream.next_chunk(max) {
        for a in chunk {
            d.push(a.addr.raw(), a.kind.is_store());
        }
        n += chunk.len() as u64;
    }
    d.finish(n)
}

fn digest_of_buf(b: &AccessBuf) -> u64 {
    let mut d = Digest::new();
    for a in b.iter() {
        d.push(a.addr.raw(), a.kind.is_store());
    }
    d.finish(b.len() as u64)
}

/// Piece sizes the split tests cut each stream into: smaller than,
/// equal to and larger than every kernel's loop iteration, and across
/// the stream's own 64 Ki buffer. A stream is cut into at most
/// `MAX_PIECES` pieces, so the small sizes run on the short streams.
const SPLITS: [usize; 8] = [1, 2, 3, 5, 7, 64, 1000, 65_537];
const MAX_PIECES: u64 = 4200;

/// `(kernel, [digest per params()])`, recorded from the closure
/// generators.
const DIGESTS: &[(&str, [u64; 4])] = &[
    (
        "stream_triad",
        [
            0xd7a6_145b_7f86_3d93,
            0x2c23_e570_c322_e029,
            0x2f89_7ac5_8c92_2f57,
            0x4a42_d62c_ca49_ae6d,
        ],
    ),
    (
        "strided",
        [
            0xea1e_c405_4c04_f146,
            0xd355_651d_2690_2a9c,
            0x1ca5_8c59_f0bd_e139,
            0xd887_8d61_1933_6a1f,
        ],
    ),
    (
        "sawtooth",
        [
            0xbe30_5c65_d4fa_3a9e,
            0x9c52_6bac_cdf8_c85c,
            0x0e41_4b98_9701_4b64,
            0x464b_6a7e_8689_783c,
        ],
    ),
    (
        "fifo_queue",
        [
            0x3f1e_fea6_4e6b_5b1e,
            0xbe37_7a03_328c_6e6c,
            0xc96e_b9a4_8359_1583,
            0x1808_6920_4f50_1215,
        ],
    ),
    (
        "random_uniform",
        [
            0x4e02_bb63_e107_f8a3,
            0x1465_164a_8dd6_b532,
            0x661e_586e_2901_b91a,
            0x0382_4377_773e_eeb8,
        ],
    ),
    (
        "zipf",
        [
            0xf784_c93e_8bb9_6478,
            0x95dd_6a73_bf1f_b7bc,
            0xda57_0051_4881_efb8,
            0x4426_66ce_8abf_6ec9,
        ],
    ),
    (
        "gauss_hotset",
        [
            0x6b3b_4146_68cf_10e5,
            0x956c_e2e0_6968_f9bc,
            0x5322_9767_8e57_0684,
            0x5f4d_d6fe_9d7d_dca1,
        ],
    ),
    (
        "hash_probe",
        [
            0x81ae_5801_141d_049b,
            0x6065_d2be_8d1a_88e8,
            0x0ccf_8b4e_4c8f_70af,
            0x1658_d147_70bb_18f2,
        ],
    ),
    (
        "pointer_chase",
        [
            0xff30_6dfd_8963_27d8,
            0x95dd_6a73_bf1f_b7bc,
            0x11ea_718d_5fb3_0f07,
            0xad17_6d50_c01e_8ebd,
        ],
    ),
    (
        "bst_search",
        [
            0x5584_367c_2d7b_d5ea,
            0x95dd_6a73_bf1f_b7bc,
            0xf564_f4dc_4049_a657,
            0x17a2_547d_9675_443b,
        ],
    ),
    (
        "spmv",
        [
            0x46c0_16bb_e1e3_ace7,
            0x7808_24b0_b31b_4c5c,
            0x34fe_8d1c_0ab9_85ae,
            0xf944_5b61_5345_3c13,
        ],
    ),
    (
        "matmul_naive",
        [
            0x84f1_081f_473f_7ddf,
            0x8035_0ca7_7838_62ec,
            0x1375_f797_c2e2_5e06,
            0xc82c_2181_23db_6109,
        ],
    ),
    (
        "matmul_blocked",
        [
            0x7e01_3dca_2a9d_98d3,
            0x8035_0ca7_7838_62ec,
            0x1375_f797_c2e2_5e06,
            0xe1e1_a57d_0969_e78e,
        ],
    ),
    (
        "stencil2d",
        [
            0xd0aa_d1fb_014f_d971,
            0x85aa_71bd_678b_c52c,
            0x084b_5b2d_0dfa_8a16,
            0xfc71_9820_1feb_9295,
        ],
    ),
    (
        "stencil3d",
        [
            0x7a3c_6e67_1b10_454a,
            0xdab8_cb15_f2e0_2c04,
            0xebd2_7ce1_3e78_2fce,
            0xe265_f36d_282a_5cfb,
        ],
    ),
    (
        "sort_merge",
        [
            0x5b51_1b16_0d11_fcbe,
            0xc82e_8c24_c4ef_5abc,
            0x1d49_3c32_bc65_253e,
            0xd06a_bc20_cb42_0d2f,
        ],
    ),
    (
        "phased",
        [
            0x3ec7_3f50_1f56_83f3,
            0x9b7d_70cc_117d_c3e9,
            0xd7af_010e_8586_a35c,
            0xbf7e_6648_556a_b216,
        ],
    ),
    (
        "lru_adversary",
        [
            0x4462_3e0c_ec5e_750e,
            0x707a_c20b_d4d6_311c,
            0xa202_8427_4376_9064,
            0xdd0a_e5aa_8bbe_0f9b,
        ],
    ),
];

fn pinned(name: &str) -> [u64; 4] {
    DIGESTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} has no pinned digest"))
        .1
}

#[test]
fn every_kernel_has_a_pinned_digest() {
    assert_eq!(DIGESTS.len(), suite().len());
    for w in suite() {
        let _ = pinned(w.name);
    }
}

/// One `next_chunk(usize::MAX)` pull at a time: the way the machine
/// reads a stream.
#[test]
fn chunk_pulled_streams_match_pinned_digests() {
    for w in suite() {
        for (k, p) in params().iter().enumerate() {
            assert_eq!(
                digest_of(w.stream(p), usize::MAX),
                pinned(w.name)[k],
                "{} at params #{k}",
                w.name
            );
        }
    }
}

/// A kernel's materialized trace, whole and re-read in chunks of any
/// size through its own stream.
#[test]
fn materialized_and_rechunked_streams_match_pinned_digests() {
    for w in suite() {
        for (k, p) in params().iter().enumerate() {
            let want = pinned(w.name)[k];
            let t = Trace::from_stream(w.name, w.stream(p));
            for cap in [1, 7, 64, 1000, usize::MAX] {
                let got = digest_of(t.stream(), cap);
                assert_eq!(got, want, "{} trace chunks({cap}) #{k}", w.name);
            }
        }
    }
}

/// Every kernel read by `fill(cap)`, by `next_chunk(cap)` views and
/// by a `Chunker` of capacity `cap` reproduces its pinned digest.
#[test]
fn filled_and_peeked_streams_match_pinned_digests_at_every_split() {
    for w in suite() {
        for (k, p) in params().iter().enumerate() {
            let want = pinned(w.name)[k];
            for cap in SPLITS
                .into_iter()
                .filter(|&c| p.accesses / c as u64 <= MAX_PIECES)
            {
                let mut s = w.stream(p);
                let mut filled = AccessBuf::new();
                while s.fill(&mut filled, cap) == cap {}
                assert_eq!(digest_of_buf(&filled), want, "{} fill({cap}) #{k}", w.name);

                let got = digest_of(w.stream(p), cap);
                assert_eq!(got, want, "{} chunk({cap}) #{k}", w.name);

                let mut chunks = AccessBuf::new();
                for c in Chunker::with_capacity(w.stream(p), cap) {
                    chunks.extend_from_slice(c.accesses.as_slice());
                }
                assert_eq!(
                    digest_of_buf(&chunks),
                    want,
                    "{} chunker({cap}) #{k}",
                    w.name
                );
            }
        }
    }
}

/// How one pull of an interleaving reads a stream: `next_chunk(k)` or
/// `fill(k)`.
#[derive(Debug, Clone)]
enum Pull {
    Chunk(usize),
    Fill(usize),
}

fn pull() -> impl Strategy<Value = Pull> {
    prop_oneof![
        (1usize..200).prop_map(Pull::Chunk),
        (1usize..200).prop_map(Pull::Fill),
    ]
}

/// Drains `s` by `pulls`, cycled until the stream ends, and returns the
/// digest of what it delivered. Before every pull the hint must equal
/// the accesses still to come (so it never under-reports); a chunk is
/// 1..=`k` long and a fill is short only at the end.
fn drain(mut s: impl AccessStream, pulls: &[Pull], total: u64) -> u64 {
    let mut got = AccessBuf::new();
    for p in pulls.iter().cycle() {
        let left = total - got.len() as u64;
        assert_eq!(s.remaining_hint(), Some(left), "the hint is exact");
        if left == 0 {
            break;
        }
        match *p {
            Pull::Chunk(k) => {
                let c = s.next_chunk(k).expect("accesses are left");
                assert!(!c.is_empty() && c.len() <= k, "a chunk of 1..=max");
                got.extend_from_slice(c);
            }
            Pull::Fill(k) => {
                let n = s.fill(&mut got, k);
                assert_eq!(n as u64, left.min(k as u64), "fill short of `max`");
            }
        }
    }
    assert!(s.next_chunk(1).is_none() && s.fill(&mut got, 1) == 0);
    digest_of_buf(&got)
}

proptest! {
    /// Any interleaving of `next_chunk(k)` and `fill(k)` reproduces the
    /// pinned digest, for every kernel at every pinned `Params`, both
    /// from the generator stream and from its materialized trace's
    /// stream.
    #[test]
    fn interleaved_pulls_concatenate_to_one_stream(
        kernel in 0usize..18,
        k in 0usize..4,
        pulls in prop::collection::vec(pull(), 1..8),
    ) {
        let w = &suite()[kernel];
        let p = &params()[k];
        let want = pinned(w.name)[k];
        prop_assert_eq!(drain(w.stream(p), &pulls, p.accesses), want);
        let t = Trace::from_stream(w.name, w.stream(p));
        prop_assert_eq!(drain(t.stream(), &pulls, p.accesses), want);
    }
}
