//! The `rdx.trace.decode.*` counters mean the same thing on the file
//! path and the streaming path: a `TraceReader` over a whole trace and
//! an `RdxtDecoder` fed the same bytes in pieces report the same bytes
//! (header included), events and kernel resolutions, and one chunk per
//! decode call that yields records — a record completed across a piece
//! boundary is not a chunk of its own.
//!
//! The counters live in one process-global registry, so this binary
//! holds a single test. It checks nothing when the collectors are
//! compiled out.

use rdx_trace::{io, Access, Chunk, RdxtDecoder, Trace, TraceReader};

const NAMES: [&str; 4] = [
    "rdx.trace.decode.bytes",
    "rdx.trace.decode.events",
    "rdx.trace.decode.kernel",
    "rdx.trace.decode.chunks",
];

fn read() -> [u64; 4] {
    NAMES.map(|name| rdx_metrics::counter(name).get())
}

#[test]
fn streaming_and_file_decode_count_alike() {
    if !rdx_metrics::enabled() {
        return;
    }
    let t = Trace::from_addresses("count", (0..5_000u64).map(|i| (i * 7919) % 1_000_003 * 8));
    let raw = io::to_bytes(&t).to_vec();

    rdx_metrics::reset();
    let mut reader = TraceReader::new(raw.clone()).expect("valid header");
    let mut chunk = Chunk::default();
    while reader
        .decode_chunk(&mut chunk, 1 << 20)
        .expect("valid records")
        > 0
    {}
    reader.finish().expect("clean");
    let file = read();
    assert_eq!(file, [raw.len() as u64, 5_000, 1, 1]);

    rdx_metrics::reset();
    let mut decoder = RdxtDecoder::new();
    let mut out: Vec<Access> = Vec::new();
    let mut passes = 0;
    // 61-byte pieces split the header and many records.
    for piece in raw.chunks(61) {
        let used = decoder.decode(piece, &mut out, 1 << 20).expect("valid");
        assert_eq!(used, piece.len());
        passes += u64::from(!out.is_empty());
    }
    decoder.finish().expect("clean");
    let streamed = read();
    assert_eq!(streamed[..3], file[..3]);
    assert_eq!(streamed[3], passes);
}
