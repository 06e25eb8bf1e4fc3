//! The block decoder's design assumes almost every record takes the
//! block path. `rdx.trace.decode.slow_records` counts the records it
//! handed to the per-record scalar step instead (buffer tails, records
//! split across pieces, records longer than 8 bytes); over every
//! registry workload's RDXT bytes, pushed through the ingestion loop in
//! the blocks a file is read in, that must stay within 1 % of
//! `rdx.trace.decode.accesses`.
//!
//! The counters live in one process-global registry, so this binary
//! holds a single test.

use rdx_core::{IngestOptions, RdxConfig, RdxRunner, RdxtIngest, BLOCK_LEN};
use rdx_trace::{io, Trace};
use rdx_workloads::{suite, Params};

#[test]
fn block_path_decodes_almost_every_record() {
    let params = Params::default().with_accesses(100_000);
    let runner = RdxRunner::new(RdxConfig::default());
    rdx_metrics::reset();
    for w in suite() {
        let raw = io::to_bytes(&Trace::from_stream(w.name, w.stream(&params)));
        let mut ingest = RdxtIngest::new(&runner, &IngestOptions::default());
        for block in raw.chunks(BLOCK_LEN) {
            ingest.push(block).expect("valid records");
        }
        let (_, verdict) = ingest.finish();
        verdict.expect("a clean trace");
    }
    let snap = rdx_metrics::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let accesses = counter("rdx.trace.decode.accesses");
    let slow = counter("rdx.trace.decode.slow_records");
    assert_eq!(accesses, suite().len() as u64 * params.accesses);
    assert!(
        slow > 0 && slow * 100 <= accesses,
        "{slow} of {accesses} records took the scalar step"
    );
}
