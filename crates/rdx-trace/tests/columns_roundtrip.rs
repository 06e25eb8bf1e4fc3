//! Round trips through the columnar access storage.
//!
//! Every path that builds or re-cuts columnar accesses — the `Trace`
//! constructors, `Chunker` at capacities on both sides of a bitmap
//! word, `Take` at any budget, and `Chunked` buffering a stream that
//! cannot expose chunks — must yield exactly the `(address, is_store)`
//! sequence it was given.

use proptest::prelude::*;
use rdx_trace::{
    Access, AccessBuf, AccessKind, AccessStream, Chunk, Chunked, Chunker, Opaque, Trace,
};

fn access(&(addr, is_store): &(u64, bool)) -> Access {
    if is_store {
        Access::store(addr)
    } else {
        Access::load(addr)
    }
}

fn pairs_of(accesses: impl IntoIterator<Item = Access>) -> Vec<(u64, bool)> {
    accesses
        .into_iter()
        .map(|a| (a.addr.raw(), a.kind == AccessKind::Store))
        .collect()
}

/// Drains a stream through its chunk views, consuming `step` accesses
/// (at least one) of each view.
fn drain_chunks(mut s: impl AccessStream, step: usize) -> Vec<(u64, bool)> {
    let mut got = Vec::new();
    while let Some(view) = s.next_chunk() {
        let n = view.len().min(step.max(1));
        got.extend(pairs_of(view.slice(..n)));
        s.consume_chunk(n);
    }
    got.extend(pairs_of(s.iter()));
    got
}

fn pair_strategy() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((any::<u64>(), any::<bool>()), 0..800)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `FromIterator<(u64, bool)>`, `push`, `extend`, `from_stream`
    /// (over a per-access stream) and `from_addresses` all store the
    /// same columns.
    #[test]
    fn trace_constructors_agree(pairs in pair_strategy()) {
        let collected: Trace = pairs.iter().copied().collect();
        prop_assert_eq!(pairs_of(collected.iter()), pairs.clone());

        let mut pushed = Trace::new("");
        let half = pairs.len() / 2;
        for p in &pairs[..half] {
            pushed.push(access(p));
        }
        pushed.extend(pairs[half..].iter().map(access));
        prop_assert_eq!(&pushed, &collected);

        let streamed = Trace::from_stream("", Opaque::new(collected.stream()));
        prop_assert_eq!(&streamed, &collected);
        prop_assert_eq!(Trace::from_stream("", collected.stream()).accesses(), collected.accesses());

        let loads = Trace::from_addresses("", pairs.iter().map(|p| p.0));
        let want: Vec<(u64, bool)> = pairs.iter().map(|p| (p.0, false)).collect();
        prop_assert_eq!(pairs_of(loads.iter()), want);
    }

    /// `Chunker` cuts at capacities around a bitmap word (1, 63, 64,
    /// 65, 777), over both a chunk-capable and a per-access stream,
    /// and the chunks concatenate back to the trace.
    #[test]
    fn chunker_round_trips(pairs in pair_strategy()) {
        let trace: Trace = pairs.iter().copied().collect();
        for capacity in [1usize, 63, 64, 65, 777] {
            for bulk in [true, false] {
                let chunks: Vec<Chunk> = if bulk {
                    Chunker::with_capacity(trace.stream(), capacity).collect()
                } else {
                    Chunker::with_capacity(Opaque::new(trace.stream()), capacity).collect()
                };
                let mut joined = AccessBuf::new();
                for (k, c) in chunks.iter().enumerate() {
                    prop_assert_eq!(c.base_index, joined.len() as u64);
                    prop_assert!(c.len() == capacity || k + 1 == chunks.len());
                    joined.extend_from_slice(c.accesses.as_slice());
                }
                prop_assert_eq!(joined.as_slice(), trace.accesses());
            }
        }
    }

    /// `Take` at any budget, read through chunk views consumed in steps
    /// of any size, yields exactly the budget's prefix.
    #[test]
    fn take_yields_the_prefix(pairs in pair_strategy(), n in 0u64..900, step in 1usize..130) {
        let trace: Trace = pairs.iter().copied().collect();
        let want = pairs[..pairs.len().min(n as usize)].to_vec();
        prop_assert_eq!(drain_chunks(trace.stream().take(n), step), want);
    }

    /// `Chunked` over a stream that cannot expose chunks buffers it
    /// into views of at most its capacity, which replay the stream.
    #[test]
    fn chunked_buffers_per_access_streams(
        pairs in pair_strategy(),
        capacity in 1usize..200,
        step in 1usize..130,
    ) {
        let trace: Trace = pairs.iter().copied().collect();
        let mut s = Chunked::with_capacity(Opaque::new(trace.stream()), capacity);
        if let Some(view) = s.next_chunk() {
            prop_assert!(view.len() <= capacity);
        }
        prop_assert_eq!(drain_chunks(s, step), pairs);
    }
}
