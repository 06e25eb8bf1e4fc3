//! Round trips through the columnar access storage.
//!
//! Every path that builds or re-cuts columnar accesses — the `Trace`
//! constructors, `Chunker` at capacities on both sides of a bitmap
//! word, and chunk pulls of any size taking any prefix — must yield
//! exactly the `(address, is_store)` sequence it was given.

use proptest::prelude::*;
use rdx_trace::{Access, AccessBuf, AccessKind, AccessStream, Chunk, Chunker, Trace};

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

/// Takes the first `n` accesses of `s` by pulls of at most `step`
/// (the way a window budget is read), then drains the rest by pulls of
/// the same size; every view must respect its `max`.
fn take_then_drain(mut s: impl AccessStream, n: usize, step: usize) -> (AccessBuf, AccessBuf) {
    let mut pull = |out: &mut AccessBuf, mut left: usize| {
        while left > 0 {
            let Some(view) = s.next_chunk(left.min(step)) else {
                break;
            };
            assert!(!view.is_empty() && view.len() <= left.min(step));
            left -= view.len();
            out.extend_from_slice(view);
        }
    };
    let (mut head, mut tail) = (AccessBuf::new(), AccessBuf::new());
    pull(&mut head, n);
    pull(&mut tail, usize::MAX);
    (head, tail)
}

fn pair_strategy() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((any::<u64>(), any::<bool>()), 0..800)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `FromIterator<(u64, bool)>`, `push`, `extend`, `from_stream`
    /// and `from_addresses` all store the same columns.
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

        let streamed = Trace::from_stream("", collected.stream());
        prop_assert_eq!(streamed.accesses(), collected.accesses());

        let loads = Trace::from_addresses("", pairs.iter().map(|p| p.0));
        let want: Vec<(u64, bool)> = pairs.iter().map(|p| (p.0, false)).collect();
        prop_assert_eq!(pairs_of(loads.iter()), want);
    }

    /// `Chunker` cuts at capacities around a bitmap word (1, 63, 64,
    /// 65, 777), and the chunks concatenate back to the trace.
    #[test]
    fn chunker_round_trips(pairs in pair_strategy()) {
        let trace: Trace = pairs.iter().copied().collect();
        for capacity in [1usize, 63, 64, 65, 777] {
            let chunks: Vec<Chunk> = Chunker::with_capacity(trace.stream(), capacity).collect();
            let mut joined = AccessBuf::new();
            for (k, c) in chunks.iter().enumerate() {
                prop_assert_eq!(c.base_index, joined.len() as u64);
                prop_assert!(c.len() == capacity || k + 1 == chunks.len());
                joined.extend_from_slice(c.accesses.as_slice());
            }
            prop_assert_eq!(joined.as_slice(), trace.accesses());
        }
    }

    /// Taking a prefix of any length by chunk pulls of any size yields
    /// exactly that prefix, and the stream resumes right after it.
    #[test]
    fn take_yields_the_prefix(pairs in pair_strategy(), n in 0usize..900, step in 1usize..130) {
        let trace: Trace = pairs.iter().copied().collect();
        let cut = pairs.len().min(n);
        let (head, tail) = take_then_drain(trace.stream(), n, step);
        prop_assert_eq!(pairs_of(head.iter()), pairs[..cut].to_vec());
        prop_assert_eq!(pairs_of(tail.iter()), pairs[cut..].to_vec());
    }
}
