//! Spatially sharded **exact** measurement.
//!
//! Blocks are hash-partitioned across N worker shards; the final
//! histograms are **identical — same count in every bucket — to the
//! sequential [`ExactProfile`]**, not an approximation. That claim needs
//! care: naively running Olken's algorithm per shard and merging the
//! per-shard histograms is *wrong* for reuse distance, because the
//! distance of an access counts distinct blocks of **every** shard in
//! its reuse window, not just its own. The fix is an exact
//! decomposition:
//!
//! > `d(access) = Σ over shards s of (distinct blocks of shard s
//! > touched inside the access's reuse window)`
//!
//! which turns each access into a *window-count query* `(u, v)` (the
//! global times of its previous and current access) that every shard
//! can answer independently from its own access subsequence. The
//! pipeline has three passes:
//!
//! 1. **Partition (parallel):** the stream is cut into bounded
//!    [`Chunker`] chunks on the caller's thread and broadcast to the
//!    shard workers over bounded channels, so the trace is never
//!    materialized and at most `shards × 4` chunks are in flight. Each
//!    worker keeps an independent tracker (last-access table) for its
//!    own blocks and emits: its query list, its update-time list, and
//!    its — exactly shardable — reuse-*time* histogram and cold count.
//! 2. **Sweep (parallel):** the queries of all shards are merged into
//!    one list ordered by query time (deterministic: times are unique).
//!    Each shard then sweeps its own updates through this list with a
//!    Fenwick tree over its *local* update ordinals, adding its
//!    distinct-block count for every window into a shared atomic
//!    accumulator. Per-shard memory is `O(own accesses)` — the
//!    structures shrink as shards are added.
//! 3. **Merge (deterministic):** accumulated window counts are exact
//!    distances; they are recorded in query order, cold accesses and
//!    reuse-time histograms in shard order. Every bucket weight is a sum
//!    of `1.0`s (integer-valued `f64`s, exact up to 2^53), so the result
//!    is bit-identical to the sequential profile regardless of thread
//!    scheduling — `assert_eq!` against [`ExactProfile::measure`] holds
//!    and is enforced by tests across the entire workload registry.

use crate::exact::ExactProfile;
use crate::fxhash::FxHashMap;
use rdx_histogram::{Binning, RdHistogram, ReuseDistance, ReuseTime, RtHistogram};
use rdx_trace::{AccessStream, Chunk, Chunker, Granularity, DEFAULT_CHUNK_CAPACITY};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Chunks allowed in flight per shard before the producer blocks.
const CHUNKS_IN_FLIGHT: usize = 4;

/// Assigns a block to a shard (Fibonacci multiplicative hash, so
/// strided block patterns spread evenly).
fn shard_of(block: u64, shards: u64) -> usize {
    usize::try_from((block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards)
        .expect("shard index fits usize")
}

/// Everything one shard learns about its own blocks in the partition
/// pass.
struct ShardPass {
    /// Global time of each of this shard's accesses ("updates"),
    /// ascending by construction.
    times: Vec<u64>,
    /// For update `i`: the local ordinal of the same block's previous
    /// update, to be evicted from the sweep structure when `i` applies.
    prev: Vec<Option<u32>>,
    /// `(u, v)` reuse windows of this shard's non-cold accesses.
    queries: Vec<(u64, u64)>,
    /// Exact reuse-time histogram of this shard's accesses.
    rt: RtHistogram,
    /// First-touch (cold) accesses of this shard = its distinct blocks.
    cold: u64,
}

impl ShardPass {
    fn consume(
        rx: &crossbeam::channel::Receiver<Arc<Chunk>>,
        shard: usize,
        shards: u64,
        granularity: Granularity,
        binning: Binning,
    ) -> ShardPass {
        // Each shard's block-ownership map takes one probe per owned
        // access; the deterministic Fx hasher keeps that probe cheap.
        let mut last: FxHashMap<u64, u32> = FxHashMap::default();
        let mut times: Vec<u64> = Vec::new();
        let mut prev: Vec<Option<u32>> = Vec::new();
        let mut queries: Vec<(u64, u64)> = Vec::new();
        let mut rt = RtHistogram::new(binning);
        let mut cold = 0u64;
        let shift = granularity.shift();
        for chunk in rx {
            // Reuse needs only the address column, never the store bits.
            for (i, addr) in chunk.accesses.addrs().enumerate() {
                let time = chunk.index_of(i);
                let block = addr >> shift;
                if shard_of(block, shards) != shard {
                    continue;
                }
                let ordinal =
                    u32::try_from(times.len()).expect("more than u32::MAX accesses in one shard");
                match last.insert(block, ordinal) {
                    None => {
                        cold += 1;
                        rt.record(ReuseTime::INFINITE, 1.0);
                        prev.push(None);
                    }
                    Some(p) => {
                        let u = times[p as usize];
                        queries.push((u, time));
                        rt.record(ReuseTime::finite(time - u - 1), 1.0);
                        prev.push(Some(p));
                    }
                }
                times.push(time);
            }
        }
        ShardPass {
            times,
            prev,
            queries,
            rt,
            cold,
        }
    }

    /// Rough resident-set estimate of this shard's sweep state.
    fn memory_bytes(&self) -> usize {
        // last-access table entries (u64 key + u32 value + overhead),
        // update lists, query list, and the sweep-time Fenwick (i64/slot).
        self.cold as usize * 32 + self.times.len() * (8 + 8 + 8) + self.queries.len() * 16
    }

    /// Sweeps this shard's updates across the *global* query list,
    /// accumulating the shard's distinct-block count for every window.
    fn sweep(&self, queries: &[(u64, u64)], answers: &[AtomicU64]) {
        let mut fen = OrdinalFenwick::new(self.times.len());
        let mut present = 0i64;
        let mut next = 0usize;
        for (qi, &(u, v)) in queries.iter().enumerate() {
            // Apply every update strictly before the query time v. A
            // block's older entry is evicted as its newer entry lands,
            // so exactly the *last* access ≤ sweep point is present.
            while next < self.times.len() && self.times[next] < v {
                fen.add(next, 1);
                present += 1;
                if let Some(p) = self.prev[next] {
                    fen.add(p as usize, -1);
                    present -= 1;
                }
                next += 1;
            }
            // Updates with time ≤ u occupy ordinals < rank_u (times are
            // sorted), so present entries beyond that prefix are exactly
            // the blocks whose last access falls inside (u, v).
            let rank_u = self.times.partition_point(|t| *t <= u);
            if next == rank_u {
                continue; // no update of this shard inside (u, v)
            }
            let within = present - fen.prefix(rank_u);
            debug_assert!(within >= 0);
            if within > 0 {
                answers[qi].fetch_add(within as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Fenwick tree over local update ordinals with signed counts.
struct OrdinalFenwick {
    tree: Vec<i64>,
}

impl OrdinalFenwick {
    fn new(len: usize) -> OrdinalFenwick {
        OrdinalFenwick {
            tree: vec![0; len + 1],
        }
    }

    /// Adds `delta` at ordinal `i`.
    fn add(&mut self, i: usize, delta: i64) {
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Sum over ordinals `0..k`.
    fn prefix(&self, k: usize) -> i64 {
        let mut idx = k.min(self.tree.len() - 1);
        let mut sum = 0;
        while idx > 0 {
            sum += self.tree[idx];
            idx -= idx & idx.wrapping_neg();
        }
        sum
    }
}

/// Parallel driver producing sequential-identical [`ExactProfile`]s.
///
/// ```
/// use rdx_groundtruth::{ExactProfile, ShardedExact};
/// use rdx_histogram::Binning;
/// use rdx_trace::{Granularity, Trace};
///
/// let t = Trace::from_addresses("cyc", (0..10_000u64).map(|i| (i % 700) * 8));
/// let seq = ExactProfile::measure(t.stream(), Granularity::WORD, Binning::log2());
/// let par = ShardedExact::new(4).measure(t.stream(), Granularity::WORD, Binning::log2());
/// assert_eq!(seq.rd, par.rd);
/// assert_eq!(seq.rt, par.rt);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedExact {
    shards: usize,
    chunk_capacity: usize,
}

impl ShardedExact {
    /// A driver with `shards` worker threads (≥ 1).
    #[must_use]
    pub fn new(shards: usize) -> ShardedExact {
        assert!(shards > 0, "need at least one shard");
        ShardedExact {
            shards,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
        }
    }

    /// A driver sized to the machine's available parallelism.
    #[must_use]
    pub fn auto() -> ShardedExact {
        ShardedExact::new(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    }

    /// Overrides the streaming chunk capacity (accesses per chunk).
    #[must_use]
    pub fn with_chunk_capacity(mut self, capacity: usize) -> ShardedExact {
        assert!(capacity > 0, "chunk capacity must be positive");
        self.chunk_capacity = capacity;
        self
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs only the partition pass, returning each shard's *exactly
    /// shardable* piece: its reuse-time histogram and its cold
    /// (first-touch) count. Shard order is deterministic (the block
    /// hash), so the pieces merge back to the whole-trace reuse-time
    /// histogram bit-for-bit — the property the fleet-aggregation
    /// golden tests pin against `rdx_core::merge_batch`.
    #[must_use]
    pub fn rt_partials(
        &self,
        stream: impl AccessStream,
        granularity: Granularity,
        binning: Binning,
    ) -> Vec<(RtHistogram, u64)> {
        let (passes, _accesses) = self.partition(stream, granularity, binning);
        passes.into_iter().map(|p| (p.rt, p.cold)).collect()
    }

    /// Pass 1: partition. The caller's thread chunks the stream and
    /// broadcasts; shard workers filter and track their own blocks.
    /// Returns the per-shard passes and the total access count.
    fn partition(
        &self,
        stream: impl AccessStream,
        granularity: Granularity,
        binning: Binning,
    ) -> (Vec<ShardPass>, u64) {
        let shards = self.shards;
        let shards_u64 = shards as u64;
        let partition_span = rdx_metrics::span("partition");
        let mut chunker = Chunker::with_capacity(stream, self.chunk_capacity);
        let passes: Vec<ShardPass> = crossbeam::scope(|scope| {
            let mut senders = Vec::with_capacity(shards);
            let mut handles = Vec::with_capacity(shards);
            for shard in 0..shards {
                let (tx, rx) = crossbeam::channel::bounded::<Arc<Chunk>>(CHUNKS_IN_FLIGHT);
                senders.push(tx);
                handles.push(scope.spawn(move |_| {
                    // Worker thread: its own span stack, so the timer
                    // records flat (one duration per shard per run).
                    let _shard_span = rdx_metrics::span("rdx.sharded.shard_partition");
                    ShardPass::consume(&rx, shard, shards_u64, granularity, binning)
                }));
            }
            while let Some(chunk) = chunker.next_chunk() {
                let chunk = Arc::new(chunk);
                for tx in &senders {
                    tx.send(Arc::clone(&chunk)).expect("shard worker alive");
                }
            }
            drop(senders);
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
        .expect("shard scope panicked");
        let accesses = chunker.accesses_delivered();
        drop(partition_span);
        (passes, accesses)
    }

    /// Measures a stream exactly, in parallel. The result equals
    /// [`ExactProfile::measure`] bucket for bucket (see module docs).
    #[must_use]
    pub fn measure(
        &self,
        stream: impl AccessStream,
        granularity: Granularity,
        binning: Binning,
    ) -> ExactProfile {
        let _measure_span = rdx_metrics::span("rdx.sharded.measure");
        rdx_metrics::counter("rdx.sharded.measurements").incr();

        let (passes, accesses) = self.partition(stream, granularity, binning);
        rdx_metrics::counter("rdx.sharded.accesses").add(accesses);

        // Pass 2: order queries globally (times are unique, so the order
        // is deterministic) and let every shard sweep them in parallel.
        let sweep_span = rdx_metrics::span("sweep");
        let mut queries: Vec<(u64, u64)> = passes
            .iter()
            .flat_map(|p| p.queries.iter().copied())
            .collect();
        queries.sort_unstable_by_key(|&(_, v)| v);
        rdx_metrics::counter("rdx.sharded.queries").add(queries.len() as u64);
        let answers: Vec<AtomicU64> = std::iter::repeat_with(|| AtomicU64::new(0))
            .take(queries.len())
            .collect();
        crossbeam::scope(|scope| {
            let queries = &queries;
            let answers = &answers;
            for pass in &passes {
                scope.spawn(move |_| {
                    let _shard_span = rdx_metrics::span("rdx.sharded.shard_sweep");
                    pass.sweep(queries, answers);
                });
            }
        })
        .expect("sweep scope panicked");
        drop(sweep_span);

        // Pass 3: deterministic merge. One record() per access keeps
        // observation counts — and so histogram equality — exact.
        let _merge_span = rdx_metrics::span("merge");
        let mut rd = RdHistogram::new(binning);
        let mut rt = RtHistogram::new(binning);
        let mut distinct_blocks = 0u64;
        let mut tracker_bytes = 0usize;
        for pass in &passes {
            for _ in 0..pass.cold {
                rd.record(ReuseDistance::INFINITE, 1.0);
            }
            distinct_blocks += pass.cold;
            tracker_bytes += pass.memory_bytes();
            rt.merge(&pass.rt).expect("shards share one binning");
        }
        for answer in &answers {
            rd.record(ReuseDistance::finite(answer.load(Ordering::Relaxed)), 1.0);
        }
        ExactProfile {
            rd,
            rt,
            granularity,
            accesses,
            distinct_blocks,
            tracker_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Trace;

    fn pseudo_trace(n: u64, span: u64) -> Trace {
        // LCG-scrambled addresses with some locality structure.
        Trace::from_addresses(
            "sharded",
            (0..n).map(move |i| {
                let x = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((x >> 33) % span) * 8
            }),
        )
    }

    fn assert_identical(trace: &Trace, shards: usize) {
        let seq = ExactProfile::measure(trace.stream(), Granularity::WORD, Binning::log2());
        let par = ShardedExact::new(shards)
            .with_chunk_capacity(97) // force many ragged chunks
            .measure(trace.stream(), Granularity::WORD, Binning::log2());
        assert_eq!(seq.rd, par.rd, "{shards} shards: rd histograms differ");
        assert_eq!(seq.rt, par.rt, "{shards} shards: rt histograms differ");
        assert_eq!(seq.accesses, par.accesses);
        assert_eq!(seq.distinct_blocks, par.distinct_blocks);
    }

    #[test]
    fn matches_sequential_for_any_shard_count() {
        let trace = pseudo_trace(5_000, 400);
        for shards in [1, 2, 3, 4, 7, 16] {
            assert_identical(&trace, shards);
        }
    }

    #[test]
    fn matches_sequential_on_cyclic_and_sawtooth_patterns() {
        let cyclic = Trace::from_addresses("cyc", (0..8_000u64).map(|i| (i % 350) * 64));
        assert_identical(&cyclic, 4);
        let saw = Trace::from_addresses(
            "saw",
            (0..8_000u64).map(|i| {
                let phase = i % 500;
                let pos = if (i / 500) % 2 == 0 {
                    phase
                } else {
                    499 - phase
                };
                pos * 64
            }),
        );
        assert_identical(&saw, 4);
    }

    #[test]
    fn single_block_trace() {
        let trace = Trace::from_addresses("one", std::iter::repeat_n(64u64, 1_000));
        assert_identical(&trace, 4);
    }

    #[test]
    fn empty_stream() {
        let p = ShardedExact::new(3).measure(
            Trace::new("e").stream(),
            Granularity::WORD,
            Binning::log2(),
        );
        assert_eq!(p.accesses, 0);
        assert_eq!(p.distinct_blocks, 0);
        assert!(p.rd.as_histogram().is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = pseudo_trace(20_000, 1_000);
        let engine = ShardedExact::new(8);
        let a = engine.measure(trace.stream(), Granularity::WORD, Binning::log2());
        let b = engine.measure(trace.stream(), Granularity::WORD, Binning::log2());
        assert_eq!(a.rd, b.rd);
        assert_eq!(a.rt, b.rt);
        assert_eq!(a.tracker_bytes, b.tracker_bytes);
    }

    #[test]
    fn shard_hash_spreads_strided_blocks() {
        let mut counts = vec![0u32; 8];
        for block in (0..8_000u64).map(|i| i * 64) {
            counts[shard_of(block, 8)] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "{c}");
        }
    }
}
