//! B1 — ground-truth measurement throughput: Olken's algorithm over its
//! Fenwick order-statistic tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdx_groundtruth::OlkenTracker;
use rdx_trace::Trace;
use rdx_workloads::{by_name, Params};
use std::hint::black_box;

const N: u64 = 100_000;

fn blocks() -> Vec<u64> {
    let w = by_name("zipf").expect("zipf in suite");
    let params = Params::default().with_accesses(N).with_elements(10_000);
    let t = Trace::from_stream("zipf", w.stream(&params));
    t.iter().map(|a| a.addr.raw() >> 3).collect()
}

fn bench(c: &mut Criterion) {
    let blocks = blocks();
    let mut group = c.benchmark_group("olken");
    group.throughput(Throughput::Elements(N));
    group.bench_with_input(
        BenchmarkId::new("structure", "fenwick"),
        &blocks,
        |b, blocks| {
            b.iter(|| {
                let mut o = OlkenTracker::new();
                for &blk in blocks {
                    black_box(o.access(blk));
                }
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
