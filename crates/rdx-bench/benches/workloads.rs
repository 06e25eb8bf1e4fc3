//! B6 — workload generation throughput (the experiment harness's floor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdx_trace::AccessStream;
use rdx_workloads::{by_name, Params};
use std::hint::black_box;

const N: u64 = 500_000;

fn bench(c: &mut Criterion) {
    let params = Params::default().with_accesses(N).with_elements(50_000);
    let mut group = c.benchmark_group("workloads");
    group.throughput(Throughput::Elements(N));
    for name in ["stream_triad", "zipf", "pointer_chase", "matmul_blocked"] {
        let w = by_name(name).expect("in suite");
        group.bench_with_input(BenchmarkId::new("generate", name), &w, |b, w| {
            b.iter(|| {
                let mut s = w.stream(&params);
                let mut n = 0;
                while let Some(chunk) = s.next_chunk(usize::MAX) {
                    n += chunk.len();
                }
                black_box(n)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
