//! Cross-crate pipeline integration: traces through serialization,
//! ground truth through cache prediction, baselines against exact
//! measurement — everything that must agree when crates are composed.

use rdx::baselines::{FullInstrumentation, Shards};
use rdx::cache::{hierarchy, predict, CacheConfig, SetAssociativeCache};
use rdx::groundtruth::{ExactProfile, FootprintCurve};
use rdx::histogram::accuracy::histogram_intersection;
use rdx::histogram::{Binning, MissRatioCurve};
use rdx::traces::{io, AccessStream, Granularity, Trace, TraceStats};
use rdx::workloads::{by_name, Params};

fn small_params() -> Params {
    Params::default()
        .with_accesses(200_000)
        .with_elements(5_000)
}

#[test]
fn workload_trace_io_roundtrip_preserves_profile() {
    let w = by_name("hash_probe").unwrap();
    let params = small_params();
    let trace = Trace::from_stream(w.name, w.stream(&params));
    let bytes = io::to_bytes(&trace);
    let back = io::from_bytes(bytes).expect("valid trace bytes");
    assert_eq!(trace.accesses(), back.accesses());
    let a = ExactProfile::measure(trace.stream(), Granularity::WORD, Binning::log2());
    let b = ExactProfile::measure(back.stream(), Granularity::WORD, Binning::log2());
    assert_eq!(a.rd, b.rd);
    assert_eq!(a.rt, b.rt);
}

#[test]
fn mrc_prediction_matches_fully_associative_simulation() {
    // A fully-associative LRU cache (1 set) must match the Mattson
    // prediction from exact reuse distances *at the same granularity*.
    let w = by_name("zipf").unwrap();
    let params = small_params();
    let exact = ExactProfile::measure(
        w.stream(&params),
        Granularity::CACHE_LINE,
        Binning::linear(1),
    );
    let mrc = MissRatioCurve::from_rd_histogram(&exact.rd);
    for lines in [64u64, 256, 1024] {
        let config = CacheConfig {
            name: "fa",
            capacity_bytes: lines * 64,
            ways: u32::try_from(lines).unwrap(),
            line_bytes: 64,
        };
        let mut cache = SetAssociativeCache::new(config);
        let sim = cache.simulate(w.stream(&params));
        let predicted = mrc.miss_ratio(lines);
        assert!(
            (predicted - sim.miss_ratio()).abs() < 0.02,
            "{lines} lines: predicted {predicted} vs simulated {}",
            sim.miss_ratio()
        );
    }
}

#[test]
fn full_instrumentation_baseline_is_exact() {
    let w = by_name("sawtooth").unwrap();
    let params = small_params();
    let mut tool = FullInstrumentation::new();
    tool.granularity = Granularity::WORD;
    let full = tool.profile(w.stream(&params));
    let exact = ExactProfile::measure(w.stream(&params), Granularity::WORD, Binning::log2());
    let acc = histogram_intersection(full.rd.as_histogram(), exact.rd.as_histogram()).unwrap();
    assert!(
        (acc - 1.0).abs() < 1e-9,
        "full instrumentation must be exact"
    );
}

#[test]
fn shards_converges_to_exact_with_rate() {
    let w = by_name("random_uniform").unwrap();
    let params = Params::default()
        .with_accesses(300_000)
        .with_elements(3_000);
    let exact = ExactProfile::measure(
        w.stream(&params),
        Granularity::default(),
        Binning::default(),
    );
    let acc_at = |rate: f64| {
        let p = Shards::new(rate).profile(w.stream(&params));
        histogram_intersection(p.rd.as_histogram(), exact.rd.as_histogram()).unwrap()
    };
    let coarse = acc_at(0.01);
    let fine = acc_at(0.3);
    assert!(
        fine > coarse - 0.02,
        "more sampling must not hurt: {fine} vs {coarse}"
    );
    assert!(
        fine > 0.9,
        "30% spatial sampling should be near-exact: {fine}"
    );
}

#[test]
fn footprint_theory_predicts_cyclic_distance() {
    // fp(k) over a cyclic trace of k blocks equals k; conversion from time
    // to distance is exact for cycles. Ties groundtruth::footprint to the
    // reuse-distance semantics end to end.
    let k = 500u64;
    let trace = Trace::from_addresses("cycle", (0..20_000u64).map(|i| (i % k) * 8));
    let fp = FootprintCurve::measure(trace.stream(), Granularity::BYTE);
    for w in [1, k / 2, k] {
        assert!(
            (fp.fp(w) - w as f64).abs() < 1e-6,
            "fp({w}) = {} for a {k}-cycle",
            fp.fp(w)
        );
    }
    let exact = ExactProfile::measure(trace.stream(), Granularity::BYTE, Binning::linear(1));
    // all finite reuses at distance k−1
    assert_eq!(
        exact.rd.as_histogram().weight_for(k - 1),
        (20_000 - k) as f64
    );
}

#[test]
fn per_level_prediction_ordering() {
    // Larger caches can only lower the predicted miss ratio.
    let w = by_name("phased").unwrap();
    let exact = ExactProfile::measure(
        w.stream(&small_params()),
        Granularity::WORD,
        Binning::log2(),
    );
    let levels = hierarchy();
    let p = predict::miss_ratios(&exact.rd, &levels, 8);
    assert!(p[0].miss_ratio >= p[1].miss_ratio - 1e-9);
    assert!(p[1].miss_ratio >= p[2].miss_ratio - 1e-9);
}

#[test]
fn trace_stats_consistent_with_exact_profile() {
    let w = by_name("spmv").unwrap();
    let params = small_params();
    let stats = TraceStats::measure(w.stream(&params), Granularity::WORD);
    let exact = ExactProfile::measure(w.stream(&params), Granularity::WORD, Binning::log2());
    assert_eq!(stats.accesses, exact.accesses);
    assert_eq!(stats.distinct_blocks, exact.distinct_blocks);
    assert_eq!(exact.rd.cold_weight(), exact.distinct_blocks as f64);
}

#[test]
fn streams_replay_identically_across_granularities() {
    let w = by_name("stencil3d").unwrap();
    let params = small_params();
    let mut a = w.stream(&params);
    let mut b = w.stream(&params);
    loop {
        match (a.next_chunk(usize::MAX), b.next_chunk(usize::MAX)) {
            (None, None) => break,
            (x, y) => assert_eq!(x, y),
        }
    }
}
