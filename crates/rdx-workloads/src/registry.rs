//! The workload registry: names, SPEC analogs, and stream construction.

use crate::kernels;
use crate::params::Params;
use rdx_trace::AccessStream;
use std::fmt;

/// A boxed, sendable access stream — what every kernel produces. Kernel
/// streams override [`AccessStream::fill`].
pub type DynStream = Box<dyn AccessStream + Send>;

/// A workload in the suite: identity, provenance, and a stream factory.
#[derive(Clone, Copy)]
pub struct WorkloadSpec {
    /// Short unique name (`stream_triad`, `pointer_chase`, …).
    pub name: &'static str,
    /// The SPEC CPU2017 benchmark whose locality this kernel mimics, or a
    /// note when the kernel is a synthetic stressor. Documented substitution
    /// for the paper's (non-redistributable) evaluation suite.
    pub spec_analog: &'static str,
    /// One-line description of the access pattern.
    pub description: &'static str,
    build: fn(&Params) -> DynStream,
}

impl WorkloadSpec {
    /// Instantiates the workload's access stream for the given parameters.
    ///
    /// The stream yields exactly `params.accesses` accesses and is a
    /// deterministic function of `params`. It lends
    /// [`next_chunk`](AccessStream::next_chunk) views of one reused
    /// buffer, and its [`fill`](AccessStream::fill) generates straight
    /// into the caller's columns.
    #[must_use]
    pub fn stream(&self, params: &Params) -> DynStream {
        (self.build)(params)
    }
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("spec_analog", &self.spec_analog)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

macro_rules! spec {
    ($name:ident, $analog:literal, $desc:literal) => {
        WorkloadSpec {
            name: stringify!($name),
            spec_analog: $analog,
            description: $desc,
            build: kernels::$name,
        }
    };
}

const SUITE: &[WorkloadSpec] = &[
    spec!(
        stream_triad,
        "603.bwaves_s / STREAM",
        "sequential triad over three arrays; pure streaming"
    ),
    spec!(
        strided,
        "649.fotonik3d_s",
        "stride-8 sweeps with rotating offset; vector-like strides"
    ),
    spec!(
        sawtooth,
        "644.nab_s",
        "triangular forward/backward sweeps; broad distance spectrum"
    ),
    spec!(
        fifo_queue,
        "648.exchange2_s",
        "small ring buffer; cache-resident producer/consumer"
    ),
    spec!(
        random_uniform,
        "505.mcf_r (global phase)",
        "uniform random over the footprint, 10% stores"
    ),
    spec!(
        zipf,
        "523.xalancbmk_s",
        "Zipf(0.99) popularity; compact hot set, long tail"
    ),
    spec!(
        gauss_hotset,
        "500.perlbench_r",
        "gaussian working set with slowly drifting center"
    ),
    spec!(
        hash_probe,
        "531.deepsjeng_s (TT probes)",
        "open-addressing hash probes, geometric probe length"
    ),
    spec!(
        pointer_chase,
        "505.mcf_s",
        "single-cycle random pointer chase; LLC-defeating"
    ),
    spec!(
        bst_search,
        "541.leela_s",
        "root-to-leaf walks of an implicit binary tree"
    ),
    spec!(
        spmv,
        "510.parest_r",
        "CSR SpMV: sequential index/value streams + random gathers"
    ),
    spec!(
        matmul_naive,
        "508.namd_r (unblocked kernels)",
        "triple-loop matmul; column strides defeat caches"
    ),
    spec!(
        matmul_blocked,
        "538.imagick_r (tiled ops)",
        "8x8-tiled matmul; the locality-optimized twin"
    ),
    spec!(
        stencil2d,
        "507.cactuBSSN_r",
        "5-point 2-D stencil sweeps over in/out grids"
    ),
    spec!(
        stencil3d,
        "519.lbm_r",
        "7-point 3-D stencil sweeps; lattice-Boltzmann shape"
    ),
    spec!(
        sort_merge,
        "557.xz_r",
        "bottom-up merge passes; run length doubles per pass"
    ),
    spec!(
        phased,
        "602.gcc_s",
        "hot set expands/contracts between compiler-like phases"
    ),
    spec!(
        lru_adversary,
        "(synthetic stressor)",
        "cyclic scan of the whole footprint; LRU worst case"
    ),
];

/// Returns the full workload suite in canonical order.
#[must_use]
pub fn suite() -> &'static [WorkloadSpec] {
    SUITE
}

/// Looks up a workload by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    SUITE.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Trace;

    #[test]
    fn suite_has_eighteen_unique_names() {
        assert_eq!(suite().len(), 18);
        let mut names: Vec<_> = suite().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn by_name_roundtrip() {
        for w in suite() {
            let found = by_name(w.name).expect("every suite member resolvable");
            assert_eq!(found.name, w.name);
        }
        assert!(by_name("not_a_workload").is_none());
    }

    #[test]
    fn every_workload_streams_exact_count() {
        let p = Params::default().with_accesses(5000).with_elements(512);
        for w in suite() {
            assert_eq!(
                Trace::from_stream("", w.stream(&p)).len(),
                5000,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn debug_and_display_are_informative() {
        let w = by_name("zipf").unwrap();
        assert_eq!(w.to_string(), "zipf");
        assert!(format!("{w:?}").contains("zipf"));
        assert!(!w.description.is_empty());
        assert!(!w.spec_analog.is_empty());
    }

    #[test]
    fn streams_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        let p = Params::default().with_accesses(10);
        for w in suite() {
            let s = w.stream(&p);
            assert_send(&s);
        }
    }
}
