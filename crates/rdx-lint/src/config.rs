//! Lint configuration: which crates are hot, the layering DAG, and
//! where the metrics counter manifest lives.

/// Configuration for one linter run.
///
/// All fields are public so tests (and the fixture suite) can build
/// arbitrary configurations; [`LintConfig::rdx_default`] is the checked
/// configuration for this workspace, and what the `rdx-lint` binary
/// uses unless overridden on the command line.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Crates where `std::collections::{HashMap,HashSet}` are forbidden
    /// (SipHash's per-process random seed makes iteration order, and
    /// therefore anything derived from it, nondeterministic).
    pub hot_crates: Vec<String>,
    /// Crates allowed to read wall clocks and entropy (benchmark
    /// drivers and the metrics collector itself).
    pub clock_exempt_crates: Vec<String>,
    /// `(crate, file name)` pairs whose non-test code must be
    /// panic-free: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`.
    pub hot_path_files: Vec<(String, String)>,
    /// `(crate, file name)` pairs allowed to contain `unsafe` tokens.
    /// Everywhere else the `unsafe-confinement` lint fires, so arch
    /// intrinsics stay inside the kernel modules built to host them.
    pub unsafe_allowed_files: Vec<(String, String)>,
    /// `(crate, layer)` pairs: a crate's normal dependencies must sit
    /// on a strictly lower layer, dev-dependencies on a lower-or-equal
    /// one. When non-empty, every workspace crate must be mapped.
    pub layers: Vec<(String, u32)>,
    /// External (vendored) dependencies exempt from layering.
    pub external_deps: Vec<String>,
    /// Path (relative to the workspace root) of the checked-in counter
    /// manifest; `None` disables the `metrics-manifest` lint.
    pub counters_manifest: Option<String>,
    /// Crates whose `rdx_metrics::counter` calls are not name-checked
    /// (the metrics crate's own demos and tests).
    pub metrics_exempt_crates: Vec<String>,
    /// `(registry crate, coverage crate)` pair for the
    /// `registry-coverage` lint: every `spec!` workload in the first
    /// crate must have exactly one `affine!`/`non_affine!` entry in the
    /// second, and vice versa. `None` disables the lint.
    pub registry_coverage: Option<(String, String)>,
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(ToString::to_string).collect()
}

impl LintConfig {
    /// The RDX workspace's checked configuration.
    ///
    /// Layering (lower layers must not import higher ones):
    ///
    /// ```text
    /// 7  rdx-cli
    /// 6  rdx-sim   rdx-bench
    /// 5  rdx-server  rdx-static  rdx-lint
    /// 4  rdx-core  rdx-baselines
    /// 3  rdx-groundtruth  rdx-cache
    /// 2  memsim    rdx-workloads
    /// 1  rdx-trace rdx-histogram
    /// 0  rdx-metrics
    /// ```
    #[must_use]
    pub fn rdx_default() -> LintConfig {
        LintConfig {
            hot_crates: strings(&[
                "memsim",
                "rdx-core",
                "rdx-groundtruth",
                "rdx-baselines",
                "rdx-trace",
                "rdx-server",
                "rdx-sim",
                "rdx-static",
            ]),
            clock_exempt_crates: strings(&["rdx-bench", "rdx-metrics"]),
            hot_path_files: [
                ("memsim", "machine.rs"),
                ("memsim", "pmu.rs"),
                ("memsim", "scan.rs"),
                ("memsim", "kernels.rs"),
                ("memsim", "debug.rs"),
                ("rdx-core", "profiler.rs"),
                ("rdx-core", "runner.rs"),
                ("rdx-core", "merge.rs"),
                ("rdx-core", "wire.rs"),
                ("rdx-trace", "io.rs"),
                ("rdx-trace", "kernels.rs"),
                ("rdx-trace", "decoder.rs"),
                ("rdx-trace", "stream.rs"),
                ("rdx-trace", "chunk.rs"),
                ("rdx-trace", "pipeline.rs"),
                ("rdx-trace", "frame.rs"),
                ("rdx-server", "protocol.rs"),
                ("rdx-server", "session.rs"),
                ("rdx-server", "server.rs"),
                ("rdx-static", "analysis.rs"),
                ("rdx-static", "ir.rs"),
            ]
            .iter()
            .map(|&(c, f)| (c.to_string(), f.to_string()))
            .collect(),
            unsafe_allowed_files: vec![("memsim".to_string(), "kernels.rs".to_string())],
            layers: [
                ("rdx-metrics", 0),
                ("rdx-histogram", 1),
                ("rdx-trace", 1),
                ("memsim", 2),
                ("rdx-workloads", 2),
                ("rdx-groundtruth", 3),
                ("rdx-cache", 3),
                ("rdx-core", 4),
                ("rdx-baselines", 4),
                ("rdx-server", 5),
                ("rdx-sim", 6),
                ("rdx-cli", 7),
                ("rdx-static", 5),
                ("rdx-bench", 6),
                ("rdx-lint", 5),
            ]
            .iter()
            .map(|&(c, l)| (c.to_string(), l))
            .collect(),
            external_deps: strings(&[
                "rand",
                "serde",
                "serde_derive",
                "bytes",
                "crossbeam",
                "parking_lot",
                "proptest",
                "criterion",
            ]),
            counters_manifest: Some("crates/rdx-metrics/COUNTERS.txt".to_string()),
            metrics_exempt_crates: strings(&["rdx-metrics"]),
            registry_coverage: Some(("rdx-workloads".to_string(), "rdx-static".to_string())),
        }
    }

    /// Layer of `krate`, if mapped.
    #[must_use]
    pub fn layer_of(&self, krate: &str) -> Option<u32> {
        self.layers
            .iter()
            .find(|(name, _)| name == krate)
            .map(|&(_, l)| l)
    }

    /// True when `name` is an allowlisted external dependency.
    #[must_use]
    pub fn is_external(&self, name: &str) -> bool {
        self.external_deps.iter().any(|e| e == name)
    }
}
