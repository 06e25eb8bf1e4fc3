//! `rdx-static` — trace-free reuse-profile estimation for affine kernels.
//!
//! The dynamic paths in this workspace measure reuse by watching
//! accesses (exactly, via Olken; cheaply, via PMU sampling). This crate
//! computes the same log-bucketed [`RdHistogram`] **without executing a
//! single access**: each affine registry kernel is modeled as a small
//! loop-nest IR ([`ir`]), reuse intervals are derived symbolically by
//! iteration-space counting ([`analysis`]), and the interval classes
//! are pushed through the same footprint-theory conversion the sampler
//! uses. Non-affine kernels are rejected with a typed
//! [`StaticError::NotAffine`] — never a wrong answer.
//!
//! ```
//! use rdx_workloads::Params;
//!
//! let params = Params::default().with_accesses(100_000).with_elements(3_000);
//! let profile = rdx_static::estimate("stream_triad", &params).unwrap();
//! assert_eq!(profile.footprint, 3_000);
//! assert!(rdx_static::estimate("pointer_chase", &params).is_err());
//! ```
//!
//! The three-way accuracy experiment (static vs. RDX-sampled vs. exact
//! Olken) lives in `rdx-bench::exp_static`; the `rdx static` CLI
//! subcommand feeds estimates into `rdx-cache::predict` for trace-free
//! miss-ratio what-ifs.
//!
//! [`RdHistogram`]: rdx_histogram::RdHistogram

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod coverage;
pub mod ir;
pub mod models;

pub use analysis::{AnalysisError, KernelModel, ReuseClass, StaticProfile};
pub use coverage::{affine_kernels, is_affine, lookup, non_affine_kernels, Coverage, Model};

use rdx_workloads::Params;
use std::fmt;

/// Why a static estimate could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticError {
    /// The workload exists but its access pattern is not an affine
    /// function of loop indices; a static profile would be wrong.
    NotAffine {
        /// The workload's registry name.
        kernel: String,
        /// What breaks the affine structure.
        reason: &'static str,
    },
    /// The name matches no workload in the registry.
    UnknownKernel {
        /// The rejected name.
        name: String,
    },
    /// The model exists but failed derivation — an internal bug, since
    /// registry models are derivable by construction.
    Internal(AnalysisError),
}

impl fmt::Display for StaticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticError::NotAffine { kernel, reason } => {
                write!(f, "workload '{kernel}' is not affine: {reason}")
            }
            StaticError::UnknownKernel { name } => {
                write!(f, "unknown workload '{name}'")
            }
            StaticError::Internal(e) => write!(f, "static model error: {e}"),
        }
    }
}

impl std::error::Error for StaticError {}

impl From<AnalysisError> for StaticError {
    fn from(e: AnalysisError) -> Self {
        StaticError::Internal(e)
    }
}

/// Statically estimates the reuse profile of `kernel` at `params`.
///
/// Executes zero accesses: the result is a closed-form function of the
/// kernel's loop structure and `params` (the `rdx.static.estimates` /
/// `rdx.static.rejected` counters are the only observable side effect).
///
/// # Errors
///
/// * [`StaticError::UnknownKernel`] for names outside the registry.
/// * [`StaticError::NotAffine`] for non-affine workloads.
/// * [`StaticError::Internal`] if a model fails derivation (a bug).
pub fn estimate(kernel: &str, params: &Params) -> Result<StaticProfile, StaticError> {
    match coverage::lookup(kernel) {
        None => {
            rdx_metrics::counter("rdx.static.rejected").incr();
            Err(StaticError::UnknownKernel {
                name: kernel.to_string(),
            })
        }
        Some(Coverage {
            model: Model::NonAffine(reason),
            name,
        }) => {
            rdx_metrics::counter("rdx.static.rejected").incr();
            Err(StaticError::NotAffine {
                kernel: (*name).to_string(),
                reason,
            })
        }
        Some(Coverage {
            model: Model::Affine(build),
            ..
        }) => {
            let model = build(params);
            let profile = analysis::estimate_profile(&model, params.accesses)?;
            rdx_metrics::counter("rdx.static.estimates").incr();
            Ok(profile)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::default().with_accesses(50_000).with_elements(1024)
    }

    #[test]
    fn estimates_every_affine_kernel() {
        for name in affine_kernels() {
            let p = estimate(name, &params()).expect(name);
            assert_eq!(p.kernel, name);
            assert_eq!(p.accesses, 50_000);
            assert!(p.footprint > 0, "{name}");
            assert!(p.period > 0, "{name}");
            assert!(
                (p.rd.total_weight() - 50_000.0).abs() < 1e-6,
                "{name}: histogram mass must equal the access count"
            );
        }
    }

    #[test]
    fn rejects_every_non_affine_kernel_with_typed_error() {
        for name in non_affine_kernels() {
            match estimate(name, &params()) {
                Err(StaticError::NotAffine { kernel, reason }) => {
                    assert_eq!(kernel, name);
                    assert!(!reason.is_empty());
                }
                other => panic!("{name}: expected NotAffine, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kernel_is_its_own_error() {
        assert_eq!(
            estimate("warp_drive", &params()),
            Err(StaticError::UnknownKernel {
                name: "warp_drive".to_string()
            })
        );
    }

    #[test]
    fn errors_display_cleanly() {
        let e = estimate("zipf", &params()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("zipf") && msg.contains("not affine"), "{msg}");
        let u = estimate("nope", &params()).unwrap_err();
        assert!(u.to_string().contains("unknown workload"), "{u}");
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = estimate("matmul_naive", &params()).unwrap();
        let b = estimate("matmul_naive", &params()).unwrap();
        assert_eq!(a.rd, b.rd);
        assert_eq!(a.rt, b.rt);
        assert_eq!(a.footprint, b.footprint);
    }

    #[test]
    fn seed_does_not_change_affine_estimates() {
        let p1 = params().with_seed(1);
        let p2 = params().with_seed(999);
        let a = estimate("stencil2d", &p1).unwrap();
        let b = estimate("stencil2d", &p2).unwrap();
        assert_eq!(a.rd, b.rd);
    }
}
