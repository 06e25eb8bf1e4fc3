//! Multi-needle watchpoint scanning over contiguous access runs.
//!
//! The machine's fast path (see [`crate::Machine::run`]) knows that
//! between two PMU overflows nothing can happen except a debug-register
//! trap. That reduces simulation of the whole inter-overflow gap to one
//! question — *where, if anywhere, does the first armed watchpoint hit?*
//! — which this module answers with a branch-light linear scan: the ≤ 4
//! (at most 64) armed watchpoint ranges become a small "needle set" of
//! `base/span` pairs, and each access is tested against all needles with
//! an unrolled, monomorphized comparison chain instead of walking the
//! register file's `Option` slots per access.
//!
//! The scan only locates the first *matching access*; the machine then
//! re-runs the ordinary per-access step on it, so slot-priority rules,
//! disarm-before-delivery and handler interleavings are inherited from
//! the one existing implementation rather than duplicated here. A needle
//! that over-matches could therefore only cost time, never correctness —
//! but the predicate below — `addr.wrapping_sub(base) < span` — is
//! exactly [`Watchpoint::matches`], the top aligned block (whose
//! `base + len` wraps to zero) included.

use crate::debug::DebugRegisterFile;
#[cfg(test)]
use crate::debug::Watchpoint;
use crate::WatchKind;
use rdx_trace::Access;

/// Upper bound on needles: [`DebugRegisterFile`] holds at most 64 slots.
pub(crate) const MAX_NEEDLES: usize = 64;

/// The armed watchpoints of a register file, flattened for scanning.
///
/// Snapshot semantics: the set reflects the register file at
/// construction time and must be rebuilt after any arm/disarm (the
/// machine rebuilds it after every delivered trap or sample, the only
/// places profilers can touch the registers).
#[derive(Debug)]
pub struct NeedleSet {
    pub(crate) len: usize,
    pub(crate) base: [u64; MAX_NEEDLES],
    pub(crate) span: [u64; MAX_NEEDLES],
    /// True when the needle only traps stores (`WatchKind::Write`).
    pub(crate) store_only: [bool; MAX_NEEDLES],
}

/// Result of scanning one run of accesses, from [`NeedleSet::scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Offset of the first access matching any needle, if one matched.
    pub first_match: Option<usize>,
    /// Stores among the accesses *before* that offset (or in the whole
    /// run when nothing matched) — what the PMU store counter must
    /// bulk-advance by for the quiet prefix.
    pub stores_before: u64,
}

impl NeedleSet {
    /// Builds a needle set from raw `(base, span, store_only)` ranges —
    /// the constructor benches and kernel equivalence tests use to make
    /// sets without a register file. At most 64 ranges are kept (the
    /// debug-register ceiling); extras are ignored.
    #[must_use]
    pub fn from_ranges(ranges: &[(u64, u64, bool)]) -> Self {
        let mut set = NeedleSet {
            len: 0,
            base: [0; MAX_NEEDLES],
            span: [0; MAX_NEEDLES],
            store_only: [false; MAX_NEEDLES],
        };
        for &(base, span, store_only) in ranges.iter().take(MAX_NEEDLES) {
            set.base[set.len] = base;
            set.span[set.len] = span;
            set.store_only[set.len] = store_only;
            set.len += 1;
        }
        set
    }

    /// Number of needles in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no needles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshots the armed watchpoints of `drf` in slot order.
    pub(crate) fn from_registers(drf: &DebugRegisterFile) -> Self {
        let mut set = NeedleSet {
            len: 0,
            base: [0; MAX_NEEDLES],
            span: [0; MAX_NEEDLES],
            store_only: [false; MAX_NEEDLES],
        };
        for (_, info) in drf.armed_iter() {
            let wp = info.watchpoint;
            set.base[set.len] = wp.addr.raw();
            set.span[set.len] = u64::from(wp.len);
            set.store_only[set.len] = wp.kind == WatchKind::Write;
            set.len += 1;
        }
        set
    }

    /// Finds the first access in `run` hitting any needle, counting the
    /// stores that precede it.
    ///
    /// This is the scalar reference scanner — the oracle every kernel
    /// in [`crate::kernels`] must agree with on all inputs.
    pub fn scan(&self, run: &[Access]) -> ScanOutcome {
        // Dispatch to a monomorphized scanner so the per-access needle
        // loop unrolls completely for the common register counts (x86
        // has 4); larger ablation configurations take the generic loop.
        match self.len {
            0 => ScanOutcome {
                first_match: None,
                stores_before: count_stores(run),
            },
            1 => self.scan_unrolled::<1>(run),
            2 => self.scan_unrolled::<2>(run),
            3 => self.scan_unrolled::<3>(run),
            4 => self.scan_unrolled::<4>(run),
            _ => self.scan_any(run, self.len),
        }
    }

    fn scan_unrolled<const N: usize>(&self, run: &[Access]) -> ScanOutcome {
        self.scan_any(run, N)
    }

    #[inline(always)]
    pub(crate) fn scan_any(&self, run: &[Access], n: usize) -> ScanOutcome {
        let mut stores: u64 = 0;
        for (i, access) in run.iter().enumerate() {
            let addr = access.addr.raw();
            let is_store = access.kind.is_store();
            let mut hit = false;
            for j in 0..n {
                // In-range iff addr ∈ [base, base + span): one wrapping
                // subtract replaces the two compares of
                // `Watchpoint::matches`, with identical outcomes for
                // every armable (aligned, non-wrapping) range.
                hit |= addr.wrapping_sub(self.base[j]) < self.span[j]
                    && (is_store || !self.store_only[j]);
            }
            if hit {
                return ScanOutcome {
                    first_match: Some(i),
                    stores_before: stores,
                };
            }
            stores += u64::from(is_store);
        }
        ScanOutcome {
            first_match: None,
            stores_before: stores,
        }
    }
}

/// Stores in a run with no armed watchpoints (vectorizes freely).
pub(crate) fn count_stores(run: &[Access]) -> u64 {
    run.iter().map(|a| u64::from(a.kind.is_store())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debug::ArmInfo;
    use rdx_trace::Address;

    fn armed_file(bases: &[u64]) -> DebugRegisterFile {
        let mut drf = DebugRegisterFile::new(bases.len().max(1));
        for &b in bases {
            drf.arm(ArmInfo {
                watchpoint: Watchpoint::read_write(Address::new(b), 8),
                armed_at: 0,
                accesses_at_arm: 0,
                tag: b,
            })
            .unwrap();
        }
        drf
    }

    fn run_of(addrs: &[(u64, bool)]) -> Vec<Access> {
        addrs
            .iter()
            .map(|&(a, s)| if s { Access::store(a) } else { Access::load(a) })
            .collect()
    }

    #[test]
    fn empty_set_counts_stores_only() {
        let set = NeedleSet::from_registers(&DebugRegisterFile::default());
        let run = run_of(&[(0, false), (8, true), (16, true), (24, false)]);
        let out = set.scan(&run);
        assert_eq!(out.first_match, None);
        assert_eq!(out.stores_before, 2);
    }

    #[test]
    fn finds_first_match_and_prefix_stores() {
        let set = NeedleSet::from_registers(&armed_file(&[0x100, 0x200]));
        let run = run_of(&[
            (0x50, true),
            (0x60, false),
            (0x204, true), // within [0x200, 0x208)
            (0x100, false),
        ]);
        let out = set.scan(&run);
        assert_eq!(out.first_match, Some(2));
        assert_eq!(out.stores_before, 1, "only the store before the hit");
    }

    #[test]
    fn range_edges_match_like_watchpoint() {
        // Every needle-count dispatch (1..=5 covers unrolled and generic)
        // must agree with Watchpoint::matches on range boundaries.
        for n in 1..=5usize {
            let bases: Vec<u64> = (0..n as u64).map(|k| 0x1000 + 0x40 * k).collect();
            let set = NeedleSet::from_registers(&armed_file(&bases));
            let wp: Vec<Watchpoint> = bases
                .iter()
                .map(|&b| Watchpoint::read_write(Address::new(b), 8))
                .collect();
            for probe in [0x0FFFu64, 0x1000, 0x1007, 0x1008, 0x1040, 0x1147, 0x1148] {
                let a = Access::load(probe);
                let expect = wp.iter().any(|w| w.matches(&a));
                let got = set.scan(std::slice::from_ref(&a)).first_match.is_some();
                assert_eq!(got, expect, "n={n} probe={probe:#x}");
            }
        }
    }

    #[test]
    fn write_only_needles_ignore_loads() {
        let mut drf = DebugRegisterFile::new(1);
        drf.arm(ArmInfo {
            watchpoint: Watchpoint {
                kind: WatchKind::Write,
                ..Watchpoint::read_write(Address::new(0x40), 8)
            },
            armed_at: 0,
            accesses_at_arm: 0,
            tag: 0,
        })
        .unwrap();
        let set = NeedleSet::from_registers(&drf);
        let run = run_of(&[(0x40, false), (0x40, false), (0x44, true)]);
        let out = set.scan(&run);
        assert_eq!(out.first_match, Some(2));
        assert_eq!(out.stores_before, 0);
    }

    #[test]
    fn no_match_reports_all_stores() {
        let set = NeedleSet::from_registers(&armed_file(&[0x1000]));
        let run = run_of(&[(0, true), (8, true), (16, false)]);
        let out = set.scan(&run);
        assert_eq!(out.first_match, None);
        assert_eq!(out.stores_before, 2);
    }

    #[test]
    fn empty_run_is_quiet() {
        let set = NeedleSet::from_registers(&armed_file(&[0x40]));
        let out = set.scan(&[]);
        assert_eq!(out.first_match, None);
        assert_eq!(out.stores_before, 0);
    }
}
