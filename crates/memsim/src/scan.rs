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
use rdx_trace::AccessSlice;

/// Upper bound on needles: [`DebugRegisterFile`] holds at most 64 slots.
pub(crate) const MAX_NEEDLES: usize = 64;

/// The armed watchpoints of a register file, flattened for scanning.
///
/// Snapshot semantics: the set reflects the register file as of its
/// construction or last `refresh`, and must be refreshed after any
/// arm/disarm. The machine refreshes it in place after every delivered
/// trap or sample, the only places profilers can touch the registers;
/// a refresh rewrites only the armed entries, so an event costs the
/// ≤ 4 armed registers, not the 64-slot ceiling. Entries at or past
/// `len` are stale leftovers that no scan reads.
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
        let mut set = NeedleSet::from_ranges(&[]);
        set.refresh(drf);
        set
    }

    /// Re-snapshots the armed watchpoints of `drf` in slot order,
    /// rewriting only the entries below the new length: equal to
    /// [`from_registers`](NeedleSet::from_registers) for every scan.
    pub(crate) fn refresh(&mut self, drf: &DebugRegisterFile) {
        self.len = 0;
        for (_, info) in drf.armed_iter() {
            let wp = info.watchpoint;
            self.base[self.len] = wp.addr.raw();
            self.span[self.len] = u64::from(wp.len);
            self.store_only[self.len] = wp.kind == WatchKind::Write;
            self.len += 1;
        }
    }

    /// Finds the first access in `run` hitting any needle, counting the
    /// stores that precede it.
    ///
    /// This is the scalar reference scanner — the oracle every kernel
    /// in [`crate::kernels`] must agree with on all inputs.
    #[must_use]
    pub fn scan(&self, run: AccessSlice<'_>) -> ScanOutcome {
        // Dispatch to a monomorphized scanner so the per-access needle
        // loop unrolls completely for the common register counts (x86
        // has 4); larger ablation configurations take the generic loop.
        let first_match = match self.len {
            0 => None,
            1 => self.first_match(run, 1),
            2 => self.first_match(run, 2),
            3 => self.first_match(run, 3),
            4 => self.first_match(run, 4),
            n => self.first_match(run, n),
        };
        ScanOutcome {
            first_match,
            stores_before: run.stores_in(..first_match.unwrap_or(run.len())),
        }
    }

    /// Offset of the first access in `run` hitting any of the first `n`
    /// needles. Inlined into each caller so a constant `n` unrolls.
    #[inline(always)]
    pub(crate) fn first_match(&self, run: AccessSlice<'_>, n: usize) -> Option<usize> {
        // One bitmap word per 64 accesses keeps the store test a
        // branch-free shift in the per-access loop.
        for (w, addrs) in run.addrs().chunks(64).enumerate() {
            let stores = run.store_word(w * 64);
            for (t, &addr) in addrs.iter().enumerate() {
                let is_store = (stores >> t) & 1 == 1;
                let mut hit = false;
                for j in 0..n {
                    // In-range iff addr ∈ [base, base + span): one
                    // wrapping subtract replaces the two compares of
                    // `Watchpoint::matches`, with identical outcomes for
                    // every armable (aligned, non-wrapping) range.
                    hit |= addr.wrapping_sub(self.base[j]) < self.span[j]
                        && (is_store || !self.store_only[j]);
                }
                if hit {
                    return Some(w * 64 + t);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debug::ArmInfo;
    use rdx_trace::{Access, AccessBuf, Address};

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

    fn run_of(addrs: &[(u64, bool)]) -> AccessBuf {
        addrs
            .iter()
            .map(|&(a, s)| if s { Access::store(a) } else { Access::load(a) })
            .collect()
    }

    #[test]
    fn empty_set_counts_stores_only() {
        let set = NeedleSet::from_registers(&DebugRegisterFile::default());
        let run = run_of(&[(0, false), (8, true), (16, true), (24, false)]);
        let out = set.scan(run.as_slice());
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
        let out = set.scan(run.as_slice());
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
                let one: AccessBuf = [a].into_iter().collect();
                let got = set.scan(one.as_slice()).first_match.is_some();
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
        let out = set.scan(run.as_slice());
        assert_eq!(out.first_match, Some(2));
        assert_eq!(out.stores_before, 0);
    }

    #[test]
    fn no_match_reports_all_stores() {
        let set = NeedleSet::from_registers(&armed_file(&[0x1000]));
        let run = run_of(&[(0, true), (8, true), (16, false)]);
        let out = set.scan(run.as_slice());
        assert_eq!(out.first_match, None);
        assert_eq!(out.stores_before, 2);
    }

    #[test]
    fn in_place_refresh_equals_a_fresh_snapshot() {
        // Arms and disarms that grow and shrink a 4-slot file, with
        // write-only needles mixed in: after each step the refreshed
        // set equals a fresh snapshot entry for entry, and a probe at
        // every stale entry left past `len` scans exactly as the fresh
        // snapshot does, under both the oracle and the production scan.
        let mut drf = DebugRegisterFile::new(4);
        let mut set = NeedleSet::from_registers(&drf);
        let mut stale_bases = Vec::new();
        let steps: [(bool, u64); 12] = [
            (true, 0),
            (true, 1),
            (true, 2),
            (true, 3),
            (false, 0),
            (false, 2),
            (true, 4),
            (false, 1),
            (false, 3),
            (false, 0),
            (true, 5),
            (false, 4),
        ];
        for (arm, k) in steps {
            if arm {
                let kind = if k % 2 == 1 {
                    WatchKind::Write
                } else {
                    WatchKind::ReadWrite
                };
                drf.arm(ArmInfo {
                    watchpoint: Watchpoint {
                        kind,
                        ..Watchpoint::read_write(Address::new(0x1000 * (k + 1)), 8)
                    },
                    armed_at: 0,
                    accesses_at_arm: 0,
                    tag: k,
                })
                .unwrap();
            } else {
                let slot = drf
                    .armed_iter()
                    .find(|(_, info)| info.tag == k)
                    .map(|(slot, _)| slot);
                if let Some(slot) = slot {
                    drf.disarm(slot);
                }
            }
            stale_bases.extend_from_slice(&set.base[..set.len]);
            set.refresh(&drf);
            let fresh = NeedleSet::from_registers(&drf);
            let n = fresh.len;
            assert_eq!(set.len, n);
            assert_eq!(set.base[..n], fresh.base[..n]);
            assert_eq!(set.span[..n], fresh.span[..n]);
            assert_eq!(set.store_only[..n], fresh.store_only[..n]);
            for &base in &stale_bases {
                for store in [false, true] {
                    let run = run_of(&[(base, store), (base + 4, store)]);
                    let want = fresh.scan(run.as_slice());
                    let live = drf
                        .armed_iter()
                        .any(|(_, info)| info.watchpoint.matches(&run.as_slice().get(0)));
                    assert_eq!(want.first_match.is_some(), live, "base={base:#x}");
                    assert_eq!(set.scan(run.as_slice()), want, "base={base:#x}");
                    assert_eq!(
                        crate::kernels::scan(&set, run.as_slice()),
                        want,
                        "base={base:#x}"
                    );
                }
            }
        }
        assert!(set.len < 4 && !stale_bases.is_empty());
    }

    #[test]
    fn empty_run_is_quiet() {
        let set = NeedleSet::from_registers(&armed_file(&[0x40]));
        let out = set.scan(AccessBuf::new().as_slice());
        assert_eq!(out.first_match, None);
        assert_eq!(out.stores_before, 0);
    }
}
