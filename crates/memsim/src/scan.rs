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
//!
//! Each needle also carries a filter on the low address column alone
//! (see [`rdx_trace::split_addr`]): an access whose low 32 bits `x`
//! have `x & mask != key` cannot hit the needle. For a naturally aligned
//! power-of-two range of at most 4 GiB, which every armable watchpoint
//! is, `mask` keeps the bits above the span and `key` is the needle's
//! own low word under it, so the filter passes exactly the
//! accesses that hit or that differ from the needle only in the high
//! word. Any other range gets the empty mask, which passes everything.
//! The AVX2 kernel scans the filter and re-walks only the blocks it
//! passes with the exact predicate below.

use crate::debug::DebugRegisterFile;
#[cfg(test)]
use crate::debug::Watchpoint;
use crate::WatchKind;
use rdx_trace::{join_addr, split_addr, AccessSlice};

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
    /// Low-column filter: a low word `x` can hit the needle only
    /// if `x & mask == key` (module docs).
    pub(crate) mask: [u32; MAX_NEEDLES],
    pub(crate) key: [u32; MAX_NEEDLES],
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
            mask: [0; MAX_NEEDLES],
            key: [0; MAX_NEEDLES],
        };
        for &(base, span, store_only) in ranges.iter().take(MAX_NEEDLES) {
            set.put(base, span, store_only);
        }
        set
    }

    /// Appends one needle.
    fn put(&mut self, base: u64, span: u64, store_only: bool) {
        let j = self.len;
        self.base[j] = base;
        self.span[j] = span;
        self.store_only[j] = store_only;
        // An aligned power-of-two block within one high word is decided
        // by the high word and the low bits above its span; anything
        // else passes the filter everywhere.
        let aligned = span.is_power_of_two() && span <= 1 << 32 && base & (span - 1) == 0;
        self.mask[j] = if aligned { !((span - 1) as u32) } else { 0 };
        self.key[j] = split_addr(base).0 & self.mask[j];
        self.len += 1;
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
            self.put(
                wp.addr.raw(),
                u64::from(wp.len),
                wp.kind == WatchKind::Write,
            );
        }
    }

    /// Offset of the first access in `run` hitting any needle, if one
    /// does.
    ///
    /// This is the scalar reference scanner — the oracle every kernel
    /// in [`crate::kernels`] must agree with on all inputs.
    #[must_use]
    pub fn scan(&self, run: AccessSlice<'_>) -> Option<usize> {
        // Dispatch to a monomorphized scanner so the per-access needle
        // loop unrolls completely for the common register counts (x86
        // has 4); larger ablation configurations take the generic loop.
        match self.len {
            0 => None,
            1 => self.first_match(run, 1),
            2 => self.first_match(run, 2),
            3 => self.first_match(run, 3),
            4 => self.first_match(run, 4),
            n => self.first_match(run, n),
        }
    }

    /// Offset of the first access in `run` hitting any of the first `n`
    /// needles. Inlined into each caller so a constant `n` unrolls.
    #[inline(always)]
    pub(crate) fn first_match(&self, run: AccessSlice<'_>, n: usize) -> Option<usize> {
        // One store-bitmap word per 64 accesses (write-only needles
        // need it) keeps the store test a branch-free shift in the
        // per-access loop. Each address is rebuilt from both columns.
        let columns = run.low_words().chunks(64).zip(run.high_words().chunks(64));
        for (w, (low, high)) in columns.enumerate() {
            let stores = run.store_word(w * 64);
            for (t, (&l, &h)) in low.iter().zip(high).enumerate() {
                let addr = join_addr(l, h);
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
    fn empty_set_matches_nothing() {
        let set = NeedleSet::from_registers(&DebugRegisterFile::default());
        let run = run_of(&[(0, false), (8, true), (16, true), (24, false)]);
        assert_eq!(set.scan(run.as_slice()), None);
    }

    #[test]
    fn finds_first_match() {
        let set = NeedleSet::from_registers(&armed_file(&[0x100, 0x200]));
        let run = run_of(&[
            (0x50, true),
            (0x60, false),
            (0x204, true), // within [0x200, 0x208)
            (0x100, false),
        ]);
        assert_eq!(set.scan(run.as_slice()), Some(2));
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
                let got = set.scan(one.as_slice()).is_some();
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
        assert_eq!(set.scan(run.as_slice()), Some(2));
    }

    #[test]
    fn no_match_is_none() {
        let set = NeedleSet::from_registers(&armed_file(&[0x1000]));
        let run = run_of(&[(0, true), (8, true), (16, false)]);
        assert_eq!(set.scan(run.as_slice()), None);
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
                    assert_eq!(want.is_some(), live, "base={base:#x}");
                    assert_eq!(set.scan(run.as_slice()), want, "base={base:#x}");
                    assert_eq!(
                        crate::kernels::scan(&set, run.as_slice(), &mut Default::default()),
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
        assert_eq!(set.scan(AccessBuf::new().as_slice()), None);
    }
}
