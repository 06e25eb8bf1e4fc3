//! The hardware debug-register (watchpoint) model.
//!
//! x86 exposes four debug-address registers, DR0–DR3. Each can watch a
//! naturally aligned 1-, 2-, 4- or 8-byte range and trap on data reads
//! and/or writes. These are the only per-address trap resources available
//! without instrumentation, and their scarcity (4!) is the central resource
//! constraint that RDX's design works around.

use rdx_trace::{Access, Address};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one debug register (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Slot(pub u8);

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DR{}", self.0)
    }
}

/// Which access kinds a watchpoint traps on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WatchKind {
    /// Trap on writes only (x86 `RW=01`).
    Write,
    /// Trap on reads and writes (x86 `RW=11`).
    ReadWrite,
}

/// An armed watchpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Watchpoint {
    /// Watched base address (aligned to `len`).
    pub addr: Address,
    /// Watched length in bytes: 1, 2, 4 or 8.
    pub len: u8,
    /// Access kinds that trap.
    pub kind: WatchKind,
}

impl Watchpoint {
    /// Creates a read-write watchpoint of `len` bytes at `addr`, aligning
    /// the address *down* to the watch length (hardware requires natural
    /// alignment; aligning down keeps the sampled byte inside the range).
    ///
    /// # Panics
    ///
    /// Panics if `len` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn read_write(addr: Address, len: u8) -> Self {
        assert!(
            matches!(len, 1 | 2 | 4 | 8),
            "watchpoint length must be 1, 2, 4 or 8 bytes, got {len}"
        );
        let aligned = addr.raw() & !(u64::from(len) - 1);
        Watchpoint {
            addr: Address::new(aligned),
            len,
            kind: WatchKind::ReadWrite,
        }
    }

    /// Returns true if `access` falls within the watched range and matches
    /// the watch kind.
    #[must_use]
    pub fn matches(&self, access: &Access) -> bool {
        let kind_ok = match self.kind {
            WatchKind::ReadWrite => true,
            WatchKind::Write => access.kind.is_store(),
        };
        if !kind_ok {
            return false;
        }
        // Wrapping distance from the base: exact for every base, the
        // top aligned block (whose `base + len` overflows) included.
        access.addr.raw().wrapping_sub(self.addr.raw()) < u64::from(self.len)
    }
}

/// Metadata recorded when a watchpoint is armed; handed back on trap or
/// disarm so the profiler can attribute the event to its sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmInfo {
    /// The watchpoint as armed (post-alignment).
    pub watchpoint: Watchpoint,
    /// Access index at which the register was armed.
    pub armed_at: u64,
    /// Total counted accesses at arm time (profiler's counter snapshot).
    pub accesses_at_arm: u64,
    /// Free-form tag supplied by the profiler (e.g. sampled block id).
    pub tag: u64,
}

/// Error arming a watchpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmError {
    /// All debug registers are occupied; the profiler must evict first.
    NoFreeRegister,
    /// Slot index out of range for this register file.
    BadSlot(Slot),
    /// Slot already armed (explicit `arm_at` on an occupied slot).
    Occupied(Slot),
}

impl fmt::Display for ArmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmError::NoFreeRegister => write!(f, "all debug registers are armed"),
            ArmError::BadSlot(s) => write!(f, "no such debug register: {s}"),
            ArmError::Occupied(s) => write!(f, "debug register {s} is already armed"),
        }
    }
}

impl std::error::Error for ArmError {}

/// A file of hardware debug registers.
///
/// The default size is 4, matching x86 DR0–DR3; ablation experiments vary
/// the size to show how RDX's accuracy scales with watchpoint scarcity.
#[derive(Debug, Clone)]
pub struct DebugRegisterFile {
    regs: Vec<Option<ArmInfo>>,
}

impl DebugRegisterFile {
    /// Creates a register file with `n` registers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or greater than 64.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=64).contains(&n),
            "debug register count must be in 1..=64, got {n}"
        );
        DebugRegisterFile {
            regs: vec![None; n],
        }
    }

    /// Number of registers in the file.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Returns true if the file has no registers (never: construction
    /// requires ≥ 1), present for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Number of currently armed registers.
    #[must_use]
    pub fn armed_count(&self) -> usize {
        self.regs.iter().filter(|r| r.is_some()).count()
    }

    /// Arms a watchpoint in the first free register.
    ///
    /// # Errors
    ///
    /// Returns [`ArmError::NoFreeRegister`] if all registers are armed.
    pub fn arm(&mut self, info: ArmInfo) -> Result<Slot, ArmError> {
        let free = self
            .regs
            .iter()
            .position(|r| r.is_none())
            .ok_or(ArmError::NoFreeRegister)?;
        self.regs[free] = Some(info);
        Ok(Slot(free as u8))
    }

    /// Arms a watchpoint in a specific register.
    ///
    /// # Errors
    ///
    /// Returns an error if the slot does not exist or is occupied.
    pub fn arm_at(&mut self, slot: Slot, info: ArmInfo) -> Result<(), ArmError> {
        let r = self
            .regs
            .get_mut(slot.0 as usize)
            .ok_or(ArmError::BadSlot(slot))?;
        if r.is_some() {
            return Err(ArmError::Occupied(slot));
        }
        *r = Some(info);
        Ok(())
    }

    /// Disarms a register, returning its arm metadata if it was armed.
    pub fn disarm(&mut self, slot: Slot) -> Option<ArmInfo> {
        self.regs.get_mut(slot.0 as usize)?.take()
    }

    /// Returns the arm metadata of a register, if armed.
    #[must_use]
    pub fn armed(&self, slot: Slot) -> Option<&ArmInfo> {
        self.regs.get(slot.0 as usize)?.as_ref()
    }

    /// Iterates over `(slot, info)` for all armed registers.
    pub fn armed_iter(&self) -> impl Iterator<Item = (Slot, &ArmInfo)> {
        self.regs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|info| (Slot(i as u8), info)))
    }

    /// Returns the first armed slot whose watchpoint matches `access`.
    ///
    /// Real hardware reports all matching registers via DR6; profilers in
    /// practice (and RDX in particular) never arm overlapping watchpoints,
    /// so a single match suffices and the machine model asserts this.
    #[must_use]
    pub fn matching(&self, access: &Access) -> Option<Slot> {
        self.armed_iter()
            .find(|(_, info)| info.watchpoint.matches(access))
            .map(|(slot, _)| slot)
    }
}

impl Default for DebugRegisterFile {
    /// The x86 configuration: four registers.
    fn default() -> Self {
        DebugRegisterFile::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::Access;

    fn info(addr: u64, len: u8, tag: u64) -> ArmInfo {
        ArmInfo {
            watchpoint: Watchpoint::read_write(Address::new(addr), len),
            armed_at: 0,
            accesses_at_arm: 0,
            tag,
        }
    }

    #[test]
    fn watchpoint_aligns_down() {
        let w = Watchpoint::read_write(Address::new(0x1007), 8);
        assert_eq!(w.addr.raw(), 0x1000);
        assert!(w.matches(&Access::load(0x1007u64)));
        assert!(w.matches(&Access::load(0x1000u64)));
        assert!(!w.matches(&Access::load(0x1008u64)));
    }

    #[test]
    fn watchpoint_widths() {
        for len in [1u8, 2, 4, 8] {
            let w = Watchpoint::read_write(Address::new(64), len);
            assert!(w.matches(&Access::load(64u64)));
            assert!(w.matches(&Access::store(64 + u64::from(len) - 1)));
            assert!(!w.matches(&Access::load(64 + u64::from(len))));
        }
    }

    #[test]
    fn top_aligned_block_traps() {
        // `base + len` overflows for the last block of the address
        // space; the match must still cover it, for every width.
        for len in [1u8, 2, 4, 8] {
            let mut drf = DebugRegisterFile::default();
            let slot = drf.arm(info(u64::MAX, len, 7)).unwrap();
            let w = drf.armed(slot).unwrap().watchpoint;
            assert_eq!(w.addr.raw(), !(u64::from(len) - 1));
            assert!(w.matches(&Access::load(u64::MAX)), "len={len}");
            assert_eq!(drf.matching(&Access::store(u64::MAX)), Some(slot));
            assert!(!w.matches(&Access::load(0u64)), "len={len}");
            assert!(!w.matches(&Access::load(w.addr.raw() - 1)), "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "1, 2, 4 or 8")]
    fn bad_width_rejected() {
        let _ = Watchpoint::read_write(Address::new(0), 3);
    }

    #[test]
    fn write_only_watchpoint() {
        let w = Watchpoint {
            kind: WatchKind::Write,
            ..Watchpoint::read_write(Address::new(0x40), 8)
        };
        assert!(!w.matches(&Access::load(0x40u64)));
        assert!(w.matches(&Access::store(0x40u64)));
    }

    #[test]
    fn arm_fills_slots_in_order() {
        let mut drf = DebugRegisterFile::default();
        assert_eq!(drf.len(), 4);
        assert_eq!(drf.arm(info(0x00, 8, 1)).unwrap(), Slot(0));
        assert_eq!(drf.arm(info(0x40, 8, 2)).unwrap(), Slot(1));
        assert_eq!(drf.armed_count(), 2);
        assert_eq!(drf.armed(Slot(0)).unwrap().tag, 1);
        assert!(drf.armed(Slot(2)).is_none());
    }

    #[test]
    fn arm_exhaustion() {
        let mut drf = DebugRegisterFile::new(2);
        drf.arm(info(0, 8, 0)).unwrap();
        drf.arm(info(64, 8, 1)).unwrap();
        assert_eq!(
            drf.arm(info(128, 8, 2)).unwrap_err(),
            ArmError::NoFreeRegister
        );
        // disarm frees a slot
        let freed = drf.disarm(Slot(0)).unwrap();
        assert_eq!(freed.tag, 0);
        assert_eq!(drf.arm(info(128, 8, 2)).unwrap(), Slot(0));
    }

    #[test]
    fn arm_at_specific_slot() {
        let mut drf = DebugRegisterFile::default();
        drf.arm_at(Slot(3), info(0, 8, 9)).unwrap();
        assert_eq!(drf.armed(Slot(3)).unwrap().tag, 9);
        assert_eq!(
            drf.arm_at(Slot(3), info(64, 8, 1)).unwrap_err(),
            ArmError::Occupied(Slot(3))
        );
        assert_eq!(
            drf.arm_at(Slot(7), info(64, 8, 1)).unwrap_err(),
            ArmError::BadSlot(Slot(7))
        );
    }

    #[test]
    fn matching_finds_armed_register() {
        let mut drf = DebugRegisterFile::default();
        drf.arm(info(0x100, 8, 1)).unwrap();
        drf.arm(info(0x200, 8, 2)).unwrap();
        assert_eq!(drf.matching(&Access::load(0x204u64)), Some(Slot(1)));
        assert_eq!(drf.matching(&Access::load(0x300u64)), None);
    }

    #[test]
    fn disarm_twice_is_none() {
        let mut drf = DebugRegisterFile::default();
        drf.arm(info(0, 8, 0)).unwrap();
        assert!(drf.disarm(Slot(0)).is_some());
        assert!(drf.disarm(Slot(0)).is_none());
        assert!(drf.disarm(Slot(9)).is_none());
    }

    #[test]
    fn armed_iter_reports_all() {
        let mut drf = DebugRegisterFile::default();
        drf.arm(info(0, 8, 10)).unwrap();
        drf.arm(info(64, 8, 11)).unwrap();
        drf.disarm(Slot(0));
        let armed: Vec<u64> = drf.armed_iter().map(|(_, i)| i.tag).collect();
        assert_eq!(armed, vec![11]);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_registers_rejected() {
        let _ = DebugRegisterFile::new(0);
    }

    #[test]
    fn error_display() {
        assert!(ArmError::NoFreeRegister.to_string().contains("armed"));
        assert!(ArmError::BadSlot(Slot(5)).to_string().contains("DR5"));
    }
}
