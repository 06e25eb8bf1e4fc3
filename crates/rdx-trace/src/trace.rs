//! Materialized traces.

use crate::columns::{AccessBuf, AccessSlice, Iter};
use crate::event::Access;
use crate::stream::AccessStream;

/// A materialized memory access trace.
///
/// Accesses are stored in columns (an [`AccessBuf`]): one `u64` address
/// per access plus a store bitmap, ~8.125 bytes per access. Tests,
/// experiments and the benchmark use this form, while long-running
/// workloads stream instead (see [`AccessStream`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    accesses: AccessBuf,
}

impl Trace {
    /// Names are clamped to [`crate::io::MAX_NAME_LEN`] bytes at
    /// construction so serialization can never see a name whose length
    /// overflows the header's `u32` length field.
    fn checked_name(name: impl Into<String>) -> String {
        let name = name.into();
        if name.len() <= crate::io::MAX_NAME_LEN {
            return name;
        }
        crate::io::clamp_name(&name).to_owned()
    }

    /// Creates an empty trace with the given name (clamped to
    /// [`crate::io::MAX_NAME_LEN`] bytes).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: Self::checked_name(name),
            accesses: AccessBuf::new(),
        }
    }

    /// A named trace of the accesses in `accesses`.
    pub(crate) fn from_buf(name: impl Into<String>, accesses: AccessBuf) -> Self {
        Trace {
            name: Self::checked_name(name),
            accesses,
        }
    }

    /// Builds a trace of loads from raw addresses.
    #[must_use]
    pub fn from_addresses(name: impl Into<String>, addrs: impl IntoIterator<Item = u64>) -> Self {
        Trace::from_buf(name, addrs.into_iter().map(Access::load).collect())
    }

    /// Accesses pre-reserved from a stream's `remaining_hint` before the
    /// `Vec` falls back to growth-by-doubling. A corrupt trace header can
    /// declare up to `u64::MAX` records; trusting that hint verbatim
    /// would abort in the allocator, so cap the up-front reservation
    /// (16Mi accesses = 130 MiB of columns) and let honest oversized
    /// streams grow normally from there.
    const MAX_HINT_RESERVE: usize = 1 << 24;

    /// Materializes a stream into a trace.
    #[must_use]
    pub fn from_stream(name: impl Into<String>, mut stream: impl AccessStream) -> Self {
        let mut accesses = AccessBuf::with_capacity(
            stream
                .remaining_hint()
                .map_or(0, |h| usize::try_from(h).unwrap_or(usize::MAX))
                .min(Self::MAX_HINT_RESERVE),
        );
        let mut out = accesses.appender();
        while let Some(a) = stream.next_access() {
            out.push(a.addr.raw(), a.kind.is_store());
        }
        drop(out);
        Trace::from_buf(name, accesses)
    }

    /// Test-only: bypasses the construction-time name clamp so the
    /// serializer's own oversized-name rejection stays testable.
    #[cfg(test)]
    pub(crate) fn with_unchecked_name(name: String) -> Self {
        Trace {
            name,
            accesses: AccessBuf::new(),
        }
    }

    /// The trace's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Returns true if the trace holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Appends an access.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(access);
    }

    /// The accesses as a borrowed columnar view.
    #[must_use]
    pub fn accesses(&self) -> AccessSlice<'_> {
        self.accesses.as_slice()
    }

    /// Iterates over the accesses by value.
    pub fn iter(&self) -> Iter<'_> {
        self.accesses.iter()
    }

    /// Creates a replaying stream borrowing this trace.
    #[must_use]
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream {
            trace: self,
            pos: 0,
        }
    }

    /// The distinct block numbers touched, at the given address shift
    /// (0 = byte granularity). Mostly used by trace statistics and tests.
    #[must_use]
    pub fn distinct_blocks(&self, shift: u32) -> u64 {
        // Sort + dedup instead of a hash set: deterministic and free of
        // SipHash's per-process seed (rdx-trace is a hot crate).
        let mut blocks: Vec<u64> = self.accesses.addrs().iter().map(|a| a >> shift).collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks.len() as u64
    }
}

impl Extend<Access> for Trace {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        Trace::from_buf(String::new(), iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = Access;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

/// Stream that replays a borrowed [`Trace`]; created by [`Trace::stream`].
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl AccessStream for TraceStream<'_> {
    fn next_access(&mut self) -> Option<Access> {
        if self.pos == self.trace.len() {
            return None;
        }
        let a = self.trace.accesses.get(self.pos);
        self.pos += 1;
        Some(a)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.trace.accesses.len() - self.pos) as u64)
    }

    fn chunk_capable(&self) -> bool {
        true
    }

    /// Zero-copy: the entire unread remainder of the trace as one view.
    fn next_chunk(&mut self) -> Option<AccessSlice<'_>> {
        let rest = self.trace.accesses().slice(self.pos..);
        if rest.is_empty() {
            None
        } else {
            Some(rest)
        }
    }

    fn consume_chunk(&mut self, n: usize) {
        debug_assert!(n <= self.trace.accesses.len() - self.pos);
        self.pos += n;
    }
}

/// Convenience: build a load/store trace from `(addr, is_store)` pairs.
impl FromIterator<(u64, bool)> for Trace {
    fn from_iter<T: IntoIterator<Item = (u64, bool)>>(iter: T) -> Self {
        let mut accesses = AccessBuf::new();
        let mut out = accesses.appender();
        for (addr, is_store) in iter {
            out.push(addr, is_store);
        }
        drop(out);
        Trace::from_buf(String::new(), accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessKind;

    #[test]
    fn build_and_replay() {
        let t = Trace::from_addresses("t", [1u64, 2, 1]);
        assert_eq!(t.name(), "t");
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let mut s = t.stream();
        assert_eq!(s.remaining_hint(), Some(3));
        assert_eq!(s.next_access().unwrap().addr.raw(), 1);
        assert_eq!(s.remaining_hint(), Some(2));
        let rest: Vec<u64> = s.iter().map(|a| a.addr.raw()).collect();
        assert_eq!(rest, vec![2, 1]);
    }

    #[test]
    fn from_stream_roundtrip() {
        let t = Trace::from_addresses("src", 0..100u64);
        let t2 = Trace::from_stream("copy", t.stream());
        assert_eq!(t2.len(), 100);
        assert_eq!(t.accesses(), t2.accesses());
    }

    #[test]
    fn collect_from_pairs() {
        let t: Trace = [(0x40u64, false), (0x80, true)].into_iter().collect();
        assert_eq!(t.accesses().get(0).kind, AccessKind::Load);
        assert_eq!(t.accesses().get(1).kind, AccessKind::Store);
    }

    #[test]
    fn extend_and_push() {
        let mut t = Trace::new("x");
        t.push(Access::load(1u64));
        t.extend([Access::store(2u64), Access::load(3u64)]);
        assert_eq!(t.len(), 3);
        let kinds: Vec<bool> = t.iter().map(|a| a.kind.is_store()).collect();
        assert_eq!(kinds, vec![false, true, false]);
    }

    #[test]
    fn distinct_blocks_by_shift() {
        // 0, 8, 64: 3 distinct bytes, 2 distinct 64B lines (0 and 1)
        let t = Trace::from_addresses("d", [0u64, 8, 64]);
        assert_eq!(t.distinct_blocks(0), 3);
        assert_eq!(t.distinct_blocks(6), 2);
        assert_eq!(t.distinct_blocks(12), 1);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("e");
        assert!(t.is_empty());
        assert_eq!(t.stream().count_remaining(), 0);
        assert_eq!(t.distinct_blocks(0), 0);
    }

    #[test]
    fn oversized_names_clamped_at_construction() {
        let max = crate::io::MAX_NAME_LEN;
        let long = "n".repeat(max + 100);
        for t in [
            Trace::new(long.clone()),
            Trace::from_addresses(long.clone(), [1u64, 2]),
            Trace::from_stream(long.clone(), Trace::new("x").stream()),
        ] {
            assert_eq!(t.name().len(), max, "clamped to the serializable bound");
        }
        // Clamping lands on a char boundary, never mid-codepoint.
        let unicode = "é".repeat(max); // 2 bytes per char -> 2*max bytes
        let t = Trace::new(unicode);
        assert!(t.name().len() <= max);
        assert!(t.name().chars().all(|c| c == 'é'));
    }
}
