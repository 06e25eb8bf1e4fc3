//! Pull-based access streams.

use crate::columns::{AccessBuf, AccessSlice};

/// A pull-based stream of memory accesses.
///
/// This is the interface every trace producer (workload generators,
/// materialized traces) implements and every consumer (the simulated
/// machine, ground-truth measurement, baselines) drives. There is one
/// way to pull: [`next_chunk`](AccessStream::next_chunk) lends the next
/// run of accesses as a columnar view and advances past it. Consumers
/// that look at one access at a time iterate each chunk, so a boxed
/// stream costs one dynamic call per chunk, not one per access.
pub trait AccessStream {
    /// Lends the next 1..=`max` accesses and advances the stream past
    /// them, or returns `None` once the stream has ended.
    ///
    /// Callers pass `max ≥ 1`. A returned view is never empty, and
    /// `None` only ever means the end. A source returns as much of what
    /// it already holds as `max` allows: a [`TraceStream`] lends its
    /// whole unread remainder to a caller passing `usize::MAX`, so an
    /// in-memory trace reaches the machine without a copy.
    ///
    /// [`TraceStream`]: crate::TraceStream
    fn next_chunk(&mut self, max: usize) -> Option<AccessSlice<'_>>;

    /// A lower/upper bound on remaining accesses, if cheaply known.
    ///
    /// Used only for progress reporting and preallocation; `None` means
    /// unknown.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }

    /// Appends up to `max` accesses to `out`, advancing the stream past
    /// them, and returns how many it appended. A count below `max`
    /// means the stream is exhausted.
    ///
    /// `out` keeps the accesses it already holds and grows as `Vec`
    /// does, so a caller that knows the size reserves first. The
    /// default copies [`next_chunk`](AccessStream::next_chunk) views;
    /// generators override it to write whole loop iterations straight
    /// into the columns, skipping the copy out of their own buffer.
    fn fill(&mut self, out: &mut AccessBuf, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            let Some(chunk) = self.next_chunk(max - n) else {
                break;
            };
            n += chunk.len();
            out.extend_from_slice(chunk);
        }
        n
    }
}

impl<S: AccessStream + ?Sized> AccessStream for &mut S {
    fn next_chunk(&mut self, max: usize) -> Option<AccessSlice<'_>> {
        (**self).next_chunk(max)
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }

    fn fill(&mut self, out: &mut AccessBuf, max: usize) -> usize {
        (**self).fill(out, max)
    }
}

impl<S: AccessStream + ?Sized> AccessStream for Box<S> {
    fn next_chunk(&mut self, max: usize) -> Option<AccessSlice<'_>> {
        (**self).next_chunk(max)
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }

    fn fill(&mut self, out: &mut AccessBuf, max: usize) -> usize {
        (**self).fill(out, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Access;

    /// Loads of `64, 128, …` up to `n` accesses, lent at most `lend` at
    /// a time, with no hint: the trait's defaults only.
    struct Counting {
        buf: AccessBuf,
        i: u64,
        n: u64,
        lend: usize,
    }

    impl AccessStream for Counting {
        fn next_chunk(&mut self, max: usize) -> Option<AccessSlice<'_>> {
            self.buf.clear();
            while self.i < self.n && self.buf.len() < max.min(self.lend) {
                self.i += 1;
                self.buf.push(Access::load(self.i * 64));
            }
            (!self.buf.is_empty()).then(|| self.buf.as_slice())
        }
    }

    /// A per-access source: one access per chunk.
    fn counting_stream(n: u64) -> Counting {
        Counting {
            buf: AccessBuf::new(),
            i: 0,
            n,
            lend: 1,
        }
    }

    #[test]
    fn default_fill_steps_per_access() {
        let mut s = counting_stream(5);
        let mut out = AccessBuf::new();
        out.push(Access::store(8u64));
        assert_eq!(s.fill(&mut out, 3), 3, "a full fill appends `max`");
        assert_eq!(s.fill(&mut out, 0), 0);
        assert_eq!(s.fill(&mut out, 10), 2, "a short fill means exhausted");
        assert_eq!(s.fill(&mut out, 10), 0);
        assert_eq!(out.addrs().collect::<Vec<_>>(), [8, 64, 128, 192, 256, 320]);
        assert!(out.get(0).kind.is_store(), "existing accesses are kept");

        // Chunks of three: each pull asks only for what `max` has left.
        let mut s = Counting {
            lend: 3,
            ..counting_stream(10)
        };
        let mut out = AccessBuf::new();
        assert_eq!(s.fill(&mut out, 4), 4);
        assert_eq!(s.fill(&mut out, 5), 5);
        assert_eq!(
            out.addrs().collect::<Vec<_>>(),
            [64, 128, 192, 256, 320, 384, 448, 512, 576]
        );
    }

    #[test]
    fn chunks_respect_max_and_end_with_none() {
        let t = crate::Trace::from_addresses("t", (0..10u64).map(|i| i * 8));
        let mut s = t.stream();
        assert_eq!(s.next_chunk(4).expect("four").len(), 4);
        assert_eq!(s.remaining_hint(), Some(6));
        let rest = s.next_chunk(usize::MAX).expect("the remainder");
        assert_eq!(rest, t.accesses().slice(4..), "the remainder in one view");
        assert!(s.next_chunk(1).is_none());
        assert_eq!(s.remaining_hint(), Some(0));
    }

    #[test]
    fn fill_forwards_through_mut_ref_and_box() {
        let t = crate::Trace::from_addresses("t", (0..10u64).map(|i| i * 8));
        let mut s = t.stream();
        let mut out = AccessBuf::new();
        fn fill_by_value(mut s: impl AccessStream, out: &mut AccessBuf, max: usize) -> usize {
            s.fill(out, max)
        }
        assert_eq!(fill_by_value(&mut s, &mut out, 4), 4);
        assert_eq!(s.remaining_hint(), Some(6));
        let mut b: Box<dyn AccessStream + '_> = Box::new(s);
        assert_eq!(b.fill(&mut out, 100), 6, "a short fill means exhausted");
        assert!(b.next_chunk(usize::MAX).is_none());
        assert_eq!(out.as_slice(), t.accesses());
    }

    #[test]
    fn chunk_forwarding_through_mut_ref_and_box() {
        let t = crate::Trace::from_addresses("t", (0..8u64).map(|i| i * 8));
        let mut s = t.stream();
        {
            let r: &mut dyn AccessStream = &mut s;
            let chunk = r.next_chunk(5).expect("chunk");
            assert_eq!(chunk, t.accesses().slice(..5));
        }
        let mut b: Box<dyn AccessStream + '_> = Box::new(s);
        assert_eq!(b.remaining_hint(), Some(3));
        let tail = b.next_chunk(usize::MAX).expect("tail chunk");
        assert_eq!(tail, t.accesses().slice(5..));
        assert!(b.next_chunk(usize::MAX).is_none());
    }

    #[test]
    fn stream_through_mut_ref_and_box() {
        let mut s = counting_stream(3);
        {
            // &mut S forwards the trait implementation
            let r: &mut dyn AccessStream = &mut s;
            assert_eq!(r.next_chunk(usize::MAX).expect("one").len(), 1);
        }
        let mut b: Box<dyn AccessStream> = Box::new(s);
        let mut out = AccessBuf::new();
        assert_eq!(b.fill(&mut out, usize::MAX), 2);
        assert_eq!(out.addrs().collect::<Vec<_>>(), [128, 192]);
    }
}
