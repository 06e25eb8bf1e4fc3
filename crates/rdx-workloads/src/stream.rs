//! The stream every registry kernel is served through.

use rdx_trace::DEFAULT_CHUNK_CAPACITY;
use rdx_trace::{AccessAppender, AccessBuf, AccessSlice, AccessStream};

/// A kernel capped at a fixed number of accesses, behind the whole
/// [`AccessStream`] contract.
///
/// A kernel is an infinite, deterministic loop nest written as a
/// closure over its loop state: each call of `step` appends one loop
/// iteration, between 1 and `STEP` accesses. The closure's type is
/// part of the stream's, so every call is static.
///
/// [`fill`](AccessStream::fill) runs whole steps straight into the
/// caller's columns; only a step that would cross the requested count
/// goes through the stream's own buffer. `next_chunk` lends that
/// buffer, refilled [`DEFAULT_CHUNK_CAPACITY`] accesses at a time (the
/// allocation is reused, and never made for a stream that is only
/// filled). Every way of pulling yields the same sequence.
pub(crate) struct KernelStream<F, const STEP: usize> {
    step: F,
    /// Accesses still to deliver, those in `buf` included.
    left: u64,
    /// Generated accesses; `buf[pos..]` are not delivered yet. The
    /// last step may run past `left`: those accesses are never shown.
    buf: AccessBuf,
    pos: usize,
}

impl<F: FnMut(&mut AccessAppender<'_>), const STEP: usize> KernelStream<F, STEP> {
    pub(crate) fn new(accesses: u64, step: F) -> Self {
        KernelStream {
            step,
            left: accesses,
            buf: AccessBuf::new(),
            pos: 0,
        }
    }

    /// Deliverable accesses waiting in the buffer.
    fn buffered(&self) -> usize {
        let left = usize::try_from(self.left).unwrap_or(usize::MAX);
        (self.buf.len() - self.pos).min(left)
    }

    /// Refills the drained buffer with whole steps, at least `want`
    /// accesses.
    fn refill(&mut self, want: usize) {
        debug_assert_eq!(self.buf.len(), self.pos);
        self.buf.clear();
        self.pos = 0;
        self.buf.reserve(want + STEP);
        let mut out = self.buf.appender();
        while out.len() < want {
            (self.step)(&mut out);
        }
    }

    /// Makes a drained buffer hold the next chunk; false at the end.
    fn ensure_chunk(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        if self.buf.len() == self.pos {
            let left = usize::try_from(self.left).unwrap_or(usize::MAX);
            self.refill(left.min(DEFAULT_CHUNK_CAPACITY));
        }
        true
    }
}

impl<F: FnMut(&mut AccessAppender<'_>), const STEP: usize> AccessStream for KernelStream<F, STEP> {
    fn next_chunk(&mut self, max: usize) -> Option<AccessSlice<'_>> {
        debug_assert!(max > 0, "next_chunk needs max >= 1");
        if !self.ensure_chunk() {
            return None;
        }
        let start = self.pos;
        let n = self.buffered().min(max);
        self.pos += n;
        self.left -= n as u64;
        Some(self.buf.as_slice().slice(start..start + n))
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.left)
    }

    fn fill(&mut self, out: &mut AccessBuf, max: usize) -> usize {
        let want = max.min(usize::try_from(self.left).unwrap_or(usize::MAX));
        let mut done = 0;
        loop {
            // What the buffer holds goes first.
            let k = self.buffered().min(want - done);
            out.extend_from_slice(self.buf.as_slice().slice(self.pos..self.pos + k));
            self.pos += k;
            done += k;
            if done == want {
                break;
            }
            // Whole steps straight into `out` while one surely fits ...
            let mut app = out.appender();
            let (start, end) = (app.len(), app.len() + (want - done));
            while app.len() + STEP <= end {
                (self.step)(&mut app);
            }
            done += app.len() - start;
            drop(app);
            if done == want {
                break;
            }
            // ... and the step that may cross `want` into the buffer.
            self.refill(1);
        }
        self.left -= want as u64;
        want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps of 1, 2, … 5 accesses: `i` repeated `i % 5 + 1` times.
    fn ragged(accesses: u64) -> impl AccessStream {
        let mut i = 0u64;
        KernelStream::<_, 5>::new(accesses, move |out: &mut AccessAppender<'_>| {
            for _ in 0..=i % 5 {
                out.push(i, false);
            }
            i += 1;
        })
    }

    #[test]
    fn steps_past_the_cap_are_never_delivered() {
        let mut s = ragged(7);
        let mut out = AccessBuf::new();
        assert_eq!(s.fill(&mut out, 100), 7);
        assert_eq!(out.addrs().collect::<Vec<_>>(), [0, 1, 1, 2, 2, 2, 3]);
        assert_eq!(s.fill(&mut out, 100), 0);
        assert!(s.next_chunk(usize::MAX).is_none());
    }
}
