//! Columnar access storage: one `u64` address per access plus a store
//! bitmap, ~8.125 bytes per access.
//!
//! Everything that holds accesses in bulk — a [`Trace`](crate::Trace),
//! a [`Chunk`](crate::Chunk), a decode batch, the machine's scan input —
//! uses this layout. [`AccessBuf`] owns the two columns and
//! [`AccessSlice`] borrows a contiguous run of them. The scan reads only
//! the address column (8 bytes per access instead of a 16-byte padded
//! `Access`), and the count of stores in a run is a popcount over the
//! bitmap. [`Access`] stays the per-event value: [`AccessSlice::get`]
//! and the iterators rebuild it on the fly.

use crate::event::{Access, AccessKind, Address};
use std::fmt;
use std::ops::{Bound, Range, RangeBounds};

/// Owned columnar accesses: addresses plus a store bitmap.
///
/// Bit `i % 64` of bitmap word `i / 64` is set when access `i` is a
/// store. The bitmap always holds exactly `len.div_ceil(64)` words and
/// every bit past `len` is clear, so equality is plain column equality.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct AccessBuf {
    addrs: Vec<u64>,
    stores: Vec<u64>,
}

impl AccessBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> AccessBuf {
        AccessBuf::default()
    }

    /// An empty buffer with room for `n` accesses.
    #[must_use]
    pub fn with_capacity(n: usize) -> AccessBuf {
        AccessBuf {
            addrs: Vec::with_capacity(n),
            stores: Vec::with_capacity(n.div_ceil(64)),
        }
    }

    /// Number of accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when the buffer holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Removes every access, keeping the allocation.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.stores.clear();
    }

    /// Reserves room for `n` more accesses.
    pub fn reserve(&mut self, n: usize) {
        self.addrs.reserve(n);
        let words = (self.len() + n).div_ceil(64);
        self.stores.reserve(words.saturating_sub(self.stores.len()));
    }

    /// Appends one access.
    pub fn push(&mut self, access: Access) {
        let i = self.addrs.len();
        self.addrs.push(access.addr.raw());
        if i.is_multiple_of(64) {
            self.stores.push(0);
        }
        if access.kind.is_store() {
            self.stores[i / 64] |= 1 << (i % 64);
        }
    }

    /// A writer that appends accesses with no per-access bitmap
    /// read-modify-write: store bits gather in a register word that is
    /// flushed every 64 accesses and when the writer drops.
    pub fn appender(&mut self) -> AccessAppender<'_> {
        let bit = (self.len() % 64) as u32;
        // A partial last word moves into the register until the drop.
        let word = if bit == 0 {
            0
        } else {
            self.stores.pop().unwrap_or(0)
        };
        AccessAppender {
            buf: self,
            word,
            bit,
        }
    }

    /// Appends every access of `src`, copying its bitmap a word at a
    /// time.
    pub fn extend_from_slice(&mut self, src: AccessSlice<'_>) {
        let len = self.len();
        for k in (0..src.len()).step_by(64) {
            self.push_store_bits(len + k, (src.len() - k).min(64), src.store_word(k));
        }
        self.addrs.extend_from_slice(src.addrs);
    }

    /// Appends a run of `n` (1..=64) accesses whose store bits are the
    /// low `n` bits of `stores` (the rest clear), one bitmap word
    /// operation for the run, and returns their address slots, zeroed,
    /// for the caller to fill.
    #[inline(always)]
    pub(crate) fn append_run(&mut self, n: usize, stores: u64) -> &mut [u64] {
        let len = self.len();
        self.push_store_bits(len, n, stores);
        self.addrs.resize(len + n, 0);
        &mut self.addrs[len..]
    }

    /// Puts the store bits of `n` (1..=64) accesses, the low `n` bits of
    /// `stores`, into the bitmap at access index `at`, the bitmap's end.
    #[inline(always)]
    fn push_store_bits(&mut self, at: usize, n: usize, stores: u64) {
        debug_assert!((1..=64).contains(&n) && (n == 64 || stores >> n == 0));
        let shift = at % 64;
        if shift == 0 {
            self.stores.push(stores);
        } else {
            if let Some(last) = self.stores.last_mut() {
                *last |= stores << shift;
            }
            if n > 64 - shift {
                self.stores.push(stores >> (64 - shift));
            }
        }
    }

    /// The whole buffer as a borrowed view.
    #[must_use]
    pub fn as_slice(&self) -> AccessSlice<'_> {
        AccessSlice {
            addrs: &self.addrs,
            stores: &self.stores,
            offset: 0,
        }
    }

    /// The address column.
    #[must_use]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Access `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> Access {
        self.as_slice().get(i)
    }

    /// Iterates over the accesses by value.
    pub fn iter(&self) -> Iter<'_> {
        self.as_slice().iter()
    }
}

impl fmt::Debug for AccessBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Extend<Access> for AccessBuf {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        let mut out = self.appender();
        for a in iter {
            out.push(a.addr.raw(), a.kind.is_store());
        }
    }
}

impl FromIterator<Access> for AccessBuf {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        let mut buf = AccessBuf::new();
        buf.extend(iter);
        buf
    }
}

/// Appends to an [`AccessBuf`]; created by [`AccessBuf::appender`].
///
/// The buffer's last bitmap word lives in the appender while it is
/// alive and is written back when it drops.
#[derive(Debug)]
pub struct AccessAppender<'a> {
    buf: &'a mut AccessBuf,
    word: u64,
    bit: u32,
}

impl AccessAppender<'_> {
    /// Appends one access.
    #[inline(always)]
    pub fn push(&mut self, addr: u64, is_store: bool) {
        self.buf.addrs.push(addr);
        self.word |= u64::from(is_store) << self.bit;
        self.bit += 1;
        if self.bit == 64 {
            self.buf.stores.push(self.word);
            self.word = 0;
            self.bit = 0;
        }
    }

    /// Accesses in the buffer, those appended so far included.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.addrs.len()
    }

    /// True when the buffer holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.addrs.is_empty()
    }
}

impl Drop for AccessAppender<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.bit != 0 {
            self.buf.stores.push(self.word);
        }
    }
}

/// A borrowed run of columnar accesses: a sub-slice of an
/// [`AccessBuf`].
///
/// The view holds the address column, the bitmap words that cover it
/// and a bit offset (below 64) of its first access in the first word,
/// so it can start at any access. Bits outside the view are never read
/// as part of it.
#[derive(Clone, Copy, Default)]
pub struct AccessSlice<'a> {
    addrs: &'a [u64],
    stores: &'a [u64],
    offset: u32,
}

impl<'a> AccessSlice<'a> {
    /// Number of accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when the view holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The address column.
    #[must_use]
    pub fn addrs(&self) -> &'a [u64] {
        self.addrs
    }

    /// Whether access `i` is a store.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn is_store(&self, i: usize) -> bool {
        assert!(i < self.len(), "access {i} out of a view of {}", self.len());
        let b = self.offset as usize + i;
        (self.stores[b / 64] >> (b % 64)) & 1 == 1
    }

    /// Access `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> Access {
        let kind = if self.is_store(i) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        Access {
            addr: Address::new(self.addrs[i]),
            kind,
        }
    }

    /// Iterates over the accesses by value.
    #[must_use]
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            slice: *self,
            pos: 0,
        }
    }

    /// The sub-view of the accesses in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or ends past `len`.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> AccessSlice<'a> {
        let Range { start, end } = self.resolve(range);
        let b = self.offset as usize + start;
        AccessSlice {
            addrs: &self.addrs[start..end],
            stores: &self.stores[b / 64..],
            offset: (b % 64) as u32,
        }
    }

    /// Stores among the accesses in `range`: one popcount per bitmap
    /// word the range touches.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or ends past `len`.
    #[must_use]
    pub fn stores_in(&self, range: impl RangeBounds<usize>) -> u64 {
        let Range { start, end } = self.resolve(range);
        if start == end {
            return 0;
        }
        let lo = self.offset as usize + start;
        let hi = self.offset as usize + end - 1;
        let (first, last) = (lo / 64, hi / 64);
        let lo_mask = u64::MAX << (lo % 64);
        let hi_mask = u64::MAX >> (63 - hi % 64);
        if first == last {
            return u64::from((self.stores[first] & lo_mask & hi_mask).count_ones());
        }
        let inner: u64 = self.stores[first + 1..last]
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        inner
            + u64::from((self.stores[first] & lo_mask).count_ones())
            + u64::from((self.stores[last] & hi_mask).count_ones())
    }

    /// The store bits of accesses `i .. min(i + 64, len)` in the low
    /// bits of one word (bit 0 is access `i`), the rest clear.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn store_word(&self, i: usize) -> u64 {
        let n = (self.len() - i).min(64);
        assert!(n > 0, "access {i} out of a view of {}", self.len());
        let b = self.offset as usize + i;
        let (word, shift) = (b / 64, b % 64);
        let mut w = self.stores[word] >> shift;
        if shift != 0 && shift + n > 64 {
            w |= self.stores[word + 1] << (64 - shift);
        }
        if n < 64 {
            w &= (1 << n) - 1;
        }
        w
    }

    fn resolve(&self, range: impl RangeBounds<usize>) -> Range<usize> {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s.saturating_add(1),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e.saturating_add(1),
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of a view of {}",
            self.len()
        );
        start..end
    }
}

impl PartialEq for AccessSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.addrs == other.addrs
            && (0..self.len())
                .step_by(64)
                .all(|i| self.store_word(i) == other.store_word(i))
    }
}

impl Eq for AccessSlice<'_> {}

impl fmt::Debug for AccessSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for AccessSlice<'a> {
    type Item = Access;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the accesses of a view, by value; created by
/// [`AccessSlice::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    slice: AccessSlice<'a>,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.pos == self.slice.len() {
            return None;
        }
        let a = self.slice.get(self.pos);
        self.pos += 1;
        Some(a)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.slice.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn buf_of(pairs: &[(u64, bool)]) -> AccessBuf {
        pairs
            .iter()
            .map(|&(a, s)| if s { Access::store(a) } else { Access::load(a) })
            .collect()
    }

    fn pairs_of(view: AccessSlice<'_>) -> Vec<(u64, bool)> {
        view.iter()
            .map(|a| (a.addr.raw(), a.kind.is_store()))
            .collect()
    }

    #[test]
    fn push_and_get() {
        let mut b = AccessBuf::new();
        b.push(Access::load(1u64));
        b.push(Access::store(2u64));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), Access::load(1u64));
        assert_eq!(b.get(1), Access::store(2u64));
        assert_eq!(b.addrs(), &[1, 2]);
        assert_eq!(b.as_slice().stores_in(..), 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b, AccessBuf::new());
    }

    #[test]
    fn views_equal_by_value_whatever_their_offset() {
        let pairs: Vec<(u64, bool)> = (0..200u64).map(|i| (i % 7, i % 3 == 0)).collect();
        let b = buf_of(&pairs);
        // Accesses 0..7 and 7..14... repeat with period 21 (lcm of 7, 3).
        let v = b.as_slice();
        assert_eq!(v.slice(0..50), v.slice(21..71));
        assert_ne!(v.slice(0..50), v.slice(1..51));
        assert_eq!(v.slice(5..5), AccessSlice::default());
    }

    #[test]
    #[should_panic(expected = "out of a view")]
    fn get_past_the_end_panics() {
        let b = buf_of(&[(1, false)]);
        let _ = b.as_slice().slice(1..).get(0);
    }

    proptest! {
        /// Every way of building and re-viewing a buffer yields the
        /// same accesses: `push`, `extend`, the appender, and
        /// `extend_from_slice` of any sub-view onto a buffer of any
        /// length; `stores_in` and `store_word` agree with a count over
        /// the pairs.
        #[test]
        fn columns_round_trip(
            pairs in prop::collection::vec((any::<u64>(), any::<bool>()), 0..300),
            head in prop::collection::vec((any::<u64>(), any::<bool>()), 0..130),
            cut in (0usize..300, 0usize..300),
        ) {
            let b = buf_of(&pairs);
            prop_assert_eq!(pairs_of(b.as_slice()), pairs.clone());
            let mut pushed = AccessBuf::new();
            for &(a, s) in &pairs {
                pushed.push(if s { Access::store(a) } else { Access::load(a) });
            }
            prop_assert_eq!(&pushed, &b);
            let (lo, hi) = (cut.0.min(cut.1).min(pairs.len()), cut.0.max(cut.1).min(pairs.len()));
            let view = b.as_slice().slice(lo..hi);
            prop_assert_eq!(pairs_of(view), pairs[lo..hi].to_vec());
            let want = pairs[lo..hi].iter().filter(|p| p.1).count() as u64;
            prop_assert_eq!(view.stores_in(..), want);
            for i in (0..view.len()).step_by(17) {
                let word = view.store_word(i);
                for (k, p) in pairs[lo + i..hi.min(lo + i + 64)].iter().enumerate() {
                    prop_assert_eq!((word >> k) & 1 == 1, p.1);
                }
                prop_assert_eq!(u64::from(word.count_ones()), view.stores_in(i..(i + 64).min(view.len())));
            }
            let mut joined = buf_of(&head);
            joined.extend_from_slice(view);
            let mut want_pairs = head.clone();
            want_pairs.extend_from_slice(&pairs[lo..hi]);
            prop_assert_eq!(&joined, &buf_of(&want_pairs));
            let mut copy = AccessBuf::new();
            copy.extend_from_slice(view);
            prop_assert_eq!(copy.as_slice(), view);
        }
    }
}
