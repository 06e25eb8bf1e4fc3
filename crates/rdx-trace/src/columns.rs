//! Columnar access storage: each address split into two 32-bit words,
//! plus a store bitmap, ~8.125 bytes per access.
//!
//! Everything that holds accesses in bulk — a [`Trace`](crate::Trace),
//! a [`Chunk`](crate::Chunk), a decode batch, the machine's scan input —
//! uses this layout. [`AccessBuf`] owns the columns and [`AccessSlice`]
//! borrows a contiguous run of them.
//!
//! The address column is byte-sliced in the manner of ByteSlice (Feng et
//! al., SIGMOD 2015): a *low* column holds the low 32 bits of each
//! address and a *high* column its top 32 bits ([`split_addr`];
//! [`join_addr`] inverts it). The machine's needle scan reads only the
//! low column, 4 bytes per access, and checks the high word only for
//! the rare block with a candidate. The low word is stored as it is,
//! with no fold of the high word into it: equal indices of arrays placed
//! `r << 32` apart share a low word, so each costs the scan a re-walk
//! of its block. A fold that kept them apart would have to reach the
//! bits above a needle's span; `lo ^ hi` reaches only the low three,
//! and the registry's false candidates were about the same with it
//! (EXPERIMENTS.md P12). The count of stores in a run is a popcount over
//! the bitmap. [`Access`] stays the per-event value:
//! [`AccessSlice::get`], [`AccessSlice::addr`] and the iterators rebuild
//! it on the fly.

use crate::event::{Access, AccessKind, Address};
use std::fmt;
use std::ops::{Bound, Range, RangeBounds};

/// The two words an address is stored as: its low and high 32 bits.
#[inline(always)]
#[must_use]
pub fn split_addr(addr: u64) -> (u32, u32) {
    let hi = (addr >> 32) as u32;
    (addr as u32, hi)
}

/// The address stored as `low` and `high`: the inverse of
/// [`split_addr`].
#[inline(always)]
#[must_use]
pub fn join_addr(low: u32, high: u32) -> u64 {
    (u64::from(high) << 32) | u64::from(low)
}

/// Owned columnar accesses: the low and high address columns plus a
/// store bitmap.
///
/// Bit `i % 64` of bitmap word `i / 64` is set when access `i` is a
/// store. The bitmap always holds exactly `len.div_ceil(64)` words and
/// every bit past `len` is clear, so equality is plain column equality.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct AccessBuf {
    /// The low 32 bits of each address.
    low: Vec<u32>,
    /// The high 32 bits of each address.
    high: Vec<u32>,
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
            low: Vec::with_capacity(n),
            high: Vec::with_capacity(n),
            stores: Vec::with_capacity(n.div_ceil(64)),
        }
    }

    /// Number of accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.low.len()
    }

    /// True when the buffer holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.low.is_empty()
    }

    /// Removes every access, keeping the allocation.
    pub fn clear(&mut self) {
        self.low.clear();
        self.high.clear();
        self.stores.clear();
    }

    /// Reserves room for `n` more accesses.
    pub fn reserve(&mut self, n: usize) {
        self.low.reserve(n);
        self.high.reserve(n);
        let words = (self.len() + n).div_ceil(64);
        self.stores.reserve(words.saturating_sub(self.stores.len()));
    }

    /// Appends one access.
    pub fn push(&mut self, access: Access) {
        let i = self.len();
        let (low, high) = split_addr(access.addr.raw());
        self.low.push(low);
        self.high.push(high);
        if i.is_multiple_of(64) {
            self.stores.push(0);
        }
        if access.kind.is_store() {
            self.stores[i / 64] |= 1 << (i % 64);
        }
    }

    /// A writer that appends accesses with no per-access column or
    /// bitmap update: addresses and store bits gather in a 64-access
    /// block that is flushed into the columns once per 64 accesses and
    /// when the writer drops.
    pub fn appender(&mut self) -> AccessAppender<'_> {
        AccessAppender {
            buf: self,
            block: [0; 64],
            word: 0,
            n: 0,
        }
    }

    /// Appends every access of `src`, copying its bitmap a word at a
    /// time.
    pub fn extend_from_slice(&mut self, src: AccessSlice<'_>) {
        let len = self.len();
        for k in (0..src.len()).step_by(64) {
            self.push_store_bits(len + k, (src.len() - k).min(64), src.store_word(k));
        }
        self.low.extend_from_slice(src.low);
        self.high.extend_from_slice(src.high);
    }

    /// Appends a run of 1..=64 accesses, their addresses `addrs` and
    /// their store bits the low `addrs.len()` bits of `stores` (the
    /// rest clear): one bitmap word operation and one extend of each
    /// address column for the run.
    #[inline(always)]
    pub(crate) fn append_run(&mut self, addrs: &[u64], stores: u64) {
        self.push_store_bits(self.len(), addrs.len(), stores);
        self.low.extend(addrs.iter().map(|&a| split_addr(a).0));
        self.high.extend(addrs.iter().map(|&a| split_addr(a).1));
    }

    /// Appends the store bits of a run of `n` (1..=64) accesses, the low
    /// `n` bits of `stores`, and returns both address columns with room
    /// reserved for the run's `n` words: the block decoder writes them
    /// in place ([`split_addr`]) and commits their length.
    #[inline(always)]
    pub(crate) fn run_columns(&mut self, n: usize, stores: u64) -> (&mut Vec<u32>, &mut Vec<u32>) {
        self.push_store_bits(self.len(), n, stores);
        self.low.reserve(n);
        self.high.reserve(n);
        (&mut self.low, &mut self.high)
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
            low: &self.low,
            high: &self.high,
            stores: &self.stores,
            offset: 0,
        }
    }

    /// The address of access `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn addr(&self, i: usize) -> u64 {
        self.as_slice().addr(i)
    }

    /// Iterates over the addresses.
    pub fn addrs(&self) -> Addrs<'_> {
        self.as_slice().addrs()
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
/// Up to 64 appended accesses live in the appender, their addresses in
/// a block and their store bits in a register word, and move into the
/// buffer's columns when the block fills and when the appender drops:
/// one capacity check per column per 64 accesses.
#[derive(Debug)]
pub struct AccessAppender<'a> {
    buf: &'a mut AccessBuf,
    block: [u64; 64],
    word: u64,
    n: usize,
}

impl AccessAppender<'_> {
    /// Appends one access.
    #[inline(always)]
    pub fn push(&mut self, addr: u64, is_store: bool) {
        let n = self.n % 64;
        self.block[n] = addr;
        self.word |= u64::from(is_store) << n;
        self.n = n + 1;
        if self.n == 64 {
            self.flush();
        }
    }

    /// Moves the gathered accesses into the buffer's columns.
    #[inline]
    fn flush(&mut self) {
        if self.n > 0 {
            self.buf.append_run(&self.block[..self.n], self.word);
            self.word = 0;
            self.n = 0;
        }
    }

    /// Accesses in the buffer, those appended so far included.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() + self.n
    }

    /// True when the buffer holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for AccessAppender<'_> {
    #[inline]
    fn drop(&mut self) {
        self.flush();
    }
}

/// A borrowed run of columnar accesses: a sub-slice of an
/// [`AccessBuf`].
///
/// The view holds the two address columns, the bitmap words that cover
/// them and a bit offset (below 64) of its first access in the first
/// word, so it can start at any access. Bits outside the view are never
/// read as part of it.
#[derive(Clone, Copy, Default)]
pub struct AccessSlice<'a> {
    low: &'a [u32],
    high: &'a [u32],
    stores: &'a [u64],
    offset: u32,
}

impl<'a> AccessSlice<'a> {
    /// Number of accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.low.len()
    }

    /// True when the view holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.low.is_empty()
    }

    /// The low address column: the low 32 bits of each address.
    #[inline]
    #[must_use]
    pub fn low_words(&self) -> &'a [u32] {
        self.low
    }

    /// The high address column: the high 32 bits of each address.
    #[inline]
    #[must_use]
    pub fn high_words(&self) -> &'a [u32] {
        self.high
    }

    /// The address of access `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn addr(&self, i: usize) -> u64 {
        join_addr(self.low[i], self.high[i])
    }

    /// Iterates over the addresses.
    #[must_use]
    pub fn addrs(&self) -> Addrs<'a> {
        Addrs {
            words: self.low.iter().zip(self.high),
        }
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
            addr: Address::new(self.addr(i)),
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
            low: &self.low[start..end],
            high: &self.high[start..end],
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
        self.low == other.low
            && self.high == other.high
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

/// Iterator over the addresses of a view, rebuilt from the two
/// columns; created by [`AccessSlice::addrs`].
#[derive(Debug, Clone)]
pub struct Addrs<'a> {
    words: std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, u32>>,
}

impl Iterator for Addrs<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        self.words.next().map(|(&low, &high)| join_addr(low, high))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
    }
}

impl ExactSizeIterator for Addrs<'_> {}

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
    use crate::kernels::{BlockDecode, ScalarDecode};
    use proptest::prelude::*;

    fn access(&(a, s): &(u64, bool)) -> Access {
        if s {
            Access::store(a)
        } else {
            Access::load(a)
        }
    }

    fn buf_of(pairs: &[(u64, bool)]) -> AccessBuf {
        pairs.iter().map(access).collect()
    }

    fn pairs_of(view: AccessSlice<'_>) -> Vec<(u64, bool)> {
        view.iter()
            .map(|a| (a.addr.raw(), a.kind.is_store()))
            .collect()
    }

    /// Addresses over many high words: small ones, arbitrary ones, the
    /// top aligned block of `u64::MAX`, and equal low words under
    /// different high words (array `r` of a registry kernel sits at
    /// `r << 32`).
    fn addr_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            2 => 0u64..4096,
            3 => any::<u64>(),
            1 => (0u64..17).prop_map(|k| u64::MAX - k),
            3 => (0u64..64, 0u64..16).prop_map(|(r, i)| (r << 32) | (i * 8)),
            1 => (any::<u32>(), 0u64..16).prop_map(|(r, i)| (u64::from(r) << 32) | (i * 8)),
        ]
    }

    #[test]
    fn push_and_get() {
        let mut b = AccessBuf::new();
        b.push(Access::load(1u64));
        b.push(Access::store(2u64));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), Access::load(1u64));
        assert_eq!(b.get(1), Access::store(2u64));
        assert_eq!(b.addrs().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(b.addr(1), 2);
        assert_eq!(b.as_slice().stores_in(..), 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b, AccessBuf::new());
    }

    #[test]
    fn split_words_are_the_low_and_high_halves() {
        assert_eq!(split_addr(0x10), (0x10, 0));
        assert_eq!(split_addr((1 << 32) | 0x10), (0x10, 1));
        assert_eq!(split_addr(u64::MAX), (u32::MAX, u32::MAX));
        for a in [0, 1, 0x1_0000_0010, u64::MAX - 7, u64::MAX] {
            let (low, high) = split_addr(a);
            assert_eq!(join_addr(low, high), a);
        }
        let b = buf_of(&[(0x1_0000_0010, false), (u64::MAX, true)]);
        assert_eq!(b.as_slice().low_words(), [0x10, u32::MAX]);
        assert_eq!(b.as_slice().high_words(), [1, u32::MAX]);
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
            for p in &pairs {
                pushed.push(access(p));
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

        /// Every writer builds the same split columns from the same
        /// accesses, onto a buffer already holding `held` of them (so
        /// each starts at any bit of a bitmap word): `push`, the
        /// appender (in several short-lived writers), the block
        /// decoder's in-place column writes (`run_columns`) through both
        /// `BlockDecode` instances and the scalar decoder,
        /// `extend_from_slice` and
        /// `FromIterator`. Every `get(i)`, `addr(i)` and the address
        /// iterator give back the input, and a sub-view at every bit
        /// offset holds the input's sub-range.
        #[test]
        fn every_writer_builds_the_same_columns(
            pairs in prop::collection::vec((addr_strategy(), any::<bool>()), 0..300),
            held in 0usize..130,
            pieces in prop::collection::vec(1usize..80, 1..8),
        ) {
            let head: Vec<(u64, bool)> =
                (0..held as u64).map(|i| (i << 29, i % 3 == 0)).collect();
            let mut all = head.clone();
            all.extend_from_slice(&pairs);
            let want = buf_of(&all);
            for (i, p) in all.iter().enumerate() {
                prop_assert_eq!(want.get(i), access(p));
                prop_assert_eq!(want.addr(i), p.0);
            }
            prop_assert_eq!(want.addrs().collect::<Vec<_>>(), all.iter().map(|p| p.0).collect::<Vec<_>>());

            let mut pushed = buf_of(&head);
            for p in &pairs {
                pushed.push(access(p));
            }
            prop_assert_eq!(&pushed, &want);

            let mut appended = buf_of(&head);
            let mut rest = &pairs[..];
            for &k in pieces.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (now, later) = rest.split_at(k.min(rest.len()));
                let mut out = appended.appender();
                for &(a, s) in now {
                    out.push(a, s);
                }
                prop_assert_eq!(out.len(), held + pairs.len() - later.len());
                drop(out);
                rest = later;
            }
            appended.appender().push(0, false);
            prop_assert_eq!(appended.len(), held + pairs.len() + 1);
            prop_assert_eq!(appended.as_slice().slice(..all.len()), want.as_slice());

            let mut copied = buf_of(&head);
            copied.extend_from_slice(buf_of(&pairs).as_slice());
            prop_assert_eq!(&copied, &want);

            let trace: crate::Trace = all.iter().copied().collect();
            prop_assert_eq!(trace.accesses(), want.as_slice());
            // The decoders append the records of `pairs` alone onto the
            // held accesses.
            let tail: crate::Trace = pairs.iter().copied().collect();
            let bytes = crate::io::to_bytes(&tail);
            let header = crate::io::parse_header(&bytes).expect("a valid header");
            let records = &bytes[header.len..];
            let decoders = [Some(BlockDecode::portable()), BlockDecode::bmi2()];
            for kernel in decoders.into_iter().flatten() {
                let mut out = buf_of(&head);
                let run = kernel.decode_records(records, all.len(), &mut 0, &mut out);
                prop_assert!(run.failure.is_none(), "{}", kernel.name());
                prop_assert_eq!(&out, &want, "{}", kernel.name());
            }
            let mut out = buf_of(&head);
            ScalarDecode.decode_records(records, all.len(), &mut 0, &mut out);
            prop_assert_eq!(&out, &want);

            let view = want.as_slice();
            for start in 0..view.len().min(130) {
                let sub = view.slice(start..);
                prop_assert_eq!(pairs_of(sub), all[start..].to_vec());
                prop_assert_eq!(sub.addrs().len(), all.len() - start);
            }
        }
    }
}
