//! The order-statistic structure over access timestamps.
//!
//! Olken's algorithm needs a dynamic set of timestamps supporting three
//! operations: insert a timestamp larger than all present ones, remove an
//! arbitrary present timestamp, and count how many present timestamps exceed
//! a given one. A Fenwick tree does all three in `O(log n)`.

/// A Fenwick (binary indexed) tree over timestamps.
///
/// Insertions are always of a timestamp strictly greater than every
/// timestamp ever inserted (logical time only moves forward); this is a
/// contract, not a checked invariant, and the tree exploits it.
///
/// Memory grows with the *trace length* rather than the footprint, which is
/// exactly the memory-bloat pathology of exhaustive measurement.
#[derive(Debug, Clone, Default)]
pub struct FenwickStructure {
    /// tree[i] covers a range of timestamp slots; 1-based indexing.
    tree: Vec<i32>,
    present: u64,
}

impl FenwickStructure {
    /// Creates an empty structure.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn grow_for(&mut self, t: u64) {
        let needed = usize::try_from(t).expect("timestamp exceeds usize") + 2;
        if self.tree.len() >= needed {
            return;
        }
        let old = self.tree.len();
        let new_len = needed.next_power_of_two();
        self.tree.resize(new_len, 0);
        // A new node at a power-of-two index `p` covers positions 1..=p;
        // since every present item sits at a position below the old length
        // (≤ p), its correct initial value is the full present count. All
        // other new nodes cover only brand-new (empty) positions.
        if old > 0 {
            let mut p = old; // old length is always a power of two here
            while p < new_len {
                self.tree[p] = i32::try_from(self.present).expect("present fits i32");
                p *= 2;
            }
        }
    }

    fn add(&mut self, t: u64, delta: i32) {
        let mut i = t as usize + 1; // 1-based
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Present timestamps `<= t`.
    fn prefix(&self, t: u64) -> u64 {
        let mut i = (t as usize + 1).min(self.tree.len().saturating_sub(1));
        let mut sum = 0i64;
        while i > 0 {
            sum += i64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum as u64
    }

    fn contains(&self, t: u64) -> bool {
        if t as usize + 1 >= self.tree.len() {
            return false;
        }
        self.prefix(t) > if t == 0 { 0 } else { self.prefix(t - 1) }
    }

    /// Inserts a timestamp strictly greater than all previously inserted.
    pub fn insert_latest(&mut self, t: u64) {
        self.grow_for(t);
        self.add(t, 1);
        self.present += 1;
    }

    /// Removes a timestamp. Returns true if it was present.
    pub fn remove(&mut self, t: u64) -> bool {
        if !self.contains(t) {
            return false;
        }
        self.add(t, -1);
        self.present -= 1;
        true
    }

    /// Counts present timestamps strictly greater than `t`.
    #[must_use]
    pub fn count_greater(&self, t: u64) -> u64 {
        self.present - self.prefix(t)
    }

    /// Number of timestamps currently present.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.present
    }

    /// Returns true if the structure is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Approximate heap bytes used, for memory-bloat accounting.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.tree.capacity() * std::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations_each_structure() {
        let mut s = FenwickStructure::new();
        assert!(s.is_empty());
        s.insert_latest(10);
        s.insert_latest(20);
        s.insert_latest(30);
        assert_eq!(s.len(), 3);
        assert_eq!(s.count_greater(5), 3);
        assert_eq!(s.count_greater(10), 2);
        assert_eq!(s.count_greater(20), 1);
        assert_eq!(s.count_greater(30), 0);
        assert!(s.remove(20));
        assert!(!s.remove(20), "double remove");
        assert_eq!(s.count_greater(10), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_absent_returns_false() {
        let mut s = FenwickStructure::new();
        assert!(!s.remove(42));
        s.insert_latest(1);
        assert!(!s.remove(0));
        assert!(!s.remove(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn count_greater_on_empty() {
        let s = FenwickStructure::new();
        assert_eq!(s.count_greater(0), 0);
        assert_eq!(s.count_greater(u64::MAX - 1), 0);
    }

    #[test]
    fn olken_like_sequence() {
        // Simulate the exact op pattern Olken performs.
        let mut s = FenwickStructure::new();
        // access a@0 b@1 c@2 a@3: distance of a = count_greater(0) = 2
        s.insert_latest(0);
        s.insert_latest(1);
        s.insert_latest(2);
        assert_eq!(s.count_greater(0), 2);
        assert!(s.remove(0));
        s.insert_latest(3);
        // access b@4: count_greater(1) = 2 (timestamps 2 and 3)
        assert_eq!(s.count_greater(1), 2);
    }

    #[test]
    fn structures_agree_on_random_workload() {
        // Deterministic pseudo-random op sequence, mirrored into the tree
        // and a naive Vec oracle. Gaps between inserted timestamps and
        // enough inserts to grow the tree several times over.
        let mut fen = FenwickStructure::new();
        let mut oracle: Vec<u64> = Vec::new();
        let mut state = 12345u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut next_t = 0u64;
        for _ in 0..2000 {
            match rand() % 3 {
                0 => {
                    fen.insert_latest(next_t);
                    oracle.push(next_t);
                    next_t += 1 + rand() % 5;
                }
                1 if !oracle.is_empty() => {
                    let victim = oracle.swap_remove((rand() % oracle.len() as u64) as usize);
                    assert!(fen.remove(victim));
                }
                _ => {
                    let q = if oracle.is_empty() || rand() % 2 == 0 {
                        rand() % (next_t + 1)
                    } else {
                        oracle[(rand() % oracle.len() as u64) as usize]
                    };
                    let expect = oracle.iter().filter(|&&x| x > q).count() as u64;
                    assert_eq!(fen.count_greater(q), expect, "q={q}");
                    assert_eq!(fen.len(), oracle.len() as u64);
                }
            }
        }
    }

    #[test]
    fn default_constructed_structures_are_empty_and_usable() {
        let mut s = FenwickStructure::default();
        assert!(s.is_empty());
        s.insert_latest(5);
        s.insert_latest(9);
        assert_eq!(s.count_greater(5), 1);
        assert!(s.remove(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn memory_accounting_nonzero_after_inserts() {
        let mut s = FenwickStructure::new();
        let before = s.memory_bytes();
        for t in 0..1000 {
            s.insert_latest(t);
        }
        assert!(s.memory_bytes() > before);
    }
}
