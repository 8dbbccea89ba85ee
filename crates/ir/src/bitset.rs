//! Dense fixed-capacity bit containers used by the dataflow analyses and
//! the interference graph: a word-packed [`BitSet`] and a triangular
//! symmetric [`BitMatrix`].

/// A dense bit set over `0..capacity`.
///
/// Liveness runs over thousands of virtual registers per function; a dense
/// word-packed set keeps the transfer functions cache-friendly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set able to hold elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity the set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `i`; returns true if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old & (1 << b) == 0
    }

    /// Remove `i`; returns true if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] &= !(1 << b);
        old & (1 << b) != 0
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self -= other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrite `self` with the contents of `other` without reallocating.
    ///
    /// The scratch-buffer primitive of the worklist dataflow: capacities
    /// must match so the word vectors can be copied directly.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// A symmetric boolean matrix over `0..n`, stored as the lower triangle
/// (diagonal included) packed into `u64` words.
///
/// This is the interference-graph membership structure: `set`/`contains`
/// are O(1) word operations, the whole matrix costs `n(n+1)/2` bits —
/// `n = 1024` fits in 64 KiB — and, unlike a hash set of pairs, queries
/// touch exactly one cache line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    n: usize,
}

impl BitMatrix {
    /// An empty symmetric relation over `0..n`.
    pub fn new(n: usize) -> Self {
        let bits = n * (n + 1) / 2;
        BitMatrix {
            words: vec![0; bits.div_ceil(64)],
            n,
        }
    }

    /// Number of rows/columns.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Re-initialize in place to an empty relation over `0..n`, reusing
    /// the word buffer: a matrix `reset` to a new dimension is
    /// indistinguishable from [`BitMatrix::new`] but skips the allocation
    /// when the buffer is already large enough.
    pub fn reset(&mut self, n: usize) {
        let bits = n * (n + 1) / 2;
        self.words.clear();
        self.words.resize(bits.div_ceil(64), 0);
        self.n = n;
    }

    /// Bit index of the unordered pair `(a, b)` in the lower triangle.
    #[inline]
    fn bit(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < self.n && b < self.n, "pair ({a},{b}) out of {}", self.n);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        hi * (hi + 1) / 2 + lo
    }

    /// Mark `a` and `b` as related; returns true if the pair was new.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if either index is out of range.
    #[inline]
    pub fn set(&mut self, a: usize, b: usize) -> bool {
        let i = self.bit(a, b);
        let (w, s) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << s;
        old & (1 << s) == 0
    }

    /// Are `a` and `b` related? (Symmetric.)
    #[inline]
    pub fn contains(&self, a: usize, b: usize) -> bool {
        let i = self.bit(a, b);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of related pairs (unordered, diagonal included).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no pair is related.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is one past the maximum element (or 0).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports not-new");
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(129));
        assert!(!s.remove(129));
        assert!(!s.contains(129));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        b.insert(42);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert!(a.contains(42));
    }

    #[test]
    fn subtract_removes() {
        let mut a = BitSet::new(10);
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::new(10);
        b.insert(2);
        a.subtract(&b);
        assert!(a.contains(1));
        assert!(!a.contains(2));
    }

    #[test]
    fn iter_in_order_across_words() {
        let mut s = BitSet::new(200);
        for i in [3, 64, 65, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5, 9]);
    }

    #[test]
    fn clear_and_empty() {
        let mut s = BitSet::new(8);
        assert!(s.is_empty());
        s.insert(7);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(1000));
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = BitSet::new(70);
        a.insert(3);
        let mut b = BitSet::new(70);
        b.insert(69);
        a.copy_from(&b);
        assert!(!a.contains(3));
        assert!(a.contains(69));
    }

    #[test]
    fn matrix_set_contains_symmetric() {
        let mut m = BitMatrix::new(130);
        assert!(m.is_empty());
        assert!(m.set(3, 98));
        assert!(!m.set(98, 3), "second set reports not-new");
        assert!(m.contains(3, 98));
        assert!(m.contains(98, 3));
        assert!(!m.contains(3, 97));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn matrix_diagonal_and_bounds() {
        let mut m = BitMatrix::new(5);
        assert!(m.set(4, 4));
        assert!(m.contains(4, 4));
        assert!(!m.contains(0, 0));
        assert_eq!(m.dim(), 5);
    }

    #[test]
    fn matrix_dense_fill_has_no_collisions() {
        // Every unordered pair maps to a distinct bit.
        let n = 40;
        let mut m = BitMatrix::new(n);
        let mut count = 0;
        for a in 0..n {
            for b in a..n {
                assert!(m.set(a, b), "pair ({a},{b}) collided");
                count += 1;
            }
        }
        assert_eq!(m.len(), count);
        assert_eq!(count, n * (n + 1) / 2);
    }
}
