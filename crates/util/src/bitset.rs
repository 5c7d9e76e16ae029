//! A dense, fixed-capacity bitset.

/// A dense bitset over `u64` words.
///
/// The capacity is fixed at construction. All operations panic on
/// out-of-range indices (this is a correctness-critical internal structure,
/// so silent truncation would hide bugs).
///
/// # Examples
///
/// ```
/// use mrbc_util::DenseBitset;
/// let mut b = DenseBitset::new(100);
/// b.set(3);
/// b.set(64);
/// assert!(b.get(3));
/// assert_eq!(b.count_ones(), 2);
/// assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseBitset {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitset {
    /// Creates an empty bitset able to hold `len` bits, all initially zero.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the capacity is zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
    }

    /// Sets bit `i`. Returns `true` if the bit was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        self.check(i);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        self.check(i);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.check(i);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Bitwise OR of `other` into `self`. Panics on capacity mismatch.
    pub fn union_with(&mut self, other: &DenseBitset) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Bitwise AND of `other` into `self`. Panics on capacity mismatch.
    pub fn intersect_with(&mut self, other: &DenseBitset) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }
}

/// Iterator over set-bit indices of a [`DenseBitset`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let b = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + b);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_bitset() {
        let b = DenseBitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = DenseBitset::new(130);
        assert!(b.set(0));
        assert!(b.set(63));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(64), "setting twice reports already-set");
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert!(b.clear(63));
        assert!(!b.clear(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = DenseBitset::new(10);
        b.set(10);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = DenseBitset::new(70);
        let mut b = DenseBitset::new(70);
        a.set(1);
        a.set(69);
        b.set(69);
        b.set(2);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 69]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![69]);
    }

    proptest! {
        #[test]
        fn prop_matches_reference_set(bits in proptest::collection::btree_set(0usize..500, 0..100)) {
            let mut b = DenseBitset::new(500);
            for &i in &bits {
                b.set(i);
            }
            prop_assert_eq!(b.count_ones(), bits.len());
            let got: Vec<usize> = b.iter_ones().collect();
            let want: Vec<usize> = bits.iter().copied().collect();
            prop_assert_eq!(&got, &want);
        }

        #[test]
        fn prop_clear_restores_none(bits in proptest::collection::vec(0usize..200, 0..50)) {
            let mut b = DenseBitset::new(200);
            for &i in &bits {
                b.set(i);
            }
            for &i in &bits {
                b.clear(i);
            }
            prop_assert!(b.none());
        }
    }
}
