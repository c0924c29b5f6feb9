//! A growable bit set used to represent sets of variables and sets of
//! hyperedges.
//!
//! Structural decomposition algorithms are dominated by set algebra over
//! small universes (a query rarely has more than a few dozen variables or
//! atoms), so a dense bit set beats hash sets by a wide margin and gives us
//! cheap, allocation-free intersection/union/subset tests in the hot
//! separator-enumeration loops.

use std::fmt;

const WORD_BITS: usize = 64;

/// A dense, growable set of `usize` indices.
///
/// All binary operations accept sets of different lengths; missing words are
/// treated as zero. Trailing zero words are permitted (two representations
/// of the same set compare equal because [`PartialEq`] is value-based).
#[derive(Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s backing storage (the derived `clone_from` would
    /// allocate).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { words: Vec::new() }
    }

    /// Creates an empty set with capacity for indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(n.div_ceil(WORD_BITS)),
        }
    }

    /// Creates a set containing exactly the indices `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = BitSet::new();
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// The set of the one-bits of `word` (indices `0..64`).
    pub fn from_word(word: u64) -> Self {
        BitSet { words: vec![word] }
    }

    /// Overwrites the set with the one-bits of `word`, reusing the
    /// backing storage.
    pub fn set_word(&mut self, word: u64) {
        self.words.clear();
        self.words.push(word);
    }

    /// The set as one machine word, or `None` when an element is ≥ 64.
    pub fn as_word(&self) -> Option<u64> {
        match self.trimmed() {
            [] => Some(0),
            [word] => Some(*word),
            _ => None,
        }
    }

    /// Creates a set from an iterator of indices.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Inserts `idx`, growing the backing storage as needed.
    /// Returns `true` if the element was newly inserted.
    pub fn insert(&mut self, idx: usize) -> bool {
        let (w, b) = (idx / WORD_BITS, idx % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        newly
    }

    /// Removes `idx` if present. Returns `true` if it was present.
    pub fn remove(&mut self, idx: usize) -> bool {
        let (w, b) = (idx / WORD_BITS, idx % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        let (w, b) = (idx / WORD_BITS, idx % WORD_BITS);
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// `self ∪ other`, in place.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ∩ other`, in place.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// `self \ other`, in place.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= !other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Returns `self ∪ other` as a new set.
    #[must_use]
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    #[must_use]
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    #[must_use]
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// True if `self ⊆ a ∪ b`, without materializing the union — the
    /// word-level pre-check the separator enumeration runs on every
    /// branch (connector coverage against already-chosen ∪ still-available
    /// candidate variables).
    pub fn is_subset_of_union(&self, a: &BitSet, b: &BitSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let u = a.words.get(i).copied().unwrap_or(0) | b.words.get(i).copied().unwrap_or(0);
            w & !u == 0
        })
    }

    /// True if `self ∩ other = ∅`.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }

    /// True if `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &BitSet) -> bool {
        !self.is_disjoint(other)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Canonical word view with trailing zeros stripped (used for hashing).
    fn trimmed(&self) -> &[u64] {
        let mut end = self.words.len();
        while end > 0 && self.words[end - 1] == 0 {
            end -= 1;
        }
        &self.words[..end]
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.trimmed().hash(state);
    }
}

impl PartialOrd for BitSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.trimmed().cmp(other.trimmed())
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        BitSet::from_iter(iter)
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(100));
        assert!(s.contains(3));
        assert!(s.contains(100));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter([1, 2, 3, 70]);
        let b = BitSet::from_iter([2, 3, 4]);
        assert_eq!(a.union(&b), BitSet::from_iter([1, 2, 3, 4, 70]));
        assert_eq!(a.intersection(&b), BitSet::from_iter([2, 3]));
        assert_eq!(a.difference(&b), BitSet::from_iter([1, 70]));
        assert_eq!(b.difference(&a), BitSet::from_iter([4]));
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_iter([1, 2]);
        let b = BitSet::from_iter([1, 2, 3]);
        let c = BitSet::from_iter([65, 66]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(BitSet::new().is_subset(&a));
        // Different backing lengths still compare correctly.
        assert!(!c.is_subset(&a));
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = BitSet::from_iter([1]);
        a.insert(200);
        a.remove(200);
        let b = BitSet::from_iter([1]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s = BitSet::from_iter([64, 0, 5, 130]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 64, 130]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(BitSet::new().first(), None);
    }

    #[test]
    fn word_round_trip() {
        let s = BitSet::from_word(0b1010_0001 | 1 << 63);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 7, 63]);
        assert_eq!(s.as_word(), Some(0b1010_0001 | 1 << 63));
        assert_eq!(BitSet::new().as_word(), Some(0));
        let mut wide = BitSet::from_iter([3, 64]);
        assert_eq!(wide.as_word(), None);
        wide.remove(64);
        assert_eq!(wide.as_word(), Some(8), "trailing zero words do not count");
        wide.set_word(6);
        assert_eq!(wide, BitSet::from_iter([1, 2]));
        let mut copy = BitSet::from_iter([200]);
        copy.clone_from(&wide);
        assert_eq!(copy, wide);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        s.clear();
        assert!(s.is_empty());
    }
}
