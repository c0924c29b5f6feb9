//! The set representation the decomposition search is generic over.
//!
//! Every set the search handles — components, connectors, λ, χ, the
//! assigned edges — is a set of edge or variable indices of one
//! hypergraph. When the hypergraph has at most 64 edges and 64 variables
//! each fits one machine word and the whole enumeration runs on `u64`
//! registers; larger hypergraphs use the heap [`BitSet`]. [`Mask`] is the
//! handful of operations both provide; `search` holds the one body
//! written against it.

use htqo_hypergraph::BitSet;
use std::hash::Hash;

/// A set of small indices, cheap to copy when it is a word.
pub(crate) trait Mask: Clone + Default + Eq + Hash {
    /// Reads a set out of the caller's representation. Panics when the
    /// set does not fit (the caller picks the representation that does).
    fn load(bits: &BitSet) -> Self;
    /// Overwrites `out` with this set, reusing `out`'s storage.
    fn store(&self, out: &mut BitSet);
    fn to_bits(&self) -> BitSet;

    fn insert(&mut self, i: usize);
    fn contains(&self, i: usize) -> bool;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool;
    fn union_with(&mut self, other: &Self);
    fn intersect_with(&mut self, other: &Self);
    fn difference_with(&mut self, other: &Self);
    fn is_subset(&self, other: &Self) -> bool;
    /// `self ⊆ a ∪ b` without materializing the union.
    fn is_subset_of_union(&self, a: &Self, b: &Self) -> bool;
    /// Elements in increasing order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_;

    /// Smallest element, if any.
    fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The indices `0..n`.
    fn full(n: usize) -> Self {
        let mut s = Self::default();
        (0..n).for_each(|i| s.insert(i));
        s
    }
}

impl Mask for u64 {
    fn load(bits: &BitSet) -> Self {
        bits.as_word()
            .expect("word masks are chosen only when every set fits 64 bits")
    }
    fn store(&self, out: &mut BitSet) {
        out.set_word(*self);
    }
    fn to_bits(&self) -> BitSet {
        BitSet::from_word(*self)
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        *self |= 1 << i;
    }
    #[inline]
    fn contains(&self, i: usize) -> bool {
        self >> i & 1 != 0
    }
    #[inline]
    fn len(&self) -> usize {
        self.count_ones() as usize
    }
    #[inline]
    fn is_empty(&self) -> bool {
        *self == 0
    }
    #[inline]
    fn union_with(&mut self, other: &Self) {
        *self |= other;
    }
    #[inline]
    fn intersect_with(&mut self, other: &Self) {
        *self &= other;
    }
    #[inline]
    fn difference_with(&mut self, other: &Self) {
        *self &= !other;
    }
    #[inline]
    fn is_subset(&self, other: &Self) -> bool {
        self & !other == 0
    }
    #[inline]
    fn is_subset_of_union(&self, a: &Self, b: &Self) -> bool {
        self & !(a | b) == 0
    }
    #[inline]
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rest = *self;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i
            })
        })
    }
}

impl Mask for BitSet {
    fn load(bits: &BitSet) -> Self {
        bits.clone()
    }
    fn store(&self, out: &mut BitSet) {
        out.clone_from(self);
    }
    fn to_bits(&self) -> BitSet {
        self.clone()
    }

    fn insert(&mut self, i: usize) {
        BitSet::insert(self, i);
    }
    fn contains(&self, i: usize) -> bool {
        BitSet::contains(self, i)
    }
    fn len(&self) -> usize {
        BitSet::len(self)
    }
    fn is_empty(&self) -> bool {
        BitSet::is_empty(self)
    }
    fn union_with(&mut self, other: &Self) {
        BitSet::union_with(self, other);
    }
    fn intersect_with(&mut self, other: &Self) {
        BitSet::intersect_with(self, other);
    }
    fn difference_with(&mut self, other: &Self) {
        BitSet::difference_with(self, other);
    }
    fn is_subset(&self, other: &Self) -> bool {
        BitSet::is_subset(self, other)
    }
    fn is_subset_of_union(&self, a: &Self, b: &Self) -> bool {
        BitSet::is_subset_of_union(self, a, b)
    }
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        BitSet::iter(self)
    }
}
