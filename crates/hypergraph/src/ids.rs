//! Typed identifiers for variables and hyperedges, plus typed sets over
//! them.
//!
//! Using distinct newtypes for variable and edge indices prevents an entire
//! class of mix-ups in the decomposition algorithms, where both kinds of
//! index fly around in the same functions.

use crate::bitset::BitSet;
use std::fmt;

/// Index of a variable (vertex) within a [`crate::Hypergraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// Index of a hyperedge within a [`crate::Hypergraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl Var {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

macro_rules! typed_set {
    ($(#[$doc:meta])* $name:ident, $elem:ident) => {
        $(#[$doc])*
        #[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(BitSet);

        impl $name {
            /// Creates an empty set.
            pub fn new() -> Self {
                $name(BitSet::new())
            }

            /// Creates a set containing all indices `0..n`.
            pub fn full(n: usize) -> Self {
                $name(BitSet::full(n))
            }

            /// The untyped bits (index `i` stands for element `i`).
            pub fn bits(&self) -> &BitSet {
                &self.0
            }

            /// Mutable access to the untyped bits.
            pub fn bits_mut(&mut self) -> &mut BitSet {
                &mut self.0
            }

            /// Inserts an element; returns `true` if newly inserted.
            pub fn insert(&mut self, x: $elem) -> bool {
                self.0.insert(x.index())
            }

            /// Removes an element; returns `true` if it was present.
            pub fn remove(&mut self, x: $elem) -> bool {
                self.0.remove(x.index())
            }

            /// Membership test.
            #[inline]
            pub fn contains(&self, x: $elem) -> bool {
                self.0.contains(x.index())
            }

            /// Number of elements.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// True if the set is empty.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// In-place union.
            pub fn union_with(&mut self, other: &Self) {
                self.0.union_with(&other.0)
            }

            /// In-place intersection.
            pub fn intersect_with(&mut self, other: &Self) {
                self.0.intersect_with(&other.0)
            }

            /// In-place difference.
            pub fn difference_with(&mut self, other: &Self) {
                self.0.difference_with(&other.0)
            }

            /// Returns the union as a new set.
            #[must_use]
            pub fn union(&self, other: &Self) -> Self {
                $name(self.0.union(&other.0))
            }

            /// Returns the intersection as a new set.
            #[must_use]
            pub fn intersection(&self, other: &Self) -> Self {
                $name(self.0.intersection(&other.0))
            }

            /// Returns the difference as a new set.
            #[must_use]
            pub fn difference(&self, other: &Self) -> Self {
                $name(self.0.difference(&other.0))
            }

            /// True if `self ⊆ other`.
            pub fn is_subset(&self, other: &Self) -> bool {
                self.0.is_subset(&other.0)
            }

            /// True if `self ⊆ a ∪ b`, without materializing the union.
            pub fn is_subset_of_union(&self, a: &Self, b: &Self) -> bool {
                self.0.is_subset_of_union(&a.0, &b.0)
            }

            /// True if the sets share no element.
            pub fn is_disjoint(&self, other: &Self) -> bool {
                self.0.is_disjoint(&other.0)
            }

            /// True if the sets share at least one element.
            pub fn intersects(&self, other: &Self) -> bool {
                self.0.intersects(&other.0)
            }

            /// Iterates over elements in increasing index order.
            pub fn iter(&self) -> impl Iterator<Item = $elem> + '_ {
                self.0.iter().map(|i| $elem(i as u32))
            }

            /// Smallest element, if any.
            pub fn first(&self) -> Option<$elem> {
                self.0.first().map(|i| $elem(i as u32))
            }

            /// Removes all elements.
            pub fn clear(&mut self) {
                self.0.clear()
            }
        }

        impl From<BitSet> for $name {
            fn from(bits: BitSet) -> Self {
                $name(bits)
            }
        }

        impl FromIterator<$elem> for $name {
            fn from_iter<I: IntoIterator<Item = $elem>>(iter: I) -> Self {
                let mut s = $name::new();
                for x in iter {
                    s.insert(x);
                }
                s
            }
        }

        impl Extend<$elem> for $name {
            fn extend<I: IntoIterator<Item = $elem>>(&mut self, iter: I) {
                for x in iter {
                    self.insert(x);
                }
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.iter()).finish()
            }
        }
    };
}

typed_set!(
    /// A set of variables, backed by a dense bit set.
    VarSet,
    Var
);
typed_set!(
    /// A set of hyperedges, backed by a dense bit set.
    EdgeSet,
    EdgeId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varset_basics() {
        let mut s = VarSet::new();
        assert!(s.insert(Var(2)));
        assert!(!s.insert(Var(2)));
        assert!(s.contains(Var(2)));
        assert!(!s.contains(Var(3)));
        s.insert(Var(7));
        let v: Vec<Var> = s.iter().collect();
        assert_eq!(v, vec![Var(2), Var(7)]);
        assert_eq!(s.first(), Some(Var(2)));
    }

    #[test]
    fn edgeset_algebra() {
        let a: EdgeSet = [EdgeId(0), EdgeId(1)].into_iter().collect();
        let b: EdgeSet = [EdgeId(1), EdgeId(2)].into_iter().collect();
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.union(&b).len(), 3);
        assert!(a.intersects(&b));
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).is_subset(&a));
    }

    #[test]
    fn full_set() {
        let s = VarSet::full(5);
        assert_eq!(s.len(), 5);
        assert!(s.contains(Var(4)));
        assert!(!s.contains(Var(5)));
    }
}
