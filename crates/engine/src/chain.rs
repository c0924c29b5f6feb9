//! The chained-index hash table shared by the columnar join kernels
//! ([`crate::cops`]) and the spilled join's partitions
//! ([`crate::spill`]).

use crate::error::EvalError;
use crate::keyplan::MISS;

/// Sentinel terminating a [`ChainTable`] bucket chain. All ones, so
/// [`DirectTable::head`] can mask a miss to it.
pub(crate) const CHAIN_END: u32 = u32::MAX;

/// A chained-index hash table over build rows: an open-addressed slot
/// array maps a key hash to the first row of its chain, `next` links rows
/// sharing a hash. Key hashes arrive already well mixed (the kernels'
/// avalanche finalizers), so slots are probed by masking the hash
/// directly — no second hash function, no general-purpose map. Exactly
/// two allocations per build regardless of key distribution (the seed
/// kernel allocated a boxed key per row).
pub(crate) struct ChainTable {
    mask: usize,
    /// `(key hash, chain head)`; a head of [`CHAIN_END`] marks an empty slot.
    slots: Vec<(u64, u32)>,
    next: Vec<u32>,
}

impl ChainTable {
    /// Bytes a table over `n` rows will allocate (slot array + chain
    /// links), for memory-governor reservations *before* the build.
    pub(crate) fn byte_estimate(n: usize) -> u64 {
        let cap = (n.max(4) * 2).next_power_of_two();
        (cap * std::mem::size_of::<(u64, u32)>() + n * std::mem::size_of::<u32>()) as u64
    }

    /// Builds chains over `n` rows whose key hash is `hash(i)`. Iterates
    /// in reverse so each chain lists rows in ascending order. Slot count
    /// is `2n` rounded up to a power of two (≤50% load factor).
    pub(crate) fn build(n: usize, hash: impl Fn(usize) -> u64) -> ChainTable {
        let cap = (n.max(4) * 2).next_power_of_two();
        let mask = cap - 1;
        let mut slots: Vec<(u64, u32)> = vec![(0, CHAIN_END); cap];
        let mut next = vec![CHAIN_END; n];
        for i in (0..n).rev() {
            let h = hash(i);
            let mut s = (h as usize) & mask;
            loop {
                let (sh, head) = slots[s];
                if head == CHAIN_END {
                    slots[s] = (h, i as u32);
                    break;
                }
                if sh == h {
                    next[i] = head;
                    slots[s].1 = i as u32;
                    break;
                }
                s = (s + 1) & mask;
            }
        }
        ChainTable { mask, slots, next }
    }

    /// First row of the chain for `hash`, or [`CHAIN_END`].
    #[inline]
    pub(crate) fn head(&self, hash: u64) -> u32 {
        let mut s = (hash as usize) & self.mask;
        loop {
            let (sh, head) = self.slots[s];
            if head == CHAIN_END || sh == hash {
                return head;
            }
            s = (s + 1) & self.mask;
        }
    }

    /// The row after `i` in its chain, or [`CHAIN_END`]. Cursor primitive
    /// for the projections' chain walks ([`crate::cops::project`]).
    #[inline]
    pub(crate) fn next_row(&self, i: u32) -> u32 {
        self.next[i as usize]
    }

    /// Iterates the chain for `hash`, calling `f` with each row index.
    #[inline]
    pub(crate) fn for_each(
        &self,
        hash: u64,
        mut f: impl FnMut(usize) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let mut i = self.head(hash);
        while i != CHAIN_END {
            f(i as usize)?;
            i = self.next[i as usize];
        }
        Ok(())
    }

    /// True if any row in the chain for `hash` satisfies `f`.
    #[inline]
    pub(crate) fn any(&self, hash: u64, mut f: impl FnMut(usize) -> bool) -> bool {
        let mut i = self.head(hash);
        while i != CHAIN_END {
            if f(i as usize) {
                return true;
            }
            i = self.next[i as usize];
        }
        false
    }
}

/// A chained-index table addressed by a *packed key* instead of a hash:
/// slot `k` holds the first build row whose key packs to `k` (see
/// [`crate::keyplan::KeyPlan`]), and slot `range + i` the row after build
/// row `i` in its chain. Packing is exact, so a chain holds one key only —
/// no stored hash, no verification of candidates.
pub(crate) struct DirectTable {
    slots: Vec<u32>,
    range: usize,
}

impl DirectTable {
    /// Bytes a table over `n` rows and `range` packed keys allocates, or
    /// `None` when that overflows.
    pub(crate) fn byte_estimate(n: usize, range: u64) -> Option<u64> {
        let entry = std::mem::size_of::<u32>() as u64;
        range.checked_mul(entry)?.checked_add(n as u64 * entry)
    }

    /// An empty table over `range` packed keys and `n` build rows.
    pub(crate) fn new(n: usize, range: usize) -> DirectTable {
        DirectTable {
            slots: vec![CHAIN_END; range + n],
            range,
        }
    }

    /// Puts build row `i` at the front of key `k`'s chain; true if the
    /// chain already held a row. Callers insert rows in descending order,
    /// so every chain ascends — the order [`ChainTable::build`] produces.
    #[inline]
    pub(crate) fn push_front(&mut self, k: u64, i: u32) -> bool {
        let head = std::mem::replace(&mut self.slots[k as usize], i);
        self.slots[self.range + i as usize] = head;
        head != CHAIN_END
    }

    /// First row of key `k`'s chain, or [`CHAIN_END`] — also for
    /// [`MISS`], without a branch: a miss reads slot 0 and is masked to
    /// `CHAIN_END`, which is `u32::MAX`.
    #[inline]
    pub(crate) fn head(&self, k: u64) -> u32 {
        let miss = k == MISS;
        let slot = self.slots[(k & u64::from(miss).wrapping_sub(1)) as usize];
        slot | u32::from(miss).wrapping_neg()
    }

    /// The row after `i` in its chain, or [`CHAIN_END`].
    #[inline]
    pub(crate) fn next_row(&self, i: u32) -> u32 {
        self.slots[self.range + i as usize]
    }
}
