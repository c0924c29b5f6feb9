//! The sharded, lock-striped LRU map behind both caches of the serving
//! path: the optimizer's shape-canonical plan cache
//! ([`crate::HybridOptimizer`]) and the service's SQL-text statement
//! cache.
//!
//! Each shard is an independently locked exact LRU (a monotonic access
//! stamp per entry; eviction is O(shard capacity), fine at this size), so
//! concurrent sessions touching different keys never contend on one lock.
//! Values are only ever reached through a closure run under the shard
//! lock ([`ShardedLru::with`]) or cloned out of it ([`ShardedLru::get`]):
//! keep values cheap to clone (`Arc`) and closures short.

use htqo_hypergraph::FxHasher;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// Lock stripes (when capacity allows that many).
const SHARDS: usize = 8;

struct Shard<K, V> {
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

/// A bounded map with per-shard LRU eviction. Capacity 0 disables it:
/// nothing is retained and every lookup misses.
pub struct ShardedLru<K, V> {
    capacity: usize,
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-shard capacities summing exactly to `capacity`.
    shard_caps: Vec<usize>,
}

impl<K: Hash + Eq, V> ShardedLru<K, V> {
    /// An empty map retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let n = SHARDS.min(capacity.max(1));
        let shards = (0..n)
            .map(|_| {
                Mutex::new(Shard {
                    tick: 0,
                    map: HashMap::new(),
                })
            })
            .collect();
        let shard_caps = (0..n)
            .map(|i| capacity / n + usize::from(i < capacity % n))
            .collect();
        ShardedLru {
            capacity,
            shards,
            shard_caps,
        }
    }

    /// The configured bound on retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// False for a capacity-0 map, which retains nothing.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Entries currently retained across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock(i).map.len()).sum()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn lock(&self, i: usize) -> MutexGuard<'_, Shard<K, V>> {
        // A panic while holding a shard lock can only come from a
        // caller's `with` closure; the map itself is never left
        // mid-update, so the guard is recovered.
        self.shards[i].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs `f` on the entry under `key` while holding its shard lock and
    /// marks the entry most recently used. `None` when there is no entry.
    pub fn with<Q, R>(&self, key: &Q, f: impl FnOnce(&mut V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.enabled() {
            return None;
        }
        let mut shard = self.lock(self.shard_of(key));
        shard.tick += 1;
        let tick = shard.tick;
        let (stamp, value) = shard.map.get_mut(key)?;
        *stamp = tick;
        Some(f(value))
    }

    /// A clone of the entry under `key`, marked most recently used.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.with(key, |v| v.clone())
    }

    /// Inserts (or replaces) an entry and evicts the shard's LRU overflow.
    pub fn insert(&self, key: K, value: V) {
        if !self.enabled() {
            return;
        }
        let i = self.shard_of(&key);
        let cap = self.shard_caps[i].max(1);
        let mut shard = self.lock(i);
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(key, (tick, value));
        while shard.map.len() > cap {
            // Stamps are unique within a shard, so this drops exactly
            // the least recently used entry.
            let oldest = shard
                .map
                .values()
                .map(|(t, _)| *t)
                .min()
                .expect("non-empty over capacity");
            shard.map.retain(|_, (t, _)| *t != oldest);
        }
    }

    /// Drops the entry under `key`, if any.
    pub fn remove<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.enabled() {
            self.lock(self.shard_of(key)).map.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_within_capacity() {
        // Capacity 2 ⇒ two one-entry shards: only the global bound is
        // observable without knowing which shard a key lands in.
        let lru: ShardedLru<String, u32> = ShardedLru::new(2);
        for i in 0..20u32 {
            lru.insert(format!("k{i}"), i);
            assert!(lru.len() <= 2);
        }
        // Capacity 1 is a single shard: plain LRU order is observable.
        let lru: ShardedLru<String, u32> = ShardedLru::new(1);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        assert_eq!(lru.get("a"), None);
        assert_eq!(lru.get("b"), Some(2));
        assert_eq!(lru.with("b", |v| std::mem::replace(v, 3)), Some(2));
        assert_eq!(lru.get("b"), Some(3));
        lru.remove("b");
        assert!(lru.is_empty());
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        // 16 entries over 8 shards leaves 2 per shard; find two keys
        // sharing a shard with a third and check the touched one stays.
        let lru: ShardedLru<u32, u32> = ShardedLru::new(16);
        let shard0: Vec<u32> = (0..200).filter(|k| lru.shard_of(k) == 0).take(3).collect();
        let [a, b, c] = shard0[..] else {
            panic!("three keys land in shard 0")
        };
        lru.insert(a, 0);
        lru.insert(b, 0);
        assert!(lru.get(&a).is_some());
        lru.insert(c, 0);
        assert!(lru.get(&a).is_some(), "recently used entry kept");
        assert!(lru.get(&b).is_none(), "least recently used entry evicted");
    }

    #[test]
    fn capacity_zero_retains_nothing() {
        let lru: ShardedLru<String, u32> = ShardedLru::new(0);
        lru.insert("a".into(), 1);
        assert!(!lru.enabled());
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.get("a"), None);
    }
}
