//! A generation-stamped LRU cache for repeated-user top-k queries.
//!
//! Real recommendation traffic is heavily skewed (the `serve_bench` load
//! generator models it as Zipf-distributed users), so a small cache in
//! front of the scoring + top-k path absorbs most of the load. Entries are
//! stamped with the engine's **generation** counter: swapping in a new
//! artifact bumps the generation once, which logically invalidates every
//! cached list without walking the map — stale entries are then evicted
//! lazily on lookup or when capacity pressure reclaims them first.

use std::collections::HashMap;

/// An LRU map from query keys to frozen top-k lists.
///
/// Recency is tracked with a monotonic tick; eviction scans for the
/// least-recently-used entry in `O(capacity)`, which is deliberate — the
/// cache sits behind a mutex shared by all serve workers, so a simple
/// compact map beats a pointer-chasing linked-list LRU at the small
/// capacities (≤ tens of thousands of users) it is meant for.
///
/// ```
/// use bns_serve::TopKCache;
///
/// let mut cache = TopKCache::new(2);
/// cache.insert(1, 0, &[10, 20]);
/// assert_eq!(cache.get(1, 0), Some(&[10, 20][..]));
/// // A generation bump (artifact swap) invalidates the entry.
/// assert_eq!(cache.get(1, 1), None);
/// ```
#[derive(Debug)]
pub struct TopKCache {
    capacity: usize,
    tick: u64,
    map: HashMap<u128, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    generation: u64,
    last_used: u64,
    items: Vec<u32>,
}

impl TopKCache {
    /// Creates a cache holding at most `capacity` lists (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be >= 1");
        Self {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
        }
    }

    /// Maximum number of cached lists.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently cached lists (stale generations included until
    /// they are lazily reclaimed).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key` at `generation`. A hit refreshes the entry's
    /// recency; an entry from an older generation is evicted and reported
    /// as a miss.
    pub fn get(&mut self, key: u128, generation: u64) -> Option<&[u32]> {
        let live = match self.map.get(&key) {
            Some(e) => e.generation == generation,
            None => return None,
        };
        if !live {
            self.map.remove(&key);
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(&key).expect("presence checked above");
        e.last_used = tick;
        Some(&e.items)
    }

    /// Inserts (or replaces) the list for `key` at `generation`, evicting
    /// the least-recently-used entry when at capacity.
    pub fn insert(&mut self, key: u128, generation: u64, items: &[u32]) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Prefer reclaiming a stale-generation entry; otherwise the LRU.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| (e.generation == generation, e.last_used))
                .map(|(&k, _)| k)
                .expect("non-empty at capacity");
            self.map.remove(&victim);
        }
        let tick = self.tick;
        let entry = self.map.entry(key).or_insert_with(|| CacheEntry {
            generation,
            last_used: tick,
            items: Vec::new(),
        });
        entry.generation = generation;
        entry.last_used = tick;
        entry.items.clear();
        entry.items.extend_from_slice(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = TopKCache::new(4);
        assert_eq!(c.get(1, 0), None);
        c.insert(1, 0, &[5, 6]);
        assert_eq!(c.get(1, 0), Some(&[5, 6][..]));
        assert_eq!(c.get(2, 0), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = TopKCache::new(2);
        c.insert(1, 0, &[1]);
        c.insert(2, 0, &[2]);
        let _ = c.get(1, 0); // 1 is now more recent than 2
        c.insert(3, 0, &[3]); // evicts 2
        assert_eq!(c.get(2, 0), None);
        assert_eq!(c.get(1, 0), Some(&[1][..]));
        assert_eq!(c.get(3, 0), Some(&[3][..]));
    }

    #[test]
    fn generation_bump_invalidates() {
        let mut c = TopKCache::new(4);
        c.insert(1, 0, &[1, 2, 3]);
        c.insert(2, 0, &[4]);
        assert_eq!(c.get(1, 1), None, "old generation must miss");
        assert_eq!(c.len(), 1, "stale entry evicted on lookup");
        c.insert(1, 1, &[9]);
        assert_eq!(c.get(1, 1), Some(&[9][..]));
    }

    #[test]
    fn stale_entries_evicted_before_live_ones() {
        let mut c = TopKCache::new(2);
        c.insert(1, 0, &[1]); // stale after the bump below
        c.insert(2, 1, &[2]);
        c.insert(3, 1, &[3]); // at capacity: must evict stale key 1, not key 2
        assert_eq!(c.get(2, 1), Some(&[2][..]));
        assert_eq!(c.get(3, 1), Some(&[3][..]));
    }

    #[test]
    fn replace_reuses_entry() {
        let mut c = TopKCache::new(2);
        c.insert(1, 0, &[1, 2, 3]);
        c.insert(1, 0, &[4]);
        assert_eq!(c.get(1, 0), Some(&[4][..]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        TopKCache::new(0);
    }
}
