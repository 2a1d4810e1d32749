//! A bounded, content-addressed LRU cache with metrics.
//!
//! Both of qukit's caches — the transpile cache in terra and the
//! executor's result cache in core — are this one type with a different
//! value and key function. Keys are 128-bit content hashes (see
//! [`crate::hash::Fnv128`]); the domain module decides what goes into
//! one. The cache itself only stores, evicts and counts:
//!
//! - one `Mutex` guards the map, so a hit costs one lock and one clone
//!   of the value (callers store an `Arc` when the value is large);
//! - when a new key arrives at capacity, the least-recently-used entry
//!   is evicted (a linear scan for the oldest recency tick);
//! - [`CacheStats`] counts hits, misses, inserts and evictions, and the
//!   same events go to the registry under the names in the cache's
//!   [`CacheSeries`] table.

use std::collections::HashMap;
use std::sync::Mutex;

/// The metric names one cache records into.
#[derive(Debug)]
pub struct CacheSeries {
    /// Counter bumped on every lookup that finds its key.
    pub hits: &'static str,
    /// Counter bumped on every lookup that does not.
    pub misses: &'static str,
    /// Counter bumped on every insert.
    pub inserts: &'static str,
    /// Counter bumped on every LRU eviction.
    pub evictions: &'static str,
    /// Gauge holding the resident entry count.
    pub entries: &'static str,
}

/// Counters describing one cache's behaviour since creation or the last
/// [`ContentCache::clear`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored.
    pub inserts: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct State<V> {
    entries: HashMap<u128, Entry<V>>,
    tick: u64,
    stats: CacheStats,
}

/// A bounded LRU map from 128-bit content keys to `V`.
pub struct ContentCache<V> {
    capacity: usize,
    series: &'static CacheSeries,
    state: Mutex<State<V>>,
}

impl<V: Clone> ContentCache<V> {
    /// An empty cache holding at most `capacity` entries (minimum 1),
    /// recording into `series`. Allocates nothing until the first insert.
    pub fn new(capacity: usize, series: &'static CacheSeries) -> Self {
        Self {
            capacity: capacity.max(1),
            series,
            state: Mutex::new(State {
                entries: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State<V>> {
        self.state.lock().expect("content cache lock")
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn lookup(&self, key: u128) -> Option<V> {
        let mut state = self.state();
        state.tick += 1;
        let tick = state.tick;
        match state.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                state.stats.hits += 1;
                crate::counter_inc(self.series.hits);
                Some(value)
            }
            None => {
                state.stats.misses += 1;
                crate::counter_inc(self.series.misses);
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry
    /// when a new key arrives at capacity.
    pub fn insert(&self, key: u128, value: V) {
        let mut state = self.state();
        state.tick += 1;
        let tick = state.tick;
        if !state.entries.contains_key(&key) && state.entries.len() >= self.capacity {
            if let Some(&victim) =
                state.entries.iter().min_by_key(|(_, entry)| entry.last_used).map(|(key, _)| key)
            {
                state.entries.remove(&victim);
                state.stats.evictions += 1;
                crate::counter_inc(self.series.evictions);
            }
        }
        state.entries.insert(key, Entry { value, last_used: tick });
        state.stats.inserts += 1;
        crate::counter_inc(self.series.inserts);
        crate::gauge_set(self.series.entries, state.entries.len() as f64);
    }

    /// Current stats snapshot.
    pub fn stats(&self) -> CacheStats {
        let state = self.state();
        CacheStats { entries: state.entries.len(), ..state.stats }
    }

    /// Empties the cache and resets its stats.
    pub fn clear(&self) {
        let mut state = self.state();
        state.entries.clear();
        state.stats = CacheStats::default();
        crate::gauge_set(self.series.entries, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SERIES: CacheSeries = CacheSeries {
        hits: "qukit_obs_test_cache_hits_total",
        misses: "qukit_obs_test_cache_misses_total",
        inserts: "qukit_obs_test_cache_inserts_total",
        evictions: "qukit_obs_test_cache_evictions_total",
        entries: "qukit_obs_test_cache_entries",
    };

    #[test]
    fn lru_evicts_the_least_recently_used_and_counts_into_its_series() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        let cache = ContentCache::new(2, &SERIES);
        assert_eq!(cache.lookup(1), None);
        cache.insert(1, "one");
        cache.insert(2, "two");
        assert_eq!(cache.lookup(1), Some("one"), "refresh key 1 so key 2 is LRU");
        cache.insert(3, "three");
        assert_eq!(cache.lookup(2), None, "key 2 was least recently used");
        assert_eq!((cache.lookup(1), cache.lookup(3)), (Some("one"), Some("three")));
        cache.insert(3, "three'");
        assert_eq!(cache.lookup(3), Some("three'"), "re-inserting replaces the value");

        let stats = cache.stats();
        let expected = CacheStats { hits: 4, misses: 2, inserts: 4, evictions: 1, entries: 2 };
        assert_eq!(stats, expected);
        let snapshot = crate::registry().snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter(SERIES.hits), stats.hits);
        assert_eq!(counter(SERIES.misses), stats.misses);
        assert_eq!(counter(SERIES.inserts), stats.inserts);
        assert_eq!(counter(SERIES.evictions), stats.evictions);
        assert_eq!(snapshot.gauges.get(SERIES.entries).copied(), Some(2.0));

        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(crate::registry().snapshot().gauges.get(SERIES.entries).copied(), Some(0.0));
        crate::reset();
        crate::set_enabled(false);
    }
}
