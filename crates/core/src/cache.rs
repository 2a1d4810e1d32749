//! Content-addressed result caching for repeated submissions.
//!
//! Production quantum workloads are repetitive: variational loops and
//! benchmark sweeps submit the *same* circuit to the *same* backend
//! thousands of times. Simulating each copy from scratch wastes the
//! service's scarce resource. This cache keys a finished job's outcome
//! **distribution** by `hash(emitted circuit, backend name, backend
//! noise fingerprint)`; a later submission with the same key skips the
//! simulator entirely and draws fresh shots from the cached
//! distribution — statistically a new run (each hit uses a different
//! deterministic seed), at the cost of a multinomial sample.
//!
//! The cache stores normalized probabilities, not raw counts, so a hit
//! can serve any shot count. It is bounded (least-recently-used
//! eviction) and **off by default**: exact bit-for-bit reproducibility
//! of a seeded backend is part of the executor's contract, and a cache
//! hit is sampled from the empirical distribution, not replayed from
//! the backend's RNG. Opt in via `ExecutorConfig::cache`.
//!
//! Storage, LRU eviction and counting are the shared
//! [`qukit_obs::cache::ContentCache`]; this module owns only the key and
//! what a hit carries.

use qukit_aer::counts::Counts;
use qukit_obs::cache::{CacheSeries, ContentCache};
use qukit_obs::hash::{splitmix64, Fnv128};
use std::sync::Arc;

/// Configuration of the executor's result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum cached distributions before LRU eviction.
    pub capacity: usize,
}

impl Default for CacheConfig {
    /// 256 cached distributions.
    fn default() -> Self {
        Self { capacity: 256 }
    }
}

impl CacheConfig {
    /// Builder: sets the entry capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

/// A cached outcome distribution: cumulative probabilities over the
/// observed outcomes, ready for CDF inversion sampling.
#[derive(Debug)]
pub struct CachedDistribution {
    num_clbits: usize,
    /// `(outcome, cumulative probability)` in ascending outcome order;
    /// the final cumulative value is 1.0 (up to rounding).
    cdf: Vec<(u64, f64)>,
}

impl CachedDistribution {
    fn from_counts(counts: &Counts) -> Self {
        let total = counts.total().max(1) as f64;
        let mut pairs: Vec<(u64, usize)> = counts.iter().collect();
        pairs.sort_unstable();
        let mut acc = 0.0;
        let cdf = pairs
            .into_iter()
            .map(|(outcome, n)| {
                acc += n as f64 / total;
                (outcome, acc)
            })
            .collect();
        Self { num_clbits: counts.num_clbits(), cdf }
    }

    /// Draws `shots` outcomes by CDF inversion with a deterministic
    /// SplitMix64 stream seeded by `seed`.
    pub fn sample(&self, shots: usize, seed: u64) -> Counts {
        let mut counts = Counts::new(self.num_clbits);
        let mut state = seed;
        for _ in 0..shots {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let outcome = self
                .cdf
                .iter()
                .find(|&&(_, cum)| u < cum)
                .or(self.cdf.last())
                .map_or(0, |&(outcome, _)| outcome);
            counts.record(outcome);
        }
        counts
    }
}

/// A successful cache probe: the distribution to re-sample plus the
/// trace id of the job whose run produced it, so a cache-hit span can
/// *link* to the producing trace instead of faking an execution.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The cached outcome distribution.
    pub distribution: Arc<CachedDistribution>,
    /// Trace id of the producing job (0 when unknown).
    pub producer_trace: u64,
}

impl CacheHit {
    /// The entry to cache for a finished run's counts, produced by the
    /// job with trace id `producer_trace`.
    pub fn from_run(counts: &Counts, producer_trace: u64) -> Self {
        Self { distribution: Arc::new(CachedDistribution::from_counts(counts)), producer_trace }
    }
}

/// The bounded, content-addressed result cache.
pub type ResultCache = ContentCache<CacheHit>;

/// The series every result cache records into.
pub(crate) static SERIES: CacheSeries = CacheSeries {
    hits: "qukit_core_cache_hits_total",
    misses: "qukit_core_cache_misses_total",
    inserts: "qukit_core_cache_insertions_total",
    evictions: "qukit_core_cache_evictions_total",
    entries: "qukit_core_cache_entries",
};

/// The content-address of a submission: the emitted circuit text, the
/// backend name, and the backend's noise/seed fingerprint (see
/// [`Backend::fingerprint`](crate::backend::Backend::fingerprint)).
pub fn key(qasm: &str, backend: &str, fingerprint: u64) -> u128 {
    Fnv128::new()
        .write(qasm.as_bytes())
        .write(&[0xff])
        .write(backend.as_bytes())
        .write(&fingerprint.to_le_bytes())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell_counts() -> Counts {
        let mut counts = Counts::new(2);
        counts.record_n(0b00, 480);
        counts.record_n(0b11, 520);
        counts
    }

    #[test]
    fn keys_separate_circuit_backend_and_fingerprint() {
        let base = key("qasm-a", "qasm_simulator", 1);
        assert_eq!(base, key("qasm-a", "qasm_simulator", 1));
        assert_ne!(base, key("qasm-b", "qasm_simulator", 1));
        assert_ne!(base, key("qasm-a", "dd_simulator", 1));
        assert_ne!(base, key("qasm-a", "qasm_simulator", 2));
    }

    #[test]
    fn sample_preserves_support_and_total() {
        let dist = CachedDistribution::from_counts(&bell_counts());
        let sampled = dist.sample(1000, 42);
        assert_eq!(sampled.total(), 1000);
        let outcomes: Vec<u64> = sampled.iter().map(|(o, _)| o).collect();
        assert!(outcomes.iter().all(|o| *o == 0b00 || *o == 0b11), "support preserved");
        // Both outcomes near p=0.5 appear in 1000 shots.
        assert_eq!(outcomes.len(), 2, "both outcomes sampled: {outcomes:?}");
        // Frequencies track the distribution loosely (p≈.48/.52).
        let zero = sampled.iter().find(|(o, _)| *o == 0).map_or(0, |(_, n)| n);
        assert!((300..700).contains(&zero), "p~0.48 outcome sampled {zero}/1000");
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_varies_across_seeds() {
        let dist = CachedDistribution::from_counts(&bell_counts());
        let pairs = |c: &Counts| {
            let mut v: Vec<(u64, usize)> = c.iter().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(pairs(&dist.sample(500, 7)), pairs(&dist.sample(500, 7)));
        assert_ne!(pairs(&dist.sample(500, 7)), pairs(&dist.sample(500, 8)));
    }

    #[test]
    fn lookup_miss_then_insert_then_hit() {
        let cache = ResultCache::new(4, &SERIES);
        let key = key("qasm", "qasm_simulator", 0);
        assert!(cache.lookup(key).is_none());
        cache.insert(key, CacheHit::from_run(&bell_counts(), 4242));
        let hit = cache.lookup(key).expect("cached");
        assert_eq!(hit.producer_trace, 4242, "hit names the producing trace");
        assert_eq!(hit.distribution.sample(10, 1).total(), 10);
    }
}
