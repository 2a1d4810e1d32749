//! The transpile cache: repeated service traffic skips the pipeline.
//!
//! Transpilation is by far the most expensive step for small repeated
//! circuits (the PR 6 multi-tenant workload resubmits identical payloads
//! constantly), and it is fully deterministic: the same circuit, coupling
//! map, routing options, optimization level and basis produce the same
//! output. [`transpile_cached`] therefore keys results by a dual-FNV
//! 128-bit content hash of `(circuit, coupling map, mapper, initial
//! layout, opt level, basis)` and returns a **clone of the cached
//! [`TranspileResult`]** on a hit — bit-identical to a fresh transpile,
//! because [`super::transpile`] itself is deterministic.
//!
//! Storage, LRU eviction and counting are the shared
//! [`qukit_obs::cache::ContentCache`]; this module owns only the key,
//! the process-wide instance and [`transpile_cached`]. Hits and misses
//! are observable through
//! `qukit_terra_transpile_cache_{hits,misses,inserts,evictions}_total`
//! and the `qukit_terra_transpile_cache_entries` gauge; `qukit bench
//! --transpile` uses the same path to prove the ≥10× hit/cold speedup.

use super::{transpile, TranspileOptions, TranspileResult};
use crate::circuit::QuantumCircuit;
use crate::error::Result;
use qukit_obs::cache::{CacheSeries, ContentCache};
use qukit_obs::hash::Fnv128;
use std::sync::OnceLock;

pub use qukit_obs::cache::CacheStats;

/// A bounded LRU cache of transpile results.
pub type TranspileCache = ContentCache<TranspileResult>;

/// The series every transpile cache records into.
pub static SERIES: CacheSeries = CacheSeries {
    hits: "qukit_terra_transpile_cache_hits_total",
    misses: "qukit_terra_transpile_cache_misses_total",
    inserts: "qukit_terra_transpile_cache_inserts_total",
    evictions: "qukit_terra_transpile_cache_evictions_total",
    entries: "qukit_terra_transpile_cache_entries",
};

/// Content hash of a transpile request. Every input that can change the
/// output is folded in: the full instruction stream (operations,
/// operands, conditions, global phase, register shape), the coupling map
/// (name, size and exact edge set), and all routing/optimization
/// options. Two different opt levels, coupling maps or basis settings
/// therefore never share a key.
pub fn key(circuit: &QuantumCircuit, options: &TranspileOptions) -> u128 {
    let mut hasher = Fnv128::new();
    hasher
        .field(&(circuit.num_qubits() as u64).to_le_bytes())
        .field(&(circuit.num_clbits() as u64).to_le_bytes())
        .field(&circuit.global_phase().to_bits().to_le_bytes());
    for inst in circuit.instructions() {
        hasher.field(format!("{inst:?}").as_bytes());
    }

    match &options.coupling_map {
        Some(map) => {
            hasher
                .field(b"coupled")
                .field(map.name().as_bytes())
                .field(&(map.num_qubits() as u64).to_le_bytes());
            for (a, b) in map.edges() {
                hasher.field(&(a as u64).to_le_bytes()).field(&(b as u64).to_le_bytes());
            }
        }
        None => {
            hasher.field(b"all-to-all");
        }
    }
    hasher
        .field(format!("{:?}", options.mapper).as_bytes())
        .field(format!("{:?}", options.initial_layout).as_bytes())
        .field(&[options.optimization_level, u8::from(options.basis_u)])
        .finish()
}

/// The process-wide transpile cache used by [`transpile_cached`].
pub fn global() -> &'static TranspileCache {
    static CACHE: OnceLock<TranspileCache> = OnceLock::new();
    CACHE.get_or_init(|| TranspileCache::new(256, &SERIES))
}

/// [`transpile`] through the process-wide cache: a hit returns a clone of
/// the stored result (bit-identical to a fresh transpile), a miss runs
/// the pipeline and stores the outcome.
///
/// # Errors
///
/// Same failure modes as [`transpile`] (errors are not cached).
pub fn transpile_cached(
    circuit: &QuantumCircuit,
    options: &TranspileOptions,
) -> Result<TranspileResult> {
    let key = key(circuit, options);
    if let Some(result) = global().lookup(key) {
        return Ok(result);
    }
    let result = transpile(circuit, options)?;
    global().insert(key, result.clone());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::fig1_circuit;
    use crate::coupling::CouplingMap;
    use crate::transpiler::MapperKind;

    #[test]
    fn keys_separate_every_option_dimension() {
        let circ = fig1_circuit();
        let base_opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
        let base = key(&circ, &base_opts);
        assert_eq!(base, key(&circ, &base_opts), "key is deterministic");

        let mut level = base_opts.clone();
        level.optimization_level = 3;
        assert_ne!(base, key(&circ, &level));

        let mut mapper = base_opts.clone();
        mapper.mapper = MapperKind::AStar;
        assert_ne!(base, key(&circ, &mapper));

        let mut basis = base_opts.clone();
        basis.basis_u = true;
        assert_ne!(base, key(&circ, &basis));

        let line = TranspileOptions::for_device(CouplingMap::line(5));
        assert_ne!(base, key(&circ, &line));

        let mut other_circ = circ.clone();
        other_circ.h(0).unwrap();
        assert_ne!(base, key(&other_circ, &base_opts));
    }
}
