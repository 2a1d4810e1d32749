//! Transpile-cache integration: bit-identical hits, key separation, obs
//! counters, and executor-level reuse.
//!
//! Lives in its own test binary (single `#[test]`) because it asserts on
//! the process-global transpile cache and metrics registry; unrelated
//! tests sharing the process would race those views.

use qukit::backend::{Backend, FakeDevice};
use qukit::job::{ExecutorConfig, JobExecutor};
use qukit::provider::Provider;
use qukit_aer::noise::NoiseModel;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::coupling::CouplingMap;
use qukit_terra::transpiler::{self, transpile_cached, MapperKind, TranspileOptions};

fn workload(n: usize) -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(n);
    for q in 0..n {
        circ.h(q).unwrap();
    }
    for q in 1..n {
        circ.cx(q - 1, q).unwrap();
        circ.t(q).unwrap();
    }
    circ.cx(0, n - 1).unwrap();
    circ
}

#[test]
fn transpile_cache_end_to_end() {
    let cache = transpiler::cache::global();
    cache.clear();
    qukit_obs::set_enabled(true);
    qukit_obs::reset();

    // --- Bit-identical hits --------------------------------------------
    let circ = workload(5);
    let mut opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
    opts.optimization_level = 3;
    opts.mapper = MapperKind::Sabre;
    let cold = transpile_cached(&circ, &opts).expect("cold transpile");
    let warm = transpile_cached(&circ, &opts).expect("warm transpile");
    assert_eq!(
        format!("{:?}", cold.circuit.instructions()),
        format!("{:?}", warm.circuit.instructions()),
        "cache hit must be bit-identical to the cold result"
    );
    assert_eq!(cold.circuit.global_phase().to_bits(), warm.circuit.global_phase().to_bits());
    assert_eq!(cold.initial_layout, warm.initial_layout);
    assert_eq!(cold.final_layout, warm.final_layout);
    let stats = cache.stats();
    assert_eq!(stats.hits, 1, "exactly one hit: {stats:?}");
    assert_eq!(stats.misses, 1, "exactly one miss: {stats:?}");
    assert_eq!(stats.inserts, 1);

    // --- Key separation across every option dimension -------------------
    // Same circuit at a different opt level, router, basis, and coupling
    // map: all must miss (no collisions), and each result must differ from
    // a plain hit where the pipeline differs.
    let mut variants = Vec::new();
    for level in 0..=3u8 {
        for mapper in [MapperKind::Basic, MapperKind::AStar, MapperKind::Sabre] {
            let mut v = opts.clone();
            v.optimization_level = level;
            v.mapper = mapper;
            variants.push(v);
        }
    }
    let mut line = opts.clone();
    line.coupling_map = Some(CouplingMap::line(5));
    variants.push(line);
    let mut flipped_basis = opts.clone();
    flipped_basis.basis_u = !opts.basis_u;
    variants.push(flipped_basis);
    let before = cache.stats();
    for v in &variants {
        transpile_cached(&circ, v).expect("variant transpiles");
    }
    let after = cache.stats();
    // The (level 3, Sabre) variant equals `opts`, which is already cached;
    // every other variant is a distinct key and must miss.
    assert_eq!(after.hits, before.hits + 1, "{after:?}");
    assert_eq!(after.misses, before.misses + (variants.len() as u64 - 1), "{after:?}");

    // --- Obs counters mirror the cache stats -----------------------------
    let snapshot = qukit_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("qukit_terra_transpile_cache_hits_total"), after.hits);
    assert_eq!(counter("qukit_terra_transpile_cache_misses_total"), after.misses);
    assert_eq!(counter("qukit_terra_transpile_cache_inserts_total"), after.inserts);

    // --- Backend-level reuse --------------------------------------------
    // The same payload through FakeDevice twice: the second run's
    // transpile is a pure cache hit, and seeded counts are identical.
    let device = FakeDevice::ibmqx4().with_noise(NoiseModel::new()).with_seed(77);
    let payload = workload(4);
    let before = cache.stats();
    let counts1 = device.run(&payload, 256).expect("first run");
    let counts2 = device.run(&payload, 256).expect("second run");
    let after = cache.stats();
    assert_eq!(after.misses, before.misses + 1, "first device transpile misses");
    assert!(after.hits > before.hits, "second device transpile hits");
    assert_eq!(
        format!("{counts1:?}"),
        format!("{counts2:?}"),
        "seeded runs through the cache stay deterministic"
    );

    // --- Executor-level reuse -------------------------------------------
    let mut provider = Provider::new();
    provider.register(Box::new(FakeDevice::ibmqx4().with_noise(NoiseModel::new()).with_seed(13)));
    let executor = JobExecutor::with_config(
        provider,
        ExecutorConfig { workers: 1, queue_capacity: 8, ..Default::default() },
    );
    let job_payload = workload(5);
    let before = cache.stats();
    let job1 = executor.submit(&job_payload, "ibmqx4", 128).expect("submit 1");
    let counts1 = job1.result(std::time::Duration::from_secs(30)).expect("job 1");
    let job2 = executor.submit(&job_payload, "ibmqx4", 128).expect("submit 2");
    let counts2 = job2.result(std::time::Duration::from_secs(30)).expect("job 2");
    executor.shutdown();
    let after = cache.stats();
    assert!(after.hits > before.hits, "resubmitted job must hit the transpile cache");
    assert_eq!(
        format!("{counts1:?}"),
        format!("{counts2:?}"),
        "seed-deterministic counts across cache hit"
    );

    qukit_obs::set_enabled(false);

    // --- Profiler determinism -------------------------------------------
    // The per-pass profiler must be a pure observer: transpiling with
    // metrics enabled and disabled yields bit-identical output at every
    // optimization level with both production routers.
    let circ = workload(5);
    for level in 0..=3u8 {
        for mapper in [MapperKind::Sabre, MapperKind::AStar] {
            let mut opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
            opts.optimization_level = level;
            opts.mapper = mapper;

            qukit_obs::set_enabled(false);
            let unprofiled = transpiler::transpile(&circ, &opts).expect("unprofiled");
            qukit_obs::set_enabled(true);
            qukit_obs::reset();
            let profiled = transpiler::transpile(&circ, &opts).expect("profiled");
            let snapshot = qukit_obs::registry().snapshot();
            qukit_obs::set_enabled(false);

            assert!(
                snapshot
                    .histograms
                    .iter()
                    .any(|(name, h)| name.starts_with("qukit_terra_pass_seconds") && h.count > 0),
                "profiled run must record pass timings (opt {level}, {mapper:?})"
            );
            assert_eq!(
                format!("{:?}", unprofiled.circuit.instructions()),
                format!("{:?}", profiled.circuit.instructions()),
                "profiler changed the transpile output (opt {level}, {mapper:?})"
            );
            assert_eq!(
                unprofiled.circuit.global_phase().to_bits(),
                profiled.circuit.global_phase().to_bits(),
                "profiler changed the global phase (opt {level}, {mapper:?})"
            );
            assert_eq!(unprofiled.initial_layout, profiled.initial_layout);
            assert_eq!(unprofiled.final_layout, profiled.final_layout);
            assert_eq!(unprofiled.num_swaps, profiled.num_swaps);
        }
    }
}
