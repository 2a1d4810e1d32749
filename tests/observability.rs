//! End-to-end observability check: one instrumented execution must
//! light up every layer of the stack.
//!
//! This lives in its own test binary (single `#[test]`) because it
//! toggles the process-global metrics registry; sharing a process with
//! unrelated tests would race their view of the registry.

use qukit::aer::noise::{NoiseModel, QuantumError};
use qukit::aer::simulator::QasmSimulator;
use qukit::job::{ExecutorConfig, JobExecutor};
use qukit::provider::Provider;
use qukit::terra::circuit::QuantumCircuit;

fn ghz(n: usize) -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(n);
    circ.h(0).unwrap();
    for q in 1..n {
        circ.cx(q - 1, q).unwrap();
    }
    circ
}

#[test]
fn instrumented_ghz_execution_lights_up_every_layer() {
    qukit_obs::set_enabled(true);
    qukit_obs::reset();

    // Layer 1+2: execute() on a fake device transpiles (mapping to the
    // ibmqx4 coupling graph) and simulates the 5-qubit GHZ.
    let device = qukit::backend::FakeDevice::ibmqx4().with_seed(11);
    let counts = qukit::execute::execute(&ghz(5), &device, 512).expect("ghz runs");
    assert_eq!(counts.total(), 512);

    // Layer 3: the same circuit through the job service.
    let executor = JobExecutor::with_config(
        Provider::with_defaults(),
        ExecutorConfig { workers: 1, queue_capacity: 4, ..Default::default() },
    );
    let job = executor.submit(&ghz(5), "qasm_simulator", 256).expect("submit");
    job.result(std::time::Duration::from_secs(30)).expect("job completes");
    executor.shutdown();

    // Layer 4: a DD run for the decision-diagram counters.
    let state = qukit::dd::simulator::DdSimulator::new().run(&ghz(5)).expect("dd runs");
    assert!(state.node_count() > 0);

    // Aer method choice: a reset under amplitude damping needs per-shot
    // trajectories, and routed circuits on a noiseless device stay
    // measurement-terminal, so none of them falls onto trajectories.
    let mut reset = QuantumCircuit::with_size(2, 2);
    reset.h(0).unwrap();
    reset.reset(0).unwrap();
    reset.cx(0, 1).unwrap();
    reset.measure_all();
    let mut damping = NoiseModel::new();
    damping.add_all_qubit_error("h", QuantumError::amplitude_damping(0.1));
    QasmSimulator::new().with_noise(damping).with_seed(3).run(&reset, 64).expect("runs");
    let trajectories = |snapshot: &qukit_obs::Snapshot| -> u64 {
        let series = snapshot.counters.iter();
        series.filter(|(name, _)| name.contains("method=\"trajectory\"")).map(|(_, n)| n).sum()
    };
    let before = trajectories(&qukit_obs::registry().snapshot());
    let noiseless = qukit::backend::FakeDevice::ibmqx5().with_noise(NoiseModel::new());
    for n in 3..=6 {
        for mut circuit in [ghz(n), qukit::aqua::circuits::qft_circuit(n)] {
            circuit.measure_all();
            qukit::execute::execute(&circuit, &noiseless, 128).expect("noiseless run");
        }
    }
    assert_eq!(trajectories(&qukit_obs::registry().snapshot()), before);

    let snapshot = qukit_obs::registry().snapshot();
    qukit_obs::set_enabled(false);

    // Transpiler: per-pass timings and run counters are nonzero.
    assert!(
        snapshot
            .histograms
            .iter()
            .any(|(name, h)| { name.starts_with("qukit_terra_pass_seconds") && h.count > 0 }),
        "transpiler pass timings missing: {:?}",
        snapshot.histograms.keys().collect::<Vec<_>>()
    );
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    assert!(counter("qukit_terra_transpile_runs_total") > 0);
    assert!(counter("qukit_terra_gates_in_total") > 0);

    // Simulator: gate applications and amplitude work are nonzero.
    assert!(counter("qukit_aer_qasm_runs_total") > 0);
    assert!(counter("qukit_aer_amplitudes_touched_total") > 0);
    assert!(counter("qukit_aer_shots_total") >= 512 + 256);

    // Method counter: the noisy device run sampled error patterns on the
    // terminal path, the ideal jobs took it without error sites, the reset
    // circuit ran trajectories.
    let method = |method: &str, reason: &str| {
        counter(&format!("qukit_aer_method_total{{method=\"{method}\",reason=\"{reason}\"}}"))
    };
    assert!(method("terminal", "mixed_unitary") > 0);
    assert!(method("terminal", "noiseless") > 0);
    assert_eq!(method("trajectory", "reset"), 1);
    // The noisy run's span reports how many distinct error patterns it
    // evolved: the error-free one and at least one with an error.
    let patterns = snapshot
        .trace
        .iter()
        .filter(|e| e.name == "aer.qasm_run" && e.detail.contains("reason=mixed_unitary"))
        .map(|e| {
            let value = e.detail.split("patterns=").nth(1).expect("patterns attribute");
            value.split(' ').next().unwrap().parse::<usize>().expect("pattern count")
        })
        .max()
        .expect("noisy run span");
    assert!(patterns > 1, "noisy GHZ evolved {patterns} pattern(s)");

    // Job service: the submission made it through the lifecycle.
    assert!(counter("qukit_core_jobs_submitted_total") > 0);
    assert!(counter("qukit_core_jobs_completed_total") > 0);
    let job_seconds = snapshot.histograms.get("qukit_core_job_seconds").expect("job latency");
    assert!(job_seconds.count > 0);

    // DD engine: unique-table traffic and node gauges are nonzero.
    assert!(counter("qukit_dd_unique_misses_total") > 0);
    assert!(counter("qukit_dd_compute_misses_total") > 0);
    assert!(snapshot.gauges.get("qukit_dd_nodes").copied().unwrap_or(0.0) > 0.0);
    // Arena telemetry: the live/peak gauges track the refcounted arena
    // (GHZ is tiny, so nothing was collected — live equals what the run
    // built and the GC counters exist but stay zero).
    let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0);
    assert!(gauge("qukit_dd_live_nodes") > 0.0);
    assert!(gauge("qukit_dd_peak_live_nodes") >= gauge("qukit_dd_live_nodes"));
    assert!(snapshot.counters.contains_key("qukit_dd_gc_runs_total"));
    assert!(snapshot.counters.contains_key("qukit_dd_gc_reclaimed_total"));
    // Weight telemetry: at least the canonical 0 and 1 are live.
    assert!(gauge("qukit_dd_weights") >= 2.0);
    assert!(snapshot.counters.contains_key("qukit_dd_gc_weights_reclaimed_total"));

    // Spans were recorded and the whole snapshot round-trips as JSON.
    assert!(snapshot.trace.iter().any(|e| e.name == "transpile"));
    assert!(snapshot.trace.iter().any(|e| e.name == "dd.run"));
    let json = qukit_obs::export::to_json(&snapshot);
    qukit_obs::export::validate_snapshot_json(&json).expect("snapshot schema-valid");
    let prometheus = qukit_obs::export::prometheus(&snapshot);
    assert!(prometheus.contains("qukit_terra_transpile_runs_total"));
}
