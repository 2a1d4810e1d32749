//! Transpile-once batched parameter sweeps.
//!
//! The Estimator-primitive traffic shape — one ansatz, many angle points —
//! is pathological for the per-job pipeline: every binding would pay
//! validation, journaling, admission, transpilation and a fresh
//! statevector allocation for a circuit that differs from its siblings
//! only in a handful of rotation angles. [`run_sweep`] collapses that
//! overhead:
//!
//! 1. the template (with sentinel angles, see
//!    [`qukit_terra::parameter`]) is transpiled **once** through
//!    [`Backend::prepare_circuit`] — one transpile-cache entry for the
//!    whole sweep;
//! 2. the transpiled instruction stream is scanned for surviving
//!    sentinels and validated end to end against a direct per-binding
//!    transpile of the first binding — if any pass folded a sentinel
//!    away, the sweep silently falls back to per-binding preparation;
//! 3. all bound circuits run through [`Backend::run_batch`], which the
//!    statevector backend overrides to reuse one amplitude buffer across
//!    bindings.
//!
//! Results are bit-identical to submitting each binding as its own job
//! against the same seeded backend: the validation step guarantees the
//! prepared circuits match, and `run_batch`'s contract guarantees the
//! execution matches.

use crate::backend::Backend;
use crate::error::Result;
use crate::execute::validate_submission;
use qukit_aer::counts::Counts;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::parameter::{patch_sentinels, scan_sentinels, ParameterizedCircuit};

/// The outcome of a sweep: per-binding histograms plus how the circuits
/// were prepared.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One counts histogram per binding, in input order.
    pub counts: Vec<Counts>,
    /// `true` when the template was transpiled once and angle-patched per
    /// binding; `false` when the sweep fell back to per-binding
    /// preparation (a transpiler pass destroyed the sentinels).
    pub transpiled_once: bool,
}

/// Runs `bindings` of `template` on `backend`, transpiling the template
/// once when the transpiled form can be angle-patched safely.
///
/// Terminal measurements are added to the template when missing, exactly
/// like [`execute`](crate::execute::execute).
///
/// # Errors
///
/// Propagates validation errors (zero shots, circuit wider than the
/// backend), binding errors (wrong value-vector length), transpilation
/// and execution errors.
pub fn run_sweep(
    backend: &dyn Backend,
    template: &ParameterizedCircuit,
    bindings: &[Vec<f64>],
    shots: usize,
) -> Result<SweepReport> {
    let _span = qukit_obs::span!(
        "core.run_sweep",
        backend = backend.name(),
        bindings = bindings.len(),
        params = template.num_parameters()
    );
    validate_submission(template.template(), backend, shots)?;
    if bindings.is_empty() {
        return Ok(SweepReport { counts: Vec::new(), transpiled_once: false });
    }

    // Measure-all must be appended before binding so instruction indices
    // recorded in the template stay valid (appending at the end never
    // disturbs earlier sites).
    let measured;
    let template = if template.template().has_measurements() {
        template
    } else {
        let mut with_measure = template.clone();
        with_measure.circuit_mut().measure_all();
        measured = with_measure;
        &measured
    };

    let circuits = prepare_bindings(backend, template, bindings)?;
    qukit_obs::counter_add_with(
        "qukit_core_sweep_bindings_total",
        &[("backend", backend.name())],
        bindings.len() as u64,
    );
    if circuits.transpiled_once {
        qukit_obs::counter_inc("qukit_core_sweep_template_reuse_total");
    } else {
        qukit_obs::counter_inc("qukit_core_sweep_fallback_total");
    }
    let counts = backend.run_batch(&circuits.circuits, shots)?;
    Ok(SweepReport { counts, transpiled_once: circuits.transpiled_once })
}

struct PreparedSweep {
    circuits: Vec<QuantumCircuit>,
    transpiled_once: bool,
}

/// Prepares one executable circuit per binding, reusing a single
/// transpilation of the template whenever that provably reproduces the
/// per-binding result.
fn prepare_bindings(
    backend: &dyn Backend,
    template: &ParameterizedCircuit,
    bindings: &[Vec<f64>],
) -> Result<PreparedSweep> {
    let prepared = backend.prepare_circuit(template.template())?;
    let sites = scan_sentinels(&prepared, template.num_parameters());

    // Validate the scan end to end on the first binding: patching the
    // prepared template must reproduce what the backend would prepare for
    // that binding directly. Any pass that folded, split or re-derived a
    // sentinel angle makes the comparison fail and forces the fallback.
    let first_direct = backend.prepare_circuit(&template.bind(&bindings[0])?)?;
    let first_patched = patch_sentinels(&prepared, &sites, &bindings[0])?;
    if first_patched != first_direct {
        let circuits = bindings
            .iter()
            .map(|values| backend.prepare_circuit(&template.bind(values)?))
            .collect::<Result<Vec<_>>>()?;
        return Ok(PreparedSweep { circuits, transpiled_once: false });
    }

    let mut circuits = Vec::with_capacity(bindings.len());
    circuits.push(first_patched);
    for values in &bindings[1..] {
        circuits.push(patch_sentinels(&prepared, &sites, values)?);
    }
    Ok(PreparedSweep { circuits, transpiled_once: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FakeDevice, QasmSimulatorBackend};
    use qukit_aer::parallel::ParallelConfig;

    fn two_local(num_qubits: usize) -> (ParameterizedCircuit, usize) {
        let mut pc = ParameterizedCircuit::new(num_qubits);
        let params: Vec<_> = (0..2 * num_qubits).map(|i| pc.parameter(format!("t{i}"))).collect();
        for (q, &param) in params.iter().take(num_qubits).enumerate() {
            pc.ry(param, q).unwrap();
        }
        for q in 0..num_qubits - 1 {
            pc.circuit_mut().cx(q, q + 1).unwrap();
        }
        for (q, &param) in params.iter().skip(num_qubits).enumerate() {
            pc.ry(param, q).unwrap();
        }
        (pc, 2 * num_qubits)
    }

    fn grid(num_params: usize, points: usize) -> Vec<Vec<f64>> {
        (0..points)
            .map(|p| (0..num_params).map(|i| 0.2 + 0.05 * (p * num_params + i) as f64).collect())
            .collect()
    }

    #[test]
    fn sweep_matches_per_binding_execution_on_simulator() {
        let (pc, num_params) = two_local(3);
        let bindings = grid(num_params, 6);
        let backend = QasmSimulatorBackend::new().with_seed(11).with_parallel(ParallelConfig {
            threads: 2,
            chunk_qubits: 2,
            simd: true,
        });
        let report = run_sweep(&backend, &pc, &bindings, 256).unwrap();
        assert!(report.transpiled_once, "simulator backends never disturb sentinels");
        assert_eq!(report.counts.len(), bindings.len());
        for (values, counts) in bindings.iter().zip(&report.counts) {
            let mut bound = pc.bind(values).unwrap();
            bound.measure_all();
            let direct = backend.run(&bound, 256).unwrap();
            assert_eq!(counts, &direct, "sweep must be bit-identical to per-binding runs");
        }
    }

    #[test]
    fn sweep_transpiles_once_on_device_backends() {
        // At optimization level 1 the device transpiler copies rotation
        // angles verbatim, so the sentinel validation holds and the
        // template is transpiled exactly once.
        let (pc, num_params) = two_local(3);
        let bindings = grid(num_params, 4);
        let backend = FakeDevice::ibmqx4()
            .with_noise(qukit_aer::noise::NoiseModel::new())
            .with_seed(5)
            .with_opt_level(1);
        let report = run_sweep(&backend, &pc, &bindings, 200).unwrap();
        assert!(report.transpiled_once, "opt level 1 must preserve sentinel angles");
        assert_eq!(report.counts.len(), bindings.len());
        for (values, counts) in bindings.iter().zip(&report.counts) {
            let mut bound = pc.bind(values).unwrap();
            bound.measure_all();
            let direct = backend.run(&bound, 200).unwrap();
            assert_eq!(counts, &direct);
        }
    }

    #[test]
    fn sweep_falls_back_when_optimizer_rewrites_angles() {
        // The default optimization level (2) re-derives 1q angles, which
        // destroys the sentinels; the sweep must detect that via the
        // first-binding validation, fall back to per-binding preparation,
        // and still produce bit-identical results.
        let (pc, num_params) = two_local(3);
        let bindings = grid(num_params, 4);
        let backend =
            FakeDevice::ibmqx4().with_noise(qukit_aer::noise::NoiseModel::new()).with_seed(5);
        let report = run_sweep(&backend, &pc, &bindings, 200).unwrap();
        assert!(!report.transpiled_once, "opt level 2 folds sentinel angles");
        assert_eq!(report.counts.len(), bindings.len());
        for (values, counts) in bindings.iter().zip(&report.counts) {
            let mut bound = pc.bind(values).unwrap();
            bound.measure_all();
            let direct = backend.run(&bound, 200).unwrap();
            assert_eq!(counts, &direct);
        }
    }

    #[test]
    fn empty_sweep_returns_no_counts() {
        let (pc, _) = two_local(2);
        let report = run_sweep(&QasmSimulatorBackend::new(), &pc, &[], 100).unwrap();
        assert!(report.counts.is_empty());
    }

    #[test]
    fn zero_shots_is_rejected() {
        let (pc, num_params) = two_local(2);
        let err = run_sweep(&QasmSimulatorBackend::new(), &pc, &grid(num_params, 1), 0);
        assert!(err.is_err());
    }
}
