//! The differential runner: one circuit, every simulator, one verdict.
//!
//! For unitary circuits the runner computes its own reference state (a
//! deliberately naive gate-by-gate matrix application) and compares it
//! against the statevector simulator (threads forced on, tiny chunks, with
//! its SIMD and scalar kernels cross-checked bit for bit), the
//! decision-diagram simulator, the density-matrix simulator (diagonal),
//! the statevector and density engines again with the circuit embedded
//! in a register wide enough that they fuse it, and — when the circuit
//! is Clifford — a sampled run on the stabilizer
//! tableau. For circuits with
//! measurements/reset/conditionals it cross-checks the shot-based engines
//! statistically.
//!
//! The reference path looks gate matrices up through a [`MatrixTable`]
//! instead of calling [`Gate::matrix`] directly. That indirection exists
//! for the harness's own conformance: tests plant a deliberately wrong
//! matrix in the table and assert the differential oracle catches and
//! shrinks it (see `tests/planted_bug.rs`).

use qukit_aer::density::DensityMatrixSimulator;
use qukit_aer::parallel::{ParallelConfig, FUSION_MIN_QUBITS};
use qukit_aer::simulator::{QasmSimulator, StatevectorSimulator};
use qukit_aer::stabilizer::{StabilizerSimulator, StabilizerState};
use qukit_dd::simulator::DdSimulator;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::complex::Complex;
use qukit_terra::gate::Gate;
use qukit_terra::instruction::Operation;
use qukit_terra::matrix::Matrix;
use std::fmt;

/// Maximum width the density-matrix engine accepts (ρ is `4^n` complex).
const DENSITY_MAX_QUBITS: usize = 12;

/// A conformance violation: which oracle tripped and a human-readable
/// description precise enough to triage without re-running.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Oracle name (`differential`, `inverse`, `roundtrip`, `transpile`).
    pub oracle: String,
    /// What disagreed, where, and by how much.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Gate-name → matrix lookup used by the reference executor.
///
/// `pristine()` defers to [`Gate::matrix`]; overrides replace the matrix
/// for every gate with the given OpenQASM name (parameterized gates are
/// overridden wholesale — good enough for planting bugs in tests).
#[derive(Debug, Clone, Default)]
pub struct MatrixTable {
    overrides: Vec<(String, Matrix)>,
}

impl MatrixTable {
    /// The faithful table: every lookup returns `Gate::matrix()`.
    pub fn pristine() -> Self {
        Self::default()
    }

    /// Replaces the matrix of every gate named `name` (builder style).
    pub fn with_override(mut self, name: &str, matrix: Matrix) -> Self {
        self.overrides.push((name.to_owned(), matrix));
        self
    }

    /// Resolves the matrix for a gate.
    pub fn matrix(&self, gate: &Gate) -> Matrix {
        let name = gate.name();
        for (n, m) in &self.overrides {
            if n == name {
                return m.clone();
            }
        }
        gate.matrix()
    }

    /// Whether any override is installed.
    pub fn is_pristine(&self) -> bool {
        self.overrides.is_empty()
    }
}

/// Tolerances and sampling parameters of the differential comparison.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Shots for the sampled engines (qasm, stabilizer).
    pub shots: usize,
    /// Seed for the sampled engines.
    pub seed: u64,
    /// Per-amplitude absolute tolerance for exact engines.
    pub amp_tolerance: f64,
    /// Minimum Hellinger fidelity between a sampled histogram and the
    /// exact distribution (or between two sampled histograms).
    pub min_sample_fidelity: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self { shots: 2048, seed: 7, amp_tolerance: 1e-6, min_sample_fidelity: 0.97 }
    }
}

/// Executes circuits on all applicable simulators and compares results.
#[derive(Debug, Clone, Default)]
pub struct DifferentialRunner {
    /// Comparison parameters.
    pub config: DiffConfig,
    /// Reference-path gate matrices (see [`MatrixTable`]).
    pub matrices: MatrixTable,
}

impl DifferentialRunner {
    /// Creates a runner with the given comparison parameters.
    pub fn new(config: DiffConfig) -> Self {
        Self { config, matrices: MatrixTable::pristine() }
    }

    /// Installs a matrix table (builder style).
    pub fn with_matrices(mut self, matrices: MatrixTable) -> Self {
        self.matrices = matrices;
        self
    }

    /// Runs the differential comparison; `None` means every engine agreed.
    pub fn check(&self, circuit: &QuantumCircuit) -> Option<Mismatch> {
        if is_unitary_circuit(circuit) {
            self.check_unitary(circuit)
        } else {
            self.check_sampled(circuit)
        }
    }

    /// Reference statevector via the (possibly overridden) matrix table.
    fn reference_state(&self, circuit: &QuantumCircuit) -> Vec<Complex> {
        let mut state = vec![Complex::ZERO; 1 << circuit.num_qubits()];
        state[0] = Complex::ONE;
        for inst in circuit.instructions() {
            if let Operation::Gate(g) = &inst.op {
                let matrix = self.matrices.matrix(g);
                qukit_terra::reference::apply_gate(&mut state, &matrix, &inst.qubits);
            }
        }
        if circuit.global_phase() != 0.0 {
            let phase = Complex::cis(circuit.global_phase());
            for amp in &mut state {
                *amp *= phase;
            }
        }
        state
    }

    fn check_unitary(&self, circuit: &QuantumCircuit) -> Option<Mismatch> {
        let reference = self.reference_state(circuit);

        // The statevector engine runs with threading forced on (tiny chunks
        // so even fuzz-sized circuits split across workers). Both kernel
        // flavours run — SIMD and scalar — and beyond matching the
        // reference to tolerance, they must match each other bit for bit.
        let run = |simd| {
            let config = ParallelConfig { threads: 2, chunk_qubits: 2, simd };
            StatevectorSimulator::new().with_parallel(config).run(circuit)
        };
        let sv = match run(true) {
            Ok(sv) => sv,
            Err(e) => return Some(engine_error("statevector", &e)),
        };
        if let Some(m) = self.compare_amplitudes("statevector", &reference, sv.amplitudes()) {
            return Some(m);
        }
        let scalar = match run(false) {
            Ok(sv) => sv,
            Err(e) => return Some(engine_error("statevector_scalar", &e)),
        };
        if scalar.amplitudes() != sv.amplitudes() {
            let idx = scalar
                .amplitudes()
                .iter()
                .zip(sv.amplitudes())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Some(Mismatch {
                oracle: "differential".to_owned(),
                detail: format!(
                    "statevector SIMD kernels diverge bitwise from scalar kernels at \
                     amplitude {idx}: {} vs {}",
                    sv.amplitudes()[idx],
                    scalar.amplitudes()[idx]
                ),
            });
        }

        let dd = match DdSimulator::new().run(circuit) {
            Ok(state) => state,
            Err(e) => return Some(engine_error("dd", &e)),
        };
        if let Some(m) = self.compare_amplitudes("dd", &reference, &dd.to_statevector()) {
            return Some(m);
        }

        if circuit.num_qubits() <= DENSITY_MAX_QUBITS {
            let rho = match DensityMatrixSimulator::new().run(circuit) {
                Ok(rho) => rho,
                Err(e) => return Some(engine_error("density", &e)),
            };
            if let Some(m) = self.compare_probabilities("density", &reference, &rho.probabilities())
            {
                return Some(m);
            }
        }

        if let Some(m) = self.check_fused(circuit, &reference) {
            return Some(m);
        }

        if is_clifford_circuit(circuit) {
            if let Some(m) = self.check_stabilizer_sampling(circuit, &reference) {
                return Some(m);
            }
        }
        None
    }

    /// Reruns the circuit embedded in a register as wide as the engine's
    /// fusion threshold. Fuzz circuits are narrower than that, so without
    /// this the fusion pre-pass and the fused lowering — one-sided on the
    /// statevector, conjugated two-sided on the density matrix (whose flat
    /// array has `2n` index bits) — would never see the generator's gate
    /// mix. The extra qubits stay in |0⟩, so the reference is the
    /// original one padded with zero amplitudes.
    fn check_fused(&self, circuit: &QuantumCircuit, reference: &[Complex]) -> Option<Mismatch> {
        let embed = |width: usize| {
            let mut wide = QuantumCircuit::with_size(width, circuit.num_clbits());
            wide.compose(circuit).expect("a wider register holds the circuit");
            let mut expect = reference.to_vec();
            expect.resize(1 << width, Complex::ZERO);
            (wide, expect)
        };
        // Several chunks, split across two workers.
        let config = ParallelConfig { threads: 2, chunk_qubits: FUSION_MIN_QUBITS - 3, simd: true };
        if circuit.num_qubits() < FUSION_MIN_QUBITS {
            let (wide, expect) = embed(FUSION_MIN_QUBITS);
            let sv = match StatevectorSimulator::new().with_parallel(config).run(&wide) {
                Ok(sv) => sv,
                Err(e) => return Some(engine_error("statevector_fused", &e)),
            };
            if let Some(m) = self.compare_amplitudes("statevector_fused", &expect, sv.amplitudes())
            {
                return Some(m);
            }
        }
        let density_width = FUSION_MIN_QUBITS.div_ceil(2);
        if circuit.num_qubits() < density_width {
            let (wide, expect) = embed(density_width);
            let rho = match DensityMatrixSimulator::new().with_parallel(config).run(&wide) {
                Ok(rho) => rho,
                Err(e) => return Some(engine_error("density_fused", &e)),
            };
            return self.compare_probabilities("density_fused", &expect, &rho.probabilities());
        }
        None
    }

    /// Samples a Clifford circuit on the tableau and compares the empirical
    /// distribution against the exact one via the Hellinger fidelity.
    fn check_stabilizer_sampling(
        &self,
        circuit: &QuantumCircuit,
        reference: &[Complex],
    ) -> Option<Mismatch> {
        let mut measured = circuit.clone();
        measured.measure_all();
        let counts = match StabilizerSimulator::new()
            .with_seed(self.config.seed)
            .run(&measured, self.config.shots)
        {
            Ok(counts) => counts,
            Err(e) => return Some(engine_error("stabilizer", &e)),
        };
        if counts.total() != self.config.shots {
            return Some(Mismatch {
                oracle: "differential".to_owned(),
                detail: format!(
                    "stabilizer counts sum to {} instead of {} shots",
                    counts.total(),
                    self.config.shots
                ),
            });
        }
        let mut fidelity = 0.0;
        for (outcome, n) in counts.iter() {
            let empirical = n as f64 / self.config.shots as f64;
            let exact = reference[outcome as usize].norm_sqr();
            fidelity += (empirical * exact).sqrt();
        }
        let fidelity = fidelity * fidelity;
        if fidelity < self.config.min_sample_fidelity {
            return Some(Mismatch {
                oracle: "differential".to_owned(),
                detail: format!(
                    "stabilizer sampling fidelity {fidelity:.4} below threshold {} \
                     ({} shots)",
                    self.config.min_sample_fidelity, self.config.shots
                ),
            });
        }
        None
    }

    /// Differential check for circuits with measurements, resets or
    /// conditionals: the shot-based engines must agree statistically and
    /// conserve probability mass.
    fn check_sampled(&self, circuit: &QuantumCircuit) -> Option<Mismatch> {
        let counts = match QasmSimulator::new()
            .with_seed(self.config.seed)
            .run(circuit, self.config.shots)
        {
            Ok(counts) => counts,
            Err(e) => return Some(engine_error("qasm", &e)),
        };
        if counts.total() != self.config.shots {
            return Some(Mismatch {
                oracle: "differential".to_owned(),
                detail: format!(
                    "qasm counts sum to {} instead of {} shots",
                    counts.total(),
                    self.config.shots
                ),
            });
        }
        if is_clifford_circuit(circuit) {
            let stab = match StabilizerSimulator::new()
                .with_seed(self.config.seed.wrapping_add(1))
                .run(circuit, self.config.shots)
            {
                Ok(counts) => counts,
                Err(e) => return Some(engine_error("stabilizer", &e)),
            };
            let fidelity = counts.hellinger_fidelity(&stab);
            if fidelity < self.config.min_sample_fidelity {
                return Some(Mismatch {
                    oracle: "differential".to_owned(),
                    detail: format!(
                        "qasm vs stabilizer histogram fidelity {fidelity:.4} below \
                         threshold {}",
                        self.config.min_sample_fidelity
                    ),
                });
            }
        }
        None
    }

    fn compare_amplitudes(
        &self,
        engine: &str,
        reference: &[Complex],
        actual: &[Complex],
    ) -> Option<Mismatch> {
        if reference.len() != actual.len() {
            return Some(Mismatch {
                oracle: "differential".to_owned(),
                detail: format!(
                    "{engine} returned {} amplitudes, reference has {}",
                    actual.len(),
                    reference.len()
                ),
            });
        }
        for (idx, (r, a)) in reference.iter().zip(actual).enumerate() {
            let err = (*r - *a).norm();
            if err > self.config.amp_tolerance {
                return Some(Mismatch {
                    oracle: "differential".to_owned(),
                    detail: format!(
                        "{engine} amplitude diverges at basis state {idx}: \
                         reference {r}, {engine} {a} (|Δ| = {err:.3e})"
                    ),
                });
            }
        }
        None
    }

    /// Compares an engine's basis-state probabilities with `|amp|²` of the
    /// reference state.
    fn compare_probabilities(
        &self,
        engine: &str,
        reference: &[Complex],
        probabilities: &[f64],
    ) -> Option<Mismatch> {
        for (idx, (p, amp)) in probabilities.iter().zip(reference).enumerate() {
            if (p - amp.norm_sqr()).abs() > self.config.amp_tolerance.max(1e-9) {
                return Some(Mismatch {
                    oracle: "differential".to_owned(),
                    detail: format!(
                        "{engine} probability diverges at basis state {idx}: \
                         {p} vs |{amp}|² = {}",
                        amp.norm_sqr()
                    ),
                });
            }
        }
        None
    }
}

fn engine_error(engine: &str, error: &dyn fmt::Display) -> Mismatch {
    Mismatch {
        oracle: "differential".to_owned(),
        detail: format!("{engine} engine refused the circuit: {error}"),
    }
}

/// Only gates and barriers, no conditions — every exact engine applies.
pub fn is_unitary_circuit(circuit: &QuantumCircuit) -> bool {
    circuit.instructions().iter().all(|inst| {
        inst.condition.is_none() && matches!(inst.op, Operation::Gate(_) | Operation::Barrier)
    })
}

/// Whether every gate stays inside the stabilizer formalism.
pub fn is_clifford_circuit(circuit: &QuantumCircuit) -> bool {
    let mut tableau = StabilizerState::new(circuit.num_qubits());
    circuit.instructions().iter().all(|inst| match &inst.op {
        Operation::Gate(g) => tableau.apply_gate(*g, &inst.qubits).is_ok(),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> QuantumCircuit {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ
    }

    #[test]
    fn agreeing_engines_pass() {
        let runner = DifferentialRunner::default();
        assert!(runner.check(&bell()).is_none());
        let mut parameterized = QuantumCircuit::new(3);
        parameterized.h(0).unwrap();
        parameterized.rx(0.3, 1).unwrap();
        parameterized.ccx(0, 1, 2).unwrap();
        parameterized.append(Gate::Rzz(0.7), &[0, 2]).unwrap();
        assert!(runner.check(&parameterized).is_none());
    }

    #[test]
    fn planted_matrix_bug_is_detected() {
        // Sign-flipped Hadamard in the reference path only.
        let mut wrong = Matrix::hadamard();
        wrong[(1, 0)] = -wrong[(1, 0)];
        wrong[(1, 1)] = -wrong[(1, 1)];
        let runner = DifferentialRunner::default()
            .with_matrices(MatrixTable::pristine().with_override("h", wrong));
        let mismatch = runner.check(&bell()).expect("bug must be caught");
        assert_eq!(mismatch.oracle, "differential");
        assert!(mismatch.detail.contains("statevector"), "{}", mismatch.detail);
    }

    #[test]
    fn sampled_circuits_conserve_shots() {
        let runner = DifferentialRunner::default();
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        assert!(runner.check(&circ).is_none());
    }

    #[test]
    fn conditional_circuits_use_the_sampled_path() {
        let runner = DifferentialRunner::default();
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.measure(0, 0).unwrap();
        circ.append_conditional(qukit_terra::gate::Gate::X, &[1], "c", 1).unwrap();
        circ.measure(1, 1).unwrap();
        assert!(!is_unitary_circuit(&circ));
        assert!(runner.check(&circ).is_none());
    }

    #[test]
    fn clifford_detection() {
        assert!(is_clifford_circuit(&bell()));
        let mut t = QuantumCircuit::new(1);
        t.t(0).unwrap();
        assert!(!is_clifford_circuit(&t));
    }
}
