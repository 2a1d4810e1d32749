//! Noisy sampling held to the exact density-matrix result.
//!
//! `QasmSimulator` samples noise: the terminal path draws each shot's
//! Pauli error pattern first and evolves each distinct pattern once, the
//! trajectory path evolves one state per shot. Both must draw from the
//! distribution `DensityMatrixSimulator` computes exactly, with readout
//! error folded in through its assignment matrix. Counts are held to it by
//! total-variation distance under the McDiarmid bound of
//! `default_config_counts_match_reference_probabilities_at_2_to_12_qubits`
//! and must not depend on the thread count.

use qukit::aer::density::{DensityMatrix, DensityMatrixSimulator};
use qukit::aer::noise::{NoiseModel, QuantumError, ReadoutError};
use qukit::aer::parallel::{ParallelConfig, FUSION_MIN_QUBITS};
use qukit::aer::simulator::QasmSimulator;
use qukit::backend::{Backend, FakeDevice};
use qukit::terra::complex::Complex;
use qukit::terra::instruction::{Instruction, Operation};
use qukit::terra::matrix::Matrix;
use qukit::{Counts, QuantumCircuit};

/// A 5-qubit circuit with rotations, a CX chain and a long-range CX.
fn logical_circuit() -> QuantumCircuit {
    let mut circ = QuantumCircuit::with_size(5, 5);
    for q in 0..5 {
        circ.ry(0.3 + 0.25 * q as f64, q).unwrap();
    }
    for q in 0..4 {
        circ.cx(q, q + 1).unwrap();
    }
    circ.rz(0.7, 2).unwrap();
    circ.cx(4, 0).unwrap();
    circ.h(3).unwrap();
    circ.cx(1, 3).unwrap();
    for q in 0..5 {
        circ.measure(q, q).unwrap();
    }
    circ
}

/// The circuit on its active qubits only (barriers dropped), so the
/// density oracle stays small.
fn compact(circuit: &QuantumCircuit) -> QuantumCircuit {
    let active = |inst: &&Instruction| !matches!(inst.op, Operation::Barrier);
    let mut used: Vec<usize> =
        circuit.instructions().iter().filter(active).flat_map(|i| i.qubits.clone()).collect();
    used.sort_unstable();
    used.dedup();
    let mut out = QuantumCircuit::with_size(used.len(), circuit.num_clbits());
    for inst in circuit.instructions().iter().filter(active) {
        let mut inst = inst.clone();
        for q in &mut inst.qubits {
            *q = used.binary_search(q).unwrap();
        }
        out.push(inst).unwrap();
    }
    out
}

/// The circuit without its (terminal) measurements.
fn unitary_part(circuit: &QuantumCircuit) -> QuantumCircuit {
    let mut out = circuit.clone();
    out.clear();
    for inst in circuit.instructions() {
        if !matches!(inst.op, Operation::Measure) {
            out.push(inst.clone()).unwrap();
        }
    }
    out
}

/// Outcome distribution over the classical register: basis probabilities
/// read through the terminal measurements, each recorded bit passed
/// through the readout assignment matrix.
fn outcome_distribution(
    probs: &[f64],
    circuit: &QuantumCircuit,
    readout: Option<ReadoutError>,
) -> Vec<f64> {
    let measures: Vec<(usize, usize)> = circuit
        .instructions()
        .iter()
        .filter(|inst| matches!(inst.op, Operation::Measure))
        .map(|inst| (inst.qubits[0], inst.clbits[0]))
        .collect();
    let mut dist = vec![0.0; 1 << circuit.num_clbits()];
    for (index, p) in probs.iter().enumerate() {
        let outcome = measures.iter().fold(0, |acc, &(q, c)| acc | ((index >> q) & 1) << c);
        dist[outcome] += p;
    }
    if let Some(readout) = readout {
        let a = readout.assignment_matrix();
        for &(_, c) in &measures {
            let mut next = vec![0.0; dist.len()];
            for (outcome, p) in dist.iter().enumerate() {
                let actual = (outcome >> c) & 1;
                for recorded in 0..2 {
                    next[(outcome & !(1 << c)) | recorded << c] += a[recorded][actual] * p;
                }
            }
            dist = next;
        }
    }
    dist
}

/// The exact distribution from `DensityMatrixSimulator`.
fn exact_distribution(circuit: &QuantumCircuit, noise: &NoiseModel) -> Vec<f64> {
    let rho = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .run(&unitary_part(circuit))
        .expect("density run");
    outcome_distribution(&rho.probabilities(), circuit, noise.readout_error())
}

/// Holds sampled counts to the exact distribution: for `N` shots,
/// `E[TVD] ≤ ½ Σ √(p_i(1−p_i)/N)`, and McDiarmid's inequality puts the
/// chance of exceeding that mean by `√(ln(1/δ)/2N)` below `δ = 1e-9`.
fn assert_within_bound(counts: &Counts, exact: &[f64], label: &str) {
    let n = counts.total() as f64;
    let mut empirical = vec![0.0; exact.len()];
    for (outcome, c) in counts.iter() {
        empirical[outcome as usize] = c as f64 / n;
    }
    let tvd: f64 = 0.5 * empirical.iter().zip(exact).map(|(e, p)| (e - p).abs()).sum::<f64>();
    let mean_bound: f64 = 0.5 * exact.iter().map(|p| (p * (1.0 - p) / n).sqrt()).sum::<f64>();
    let bound = mean_bound + ((1e9f64).ln() / (2.0 * n)).sqrt();
    assert!(tvd <= bound, "{label}: TVD {tvd:.4} above bound {bound:.4}");
}

/// The routed 5-qubit circuit on `ibmqx5`, compacted to its active qubits.
fn routed_on_ibmqx5() -> QuantumCircuit {
    let routed = FakeDevice::ibmqx5().prepare_circuit(&logical_circuit()).expect("fits ibmqx5");
    compact(&routed)
}

/// Reset, amplitude damping and readout error: the trajectory path.
fn reset_and_damping() -> (QuantumCircuit, NoiseModel) {
    let mut circ = QuantumCircuit::with_size(3, 3);
    circ.h(0).unwrap();
    circ.cx(0, 1).unwrap();
    circ.ry(1.1, 2).unwrap();
    circ.reset(0).unwrap();
    circ.h(0).unwrap();
    circ.cx(1, 2).unwrap();
    circ.x(2).unwrap();
    circ.cx(0, 2).unwrap();
    for q in 0..3 {
        circ.measure(q, q).unwrap();
    }
    let mut noise = NoiseModel::new();
    for gate in ["h", "x", "ry"] {
        noise.add_all_qubit_error(gate, QuantumError::amplitude_damping(0.15));
    }
    noise.add_all_qubit_error("cx", QuantumError::depolarizing(0.05, 2));
    noise.set_readout_error(ReadoutError { prob_1_given_0: 0.02, prob_0_given_1: 0.05 });
    (circ, noise)
}

/// The 5-qubit logical circuit spread over a register of
/// [`FUSION_MIN_QUBITS`] qubits, so the engine fuses each stretch between
/// error sites.
fn spread_over_fusion_width() -> QuantumCircuit {
    let active = [0usize, 3, 6, 9, FUSION_MIN_QUBITS - 1];
    let logical = logical_circuit();
    let mut wide = QuantumCircuit::with_size(FUSION_MIN_QUBITS, logical.num_clbits());
    for inst in logical.instructions() {
        let mut inst = inst.clone();
        for q in &mut inst.qubits {
            *q = active[*q];
        }
        wide.push(inst).unwrap();
    }
    wide
}

#[test]
fn depolarizing_terminal_counts_on_routed_ibmqx5_match_exact_density() {
    let circuit = routed_on_ibmqx5();
    let noise = NoiseModel::depolarizing(0.005, 0.03, 0.03);
    let counts = QasmSimulator::new().with_noise(noise.clone()).with_seed(21).run(&circuit, 8192);
    let exact = exact_distribution(&circuit, &noise);
    assert_within_bound(&counts.unwrap(), &exact, "routed ibmqx5");
    // The noise is visible: the exact noisy and ideal results differ by far
    // more than the bound allows.
    let ideal = exact_distribution(&circuit, &NoiseModel::new());
    let gap: f64 = 0.5 * exact.iter().zip(&ideal).map(|(a, b)| (a - b).abs()).sum::<f64>();
    assert!(gap > 0.1, "noise moved the distribution by only {gap:.4}");
}

#[test]
fn reset_and_amplitude_damping_trajectories_match_exact_density() {
    let (circuit, noise) = reset_and_damping();
    let counts = QasmSimulator::new().with_noise(noise.clone()).with_seed(5).run(&circuit, 8192);
    // Exact evolution by hand: reset is the channel {|0⟩⟨0|, |0⟩⟨1|}.
    let one = Complex::ONE;
    let zero = Complex::ZERO;
    let reset = [
        Matrix::from_vec(2, 2, vec![one, zero, zero, zero]),
        Matrix::from_vec(2, 2, vec![zero, one, zero, zero]),
    ];
    let mut rho = DensityMatrix::new(circuit.num_qubits());
    for inst in circuit.instructions() {
        match &inst.op {
            Operation::Gate(g) => {
                rho.apply_unitary(&g.matrix(), &inst.qubits);
                if let Some(error) = noise.error_for(g.name(), &inst.qubits) {
                    rho.apply_kraus(error.kraus_operators(), &inst.qubits);
                }
            }
            Operation::Reset => rho.apply_kraus(&reset, &inst.qubits),
            Operation::Measure | Operation::Barrier => {}
        }
    }
    let exact = outcome_distribution(&rho.probabilities(), &circuit, noise.readout_error());
    assert_within_bound(&counts.unwrap(), &exact, "reset + amplitude damping");
}

#[test]
fn noisy_terminal_counts_at_the_fusion_width_match_exact_density() {
    let wide = spread_over_fusion_width();
    let noise = NoiseModel::depolarizing(0.01, 0.06, 0.02);
    let counts = QasmSimulator::new().with_noise(noise.clone()).with_seed(8).run(&wide, 4096);
    // The idle qubits stay |0⟩, so the exact result is the compact one's.
    let exact = exact_distribution(&compact(&wide), &noise);
    assert_within_bound(&counts.unwrap(), &exact, "12-qubit register");
}

#[test]
fn noisy_counts_are_bit_identical_across_thread_counts() {
    let (reset_circuit, damping) = reset_and_damping();
    let depolarizing = NoiseModel::depolarizing(0.005, 0.03, 0.03);
    let cases = [
        (routed_on_ibmqx5(), depolarizing.clone(), 2),
        (reset_circuit, damping, 2),
        (spread_over_fusion_width(), depolarizing, 4),
    ];
    for (circuit, noise, chunk_qubits) in cases {
        let run = |threads, simd| {
            QasmSimulator::new()
                .with_noise(noise.clone())
                .with_seed(99)
                .with_parallel(ParallelConfig { threads, chunk_qubits, simd })
                .run(&circuit, 2048)
                .unwrap()
        };
        let one = run(1, true);
        for (threads, simd) in [(2, true), (4, true), (4, false)] {
            assert_eq!(run(threads, simd), one, "threads={threads} simd={simd}");
        }
        let default = QasmSimulator::new().with_noise(noise.clone()).with_seed(99);
        let default = default.with_parallel(ParallelConfig::with_threads(1));
        assert_eq!(default.run(&circuit, 2048).unwrap(), one, "default chunk size");
    }
}
