//! Statevector-engine equivalence: the gate under which the kernel layer
//! ships.
//!
//! Seeded random circuits from the conformance generator run on the
//! statevector engine at every combination of threads ∈ {1, 2, 4} × SIMD
//! on/off, and every amplitude must agree with the independent
//! `terra::reference` oracle to 1e-10. Chunks are forced tiny so even
//! 2-qubit circuits split across workers. The SIMD kernels must agree
//! with the scalar kernels bit for bit. Narrow circuits lower gate by
//! gate; a second set at and above [`FUSION_MIN_QUBITS`] covers the fused
//! programs. The sampled front-end is checked statistically against the
//! exact reference probabilities.

use qukit::aer::parallel::{ParallelConfig, FUSION_MIN_QUBITS};
use qukit::aer::simulator::{QasmSimulator, StatevectorSimulator};
use qukit::aer::Counts;
use qukit::terra::complex::Complex;
use qukit::QuantumCircuit;
use qukit_conformance::{CircuitGenerator, GateSet, GeneratorConfig};

const TOLERANCE: f64 = 1e-10;

fn generator(seed: u64, qubits: std::ops::RangeInclusive<usize>, depth: usize) -> CircuitGenerator {
    CircuitGenerator::new(
        seed,
        GeneratorConfig {
            gate_set: GateSet::Full,
            min_qubits: *qubits.start(),
            max_qubits: *qubits.end(),
            max_depth: depth,
            with_measurements: false,
            with_conditionals: false,
        },
    )
}

fn reference(circuit: &QuantumCircuit) -> Vec<Complex> {
    qukit::terra::reference::statevector(circuit).expect("reference run")
}

/// Runs `cases` circuits at `threads` ∈ {1, 2, 4} × SIMD on/off against
/// the reference, with SIMD and scalar kernels compared bitwise.
fn check_against_reference(mut generator: CircuitGenerator, cases: usize, chunk_qubits: usize) {
    for case in 0..cases {
        let circuit = generator.next_circuit();
        let expect = reference(&circuit);
        for threads in [1, 2, 4] {
            let run = |simd| {
                StatevectorSimulator::new()
                    .with_parallel(ParallelConfig { threads, chunk_qubits, simd })
                    .run(&circuit)
                    .expect("engine run")
            };
            let scalar = run(false);
            let simd = run(true);
            assert_eq!(expect.len(), scalar.amplitudes().len());
            for (idx, (e, p)) in expect.iter().zip(scalar.amplitudes()).enumerate() {
                let err = (*e - *p).norm();
                assert!(
                    err <= TOLERANCE,
                    "case {case} (threads {threads}): amplitude {idx} diverges by {err:.3e} \
                     ({e} vs {p})\n{circuit:?}"
                );
            }
            // The SIMD kernels replicate the scalar complex arithmetic
            // exactly, so this comparison is bitwise, not tolerance-based.
            assert_eq!(
                scalar.amplitudes(),
                simd.amplitudes(),
                "case {case} (threads {threads}): SIMD kernels are not bit-identical to \
                 scalar kernels\n{circuit:?}"
            );
        }
    }
}

#[test]
fn engine_matches_reference_on_200_random_circuits() {
    check_against_reference(generator(42, 1..=5, 16), 200, 2);
}

#[test]
fn fused_engine_matches_reference_at_and_above_the_fusion_width() {
    // Deep enough that fusion groups form; chunks small enough that the
    // state spans several chunks and the workers split it.
    check_against_reference(
        generator(43, FUSION_MIN_QUBITS..=FUSION_MIN_QUBITS + 1, 80),
        50,
        FUSION_MIN_QUBITS - 3,
    );
}

/// Exact outcome probabilities of a unitary circuit measured with
/// `measure_all` (clbit `q` holds qubit `q`, so outcome = basis index).
fn exact_probabilities(circuit: &QuantumCircuit) -> Vec<f64> {
    reference(circuit).iter().map(|amp| amp.norm_sqr()).collect()
}

fn hellinger_fidelity(counts: &Counts, exact: &[f64]) -> f64 {
    let shots = counts.total() as f64;
    let overlap: f64 =
        counts.iter().map(|(outcome, n)| (n as f64 / shots * exact[outcome as usize]).sqrt()).sum();
    overlap * overlap
}

/// The sampled `QasmSimulator` front-end with threads forced on must
/// draw from the exact distribution of the circuit it evolves.
#[test]
fn sampled_histograms_stay_faithful_under_parallel_execution() {
    let mut generator = generator(7, 1..=5, 16);
    for case in 0..20 {
        let mut circuit = generator.next_circuit();
        let exact = exact_probabilities(&circuit);
        circuit.measure_all();
        let shots = 2048;
        let counts = QasmSimulator::new()
            .with_seed(11)
            .with_parallel(ParallelConfig { threads: 4, chunk_qubits: 2, simd: true })
            .run(&circuit, shots)
            .expect("parallel run");
        assert_eq!(counts.total(), shots);
        let fidelity = hellinger_fidelity(&counts, &exact);
        assert!(
            fidelity > 0.97,
            "case {case}: histogram vs exact fidelity {fidelity:.4}\n{circuit:?}"
        );
    }
}

/// Default-configuration counts for seeded circuits at 2–12 qubits, held
/// to the exact reference distribution by total-variation distance.
///
/// For `N` shots from `p`, `E[TVD] ≤ ½ Σ √(p_i(1−p_i)/N)`, and one shot
/// moves the TVD by at most `1/N`, so McDiarmid's inequality puts the
/// chance of exceeding that mean by `√(ln(1/δ)/2N)` below `δ = 1e-9`. A
/// correct sampler therefore stays inside the bound; a sampler drawing
/// from a different distribution lands near the TVD between the two.
#[test]
fn default_config_counts_match_reference_probabilities_at_2_to_12_qubits() {
    for qubits in 2..=12usize {
        // A rotation layer first, so no width degenerates to a basis state.
        let mut circuit = QuantumCircuit::new(qubits);
        for q in 0..qubits {
            circuit.ry(0.4 + 0.3 * q as f64, q).unwrap();
        }
        let random = generator(1000 + qubits as u64, qubits..=qubits, 4 * qubits).next_circuit();
        circuit.compose(&random).unwrap();
        let exact = exact_probabilities(&circuit);
        circuit.measure_all();
        let shots = 16384;
        let counts = QasmSimulator::new().with_seed(qubits as u64).run(&circuit, shots).unwrap();
        assert_eq!(counts.total(), shots);
        let n = shots as f64;
        let mut empirical = vec![0.0; exact.len()];
        for (outcome, c) in counts.iter() {
            empirical[outcome as usize] = c as f64 / n;
        }
        let tvd: f64 = 0.5 * empirical.iter().zip(&exact).map(|(e, p)| (e - p).abs()).sum::<f64>();
        let mean_bound: f64 = 0.5 * exact.iter().map(|p| (p * (1.0 - p) / n).sqrt()).sum::<f64>();
        let bound = mean_bound + ((1e9f64).ln() / (2.0 * n)).sqrt();
        assert!(tvd <= bound, "{qubits} qubits: TVD {tvd:.4} above bound {bound:.4}\n{circuit:?}");
    }
}
