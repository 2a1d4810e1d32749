//! Property-based tests over the core invariants of the toolchain.
//!
//! Random circuits are generated via a proptest strategy and the
//! system-level invariants checked: norm preservation, transpiler
//! equivalence, simulator agreement, QASM round-tripping, and optimization
//! soundness.

use proptest::prelude::*;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::coupling::CouplingMap;
use qukit_terra::gate::Gate;
use qukit_terra::matrix::state_fidelity;
use qukit_terra::reference;
use qukit_terra::transpiler::{
    optimize, satisfies_coupling, transpile, MapperKind, TranspileOptions,
};

/// A single random gate application description.
#[derive(Debug, Clone)]
enum GateChoice {
    H(usize),
    T(usize),
    S(usize),
    X(usize),
    Rx(f64, usize),
    Rz(f64, usize),
    U(f64, f64, f64, usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
    Ccx(usize, usize, usize),
}

fn gate_strategy(n: usize) -> impl Strategy<Value = GateChoice> {
    let q = 0..n;
    let angle = -3.2f64..3.2f64;
    prop_oneof![
        q.clone().prop_map(GateChoice::H),
        q.clone().prop_map(GateChoice::T),
        q.clone().prop_map(GateChoice::S),
        q.clone().prop_map(GateChoice::X),
        (angle.clone(), 0..n).prop_map(|(a, q)| GateChoice::Rx(a, q)),
        (angle.clone(), 0..n).prop_map(|(a, q)| GateChoice::Rz(a, q)),
        (angle.clone(), angle.clone(), angle.clone(), 0..n)
            .prop_map(|(t, p, l, q)| GateChoice::U(t, p, l, q)),
        (0..n, 0..n).prop_map(|(a, b)| GateChoice::Cx(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| GateChoice::Cz(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| GateChoice::Swap(a, b)),
        (0..n, 0..n, 0..n).prop_map(|(a, b, c)| GateChoice::Ccx(a, b, c)),
    ]
}

/// Builds a circuit from gate choices, silently skipping applications with
/// repeated operands (the strategy may generate them).
fn build_circuit(n: usize, choices: &[GateChoice]) -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(n);
    for choice in choices {
        let result = match *choice {
            GateChoice::H(q) => circ.append(Gate::H, &[q]),
            GateChoice::T(q) => circ.append(Gate::T, &[q]),
            GateChoice::S(q) => circ.append(Gate::S, &[q]),
            GateChoice::X(q) => circ.append(Gate::X, &[q]),
            GateChoice::Rx(a, q) => circ.append(Gate::Rx(a), &[q]),
            GateChoice::Rz(a, q) => circ.append(Gate::Rz(a), &[q]),
            GateChoice::U(t, p, l, q) => circ.append(Gate::U(t, p, l), &[q]),
            GateChoice::Cx(a, b) => circ.append(Gate::CX, &[a, b]),
            GateChoice::Cz(a, b) => circ.append(Gate::CZ, &[a, b]),
            GateChoice::Swap(a, b) => circ.append(Gate::Swap, &[a, b]),
            GateChoice::Ccx(a, b, c) => circ.append(Gate::Ccx, &[a, b, c]),
        };
        let _ = result; // duplicate operands are skipped
    }
    circ
}

fn circuit_strategy(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    prop::collection::vec(gate_strategy(n), 1..max_gates)
        .prop_map(move |choices| build_circuit(n, &choices))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn statevector_stays_normalized(circ in circuit_strategy(4, 24)) {
        let state = reference::statevector(&circ).unwrap();
        let norm: f64 = state.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn dd_simulator_matches_reference(circ in circuit_strategy(4, 20)) {
        let expected = reference::statevector(&circ).unwrap();
        let dd = qukit_dd::simulator::DdSimulator::new().run(&circ).unwrap();
        let actual = dd.to_statevector();
        let f = state_fidelity(&actual, &expected);
        prop_assert!(f > 1.0 - 1e-8, "fidelity {f}");
    }

    #[test]
    fn optimization_preserves_unitary(circ in circuit_strategy(3, 20)) {
        let optimized = optimize::optimize_to_fixpoint(&circ).unwrap();
        prop_assert!(optimized.size() <= circ.size());
        let u1 = reference::unitary(&circ).unwrap();
        let u2 = reference::unitary(&optimized).unwrap();
        prop_assert!(u2.approx_eq_eps(&u1, 1e-7), "optimization changed semantics");
    }

    #[test]
    fn decomposition_preserves_unitary(circ in circuit_strategy(3, 16)) {
        let decomposed =
            qukit_terra::transpiler::decompose::decompose_to_cx_basis(&circ).unwrap();
        for inst in decomposed.instructions() {
            if let Some(g) = inst.as_gate() {
                prop_assert!(g.num_qubits() == 1 || *g == Gate::CX);
            }
        }
        let u1 = reference::unitary(&circ).unwrap();
        let u2 = reference::unitary(&decomposed).unwrap();
        prop_assert!(u2.phase_equal_to(&u1).is_some(), "decomposition changed semantics");
    }

    #[test]
    fn transpilation_to_qx4_is_equivalent(circ in circuit_strategy(4, 14)) {
        let qx4 = CouplingMap::ibm_qx4();
        for mapper in [MapperKind::Basic, MapperKind::Sabre, MapperKind::AStar] {
            let options = TranspileOptions {
                coupling_map: Some(qx4.clone()),
                mapper,
                optimization_level: 2,
                ..TranspileOptions::default()
            };
            let result = transpile(&circ, &options).unwrap();
            prop_assert!(satisfies_coupling(&result.circuit, &qx4));
            // Semantic check via layout-aware embedding.
            let mut rng = rand::rngs::mock::StepRng::new(0x9E3779B97F4A7C15, 0x5851F42D4C957F2D);
            let input = reference::random_state(circ.num_qubits(), &mut rng);
            let expected = reference::evolve(&circ, &input).unwrap();
            let phys_in =
                reference::embed_state(&input, &result.initial_layout, qx4.num_qubits());
            let phys_out = reference::evolve(&result.circuit, &phys_in).unwrap();
            let expected_phys =
                reference::embed_state(&expected, &result.final_layout, qx4.num_qubits());
            let f = state_fidelity(&phys_out, &expected_phys);
            prop_assert!(f > 1.0 - 1e-7, "{mapper:?} broke the circuit: fidelity {f}");
        }
    }

    #[test]
    fn qasm_round_trip_preserves_semantics(circ in circuit_strategy(3, 16)) {
        let text = qukit_terra::qasm::emit(&circ);
        let reparsed = qukit_terra::qasm::parse(&text).unwrap();
        let u1 = reference::unitary(&circ).unwrap();
        let u2 = reference::unitary(&reparsed).unwrap();
        prop_assert!(u2.approx_eq_eps(&u1, 1e-9), "QASM round trip changed semantics");
    }

    #[test]
    fn counts_marginal_preserves_total(outcomes in prop::collection::vec(0u64..16, 1..200)) {
        let mut counts = qukit_aer::counts::Counts::new(4);
        for o in &outcomes {
            counts.record(*o);
        }
        let marginal = counts.marginal(&[0, 2]);
        prop_assert_eq!(marginal.total(), counts.total());
    }

    #[test]
    fn pauli_expectations_are_bounded(circ in circuit_strategy(3, 16)) {
        let amplitudes = reference::statevector(&circ).unwrap();
        let state = qukit_aer::statevector::Statevector::from_amplitudes(amplitudes);
        for pauli in ["ZZZ", "XIX", "YZI", "XYZ"] {
            let e = state.expectation_pauli(pauli);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&e), "<{pauli}> = {e}");
        }
    }
}

/// Clifford-only gate choices for the stabilizer-engine property.
fn clifford_strategy(n: usize) -> impl Strategy<Value = GateChoice> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(GateChoice::H),
        q.clone().prop_map(GateChoice::S),
        q.clone().prop_map(GateChoice::X),
        (0..n, 0..n).prop_map(|(a, b)| GateChoice::Cx(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| GateChoice::Cz(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| GateChoice::Swap(a, b)),
    ]
}

fn clifford_circuit_strategy(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    prop::collection::vec(clifford_strategy(n), 1..max_gates)
        .prop_map(move |choices| build_circuit(n, &choices))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stabilizer_engine_matches_dense_distributions(
        circ in clifford_circuit_strategy(3, 16),
        seed in 0u64..1000,
    ) {
        let mut measured = circ.clone();
        let _ = measured.add_creg("c", 3);
        for q in 0..3 {
            measured.measure(q, q).unwrap();
        }
        let shots = 1200;
        let dense = qukit_aer::simulator::QasmSimulator::new()
            .with_seed(seed)
            .run(&measured, shots)
            .unwrap();
        let tableau = qukit_aer::stabilizer::StabilizerSimulator::new()
            .with_seed(seed)
            .run(&measured, shots)
            .unwrap();
        let f = dense.hellinger_fidelity(&tableau);
        prop_assert!(f > 0.97, "fidelity {f}");
    }

    #[test]
    fn state_preparation_round_trips(seed in 0u64..500, n in 1usize..4) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let target = reference::random_state(n, &mut rng);
        let circ = qukit_aqua::state_preparation::prepare_state(&target).unwrap();
        let produced = reference::statevector(&circ).unwrap();
        let f = state_fidelity(&produced, &target);
        prop_assert!(f > 1.0 - 1e-8, "fidelity {f}");
    }

    #[test]
    fn controlled_circuits_are_exact(circ in circuit_strategy(2, 10)) {
        let controlled = qukit_terra::controlled::controlled_circuit(&circ).unwrap();
        let u = reference::unitary(&circ).unwrap();
        let cu = reference::unitary(&controlled).unwrap();
        let dim = 1usize << circ.num_qubits();
        for r in 0..dim {
            for c in 0..dim {
                // Control-off block: identity.
                let off = cu.get(r, c).unwrap();
                let expect_off = if r == c { 1.0 } else { 0.0 };
                prop_assert!((off.re - expect_off).abs() < 1e-8 && off.im.abs() < 1e-8);
                // Control-on block: U exactly.
                let on = cu.get(dim + r, dim + c).unwrap();
                prop_assert!(on.approx_eq_eps(u.get(r, c).unwrap(), 1e-8));
            }
        }
    }

    #[test]
    fn dd_inner_products_match_dense(
        a in circuit_strategy(3, 12),
        b in circuit_strategy(3, 12),
    ) {
        let mut package = qukit_dd::package::DdPackage::new(3);
        let run = |circ: &QuantumCircuit,
                       package: &mut qukit_dd::package::DdPackage| {
            let mut edge = package.zero_state();
            for inst in circ.instructions() {
                if let Some(g) = inst.as_gate() {
                    let m = package.gate_matrix(&g.matrix(), &inst.qubits);
                    edge = package.multiply_mv(m, edge);
                }
            }
            edge
        };
        let ea = run(&a, &mut package);
        let eb = run(&b, &mut package);
        let dd_ip = package.inner_product(ea, eb);
        let va = reference::statevector(&a).unwrap();
        let vb = reference::statevector(&b).unwrap();
        let dense_ip = qukit_terra::matrix::inner_product(&va, &vb);
        prop_assert!(dd_ip.approx_eq_eps(dense_ip, 1e-7), "{dd_ip} vs {dense_ip}");
    }

    #[test]
    fn equivalence_checker_accepts_optimized_circuits(circ in circuit_strategy(3, 14)) {
        let optimized =
            qukit_terra::transpiler::optimize::optimize_to_fixpoint(&circ).unwrap();
        prop_assert!(
            qukit_dd::verify::check_equivalence(&circ, &optimized)
                .unwrap()
                .is_equivalent()
        );
    }
}

// ---------------------------------------------------------------------------
// Properties driven by the conformance harness's seeded circuit generator —
// unlike the proptest strategies above it covers the *entire* gate alphabet
// (all fixed gates, every parameterized family, three-qubit gates).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_generated_gate_matrix_is_unitary(seed in 0u64..10_000) {
        let mut generator = qukit_conformance::CircuitGenerator::new(
            seed,
            qukit_conformance::GeneratorConfig {
                max_qubits: 4,
                max_depth: 12,
                ..Default::default()
            },
        );
        for _ in 0..4 {
            let circ = generator.next_circuit();
            for inst in circ.instructions() {
                if let Some(g) = inst.as_gate() {
                    let m = g.matrix();
                    prop_assert!(m.is_unitary_eps(1e-9), "{} is not unitary", g.name());
                    // The inverse must really invert, as a matrix.
                    let inv = g.inverse().matrix();
                    let product = m.matmul(&inv);
                    let identity =
                        qukit_terra::matrix::Matrix::identity(m.rows());
                    prop_assert!(
                        product.approx_eq_eps(&identity, 1e-9),
                        "{}·{}⁻¹ ≠ I",
                        g.name(),
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn generated_circuits_transpile_onto_couplings(seed in 0u64..10_000) {
        let mut generator = qukit_conformance::CircuitGenerator::new(
            seed,
            qukit_conformance::GeneratorConfig {
                max_qubits: 5,
                max_depth: 10,
                ..Default::default()
            },
        );
        let circ = generator.next_circuit();
        let coupling = CouplingMap::ibm_qx4();
        let options = TranspileOptions::for_device(coupling.clone());
        let result = transpile(&circ, &options).unwrap();
        prop_assert!(satisfies_coupling(&result.circuit, &coupling));
    }

    #[test]
    fn generated_measurement_circuits_conserve_shots(seed in 0u64..10_000) {
        let mut generator = qukit_conformance::CircuitGenerator::new(
            seed,
            qukit_conformance::GeneratorConfig {
                max_qubits: 4,
                max_depth: 10,
                with_measurements: true,
                with_conditionals: true,
                ..Default::default()
            },
        );
        let circ = generator.next_circuit();
        let shots = 128;
        let counts = qukit_aer::simulator::QasmSimulator::new()
            .with_seed(seed)
            .run(&circ, shots)
            .unwrap();
        prop_assert_eq!(counts.total(), shots, "0-noise run lost or invented shots");
    }
}
