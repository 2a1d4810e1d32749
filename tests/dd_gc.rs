//! GC acceptance tests for the QMDD core.
//!
//! A long random circuit (≥10k gates at 8 qubits) would have grown
//! append-only node and weight arenas without bound; the refcounted arenas
//! must keep peak live nodes and live weights bounded by collecting dead
//! intermediates, report the reclaims through the observability gauges,
//! and still produce final amplitudes that match the dense statevector
//! reference to 1e-10.
//!
//! The forced-GC tests are the oracle for the collector itself: they drive
//! the package API directly with a collection after every gate, on
//! arbitrary-angle weights, and compare against `terra::reference`.

use qukit::dd::package::{DdPackage, Edge};
use qukit::dd::simulator::DdSimulator;
use qukit::terra::circuit::QuantumCircuit;
use qukit::terra::gate::Gate;
use qukit::terra::instruction::Operation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QUBITS: usize = 8;
const GATES: usize = 10_000;

/// Seeded measurement-free random circuit over the Clifford+T set. The
/// discrete gate set keeps every edge weight a product of exact constants,
/// so 10k gates of floating-point accumulation stay within the 1e-10
/// equivalence budget.
fn stress_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circ = QuantumCircuit::new(QUBITS);
    for _ in 0..GATES {
        match rng.gen_range(0..6) {
            0 => {
                circ.h(rng.gen_range(0..QUBITS)).expect("valid");
            }
            1 => {
                circ.t(rng.gen_range(0..QUBITS)).expect("valid");
            }
            2 => {
                circ.s(rng.gen_range(0..QUBITS)).expect("valid");
            }
            3 => {
                circ.x(rng.gen_range(0..QUBITS)).expect("valid");
            }
            4 => {
                circ.z(rng.gen_range(0..QUBITS)).expect("valid");
            }
            _ => {
                let a = rng.gen_range(0..QUBITS);
                let b = (a + rng.gen_range(1..QUBITS)) % QUBITS;
                circ.cx(a, b).expect("valid");
            }
        }
    }
    circ
}

#[test]
fn long_random_circuit_is_gc_bounded_and_amplitude_exact() {
    let circ = stress_circuit(0xDD5);
    assert!(circ.num_gates() >= GATES);

    qukit_obs::set_enabled(true);
    qukit_obs::reset();
    let state = DdSimulator::new().run(&circ).expect("dd run");
    let snapshot = qukit_obs::registry().snapshot();
    qukit_obs::set_enabled(false);

    // The GC actually ran and reclaimed dead nodes.
    let stats = state.package.stats();
    assert!(stats.gc_runs > 0, "10k gates must cross the GC threshold");
    assert!(stats.gc_reclaimed > 0, "collections must reclaim garbage");

    // Peak live nodes are bounded: an 8-qubit state DD holds < 2^8 nodes
    // and the gate/intermediate working set is threshold-bounded, far
    // below the hundreds of thousands of nodes 10k gates allocate in
    // total. (The adaptive threshold starts at 16384 and only doubles
    // when a collection fails to free half the arena.)
    let peak = state.package.peak_live_nodes();
    let total_allocated = stats.unique_misses as usize;
    assert!(peak < 65_536, "peak live nodes {peak} must stay bounded");
    assert!(
        peak < total_allocated / 2,
        "peak live {peak} must be well below total allocations {total_allocated}"
    );
    // The weight table is collected with the nodes: every weight ever
    // interned is either still live or was reclaimed exactly once.
    let live_weights = state.package.live_weights();
    let total_weights = live_weights as u64 + stats.weights_reclaimed;
    assert!(live_weights < 65_536, "live weights {live_weights} must stay bounded");
    assert!(
        (live_weights as u64) < total_weights / 2,
        "live weights {live_weights} must be well below total interned {total_weights}"
    );

    // The reclaims are visible through the new observability gauges.
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0);
    assert_eq!(counter("qukit_dd_gc_runs_total"), stats.gc_runs);
    assert_eq!(counter("qukit_dd_gc_reclaimed_total"), stats.gc_reclaimed);
    assert!(gauge("qukit_dd_peak_live_nodes") >= gauge("qukit_dd_live_nodes"));
    assert!((gauge("qukit_dd_peak_live_nodes") - peak as f64).abs() < 0.5);

    // Final amplitudes match the dense statevector engine to 1e-10.
    let expected = qukit::terra::reference::statevector(&circ).expect("reference");
    let actual = state.to_statevector();
    assert_eq!(actual.len(), expected.len());
    for (i, (a, b)) in actual.iter().zip(&expected).enumerate() {
        assert!(
            a.approx_eq_eps(*b, 1e-10),
            "amplitude {i} diverged after {GATES} gates: {a} vs {b}"
        );
    }
}

#[test]
fn gc_runs_are_deterministic() {
    // Same circuit, two runs: identical stats and identical final state —
    // the GC must not introduce nondeterminism.
    let circ = stress_circuit(77);
    let a = DdSimulator::new().run(&circ).expect("dd run");
    let b = DdSimulator::new().run(&circ).expect("dd run");
    assert_eq!(a.package.stats(), b.package.stats());
    assert_eq!(a.root, b.root);
    let sa = a.to_statevector();
    let sb = b.to_statevector();
    for (x, y) in sa.iter().zip(&sb) {
        assert_eq!(x, y, "GC must be fully deterministic");
    }
}

/// Seeded measurement-free circuit mixing Clifford+T with `u` and `rz` at
/// seeded angles, so the collector sees weights that are not products of
/// a few exact constants.
fn mixed_circuit(seed: u64, qubits: usize, gates: usize) -> QuantumCircuit {
    use std::f64::consts::PI;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circ = QuantumCircuit::new(qubits);
    for _ in 0..gates {
        let q = rng.gen_range(0..qubits);
        match rng.gen_range(0..8) {
            0 => circ.h(q),
            1 => circ.t(q),
            2 => circ.s(q),
            3 => circ.x(q),
            4 => circ.rz(rng.gen_range(-PI..PI), q),
            5 => circ.u(rng.gen_range(0.0..PI), rng.gen_range(-PI..PI), rng.gen_range(-PI..PI), q),
            _ => circ.cx(q, (q + rng.gen_range(1..qubits)) % qubits),
        }
        .expect("valid");
    }
    circ
}

/// The circuit's gates with their operands.
fn gates(circ: &QuantumCircuit) -> Vec<(Gate, Vec<usize>)> {
    circ.instructions()
        .iter()
        .map(|inst| match &inst.op {
            Operation::Gate(g) => (*g, inst.qubits.clone()),
            other => panic!("unexpected {}", other.name()),
        })
        .collect()
}

/// A safe point that always collects. `maybe_collect` backs its threshold
/// off after a collection that frees little, so the threshold is re-armed
/// each time.
fn forced_collect(dd: &mut DdPackage) {
    dd.set_gc_threshold(1);
    dd.maybe_collect();
}

type GateMemo = Vec<(Gate, Vec<usize>, Edge)>;

/// Gate DDs for the discrete gates are built once and rc-protected, as the
/// simulator memoizes them; rotations are built fresh and left unprotected.
fn gate_dd(dd: &mut DdPackage, memo: &mut GateMemo, gate: Gate, qubits: &[usize]) -> Edge {
    if matches!(gate, Gate::Rz(_) | Gate::U(..)) {
        return dd.gate_matrix(&gate.matrix(), qubits);
    }
    if let Some(&(_, _, edge)) = memo.iter().find(|(g, q, _)| *g == gate && q == qubits) {
        return edge;
    }
    let edge = dd.gate_matrix(&gate.matrix(), qubits);
    dd.inc_ref_matrix(edge);
    memo.push((gate, qubits.to_vec(), edge));
    edge
}

#[test]
fn forced_gc_state_chain_matches_reference() {
    for (case, qubits) in [3usize, 4, 5, 4].into_iter().enumerate() {
        let circ = mixed_circuit(0x6C00 + case as u64, qubits, 300);
        let mut dd = DdPackage::new(qubits);
        let mut memo = Vec::new();
        let mut root = dd.zero_state();
        dd.inc_ref(root);
        let gates = gates(&circ);
        for (gate, operands) in &gates {
            let m = gate_dd(&mut dd, &mut memo, *gate, operands);
            let next = dd.multiply_mv(m, root);
            dd.inc_ref(next);
            dd.dec_ref(root);
            root = next;
            forced_collect(&mut dd);
        }
        assert_eq!(dd.stats().gc_runs, gates.len() as u64, "case {case}: one GC per gate");
        assert!(dd.stats().weights_reclaimed > 0, "case {case}: weights must be reclaimed");
        let expected = qukit::terra::reference::statevector(&circ).expect("reference");
        let actual = dd.to_statevector(root);
        for (i, (a, b)) in actual.iter().zip(&expected).enumerate() {
            assert!(a.approx_eq_eps(*b, 1e-10), "case {case}: amplitude {i}: {a} vs {b}");
        }
    }
}

#[test]
fn forced_gc_unitary_chain_matches_reference() {
    for (case, qubits) in [3usize, 4, 3].into_iter().enumerate() {
        let circ = mixed_circuit(0x6C10 + case as u64, qubits, 200);
        let mut dd = DdPackage::new(qubits);
        let mut memo = Vec::new();
        let mut acc = dd.identity();
        dd.inc_ref_matrix(acc);
        let gates = gates(&circ);
        for (gate, operands) in &gates {
            let m = gate_dd(&mut dd, &mut memo, *gate, operands);
            let next = dd.multiply_mm(m, acc);
            dd.inc_ref_matrix(next);
            dd.dec_ref_matrix(acc);
            acc = next;
            forced_collect(&mut dd);
        }
        assert_eq!(dd.stats().gc_runs, gates.len() as u64, "case {case}: one GC per gate");
        assert!(dd.stats().weights_reclaimed > 0, "case {case}: weights must be reclaimed");
        let expected = qukit::terra::reference::unitary(&circ).expect("reference");
        assert!(dd.to_matrix(acc).approx_eq_eps(&expected, 1e-10), "case {case}: unitary diverged");
    }
}
