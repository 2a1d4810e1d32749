//! Circuit-level decision-diagram simulation.
//!
//! [`DdSimulator`] drives a [`DdPackage`] over a `QuantumCircuit`: the
//! complete "advanced simulation" flow of the paper's Section V-A,
//! including measurement sampling directly from the compressed
//! representation (no statevector is ever materialized).

use crate::package::{DdPackage, Edge, TERMINAL};
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::instruction::Operation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// Memoization key for a gate's matrix DD: the exact bit patterns of the
/// matrix entries plus the qubit placement. Repeated gates (the common
/// case — think the CX ladder of a GHZ preparation or the controlled-phase
/// grid of a QFT) skip `gate_matrix` reconstruction entirely.
#[derive(PartialEq, Eq, Hash)]
struct GateKey {
    bits: Box<[u64]>,
    qubits: Box<[usize]>,
}

impl GateKey {
    fn new(matrix: &qukit_terra::matrix::Matrix, qubits: &[usize]) -> Self {
        let mut bits = Vec::with_capacity(matrix.rows() * matrix.cols() * 2);
        for r in 0..matrix.rows() {
            for c in 0..matrix.cols() {
                let v = matrix[(r, c)];
                bits.push(v.re.to_bits());
                bits.push(v.im.to_bits());
            }
        }
        Self { bits: bits.into_boxed_slice(), qubits: qubits.to_vec().into_boxed_slice() }
    }
}

/// Paths-to-outcomes enumeration bound for [`DdState::sample_counts`]:
/// if the state has at most this many nonzero basis outcomes, sampling
/// collapses to one categorical draw per shot over the enumerated
/// distribution instead of a per-shot DD walk.
const ENUMERATE_CAP: usize = 2048;

/// Errors produced by the DD simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdError {
    /// Instruction unsupported in pure-state DD simulation.
    UnsupportedInstruction {
        /// Instruction name.
        name: String,
    },
}

impl fmt::Display for DdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdError::UnsupportedInstruction { name } => {
                write!(f, "instruction '{name}' is not supported by the DD simulator")
            }
        }
    }
}

impl std::error::Error for DdError {}

/// The result of a DD simulation: the final state as a DD plus telemetry.
#[derive(Debug)]
pub struct DdState {
    /// The package owning the diagram.
    pub package: DdPackage,
    /// Edge to the final state.
    pub root: Edge,
    /// Maximum node count observed during simulation (memory high-water
    /// mark — the DD analogue of the `2^n` amplitude array).
    pub peak_nodes: usize,
}

impl DdState {
    /// Number of nodes in the final state DD.
    pub fn node_count(&self) -> usize {
        self.package.vector_nodes(self.root)
    }

    /// Amplitude of a basis state.
    pub fn amplitude(&self, index: usize) -> qukit_terra::complex::Complex {
        self.package.amplitude(self.root, index)
    }

    /// Materializes the dense statevector (exponential; small circuits).
    pub fn to_statevector(&self) -> Vec<qukit_terra::complex::Complex> {
        self.package.to_statevector(self.root)
    }

    /// Samples `shots` measurement outcomes of all qubits directly from the
    /// DD, without materializing amplitudes: at each node the branch
    /// probability is `|w_b|² · ‖child‖²`.
    ///
    /// The subtree-norm cache is built exactly once (an iterative
    /// post-order walk into a flat per-node buffer) and reused across all
    /// shots. When the state has few nonzero outcomes (≤
    /// [`ENUMERATE_CAP`]) the distribution is enumerated up front and each
    /// shot is one binary search over the CDF; otherwise shots walk the
    /// diagram and repeated outcomes are deduped before recording.
    pub fn sample_counts(&self, shots: usize, seed: u64) -> qukit_aer::counts::Counts {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.package.num_qubits();
        let mut counts = qukit_aer::counts::Counts::new(n.min(64));
        if shots == 0 {
            return counts;
        }
        // Subtree squared norms, computed once for the whole run.
        let mut norms = vec![f64::NAN; self.package.vnode_arena_len()];
        let root_norm = self.package.node_norms_into(self.root.node, &mut norms);
        if let Some(outcomes) = self.enumerate_outcomes(ENUMERATE_CAP) {
            // Categorical sampling: cumulative weights + binary search.
            let mut cdf = Vec::with_capacity(outcomes.len());
            let mut total = 0.0f64;
            for &(_, p) in &outcomes {
                total += p;
                cdf.push(total);
            }
            let mut hits = vec![0usize; outcomes.len()];
            for _ in 0..shots {
                let r = rng.gen::<f64>() * total;
                let idx = cdf.partition_point(|&acc| acc < r).min(outcomes.len() - 1);
                hits[idx] += 1;
            }
            for (idx, &hit) in hits.iter().enumerate() {
                if hit > 0 {
                    counts.record_n(outcomes[idx].0, hit);
                }
            }
        } else {
            // Too many distinct outcomes to enumerate: walk per shot, but
            // aggregate duplicates before touching the counts map.
            let mut dedup: HashMap<u64, usize> = HashMap::new();
            for _ in 0..shots {
                let outcome = self.walk_once(&mut rng, &norms, root_norm);
                *dedup.entry(outcome).or_insert(0) += 1;
            }
            for (outcome, hit) in dedup {
                counts.record_n(outcome, hit);
            }
        }
        counts
    }

    /// Enumerates all `(outcome, unnormalized probability)` pairs of the
    /// state, or `None` if there are more than `cap` nonzero outcomes. The
    /// probability of a complete path is the product of its squared edge
    /// magnitudes (normalization-correct because the per-node sum of those
    /// products is exactly the subtree norm).
    fn enumerate_outcomes(&self, cap: usize) -> Option<Vec<(u64, f64)>> {
        let mut outcomes: Vec<(u64, f64)> = Vec::new();
        let mut stack: Vec<(u32, u64, f64)> = vec![(self.root.node, 0, 1.0)];
        while let Some((node, prefix, acc)) = stack.pop() {
            if node == TERMINAL {
                if outcomes.len() == cap {
                    return None;
                }
                outcomes.push((prefix, acc));
                continue;
            }
            let level = self.package.vector_level_of(node);
            for bit in 0..2u64 {
                let child = self.package.vector_child(node, bit as usize);
                if child.is_zero() {
                    continue;
                }
                let p = acc * self.package.weight(child.weight).norm_sqr();
                if p > 0.0 {
                    stack.push((child.node, prefix | (bit << (level - 1)), p));
                }
            }
        }
        Some(outcomes)
    }

    /// One top-down sampling walk using the prebuilt subtree-norm buffer.
    fn walk_once(&self, rng: &mut StdRng, norms: &[f64], root_norm: f64) -> u64 {
        let mut outcome = 0u64;
        let mut node = self.root.node;
        let mut subtree = root_norm;
        while node != TERMINAL {
            let level = self.package.vector_level_of(node);
            let zero_child = self.package.vector_child(node, 0);
            let one_child = self.package.vector_child(node, 1);
            let branch = |child: Edge| {
                if child.is_zero() {
                    0.0
                } else {
                    self.package.weight(child.weight).norm_sqr() * norms[child.node as usize]
                }
            };
            let p0 = branch(zero_child);
            let p1 = branch(one_child);
            let total = if subtree > 0.0 { p0 + p1 } else { 0.0 };
            let bit = if total <= 0.0 {
                0
            } else if rng.gen::<f64>() * total < p1 {
                1
            } else {
                0
            };
            let next = if bit == 1 { one_child } else { zero_child };
            if bit == 1 {
                outcome |= 1 << (level - 1);
            }
            subtree = if next.is_zero() { 0.0 } else { norms[next.node as usize] };
            node = next.node;
        }
        outcome
    }
}

/// Decision-diagram circuit simulator.
///
/// # Examples
///
/// ```
/// use qukit_dd::simulator::DdSimulator;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_dd::simulator::DdError> {
/// let mut ghz = QuantumCircuit::new(10);
/// ghz.h(0).unwrap();
/// for q in 1..10 {
///     ghz.cx(q - 1, q).unwrap();
/// }
/// let state = DdSimulator::new().run(&ghz)?;
/// // 1024 amplitudes, but only 19 DD nodes.
/// assert_eq!(state.node_count(), 19);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DdSimulator {
    cache_enabled: bool,
}

impl Default for DdSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl DdSimulator {
    /// Creates the simulator (compute-table caching enabled).
    pub fn new() -> Self {
        Self { cache_enabled: true }
    }

    /// Disables the compute-table cache — the ablation knob for the
    /// caching benchmark.
    pub fn without_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// Simulates a unitary circuit, returning the final state as a DD.
    ///
    /// # Errors
    ///
    /// Returns [`DdError::UnsupportedInstruction`] for measurement, reset
    /// or conditioned gates (sample measurement outcomes from the returned
    /// [`DdState`] instead).
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<DdState, DdError> {
        let _span = qukit_obs::span!(
            "dd.run",
            qubits = circuit.num_qubits(),
            gates = circuit.instructions().len()
        );
        qukit_obs::counter_inc("qukit_dd_runs_total");
        let mut package = DdPackage::new(circuit.num_qubits());
        package.set_cache_enabled(self.cache_enabled);
        let mut root = package.zero_state();
        package.inc_ref(root);
        // Gate DDs memoized across the run; each memoized edge is
        // rc-protected so it survives collections.
        let mut gate_memo: HashMap<GateKey, Edge> = HashMap::new();
        for inst in circuit.instructions() {
            match &inst.op {
                Operation::Gate(g) if inst.condition.is_none() => {
                    let matrix = g.matrix();
                    let key = GateKey::new(&matrix, &inst.qubits);
                    let gate_dd = match gate_memo.get(&key) {
                        Some(&edge) => edge,
                        None => {
                            let edge = package.gate_matrix(&matrix, &inst.qubits);
                            package.inc_ref_matrix(edge);
                            gate_memo.insert(key, edge);
                            edge
                        }
                    };
                    let next = package.multiply_mv(gate_dd, root);
                    package.inc_ref(next);
                    package.dec_ref(root);
                    root = next;
                    // Safe point: the state and every memoized gate are
                    // rc-protected, nothing else must survive.
                    package.maybe_collect();
                }
                Operation::Barrier => {}
                other => {
                    return Err(DdError::UnsupportedInstruction { name: other.name().to_owned() })
                }
            }
        }
        let peak = package.peak_live_nodes();
        let state = DdState { package, root, peak_nodes: peak };
        flush_dd_metrics(&state.package, state.node_count(), peak);
        Ok(state)
    }

    /// Builds the full circuit unitary as a matrix DD (the paper's Fig. 3
    /// object) and returns `(package, edge)`.
    ///
    /// # Errors
    ///
    /// Returns [`DdError::UnsupportedInstruction`] for non-unitary
    /// instructions.
    pub fn build_unitary(&self, circuit: &QuantumCircuit) -> Result<(DdPackage, Edge), DdError> {
        let mut package = DdPackage::new(circuit.num_qubits());
        package.set_cache_enabled(self.cache_enabled);
        let mut acc = package.identity();
        package.inc_ref_matrix(acc);
        let mut gate_memo: HashMap<GateKey, Edge> = HashMap::new();
        for inst in circuit.instructions() {
            match &inst.op {
                Operation::Gate(g) if inst.condition.is_none() => {
                    let matrix = g.matrix();
                    let key = GateKey::new(&matrix, &inst.qubits);
                    let gate_dd = match gate_memo.get(&key) {
                        Some(&edge) => edge,
                        None => {
                            let edge = package.gate_matrix(&matrix, &inst.qubits);
                            package.inc_ref_matrix(edge);
                            gate_memo.insert(key, edge);
                            edge
                        }
                    };
                    let next = package.multiply_mm(gate_dd, acc);
                    package.inc_ref_matrix(next);
                    package.dec_ref_matrix(acc);
                    acc = next;
                    package.maybe_collect();
                }
                Operation::Barrier => {}
                other => {
                    return Err(DdError::UnsupportedInstruction { name: other.name().to_owned() })
                }
            }
        }
        Ok((package, acc))
    }
}

/// Flushes package health counters (collected as plain fields on the hot
/// path) into the global metrics registry. A no-op when metrics are off.
fn flush_dd_metrics(package: &DdPackage, final_nodes: usize, peak_nodes: usize) {
    if !qukit_obs::enabled() {
        return;
    }
    let stats = package.stats();
    qukit_obs::counter_add("qukit_dd_unique_hits_total", stats.unique_hits);
    qukit_obs::counter_add("qukit_dd_unique_misses_total", stats.unique_misses);
    qukit_obs::counter_add("qukit_dd_compute_hits_total", stats.compute_hits);
    qukit_obs::counter_add("qukit_dd_compute_misses_total", stats.compute_misses);
    qukit_obs::counter_add("qukit_dd_weight_collisions_total", stats.weight_collisions);
    qukit_obs::counter_add("qukit_dd_gc_events_total", stats.gc_events);
    qukit_obs::counter_add("qukit_dd_gc_runs_total", stats.gc_runs);
    qukit_obs::counter_add("qukit_dd_gc_reclaimed_total", stats.gc_reclaimed);
    qukit_obs::counter_add("qukit_dd_gc_weights_reclaimed_total", stats.weights_reclaimed);
    qukit_obs::gauge_set("qukit_dd_nodes", final_nodes as f64);
    qukit_obs::gauge_set("qukit_dd_peak_nodes", peak_nodes as f64);
    qukit_obs::gauge_set("qukit_dd_live_nodes", package.live_nodes() as f64);
    qukit_obs::gauge_set("qukit_dd_peak_live_nodes", package.peak_live_nodes() as f64);
    qukit_obs::gauge_set("qukit_dd_weights", package.live_weights() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qukit_terra::circuit::fig1_circuit;

    #[test]
    fn fig1_matches_reference_simulation() {
        let circ = fig1_circuit();
        let state = DdSimulator::new().run(&circ).unwrap();
        let expected = qukit_terra::reference::statevector(&circ).unwrap();
        let actual = state.to_statevector();
        for (a, b) in actual.iter().zip(&expected) {
            assert!(a.approx_eq_eps(*b, 1e-9));
        }
    }

    #[test]
    fn unitary_dd_matches_reference_unitary() {
        let circ = fig1_circuit();
        let (package, edge) = DdSimulator::new().build_unitary(&circ).unwrap();
        let dense = package.to_matrix(edge);
        let expected = qukit_terra::reference::unitary(&circ).unwrap();
        assert!(dense.approx_eq_eps(&expected, 1e-9));
    }

    #[test]
    fn ghz_sampling_yields_only_two_outcomes() {
        let n = 8;
        let mut ghz = QuantumCircuit::new(n);
        ghz.h(0).unwrap();
        for q in 1..n {
            ghz.cx(q - 1, q).unwrap();
        }
        let state = DdSimulator::new().run(&ghz).unwrap();
        let counts = state.sample_counts(2000, 5);
        let all_ones = (1u64 << n) - 1;
        assert_eq!(counts.get_value(0) + counts.get_value(all_ones), 2000);
        let balance = counts.probability(0);
        assert!((balance - 0.5).abs() < 0.05, "balance {balance}");
    }

    #[test]
    fn sampling_matches_amplitudes_on_uneven_distribution() {
        let mut circ = QuantumCircuit::new(1);
        circ.ry(1.0, 0).unwrap(); // cos²(0.5) ≈ 0.7702 for |0⟩
        let state = DdSimulator::new().run(&circ).unwrap();
        let counts = state.sample_counts(4000, 9);
        let p0 = counts.probability(0);
        let expected = (0.5f64).cos().powi(2);
        assert!((p0 - expected).abs() < 0.03, "p0 {p0} vs {expected}");
    }

    #[test]
    fn measurement_is_rejected() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.measure(0, 0).unwrap();
        let err = DdSimulator::new().run(&circ).unwrap_err();
        assert!(err.to_string().contains("measure"));
    }

    #[test]
    fn barriers_are_ignored() {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.barrier_all();
        circ.cx(0, 1).unwrap();
        let state = DdSimulator::new().run(&circ).unwrap();
        assert!((state.amplitude(0).norm_sqr() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn without_cache_gives_identical_state() {
        let circ = fig1_circuit();
        let cached = DdSimulator::new().run(&circ).unwrap();
        let uncached = DdSimulator::new().without_cache().run(&circ).unwrap();
        let a = cached.to_statevector();
        let b = uncached.to_statevector();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.approx_eq_eps(*y, 1e-9));
        }
    }

    #[test]
    fn peak_nodes_is_reported() {
        let circ = fig1_circuit();
        let state = DdSimulator::new().run(&circ).unwrap();
        assert!(state.peak_nodes >= state.node_count());
    }
}
