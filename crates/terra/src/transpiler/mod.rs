//! The transpiler: decomposition, mapping, and optimization.
//!
//! This module is qukit's analogue of the `compile` step the paper walks
//! through in Section IV (and improves on in Section V-B): it takes an
//! abstract circuit and produces one that satisfies a device's elementary
//! gate set (`{U(θ,φ,λ), CX}`) and CNOT-constraints.
//!
//! Since the pass-manager rebuild, [`transpile`] is a thin driver: it asks
//! [`pass::pipeline_for`] for the staged [`pass::PassManager`] matching the
//! requested options and runs it with a fresh
//! [`property_set::PropertySet`]. The default device pipeline:
//!
//! 1. **Decompose** every multi-qubit gate to `{1q, CX}`
//!    ([`decompose::decompose_to_cx_basis`]);
//! 2. **Place & route** onto the coupling map with the selected
//!    [`MapperKind`] ([`mapping::map_circuit`]);
//! 3. **Fix directions** — decompose inserted SWAPs and conjugate reversed
//!    CNOTs with Hadamards ([`mapping::fix_directions`]);
//! 4. **Optimize** — cancel inverse pairs and merge single-qubit runs into
//!    `U` gates ([`optimize`]), per the requested [`TranspileOptions::optimization_level`].
//!
//! Repeated transpiles of the same (circuit, options) pair can skip the
//! pipeline entirely via [`cache::transpile_cached`].
//!
//! # Examples
//!
//! Reproducing the paper's Fig. 4 (mapping Fig. 1 to IBM QX4):
//!
//! ```
//! use qukit_terra::circuit::fig1_circuit;
//! use qukit_terra::coupling::CouplingMap;
//! use qukit_terra::transpiler::{transpile, MapperKind, TranspileOptions};
//!
//! # fn main() -> Result<(), qukit_terra::error::TerraError> {
//! let mut naive = TranspileOptions::for_device(CouplingMap::ibm_qx4());
//! naive.mapper = MapperKind::Basic;
//! naive.optimization_level = 0;
//! let fig4a = transpile(&fig1_circuit(), &naive)?;
//!
//! let mut smart = TranspileOptions::for_device(CouplingMap::ibm_qx4());
//! smart.mapper = MapperKind::AStar;
//! smart.optimization_level = 2;
//! let fig4b = transpile(&fig1_circuit(), &smart)?;
//!
//! assert!(fig4b.circuit.num_gates() <= fig4a.circuit.num_gates());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod decompose;
pub mod mapping;
pub mod optimize;
pub mod pass;
pub mod property_set;
pub mod synthesis;

pub use cache::{transpile_cached, CacheStats};
pub use mapping::{
    choose_initial_layout, fix_directions, map_circuit, satisfies_coupling, InitialLayout,
    MapperKind, MappingResult,
};
pub use pass::{Pass, PassManager, PassState};
pub use property_set::PropertySet;

use crate::circuit::QuantumCircuit;
use crate::coupling::CouplingMap;
use crate::error::Result;

/// Options controlling [`transpile`].
#[derive(Debug, Clone, Default)]
pub struct TranspileOptions {
    /// Target coupling map; `None` transpiles for an all-to-all simulator.
    pub coupling_map: Option<CouplingMap>,
    /// Initial placement strategy.
    pub initial_layout: InitialLayout,
    /// Routing algorithm.
    pub mapper: MapperKind,
    /// 0 = decompose+map only; 1 = + inverse-pair cancellation;
    /// 2 = + single-qubit resynthesis; 3 = iterate all passes to fixpoint.
    pub optimization_level: u8,
    /// Rewrite all remaining single-qubit gates into `U(θ,φ,λ)` so the
    /// output uses only the hardware-elementary basis.
    pub basis_u: bool,
}

impl TranspileOptions {
    /// Default options targeting a specific device: the default router
    /// ([`MapperKind::Sabre`]), optimization level 1.
    pub fn for_device(map: CouplingMap) -> Self {
        Self {
            coupling_map: Some(map),
            initial_layout: InitialLayout::Trivial,
            mapper: MapperKind::default(),
            optimization_level: 1,
            basis_u: false,
        }
    }

    /// Options for simulator targets (no coupling constraints) at the given
    /// optimization level.
    pub fn for_simulator(optimization_level: u8) -> Self {
        Self { optimization_level, ..Self::default() }
    }
}

/// The output of [`transpile`].
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The transpiled circuit. When a coupling map was given, its qubits
    /// are *physical* device qubits.
    pub circuit: QuantumCircuit,
    /// Logical→physical placement at circuit start (identity when no
    /// coupling map was given).
    pub initial_layout: Vec<usize>,
    /// Logical→physical placement at circuit end.
    pub final_layout: Vec<usize>,
    /// Number of SWAPs the router inserted.
    pub num_swaps: usize,
}

/// Transpiles `circuit` according to `options`.
///
/// Builds the staged pipeline via [`pass::pipeline_for`] and runs it with
/// a fresh [`PropertySet`]. When [`qukit_obs`] recording is enabled, each
/// pass reports its wall time (`qukit_terra_pass_seconds{pass=...}`) and
/// gate counts, and the run as a whole reports gates/depth before and
/// after plus the number of SWAPs the router inserted.
///
/// # Errors
///
/// Returns an error when the device is too small or disconnected, or any
/// pass fails validation.
pub fn transpile(circuit: &QuantumCircuit, options: &TranspileOptions) -> Result<TranspileResult> {
    transpile_with_properties(circuit, options).map(|(result, _)| result)
}

/// [`transpile`], also returning the pipeline's final [`PropertySet`]
/// (analysis snapshots, per-pass removal counts, router name).
///
/// # Errors
///
/// Same failure modes as [`transpile`].
pub fn transpile_with_properties(
    circuit: &QuantumCircuit,
    options: &TranspileOptions,
) -> Result<(TranspileResult, PropertySet)> {
    let _span =
        qukit_obs::span!("transpile", qubits = circuit.num_qubits(), gates = circuit.num_gates());
    if qukit_obs::enabled() {
        qukit_obs::counter_inc("qukit_terra_transpile_runs_total");
        qukit_obs::counter_add("qukit_terra_gates_in_total", circuit.num_gates() as u64);
        qukit_obs::counter_add("qukit_terra_depth_in_total", circuit.depth() as u64);
    }

    let manager = pass::pipeline_for(options);
    let mut props = PropertySet::new(options.coupling_map.clone());
    let out = manager.run(circuit, &mut props)?;

    let identity: Vec<usize> = (0..circuit.num_qubits()).collect();
    let initial_layout = props.initial_layout.clone().unwrap_or_else(|| identity.clone());
    let final_layout = props.final_layout.clone().unwrap_or(identity);
    let num_swaps = props.num_swaps;

    if qukit_obs::enabled() {
        qukit_obs::counter_add("qukit_terra_gates_out_total", out.num_gates() as u64);
        qukit_obs::counter_add("qukit_terra_depth_out_total", out.depth() as u64);
    }

    Ok((TranspileResult { circuit: out, initial_layout, final_layout, num_swaps }, props))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::fig1_circuit;
    use crate::gate::Gate;
    use crate::matrix::state_fidelity;
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_device_equivalent(
        original: &QuantumCircuit,
        result: &TranspileResult,
        map: &CouplingMap,
    ) {
        let mut rng = StdRng::seed_from_u64(11);
        let input = reference::random_state(original.num_qubits(), &mut rng);
        let expected = reference::evolve(original, &input).unwrap();
        let phys_in = reference::embed_state(&input, &result.initial_layout, map.num_qubits());
        let phys_out = reference::evolve(&result.circuit, &phys_in).unwrap();
        let expected_phys =
            reference::embed_state(&expected, &result.final_layout, map.num_qubits());
        let f = state_fidelity(&phys_out, &expected_phys);
        assert!(f > 1.0 - 1e-9, "fidelity {f}");
    }

    #[test]
    fn full_pipeline_on_fig1_for_qx4() {
        let circ = fig1_circuit();
        let qx4 = CouplingMap::ibm_qx4();
        for level in 0..=3 {
            for mapper in [MapperKind::Basic, MapperKind::AStar, MapperKind::Sabre] {
                let mut opts = TranspileOptions::for_device(qx4.clone());
                opts.mapper = mapper;
                opts.optimization_level = level;
                let result = transpile(&circ, &opts).unwrap();
                assert!(
                    satisfies_coupling(&result.circuit, &qx4),
                    "level {level} {mapper:?} violates coupling"
                );
                assert_device_equivalent(&circ, &result, &qx4);
            }
        }
    }

    #[test]
    fn optimization_levels_monotonically_shrink_fig1() {
        let circ = fig1_circuit();
        let qx4 = CouplingMap::ibm_qx4();
        let mut sizes = Vec::new();
        for level in 0..=3 {
            let mut opts = TranspileOptions::for_device(qx4.clone());
            opts.mapper = MapperKind::Basic;
            opts.optimization_level = level;
            sizes.push(transpile(&circ, &opts).unwrap().circuit.num_gates());
        }
        assert!(sizes[1] <= sizes[0]);
        assert!(sizes[2] <= sizes[1]);
        assert!(sizes[3] <= sizes[2]);
    }

    #[test]
    fn improved_mapping_beats_naive_on_fig1() {
        // The paper's Fig. 4 story: the optimized flow produces a smaller
        // circuit than the naive compile.
        let circ = fig1_circuit();
        let qx4 = CouplingMap::ibm_qx4();

        let mut naive = TranspileOptions::for_device(qx4.clone());
        naive.mapper = MapperKind::Basic;
        naive.optimization_level = 0;
        let fig4a = transpile(&circ, &naive).unwrap();

        let mut smart = TranspileOptions::for_device(qx4.clone());
        smart.mapper = MapperKind::AStar;
        smart.optimization_level = 3;
        let fig4b = transpile(&circ, &smart).unwrap();

        assert!(
            fig4b.circuit.num_gates() < fig4a.circuit.num_gates(),
            "optimized {} !< naive {}",
            fig4b.circuit.num_gates(),
            fig4a.circuit.num_gates()
        );
    }

    #[test]
    fn simulator_target_skips_mapping() {
        let mut circ = QuantumCircuit::new(3);
        circ.ccx(0, 1, 2).unwrap();
        let result = transpile(&circ, &TranspileOptions::for_simulator(1)).unwrap();
        assert_eq!(result.num_swaps, 0);
        assert_eq!(result.initial_layout, vec![0, 1, 2]);
        // Toffoli got decomposed.
        assert_eq!(result.circuit.count_ops()["cx"], 6);
        let u1 = reference::unitary(&circ).unwrap();
        let u2 = reference::unitary(&result.circuit).unwrap();
        assert!(u2.phase_equal_to(&u1).is_some());
    }

    #[test]
    fn basis_u_leaves_only_u_and_cx() {
        let circ = fig1_circuit();
        let mut opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
        opts.optimization_level = 2;
        opts.basis_u = true;
        let result = transpile(&circ, &opts).unwrap();
        for inst in result.circuit.instructions() {
            if let Some(g) = inst.as_gate() {
                assert!(matches!(g, Gate::U(..) | Gate::CX), "unexpected {g:?}");
            }
        }
    }

    #[test]
    fn measured_circuits_transpile() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        let opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
        let result = transpile(&circ, &opts).unwrap();
        assert_eq!(result.circuit.count_ops()["measure"], 2);
        assert_eq!(result.circuit.num_clbits(), 2);
    }

    #[test]
    fn dense_layout_reduces_swaps_on_star_circuit() {
        // q0 talks to q1..q3: trivial layout on QX4 puts q0 at Q0 (degree 2),
        // dense layout puts it at Q2 (degree 4).
        let mut circ = QuantumCircuit::new(4);
        circ.cx(0, 1).unwrap();
        circ.cx(0, 2).unwrap();
        circ.cx(0, 3).unwrap();
        circ.cx(0, 1).unwrap();
        circ.cx(0, 2).unwrap();
        circ.cx(0, 3).unwrap();
        let qx4 = CouplingMap::ibm_qx4();
        let mut trivial = TranspileOptions::for_device(qx4.clone());
        trivial.mapper = MapperKind::AStar;
        let mut dense = trivial.clone();
        dense.initial_layout = InitialLayout::Dense;
        let swaps_trivial = transpile(&circ, &trivial).unwrap().num_swaps;
        let swaps_dense = transpile(&circ, &dense).unwrap().num_swaps;
        assert!(swaps_dense <= swaps_trivial, "dense {swaps_dense} > trivial {swaps_trivial}");
    }
}
