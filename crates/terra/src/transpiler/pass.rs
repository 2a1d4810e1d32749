//! The pass manager: an explicit pipeline of transpiler passes.
//!
//! This module replaces the hard-coded `decompose → map → fix → optimize`
//! driver with the architecture Qiskit 1.x uses (arXiv:2405.08810): a
//! [`Pass`] trait running over a [`PassState`] (the circuit plus a lazily
//! derived [`DagCircuit`] view) with a shared [`PropertySet`], assembled
//! into staged [`PassManager`] pipelines per optimization level by
//! [`pipeline_for`].
//!
//! Every pass execution is wrapped in a profiler that reports wall time and
//! gate counts through `qukit-obs` (`qukit_terra_pass_seconds{pass=...}`
//! and friends). The profiler is strictly read-only: it observes gate
//! counts before/after but never writes to the [`PropertySet`] or the
//! circuit, so a profiled transpile is bit-identical to an unprofiled one
//! (see the determinism regression test in `tests/`).

use super::property_set::PropertySet;
use super::{decompose, mapping, optimize, synthesis};
use crate::circuit::QuantumCircuit;
use crate::dag::DagCircuit;
use crate::error::{Result, TerraError};

/// The circuit a pipeline is working on, with a lazily derived DAG view.
///
/// Transform passes replace the circuit (which invalidates the DAG);
/// analysis passes call [`PassState::dag`] to get dependency-graph
/// queries (layers, two-qubit work list) without each pass rebuilding it.
#[derive(Debug, Clone)]
pub struct PassState {
    circuit: QuantumCircuit,
    dag: Option<DagCircuit>,
}

impl PassState {
    /// Wraps a circuit for pipeline execution.
    pub fn new(circuit: QuantumCircuit) -> Self {
        Self { circuit, dag: None }
    }

    /// Borrows the current circuit.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// Replaces the circuit, invalidating the cached DAG view.
    pub fn replace(&mut self, circuit: QuantumCircuit) {
        self.circuit = circuit;
        self.dag = None;
    }

    /// The DAG view of the current circuit, built on first use and reused
    /// until the circuit changes.
    pub fn dag(&mut self) -> &DagCircuit {
        if self.dag.is_none() {
            self.dag = Some(DagCircuit::from_circuit(&self.circuit));
        }
        self.dag.as_ref().expect("just built")
    }

    /// Unwraps into the final circuit.
    pub fn into_circuit(self) -> QuantumCircuit {
        self.circuit
    }
}

/// One transpiler pass.
///
/// A pass either transforms the circuit (replacing it via
/// [`PassState::replace`]) or analyses it (reading [`PassState::dag`] and
/// publishing results to the [`PropertySet`]); many do a little of both.
pub trait Pass {
    /// Stable name used for profiling metrics and error messages.
    fn name(&self) -> &'static str;

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns an error when the pass cannot complete (device too small,
    /// disconnected coupling map, un-decomposed gate, …).
    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()>;
}

/// Per-pass instrumentation: a span in the trace (`transpile.pass`), a
/// duration histogram, and gates-in/gates-out counters, all labeled by
/// pass name. Inert while recording is disabled, and strictly read-only
/// with respect to the pass state and property set.
struct PassProfiler {
    inner: Option<(qukit_obs::Span, &'static str, usize)>,
}

impl PassProfiler {
    fn start(pass: &'static str, gates_in: usize) -> Self {
        if !qukit_obs::enabled() {
            return Self { inner: None };
        }
        let span = qukit_obs::Span::new("transpile.pass", format!("pass={pass}"))
            .with_metric(&format!("qukit_terra_pass_seconds{{pass=\"{pass}\"}}"));
        Self { inner: Some((span, pass, gates_in)) }
    }

    fn finish(self, gates_out: usize) {
        let Some((span, pass, gates_in)) = self.inner else { return };
        drop(span);
        qukit_obs::counter_inc(&format!("qukit_terra_pass_runs_total{{pass=\"{pass}\"}}"));
        qukit_obs::counter_add(
            &format!("qukit_terra_pass_gates_in_total{{pass=\"{pass}\"}}"),
            gates_in as u64,
        );
        qukit_obs::counter_add(
            &format!("qukit_terra_pass_gates_out_total{{pass=\"{pass}\"}}"),
            gates_out as u64,
        );
    }
}

/// An ordered pipeline of passes sharing one [`PropertySet`].
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pass to the pipeline.
    pub fn push(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the passes in execution order (used by docs and tests).
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order over `circuit`, profiling each one.
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure.
    pub fn run(&self, circuit: &QuantumCircuit, props: &mut PropertySet) -> Result<QuantumCircuit> {
        let mut state = PassState::new(circuit.clone());
        for pass in &self.passes {
            let profiler = PassProfiler::start(pass.name(), state.circuit().num_gates());
            pass.run(&mut state, props)?;
            profiler.finish(state.circuit().num_gates());
        }
        Ok(state.into_circuit())
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager").field("passes", &self.pass_names()).finish()
    }
}

// --- Concrete passes -------------------------------------------------------

/// Rewrites every multi-qubit gate into `{1q, CX}`.
pub struct DecomposePass;

impl Pass for DecomposePass {
    fn name(&self) -> &'static str {
        "decompose"
    }

    fn run(&self, state: &mut PassState, _props: &mut PropertySet) -> Result<()> {
        let out = decompose::decompose_to_cx_basis(state.circuit())?;
        state.replace(out);
        Ok(())
    }
}

/// DAG-based analysis: publishes depth, gate counts and the two-qubit work
/// list size under `analysis.<stage>.*` in the property set.
pub struct AnalysisPass {
    /// Key prefix distinguishing pre/post pipeline snapshots.
    pub stage: &'static str,
}

impl Pass for AnalysisPass {
    fn name(&self) -> &'static str {
        "analysis"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let gates = state.circuit().num_gates() as u64;
        let dag = state.dag();
        let depth = dag.layers().len() as u64;
        let two_qubit = dag.two_qubit_gates().count() as u64;
        let stage = self.stage;
        props.set_int(&format!("analysis.{stage}.depth"), depth);
        props.set_int(&format!("analysis.{stage}.gates"), gates);
        props.set_int(&format!("analysis.{stage}.two_qubit_gates"), two_qubit);
        Ok(())
    }
}

/// Places and routes the circuit onto the property set's coupling map,
/// publishing the chosen layouts and swap count.
pub struct MappingPass {
    /// Routing algorithm.
    pub kind: mapping::MapperKind,
    /// Initial placement strategy.
    pub initial: mapping::InitialLayout,
}

impl Pass for MappingPass {
    fn name(&self) -> &'static str {
        "mapping"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let map = props.coupling_map.clone().ok_or_else(|| TerraError::Transpile {
            msg: "mapping pass requires a coupling map in the property set".to_owned(),
        })?;
        let mapped = mapping::map_circuit(state.circuit(), &map, self.kind, &self.initial)?;
        props.initial_layout = Some(mapped.initial_layout);
        props.final_layout = Some(mapped.final_layout);
        props.num_swaps = mapped.num_swaps;
        props.set_int("mapping.num_swaps", mapped.num_swaps as u64);
        props.set_text("mapping.router", format!("{:?}", self.kind).to_lowercase());
        qukit_obs::counter_add("qukit_terra_swaps_inserted_total", mapped.num_swaps as u64);
        state.replace(mapped.circuit);
        Ok(())
    }
}

/// Decomposes router-inserted SWAPs and conjugates reversed CNOTs with
/// Hadamards so every CNOT satisfies the directed coupling constraints.
pub struct FixDirectionsPass;

impl Pass for FixDirectionsPass {
    fn name(&self) -> &'static str {
        "fix_directions"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let map = props.coupling_map.clone().ok_or_else(|| TerraError::Transpile {
            msg: "direction pass requires a coupling map in the property set".to_owned(),
        })?;
        let out = mapping::fix_directions(state.circuit(), &map)?;
        state.replace(out);
        Ok(())
    }
}

/// Cancels adjacent gate/inverse pairs.
pub struct CancelInversePairsPass;

impl Pass for CancelInversePairsPass {
    fn name(&self) -> &'static str {
        "cancel_inverse_pairs"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let (out, removed) = optimize::cancel_inverse_pairs(state.circuit());
        props.set_int("optimize.inverse_pairs_removed", removed as u64);
        state.replace(out);
        Ok(())
    }
}

/// Cancels CX pairs separated only by commuting gates.
pub struct CancelCommutingCxPass;

impl Pass for CancelCommutingCxPass {
    fn name(&self) -> &'static str {
        "cancel_commuting_cx"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let (out, removed) = optimize::cancel_commuting_cx_pairs(state.circuit());
        props.set_int("optimize.commuting_cx_removed", removed as u64);
        state.replace(out);
        Ok(())
    }
}

/// Merges maximal single-qubit runs into one `U` via ZYZ resynthesis.
pub struct MergeSingleQubitRunsPass;

impl Pass for MergeSingleQubitRunsPass {
    fn name(&self) -> &'static str {
        "merge_1q_runs"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let (out, eliminated) = optimize::merge_single_qubit_runs(state.circuit());
        props.set_int("optimize.merged_1q_gates", eliminated as u64);
        state.replace(out);
        Ok(())
    }
}

/// Drops numerically-identity gates.
pub struct DropIdentitiesPass;

impl Pass for DropIdentitiesPass {
    fn name(&self) -> &'static str {
        "drop_identities"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let (out, removed) = optimize::drop_identities(state.circuit());
        props.set_int("optimize.identities_dropped", removed as u64);
        state.replace(out);
        Ok(())
    }
}

/// Recompiles dense two-qubit runs through the KAK canonical form,
/// capping each run at 3 CX (optimization level 3, pre-routing: blocks
/// are collected on logical qubits before SWAP insertion fragments them).
pub struct Resynthesize2qPass;

impl Pass for Resynthesize2qPass {
    fn name(&self) -> &'static str {
        "resynth_2q"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let (out, rewritten) = synthesis::resynthesize_2q_blocks(state.circuit())?;
        props.set_int("optimize.blocks_resynthesized", rewritten as u64);
        if rewritten > 0 {
            state.replace(out);
        }
        Ok(())
    }
}

/// Iterates the full optimization pipeline to a gate-count fixpoint
/// (optimization level 3).
pub struct FixpointOptimizePass;

impl Pass for FixpointOptimizePass {
    fn name(&self) -> &'static str {
        "optimize_fixpoint"
    }

    fn run(&self, state: &mut PassState, props: &mut PropertySet) -> Result<()> {
        let before = state.circuit().num_gates();
        let out = optimize::optimize_to_fixpoint(state.circuit())?;
        props.set_int("optimize.fixpoint_removed", before.saturating_sub(out.num_gates()) as u64);
        state.replace(out);
        Ok(())
    }
}

/// Rewrites the remaining single-qubit gates into the hardware-elementary
/// `U(θ,φ,λ)` basis.
pub struct BasisUPass;

impl Pass for BasisUPass {
    fn name(&self) -> &'static str {
        "basis_u"
    }

    fn run(&self, state: &mut PassState, _props: &mut PropertySet) -> Result<()> {
        let out = decompose::rewrite_1q_to_u(state.circuit())?;
        state.replace(out);
        Ok(())
    }
}

/// Builds the staged pipeline for the requested options — the table of
/// optimization levels documented in the README:
///
/// | level | optimization stage |
/// |-------|--------------------|
/// | 0     | none               |
/// | 1     | inverse-pair cancellation + identity drop |
/// | 2     | level 1 + single-qubit resynthesis |
/// | 3     | KAK block resynthesis (pre-routing) + level 2 + commuting-CX cancellation, iterated to fixpoint |
///
/// Every pipeline starts with decomposition (and, when a coupling map is
/// present, routing + direction fixing) and records pre/post analysis
/// snapshots in the property set.
pub fn pipeline_for(options: &super::TranspileOptions) -> PassManager {
    let mut pm = PassManager::new();
    pm.push(AnalysisPass { stage: "input" });
    pm.push(DecomposePass);
    if options.optimization_level >= 3 {
        pm.push(Resynthesize2qPass);
    }
    if options.coupling_map.is_some() {
        pm.push(MappingPass { kind: options.mapper, initial: options.initial_layout.clone() });
        pm.push(FixDirectionsPass);
    }
    match options.optimization_level {
        0 => {}
        1 => {
            pm.push(CancelInversePairsPass);
            pm.push(DropIdentitiesPass);
        }
        2 => {
            pm.push(CancelInversePairsPass);
            pm.push(MergeSingleQubitRunsPass);
            pm.push(DropIdentitiesPass);
        }
        _ => {
            pm.push(FixpointOptimizePass);
        }
    }
    if options.basis_u {
        pm.push(BasisUPass);
    }
    pm.push(AnalysisPass { stage: "output" });
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::fig1_circuit;
    use crate::coupling::CouplingMap;
    use crate::transpiler::{InitialLayout, MapperKind, TranspileOptions};

    #[test]
    fn pipeline_shape_tracks_options() {
        let mut opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
        opts.optimization_level = 2;
        opts.basis_u = true;
        let names = pipeline_for(&opts).pass_names();
        assert_eq!(
            names,
            vec![
                "analysis",
                "decompose",
                "mapping",
                "fix_directions",
                "cancel_inverse_pairs",
                "merge_1q_runs",
                "drop_identities",
                "basis_u",
                "analysis",
            ]
        );
        let sim = pipeline_for(&TranspileOptions::for_simulator(0)).pass_names();
        assert_eq!(sim, vec!["analysis", "decompose", "analysis"]);
        let full = pipeline_for(&TranspileOptions::for_simulator(3)).pass_names();
        assert_eq!(
            full,
            vec!["analysis", "decompose", "resynth_2q", "optimize_fixpoint", "analysis"]
        );
    }

    #[test]
    fn manager_threads_properties_through_passes() {
        let opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
        let pm = pipeline_for(&opts);
        let mut props = PropertySet::new(opts.coupling_map.clone());
        let out = pm.run(&fig1_circuit(), &mut props).unwrap();
        assert!(props.initial_layout.is_some());
        assert!(props.final_layout.is_some());
        assert!(props.get_int("analysis.input.depth").is_some());
        assert!(props.get_int("analysis.output.gates").is_some());
        assert_eq!(props.get_text("mapping.router"), Some("sabre"));
        assert_eq!(out.num_qubits(), 5, "mapped onto the device register");
    }

    #[test]
    fn mapping_pass_without_coupling_map_errors() {
        let pass = MappingPass { kind: MapperKind::Basic, initial: InitialLayout::Trivial };
        let mut state = PassState::new(fig1_circuit());
        let mut props = PropertySet::new(None);
        assert!(pass.run(&mut state, &mut props).is_err());
    }

    #[test]
    fn dag_view_is_cached_until_replace() {
        let mut state = PassState::new(fig1_circuit());
        let depth = state.dag().layers().len();
        assert!(depth > 0);
        // Replacing invalidates; new DAG reflects the new circuit.
        state.replace(QuantumCircuit::new(2));
        assert_eq!(state.dag().layers().len(), 0);
    }
}
