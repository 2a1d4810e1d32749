//! The circuit simulators.
//!
//! * [`QasmSimulator`] — shot-based execution with measurement, reset,
//!   classical conditionals and (optionally) a [`NoiseModel`]; the
//!   workhorse corresponding to Qiskit Aer's `qasm_simulator` used in the
//!   paper's walkthrough (`Aer.get_backend('qasm_simulator')`).
//! * [`StatevectorSimulator`] — exact final-state computation for unitary
//!   circuits.
//! * [`UnitarySimulator`] — full-unitary extraction for verification.
//!
//! Both dense simulators evolve ideal states on the one statevector
//! engine in [`crate::parallel`], whatever the [`ParallelConfig`]: a
//! single worker thread is one configuration of it, not a separate path.
//! `QasmSimulator` has exactly two execution paths. Ideal circuits whose
//! measurements are terminal evolve once on the engine and sample the
//! final state. Everything else (noise, mid-circuit measurement, reset,
//! conditionals) runs per-shot trajectories on [`Statevector`], in
//! fixed batches of shots with per-batch seeded RNG streams, so seeded
//! counts never depend on the thread count.

use crate::counts::Counts;
use crate::error::{AerError, Result};
use crate::noise::NoiseModel;
use crate::parallel::{self, ParallelConfig};
use crate::statevector::Statevector;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::complex::Complex;
use qukit_terra::instruction::Operation;
use qukit_terra::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_QUBITS: usize = 30;

/// Local accumulator for apply-gate counts, flushed to the global
/// [`qukit_obs`] registry once per run so the per-gate hot path stays free
/// of locks and atomics.
#[derive(Debug, Default)]
pub(crate) struct GateTally {
    gates: u64,
    amplitudes: u64,
}

impl GateTally {
    /// Records one gate application that touched `amplitudes` entries.
    #[inline]
    pub(crate) fn record(&mut self, amplitudes: u64) {
        self.gates += 1;
        self.amplitudes += amplitudes;
    }

    /// Records `gates` source gates folded into one pass over `amplitudes`
    /// entries (used by the fused kernels).
    #[inline]
    pub(crate) fn record_n(&mut self, gates: u64, amplitudes: u64) {
        self.gates += gates;
        self.amplitudes += amplitudes;
    }

    /// Flushes into the named gate counter plus the shared
    /// amplitudes-touched counter (no-op while recording is disabled).
    pub(crate) fn flush(self, gate_counter: &str) {
        qukit_obs::counter_add(gate_counter, self.gates);
        qukit_obs::counter_add("qukit_aer_amplitudes_touched_total", self.amplitudes);
    }
}

/// Shot-based simulator with optional noise injection.
///
/// # Examples
///
/// ```
/// use qukit_aer::simulator::QasmSimulator;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_aer::error::AerError> {
/// let mut bell = QuantumCircuit::with_size(2, 2);
/// bell.h(0).unwrap();
/// bell.cx(0, 1).unwrap();
/// bell.measure(0, 0).unwrap();
/// bell.measure(1, 1).unwrap();
///
/// let counts = QasmSimulator::new().with_seed(7).run(&bell, 1000)?;
/// assert_eq!(counts.total(), 1000);
/// assert_eq!(counts.get("01") + counts.get("10"), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QasmSimulator {
    noise: Option<NoiseModel>,
    seed: Option<u64>,
    parallel: ParallelConfig,
}

impl QasmSimulator {
    /// Creates an ideal (noiseless) simulator. The parallel configuration
    /// defaults to [`ParallelConfig::from_env`], so `QUKIT_THREADS` /
    /// `QUKIT_CHUNK_QUBITS` / `QUKIT_SIMD` steer every default-constructed
    /// instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a noise model (builder style).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Fixes the RNG seed for reproducible sampling (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the statevector engine configuration (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The attached noise model, if any.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// The active parallel configuration.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// Executes `shots` repetitions of `circuit` and histograms the
    /// classical outcomes.
    ///
    /// When the circuit is measurement-terminal (no reset, no conditional,
    /// all measurements after the last gate) and the simulator is
    /// noiseless, the state is evolved once and sampled `shots` times;
    /// otherwise each shot is an independent trajectory. For a fixed seed
    /// the counts are identical at every thread count, chunk size and
    /// SIMD setting.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit is too wide or uses more than 64
    /// classical bits.
    pub fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        self.run_into(circuit, shots, &mut Vec::new())
    }

    /// Executes a batch of circuits — typically the bindings of one
    /// parameter sweep — with `shots` repetitions each, reusing the
    /// amplitude buffer across bindings so a 64-point sweep allocates one
    /// state instead of 64.
    ///
    /// For a seeded simulator the returned histograms are bit-identical
    /// to calling [`QasmSimulator::run`] once per circuit: each binding
    /// runs the exact same evolution and sampling code with the same
    /// seed derivation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QasmSimulator::run`], for any circuit.
    pub fn run_batch(&self, circuits: &[QuantumCircuit], shots: usize) -> Result<Vec<Counts>> {
        let _span =
            qukit_obs::span!("aer.qasm_run_batch", circuits = circuits.len(), shots = shots,);
        qukit_obs::counter_inc("qukit_aer_batch_runs_total");
        let mut amps = Vec::new();
        circuits.iter().map(|circuit| self.run_into(circuit, shots, &mut amps)).collect()
    }

    /// [`QasmSimulator::run`] with a caller-provided amplitude buffer
    /// (reused across the bindings of a batch).
    fn run_into(
        &self,
        circuit: &QuantumCircuit,
        shots: usize,
        amps: &mut Vec<Complex>,
    ) -> Result<Counts> {
        if circuit.num_qubits() > MAX_QUBITS {
            return Err(AerError::TooManyQubits {
                requested: circuit.num_qubits(),
                max: MAX_QUBITS,
            });
        }
        if circuit.num_clbits() > 64 {
            return Err(AerError::TooManyClbits { requested: circuit.num_clbits() });
        }
        let seed = self.seed.unwrap_or_else(|| rand::thread_rng().gen());
        let ideal = self.noise.as_ref().is_none_or(NoiseModel::is_ideal);
        let sampled = ideal && is_measurement_terminal(circuit);
        let _span = qukit_obs::span!(
            "aer.qasm_run",
            qubits = circuit.num_qubits(),
            shots = shots,
            mode = if sampled { "sampled" } else { "trajectory" },
        );
        qukit_obs::counter_inc("qukit_aer_qasm_runs_total");
        qukit_obs::counter_add("qukit_aer_shots_total", shots as u64);
        if sampled {
            self.run_terminal(circuit, shots, seed, amps)
        } else {
            self.run_trajectories(circuit, shots, seed)
        }
    }

    /// The ideal path: evolve once on the statevector engine, then draw
    /// every shot from the final state in batched CDF sampling with
    /// per-batch RNG streams.
    fn run_terminal(
        &self,
        circuit: &QuantumCircuit,
        shots: usize,
        seed: u64,
        amps: &mut Vec<Complex>,
    ) -> Result<Counts> {
        let mut measures: Vec<(usize, usize)> = Vec::new();
        for inst in circuit.instructions() {
            if let Operation::Measure = inst.op {
                measures.push((inst.qubits[0], inst.clbits[0]));
            }
        }
        amps.clear();
        amps.resize(1usize << circuit.num_qubits(), Complex::ZERO);
        amps[0] = Complex::ONE;
        let mut tally = GateTally::default();
        // Terminal measurements commute with every later gate (those act
        // on other qubits), so the engine sees the circuit without them.
        let gates =
            circuit.instructions().iter().filter(|inst| !matches!(inst.op, Operation::Measure));
        parallel::evolve(amps, gates, &self.parallel, &mut tally)?;
        tally.flush("qukit_aer_statevector_gates_total");
        let _sample_span = qukit_obs::span!("aer.sample", shots = shots, mode = "statevector")
            .with_metric("qukit_aer_sample_seconds");
        let mut samples = parallel::sample_terminal(amps, shots, seed, self.parallel.threads);
        // One histogram update per distinct basis state, not per shot.
        samples.sort_unstable();
        let mut counts = Counts::new(circuit.num_clbits());
        for run in samples.chunk_by(|a, b| a == b) {
            let mut outcome = 0u64;
            for &(q, c) in &measures {
                if (run[0] >> q) & 1 == 1 {
                    outcome |= 1 << c;
                }
            }
            counts.record_n(outcome, run.len());
        }
        Ok(counts)
    }

    /// The trajectory path: shots are split into fixed-size batches with
    /// per-batch seeded RNG streams (thread-count-invariant for a fixed
    /// seed); workers claim batches in a fixed stride.
    fn run_trajectories(
        &self,
        circuit: &QuantumCircuit,
        shots: usize,
        seed: u64,
    ) -> Result<Counts> {
        let batch_size = parallel::TRAJECTORY_BATCH;
        let batches = shots.div_ceil(batch_size);
        let threads = self.parallel.threads.clamp(1, parallel::MAX_THREADS).min(batches);
        let run_batch = |batch: usize| -> Result<(Counts, GateTally)> {
            let lo = batch * batch_size;
            let hi = ((batch + 1) * batch_size).min(shots);
            let mut rng = StdRng::seed_from_u64(parallel::batch_seed(seed, batch as u64));
            let mut counts = Counts::new(circuit.num_clbits());
            let mut tally = GateTally::default();
            for _ in lo..hi {
                let outcome = self.run_trajectory(circuit, &mut rng, &mut tally)?;
                counts.record(outcome);
            }
            Ok((counts, tally))
        };
        let results: Vec<Result<(Counts, GateTally)>> = if threads <= 1 {
            (0..batches).map(run_batch).collect()
        } else {
            std::thread::scope(|scope| {
                let run_batch = &run_batch;
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            let mut batch = w;
                            while batch < batches {
                                local.push(run_batch(batch));
                                batch += threads;
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("trajectory worker panicked"))
                    .collect()
            })
        };
        let mut counts = Counts::new(circuit.num_clbits());
        let mut tally = GateTally::default();
        for result in results {
            let (batch_counts, batch_tally) = result?;
            for (outcome, n) in batch_counts.iter() {
                counts.record_n(outcome, n);
            }
            tally.record_n(batch_tally.gates, batch_tally.amplitudes);
        }
        tally.flush("qukit_aer_statevector_gates_total");
        Ok(counts)
    }

    /// Full trajectory: one shot with mid-circuit measurement, reset,
    /// conditionals and stochastic noise.
    fn run_trajectory(
        &self,
        circuit: &QuantumCircuit,
        rng: &mut StdRng,
        tally: &mut GateTally,
    ) -> Result<u64> {
        let mut state = Statevector::new(circuit.num_qubits());
        let dim = 1u64 << circuit.num_qubits();
        let mut creg = 0u64;
        let readout = self.noise.as_ref().and_then(|n| n.readout_error());
        for inst in circuit.instructions() {
            if let Some(cond) = &inst.condition {
                let mut value = 0u64;
                for (i, &c) in cond.clbits.iter().enumerate() {
                    if (creg >> c) & 1 == 1 {
                        value |= 1 << i;
                    }
                }
                if value != cond.value {
                    continue;
                }
            }
            match &inst.op {
                Operation::Gate(g) => {
                    state.apply_gate(*g, &inst.qubits);
                    tally.record(dim);
                    if let Some(noise) = &self.noise {
                        if let Some(error) = noise.error_for(g.name(), &inst.qubits) {
                            if error.num_qubits() == inst.qubits.len() {
                                error.apply_stochastic(&mut state, &inst.qubits, rng);
                            }
                        }
                    }
                }
                Operation::Measure => {
                    let mut bit = state.measure(inst.qubits[0], rng);
                    if let Some(readout) = readout {
                        bit = readout.apply(bit, rng);
                    }
                    if bit {
                        creg |= 1 << inst.clbits[0];
                    } else {
                        creg &= !(1 << inst.clbits[0]);
                    }
                }
                Operation::Reset => state.reset(inst.qubits[0], rng),
                Operation::Barrier => {}
            }
        }
        Ok(creg)
    }
}

/// Returns `true` when measurement is effectively terminal: no
/// conditional or reset instructions, each measured qubit is never
/// touched again after its measure, and no classical bit is written
/// twice. Gates on *other* qubits may follow a measure — a measurement
/// commutes with operations on disjoint qubits, so sampling the terminal
/// distribution once is exact. Schedulers and device transpilers
/// routinely interleave measures with tail gates this way; recognising
/// the pattern keeps transpiled circuits on the evolve-once fast path
/// instead of paying one full statevector evolution per shot.
fn is_measurement_terminal(circuit: &QuantumCircuit) -> bool {
    // Qubit and clbit counts are bounded well below 64 at every call
    // site (MAX_QUBITS and the 64-clbit admission check), so bitmasks
    // suffice.
    let mut measured_qubits = 0u64;
    let mut written_clbits = 0u64;
    for inst in circuit.instructions() {
        if inst.condition.is_some() {
            return false;
        }
        match inst.op {
            Operation::Measure => {
                let qubit = 1u64 << inst.qubits[0];
                let clbit = 1u64 << inst.clbits[0];
                if measured_qubits & qubit != 0 || written_clbits & clbit != 0 {
                    return false;
                }
                measured_qubits |= qubit;
                written_clbits |= clbit;
            }
            Operation::Reset => return false,
            Operation::Gate(_) => {
                if inst.qubits.iter().any(|&q| measured_qubits & (1u64 << q) != 0) {
                    return false;
                }
            }
            Operation::Barrier => {}
        }
    }
    true
}

/// Exact statevector simulator for unitary circuits, on the statevector
/// engine of [`crate::parallel`].
///
/// # Examples
///
/// ```
/// use qukit_aer::parallel::ParallelConfig;
/// use qukit_aer::simulator::StatevectorSimulator;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_aer::error::AerError> {
/// let mut ghz = QuantumCircuit::new(3);
/// ghz.h(0).unwrap();
/// ghz.cx(0, 1).unwrap();
/// ghz.cx(1, 2).unwrap();
/// let state = StatevectorSimulator::new().run(&ghz)?;
/// assert!((state.amplitude(0).norm_sqr() - 0.5).abs() < 1e-12);
/// let threaded = StatevectorSimulator::new().with_parallel(ParallelConfig::with_threads(2));
/// assert_eq!(threaded.run(&ghz)?, state);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StatevectorSimulator {
    parallel: ParallelConfig,
}

impl StatevectorSimulator {
    /// Creates the simulator; the engine configuration defaults to
    /// [`ParallelConfig::from_env`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the statevector engine configuration (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Computes the exact final state of a unitary circuit.
    ///
    /// # Errors
    ///
    /// Returns [`AerError::UnsupportedInstruction`] for measurement, reset
    /// or conditioned gates, and [`AerError::TooManyQubits`] for circuits
    /// beyond the dense limit.
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<Statevector> {
        if circuit.num_qubits() > MAX_QUBITS {
            return Err(AerError::TooManyQubits {
                requested: circuit.num_qubits(),
                max: MAX_QUBITS,
            });
        }
        let _span = qukit_obs::span!(
            "aer.statevector_run",
            qubits = circuit.num_qubits(),
            threads = self.parallel.threads,
            simd = if self.parallel.simd { "on" } else { "off" },
        );
        qukit_obs::counter_inc("qukit_aer_statevector_runs_total");
        let mut amps = vec![Complex::ZERO; 1usize << circuit.num_qubits()];
        amps[0] = Complex::ONE;
        let mut tally = GateTally::default();
        parallel::evolve(&mut amps, circuit.instructions(), &self.parallel, &mut tally)?;
        tally.flush("qukit_aer_statevector_gates_total");
        let mut state = Statevector::from_amplitudes(amps);
        state.apply_global_phase(circuit.global_phase());
        Ok(state)
    }
}

/// Full-unitary simulator (exponentially expensive; for verification).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitarySimulator;

impl UnitarySimulator {
    /// Creates the simulator.
    pub fn new() -> Self {
        Self
    }

    /// Computes the circuit's unitary matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StatevectorSimulator::run`], with a tighter
    /// width limit (the matrix is `4^n` entries).
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<Matrix> {
        if circuit.num_qubits() > 13 {
            return Err(AerError::TooManyQubits { requested: circuit.num_qubits(), max: 13 });
        }
        for inst in circuit.instructions() {
            let supported = matches!(inst.op, Operation::Gate(_) | Operation::Barrier)
                && inst.condition.is_none();
            if !supported {
                return Err(AerError::UnsupportedInstruction {
                    name: inst.op.name().to_owned(),
                    simulator: "unitary simulator",
                });
            }
        }
        qukit_terra::reference::unitary(circuit).map_err(AerError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{NoiseModel, QuantumError, ReadoutError};
    use qukit_terra::gate::Gate;

    fn bell_measured() -> QuantumCircuit {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        circ
    }

    #[test]
    fn bell_counts_are_correlated_and_balanced() {
        let counts = QasmSimulator::new().with_seed(1).run(&bell_measured(), 4000).unwrap();
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.get("01"), 0);
        assert_eq!(counts.get("10"), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = QasmSimulator::new().with_seed(9).run(&bell_measured(), 100).unwrap();
        let b = QasmSimulator::new().with_seed(9).run(&bell_measured(), 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_batch_is_bit_identical_to_per_circuit_runs() {
        let circuits: Vec<QuantumCircuit> = (0..8)
            .map(|i| {
                let mut circ = QuantumCircuit::with_size(3, 3);
                circ.ry(0.1 + 0.2 * i as f64, 0).unwrap();
                circ.cx(0, 1).unwrap();
                circ.ry(0.3 + 0.1 * i as f64, 2).unwrap();
                circ.cx(1, 2).unwrap();
                circ.measure_all();
                circ
            })
            .collect();
        let sim = QasmSimulator::new().with_seed(13).with_parallel(ParallelConfig::with_threads(2));
        let batch = sim.run_batch(&circuits, 512).unwrap();
        assert_eq!(batch.len(), circuits.len());
        for (circ, counts) in circuits.iter().zip(&batch) {
            assert_eq!(&sim.run(circ, 512).unwrap(), counts);
        }
        // The default configuration shares the same engine and buffer reuse.
        let default = QasmSimulator::new().with_seed(13);
        let batch = default.run_batch(&circuits, 64).unwrap();
        for (circ, counts) in circuits.iter().zip(&batch) {
            assert_eq!(&default.run(circ, 64).unwrap(), counts);
        }
    }

    #[test]
    fn unmeasured_qubits_report_zero() {
        let mut circ = QuantumCircuit::with_size(2, 1);
        circ.x(0).unwrap();
        circ.x(1).unwrap();
        circ.measure(1, 0).unwrap();
        let counts = QasmSimulator::new().with_seed(2).run(&circ, 50).unwrap();
        assert_eq!(counts.get_value(1), 50);
    }

    #[test]
    fn mid_circuit_measurement_forces_trajectories() {
        // Measure then apply a conditional X: deterministic teleport-like
        // correction.
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.x(0).unwrap();
        circ.measure(0, 0).unwrap();
        circ.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = QasmSimulator::new().with_seed(3).run(&circ, 200).unwrap();
        assert_eq!(counts.get_value(0b11), 200);
    }

    #[test]
    fn conditional_not_taken_when_register_differs() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.measure(0, 0).unwrap(); // always 0
        circ.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = QasmSimulator::new().with_seed(4).run(&circ, 100).unwrap();
        assert_eq!(counts.get_value(0b00), 100);
    }

    #[test]
    fn reset_clears_qubit_state() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.h(0).unwrap();
        circ.reset(0).unwrap();
        circ.measure(0, 0).unwrap();
        let counts = QasmSimulator::new().with_seed(5).run(&circ, 300).unwrap();
        assert_eq!(counts.get_value(0), 300);
    }

    #[test]
    fn depolarizing_noise_degrades_ghz() {
        let mut ghz = QuantumCircuit::with_size(3, 3);
        ghz.h(0).unwrap();
        ghz.cx(0, 1).unwrap();
        ghz.cx(1, 2).unwrap();
        ghz.measure(0, 0).unwrap();
        ghz.measure(1, 1).unwrap();
        ghz.measure(2, 2).unwrap();

        let ideal = QasmSimulator::new().with_seed(6).run(&ghz, 2000).unwrap();
        let noisy = QasmSimulator::new()
            .with_seed(6)
            .with_noise(NoiseModel::depolarizing(0.01, 0.05, 0.0))
            .run(&ghz, 2000)
            .unwrap();
        let ideal_success = ideal.probability(0b000) + ideal.probability(0b111);
        let noisy_success = noisy.probability(0b000) + noisy.probability(0b111);
        assert!(ideal_success > 0.99);
        assert!(noisy_success < ideal_success - 0.02, "noise must visibly degrade results");
        assert!(noisy_success > 0.5, "but not destroy them at these rates");
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.measure(0, 0).unwrap();
        let mut noise = NoiseModel::new();
        noise.set_readout_error(ReadoutError::symmetric(0.2));
        let counts = QasmSimulator::new().with_seed(7).with_noise(noise).run(&circ, 3000).unwrap();
        let flip_rate = counts.probability(1);
        assert!((flip_rate - 0.2).abs() < 0.03, "flip rate {flip_rate}");
    }

    #[test]
    fn local_noise_only_affects_its_qubits() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.id(0).unwrap();
        circ.id(1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        let mut noise = NoiseModel::new();
        // 100% bit flip attached to id on qubit 1 only.
        noise.add_local_error("id", vec![1], QuantumError::bit_flip(1.0));
        let counts = QasmSimulator::new().with_seed(8).with_noise(noise).run(&circ, 100).unwrap();
        assert_eq!(counts.get_value(0b10), 100);
    }

    #[test]
    fn statevector_simulator_matches_reference() {
        let circ = qukit_terra::circuit::fig1_circuit();
        let state = StatevectorSimulator::new().run(&circ).unwrap();
        let reference = qukit_terra::reference::statevector(&circ).unwrap();
        for (a, b) in state.amplitudes().iter().zip(&reference) {
            assert!(a.approx_eq(*b));
        }
    }

    #[test]
    fn statevector_simulator_rejects_measurement() {
        let err = StatevectorSimulator::new().run(&bell_measured()).unwrap_err();
        assert!(matches!(err, AerError::UnsupportedInstruction { .. }));
        assert!(err.to_string().contains("measure"));
    }

    #[test]
    fn unitary_simulator_produces_unitary() {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        let u = UnitarySimulator::new().run(&circ).unwrap();
        assert!(u.is_unitary());
        assert_eq!(u.rows(), 4);
    }

    #[test]
    fn terminal_detection() {
        assert!(is_measurement_terminal(&bell_measured()));
        let mut mid = QuantumCircuit::with_size(1, 1);
        mid.measure(0, 0).unwrap();
        mid.h(0).unwrap();
        assert!(!is_measurement_terminal(&mid));
        let mut with_reset = QuantumCircuit::with_size(1, 1);
        with_reset.reset(0).unwrap();
        assert!(!is_measurement_terminal(&with_reset));
    }

    #[test]
    fn terminal_detection_commutes_measures_past_disjoint_gates() {
        // Scheduler-style interleaving: q0 is measured while tail gates
        // still run on q1/q2. No measured qubit is touched again, so the
        // sampled fast path applies.
        let mut interleaved = QuantumCircuit::with_size(3, 3);
        interleaved.h(0).unwrap();
        interleaved.measure(0, 0).unwrap();
        interleaved.h(1).unwrap();
        interleaved.measure(1, 1).unwrap();
        interleaved.h(2).unwrap();
        interleaved.measure(2, 2).unwrap();
        assert!(is_measurement_terminal(&interleaved));

        // A two-qubit gate touching an already-measured qubit disqualifies.
        let mut reuse = QuantumCircuit::with_size(2, 2);
        reuse.measure(0, 0).unwrap();
        reuse.cx(0, 1).unwrap();
        assert!(!is_measurement_terminal(&reuse));

        // Writing the same clbit twice disqualifies (order matters).
        let mut overwrite = QuantumCircuit::with_size(2, 1);
        overwrite.measure(0, 0).unwrap();
        overwrite.measure(1, 0).unwrap();
        assert!(!is_measurement_terminal(&overwrite));
    }

    #[test]
    fn width_limits_are_enforced() {
        let circ = QuantumCircuit::new(31);
        assert!(matches!(QasmSimulator::new().run(&circ, 1), Err(AerError::TooManyQubits { .. })));
        let circ14 = QuantumCircuit::new(14);
        assert!(matches!(
            UnitarySimulator::new().run(&circ14),
            Err(AerError::TooManyQubits { .. })
        ));
    }
}
